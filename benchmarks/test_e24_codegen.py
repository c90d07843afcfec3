"""E24 — the compiled batch kernels' work on a fixed stream, as a trajectory.

The compiled maintenance hot path (docs/codegen.md) runs generated
Python: one screen kernel per (view, relation-occurrence) evaluating
the invariant/variant split over a whole delta batch, one step function
per (join step, choice) of each truth-table shape, driven over the
shape's rows with a prefix memo, and one apply kernel folding
projection and multiplicity counting in bulk.  This experiment drives
the Example 4.1 view ``u = π_{A,D}(σ_{A<10 ∧ C>5 ∧ B=C}(r × s))`` —
plus a selection view and a counted projection view, so all three
Section 5 special cases are on the hot path — through one seeded commit
stream and asserts:

* the maintained view contents equal full recomputation by the
  independent tree evaluator, view by view;
* every abstract work counter (tuples scanned, join probes, truth-table
  rows, screen evaluations, memo hits, …) equals the ``parity_counters``
  of the newest full-size entry in ``BENCH_E24.json`` (the first was
  recorded with kernel generator version 3), so a kernel change that
  does more or less work shows up here, not only in wall-clock time.

The stream always has its recorded size (it takes well under a second);
``REPRO_E24_SMOKE=1`` (CI sets it) only cuts the timing repeats to one.
Set ``REPRO_E24_RECORD=1`` to append the measured numbers to
``BENCH_E24.json`` at the repo root.
"""

import json
import random
import time
from datetime import date
from pathlib import Path

from benchmarks.conftest import record_env, recorded_parity, smoke_env
from repro import BaseRef, Database, ViewMaintainer
from repro.algebra.evaluate import evaluate
from repro.bench.reporting import format_table
from repro.instrumentation import CostRecorder, recording

SMOKE = smoke_env("E24")
RECORD = record_env("E24")
TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_E24.json"

TXNS = 250
SEED_ROWS = 250
#: Timing repeats; the minimum is reported (noise shrinks the minimum
#: toward the true cost, never below it).
REPEATS = 1 if SMOKE else 3

#: All three Section 5 special cases plus the Example 4.1 join view.
VIEWS = {
    "u": BaseRef("r")
    .product(BaseRef("s"))
    .select("A < 10 and C > 5 and B = C")
    .project(["A", "D"]),
    "sel": BaseRef("r").select("A < 10 and B > 2"),
    "proj": BaseRef("s").project(["D"]),
}

#: Values straddle the A < 10 screen boundary so the stream mixes
#: relevant and (statically) irrelevant updates, as in Example 4.1.
VALUE_RANGE = (-5, 25)


def _seeded_database():
    rng = random.Random(24)

    def distinct_rows(count):
        rows = set()
        while len(rows) < count:
            rows.add(
                (rng.randint(*VALUE_RANGE), rng.randint(*VALUE_RANGE))
            )
        return sorted(rows)

    db = Database()
    db.create_relation("r", ["A", "B"], distinct_rows(SEED_ROWS))
    db.create_relation("s", ["C", "D"], distinct_rows(SEED_ROWS))
    return db


def _churn(db, txns, seed):
    """Commit a seeded stream of mixed inserts and deletes."""
    rng = random.Random(seed)
    live = {name: set(db.relation(name).value_tuples()) for name in ("r", "s")}
    for _ in range(txns):
        with db.transact() as txn:
            for _ in range(rng.randint(1, 4)):
                name = rng.choice(["r", "r", "s"])
                if live[name] and rng.random() < 0.3:
                    row = rng.choice(sorted(live[name]))
                    txn.delete(name, row)
                    live[name].discard(row)
                else:
                    row = (
                        rng.randint(*VALUE_RANGE),
                        rng.randint(*VALUE_RANGE),
                    )
                    txn.insert(name, row)
                    live[name].add(row)


def _run_stream():
    """Maintain the stream ``REPEATS`` times on fresh state.

    Returns (fastest seconds, counters, contents, codegen stats) —
    counters, contents and stats are identical across repeats, since
    the seeds are.
    """
    times = []
    for _ in range(REPEATS):
        db = _seeded_database()
        maintainer = ViewMaintainer(db)
        for name, expression in VIEWS.items():
            maintainer.define_view(name, expression)
        recorder = CostRecorder()
        start = time.perf_counter()
        with recording(recorder):
            _churn(db, TXNS, seed=7)
        times.append(time.perf_counter() - start)
        instances = db.instances()
        contents = {}
        for name, expression in VIEWS.items():
            contents[name] = dict(maintainer.view(name).contents.counts())
            assert contents[name] == dict(
                evaluate(expression, instances).counts()
            ), name
        stats = maintainer.codegen_stats().as_dict()
    return min(times), recorder.snapshot(), contents, stats


#: The abstract work counters pinned to the recorded trajectory.
#: Codegen-only counters are excluded.
PARITY_COUNTERS = (
    "tuples_scanned",
    "join_probes",
    "tuples_emitted",
    "tuples_ignored",
    "truth_table_rows",
    "delta_rows_evaluated",
    "subexpression_memo_hits",
    "filter_tuples_checked",
    "filter_ground_evals",
    "filter_bound_probes",
    "differential_updates",
)


def _record(entry):
    trajectory = []
    if TRAJECTORY.exists():
        trajectory = json.loads(TRAJECTORY.read_text())
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=2) + "\n")


def test_e24_kernel_work_trajectory(report, benchmark):
    best, counters, _, stats = _run_stream()

    # The same abstract work as the recorded trajectory, counter for
    # counter (contents were checked against the recompute per view).
    observed = {name: counters.get(name, 0) for name in PARITY_COUNTERS}
    assert observed == recorded_parity(TRAJECTORY, TXNS)
    assert stats["codegen_plans_compiled"] > 0
    assert stats["codegen_batch_rows"] > 0

    report(
        format_table(
            ["stream ms", "tuples scanned", "tt rows", "batch rows"],
            [[
                f"{best * 1e3:.1f}",
                counters.get("tuples_scanned", 0),
                counters.get("truth_table_rows", 0),
                stats["codegen_batch_rows"],
            ]],
            title=(
                f"E24  kernel work on the Example 4.1 stream ({TXNS} txns, "
                f"best of {REPEATS})"
            ),
        )
    )

    if RECORD:
        _record(
            {
                "experiment": "E24",
                "date": date.today().isoformat(),
                "smoke": SMOKE,
                "txns": TXNS,
                "codegen_ms": round(best * 1e3, 2),
                "codegen": stats,
                "parity_counters": observed,
            }
        )

    # One micro-benchmark sample: a single relevant commit maintained
    # through the generated kernels.
    bench_db = _seeded_database()
    bench_maintainer = ViewMaintainer(bench_db)
    for name, expression in VIEWS.items():
        bench_maintainer.define_view(name, expression)
    bench_rng = random.Random(1)

    def commit_once():
        with bench_db.transact() as txn:
            txn.insert(
                "r",
                (bench_rng.randint(*VALUE_RANGE), bench_rng.randint(*VALUE_RANGE)),
            )

    benchmark(commit_once)
