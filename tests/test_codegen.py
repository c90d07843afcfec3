"""Tests for the generated batch kernels (``repro.core.codegen``).

The codegen contract has four legs, each pinned here:

* **equivalence** — the maintained views equal the independent tree
  evaluator (:func:`repro.algebra.evaluate.evaluate`) byte-for-byte
  over random legal update streams covering every truth-table shape the
  views produce (single-relation, two- and three-way joins, counted
  projections, disjunctions needing the final DNF re-check), and a
  fixed stream charges exactly the abstract-work counters recorded
  for it with kernel generator version 3;
* **determinism** — compiling the same view twice emits byte-identical
  kernel source (replicas must agree on the code they run, not just
  its results);
* **invalidation** — a static-irrelevance proof baked into generated
  screen source cannot survive ``declare_constraint`` /
  ``drop_constraint``: the DDL drops the compiled kernels with the
  plan, and the recompiled source changes behavior immediately;
* **wide views** — a ten-occurrence chain join maintains correctly
  through 127- and 1023-row truth tables, and the generated source
  grows linearly in the number of occurrences.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BaseRef, Database, ViewMaintainer
from repro.algebra.evaluate import evaluate
from repro.algebra.relation import Delta
from repro.core.codegen import (
    CODEGEN_VERSION,
    DeltaBatch,
    codegen_rows,
    generate_shape_source,
    plan_fingerprint,
)
from repro.instrumentation import CostRecorder, recording

# ----------------------------------------------------------------------
# Shared fixtures: three base relations and view shapes spanning the
# truth-table space (k = 1 .. 3 changed operands, all Section 5 cases).
# ----------------------------------------------------------------------
VIEW_SHAPES = {
    "join2": BaseRef("r")
    .product(BaseRef("s"))
    .select("A < 10 and C > 5 and B = C")
    .project(["A", "D"]),
    "join3": BaseRef("r")
    .product(BaseRef("s"))
    .product(BaseRef("t"))
    .select("B = C and D = E"),
    "proj": BaseRef("r").project(["B"]),
    "disj": BaseRef("r").select("A < 3 or B > 6"),
}

#: Abstract-work counters pinned to recorded values.
PARITY_COUNTERS = (
    "tuples_scanned",
    "join_probes",
    "index_probes",
    "tuples_emitted",
    "tuples_ignored",
    "truth_table_rows",
    "delta_rows_evaluated",
    "subexpression_memo_hits",
    "filter_tuples_checked",
    "filter_ground_evals",
    "filter_bound_probes",
    "static_tuples_dropped",
    "differential_updates",
)


def _fresh_database():
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 6), (2, 7), (9, 9)])
    db.create_relation("s", ["C", "D"], [(6, 1), (7, 2), (9, 5)])
    db.create_relation("t", ["E", "F"], [(1, 0), (5, 3)])
    return db


def _run_stream(stream, **maintainer_options):
    """Build the shared catalog, replay ``stream``, return the evidence.

    ``stream`` is a list of transactions; each transaction is a list of
    ``(relation, row, delete?)`` operations.  Deletes target a live row
    (chosen by index) so every stream is legal by construction.
    """
    db = _fresh_database()
    maintainer = ViewMaintainer(db, **maintainer_options)
    for name, expression in VIEW_SHAPES.items():
        maintainer.define_view(name, expression)
    live = {
        name: sorted(db.relation(name).value_tuples())
        for name in ("r", "s", "t")
    }
    recorder = CostRecorder()
    with recording(recorder):
        for txn_ops in stream:
            with db.transact() as txn:
                staged = {name: list(rows) for name, rows in live.items()}
                for name, row, delete in txn_ops:
                    if delete:
                        if not staged[name]:
                            continue
                        victim = staged[name].pop(
                            row[0] % len(staged[name])
                        )
                        txn.delete(name, victim)
                    elif row not in staged[name]:
                        txn.insert(name, row)
                        staged[name].append(row)
                live = {
                    name: sorted(rows) for name, rows in staged.items()
                }
    maintainer.verify_all()
    contents = {
        name: dict(maintainer.view(name).contents.counts())
        for name in VIEW_SHAPES
    }
    return maintainer, recorder.snapshot(), contents


def _assert_matches_oracle(stream, **options):
    """Every maintained view equals the tree evaluator's recompute."""
    maintainer, counters, contents = _run_stream(stream, **options)
    instances = maintainer.database.instances()
    for name, expression in VIEW_SHAPES.items():
        assert contents[name] == dict(evaluate(expression, instances).counts())
    assert maintainer.codegen_stats().plans_compiled > 0
    return counters


#: Counters the seed-17 stream charged under each option set, recorded
#: with kernel generator version 3; later generators must do the same
#: abstract work.
RECORDED_COUNTERS = {
    "default": {
        "delta_rows_evaluated": 116, "differential_updates": 72,
        "filter_bound_probes": 103, "filter_ground_evals": 91,
        "filter_tuples_checked": 157, "index_probes": 158,
        "join_probes": 269, "subexpression_memo_hits": 28,
        "truth_table_rows": 116, "tuples_emitted": 118,
        "tuples_ignored": 6, "tuples_scanned": 241,
    },
    "no_sharing": {
        "delta_rows_evaluated": 116, "differential_updates": 72,
        "filter_bound_probes": 103, "filter_ground_evals": 91,
        "filter_tuples_checked": 157, "index_probes": 161,
        "join_probes": 290, "truth_table_rows": 116,
        "tuples_emitted": 119, "tuples_ignored": 6, "tuples_scanned": 296,
    },
    "no_indexes": {
        "delta_rows_evaluated": 116, "differential_updates": 72,
        "filter_bound_probes": 103, "filter_ground_evals": 91,
        "filter_tuples_checked": 157, "join_probes": 269,
        "subexpression_memo_hits": 28, "truth_table_rows": 116,
        "tuples_emitted": 118, "tuples_ignored": 6, "tuples_scanned": 459,
    },
    "no_filter": {
        "delta_rows_evaluated": 148, "differential_updates": 86,
        "index_probes": 162, "join_probes": 317,
        "subexpression_memo_hits": 37, "truth_table_rows": 148,
        "tuples_emitted": 118, "tuples_ignored": 6, "tuples_scanned": 325,
    },
}


rows_st = st.tuples(
    st.integers(min_value=-3, max_value=12),
    st.integers(min_value=-3, max_value=12),
)
operation_st = st.tuples(
    st.sampled_from(["r", "r", "s", "t"]), rows_st, st.booleans()
)
#: Transactions of 1-3 operations: multi-relation transactions produce
#: the k >= 2 truth-table shapes.
stream_st = st.lists(
    st.lists(operation_st, min_size=1, max_size=3),
    min_size=1,
    max_size=8,
)


class TestEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(stream=stream_st)
    def test_kernels_match_oracle_on_random_streams(self, stream):
        _assert_matches_oracle(stream)

    def test_parity_holds_under_every_ablation(self):
        rng = random.Random(17)
        stream = [
            [
                (
                    rng.choice(["r", "r", "s", "t"]),
                    (rng.randint(-3, 12), rng.randint(-3, 12)),
                    rng.random() < 0.3,
                )
                for _ in range(rng.randint(1, 3))
            ]
            for _ in range(25)
        ]
        for label, options in (
            ("default", {}),
            ("no_sharing", {"share_subexpressions": False}),
            ("no_indexes", {"use_indexes": False}),
            ("no_filter", {"use_relevance_filter": False}),
        ):
            counters = _assert_matches_oracle(stream, **options)
            observed = {
                name: counters[name]
                for name in PARITY_COUNTERS
                if counters.get(name, 0)
            }
            assert observed == RECORDED_COUNTERS[label], label


class TestSourceDeterminism:
    def _kernel_sources(self):
        db = _fresh_database()
        maintainer = ViewMaintainer(db)
        for name, expression in VIEW_SHAPES.items():
            maintainer.define_view(name, expression)
        return {
            name: maintainer.kernel_source(name) for name in VIEW_SHAPES
        }

    def test_two_compiles_emit_byte_identical_source(self):
        assert self._kernel_sources() == self._kernel_sources()

    def test_source_names_view_and_version(self):
        source = self._kernel_sources()["join2"]
        assert "'join2'" in source
        assert f"codegen v{CODEGEN_VERSION}" in source

    def test_fingerprint_carries_generator_version(self):
        db = _fresh_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", VIEW_SHAPES["join2"])
        nf = maintainer.view("v").definition.normal_form
        fingerprint = plan_fingerprint(nf)
        assert fingerprint == maintainer.expected_plan_fingerprint("v")
        assert fingerprint == (nf.fingerprint(), ("codegen", CODEGEN_VERSION))


class TestConstraintDDL:
    """A baked static-irrelevance proof must die with constraint DDL."""

    def _maintainer(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(20, 1), (30, 2)])
        db.declare_constraint("r", "A >= 20")
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r").select("A < 10"))
        return db, maintainer

    def test_stale_proof_cannot_survive_drop_constraint(self):
        db, maintainer = self._maintainer()
        # Under the constraint, every r-update is provably irrelevant:
        # the generated screen is a stub that drops the whole batch.
        assert "statically irrelevant" in maintainer.kernel_source("v")
        with db.transact() as txn:
            txn.insert("r", (25, 3))
        assert dict(maintainer.view("v").contents.counts()) == {}

        db.drop_constraint("r")
        # The plan — kernels included — was invalidated: the recompiled
        # source screens per-tuple again and maintenance sees the row.
        assert "statically irrelevant" not in maintainer.kernel_source("v")
        with db.transact() as txn:
            txn.insert("r", (5, 4))
        assert dict(maintainer.view("v").contents.counts()) == {(5, 4): 1}
        maintainer.verify_all()

    def test_declare_constraint_recompiles_to_the_stub(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(20, 1)])
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("r").select("A < 10"))
        assert "statically irrelevant" not in maintainer.kernel_source("v")
        db.declare_constraint("r", "A >= 20")
        assert "statically irrelevant" in maintainer.kernel_source("v")
        maintainer.verify_all()


def _chain(width):
    """A ``width``-occurrence chain join ``c0 ⋈ c1 ⋈ … ⋈ c{width-1}``."""
    db = Database()
    for i in range(width):
        rows = [(v, v) for v in range(4)] + [(v, v + 1) for v in range(3)]
        db.create_relation(f"c{i}", [f"X{i}", f"X{i + 1}"], rows)
    expression = BaseRef("c0")
    for i in range(1, width):
        expression = expression.join(BaseRef(f"c{i}"))
    return db, expression.project(["X0", f"X{width}"])


#: The ten-occurrence stream's counters, recorded with kernel generator
#: version 3 (which executed views this wide tuple by tuple).
WIDE_RECORDED_COUNTERS = {
    "delta_rows_evaluated": 1150, "differential_updates": 2,
    "filter_bound_probes": 27, "filter_tuples_checked": 27,
    "index_probes": 6618, "join_probes": 12114,
    "subexpression_memo_hits": 1146, "truth_table_rows": 1150,
    "tuples_emitted": 11560, "tuples_ignored": 1425, "tuples_scanned": 41,
}


class TestWideViews:
    def test_ten_occurrence_chain_matches_oracle(self):
        db, expression = _chain(10)
        maintainer = ViewMaintainer(db)
        view = maintainer.define_view("chain", expression)
        recorder = CostRecorder()
        # Seven changed occurrences: 2^7 - 1 = 127 truth-table rows.
        with recording(recorder):
            with db.transact() as txn:
                for i in range(7):
                    txn.insert(f"c{i}", (i % 4, (i + 2) % 4))
        assert recorder.get("truth_table_rows") == 127
        want = evaluate(expression, db.instances())
        assert dict(view.contents.counts()) == dict(want.counts())
        # All ten changed, inserts and deletes: 1023 rows.
        with recording(recorder):
            with db.transact() as txn:
                for i in range(10):
                    txn.insert(f"c{i}", (3, 0))
                    txn.delete(f"c{i}", (i % 3, i % 3 + 1))
        assert recorder.get("truth_table_rows") == 127 + 1023
        want = evaluate(expression, db.instances())
        assert dict(view.contents.counts()) == dict(want.counts())
        counters = recorder.snapshot()
        observed = {
            name: counters[name]
            for name in PARITY_COUNTERS
            if counters.get(name, 0)
        }
        assert observed == WIDE_RECORDED_COUNTERS

    def test_generated_source_grows_linearly(self):
        lines = {}
        for width in (5, 10):
            db, expression = _chain(width)
            maintainer = ViewMaintainer(db)
            maintainer.define_view("chain", expression)
            plan = maintainer.compiled_plan("chain")
            shape = tuple(range(width))
            source = generate_shape_source(
                plan.planner_for(shape), codegen_rows(width, shape)
            )
            lines[width] = source.count("\n")
        assert lines[10] <= 3 * lines[5], lines


class TestDeltaBatch:
    def _delta(self, db):
        schema = db.relation("r").schema
        return Delta.from_counts(
            schema,
            {(1, 6): 2, (2, 7): 1},
            {(9, 9): 1},
        )

    def test_full_mask_round_trips(self):
        delta = self._delta(_fresh_database())
        batch = DeltaBatch.from_delta(delta)
        assert len(batch) == 3
        assert batch.n_inserted == 2
        assert batch.columns[0] == [1, 2, 9]
        assert batch.columns[1] == [6, 7, 9]
        out = batch.to_delta(bytearray([1] * len(batch)))
        assert out.inserted == delta.inserted
        assert out.deleted == delta.deleted

    def test_partial_mask_keeps_counts_and_sides(self):
        delta = self._delta(_fresh_database())
        batch = DeltaBatch.from_delta(delta)
        mask = bytearray(len(batch))
        mask[0] = 1  # one insert
        mask[2] = 1  # the delete
        out = batch.to_delta(mask)
        assert out.inserted == {(1, 6): 2}
        assert out.deleted == {(9, 9): 1}


class TestStatsSurface:
    def test_codegen_stats_as_dict_keys(self):
        _, counters, _ = _run_stream([[("r", (1, 6), False)]])
        db = _fresh_database()
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", VIEW_SHAPES["join2"])
        stats = maintainer.codegen_stats().as_dict()
        assert set(stats) == {
            "codegen_plans_compiled",
            "codegen_batch_rows",
        }
        assert stats["codegen_plans_compiled"] > 0

    def test_counters_reach_the_recorder(self):
        _, counters, _ = _run_stream(
            [[("r", (1, 6), False)], [("s", (8, 8), False)]]
        )
        assert counters.get("codegen_plans_compiled", 0) > 0
        assert counters.get("codegen_batch_rows", 0) > 0

    def test_unknown_view_kernel_source_fails_loudly(self):
        maintainer = ViewMaintainer(_fresh_database())
        with pytest.raises(Exception):
            maintainer.kernel_source("nope")
