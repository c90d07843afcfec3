"""Property suite for aggregate view maintenance via generalized counting.

The contract under test: differentially maintaining an aggregate view
(per-group COUNT/SUM/AVG/MIN/MAX accumulators folded from the Section 5
delta pipeline) produces contents *byte-for-byte equal* — multiplicity
counters included — to a full recompute from the base relations, on
every execution path the engine has:

* the immediate commit path through the generated fold kernel (with
  its abstract-work counters pinned to values recorded on fixed
  streams),
* deferred refresh at a quiescent point,
* kill-and-recover (checkpoint + WAL replay through ``recover``),
* followers, both full-replica and base-free.

Streams and view specs are drawn by hypothesis through the simulator's
generators (``tests/strategies.py``), so shrinking works on seeds while
the populations match the simulation harness exactly.  The
deterministic classes at the bottom pin the MIN/MAX delete edge cases
the accumulators were designed around: support-count exhaustion, group
disappearance, re-insert after an empty group, and duplicate rows with
equal aggregate input.
"""

import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BaseRef,
    Database,
    DurabilityManager,
    Follower,
    MaintenancePolicy,
    ViewMaintainer,
    recover,
)
from repro.algebra.evaluate import evaluate
from repro.instrumentation import CostRecorder, recording
from repro.simulation.workload import BASE_TABLES, random_aggregate_expression
from tests.strategies import (
    aggregate_expressions,
    seeded_update_stream,
    update_streams,
)


def build_database(initial):
    database = Database()
    for name in sorted(BASE_TABLES):
        database.create_relation(name, BASE_TABLES[name], initial[name])
    return database


def replay(database, transactions):
    for ops in transactions:
        with database.transact() as txn:
            for op, name, row in ops:
                if op == "ins":
                    txn.insert(name, row)
                else:
                    txn.delete(name, row)


def recompute(expression, database):
    return evaluate(expression, database.instances()).counts()


def assert_matches_recompute(maintainer, name, database):
    view = maintainer.view(name)
    want = recompute(view.definition.expression, database)
    have = view.contents.counts()
    assert have == want, f"{name}: differential {have!r} != recompute {want!r}"
    # The internal support bags must render exactly the visible rows.
    state = view.aggregate_state
    assert state is not None
    assert state.visible_relation().counts() == have


# ----------------------------------------------------------------------
# The tentpole property: differential == recompute
# ----------------------------------------------------------------------

#: Abstract-work counters each fixed (seed, 30-transaction) stream
#: charged, recorded with kernel generator version 3.  Every seed's
#: stream folds rows into its aggregate view; seeds 1, 8 and 39 are
#: single-relation views, the rest joins.
FOLD_STREAM_TXNS = 30
RECORDED_FOLD_COUNTERS = {
    1: {"aggregate_groups_touched": 6, "aggregate_rows_folded": 6,
        "delta_rows_evaluated": 6, "differential_updates": 6,
        "filter_bound_probes": 7, "filter_ground_evals": 32,
        "filter_tuples_checked": 22, "truth_table_rows": 6,
        "tuples_scanned": 7},
    6: {"aggregate_groups_touched": 7, "aggregate_rows_folded": 9,
        "delta_rows_evaluated": 22, "differential_updates": 20,
        "filter_bound_probes": 25, "filter_ground_evals": 19,
        "filter_tuples_checked": 41, "join_probes": 33,
        "subexpression_memo_hits": 1, "truth_table_rows": 22,
        "tuples_emitted": 20, "tuples_ignored": 1, "tuples_scanned": 155},
    8: {"aggregate_groups_touched": 7, "aggregate_rows_folded": 8,
        "delta_rows_evaluated": 7, "differential_updates": 7,
        "filter_bound_probes": 8, "filter_ground_evals": 23,
        "filter_tuples_checked": 23, "truth_table_rows": 7,
        "tuples_scanned": 8},
    9: {"aggregate_groups_touched": 19, "aggregate_rows_folded": 43,
        "delta_rows_evaluated": 31, "differential_updates": 21,
        "filter_bound_probes": 31, "filter_tuples_checked": 31,
        "join_probes": 68, "subexpression_memo_hits": 5,
        "truth_table_rows": 31, "tuples_emitted": 122, "tuples_ignored": 5,
        "tuples_scanned": 214},
    10: {"aggregate_groups_touched": 20, "aggregate_rows_folded": 28,
         "delta_rows_evaluated": 49, "differential_updates": 27,
         "filter_bound_probes": 49, "filter_ground_evals": 29,
         "filter_tuples_checked": 50, "index_probes": 36, "join_probes": 77,
         "subexpression_memo_hits": 11, "truth_table_rows": 49,
         "tuples_emitted": 33, "tuples_ignored": 3, "tuples_scanned": 79},
    12: {"aggregate_groups_touched": 94, "aggregate_rows_folded": 94,
         "delta_rows_evaluated": 29, "differential_updates": 23,
         "filter_bound_probes": 33, "filter_ground_evals": 23,
         "filter_tuples_checked": 50, "join_probes": 37,
         "subexpression_memo_hits": 3, "truth_table_rows": 29,
         "tuples_emitted": 94, "tuples_ignored": 1, "tuples_scanned": 132},
    17: {"aggregate_groups_touched": 69, "aggregate_rows_folded": 84,
         "delta_rows_evaluated": 40, "differential_updates": 26,
         "filter_bound_probes": 35, "filter_ground_evals": 22,
         "filter_tuples_checked": 38, "join_probes": 55,
         "subexpression_memo_hits": 7, "truth_table_rows": 40,
         "tuples_emitted": 149, "tuples_ignored": 7, "tuples_scanned": 215},
    39: {"aggregate_groups_touched": 20, "aggregate_rows_folded": 20,
         "delta_rows_evaluated": 15, "differential_updates": 15,
         "filter_tuples_checked": 20, "truth_table_rows": 15,
         "tuples_scanned": 20},
}
FOLD_COUNTERS = (
    "tuples_scanned", "join_probes", "index_probes", "tuples_emitted",
    "tuples_ignored", "truth_table_rows", "delta_rows_evaluated",
    "subexpression_memo_hits", "filter_tuples_checked",
    "filter_ground_evals", "filter_bound_probes", "static_tuples_dropped",
    "differential_updates", "aggregate_rows_folded",
    "aggregate_groups_touched",
)

class TestDifferentialEqualsRecompute:
    @given(expression=aggregate_expressions(), stream=update_streams())
    @settings(max_examples=40, deadline=None)
    def test_immediate_commit_path(self, expression, stream):
        initial, transactions = stream
        database = build_database(initial)
        maintainer = ViewMaintainer(database)
        maintainer.define_view("agg", expression)
        replay(database, transactions)
        assert_matches_recompute(maintainer, "agg", database)

    @given(expression=aggregate_expressions(), stream=update_streams())
    @settings(max_examples=25, deadline=None)
    def test_per_transaction_agreement(self, expression, stream):
        # Not just at the end: the view must agree after *every* commit.
        initial, transactions = stream
        database = build_database(initial)
        maintainer = ViewMaintainer(database)
        maintainer.define_view("agg", expression)
        for ops in transactions:
            replay(database, [ops])
            assert_matches_recompute(maintainer, "agg", database)

    @given(expression=aggregate_expressions(), stream=update_streams())
    @settings(max_examples=25, deadline=None)
    def test_deferred_refresh(self, expression, stream):
        initial, transactions = stream
        database = build_database(initial)
        maintainer = ViewMaintainer(database)
        maintainer.define_view(
            "agg", expression, policy=MaintenancePolicy.DEFERRED
        )
        replay(database, transactions)
        maintainer.quiesce()
        assert_matches_recompute(maintainer, "agg", database)

    def test_fold_counters_match_recorded_values(self):
        # Fixed streams: the generated kernels must fold the same rows,
        # touch the same groups and do the same SPJ-core work as
        # recorded, and still agree with the recompute.
        for seed, recorded in RECORDED_FOLD_COUNTERS.items():
            expression = random_aggregate_expression(
                random.Random(seed), max_operands=2, allow_minmax=True
            )
            initial, transactions = seeded_update_stream(seed, FOLD_STREAM_TXNS)
            database = build_database(initial)
            maintainer = ViewMaintainer(database)
            maintainer.define_view("agg", expression)
            recorder = CostRecorder()
            with recording(recorder):
                replay(database, transactions)
            assert_matches_recompute(maintainer, "agg", database)
            counters = recorder.snapshot()
            observed = {
                name: counters[name]
                for name in FOLD_COUNTERS
                if counters.get(name, 0)
            }
            assert observed.get("aggregate_rows_folded", 0) > 0, seed
            assert observed == recorded, seed


# ----------------------------------------------------------------------
# Durability: kill-and-recover, followers
# ----------------------------------------------------------------------

class TestDurabilityPaths:
    @given(
        expression=aggregate_expressions(),
        stream=update_streams(max_txns=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_wal_crash_and_replay(self, expression, stream):
        initial, transactions = stream
        with tempfile.TemporaryDirectory() as directory:
            database = build_database(initial)
            durability = DurabilityManager(database, directory)
            maintainer = ViewMaintainer(database)
            maintainer.define_view("agg", expression)
            durability.checkpoint(maintainer)
            replay(database, transactions)
            expected = maintainer.view("agg").contents.counts()
            del database, durability, maintainer  # crash: nothing closed

            recovery, recovered = recover(
                directory,
                lambda rec, m: rec.restore_view(m, "agg", expression),
                verify=True,
            )
            assert recovery.tail_damage is None
            assert recovered.view("agg").contents.counts() == expected
            assert_matches_recompute(recovered, "agg", recovery.database)

    @given(
        expression=aggregate_expressions(),
        stream=update_streams(max_txns=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_mid_stream_checkpoint_restores_support_bags(
        self, expression, stream
    ):
        # A checkpoint taken after updates persists the aggregate's
        # *core support relation*; restore must rebuild the accumulators
        # from it, then fold the WAL tail on top.
        initial, transactions = stream
        half = max(1, len(transactions) // 2)
        with tempfile.TemporaryDirectory() as directory:
            database = build_database(initial)
            durability = DurabilityManager(database, directory)
            maintainer = ViewMaintainer(database)
            maintainer.define_view("agg", expression)
            durability.checkpoint(maintainer)
            replay(database, transactions[:half])
            durability.checkpoint(maintainer)
            replay(database, transactions[half:])
            expected = maintainer.view("agg").contents.counts()
            del database, durability, maintainer

            recovery, recovered = recover(
                directory,
                lambda rec, m: rec.restore_view(m, "agg", expression),
                verify=True,
            )
            assert recovered.view("agg").contents.counts() == expected

    @given(
        expression=aggregate_expressions(),
        stream=update_streams(max_txns=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_follower_converges(self, expression, stream):
        initial, transactions = stream
        with tempfile.TemporaryDirectory() as directory:
            database = build_database(initial)
            durability = DurabilityManager(database, directory)
            maintainer = ViewMaintainer(database)
            durability.checkpoint(maintainer)
            follower = Follower(directory)
            follower.define_view("agg", expression)
            replay(database, transactions)
            follower.poll()
            assert follower.lag() == 0
            want = recompute(expression, database)
            assert follower.view("agg").contents.counts() == want

    @given(
        expression=aggregate_expressions(max_operands=1, allow_minmax=False),
        stream=update_streams(max_txns=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_base_free_follower_converges(self, expression, stream):
        # The self-maintainable subset (single relation, no MIN/MAX)
        # must survive shedding the base replica: the accumulators alone
        # carry the view through the delta stream.
        initial, transactions = stream
        with tempfile.TemporaryDirectory() as directory:
            database = build_database(initial)
            durability = DurabilityManager(database, directory)
            maintainer = ViewMaintainer(database)
            durability.checkpoint(maintainer)
            follower = Follower(directory, base_free=True)
            follower.define_view("agg", expression)
            replay(database, transactions)
            follower.poll()
            want = recompute(expression, database)
            assert follower.view("agg").contents.counts() == want


# ----------------------------------------------------------------------
# MIN/MAX delete edge cases (deterministic)
# ----------------------------------------------------------------------

MINMAX_VIEW = BaseRef("r").project(["A", "C"]).aggregate(
    ["A"], [("max", "C", "top"), ("min", "C", "bottom")]
)


class TestMinMaxDeletes:
    def _engine(self, rows):
        database = Database()
        database.create_relation("r", ["A", "B", "C"], rows)
        maintainer = ViewMaintainer(database)
        maintainer.define_view("mm", MINMAX_VIEW)
        return database, maintainer

    def rows(self, maintainer):
        return dict(maintainer.view("mm").contents.counts())

    def test_support_count_exhaustion(self):
        # Two distinct base rows project to the SAME core row (1, 9):
        # its support count is 2, so deleting one base row must NOT
        # retire the max — only the second delete exhausts the value.
        database, maintainer = self._engine(
            [(1, 10, 9), (1, 20, 9), (1, 30, 4)]
        )
        database.apply(deletes={"r": [(1, 10, 9)]})
        assert self.rows(maintainer) == {(1, 9, 4): 1}
        database.apply(deletes={"r": [(1, 20, 9)]})
        assert self.rows(maintainer) == {(1, 4, 4): 1}

    def test_group_disappearance(self):
        database, maintainer = self._engine([(1, 10, 9), (2, 10, 5)])
        database.apply(deletes={"r": [(1, 10, 9)]})
        # Group 1 is gone entirely — no row with NULL-ish extremes.
        assert self.rows(maintainer) == {(2, 5, 5): 1}
        database.apply(deletes={"r": [(2, 10, 5)]})
        assert self.rows(maintainer) == {}

    def test_reinsert_after_empty(self):
        database, maintainer = self._engine([(1, 10, 9)])
        database.apply(deletes={"r": [(1, 10, 9)]})
        assert self.rows(maintainer) == {}
        database.apply(inserts={"r": [(1, 40, 3)]})
        # The group reappears with fresh extremes, no ghost of the old
        # max lingering in a stale support bag.
        assert self.rows(maintainer) == {(1, 3, 3): 1}

    def test_duplicate_rows_with_equal_aggregate_input(self):
        # Distinct base rows, equal aggregated value: (1,10,9) and
        # (1,20,9) are different tuples whose C both equal 9.  Deleting
        # one leaves the other still supporting max=9.
        database, maintainer = self._engine([(1, 10, 9), (1, 20, 9)])
        database.apply(deletes={"r": [(1, 20, 9)]})
        assert self.rows(maintainer) == {(1, 9, 9): 1}
        database.apply(deletes={"r": [(1, 10, 9)]})
        assert self.rows(maintainer) == {}

    def test_global_minmax_group_lifecycle(self):
        # Empty GROUP BY: the single () group must vanish when the last
        # row goes and come back on re-insert — same lifecycle as keyed
        # groups, exercised through the global-aggregate rendering.
        view = BaseRef("r").aggregate([], [("max", "C", "top")])
        database = Database()
        database.create_relation("r", ["A", "B", "C"], [(1, 1, 7)])
        maintainer = ViewMaintainer(database)
        maintainer.define_view("g", view)
        assert dict(maintainer.view("g").contents.counts()) == {(7,): 1}
        database.apply(deletes={"r": [(1, 1, 7)]})
        assert dict(maintainer.view("g").contents.counts()) == {}
        database.apply(inserts={"r": [(2, 2, 3)]})
        assert dict(maintainer.view("g").contents.counts()) == {(3,): 1}


# ----------------------------------------------------------------------
# Accumulator semantics pinned by hand
# ----------------------------------------------------------------------

class TestAccumulatorSemantics:
    def test_avg_is_floor_division(self):
        database = Database()
        database.create_relation("r", ["A", "B"], [(1, 3), (1, 4)])
        maintainer = ViewMaintainer(database)
        maintainer.define_view(
            "a", BaseRef("r").aggregate(["A"], [("avg", "B", "mean")])
        )
        # (3 + 4) // 2 == 3 — floor, matching the recompute evaluator.
        assert dict(maintainer.view("a").contents.counts()) == {(1, 3): 1}
        want = recompute(maintainer.view("a").definition.expression, database)
        assert maintainer.view("a").contents.counts() == want

    def test_count_and_sum_track_deletes(self):
        database = Database()
        database.create_relation("r", ["A", "B"], [(1, 5), (1, 7), (2, 1)])
        maintainer = ViewMaintainer(database)
        maintainer.define_view(
            "c",
            BaseRef("r").aggregate(
                ["A"], [("count", None, "n"), ("sum", "B", "total")]
            ),
        )
        assert dict(maintainer.view("c").contents.counts()) == {
            (1, 2, 12): 1,
            (2, 1, 1): 1,
        }
        database.apply(deletes={"r": [(1, 5)]}, inserts={"r": [(2, 9)]})
        assert dict(maintainer.view("c").contents.counts()) == {
            (1, 1, 7): 1,
            (2, 2, 10): 1,
        }

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_duplicate_insert_is_a_noop(self, data):
        # Set semantics on the commit path: re-inserting a present row
        # must leave every accumulator untouched.
        expression = data.draw(aggregate_expressions(max_operands=1))
        database = Database()
        for name in sorted(BASE_TABLES):
            database.create_relation(name, BASE_TABLES[name], [(1, 2), (3, 4)])
        maintainer = ViewMaintainer(database)
        maintainer.define_view("agg", expression)
        before = maintainer.view("agg").contents.counts()
        for name in sorted(BASE_TABLES):
            database.apply(inserts={name: [(1, 2)]})
        assert maintainer.view("agg").contents.counts() == before
        assert_matches_recompute(maintainer, "agg", database)
