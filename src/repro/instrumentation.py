"""Lightweight operation counting used by the benchmark harness.

The paper argues about costs in terms of *work avoided* — tuples that
never reach a join, truth-table rows that never get evaluated, views
that never get recomputed.  Wall-clock time alone hides those effects
behind constant factors, so the evaluator and maintenance code charge
abstract operation counters (tuples scanned, join probes, tuples
emitted, satisfiability checks, truth-table rows evaluated, …) to an
optional active :class:`CostRecorder`.

Recording is opt-in and near-zero-cost when inactive: every charge site
first checks the active recorder, a :class:`contextvars.ContextVar`.
The contextvar makes :func:`recording` blocks *isolated* — concurrent
asyncio tasks (the network view-server handles many sessions on one
event loop) and threads each see only their own recorder, and nesting
``recording(...)`` inside an active block routes charges to the
innermost recorder until it exits.

Counter families by prefix (each named counter is charged at exactly
one call site):

* evaluation — ``tuples_scanned``, ``join_probes``, ``index_probes``,
  truth-table row counts, satisfiability checks;
* maintenance — ``transactions_skipped_irrelevant`` and the per-view
  counters mirrored in :class:`repro.core.maintainer.MaintenanceStats`;
* plan cache — ``plan_cache_hits``, ``plan_cache_misses``,
  ``plan_cache_invalidations`` charged by
  :class:`repro.core.plancache.PlanCache` as compiled maintenance plans
  are served, compiled, and discarded;
* durability (``wal_*``) — ``wal_records_appended``,
  ``wal_bytes_written``, ``wal_fsyncs``, ``wal_segments_rotated``,
  ``wal_records_read`` from :mod:`repro.replication.wal`, plus
  ``log_replay_transactions`` charged by
  :func:`repro.engine.log.replay_records` during crash recovery and
  changefeed catch-up;
* serving (``server_*``) — request, session and changefeed counters
  charged by :mod:`repro.server` (see ``docs/server.md``);
* cluster (``cluster_*``) — sharded-coordinator counters charged by
  :mod:`repro.cluster` (see ``docs/cluster.md``):
  ``cluster_txns_committed`` / ``cluster_txns_aborted``,
  ``cluster_deltas_sent`` / ``cluster_deltas_skipped`` (per-shard
  relation deltas shipped vs. proven irrelevant by the Theorem 4.1
  routing oracle and never sent), ``cluster_routing_proofs``
  (satisfiability proofs attempted while deriving the routing table),
  ``cluster_retransmissions`` and ``cluster_shard_rebuilds``;
* analysis (``analysis_*`` and static proofs) — ``analysis_runs``,
  ``analysis_definitions_checked`` and ``analysis_view_pairs_compared``
  charged by :mod:`repro.analysis`, plus
  ``static_irrelevance_proofs`` (Theorem 4.1 proofs attempted) and
  ``static_tuples_dropped`` (tuples discarded with zero per-tuple
  screening by a compiled plan's static-irrelevance short-circuit; see
  ``docs/analysis.md``);
* scheduling (``scheduler_*`` and base-free hosting; see
  ``docs/scheduler.md``) — ``self_maintainability_proofs``
  (classifier verdicts attempted while deciding whether a view can be
  maintained without base relations), ``scheduler_ticks`` /
  ``scheduler_refreshes`` / ``scheduler_sla_violations`` /
  ``scheduler_backpressure_deferrals`` charged by
  :class:`repro.scheduler.RefreshScheduler`, and
  ``base_free_rows_dropped`` (base-relation tuples shed by a
  :class:`repro.replication.Follower` or cluster shard hosting only
  self-maintainable views);
* codegen (``codegen_*``; see ``docs/codegen.md``) —
  ``codegen_plans_compiled`` (kernel sets generated, ``compile()``-d
  and installed by :mod:`repro.core.codegen`, charged once per screen
  compilation and once per truth-table shape), and
  ``codegen_batch_rows`` (delta tuples screened, truth-table rows
  evaluated and core rows folded by the generated batch kernels —
  the work the kernels dispatch per batch rather than per tuple).

Usage::

    recorder = CostRecorder()
    with recording(recorder):
        maintainer.apply_transaction(...)
    print(recorder.counters)
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator


class CostRecorder:
    """An accumulating bag of named operation counters."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never charged)."""
        return self.counters.get(name, 0)

    def reset(self) -> None:
        """Clear all counters."""
        self.counters.clear()

    def snapshot(self) -> dict[str, int]:
        """A copy of the current counter values."""
        return dict(self.counters)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"<CostRecorder {inner or 'empty'}>"


# The active recorder.  A ContextVar rather than a module global: each
# thread *and* each asyncio task inherits its own binding, so a server
# session recording its request cannot observe (or pollute) another
# session's counters.  The inactive fast path stays one ``get()`` and
# one ``is None`` test.
_ACTIVE: ContextVar[CostRecorder | None] = ContextVar(
    "repro_active_recorder", default=None
)


def active_recorder() -> CostRecorder | None:
    """The recorder charges currently flow to, or ``None``."""
    return _ACTIVE.get()


@contextmanager
def recording(recorder: CostRecorder) -> Iterator[CostRecorder]:
    """Route all charges to ``recorder`` for the duration of the block.

    Re-entrant: nesting a second ``recording(...)`` routes charges to
    the innermost recorder until its block exits, then restores the
    outer one — in *this* context only.  Other threads and asyncio
    tasks are unaffected.
    """
    token = _ACTIVE.set(recorder)
    try:
        yield recorder
    finally:
        _ACTIVE.reset(token)


def charge(name: str, amount: int = 1) -> None:
    """Charge ``amount`` to counter ``name`` on the active recorder."""
    recorder = _ACTIVE.get()
    if recorder is not None:
        recorder.incr(name, amount)
