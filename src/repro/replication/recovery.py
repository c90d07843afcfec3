"""Crash recovery: newest checkpoint + WAL tail → the pre-crash state.

The protocol has three steps, and their order is what makes recovered
views *differentially* maintained rather than recomputed:

1. **Boot** — load the newest checkpoint; its base relations become a
   fresh :class:`~repro.engine.database.Database` and its transaction
   counter is restored.
2. **Restore views** — the caller re-supplies each view's defining
   expression (definitions are code, not data); contents persisted in
   the checkpoint are re-adopted byte-for-byte via
   :meth:`ViewMaintainer.restore_view`, so no view is evaluated from
   scratch.
3. **Replay** — WAL records after the checkpoint sequence are
   re-committed through the normal commit pipeline under their original
   transaction ids.  Every commit hook fires exactly as it did before
   the crash, so the maintainer's filter + differential machinery
   brings every view (and every index) up to date, and deferred views
   re-accumulate their pending backlogs.  Declarations records
   re-declare or drop keys, foreign keys and constraints at the point
   the leader did, so each replayed commit is checked against exactly
   the declarations it was checked against before the crash.

Replay is deterministic: records hold *net effects* (Section 3), whose
application is insensitive to the vagaries of the original operation
order, and the WAL's checksums plus sequence continuity guarantee the
replayed stream is exactly the committed prefix.  A torn tail — the
record being appended when the process died — is truncated, which is
correct because an incomplete append means the commit never finished.
"""

from __future__ import annotations

from typing import Callable

from repro.algebra.expressions import Expression
from repro.core.maintainer import MaintenancePolicy, ViewMaintainer
from repro.core.views import MaterializedView
from repro.engine.database import Database
from repro.engine.log import LogRecord, replay_records
from repro.engine.persistence import PersistenceError, deltas_from_document
from repro.errors import ReplicationError
from repro.replication.checkpoints import (
    Checkpoint,
    apply_relation_declarations,
    latest_checkpoint_path,
)
from repro.replication.wal import TailDamage, WalReader, WalRecord


def decode_wal_record(database: Database, record: WalRecord) -> LogRecord:
    """Decode one shipped record against a database's schema catalog."""
    try:
        deltas = deltas_from_document(database.schema_catalog(), record.deltas_doc)
    except PersistenceError as exc:
        raise ReplicationError(
            f"cannot decode WAL record {record.sequence}: {exc}"
        ) from exc
    return LogRecord(record.txn_id, record.sequence, deltas)


def apply_wal_record(database: Database, record: WalRecord) -> bool:
    """Apply one WAL record to a replica's database; True for a
    transaction.

    A transaction is re-committed through the normal commit pipeline
    under its original id; a declarations record is applied to the
    catalog, and the in-memory log skips its sequence, so later commits
    keep their WAL sequences.
    """
    if record.declarations is not None:
        apply_relation_declarations(database, record.declarations)
        database.log.advance_sequence(record.sequence + 1)
        return False
    replay_records(
        database, [decode_wal_record(database, record)], preserve_txn_ids=True
    )
    return True


class Recovery:
    """One recovery session over a durability directory.

    >>> # rec = Recovery("/var/lib/repro")        # boot from checkpoint
    >>> # maintainer = ViewMaintainer(rec.database)
    >>> # rec.restore_view(maintainer, "v", expr) # adopt stored contents
    >>> # rec.replay()                            # differential catch-up
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        path = latest_checkpoint_path(directory)
        if path is None:
            raise ReplicationError(
                f"no checkpoint in {directory!r}: the WAL does not record "
                "schema definitions, so recovery needs the base snapshot "
                "written by DurabilityManager.checkpoint()"
            )
        self._checkpoint = Checkpoint.load(path)
        #: WAL sequence the snapshot is current as of.
        self.checkpoint_sequence = self._checkpoint.wal_sequence
        #: The recovered database (snapshot state until :meth:`replay`).
        self.database = self._checkpoint.build_database()
        # Align the in-memory log with the WAL: replayed commits keep
        # their on-disk sequences, so the recovered history (sequences
        # included) is indistinguishable from the one that wrote the
        # log — and view refresh positions are WAL positions.
        self.database.log.advance_sequence(self.checkpoint_sequence + 1)
        #: Torn-tail report from the last replay (None when clean).
        self.tail_damage: TailDamage | None = None
        #: WAL sequence the database is current as of after replay.
        self.last_sequence = self.checkpoint_sequence

    def checkpointed_views(self) -> tuple[str, ...]:
        """View names whose contents the checkpoint persisted."""
        return self._checkpoint.view_names()

    def restore_view(
        self,
        maintainer: ViewMaintainer,
        name: str,
        expression: Expression,
        policy: MaintenancePolicy | None = None,
    ) -> MaterializedView:
        """Re-register one view, adopting checkpointed contents if present.

        ``maintainer`` must observe :attr:`database`.  ``policy``
        defaults to the policy recorded in the checkpoint (falling back
        to IMMEDIATE for views the checkpoint never saw).  Call before
        :meth:`replay` so the view catches up differentially.
        """
        if maintainer.database is not self.database:
            raise ReplicationError(
                "restore_view needs a maintainer attached to the recovered "
                "database (Recovery.database)"
            )
        if policy is None:
            recorded = self._checkpoint.view_policy(name)
            policy = (
                MaintenancePolicy(recorded)
                if recorded is not None
                else MaintenancePolicy.IMMEDIATE
            )
        contents = self._checkpoint.view_contents(name)
        if contents is None:
            return maintainer.define_view(name, expression, policy=policy)
        return maintainer.restore_view(name, expression, contents, policy=policy)

    def replay(self) -> int:
        """Re-commit the WAL tail; returns the number of transactions.

        Safe to call once, after all views are restored and before any
        new transaction touches :attr:`database`.
        """
        reader = WalReader(self.directory)
        replayed = 0
        for record in reader.records(after=self.checkpoint_sequence):
            replayed += apply_wal_record(self.database, record)
            self.last_sequence = record.sequence
        self.tail_damage = reader.tail_damage
        return replayed

    def __repr__(self) -> str:
        return (
            f"<Recovery {self.directory!r} checkpoint_seq="
            f"{self.checkpoint_sequence} last_seq={self.last_sequence}>"
        )


def recover(
    directory: str,
    setup: "Callable[[Recovery, ViewMaintainer], None] | None" = None,
    verify: bool = False,
) -> tuple[Recovery, ViewMaintainer]:
    """One-call recovery: boot, restore views, replay the tail.

    ``setup(recovery, maintainer)`` runs between boot and replay — the
    place to :meth:`Recovery.restore_view` every view definition.
    ``verify`` runs the full-recompute oracle over every restored view
    after replay (:meth:`ViewMaintainer.verify_all`), turning a stale
    checkpoint or a divergent replay into an immediate
    :class:`~repro.errors.MaintenanceError` instead of a silently wrong
    view.  Returns the finished recovery session and its maintainer.
    """
    recovery = Recovery(directory)
    maintainer = ViewMaintainer(recovery.database)
    if setup is not None:
        setup(recovery, maintainer)
    recovery.replay()
    if verify:
        maintainer.quiesce()
        maintainer.verify_all()
    return recovery, maintainer
