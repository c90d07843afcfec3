"""Checkpoint documents: a base snapshot anchored to a WAL position.

A checkpoint is the recovery starting point: one JSON document holding
every base relation (via :func:`repro.engine.persistence`), the
declared keys, foreign keys and constraints, the stored contents of
every materialized view (multiplicity counters included), the
transaction-id counter, and the WAL sequence the snapshot is current
as of.  Recovery loads the newest checkpoint and replays only the WAL
records *after* its sequence — views restored from the checkpoint then
catch up differentially, never by recomputation.  Declarations made or
dropped after the checkpoint are WAL records of their own (one
relation's :func:`relation_declarations` each), which replay applies
in commit order through :func:`apply_relation_declarations`.

View *definitions* are code, not data: the checkpoint persists each
view's contents and policy under its name, and the recovering process
re-supplies the defining expression (exactly as a follower supplies its
own).  A checkpoint written with ``maintainer=None`` simply omits view
contents; recovery then falls back to materializing from the snapshot
state before replay.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any

from repro.algebra.relation import Relation
from repro.engine.database import Database
from repro.engine.persistence import (
    PersistenceError,
    database_from_document,
    database_to_document,
    relation_from_document,
    relation_to_document,
)
from repro.errors import ReplicationError, ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.maintainer import ViewMaintainer

#: Bumped on any incompatible checkpoint-format change.
CHECKPOINT_FORMAT_VERSION = 1

_PREFIX = "checkpoint-"
_SUFFIX = ".json"


def checkpoint_path(directory: str, wal_sequence: int) -> str:
    """The canonical path of a checkpoint at one WAL position."""
    return os.path.join(directory, f"{_PREFIX}{wal_sequence:016d}{_SUFFIX}")


def checkpoint_paths(directory: str) -> list[tuple[int, str]]:
    """Sorted ``(wal_sequence, path)`` pairs of a directory's checkpoints."""
    if not os.path.isdir(directory):
        raise ReplicationError(f"durability directory {directory!r} does not exist")
    found = []
    for entry in os.listdir(directory):
        if not (entry.startswith(_PREFIX) and entry.endswith(_SUFFIX)):
            continue
        stem = entry[len(_PREFIX):-len(_SUFFIX)]
        try:
            sequence = int(stem)
        except ValueError:
            raise ReplicationError(
                f"unrecognized checkpoint name {entry!r}"
            ) from None
        found.append((sequence, os.path.join(directory, entry)))
    found.sort()
    return found


def latest_checkpoint_path(directory: str) -> str | None:
    """Path of the newest checkpoint, or ``None`` when there is none."""
    found = checkpoint_paths(directory)
    return found[-1][1] if found else None


def write_checkpoint(
    directory: str,
    database: Database,
    wal_sequence: int,
    maintainer: "ViewMaintainer | None" = None,
) -> str:
    """Write a checkpoint document; returns its path.

    The document is written to a temporary file and atomically renamed
    into place, so a crash mid-checkpoint leaves the previous checkpoint
    intact and the half-written file ignored (its name never matches).
    """
    views: dict[str, Any] = {}
    if maintainer is not None:
        for name in maintainer.view_names():
            view = maintainer.view(name)
            # Aggregate views persist their core support relation (the
            # visible group rows are derived state); plain views persist
            # their contents.  Same document shape either way.
            views[name] = {
                "policy": maintainer.policy(name).value,
                "relation": relation_to_document(view.stored_contents()),
            }
    doc = {
        "format": CHECKPOINT_FORMAT_VERSION,
        "wal_sequence": wal_sequence,
        "next_txn_id": database.next_txn_id,
        "database": database_to_document(database),
        "keys": [
            [name, list(key)]
            for name, keys in database.keys.items()
            for key in keys
        ],
        "foreign_keys": [
            [fk.relation, list(fk.attributes), fk.ref_relation,
             list(fk.ref_attributes)]
            for fk in database.keys.foreign_key_items()
        ],
        "constraints": {
            name: str(condition) for name, condition in database.constraints.items()
        },
        "views": views,
    }
    path = checkpoint_path(directory, wal_sequence)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as stream:
        json.dump(doc, stream, indent=1, sort_keys=True)
        stream.flush()
        os.fsync(stream.fileno())
    os.replace(tmp_path, path)
    return path


def relation_declarations(database: Database, relation_name: str) -> dict[str, Any]:
    """One relation's declared keys, foreign keys and constraint."""
    constraint = database.constraints.get(relation_name)
    return {
        "relation": relation_name,
        "keys": [list(key) for key in database.keys.keys_of(relation_name)],
        "foreign_keys": [
            [list(fk.attributes), fk.ref_relation, list(fk.ref_attributes)]
            for fk in database.keys.foreign_keys_of(relation_name)
        ],
        "constraint": None if constraint is None else str(constraint),
    }


def apply_relation_declarations(database: Database, doc: dict[str, Any]) -> None:
    """Make one relation's declarations exactly those of ``doc``.

    Drops come first (foreign keys before the keys they may target),
    then the declarations ``doc`` adds, through the database's own
    ``declare_*`` methods, which validate the stored rows as they
    declare.  Applying a document that matches the current state
    changes nothing and fires no DDL event.
    """
    try:
        name = doc["relation"]
        keys = {tuple(key) for key in doc["keys"]}
        foreign_keys = {
            (tuple(attributes), ref_relation, tuple(ref_attributes))
            for attributes, ref_relation, ref_attributes in doc["foreign_keys"]
        }
        constraint = doc["constraint"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ReplicationError(f"declarations document is malformed: {exc}") from exc

    def current_foreign_keys() -> set[tuple[tuple[str, ...], str, tuple[str, ...]]]:
        return {
            (fk.attributes, fk.ref_relation, fk.ref_attributes)
            for fk in database.keys.foreign_keys_of(name)
        }

    try:
        stale = current_foreign_keys() - foreign_keys
        for ref_relation in sorted({ref for _, ref, _ in stale}):
            database.drop_foreign_key(name, ref_relation)
        for key in sorted(set(database.keys.keys_of(name)) - keys):
            database.drop_key(name, key)
        declared = database.constraints.get(name)
        if constraint is None:
            if declared is not None:
                database.drop_constraint(name)
        elif declared is None or str(declared) != constraint:
            database.declare_constraint(name, constraint)
        for key in sorted(keys - set(database.keys.keys_of(name))):
            database.declare_key(name, key)
        for attributes, ref_relation, ref_attributes in sorted(
            foreign_keys - current_foreign_keys()
        ):
            database.declare_foreign_key(
                name, attributes, ref_relation, ref_attributes
            )
    except ReproError as exc:
        raise ReplicationError(
            f"cannot apply the declarations of {name!r}: {exc}"
        ) from exc


class Checkpoint:
    """A decoded checkpoint document."""

    __slots__ = (
        "wal_sequence",
        "next_txn_id",
        "_database_doc",
        "_keys",
        "_foreign_keys",
        "_constraints",
        "_views",
    )

    def __init__(self, doc: dict[str, Any]) -> None:
        if doc.get("format") != CHECKPOINT_FORMAT_VERSION:
            raise ReplicationError(
                f"unsupported checkpoint format {doc.get('format')!r} "
                f"(expected {CHECKPOINT_FORMAT_VERSION})"
            )
        try:
            self.wal_sequence = int(doc["wal_sequence"])
            self.next_txn_id = int(doc["next_txn_id"])
            self._database_doc = doc["database"]
            # Absent from checkpoints written before declarations were
            # persisted; those load with none declared.
            self._keys = doc.get("keys", [])
            self._foreign_keys = doc.get("foreign_keys", [])
            self._constraints = doc.get("constraints", {})
            self._views = doc.get("views", {})
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplicationError(f"checkpoint document is malformed: {exc}") from exc

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Read and validate a checkpoint file."""
        try:
            with open(path, "r", encoding="utf-8") as stream:
                doc = json.load(stream)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReplicationError(f"cannot read checkpoint {path!r}: {exc}") from exc
        return cls(doc)

    def build_database(self) -> Database:
        """A fresh database holding the snapshot's base relations.

        The checkpointed constraints, keys and foreign keys are declared
        again through the database's own ``declare_*`` methods, which
        validate the snapshot against each as they declare it.
        """
        try:
            database = database_from_document(self._database_doc)
        except PersistenceError as exc:
            raise ReplicationError(f"checkpoint snapshot is invalid: {exc}") from exc
        try:
            for name, condition in sorted(self._constraints.items()):
                database.declare_constraint(name, condition)
            for name, attributes in self._keys:
                database.declare_key(name, attributes)
            for name, attributes, ref_name, ref_attributes in self._foreign_keys:
                database.declare_foreign_key(
                    name, attributes, ref_name, ref_attributes
                )
        except (ReproError, TypeError, ValueError) as exc:
            raise ReplicationError(
                f"checkpoint declarations are invalid: {exc}"
            ) from exc
        database.advance_txn_counter(self.next_txn_id)
        return database

    def view_names(self) -> tuple[str, ...]:
        """Names of the views whose contents the checkpoint carries."""
        return tuple(sorted(self._views))

    def view_contents(self, name: str) -> Relation | None:
        """The stored (counted) contents of one view, if persisted."""
        entry = self._views.get(name)
        if entry is None:
            return None
        try:
            return relation_from_document(entry["relation"], name, allow_counts=True)
        except (PersistenceError, KeyError, TypeError) as exc:
            raise ReplicationError(
                f"checkpointed view {name!r} is invalid: {exc}"
            ) from exc

    def view_policy(self, name: str) -> str | None:
        """The maintenance policy recorded for one view, if persisted."""
        entry = self._views.get(name)
        return entry.get("policy") if isinstance(entry, dict) else None

    def __repr__(self) -> str:
        return (
            f"<Checkpoint wal_seq={self.wal_sequence} "
            f"{len(self._views)} views>"
        )
