"""Tests for the durability & replication subsystem.

Covers the WAL codec and segment mechanics, the torn-tail/corruption
distinction, checkpointing, the kill-and-recover acceptance round-trip
(base relations plus immediate *and* deferred views byte-for-byte), the
changefeed follower, the CLI verbs, and property tests showing that
snapshot + WAL replay reproduces every relation and every view exactly
— multiplicity counters included.
"""

import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BaseRef,
    Database,
    DurabilityManager,
    Follower,
    MaintenancePolicy,
    Recovery,
    ReplicationError,
    ViewMaintainer,
    check_view_consistency,
    recover,
)
from repro.errors import ConstraintViolationError, KeyViolationError
from repro.instrumentation import CostRecorder, recording
from repro.replication.checkpoints import (
    Checkpoint,
    latest_checkpoint_path,
    write_checkpoint,
)
from repro.replication.wal import (
    WalCorruptionError,
    WalReader,
    WalWriter,
    decode_line,
    encode_declarations_record,
    encode_record,
    segment_paths,
)

VIEW_EXPR = (
    BaseRef("r")
    .join(BaseRef("s"))
    .select("A < 10 and B = C")
    .project(["A", "D"])
)
DEFERRED_EXPR = BaseRef("r").select("A >= 5").project(["B"])


def make_leader(directory, **wal_options):
    db = Database()
    db.create_relation("r", ["A", "B"], [(1, 2), (5, 10), (7, 10)])
    db.create_relation("s", ["C", "D"], [(2, 20), (10, 30)])
    durability = DurabilityManager(db, directory, **wal_options)
    maintainer = ViewMaintainer(db)
    maintainer.define_view("v", VIEW_EXPR)
    maintainer.define_view("d", DEFERRED_EXPR, policy=MaintenancePolicy.DEFERRED)
    durability.checkpoint(maintainer)
    return db, durability, maintainer


def churn(db, transactions, seed=0):
    rng = random.Random(seed)
    for _ in range(transactions):
        with db.transact() as txn:
            a = rng.randrange(12)
            txn.insert("r", (a, rng.randrange(12)))
            if rng.random() < 0.4:
                txn.insert("s", (rng.randrange(12), rng.randrange(40)))


# ----------------------------------------------------------------------
# Record codec
# ----------------------------------------------------------------------

class TestRecordCodec:
    def test_round_trip(self):
        doc = {"r": {"inserted": [[1, 2]], "deleted": []}}
        record = decode_line(encode_record(7, 12, doc).rstrip(b"\n"))
        assert record.sequence == 7
        assert record.txn_id == 12
        assert record.deltas_doc == doc

    def test_flipped_byte_fails_checksum(self):
        line = encode_record(1, 1, {"r": {"inserted": [[3, 4]], "deleted": []}})
        damaged = line.replace(b"[3,4]", b"[3,5]")
        assert decode_line(damaged.rstrip(b"\n")) is None

    def test_truncated_line_is_damage(self):
        line = encode_record(1, 1, {})
        assert decode_line(line[: len(line) // 2]) is None

    def test_non_record_json_is_damage(self):
        assert decode_line(b'{"hello": "world"}') is None

    def test_encoding_is_deterministic(self):
        doc = {"r": {"inserted": [[1, 2], [3, 4]], "deleted": [[5, 6]]}}
        assert encode_record(3, 9, doc) == encode_record(3, 9, doc)


# ----------------------------------------------------------------------
# Writer / reader mechanics
# ----------------------------------------------------------------------

class TestWalMechanics:
    def test_append_read_round_trip(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory) as writer:
            for txn in range(1, 6):
                doc = {"r": {"inserted": [[txn, txn]], "deleted": []}}
                assert writer.append(txn, doc) == txn
        records = list(WalReader(directory).records())
        assert [r.sequence for r in records] == [1, 2, 3, 4, 5]
        assert [r.txn_id for r in records] == [1, 2, 3, 4, 5]

    def test_records_after_cursor(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory) as writer:
            for txn in range(1, 6):
                writer.append(txn, {})
        tail = [r.sequence for r in WalReader(directory).records(after=3)]
        assert tail == [4, 5]

    def test_rotation_creates_segments(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory, segment_bytes=200) as writer:
            for txn in range(1, 11):
                writer.append(txn, {"r": {"inserted": [[txn, 0]], "deleted": []}})
        segments = segment_paths(directory)
        assert len(segments) > 1
        # Segment names bound their contents: each starts at its first seq.
        assert segments[0][0] == 1
        assert [r.sequence for r in WalReader(directory).records()] == list(
            range(1, 11)
        )

    def test_reopen_resumes_sequence(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory) as writer:
            writer.append(1, {})
            writer.append(2, {})
        with WalWriter(directory) as writer:
            assert writer.last_sequence == 2
            assert writer.append(3, {}) == 3
        assert WalReader(directory).last_sequence() == 3

    def test_prune_removes_covered_segments(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory, segment_bytes=200) as writer:
            for txn in range(1, 11):
                writer.append(txn, {"r": {"inserted": [[txn, 0]], "deleted": []}})
            before = len(segment_paths(directory))
            removed = writer.prune_through(writer.last_sequence)
            assert removed == before - 1  # the active segment survives
            # The surviving tail still reads cleanly from the cursor.
            assert list(WalReader(directory).records(after=10)) == []

    def test_bad_sync_mode_rejected(self, tmp_path):
        with pytest.raises(ReplicationError):
            WalWriter(str(tmp_path), sync="sometimes")

    def test_missing_directory_rejected_by_reader(self, tmp_path):
        with pytest.raises(ReplicationError):
            WalReader(str(tmp_path / "nope"))

    def test_wal_counters_charged(self, tmp_path):
        recorder = CostRecorder()
        with recording(recorder):
            with WalWriter(str(tmp_path)) as writer:
                writer.append(1, {})
                writer.append(2, {})
            list(WalReader(str(tmp_path)).records())
        assert recorder.get("wal_records_appended") == 2
        assert recorder.get("wal_records_read") == 2
        assert recorder.get("wal_fsyncs") >= 2
        assert recorder.get("wal_bytes_written") > 0


# ----------------------------------------------------------------------
# Torn tails vs. corruption
# ----------------------------------------------------------------------

def _only_segment(directory):
    (pair,) = segment_paths(directory)
    return pair[1]


class TestTornTail:
    def write_log(self, directory, n=3):
        with WalWriter(directory) as writer:
            for txn in range(1, n + 1):
                writer.append(txn, {"r": {"inserted": [[txn, txn]], "deleted": []}})

    def test_reader_stops_at_torn_tail(self, tmp_path):
        directory = str(tmp_path)
        self.write_log(directory)
        path = _only_segment(directory)
        with open(path, "ab") as stream:
            stream.write(b'{"body": {"seq": 4, "txn"')  # crash mid-append
        reader = WalReader(directory)
        assert [r.sequence for r in reader.records()] == [1, 2, 3]
        assert reader.tail_damage is not None
        assert reader.tail_damage.path == path

    def test_writer_truncates_torn_tail(self, tmp_path):
        directory = str(tmp_path)
        self.write_log(directory)
        path = _only_segment(directory)
        clean_size = os.path.getsize(path)
        with open(path, "ab") as stream:
            stream.write(b"garbage that never became a record")
        with WalWriter(directory) as writer:
            assert writer.last_sequence == 3
            assert os.path.getsize(path) == clean_size
            assert writer.append(4, {}) == 4
        assert WalReader(directory).last_sequence() == 4

    def test_interior_damage_raises(self, tmp_path):
        directory = str(tmp_path)
        self.write_log(directory)
        path = _only_segment(directory)
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[1] = lines[1][:10] + b"X" + lines[1][11:]  # damage record 2 of 3
        with open(path, "wb") as stream:
            stream.writelines(lines)
        with pytest.raises(WalCorruptionError):
            list(WalReader(directory).records())
        with pytest.raises(WalCorruptionError):
            WalWriter(directory)  # open-time scan must refuse too

    def test_sequence_gap_raises(self, tmp_path):
        directory = str(tmp_path)
        path = os.path.join(directory, "wal-0000000000000001.jsonl")
        with open(path, "wb") as stream:
            stream.write(encode_record(1, 1, {}))
            stream.write(encode_record(3, 3, {}))  # 2 is missing
        with pytest.raises(WalCorruptionError):
            list(WalReader(directory).records())

    def test_writer_repairs_sheared_final_newline(self, tmp_path):
        # Found by the simulation harness (a crash cutting exactly one
        # byte): the torn write can shear just the terminating newline
        # off the final record, leaving its JSON intact.  The reader
        # still decodes it, so tail recovery keeps it — and a naive
        # append would weld the next record onto the same line, which
        # later reads as mid-log corruption.  The writer must restore
        # the terminator before appending.
        directory = str(tmp_path)
        self.write_log(directory)
        path = _only_segment(directory)
        with open(path, "r+b") as stream:
            stream.truncate(os.path.getsize(path) - 1)  # shear the "\n"
        with WalWriter(directory) as writer:
            assert writer.last_sequence == 3  # record 3 is intact
            assert writer.append(4, {}) == 4
        assert [r.sequence for r in WalReader(directory).records()] == [1, 2, 3, 4]


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

class TestCheckpoints:
    def test_round_trip_with_views(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        path = latest_checkpoint_path(directory)
        checkpoint = Checkpoint.load(path)
        assert checkpoint.view_names() == ("d", "v")
        assert checkpoint.view_policy("d") == "deferred"
        rebuilt = checkpoint.build_database()
        for name in db.relation_names():
            assert rebuilt.relation(name) == db.relation(name)
        assert checkpoint.view_contents("v") == maintainer.view("v").contents

    def test_newest_checkpoint_wins(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        churn(db, 3)
        durability.checkpoint(maintainer)
        assert Checkpoint.load(latest_checkpoint_path(directory)).wal_sequence == 3

    def test_checkpoint_without_maintainer_omits_views(self, tmp_path):
        directory = str(tmp_path)
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 2)])
        path = write_checkpoint(directory, db, 0)
        checkpoint = Checkpoint.load(path)
        assert checkpoint.view_names() == ()
        assert checkpoint.view_contents("v") is None

    def test_wrong_format_rejected(self, tmp_path):
        with pytest.raises(ReplicationError):
            Checkpoint({"format": 999})

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ReplicationError):
            latest_checkpoint_path(str(tmp_path / "nope"))


class TestCheckpointDeclarations:
    """Keys, foreign keys and constraints survive checkpoint + recover."""

    def _keyed_leader(self, directory):
        db = Database()
        db.create_relation("p", ["A", "B"], [(1, 10), (2, 20)])
        db.create_relation("q", ["C", "B"], [(5, 10)])
        db.declare_key("p", ["B"])
        db.declare_foreign_key("q", ["B"], "p", ["B"])
        db.declare_constraint("p", "A < 100")
        durability = DurabilityManager(db, directory, sync="never")
        durability.checkpoint(ViewMaintainer(db))
        with db.transact() as txn:
            txn.insert("p", (3, 30))
        durability.close()
        return db

    def test_recovered_leader_enforces_declarations(self, tmp_path):
        directory = str(tmp_path)
        self._keyed_leader(directory)
        recovery, _ = recover(directory)
        db = recovery.database
        assert db.keys.keys_of("p") == (("B",),)
        assert [fk.describe() for fk in db.keys.foreign_key_items()] == [
            fk.describe()
            for fk in Checkpoint.load(
                latest_checkpoint_path(directory)
            ).build_database().keys.foreign_key_items()
        ]
        with pytest.raises(KeyViolationError):
            with db.transact() as txn:
                txn.insert("p", (4, 10))
        with pytest.raises(ConstraintViolationError):
            with db.transact() as txn:
                txn.insert("p", (500, 50))
        with pytest.raises(KeyViolationError):
            with db.transact() as txn:
                txn.insert("q", (6, 99))  # dangles: no p row with B = 99
        assert sorted(db.relation("p").value_tuples()) == [
            (1, 10), (2, 20), (3, 30)
        ]

    def test_follower_starts_with_leader_declarations(self, tmp_path):
        directory = str(tmp_path)
        self._keyed_leader(directory)
        follower = Follower(directory)
        assert follower.database.keys.keys_of("p") == (("B",),)
        assert follower.database.constraints.get("p") is not None
        follower.poll()
        with pytest.raises(KeyViolationError):
            with follower.database.transact() as txn:
                txn.insert("p", (4, 10))

    def test_checkpoint_without_declaration_fields_still_loads(self, tmp_path):
        directory = str(tmp_path)
        self._keyed_leader(directory)
        path = latest_checkpoint_path(directory)
        with open(path, encoding="utf-8") as stream:
            doc = json.load(stream)
        for field in ("keys", "foreign_keys", "constraints"):
            del doc[field]
        db = Checkpoint(doc).build_database()
        assert db.keys.keys_of("p") == ()
        assert len(db.constraints) == 0
        assert sorted(db.relation("p").value_tuples()) == [(1, 10), (2, 20)]


class TestDeclarationsInWal:
    """Declarations made or dropped after a checkpoint are WAL records,
    so replay checks each commit against the declarations it was
    committed under."""

    def _leader(self, directory):
        db = Database()
        db.create_relation("p", ["A", "B"], [(1, 10), (2, 20)])
        db.create_relation("q", ["C", "B"], [(5, 10)])
        db.declare_key("p", ["B"])
        db.declare_foreign_key("q", ["B"], "p", ["B"])
        db.declare_constraint("p", "A < 100")
        durability = DurabilityManager(db, directory, sync="never")
        maintainer = ViewMaintainer(db)
        maintainer.define_view("v", BaseRef("p").project(["B"]))
        durability.checkpoint(maintainer)
        return db, durability, maintainer

    def test_declarations_record_codec(self):
        doc = {"relation": "p", "keys": [["B"]], "foreign_keys": [],
               "constraint": "A < 100"}
        line = encode_declarations_record(9, doc)
        record = decode_line(line.rstrip(b"\n"))
        assert record.sequence == 9 and record.declarations == doc
        assert record.deltas_doc == {}
        assert decode_line(line.replace(b"100", b"101")) is None  # crc

    def test_drops_after_checkpoint_replay_in_order(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = self._leader(directory)
        db.drop_constraint("p")
        with db.transact() as txn:
            txn.insert("p", (500, 30))  # would break the dropped constraint
        db.drop_foreign_key("q", "p")
        db.drop_key("p", ["B"])
        with db.transact() as txn:
            txn.insert("p", (3, 10))  # would break the dropped key
            txn.insert("q", (6, 99))  # would dangle under the dropped FK
        assert db.log.last_sequence() == durability.position
        durability.close()

        recovery, recovered = recover(
            directory,
            setup=lambda rec, m: rec.restore_view(
                m, "v", BaseRef("p").project(["B"])
            ),
            verify=True,
        )
        assert recovery.last_sequence == durability.position
        assert recovery.database.log.last_sequence() == durability.position
        assert recovery.database.keys.keys_of("p") == ()
        assert recovery.database.constraints.get("p") is None
        assert sorted(recovery.database.relation("p").value_tuples()) == sorted(
            db.relation("p").value_tuples()
        )
        assert (
            recovered.view("v").contents.counts()
            == maintainer.view("v").contents.counts()
        )

        follower = Follower(directory)
        assert follower.poll() == 5  # two transactions, three declarations
        assert follower.position == durability.position
        assert sorted(follower.database.relation("q").value_tuples()) == [
            (5, 10), (6, 99)
        ]

    def test_declarations_after_checkpoint_are_enforced_after_recover(
        self, tmp_path
    ):
        directory = str(tmp_path)
        db, durability, _ = self._leader(directory)
        db.drop_key("q", None)  # no key on q: a no-op that fires nothing
        db.declare_key("q", ["C"])
        db.declare_constraint("q", "C < 50")
        with db.transact() as txn:
            txn.insert("q", (7, 20))
        durability.close()

        recovery, _ = recover(directory)
        rdb = recovery.database
        assert rdb.keys.keys_of("q") == (("C",),)
        with pytest.raises(KeyViolationError):
            with rdb.transact() as txn:
                txn.insert("q", (7, 10))
        with pytest.raises(ConstraintViolationError):
            with rdb.transact() as txn:
                txn.insert("q", (60, 10))
        assert Follower(directory).poll() == 3

    def test_resumed_leader_logs_after_recovered_sequence(self, tmp_path):
        directory = str(tmp_path)
        db, durability, _ = self._leader(directory)
        db.drop_constraint("p")
        durability.close()
        recovery, _ = recover(directory)
        resumed = DurabilityManager(recovery.database, directory, sync="never")
        with recovery.database.transact() as txn:
            txn.insert("p", (700, 70))
        assert resumed.position == recovery.database.log.last_sequence() == 2
        resumed.close()
        again, _ = recover(directory)
        assert (700, 70) in set(again.database.relation("p").value_tuples())

    def test_base_free_follower_stops_when_its_premise_is_dropped(
        self, tmp_path
    ):
        directory = str(tmp_path)
        db, durability, _ = self._leader(directory)
        bare = Follower(directory, base_free=True)
        bare.define_view("fk", BaseRef("q").join(BaseRef("p")).project(["C", "B"]))
        assert bare.maintainer.is_self_maintainable("fk")
        with db.transact() as txn:
            txn.insert("q", (8, 20))
        db.drop_foreign_key("q", "p")
        with db.transact() as txn:
            txn.insert("q", (9, 77))
        durability.close()

        with pytest.raises(ReplicationError, match="self-maintainable"):
            bare.poll()
        assert bare.position == 1
        assert bare.view("fk").contents.counts() == {(5, 10): 1, (8, 20): 1}

    def test_base_free_counts_resume_when_the_view_key_is_dropped(
        self, tmp_path
    ):
        directory = str(tmp_path)
        db, durability, maintainer = self._leader(directory)
        bare = Follower(directory, base_free=True)
        bare.define_view("v", BaseRef("p").project(["B"]))
        assert bare.maintainer.compiled_plan("v").counter_free
        db.drop_foreign_key("q", "p")
        db.drop_key("p", ["B"])
        with db.transact() as txn:
            txn.insert("p", (3, 10))  # B = 10 now backs two p rows
        with db.transact() as txn:
            txn.delete("p", (1, 10))
        durability.close()

        bare.poll()
        assert not bare.maintainer.compiled_plan("v").counter_free
        assert bare.view("v").contents.counts() == {(10,): 1, (20,): 1}
        assert (
            bare.view("v").contents.counts()
            == maintainer.view("v").contents.counts()
        )

# ----------------------------------------------------------------------
# Kill-and-recover round trip (the acceptance criterion)
# ----------------------------------------------------------------------

class TestCrashRecovery:
    def test_recovery_matches_pre_crash_state(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        churn(db, 8, seed=1)
        durability.checkpoint(maintainer)  # mid-stream checkpoint + prune
        churn(db, 7, seed=2)
        maintainer.refresh("d")
        expected_relations = {n: db.relation(n) for n in db.relation_names()}
        expected_v = maintainer.view("v").contents
        expected_d = maintainer.view("d").contents
        del db, durability, maintainer  # crash: nothing is closed

        def restore(recovery, fresh):
            recovery.restore_view(fresh, "v", VIEW_EXPR)
            recovery.restore_view(fresh, "d", DEFERRED_EXPR)

        recovery, recovered = recover(directory, restore)
        assert recovery.tail_damage is None
        for name, relation in expected_relations.items():
            assert recovery.database.relation(name) == relation
        assert recovered.view("v").contents == expected_v
        # The deferred view's backlog re-accumulated during replay.
        recovered.refresh("d")
        assert recovered.view("d").contents == expected_d
        check_view_consistency(recovered.view("v"), recovery.database.instances())

    def test_recovered_views_catch_up_differentially(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        churn(db, 6, seed=3)
        del db, durability, maintainer

        recovery = Recovery(directory)
        fresh = ViewMaintainer(recovery.database)
        recovery.restore_view(fresh, "v", VIEW_EXPR)
        assert recovery.replay() == 6
        stats = fresh.stats("v")
        # Replay went through the maintenance pipeline, not re-evaluation:
        # every replayed transaction was seen and screened.
        assert stats.transactions_seen == 6
        assert stats.tuples_screened > 0

    def test_restored_policy_defaults_from_checkpoint(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        del db, durability, maintainer
        recovery = Recovery(directory)
        fresh = ViewMaintainer(recovery.database)
        recovery.restore_view(fresh, "d", DEFERRED_EXPR)
        assert fresh.policy("d") is MaintenancePolicy.DEFERRED

    def test_recovery_requires_checkpoint(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory) as writer:
            writer.append(1, {})
        with pytest.raises(ReplicationError, match="checkpoint"):
            Recovery(directory)

    def test_recovery_tolerates_torn_tail(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        churn(db, 4, seed=4)
        del db, durability, maintainer
        (_, path) = segment_paths(directory)[-1]
        with open(path, "ab") as stream:
            stream.write(b'{"body": {"seq":')
        recovery, recovered = recover(
            directory, lambda rec, m: rec.restore_view(m, "v", VIEW_EXPR)
        )
        assert recovery.tail_damage is not None
        assert recovery.last_sequence == 4
        check_view_consistency(recovered.view("v"), recovery.database.instances())

    def test_resumed_leader_appends_after_recovery(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        churn(db, 3, seed=5)
        del db, durability, maintainer

        recovery, recovered = recover(
            directory, lambda rec, m: rec.restore_view(m, "v", VIEW_EXPR)
        )
        resumed = DurabilityManager(recovery.database, directory)
        assert resumed.position == 3
        with recovery.database.transact() as txn:
            txn.insert("r", (2, 2))
        assert resumed.position == 4
        # Transaction ids keep advancing past everything ever committed.
        assert recovery.database.next_txn_id > 4
        resumed.close()


# ----------------------------------------------------------------------
# Followers
# ----------------------------------------------------------------------

class TestFollower:
    def test_follower_converges_with_own_view(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)

        follower = Follower(directory)
        follower.define_view("mine", BaseRef("s").select("D > 20").project(["C"]))
        churn(db, 10, seed=6)
        assert follower.lag() == 10
        assert follower.poll() == 10
        assert follower.lag() == 0
        for name in db.relation_names():
            assert follower.database.relation(name) == db.relation(name)
        check_view_consistency(follower.view("mine"), follower.database.instances())

    def test_follower_matches_leader_definition(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        follower = Follower(directory)
        follower.define_view("v2", VIEW_EXPR)
        churn(db, 8, seed=7)
        follower.poll()
        assert follower.view("v2").contents == maintainer.view("v").contents

    def test_poll_is_incremental(self, tmp_path):
        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        follower = Follower(directory)
        churn(db, 5, seed=8)
        assert follower.poll(max_records=2) == 2
        assert follower.position == 2
        assert follower.poll() == 3
        churn(db, 2, seed=9)
        assert follower.poll() == 2
        assert follower.poll() == 0

    def test_follower_requires_checkpoint(self, tmp_path):
        directory = str(tmp_path)
        with WalWriter(directory) as writer:
            writer.append(1, {})
        with pytest.raises(ReplicationError, match="checkpoint"):
            Follower(directory)


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------

class TestCliVerbs:
    def test_recover_verb(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        for a in (20, 21, 22, 23):
            with db.transact() as txn:
                txn.insert("r", (a, a))
        assert main(["recover", directory]) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out
        assert "replayed 4" in out

    def test_follow_verb(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        for a in (20, 21, 22):
            with db.transact() as txn:
                txn.insert("r", (a, a))
        assert main(["follow", directory, "--once"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("seq=1 ")

    def test_follow_from_cursor(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path)
        db, durability, maintainer = make_leader(directory)
        for a in (20, 21, 22):
            with db.transact() as txn:
                txn.insert("r", (a, a))
        assert main(["follow", directory, "--once", "--from", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("seq=3 ")

    def test_recover_missing_directory_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["recover", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Satellite regressions
# ----------------------------------------------------------------------

class TestSatelliteRegressions:
    def test_drop_relation_with_multiple_indexes(self):
        db = Database()
        db.create_relation("r", ["A", "B"], [(1, 2)])
        db.create_index("r", ["A"])
        db.create_index("r", ["B"])
        db.create_index("r", ["A", "B"])
        db.drop_relation("r")
        assert "r" not in db.relation_names()
        assert db.indexes.indexes_on("r") == ()

    def test_begin_pins_and_advances_txn_ids(self):
        db = Database()
        db.create_relation("r", ["A"], [])
        with db.transact(txn_id=7) as txn:
            txn.insert("r", (1,))
        assert db.next_txn_id == 8
        # Out-of-order replay ids never move the counter backwards.
        with db.transact(txn_id=3) as txn:
            txn.insert("r", (2,))
        assert db.next_txn_id == 8
        with db.transact() as txn:  # normal allocation resumes
            txn.insert("r", (3,))
        assert db.next_txn_id == 9


# ----------------------------------------------------------------------
# Property tests: replay reproduces everything byte-for-byte
# ----------------------------------------------------------------------

ops = st.sampled_from(["insert_r", "insert_s", "delete_r", "modify_r"])
txn_scripts = st.lists(
    st.tuples(ops, st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=4
)


def run_script(db, scripts):
    for script in scripts:
        with db.transact() as txn:
            for op, a, b in script:
                if op == "insert_r":
                    txn.insert("r", (a, b))
                elif op == "insert_s":
                    txn.insert("s", (a, b))
                elif op == "delete_r":
                    if (a, b) in db.relation("r"):
                        txn.delete("r", (a, b))
                elif op == "modify_r":
                    if (a, b) in db.relation("r"):
                        txn.update("r", (a, b), (b, a))


class TestReplayProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(txn_scripts, max_size=8))
    def test_snapshot_plus_replay_reproduces_all_state(self, scripts):
        import tempfile

        with tempfile.TemporaryDirectory() as directory:
            db, durability, maintainer = make_leader(directory)
            run_script(db, scripts)
            maintainer.refresh("d")
            expected = {n: db.relation(n) for n in db.relation_names()}
            expected_views = {
                "v": maintainer.view("v").contents,
                "d": maintainer.view("d").contents,
            }
            del db, durability, maintainer

            def restore(recovery, fresh):
                recovery.restore_view(fresh, "v", VIEW_EXPR)
                recovery.restore_view(fresh, "d", DEFERRED_EXPR)

            recovery, recovered = recover(directory, restore)
            recovered.refresh("d")
            for name, relation in expected.items():
                assert recovery.database.relation(name) == relation
            for name, contents in expected_views.items():
                got = recovered.view(name).contents
                assert got == contents
                # Byte-for-byte includes the projection multiplicities.
                assert got.counts() == contents.counts()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(txn_scripts, min_size=1, max_size=5), st.data())
    def test_arbitrary_tail_truncation_never_crashes(self, scripts, data):
        import tempfile

        with tempfile.TemporaryDirectory() as directory:
            db, durability, maintainer = make_leader(directory)
            run_script(db, scripts)
            del db, durability, maintainer
            segments = segment_paths(directory)
            if not segments:  # every transaction was a net no-op
                return
            (_, path) = segments[-1]
            size = os.path.getsize(path)
            cut = data.draw(st.integers(min_value=0, max_value=size))
            with open(path, "r+b") as stream:
                stream.truncate(cut)
            # A crash can only lose a suffix: recovery must come up on
            # the longest intact prefix, never raise.
            recovery, recovered = recover(
                directory, lambda rec, m: rec.restore_view(m, "v", VIEW_EXPR)
            )
            assert recovery.last_sequence <= len(scripts)
            check_view_consistency(
                recovered.view("v"), recovery.database.instances()
            )


class TestCrashPointMatrix:
    """Every record boundary of a 50-commit log is a crash point.

    Generalizes the ad-hoc tail-truncation cases above: the log is
    written into a single segment, then for *each* record boundary a
    copy of the directory is truncated at exactly that boundary and
    recovered.  Recovery must converge to the state an incremental
    oracle replay reaches after the same number of records — base
    relations byte-for-byte and the restored view consistent — at
    every one of the ~50 crash points, not just the handful an ad-hoc
    test picks.
    """

    def test_recovery_at_every_record_boundary(self, tmp_path):
        import shutil

        from repro.engine.log import replay_records
        from repro.replication.recovery import decode_wal_record

        directory = str(tmp_path / "leader")
        os.makedirs(directory)
        db, durability, maintainer = make_leader(
            directory, segment_bytes=1 << 20
        )
        rng = random.Random(42)
        for _ in range(50):
            with db.transact() as txn:
                for _ in range(rng.randint(1, 3)):
                    name = rng.choice(["r", "s"])
                    row = (rng.randrange(8), rng.randrange(8))
                    if rng.random() < 0.7:
                        txn.insert(name, row)
                    else:
                        txn.delete(name, row)
        segments = segment_paths(directory)
        assert len(segments) == 1, "matrix assumes a single segment"
        _, segment = segments[0]
        with open(segment, "rb") as stream:
            payload = stream.read()
        boundaries = [0] + [
            index + 1 for index, byte in enumerate(payload) if byte == 0x0A
        ]

        # The expected state after k records, built by an incremental
        # oracle replay with no maintainer involved.
        records = list(WalReader(directory).records())
        assert len(boundaries) == len(records) + 1

        def snapshot(database):
            return {
                name: dict(database.relation(name).counts())
                for name in database.relation_names()
            }

        checkpoint = Checkpoint.load(latest_checkpoint_path(directory))
        oracle_db = checkpoint.build_database()
        oracle_db.log.advance_sequence(checkpoint.wal_sequence + 1)
        expected = [snapshot(oracle_db)]
        for record in records:
            replay_records(
                oracle_db,
                [decode_wal_record(oracle_db, record)],
                preserve_txn_ids=True,
            )
            expected.append(snapshot(oracle_db))

        for k, offset in enumerate(boundaries):
            scratch = str(tmp_path / f"crash-{k}")
            shutil.copytree(directory, scratch)
            copied_segment = os.path.join(scratch, os.path.basename(segment))
            with open(copied_segment, "r+b") as stream:
                stream.truncate(offset)
            recovery, recovered = recover(
                scratch, lambda rec, m: rec.restore_view(m, "v", VIEW_EXPR)
            )
            assert snapshot(recovery.database) == expected[k], (
                f"crash at record boundary {k} diverged"
            )
            assert recovery.last_sequence == (
                records[k - 1].sequence if k else checkpoint.wal_sequence
            )
            check_view_consistency(
                recovered.view("v"), recovery.database.instances()
            )
