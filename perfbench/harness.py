"""One episode: set up, run the timed stream, recover, follow, check.

An episode builds a fresh durable server from a :class:`Workload`,
sends every request through a writer session opened with
``ViewServer.open_local_session`` (one process, one thread, no socket),
then rebuilds the views from the episode's checkpoint plus WAL and runs
a base-free follower over the same WAL.  Only the request loop is
timed per request; set-up, recovery and follower catch-up are timed as
wholes.  After the timings, :func:`check_episode` compares every copy
of every view with the workload's independent evaluation.
"""

from __future__ import annotations

import ctypes
import gc
import os
import shutil
import sys
from time import perf_counter

from repro import (
    Database,
    DurabilityManager,
    Follower,
    MaintenancePolicy,
    Recovery,
    ViewMaintainer,
)
from repro.replication.wal import WalIO
from repro.scheduler import StalenessSLA
from repro.server import ServerConfig, ViewServer
from repro.server.protocol import HEADER_BYTES, decode_payload

import reference as ref


class PageCacheWalIO(WalIO):
    """The WAL's file operations, with fsync stopping at the page cache.

    The writer keeps its default ``sync="commit"`` and still calls
    :meth:`fsync` (and charges ``wal_fsyncs``) on every append; only the
    device flush is left out, as it would be on a memory-backed
    directory.  The benchmark may write only inside its checkout, which
    is on disk, so this stands in for such a directory.
    """

    def fsync(self, stream) -> None:
        stream.flush()


def _collector(frames):
    def transport(frame):
        frames.append(frame)
        return True

    return transport


def _decode(frame):
    return decode_payload(frame[HEADER_BYTES:])


#: glibc's ``malloc_trim``, or None where the C library has none.
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)


def rss_mb():
    """Resident memory of this process in MiB (VmRSS).

    Free heap pages are returned first (``malloc_trim``), so the reading
    follows live memory rather than where the allocator last left free
    chunks: without it, the first ``dashboard_reads`` episode read 7.6
    or 8.6 MiB depending on the seed, and 8.7–8.8 MiB with it.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS not found in /proc/self/status")


def _policy(view):
    return MaintenancePolicy.DEFERRED if view.deferred else MaintenancePolicy.IMMEDIATE


def _declare_keys(database, workload):
    for relation, attributes in workload.keys:
        database.declare_key(relation, list(attributes))
    for relation, attributes, ref_relation, ref_attributes in workload.foreign_keys:
        database.declare_foreign_key(
            relation, list(attributes), ref_relation, list(ref_attributes)
        )


class Episode:
    """Timings, counts and the outputs to check, from one episode."""

    def __init__(self):
        self.setup_s = 0.0
        self.timed_s = 0.0
        self.commit_lat = []
        self.query_lat = []
        self.rss_mb = 0.0
        self.recover_s = 0.0
        self.follower_s = None
        self.stats_before = {}
        self.stats_after = {}
        self.log_records = 0
        self.bytes_timed = 0
        self.follower_applied = 0
        self.outputs = {}


def run_episode(workload, workdir, tracer=None):
    """Run one episode; returns an :class:`Episode` (outputs unchecked)."""
    ep = Episode()
    wal_dir = os.path.join(workdir, "wal")
    shutil.rmtree(wal_dir, ignore_errors=True)
    requests = workload.requests
    warmup = workload.warmup

    # --- set-up (timed as a whole, warm-up prefix included) ----------
    # Leader, recovery and follower would each be a process of its own,
    # and the generated requests and reference data are the benchmark's,
    # not the program's.  So before each timed part, what is alive from
    # the parts before it is frozen: the collector's pauses then scan
    # only the objects of the part being timed.
    gc.unfreeze()
    gc.collect()
    gc.freeze()
    rss_before = rss_mb()
    if tracer is not None:
        tracer.begin("setup", "setup")
    start = perf_counter()
    db = Database()
    for name, (attributes, rows) in workload.relations.items():
        db.create_relation(name, list(attributes), rows)
    _declare_keys(db, workload)
    durability = DurabilityManager(db, wal_dir, io=PageCacheWalIO())
    maintainer = ViewMaintainer(db)
    for view in workload.views:
        maintainer.define_view(view.name, view.expression, policy=_policy(view))
    durability.checkpoint(maintainer)
    config = ServerConfig(
        staleness_slas={
            name: StalenessSLA(max_pending_commits=bound)
            for name, bound in workload.slas.items()
        }
    )
    server = ViewServer(db, maintainer, config, durability=durability)
    writer_frames = []
    writer = server.open_local_session(_collector(writer_frames))
    sub_frames = ([], [])
    subscribers = [server.open_local_session(_collector(out)) for out in sub_frames]
    for session, views in zip(subscribers, workload.subscriptions):
        for name in views:
            session.handle({"id": f"snapshot:{name}", "op": "query", "target": name})
            session.handle({"id": f"subscribe:{name}", "op": "subscribe", "view": name})
    for doc in requests[:warmup]:
        writer.handle(doc)
    ep.setup_s = perf_counter() - start
    if tracer is not None:
        tracer.end()

    writer.handle({"id": "stats:before", "op": "stats"})
    ep.stats_before = _decode(writer_frames[-1])["result"]
    frames_before = [len(writer_frames)] + [len(f) for f in sub_frames]

    # --- the timed phase: one request at a time, closed loop ---------
    handle = writer.handle
    commit_lat, query_lat = ep.commit_lat, ep.query_lat
    is_txn = workload.is_txn
    gc.collect()
    phase_start = perf_counter()
    if tracer is None:
        for index in range(warmup, len(requests)):
            doc = requests[index]
            t = perf_counter()
            handle(doc)
            elapsed = perf_counter() - t
            (commit_lat if is_txn[index] else query_lat).append(elapsed)
    else:
        tracer.counting = True
        for index in range(warmup, len(requests)):
            doc = requests[index]
            kind = "txn" if is_txn[index] else "query"
            tracer.begin("request", (kind, index))
            t = perf_counter()
            handle(doc)
            elapsed = perf_counter() - t
            tracer.end()
            (commit_lat if is_txn[index] else query_lat).append(elapsed)
        tracer.counting = False
    ep.timed_s = perf_counter() - phase_start
    ep.rss_mb = rss_mb() - rss_before
    ep.log_records = len(db.log)
    frames_after = [len(writer_frames)] + [len(f) for f in sub_frames]
    for frames, lo, hi in zip((writer_frames,) + sub_frames, frames_before, frames_after):
        ep.bytes_timed += sum(len(f) for f in frames[lo:hi])

    # --- untimed: bring deferred views current, read every view ------
    if tracer is not None:
        tracer.begin("checks", "checks")
    maintainer.quiesce()
    for view in workload.views:
        writer.handle({"id": f"final:{view.name}", "op": "query", "target": view.name})
    writer.handle({"id": "stats:after", "op": "stats"})
    if tracer is not None:
        tracer.end()
    ep.stats_after = _decode(writer_frames[-1])["result"]
    for session in [writer] + subscribers:
        session.close()
    durability.close()
    del db, durability, maintainer, server, writer, subscribers, handle

    # --- recovery from the start-of-run checkpoint + whole WAL -------
    change_seqs = {name: [] for name in workload.views_by_name}
    gc.collect()
    if tracer is not None:
        tracer.begin("recovery", "recovery")
    start = perf_counter()
    recovery = Recovery(wal_dir)
    _declare_keys(recovery.database, workload)
    recovered = ViewMaintainer(recovery.database)
    for view in workload.views:
        recovery.restore_view(recovered, view.name, view.expression)
        recovered.subscribe(
            view.name, lambda v, d, seqs=change_seqs[view.name]: seqs.append(
                v.last_refresh_sequence)
        )
    replayed = recovery.replay()
    ep.recover_s = perf_counter() - start
    if tracer is not None:
        tracer.end()
    recovered.quiesce()

    # --- a base-free follower from the same checkpoint ---------------
    gc.collect()
    gc.freeze()
    if tracer is not None:
        tracer.begin("follower", "follower")
    start = perf_counter()
    follower = Follower(wal_dir, base_free=True)
    _declare_keys(follower.database, workload)
    for view in workload.follower:
        follower.define_view(view.name, view.expression)
    ep.follower_applied = follower.poll()
    ep.follower_s = perf_counter() - start
    if tracer is not None:
        tracer.end()

    ep.outputs = {
        "writer": writer_frames,
        "subscribers": sub_frames,
        "recovery": recovery,
        "recovered": recovered,
        "replayed": replayed,
        "change_seqs": change_seqs,
        "follower": follower,
    }
    shutil.rmtree(wal_dir, ignore_errors=True)
    return ep


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def _view_rows(maintainer, name):
    contents = maintainer.view(name).contents
    decode = contents.schema.decode_values
    return contents.schema.names, [
        (tuple(decode(values)), count) for values, count in contents.items()
    ]


def check_episode(workload, ep, expected):
    """Every problem found in one episode's outputs (empty: all correct).

    ``expected`` maps each view to its reference evaluation over the
    generator's final base relations.  Also returns the number of
    requests that failed (responses with ``ok`` false).
    """
    problems = []
    out = ep.outputs
    failed = 0
    commit_seqs = []
    finals = {}
    for frame in out["writer"]:
        doc = _decode(frame)
        request_id = doc.get("id")
        if not doc.get("ok"):
            failed += 1
            if failed <= 3:
                print(f"request {request_id} failed: {doc.get('error')}", file=sys.stderr)
            continue
        result = doc["result"]
        if isinstance(request_id, int) and workload.is_txn[request_id]:
            commit_seqs.append(result["seq"])
        elif isinstance(request_id, int):
            if result["target"] != workload.requests[request_id]["target"] or len(
                result["rows"]
            ) != len(result["counts"]):
                problems.append(f"query {request_id} returned a malformed result")
        elif isinstance(request_id, str) and request_id.startswith("final:"):
            finals[request_id[len("final:"):]] = result
    commits = sum(workload.is_txn)
    if commit_seqs != list(range(1, commits + 1)):
        problems.append(
            f"commit sequences are not 1..{commits} in order "
            f"({len(commit_seqs)} commits answered)"
        )

    # Query results through the server.
    for name in workload.views_by_name:
        want = expected[name]
        result = finals.get(name)
        if result is None:
            problems.append(f"no final query result for {name}")
            continue
        problem = ref.diff(want, result["attributes"], zip(map(tuple, result["rows"]),
                                                           result["counts"]))
        if problem:
            problems.append(f"server query {name}: {problem}")

    # Subscriber mirrors: snapshot + events applied in sequence order.
    for session_index, frames in enumerate(out["subscribers"]):
        problems.extend(_check_mirror(session_index, frames, expected, commits,
                                      out["change_seqs"], workload))

    # Recovered state.
    recovery, recovered = out["recovery"], out["recovered"]
    if out["replayed"] != commits or recovery.last_sequence != commits:
        problems.append(
            f"WAL holds {out['replayed']} records up to sequence "
            f"{recovery.last_sequence}; expected one per commit ({commits})"
        )
    for name, rows in workload.final.items():
        relation = recovery.database.relation(name)
        got = {tuple(relation.schema.decode_values(v)) for v in relation.value_tuples()}
        if got != rows:
            problems.append(f"recovered base relation {name} differs")
    for name in workload.views_by_name:
        problem = ref.diff(expected[name], *_view_rows(recovered, name))
        if problem:
            problems.append(f"recovered view {name}: {problem}")

    # Follower.
    follower = out["follower"]
    if follower.position != commits:
        problems.append(f"follower stopped at {follower.position}, not {commits}")
    for view in workload.follower:
        problem = ref.diff(expected[view.name], *_view_rows(follower.maintainer, view.name))
        if problem:
            problems.append(f"follower view {view.name}: {problem}")
    return problems, failed


def _check_mirror(session_index, frames, expected, last_seq, change_seqs, workload):
    problems = []
    label = f"subscriber {session_index + 1}"
    mirrors = {}  # view -> (attributes, bag)
    subscriptions = {}  # subscription id -> (view, [event sequences])
    for frame in frames:
        doc = _decode(frame)
        if doc.get("event") == "delta":
            if doc["subscription"] not in subscriptions:
                problems.append(f"{label}: event for unknown subscription")
                continue
            name, seqs = subscriptions[doc["subscription"]]
            if doc["seq"] <= seqs[-1] or doc["seq"] > last_seq:
                problems.append(f"{label}: {name} event seq {doc['seq']} after {seqs[-1]}")
            seqs.append(doc["seq"])
            bag = mirrors[name][1]
            for row in map(tuple, doc["delta"]["deleted"]):
                if bag.get(row, 0) < 1:
                    problems.append(f"{label}: {name} event deletes absent row {row}")
                    continue
                bag[row] -= 1
                if not bag[row]:
                    del bag[row]
            for row in map(tuple, doc["delta"]["inserted"]):
                bag[row] = bag.get(row, 0) + 1
            continue
        if not doc.get("ok"):
            problems.append(f"{label}: request failed: {doc.get('error')}")
            continue
        result = doc["result"]
        if "subscription" in result:
            subscriptions[result["subscription"]] = (result["view"], [result["seq"]])
        else:
            mirrors[result["target"]] = (
                tuple(result["attributes"]),
                dict(zip(map(tuple, result["rows"]), result["counts"])),
            )
    for name, seqs in subscriptions.values():
        attributes, bag = mirrors[name]
        problem = ref.diff(expected[name], attributes, bag.items())
        if problem:
            problems.append(f"{label} mirror {name}: {problem}")
        # Immediate views: the feed must carry an event at exactly the
        # sequences at which replaying the WAL changes the view.
        if not workload.views_by_name[name].deferred and seqs[1:] != change_seqs[name]:
            problems.append(
                f"{label}: {name} events at {len(seqs) - 1} sequences, but the "
                f"view changed at {len(change_seqs[name])} during WAL replay"
            )
    return problems
