"""Spans around the program's layer entry points, for the traced run.

:func:`installed` wraps the public entry points of each layer (see
:data:`TARGETS`) with timing wrappers defined here, so the program itself
is unchanged; leaving the block restores the originals.  Spans are kept
in memory as ``(name, start, end, parent, request)`` and the last traced
episode's spans are written to one trace file at the end of the run.

A span's self time is its duration minus the durations of the spans it
directly caused.  :meth:`Tracer.metrics` turns self times and the
program's own counters into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter


#: (module, attribute path, span name).  A span name's first part is
#: its layer.
TARGETS = (
    ("repro.engine.transactions", "Transaction.insert", "engine.stage"),
    ("repro.engine.transactions", "Transaction.delete", "engine.stage"),
    ("repro.engine.transactions", "Transaction.insert_many", "engine.stage"),
    ("repro.engine.transactions", "Transaction.delete_many", "engine.stage"),
    ("repro.engine.transactions", "Transaction.net_deltas", "engine.stage"),
    ("repro.engine.transactions", "Transaction.commit", "engine.apply"),
    ("repro.engine.database", "Database.net_effect_violation", "engine.check"),
    ("repro.engine.indexes", "IndexManager.apply_deltas", "engine.index"),
    ("repro.core.compiled", "CompiledViewPlan.screen", "core.screen"),
    ("repro.core.compiled", "CompiledViewPlan.compute_delta", "core.kernel"),
    ("repro.core.compiled", "CompiledViewPlan.fold_aggregate", "core.fold"),
    ("repro.core.views", "MaterializedView.apply_delta", "core.view_apply"),
    ("repro.replication.durability", "deltas_to_document", "replication.wal_encode"),
    ("repro.replication.wal", "WalWriter.append", "replication.wal_append"),
    ("repro.replication.checkpoints", "Checkpoint.load", "replication.checkpoint_load"),
    ("repro.replication.checkpoints", "Checkpoint.build_database",
     "replication.checkpoint_load"),
    ("repro.replication.recovery", "Recovery.replay", "replication.replay"),
    ("repro.replication.follower", "Follower.apply_record", "replication.follower_apply"),
    ("repro.server.server", "ViewServer.dispatch", "server.dispatch"),
    ("repro.server.server", "ViewServer._op_query", "server.query"),
    ("repro.server.server", "ViewServer._on_view_delta", "server.fanout"),
    ("repro.server.protocol", "encode_frame", "server.encode"),
    ("repro.scheduler.refresh", "RefreshScheduler.tick", "scheduler.tick"),
    ("repro.core.maintainer", "ViewMaintainer.refresh", "scheduler.tick"),
)

LAYERS = ("engine", "core", "replication", "server", "scheduler")

#: Per-layer metrics: name → unit.  Times are self times in ms per
#: timed commit unless :meth:`Tracer.metrics` says otherwise.
PER_LAYER = {
    "engine.stage_ms": "ms",
    "engine.check_ms": "ms",
    "engine.apply_ms": "ms",
    "engine.index_ms": "ms",
    "engine.log_records_retained": "count",
    "algebra.coerce_calls": "count",
    "core.screen_ms": "ms",
    "core.screen_pass_ratio": "ratio",
    "core.kernel_ms": "ms",
    "core.tuples_scanned": "count",
    "core.join_probes": "count",
    "core.fold_ms": "ms",
    "core.rows_folded": "count",
    "core.view_apply_ms": "ms",
    "replication.wal_encode_ms": "ms",
    "replication.wal_append_ms": "ms",
    "replication.fsyncs": "count",
    "replication.checkpoint_load_ms": "ms",
    "replication.replay_ms": "ms",
    "replication.follower_apply_ms": "ms",
    "server.dispatch_ms": "ms",
    "server.encode_ms": "ms",
    "server.frame_bytes": "B",
    "server.fanout_ms": "ms",
    "server.events": "count",
    "server.query_ms": "ms",
    "server.rows_returned": "count",
    "scheduler.tick_ms": "ms",
    "scheduler.refreshes": "count",
    **{f"share.{layer}": "%" for layer in LAYERS},
    "share.uncovered": "%",
    "trace.overhead": "%",
}


def _resolve(path):
    module_name, attribute, _ = path
    owner = importlib.import_module(module_name)
    *parents, name = attribute.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Tracer:
    """In-memory spans plus the per-episode sums taken from them."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        #: True during the timed phase: ``coerce_row`` calls are counted.
        self.counting = False
        self.coerce_calls = 0
        self.episodes = []

    def reset(self):
        del self.spans[:]
        del self.stack[:]
        self.request = None
        self.coerce_calls = 0

    # -- spans ---------------------------------------------------------
    def begin(self, name, request):
        """Open a root span; spans until :meth:`end` belong to ``request``."""
        self.request = request
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, -1, request])

    def end(self):
        self.spans[self.stack.pop()][2] = perf_counter()
        self.request = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def span_async(*args, **kwargs):
                parent = stack[-1] if stack else -1
                index = len(spans)
                spans.append(None)
                stack.append(index)
                start = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    spans[index] = (name, start, end, parent, tracer.request)

            return span_async

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.request)

        return span

    def counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.counting:
                tracer.coerce_calls += 1
            return fn(*args, **kwargs)

        return counted

    # -- per-episode sums ------------------------------------------------
    def summarise(self, ep, workload):
        """Fold the finished traced episode's spans into per-layer sums."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = {}  # (scope, span name) -> seconds
        txn_total = 0.0
        for index, (name, start, end, _, request) in enumerate(spans):
            if isinstance(request, tuple):
                scope = request[0]  # "txn" or "query"
            else:
                scope = request
            key = (scope, name)
            self_time[key] = self_time.get(key, 0.0) + (end - start) - child[index]
            if name == "request" and scope == "txn":
                txn_total += end - start
        before, after = ep.stats_before, ep.stats_after
        counters = {
            name: after["counters"].get(name, 0) - before["counters"].get(name, 0)
            for name in after["counters"]
        }
        screened = irrelevant = 0
        for name, view in after["views"].items():
            old = before["views"][name]["maintenance"]
            screened += view["maintenance"]["tuples_screened"] - old["tuples_screened"]
            irrelevant += view["maintenance"]["tuples_irrelevant"] - old["tuples_irrelevant"]
        self.episodes.append({
            "self": self_time,
            "txn_total": txn_total,
            "commits": len(ep.commit_lat),
            "queries": len(ep.query_lat),
            "counters": counters,
            "screened": screened,
            "irrelevant": irrelevant,
            "coerce_calls": self.coerce_calls,
            "log_records": ep.log_records,
            "frame_bytes": ep.bytes_timed,
            "replayed": sum(workload.is_txn),
            "follower_records": ep.follower_applied,
        })

    # -- the metrics -----------------------------------------------------
    def metrics(self, untraced, traced):
        eps = self.episodes
        commits = sum(e["commits"] for e in eps)
        queries = sum(e["queries"] for e in eps)
        requests = commits + queries
        recoveries = len(eps)
        replayed = sum(e["replayed"] for e in eps)
        followed = sum(e["follower_records"] for e in eps)

        def seconds(scopes, *names):
            return sum(
                e["self"].get((scope, name), 0.0)
                for e in eps for scope in scopes for name in names
            )

        def per(total, count):
            return total / count if count else 0.0

        def counter(name):
            return sum(e["counters"].get(name, 0) for e in eps)

        txn = ("txn",)
        timed = ("txn", "query")
        ms = 1e3
        values = {
            "engine.stage_ms": per(seconds(txn, "engine.stage") * ms, commits),
            "engine.check_ms": per(seconds(txn, "engine.check") * ms, commits),
            "engine.apply_ms": per(seconds(txn, "engine.apply") * ms, commits),
            "engine.index_ms": per(seconds(txn, "engine.index") * ms, commits),
            "engine.log_records_retained": eps[-1]["log_records"],
            "algebra.coerce_calls": per(sum(e["coerce_calls"] for e in eps), commits),
            "core.screen_ms": per(seconds(txn, "core.screen") * ms, commits),
            "core.screen_pass_ratio": per(
                sum(e["screened"] - e["irrelevant"] for e in eps),
                sum(e["screened"] for e in eps)),
            "core.kernel_ms": per(seconds(txn, "core.kernel") * ms, commits),
            "core.tuples_scanned": per(counter("tuples_scanned"), commits),
            "core.join_probes": per(counter("join_probes"), commits),
            "core.fold_ms": per(seconds(txn, "core.fold") * ms, commits),
            "core.rows_folded": per(counter("aggregate_rows_folded"), commits),
            "core.view_apply_ms": per(seconds(txn, "core.view_apply") * ms, commits),
            "replication.wal_encode_ms": per(
                seconds(txn, "replication.wal_encode") * ms, commits),
            "replication.wal_append_ms": per(
                seconds(txn, "replication.wal_append") * ms, commits),
            "replication.fsyncs": per(counter("wal_fsyncs"), commits),
            "replication.checkpoint_load_ms": per(
                seconds(("recovery",), "replication.checkpoint_load") * ms, recoveries),
            "replication.replay_ms": per(
                seconds(("recovery",), "replication.replay") * ms, replayed),
            "replication.follower_apply_ms": per(
                seconds(("follower",), "replication.follower_apply") * ms, followed),
            "server.dispatch_ms": per(seconds(timed, "server.dispatch") * ms, requests),
            "server.encode_ms": per(seconds(timed, "server.encode") * ms, requests),
            "server.frame_bytes": per(sum(e["frame_bytes"] for e in eps), requests),
            "server.fanout_ms": per(seconds(txn, "server.fanout") * ms, commits),
            "server.events": per(counter("server_events_sent"), commits),
            "server.query_ms": per(seconds(("query",), "server.query") * ms, queries),
            "server.rows_returned": per(counter("server_rows_returned"), queries),
            "scheduler.tick_ms": per(seconds(txn, "scheduler.tick") * ms, commits),
            "scheduler.refreshes": per(counter("scheduler_refreshes"), commits),
        }
        total = sum(e["txn_total"] for e in eps)
        for layer in LAYERS:
            names = {n for e in eps for (scope, n) in e["self"]
                     if scope == "txn" and n.split(".")[0] == layer}
            values[f"share.{layer}"] = per(seconds(txn, *names) * 100, total)
        values["share.uncovered"] = per(seconds(txn, "request") * 100, total)

        def p50(episodes):
            return statistics.median(x for ep in episodes for x in ep.commit_lat)

        values["trace.overhead"] = (p50(traced) / p50(untraced) - 1) * 100
        return {name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER.items()}

    def write(self, path):
        """Write the last traced episode's spans as one JSON document."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = []
        for name, start, end, parent, request in self.spans:
            if isinstance(request, tuple):
                request = f"{request[0]}:{request[1]}"
            rows.append([name, round((start - origin) * 1e6, 1),
                         round((end - origin) * 1e6, 1), parent, request])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"unit": "us", "fields": ["name", "start", "end", "parent", "request"],
                       "spans": rows}, stream, separators=(",", ":"))


@contextmanager
def installed(tracer):
    """Wrap every target (and count ``coerce_row`` calls) inside the block."""
    patched = []
    try:
        for target in TARGETS:
            owner, name = _resolve(target)
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(target[2], raw.__func__))
            else:
                new = tracer.wrap(target[2], raw)
            patched.append((owner, name, raw))
            setattr(owner, name, new)
        from repro.algebra import tuples

        original = tuples.coerce_row
        counted = tracer.counter(original)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "coerce_row", None) is original):
                patched.append((module, "coerce_row", original))
                module.coerce_row = counted
        yield tracer
    finally:
        for owner, name, raw in reversed(patched):
            setattr(owner, name, raw)
