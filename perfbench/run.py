"""End-to-end benchmark of the commit-to-changefeed pipeline.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload orderflow --seed 1 --seconds 10 --trace 0

Generates the workload from ``--seed``, then runs episodes (set-up, a
timed closed-loop request stream through ``ViewServer.dispatch``,
recovery, a base-free follower, output checks) until ``--seconds`` have
passed, and prints one JSON object as its last line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The make-up of the generated inputs goes to standard error.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

#: Episodes per run at least, however short ``--seconds`` is: set-up,
#: recovery and follower times are medians over episodes.
MIN_EPISODES = 3
#: A traced run alternates untraced and traced episodes, at least this
#: many of each, so the tracing overhead is measured within one run.
MIN_TRACE_PAIRS = 2


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(episodes):
    def percentile(values, q):
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    commits = [lat for ep in episodes for lat in ep.commit_lat]
    queries = [lat for ep in episodes for lat in ep.query_lat]
    counters = episodes[-1].stats_after["counters"]
    return {
        "setup_s": metric(statistics.median(ep.setup_s for ep in episodes), "s"),
        "commits_per_s": metric(len(commits) / sum(ep.timed_s for ep in episodes), "1/s"),
        "commit_p50_ms": metric(percentile(commits, 50) * 1e3, "ms"),
        "commit_p99_ms": metric(percentile(commits, 99) * 1e3, "ms"),
        "query_p50_ms": metric(percentile(queries, 50) * 1e3, "ms"),
        "query_p99_ms": metric(percentile(queries, 99) * 1e3, "ms"),
        "recover_s": metric(statistics.median(ep.recover_s for ep in episodes), "s"),
        "follower_catchup_s": metric(
            statistics.median(ep.follower_s for ep in episodes), "s"),
        # The first episode's leader is the only one whose heap no
        # earlier recovery or follower has used.
        "rss_mb": metric(episodes[0].rss_mb, "MiB"),
        "wal_bytes_per_commit": metric(
            counters["wal_bytes_written"] / counters["server_txns_committed"], "B"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    import harness
    import workloads

    generate = workloads.GENERATORS.get(args.workload)
    if generate is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.GENERATORS)}", file=sys.stderr)
        return 2
    workload = generate(args.seed)
    print(f"{args.workload} seed {args.seed}: {json.dumps(workload.facts)}", file=sys.stderr)
    expected = workload.expected()
    workdir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    deadline = perf_counter() + args.seconds
    episodes, traced, problems = [], [], []
    attempted = failed = 0
    try:
        while True:
            trace_this = tracer is not None and len(traced) < len(episodes)
            if trace_this:
                tracer.reset()
                with tracing.installed(tracer):
                    ep = harness.run_episode(workload, str(workdir), tracer)
            else:
                ep = harness.run_episode(workload, str(workdir))
            found, ep_failed = harness.check_episode(workload, ep, expected)
            problems.extend(found)
            attempted += len(workload.requests)
            failed += ep_failed
            ep.outputs = None  # the checked outputs are no longer needed
            (traced if trace_this else episodes).append(ep)
            if trace_this:
                tracer.summarise(ep, workload)
            done = perf_counter() >= deadline
            if tracer is None and done and len(episodes) >= MIN_EPISODES:
                break
            if tracer is not None and done and len(traced) >= MIN_TRACE_PAIRS \
                    and len(traced) == len(episodes):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload}: {len(episodes)} untraced and {len(traced)} traced "
          f"episodes, {perf_counter() - deadline + args.seconds:.1f} s", file=sys.stderr)
    for problem in problems[:20]:
        print("CHECK FAILED:", problem, file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(episodes)
    else:
        metrics = tracer.metrics(episodes, traced)
        tracer.write(ROOT / ".perfbench_out" / f"trace-{args.workload}.json")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
