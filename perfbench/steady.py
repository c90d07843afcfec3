"""Steadiness check: run each workload repeatedly, in two sets, and compare.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py [--runs 10] [--workload orderflow ...]

A set runs ``perfbench/run.py`` once per seed 1..``--runs`` on every
chosen workload, one run at a time, for ``run_seconds`` from
``BENCHMARK.json``; two sets run one after another, as a parent and a
change would be compared.  For every metric and set it prints the
median, first and third quartile (``statistics.quantiles(values, n=4)``)
and the relative spread ``(Q3 - Q1) / median``; for every end-to-end
metric also the relative difference between the second set's median and
the first set's.  It
exits 1 if any end-to-end metric spreads wider than its bound in
``BENCHMARK.json``, if the two sets' medians differ by more than the
bound, or if the share of failed operations differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("orderflow", "keyed_ingest", "dashboard_reads")
SETS = 2


def run_once(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(command)} reported incorrect output:\n{done.stderr}")
    return result


def run_set(workload, runs, seconds):
    """Metric name → the values of ``runs`` runs, and the failed shares."""
    values, failed_shares = {}, set()
    for seed in range(1, runs + 1):
        result = run_once(workload, seed, seconds)
        failed_shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values, failed_shares


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    chosen = args.workload or WORKLOADS
    failures = []
    first = {}  # workload -> (medians, failed shares) of the first set
    for set_index in range(1, SETS + 1):
        for workload in chosen:
            values, failed_shares = run_set(workload, args.runs, spec["run_seconds"])
            print(f"set {set_index} {workload}: {args.runs} runs, seeds 1..{args.runs}, "
                  f"failed share {sorted(failed_shares)}")
            print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'spread':>8s} {'vs set 1':>9s}")
            medians = {}
            for name, series in values.items():
                q1, median, q3 = statistics.quantiles(series, n=4)
                medians[name] = median
                spread = (q3 - q1) / median if median else 0.0
                line = f"  {name:32s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}"
                if name in bounds:
                    bound = bounds[name]
                    if set_index > 1:
                        base = first[workload][0][name]
                        shift = (median - base) / base if base else 0.0
                        line += f" {shift:+9.3f}"
                        if abs(shift) > bound:
                            line += "  SHIFTED"
                            failures.append((set_index, workload, name, "shift"))
                    else:
                        line += f" {'':9s}"
                    line += f"  bound {bound:.2f}"
                    if spread > bound:
                        line += "  TOO WIDE"
                        failures.append((set_index, workload, name, "spread"))
                print(line)
            if set_index == 1:
                first[workload] = (medians, failed_shares)
            elif failed_shares != first[workload][1]:
                print(f"  failed share differs from set 1: {sorted(first[workload][1])}")
                failures.append((set_index, workload, "failed", "share"))
            sys.stdout.flush()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
