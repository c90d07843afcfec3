"""Self-test: a short episode of every workload, with the output checks.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

For each workload, runs one episode of the short stream and requires the
output checks to pass; then perturbs one row of one expected view and
requires the same checks to fail on it, for every copy the checks cover
(server query, subscriber mirror, recovered view, follower view).
Exits 1 on the first failure.  Takes a few seconds.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402


def perturbed(expected, view):
    """A copy of ``expected`` with one row of ``view`` changed."""
    attributes, bag = expected[view]
    row = min(bag)
    changed = dict(bag)
    del changed[row]
    changed[row[:-1] + (row[-1] + 1,)] = 1
    copy = dict(expected)
    copy[view] = (attributes, changed)
    return copy


def main():
    workdir = ROOT / ".perfbench_out" / "selftest"
    failures = 0
    try:
        for name, generate in workloads.GENERATORS.items():
            workload = generate(seed=1, short=True)
            expected = workload.expected()
            episode = harness.run_episode(workload, str(workdir))
            problems, failed = harness.check_episode(workload, episode, expected)
            ok = not problems and not failed
            print(f"{name}: {len(workload.requests)} requests, checks "
                  f"{'pass' if ok else 'FAIL'}")
            for problem in problems[:5]:
                print("   ", problem)
            failures += not ok
            # The view every copy covers: subscribed, recovered, followed.
            view = workload.follower[0].name
            problems, _ = harness.check_episode(
                workload, episode, perturbed(expected, view))
            caught = {
                kind for kind in ("server query", "mirror", "recovered view",
                                  "follower view")
                if any(kind in p and view in p for p in problems)
            }
            subscribed = any(view in views for views in workload.subscriptions)
            want = {"server query", "recovered view", "follower view"}
            if subscribed:
                want.add("mirror")
            ok = caught == want
            print(f"{name}: one row of {view} perturbed, checks fail on "
                  f"{sorted(caught)} {'(as they must)' if ok else f'but must on {sorted(want)}'}")
            failures += not ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test", "passed" if not failures else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
