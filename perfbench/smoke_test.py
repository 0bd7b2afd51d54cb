"""Smoke test of the benchmark itself, at tiny block sizes.

    python3 perfbench/smoke_test.py          # or: pytest perfbench/smoke_test.py

For every workload it makes two traced runs and one untraced run of one
cycle each with one seed, and checks that no output failed its check,
that the two traced runs report the same counts, and that all three runs
emit the same result digest.
"""

from __future__ import annotations

import sys

import run

SEED = 7
# Divides every block dimension: block-algebra runs d in {2, 4, 6},
# states-pairing d in {2..5}, cli-batch d in {2..4}.
SHRINK = {"block-algebra": 4, "states-pairing": 2, "cli-batch": 2}
# Ratios of two counts, which must repeat exactly like the counts.
COUNT_DERIVED = ("operators.block_mul.trace_only_frac", "operators.block_mul.repeat_frac")


def check_workload(workload: str) -> list[str]:
    """Problems found with one workload; empty when it passes."""
    traced = [run.run(workload, SEED, 0, True, SHRINK[workload]) for _ in range(2)]
    plain = run.run(workload, SEED, 0, False, SHRINK[workload])
    problems = []
    for name, res in (("traced #1", traced[0]), ("traced #2", traced[1]), ("untraced", plain)):
        if res["failed"] or not res["correct"]:
            problems.append(f"{name}: {res['failed']} of {res['attempted']} requests failed")
    counts = [
        {k: m["value"] for k, m in res["metrics"].items() if k in COUNT_DERIVED or m["unit"] == "count"}
        for res in traced
    ]
    for key in sorted(counts[0]):
        if counts[0][key] != counts[1].get(key):
            problems.append(f"count {key} differs: {counts[0][key]} vs {counts[1].get(key)}")
    if traced[0]["attempted"] != traced[1]["attempted"]:
        problems.append("attempted differs between the traced runs")
    digests = {traced[0]["digest"], traced[1]["digest"], plain["digest"]}
    if len(digests) != 1:
        problems.append(f"digests differ: {sorted(digests)}")
    return problems


def test_smoke():
    for workload in SHRINK:
        assert check_workload(workload) == [], workload


def main() -> int:
    status = 0
    for workload in SHRINK:
        problems = check_workload(workload)
        print(f"{'PASS' if not problems else 'FAIL'} {workload}")
        for problem in problems:
            print(f"  {problem}")
        status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
