"""Compare a parent and a change in alternating pairs of benchmark runs.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --workload W

Both directories are hodisc source trees holding the same perfbench/.
Pair i of PAIRS runs seed ``BASE_SEED + i`` on both sides; the parent runs
first in even pairs and second in odd ones.  For each end-to-end metric it
prints both sides' medians and quartiles, the share of pairs the change won
(ties count for neither), the parent's own quartile spread and the metric's
bound from BENCHMARK.json, with a verdict by the rule in README.md.  If the
change fails more jobs than the parent in any pair, every metric is a
REGRESSION and no gain is reported.  It exits 1 if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
BASE_SEED = 1000


def run_one(tree: Path, workload: str, seed: int, seconds: int) -> tuple[dict, int]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: run failed with exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{tree} seed {seed}: {result['failed']} failed jobs", file=sys.stderr)
    return {k: m["value"] for k, m in result["metrics"].items()}, result["failed"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    failed: dict[str, list[int]] = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = args.parent if side == "parent" else args.change
            values, fails = run_one(tree, args.workload, BASE_SEED + i, seconds)
            runs[side].append(values)
            failed[side].append(fails)
        print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr)
    more_failures = any(c > p for p, c in zip(failed["parent"], failed["change"]))
    if more_failures:
        print(f"REGRESSION: the change fails more jobs than the parent "
              f"(failed per pair: parent {failed['parent']}, change {failed['change']})")

    print(f"{'metric':14s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s}"
          "  wins  spread  bound  verdict")
    regressed = more_failures
    for name, m in declared.items():
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        losses = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
        pq, cq = quartiles(p), quartiles(c)
        spread = (pq[2] - pq[0]) / pq[1] if pq[1] else 0.0
        worse = sign * (pq[1] - cq[1]) / pq[1] if pq[1] else 0.0
        if more_failures:
            verdict = "REGRESSION"
        elif wins >= 0.9 * len(p) and abs(cq[1] - pq[1]) > pq[2] - pq[0]:
            verdict = "gain"
        elif spread > m["bound"]:
            verdict = "unresolved"
        elif worse > m["bound"]:
            verdict = "REGRESSION"
            regressed = True
        else:
            verdict = "no regression"
        print(f"{name:14s} {pq[0]:>9.4g} {pq[1]:>9.4g} {pq[2]:>9.4g}"
              f"  {cq[0]:>9.4g} {cq[1]:>9.4g} {cq[2]:>9.4g}"
              f"  {wins:2d}/{wins + losses:<2d} {spread:6.3f} {m['bound']:6.3f}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
