#!/usr/bin/env python3
"""Read benchmark result files and print their medians and quartiles.

    python3 perfbench/compare.py before.jsonl              # spread of one set
    python3 perfbench/compare.py before.jsonl after.jsonl  # before/after table

A result file holds one JSON record per line, as ``series.py`` writes them:
``{"workload": ..., "seed": ..., "trace": 0|1, "result": <run.py's last line>}``.
One row per workload and metric: each side's median and quartiles, and the
distance between the quartiles as a share of the median (the spread).

With one file, an end-to-end metric is flagged ``noisy`` when its spread
exceeds a third of its bound in BENCHMARK.json. With two, it is flagged
``WORSE`` when the second median is worse than the first by more than the
bound, and ``unresolved`` when either side's spread is wider than the bound.
The share of failed operations comes last in each workload, flagged
``FAILED-SHARE`` when the runs do not all have the same share.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{(workload, trace): [result, ...]} in file order."""
    runs: dict = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            runs[(rec["workload"], rec["trace"])].append(rec["result"])
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def failed_shares(results: list) -> set:
    """The distinct exact shares of failed operations, as fractions."""
    return {Fraction(r["failed"], r["attempted"]) for r in results}


def _fmt(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:12.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    sets = [load(p) for p in argv]
    keys = sorted(set().union(*sets))
    worst = 0
    for key in keys:
        workload, trace = key
        sides = [s.get(key, []) for s in sets]
        if not all(sides):
            print(f"{workload} trace={trace}: missing from one file")
            continue
        correct = all(r["correct"] for side in sides for r in side)
        print(f"\n{workload} (trace={trace}, runs {' / '.join(str(len(s)) for s in sides)}, correct={correct})")
        names = list(sides[0][0]["metrics"])
        for name in names:
            cols = [[r["metrics"][name]["value"] for r in side] for side in sides]
            unit = sides[0][0]["metrics"][name]["unit"]
            row = f"  {name:36s} {unit:6s}" + "".join(f" {_fmt(c)} ({spread(c):6.1%})" for c in cols)
            flag = ""
            bound = e2e.get(name, {}).get("bound")
            if bound is not None and len(cols) == 1 and spread(cols[0]) > bound / 3:
                flag = "noisy"
            if len(cols) == 2:
                before, after = statistics.median(cols[0]), statistics.median(cols[1])
                change = (after - before) / abs(before) if before else float("inf")
                worse = change if better.get(name) == "lower" else -change
                row += f" {change:+7.1%}"
                if bound is not None:
                    if worse > bound:
                        flag = "WORSE"
                    elif max(spread(cols[0]), spread(cols[1])) > bound:
                        flag = "unresolved"
            if flag:
                worst += 1
            print(row + (f"  {flag}" if flag else ""))
        shares = [failed_shares(side) for side in sides]
        same = len(set().union(*shares)) == 1
        worst += not same
        text = " | ".join(", ".join(str(f) for f in sorted(s)) for s in shares)
        print(f"  failed share: {text}" + ("" if same else "  FAILED-SHARE"))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
