#!/usr/bin/env python3
"""Run the benchmark once per workload and seed, and append the results to a
file that compare.py reads.

    python3 perfbench/series.py --seeds 1-10 --out perfbench/out/base.jsonl
    python3 perfbench/series.py --workloads corpus --seeds 1,2,3 --trace 1 --out t.jsonl

Runs are made one after another with the command, workloads and run length
in BENCHMARK.json; each record is
``{"workload", "seed", "trace", "wall_s", "result"}``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    status = 0
    with open(args.out, "a", encoding="utf-8") as out:
        for workload in args.workloads:
            for seed in args.seeds:
                cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                wall = time.perf_counter() - t0
                if proc.returncode != 0:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    status = 1
                    continue
                result = json.loads(proc.stdout.splitlines()[-1])
                rec = {"workload": workload, "seed": seed, "trace": args.trace, "wall_s": round(wall, 2), "result": result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
                      f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
