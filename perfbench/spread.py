#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10] [--seconds S] [--out FILE]

Runs ``run.py --trace 0`` once per seed, one process at a time, and
prints per workload and metric the median of the runs and their spread:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) over the median. A spread at or
above a third of the metric's bound in ``BENCHMARK.json`` is marked
unsteady (``setup_s`` excepted, whose spread is not bounded), and the
exit code is 1 if any metric is unsteady or any op failed. With
``--out`` the summary is also written as JSON.
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


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds)
            runs.append(result)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(workload, seed, json.dumps(values), file=sys.stderr, flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bound / 3
            steady = steady and ok
            rows[name] = {"median": med, "spread": spread, "bound": bound, "steady": ok,
                          "values": values}
            print(f"{workload:12s} {name:14s} median {med:12.6g} {units[name]:4s} "
                  f"spread {spread:7.4f}  bound {bound:5.3f}  {'ok' if ok else 'UNSTEADY'}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        steady = steady and failed == 0
        print(f"{workload:12s} ops failed {failed} of {attempted}")
        summary["workloads"][workload] = {"metrics": rows, "failed": failed,
                                          "attempted": attempted}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
