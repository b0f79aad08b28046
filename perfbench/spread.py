#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --seeds 10 [--sets 2] [--workload pr-lj ...]

Runs ``perfbench/run.py`` once per seed, set and workload, one run at a
time so runs never compete for the cores.  The sets are interleaved: seed
``i`` of every set and workload runs before seed ``i + 1`` of any, so a
slow drift of the host's speed reaches every set alike.  Set ``k`` uses
seeds ``first-seed + 100 k`` onwards.

Per set and metric it prints the median and the distance between the
first and third quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json; with two or more sets, also how far each later
set's median moved from the first set's, in the metric's worse direction.
The benchmark is steady when every spread stays below a third of its
bound and no set's median is worse than the first's by more than it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, name: str, seed: int) -> dict | None:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / spec["command"][1]), "--workload", name,
         "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
        return None
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["wall_s"] = time.perf_counter() - started
    probe = [line for line in lines if line.startswith("machine probe:")]
    if probe:
        result["probe_s"] = float(probe[0].split()[2])
    if not result["correct"] or result["failed"]:
        print(f"{name} seed {seed}: NOT CORRECT\n{done.stdout}")
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR / median) as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--out", help="also write every run's result here")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    runs: dict = {(name, k): [] for name in names for k in range(args.sets)}
    status = 0
    for i in range(args.seeds):
        for k in range(args.sets):
            for name in names:
                result = run_once(spec, name, args.first_seed + 100 * k + i)
                if result is None or not result["correct"] or result["failed"]:
                    status = 1
                if result is not None:
                    runs[name, k].append(result)
    for name in names:
        print(f"\n{name}")
        print(f"  {'metric':<16} {'set':>3} {'median':>12} {'spread':>8} "
              f"{'moved':>7} {'bound':>6}")
        for metric, declared in metrics.items():
            first = None
            for k in range(args.sets):
                values = [r["metrics"][metric]["value"] for r in runs[name, k]]
                if len(values) < 2:
                    continue
                median, share = spread(values)
                first = median if first is None else first
                # Positive when the metric got worse than in the first set.
                moved = (median - first) / first
                if declared["better"] == "higher":
                    moved = -moved
                bound = declared["bound"]
                flags = ("  <- spread above a third of the bound"
                         if share >= bound / 3 else "")
                flags += "  <- worse than set 0 by more than the bound" if (
                    moved > bound) else ""
                print(f"  {metric:<16} {k:>3} {median:12.5g} {share:8.3f} "
                      f"{moved:+7.3f} {bound:6.2f}{flags}")
        for k in range(args.sets):
            probes = [r["probe_s"] for r in runs[name, k] if "probe_s" in r]
            walls = [r["wall_s"] for r in runs[name, k]]
            if len(probes) >= 2:
                median, share = spread(probes)
                print(f"  machine probe    {k:>3} {median:12.5g} {share:8.3f}"
                      "  (diagnostic, host speed)")
            if walls:
                print(f"  run wall time    {k:>3} {statistics.median(walls):12.5g}"
                      f" s median, {max(walls):.1f} s max")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {f"{name}/{k}": value for (name, k), value in runs.items()}, indent=1
        ), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
