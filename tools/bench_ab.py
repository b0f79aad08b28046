#!/usr/bin/env python3
"""A/B the end-to-end benchmark: a git revision against the working tree.

    python3 tools/bench_ab.py --base HEAD --workload churn-friendster --pairs 10 --seed 31
    make bench-ab BASE=HEAD WORKLOAD=churn-friendster PAIRS=10 SEED=31 [TRACE=1]

Exports ``--base`` with ``git archive`` into a temporary directory, then
makes ``--pairs`` pairs of ``perfbench/run.py --workload W --seed S`` runs,
one in that copy and one in the working tree, pair ``i`` on seed
``--seed + i``.  The side that runs first alternates from pair to pair, so
a drift in host speed reaches both sides alike.  Each side runs its own
``perfbench/`` against its own ``src/``, one run at a time, with its own
bytecode cache: a new ``PYTHONPYCACHEPREFIX`` directory under the temporary
directory, so neither side starts from modules compiled before (the
working tree's ``__pycache__`` would otherwise shorten its ``setup_s``).

Prints every run as it finishes, with the ``CHECK FAILED`` lines of a run
that was not correct under its line.  Each line is tagged ``[host]`` when
it reports the load generator falling behind its schedule (the host was
too busy to send on time, whatever the program does) and ``[program]``
otherwise.  Then, per end-to-end metric of BENCHMARK.json, each side's
median and quartiles, the number of pairs the working tree won and a
verdict, and per side the correct runs, failed operations, the failed runs
by cause (``host`` when every check a run failed was the generator's
lateness, else ``program``) and the tagged failed checks with their seeds.
The verdicts:

* ``gain``: the working tree won at least 9/10 of the pairs (ties count
  for neither side) and the medians differ by more than the base's q3-q1,
  over at least ten pairs;
* ``too few pairs``: the same, over fewer than ten pairs (one pair wins
  1/1 and has a q3-q1 of 0, so it would pass any improvement);
* ``worse than its bound``: the working tree's median is worse than the
  base's by more than the metric's BENCHMARK.json bound;
* ``unresolved``: the base's own q3-q1 is wider than the bound, unless
  every run of the working tree beat every run of the base;
* ``within its bound``: none of the above.

``--trace 1`` runs perfbench traced and summarizes BENCHMARK.json's
per-layer metrics instead; they have no bound, so their verdict is
``gain``, ``too few pairs`` or ``no gain``.  On a serve workload it adds
the untraced server CPU seconds per session as a diagnostic row without a
verdict: the closed-loop query client does more work against a faster
server, so a change that speeds the server up can raise its CPU time.
The last line is the same summary as one JSON object.  A run that exits
non-zero stops the comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
CHECK_FAILED = "CHECK FAILED: "
#: How perfbench/serving.py's check of the load generator's lateness
#: starts: a failure of it measures the host, not the program.
HOST_CHECK = "generator fell behind"
#: perfbench's traced serve runs print the server's CPU seconds per session.
SERVER_CPU = re.compile(r"^server CPU s: untraced ([0-9.]+), traced [0-9.]+$")
#: Fewest pairs a ``gain`` verdict rests on.
MIN_GAIN_PAIRS = 10
NO_CPU_VERDICT = (
    "no verdict: the closed-loop query client does more work against a "
    "faster server"
)


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


#: Inherited variables a run must not see: its own tree sets the import
#: path, and the side's bytecode cache must be written and read.
CHILD_ENV_DROP = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def run_once(
    tree: Path, workload: str, seed: int, seconds: float, trace: int,
    pycache: Path,
) -> dict:
    """One ``perfbench/run.py`` run in ``tree``, compiling into and reading
    from the bytecode cache ``pycache``; its final JSON line."""
    env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_DROP}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if done.returncode or not done.stdout.strip():
        raise SystemExit(
            f"{tree} seed {seed}: exit {done.returncode}\n{done.stderr[-4000:]}"
        )
    return {**parse_run(done.stdout), "seed": seed}


def parse_run(stdout: str) -> dict:
    """A perfbench run's final JSON line, plus what it printed before it:
    ``checks_failed`` (its ``CHECK FAILED`` lines) and ``server_cpu_s``
    (untraced server CPU seconds, or None when not printed)."""
    lines = stdout.strip().splitlines()
    cpu = [m.group(1) for m in map(SERVER_CPU.match, lines) if m]
    return {
        **json.loads(lines[-1]),
        "checks_failed": [
            line[len(CHECK_FAILED):] for line in lines
            if line.startswith(CHECK_FAILED)
        ],
        "server_cpu_s": float(cpu[-1]) if cpu else None,
    }


def cause(check: str) -> str:
    """``host`` for a failed check of the generator's lateness, else
    ``program``."""
    return "host" if check.startswith(HOST_CHECK) else "program"


def tagged(check: str) -> str:
    """A failed check as printed: its line and its cause."""
    return f"{CHECK_FAILED}{check} [{cause(check)}]"


def failure_cause(run: dict) -> str | None:
    """Why a run failed: None if it was correct, ``host`` if every check
    it failed was the generator's lateness, else ``program``."""
    if run["correct"]:
        return None
    causes = set(map(cause, run.get("checks_failed", [])))
    return "host" if causes == {"host"} else "program"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(entry: dict, pairs: int, bound: float | None) -> str:
    """The A/B verdict on one metric's summary ``entry`` (module docstring)."""
    base, change = entry["base"], entry["change"]
    spread = base["q3"] - base["q1"]
    sign = 1 if entry["better"] == "higher" else -1
    improvement = sign * (change["median"] - base["median"])
    if 10 * entry["wins"] >= 9 * pairs and improvement > spread:
        return "gain" if pairs >= MIN_GAIN_PAIRS else "too few pairs"
    if bound is None:
        return "no gain"
    scale = abs(base["median"])
    if -improvement > bound * scale:
        return "worse than its bound"
    if spread > bound * scale and not entry["all_better"]:
        return "unresolved"
    return "within its bound"


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, quartiles, wins and verdict over ``pairs``.

    Each pair maps ``"base"`` and ``"change"`` to a run's JSON result;
    ``metrics`` are BENCHMARK.json's ``end_to_end`` or ``per_layer``
    entries (only the former carry a ``bound``).
    """
    summary: dict = {"pairs": len(pairs), "metrics": {}}
    for metric in metrics:
        name = metric["name"]
        values = {
            side: [pair[side]["metrics"][name]["value"] for pair in pairs]
            for side in SIDES
        }
        # Signed so that larger is better in either direction.
        sign = 1 if metric["better"] == "higher" else -1
        base, change = ([sign * v for v in values[side]] for side in SIDES)
        entry: dict = {
            "unit": metric["unit"], "better": metric["better"],
            "wins": sum(c > b for b, c in zip(base, change)),
            "all_better": min(change) > max(base),
        }
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        entry["verdict"] = verdict(entry, len(pairs), metric.get("bound"))
        summary["metrics"][name] = entry
    for side in SIDES:
        summary[side] = {
            "correct_runs": sum(bool(pair[side]["correct"]) for pair in pairs),
            "failed": sum(pair[side]["failed"] for pair in pairs),
            "attempted": sum(pair[side]["attempted"] for pair in pairs),
            "failed_runs": {
                way: sum(failure_cause(pair[side]) == way for pair in pairs)
                for way in ("host", "program")
            },
            "failed_checks": [
                {"seed": pair[side].get("seed"), "check": check}
                for pair in pairs
                for check in pair[side].get("checks_failed", [])
            ],
        }
    cpu = {
        side: [pair[side].get("server_cpu_s") for pair in pairs] for side in SIDES
    }
    if all(v is not None for values in cpu.values() for v in values):
        entry = {"unit": "s", "wins": None, "verdict": NO_CPU_VERDICT}
        for side in SIDES:
            q1, median, q3 = quartiles(cpu[side])
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        summary["server_cpu_s"] = entry
    return summary


def report(summary: dict) -> None:
    pairs = summary["pairs"]
    rows = dict(summary["metrics"])
    if "server_cpu_s" in summary:
        rows["server_cpu_s"] = summary["server_cpu_s"]
    width = max(16, *map(len, rows))
    print(f"{'metric':<{width}} {'unit':<8} {'base median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'ratio':>6}  change wins  verdict")
    for name, entry in rows.items():
        cells = []
        for side in SIDES:
            s = entry[side]
            cells.append(f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]")
        base = entry["base"]["median"]
        ratio = entry["change"]["median"] / base if base else float("nan")
        wins = "-" if entry["wins"] is None else f"{entry['wins']}/{pairs}"
        print(f"{name:<{width}} {entry['unit']:<8} {cells[0]:<34} {cells[1]:<34} "
              f"{ratio:>6.3f}  {wins:<11}  {entry['verdict']}")
    for side in SIDES:
        s = summary[side]
        print(f"{side}: {s['correct_runs']}/{pairs} runs correct, "
              f"{s['failed']} of {s['attempted']} operations failed, "
              f"failed runs: {s['failed_runs']['host']} host, "
              f"{s['failed_runs']['program']} program")
        for failed in s["failed_checks"]:
            print(f"  seed {failed['seed']}: {tagged(failed['check'])}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run traced and compare the per-layer metrics")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": ROOT}
        trees["base"].mkdir()
        export(args.base, trees["base"])
        caches = {side: Path(tmp) / f"pycache-{side}" for side in SIDES}
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side] = run_once(
                    trees[side], args.workload, seed, spec["run_seconds"],
                    args.trace, caches[side],
                )
                shown = ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in pair[side]["metrics"].items()
                )
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"correct={pair[side]['correct']} "
                      f"failed={pair[side]['failed']} {shown}", flush=True)
                for check in pair[side].get("checks_failed", []):
                    print(f"  {tagged(check)}", flush=True)
            pairs.append(pair)
    summary = summarize(pairs, spec["per_layer" if args.trace else "end_to_end"])
    summary.update(base_rev=args.base, workload=args.workload, trace=args.trace,
                   seeds=[args.seed, args.seed + args.pairs - 1])
    report(summary)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
