#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs; write a bench file.

For each of --pairs seeds, B+1 ... B+N for --seed-base B, and each
workload of BENCHMARK.json, runs the benchmark's command with
`--workload W --seed S --seconds X --trace 0` in the parent checkout and
in the change, back to back, each from the root of its checkout.  The
parent runs first at the first seed, the change at the second, and so
on.  Nothing is compiled beforehand, and the processes inherit this
environment: with PYTHONDONTWRITEBYTECODE=1 every run imports cstatesim
from source, as a fresh checkout does.  The result copies the runs leave
in each checkout's perfbench/out/ are then summarised by bench_file.py
into one bench file.  A run whose rounds fail a check (exit 1) still
counts as a pair; its seed is printed, and listed in the bench file.

Usage:
    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --pairs N --seconds S \\
        --seed-base B --out BENCH.json [--note TEXT]

Exit code 0 when the bench file was written, 1 when a run could not be
made or left no result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import bench_file

BENCHMARK = json.loads((bench_file.ROOT / "BENCHMARK.json").read_text())


def plan(parent: Path, change: Path, pairs: int, seconds: float, seed_base: int) -> list:
    """(side, checkout root, workload, seed, command) of every run, in run order."""
    runs = []
    for k in range(pairs):
        seed = seed_base + 1 + k
        sides = [("parent", parent), ("change", change)]
        if k % 2:
            sides.reverse()
        for workload in BENCHMARK["workloads"]:
            name = workload["name"]
            command = BENCHMARK["command"] + [
                "--workload", name, "--seed", str(seed), "--seconds", f"{seconds:g}",
                "--trace", "0"]
            runs += [(side, root, name, seed, command) for side, root in sides]
    return runs


def run_command(command: list, cwd: Path) -> int:
    """Run one benchmark process; its metric lines are not needed."""
    return subprocess.run(command, cwd=cwd, stdout=subprocess.DEVNULL).returncode


def run_pairs(parent: Path, change: Path, pairs: int, seconds: float, seed_base: int,
              note: str, runner=run_command) -> dict:
    """Make every run of plan() with runner(command, cwd) -> exit code; the bench file.

    Raises RuntimeError when a run exits with neither 0 nor 1, or leaves
    no result copy.
    """
    results = {"parent": {}, "change": {}}
    todo = plan(parent, change, pairs, seconds, seed_base)
    for n, (side, root, workload, seed, command) in enumerate(todo, 1):
        # A copy left by an earlier run must not stand in for this one.
        result = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
        result.unlink(missing_ok=True)
        code = runner(command, root)
        print(f"[{n}/{len(todo)}] {side} {workload} seed {seed}: exit {code}", file=sys.stderr)
        if code not in (0, 1) or not result.is_file():
            raise RuntimeError(f"{side} {workload} seed {seed}: exit {code}, no result in {result}")
        results[side].setdefault(workload, {})[seed] = json.loads(result.read_text())
    doc = bench_file.bench_document(results["parent"], results["change"], note)
    for workload, summary in doc["workloads"].items():
        failed = summary["failed_seeds"]
        for seed in sorted(set(failed["parent"]) | set(failed["change"])):
            sides = " and ".join(side for side in ("parent", "change") if seed in failed[side])
            print(f"{workload} seed {seed}: a round failed on {sides}", file=sys.stderr)
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path, help="root of the parent checkout")
    parser.add_argument("change_root", type=Path, help="root of the changed checkout")
    parser.add_argument("--pairs", type=int, required=True, help="seeds, one pair per workload each")
    parser.add_argument("--seconds", type=float, required=True, help="--seconds of every run")
    parser.add_argument("--seed-base", type=int, required=True, help="the seeds are B+1 ... B+N")
    parser.add_argument("--out", type=Path, required=True, help="bench file to write")
    parser.add_argument("--note", default="", help="how the runs were made")
    args = parser.parse_args()
    if args.pairs < 1 or not args.seconds > 0 or args.seed_base < 0:
        parser.error("--pairs must be at least 1, --seconds positive, --seed-base nonnegative")

    try:
        doc = run_pairs(args.parent_root.resolve(), args.change_root.resolve(), args.pairs,
                        args.seconds, args.seed_base, args.note)
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 1
    bench_file.write_bench_file(args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
