#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs; write a bench file.

For each of --pairs seeds, B+1 ... B+N for --seed-base B, and each
workload of BENCHMARK.json, runs the benchmark's command with
`--workload W --seed S --seconds X --trace 0` in the parent checkout and
in the change, back to back, each from the root of its checkout.  The
parent runs first at the first seed, the change at the second, and so
on.  Nothing is compiled beforehand, and the processes inherit this
environment: with PYTHONDONTWRITEBYTECODE=1 every run imports cstatesim
from source, as a fresh checkout does.  A run whose rounds fail a check
(exit 1) still counts as a pair; its seed is printed, and listed in the
bench file.

The bench file is one JSON document.  For each workload and end-to-end
metric it holds each side's median and quartiles over its runs, the
relative change of the median, how many runs of the change beat the
parent's run at the same seed, and a verdict (see verdict()).  The
metrics, their units, their bounds and which direction is better come
from BENCHMARK.json at the root of this checkout.

Usage:
    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --pairs N --seconds S \\
        --seed-base B --out BENCH.json [--note TEXT]

Exit code 0 when the bench file was written, 1 when a root holds no
perfbench/run.py, or a run could not be made or left no result.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


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


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method; a lone value is all three)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def verdict(before: list, after: list, wins: int, lower: bool, bound: float) -> str:
    """How the change's runs read against the parent's, run i of each a pair.

    The first rule that holds:
      "gain": the change wins at least 0.9 of the pairs (wins, ties
        counting for neither), and its median beats the parent's by
        more than the parent's quartile distance;
      "worse": its median is worse than the parent's by more than bound
        times the parent's median (a bound is a fraction);
      "unresolved": the parent's quartile distance exceeds that
        allowance, and not every change run beats every parent run;
      "no_regression".
    """
    sign = 1 if lower else -1  # sign * (parent - change) > 0: the change reads better
    p, c = spread(before), spread(after)
    gained = sign * (p["median"] - c["median"])
    distance, allowance = p["q3"] - p["q1"], bound * abs(p["median"])
    if wins >= 0.9 * len(before) and gained > distance:
        return "gain"
    if -gained > allowance:
        return "worse"
    if distance > allowance and not min(sign * b for b in before) > max(sign * a for a in after):
        return "unresolved"
    return "no_regression"


def summarise(parent: dict, change: dict, metrics: list) -> dict:
    """One workload's parent and change runs, metric by metric."""
    seeds = sorted(set(parent) & set(change))
    out = {
        "seeds": seeds,
        # Seeds with a failed round are kept in the pairs and named here.
        "failed_seeds": {side: [s for s in seeds if runs[s]["failed"]]
                         for side, runs in (("parent", parent), ("change", change))},
        "rounds": {
            side: {"attempted": sum(runs[s]["attempted"] for s in seeds),
                   "failed": sum(runs[s]["failed"] for s in seeds),
                   "all_correct": all(runs[s]["correct"] for s in seeds)}
            for side, runs in (("parent", parent), ("change", change))
        },
        "metrics": {},
    }
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        before = [parent[s]["metrics"][name]["value"] for s in seeds]
        after = [change[s]["metrics"][name]["value"] for s in seeds]
        p, c = spread(before), spread(after)
        wins = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": p,
            "change": c,
            "median_change": c["median"] / p["median"] - 1.0 if p["median"] else None,
            "parent_quartile_distance": p["q3"] - p["q1"],
            "change_wins": wins,
            "pairs": len(seeds),
            "verdict": verdict(before, after, wins, lower, metric["bound"]),
        }
    return out


def bench_document(parent: dict, change: dict, note: str) -> dict:
    """The bench file of two sides' runs, each {workload: {seed: result}}."""
    return {
        "note": note,
        "workloads": {
            w["name"]: summarise(parent[w["name"]], change[w["name"]], BENCHMARK["end_to_end"])
            for w in BENCHMARK["workloads"]
        },
    }


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
    doc = bench_document(results["parent"], results["change"], note)
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
    parent, change = args.parent_root.resolve(), args.change_root.resolve()
    for root in (parent, change):
        if not (root / "perfbench" / "run.py").is_file():
            print(f"{root}: not a checkout, no perfbench/run.py", file=sys.stderr)
            return 1

    try:
        doc = run_pairs(parent, change, args.pairs, args.seconds, args.seed_base, args.note)
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
