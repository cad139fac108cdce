#!/usr/bin/env python3
"""Summarise paired perfbench runs of two commits as one bench file.

Reads the untraced result copies (`<workload>-seed<N>-trace0.json`) that
`perfbench/run.py` leaves in the `perfbench/out/` directories of two
checkouts, a parent commit and a change, and writes one JSON document.
For each workload and end-to-end metric it holds each side's median and
quartiles over its runs, the relative change of the median, and how
many runs of the change beat the parent's run at the same seed; seeds
where a side failed a round are listed.  The metrics, their units and
which direction is better come from BENCHMARK.json at the root of this
checkout.  scripts/bench_pairs.py makes the runs and calls this summary.

Usage:
    python3 scripts/bench_file.py PARENT_OUT CHANGE_OUT --out BENCH.json \\
        [--note TEXT]
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_NAME = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")


def load_runs(out_dir: Path) -> dict:
    """{workload: {seed: result document}} for every untraced result copy."""
    runs: dict = {}
    for path in sorted(out_dir.iterdir()):
        match = RESULT_NAME.match(path.name)
        if match:
            doc = json.loads(path.read_text())
            runs.setdefault(match["workload"], {})[int(match["seed"])] = doc
    return runs


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method; a lone value is all three)."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


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
        }
    return out


def bench_document(parent: dict, change: dict, note: str) -> dict:
    """The bench file of two sides' runs, each {workload: {seed: result}}.

    Raises ValueError naming the workloads that have no paired run.
    """
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    missing = [w for w in workloads if not set(parent.get(w, ())) & set(change.get(w, ()))]
    if missing:
        raise ValueError(f"no paired runs for {', '.join(missing)}")
    return {
        "note": note,
        "workloads": {
            w: summarise(parent[w], change[w], benchmark["end_to_end"]) for w in workloads
        },
    }


def write_bench_file(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_out", type=Path, help="perfbench/out of the parent")
    parser.add_argument("change_out", type=Path, help="perfbench/out of the change")
    parser.add_argument("--out", type=Path, required=True, help="bench file to write")
    parser.add_argument("--note", default="", help="how the runs were made")
    args = parser.parse_args()

    try:
        doc = bench_document(load_runs(args.parent_out), load_runs(args.change_out), args.note)
    except ValueError as e:
        print(e, file=sys.stderr)
        return 1
    write_bench_file(args.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
