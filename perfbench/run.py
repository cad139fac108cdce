"""Benchmark of cstatesim: one workload in one serial process.

    python3 perfbench/run.py --workload sim-steady --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; cstatesim is imported from its src/.
The process sets up (import, config parse, catalog), runs one untimed
warm-up round, then repeats whole rounds of the workload on the same
inputs until --seconds have passed.  Every round's outputs are checked
after its clock stops.  Set-up is also timed in fresh interpreters
started between rounds, because an import can be timed once per process.
Each round's host time is rescaled by a reference loop timed right before
it (see reference.py).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones:
half of the time runs untraced, half with every layer wrapped (see
tracer.py), and trace.overhead_s is the difference in wall_s.  The last
line of stdout is one JSON object; a copy with the round times goes to
perfbench/out/.  The exit code is 0 when every check passed, 1 when a
check failed, 2 when the checkout holds no cstatesim to run.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import configs
import setup_probe
from reference import at_reference_speed, reference_s

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
MIN_ROUNDS = 5
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60


class Run:
    """Rounds, checks and set-up probes of one benchmark process."""

    def __init__(self, args, setup):
        import checks
        import workloads

        self.args = args
        self.setup = setup
        self.checks = checks
        self.round_fn = workloads.make_round(args.workload, setup, args.seed)
        self.round_counts = workloads.round_counts
        self.attempted = 0
        self.failures = []        # one list of messages per failed round
        self.digest = None
        self.counts = None
        self.probes = []

    def check(self, out):
        """Check one round; its outputs must equal the first round's."""
        self.attempted += 1
        fails = self.checks.check_round(out, self.setup["catalog"])
        digest = self.checks.round_digest(out)
        counts = self.round_counts(out)
        if self.digest is None:
            self.digest, self.counts = digest, counts
        elif (digest, counts) != (self.digest, self.counts):
            fails.append("outputs differ from the first round's on the same config")
        if fails:
            self.failures.append(fails)

    def probe(self):
        """Time set-up in a fresh interpreter."""
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload",
             self.args.workload, "--seed", str(self.args.seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        self.probes.append(json.loads(done.stdout.splitlines()[-1]))

    def rounds(self, seconds, tracer=None, probe=False):
        """Whole rounds until `seconds` have passed.

        Returns each round's host time and the reference loop's time just
        before it.  With probe set, set-up probes are spread evenly over
        the phase.
        """
        times, refs = [], []
        start = time.perf_counter()
        while True:
            now = time.perf_counter()
            if len(times) >= MIN_ROUNDS and now - start >= seconds:
                break
            if probe and len(self.probes) < SETUP_PROBES and (
                    now - start >= len(self.probes) * seconds / SETUP_PROBES):
                self.probe()
            refs.append(reference_s())
            if tracer is None:
                t0 = time.perf_counter()
                out = self.round_fn()
                times.append(time.perf_counter() - t0)
            else:
                with tracer.installed():
                    t0 = time.perf_counter()
                    out = self.round_fn()
                    times.append(time.perf_counter() - t0)
            self.check(out)
        while probe and len(self.probes) < SETUP_PROBES:
            self.probe()
        return times, refs

    def setup_s(self, key):
        return statistics.median(p[key] for p in self.probes)

    def end_to_end(self):
        times, refs = self.rounds(self.args.seconds, probe=True)
        wall_s = statistics.median(map(at_reference_speed, times, refs))
        metrics = {
            "setup_s": (self.setup_s("setup_s"), "s"),
            "wall_s": (wall_s, "s"),
            "sim_req_per_s": (self.counts["requests"] / wall_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        return metrics, {"round_s": times, "ref_s": refs}

    def per_layer(self):
        from tracer import Tracer

        untraced, untraced_refs = self.rounds(self.args.seconds / 2, probe=True)
        tracer = Tracer()
        traced, traced_refs = self.rounds(self.args.seconds / 2, tracer=tracer)
        overhead_s = (statistics.median(map(at_reference_speed, traced, traced_refs))
                      - statistics.median(map(at_reference_speed, untraced, untraced_refs)))
        n = len(traced)
        calls = {k: v // n if v % n == 0 else v / n for k, v in tracer.calls.items()}
        self_s = {k: v / n / 1e9 for k, v in tracer.self_ns.items()}
        c = self.counts

        def per(num, den):
            return num / den if den else 0.0

        metrics = {
            "sim.run.self_s": (self_s["sim.run"], "s"),
            "sim.run.ns_per_req": (per(self_s["sim.run"] * 1e9, c["requests"]), "ns"),
            "sim.select_state.calls": (calls["sim.select_state"], "count"),
            "sim.select_state.self_s": (self_s["sim.select_state"], "s"),
            "sim.select_state.ns_per_call": (
                per(self_s["sim.select_state"] * 1e9, calls["sim.select_state"]), "ns"),
            "sim.sweep.self_s": (self_s["sim.sweep"], "s"),
            "sim.requests": (c["requests"], "count"),
            "sim.idle_entries": (c["idle_entries"], "count"),
            "sim.wakeups_aborted": (c["wakeups_aborted"], "count"),
            "sim.snoops_served": (c["snoops_served"], "count"),
            "fsm.timeline.calls": (calls["fsm.timeline"], "count"),
            "fsm.timeline.self_s": (self_s["fsm.timeline"], "s"),
            "catalog.default_catalog.calls": (calls["catalog.default_catalog"], "count"),
            "catalog.default_catalog.self_s": (self_s["catalog.default_catalog"], "s"),
            "model.avg_power.self_s": (self_s["model.avg_power"], "s"),
            "model.upper_bound_savings.self_s": (self_s["model.upper_bound_savings"], "s"),
            "reporting.loads_sim_config.self_s": (self_s["reporting.loads_sim_config"], "s"),
            "reporting.sweep_document.self_s": (self_s["reporting.sweep_document"], "s"),
            "reporting.document_to_json.self_s": (self_s["reporting.document_to_json"], "s"),
            "reporting.canonical_hash.self_s": (self_s["reporting.canonical_hash"], "s"),
            "reporting.emit_plot_table.self_s": (self_s["reporting.emit_plot_table"], "s"),
            "reporting.bytes_out": (c["bytes_out"], "bytes"),
            "demo.demo_sweep.self_s": (self_s["demo.demo_sweep"], "s"),
            "setup.import_s": (self.setup_s("import_s"), "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
        return metrics, {"untraced_round_s": untraced, "untraced_ref_s": untraced_refs,
                         "traced_round_s": traced, "traced_ref_s": traced_refs,
                         "calls": tracer.calls, "self_ns": tracer.self_ns}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=configs.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        ap.error("--seed must lie in [0, 2**63)")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        setup = setup_probe.set_up(args.workload, args.seed)
    except setup_probe.SetupError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    bench = Run(args, setup)
    bench.check(bench.round_fn())   # warm-up: untimed, but checked
    metrics, detail = bench.per_layer() if args.trace else bench.end_to_end()

    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as f:
        json.dump(dict(result, setup_probes=bench.probes, **detail), f, indent=1)
    for fails in bench.failures[:3]:
        print("check failed: " + "; ".join(fails[:5]), file=sys.stderr)
    for k, (v, u) in metrics.items():
        print(f"{k:36s} {v:.6g} {u}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
