#!/usr/bin/env python3
"""Compare the simulator of two checkouts on random configs.

Draws N random configs from --seed and runs each of them in
one subprocess per checkout, with cstatesim imported from that
checkout's src/ directory; the two subprocesses run at once.  The
configs cover every arrival process,
dispatch policy, predictor and idle-state menu (all 31), snoops on and
off, a network RTT, a catalog whose C0 power is drawn on about a third
and, independently on about a third, each idle state's hw_entry_ns and
hw_exit_ns scaled by 0.5-1 and its target_residency_us by 1-2 (so every
state contract still holds; these come from a stream of their own,
seeded by the config's seed), pack_queue_cap 1-5, horizons down to
1 ns, and trace=True on about a third.  So the catalogs cross every key
the simulator reads.  About one config in ten runs instead as a
sim.sweep of 2 loads (its rate and a lower one) by 3 menus, two of
which share a service inflation (both agile or both not), so the
second of them replays the service times the first converted.  Each
config expects at most --max-requests requests (default 3000); above the
default, horizons are drawn longer in proportion, so that at 20000
about one config in seven crosses a chunk of 4096 drawn arrivals or
service times.  About one config in twenty is then redrawn so that one
stream's values cross 2**52 ns, where the simulator rounds them to whole
ns without its fast form: Poisson arrivals at 1e-8 to 1e-4 qps (across
the chunked draw's rate bound), snoops at 1e-8 to 1e-6 Hz per core on
an agile menu with such arrivals, or a service mean of 3e12 to 3e15 us
at the drawn utilization.  Its horizon is 1e6 to 1e9 s, it runs traced
and not as a sweep, and it has no other snoops.  For each config it
compares the whole sim_report document, or the sweep document of a
sweep (config, results and provenance, with only the provenance
timestamp dropped), and the SimTrace lists (decisions and
idle_intervals, in order).  A config one side rejects is compared by
its error message.  Every config is compared; when some differ, it
prints the first one's description with its first differing key path
and values, then each key path that differs (list indices as [*]) with
the number of configs where it does.  A key that one side has and the
other lacks differs, even when its value is null; the lacking side's
value prints as <absent>.

Usage:
    python3 scripts/diff_results.py PARENT_SRC CHANGE_SRC [--configs N] [--seed S]
                                    [--max-requests N]

Exit code 0 when every config matched, 1 when one differed, 2 when a
checkout could not be run.
"""

import argparse
import hashlib
import json
import random
import re
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

IDLE_STATES = ("C1", "C1E", "C6", "C6A", "C6AE")
# Every nonempty idle-state menu, C0 added to each.
MENUS = [
    ["C0"] + [s for k, s in enumerate(IDLE_STATES) if mask >> k & 1]
    for mask in range(1, 2 ** len(IDLE_STATES))
]
# A menu with an agile state runs at the service inflation, one without
# it at 1.0.
AGILE_MENUS = [m for m in MENUS if {"C6A", "C6AE"} & set(m)]
PLAIN_MENUS = [m for m in MENUS if m not in AGILE_MENUS]
# Expected requests per run stay below this by default, so a config runs
# in milliseconds.
MAX_REQUESTS = 3000
# The streams whose drawn values a config can take past 2**52 ns.
HUGE_STREAMS = ("arrival", "snoop", "service")


def random_config(rng: random.Random, max_requests: int = MAX_REQUESTS) -> dict:
    """One config as plain data, drawn only from rng."""
    cores = rng.randint(1, 4)
    mean_us = rng.choice([1.0, 5.0, 10.0, 20.0, 50.0]) * rng.uniform(0.5, 1.5)
    util = 0.0 if rng.random() < 0.1 else rng.choice([rng.uniform(0.01, 0.3),
                                                      rng.uniform(0.3, 0.95)])
    rate_qps = util * cores * 1e6 / mean_us
    if rng.random() < 0.1:  # a horizon shorter than most gaps
        duration_s = rng.choice([1e-9, 1e-6, 1e-5])
    else:  # longer as max_requests grows, so more configs reach it
        duration_s = 10 ** rng.uniform(-4.0, -2.0) * max(1.0, max_requests / MAX_REQUESTS)
    if rate_qps * duration_s > max_requests:
        duration_s = max_requests / rate_qps
    snoops_on = rng.random() < 0.5
    seed = rng.randrange(2 ** 64)
    config = {
        "cores": cores,
        "duration_s": duration_s,
        "seed": seed,
        "arrival": {
            "process": rng.choice(["poisson", "periodic", "bursty"]),
            "rate_qps": rate_qps,
            "burst_on_ms": rng.uniform(0.05, 2.0),
            "burst_off_ms": rng.uniform(0.05, 2.0),
        },
        "service": {
            "dist": rng.choice(["fixed", "exponential", "lognormal"]),
            "mean_us": mean_us,
            "sigma": rng.uniform(0.2, 1.5),
        },
        "dispatch": rng.choice(["random", "round_robin", "pack_lowest_index"]),
        "governor": {
            "predictor": rng.choice(["clairvoyant", "ewma", "last_idle"]),
            "ewma_alpha": rng.uniform(0.05, 1.0),
        },
        "cstates_enabled": rng.choice(MENUS),
        "c0_power_w": rng.choice([None, None, rng.uniform(5.0, 12.0)]),
        "latency_scales": random_latency_scales(random.Random(f"latency_scales {seed}")),
        "snoop": {
            "rate_per_core_hz": 10 ** rng.uniform(3.0, 6.5) if snoops_on else 0.0,
            "service_ns": rng.randint(0, 200),
        },
        "network_rtt_us": rng.choice([0.0, rng.uniform(0.0, 50.0)]),
        "pack_queue_cap": rng.randint(1, 5),
        "trace": rng.random() < 1 / 3,
        "sweep": random_sweep(rng, rate_qps) if rng.random() < 0.1 else None,
    }
    cross_2_52_ns(random.Random(f"huge {seed}"), config, max_requests)
    return config


def cross_2_52_ns(rng: random.Random, config: dict, max_requests: int) -> None:
    """On about one config in twenty, redraw it so one stream crosses 2**52 ns.

    Drawn from a stream of its own, so the other configs are as they
    were.  kHz snoops over horizons this long would take hours, and a
    1 ns shift in such a value shows only in a trace.
    """
    if rng.random() >= 0.05:
        return
    stream = rng.choice(HUGE_STREAMS)
    arrival, service, snoop = config["arrival"], config["service"], config["snoop"]
    if stream == "service":
        mean_us = 10 ** rng.uniform(12.5, 15.5)
        arrival["rate_qps"] *= service["mean_us"] / mean_us
        service["mean_us"] = mean_us
    else:  # mean gaps of 1e13 to 1e17 ns
        arrival["rate_qps"] = 10 ** rng.uniform(-8.0, -4.0)
    snoop["rate_per_core_hz"] = 0.0
    if stream == "snoop":
        snoop["rate_per_core_hz"] = 10 ** rng.uniform(-8.0, -6.0)
        config["cstates_enabled"] = rng.choice(AGILE_MENUS)
    arrival["process"] = "poisson"  # a bursty stream this slow is rejected
    config["duration_s"] = 10 ** rng.uniform(6.0, 9.0)
    if arrival["rate_qps"] * config["duration_s"] > max_requests:
        config["duration_s"] = max_requests / arrival["rate_qps"]
    config["trace"], config["sweep"] = True, None


def random_latency_scales(rng: random.Random):
    """None on about two configs in three; else per idle state the scales
    of its hw entry, hw exit and target residency.

    Drawn from a stream of their own, so no other draw depends on them.
    """
    if rng.random() >= 1 / 3:
        return None
    return {name: [rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0), rng.uniform(1.0, 2.0)]
            for name in IDLE_STATES}


def random_sweep(rng: random.Random, rate_qps: float) -> dict:
    """2 loads by 3 menus, the first two sharing a service inflation."""
    shared = rng.choice([AGILE_MENUS, PLAIN_MENUS])
    return {
        "loads_qps": [rate_qps, rate_qps * rng.uniform(0.2, 1.0)],
        "menus": rng.sample(shared, 2) + [rng.choice(MENUS)],
    }


def run_one(description: dict) -> dict:
    """Run one config with the cstatesim on sys.path; plain-data outcome.

    A drawn c0_power_w becomes the [C0] power of the default catalog,
    in whole milliwatts, and drawn latency_scales scale its idle states'
    hw latencies (rounded to whole ns) and target residencies; the
    catalog is then read back through the catalog file reader.  It is
    built with its P1 given, at C0's power, which every checkout accepts.
    """
    from dataclasses import replace

    from cstatesim.catalog import (Catalog, PState, default_catalog, dumps_catalog,
                                   loads_catalog)
    from cstatesim.errors import ParseError, ValidationError
    from cstatesim.reporting import sim_report_document, sweep_document
    from cstatesim.sim import (ArrivalSpec, GovernorPolicy, ServiceSpec, SimConfig,
                               SnoopSpec, VariantSpec, run, sweep)

    kwargs = dict(description)
    trace = kwargs.pop("trace")
    grid = kwargs.pop("sweep")
    c0_power_w = kwargs.pop("c0_power_w")
    scales = kwargs.pop("latency_scales")
    catalog = None
    if c0_power_w is not None or scales is not None:
        cstates = dict(default_catalog().cstates)
        if c0_power_w is not None:
            cstates["C0"] = replace(cstates["C0"], power_mw=round(c0_power_w * 1000))
        for name, (entry, exit_, target) in (scales or {}).items():
            spec = cstates[name]
            cstates[name] = replace(spec, hw_entry_ns=round(spec.hw_entry_ns * entry),
                                    hw_exit_ns=round(spec.hw_exit_ns * exit_),
                                    target_residency_us=spec.target_residency_us * target)
        p1 = PState("P1", cstates["C0"].power_mw)
        catalog = loads_catalog(dumps_catalog(Catalog(cstates, {"P1": p1})))
    try:
        config = SimConfig(
            **{**kwargs,
               "arrival": ArrivalSpec(**kwargs["arrival"]),
               "service": ServiceSpec(**kwargs["service"]),
               "governor": GovernorPolicy(**kwargs["governor"]),
               "snoop": SnoopSpec(**kwargs["snoop"]),
               "cstates_enabled": frozenset(kwargs["cstates_enabled"])})
        if grid:
            variants = [VariantSpec(f"v{k}", frozenset(menu))
                        for k, menu in enumerate(grid["menus"])]
            points = sweep(config, grid["loads_qps"], variants, catalog=catalog)
            document = sweep_document(points, config)
            trace = False
        else:
            report = run(config, catalog=catalog, trace=trace)
            document = sim_report_document(report)
    except (ValidationError, ParseError) as e:
        return {"error": f"{type(e).__name__}: {e}"}
    del document["provenance"]["timestamp"]
    out = {"document": document}
    if trace:
        lists = json.dumps([report.trace.decisions, report.trace.idle_intervals])
        out["trace_sha256"] = hashlib.sha256(lists.encode()).hexdigest()
        out["trace_entries"] = [len(report.trace.decisions), len(report.trace.idle_intervals)]
    return out


def worker(src: str, n: int, seed: int, max_requests: int) -> int:
    """Print one JSON line per config, run with the cstatesim under src."""
    sys.path.insert(0, src)
    rng = random.Random(seed)
    for _ in range(n):
        print(json.dumps(run_one(random_config(rng, max_requests)), sort_keys=True))
    return 0


def outcomes(src: str, n: int, seed: int, max_requests: int) -> list:
    """Every config's outcome under one checkout, from one subprocess."""
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", src, "--configs", str(n), "--seed", str(seed),
         "--max-requests", str(max_requests)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: exit {proc.returncode}\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


class Absent:
    """The value of a key that one document lacks."""

    def __repr__(self):
        return "<absent>"


ABSENT = Absent()


def differences(a, b, path=""):
    """(key path, a's value, b's value) wherever two JSON values differ, in order."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            x, y = a.get(key, ABSENT), b.get(key, ABSENT)
            if x != y:
                yield from differences(x, y, f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            if x != y:
                yield from differences(x, y, f"{path}[{k}]")
    else:
        yield path or ".", a, b


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", nargs="?", help="src/ directory of the parent checkout")
    parser.add_argument("change_src", nargs="?", help="src/ directory of the changed checkout")
    parser.add_argument("--configs", type=int, default=1000, help="random configs (default 1000)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the config draw (default 0)")
    parser.add_argument("--max-requests", type=int, default=MAX_REQUESTS,
                        help=f"most requests a config expects (default {MAX_REQUESTS})")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.max_requests < 1:
        parser.error("--max-requests must be at least 1")
    if args.worker:
        return worker(args.worker, args.configs, args.seed, args.max_requests)
    if not (args.parent_src and args.change_src):
        parser.error("give PARENT_SRC and CHANGE_SRC")

    def checkout_outcomes(src):
        return outcomes(src, args.configs, args.seed, args.max_requests)

    try:
        # Each thread only waits on its subprocess, so both checkouts run
        # at once.
        with ThreadPoolExecutor(max_workers=2) as pool:
            parent, change = pool.map(checkout_outcomes, (args.parent_src, args.change_src))
    except RuntimeError as e:
        print(e, file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    paths, differing = Counter(), 0
    for k, (p, c) in enumerate(zip(parent, change)):
        description = random_config(rng, args.max_requests)
        if p == c:
            continue
        if not differing:
            path, a, b = next(differences(p, c))
            print(f"config {k} differs: {json.dumps(description, sort_keys=True)}")
            print(f"{path}: {a!r} != {b!r}")
        differing += 1
        paths.update({re.sub(r"\[\d+\]", "[*]", path) for path, _, _ in differences(p, c)})
    errors = sum("error" in p for p in parent)
    traced = sum("trace_sha256" in p for p in parent)
    swept = sum(p.get("document", {}).get("kind") == "sweep" for p in parent)
    if differing:
        print(f"{differing} of {len(parent)} configs differ; configs per key path:")
        for path, n in sorted(paths.items(), key=lambda item: (-item[1], item[0])):
            print(f"{n:8d}  {path}")
        return 1
    print(f"{len(parent)} configs matched ({traced} traced, {swept} swept, "
          f"{errors} rejected by both)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
