"""run against the independent reference engine (tests/reference_engine.py).

The reference is the one place each of run's rules is written a second
time: dispatch (the pack rule included), the backlog and request
counts, state choice, idle-period, abort and snoop accounting, and
every SimReport field but the config.  A new engine rule enters it
there.  tests/test_sim.py checks select_state against its pick_state
and pins the tie rules, the first-name rule and whole-report hashes
with directed tests.

Configs of three kinds: those scripts/diff_results.py draws;
tie-dense ones, where arrivals, completions, entry ends and the horizon
meet on the same nanosecond (periodic arrivals, fixed service, and
catalog latencies, target residencies and horizons on a
whole-microsecond grid), and equally deep states meet on name; and
near-saturated ones on 5 to 12 cores, whose backlogs reach or stop
short of saturated's 8 x cores bound (the other kinds draw at most 4
cores, where the bound of 32 rules).  The first two kinds serve snoops
on some configs.
"""

import ast
import dataclasses
import random
from pathlib import Path

from reference_engine import reference_run
from test_scripts import diff_results_module

from cstatesim.catalog import Catalog, default_catalog
from cstatesim.errors import ValidationError
from cstatesim.model import PerfModel
from cstatesim.sim import ArrivalSpec, GovernorPolicy, ServiceSpec, SimConfig, SnoopSpec, run

CATALOG = default_catalog()
DIFF_RESULTS = diff_results_module()


def drawn_cases(n, seed):
    """(catalog, config, perf) of n diff_results configs; a config that
    breaks a contract is left out."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        try:
            catalog, config = DIFF_RESULTS.build(DIFF_RESULTS.random_config(rng))
        except ValidationError:
            continue
        cases.append((catalog or CATALOG, config, PerfModel()))
    return cases


def tie_dense_catalog(rng):
    """The default catalog with each idle state's hw entry and exit and
    its target residency redrawn in whole us (within its contracts), and
    on about one in four, each agile state at its donor's power and
    target residency, so that equally deep states tie on name."""
    cstates = dict(CATALOG.cstates)
    for name, spec in CATALOG.cstates.items():
        if name == "C0":
            continue
        budget = int(spec.transition_time_us)
        entry_us = rng.randint(0, budget)
        cstates[name] = dataclasses.replace(
            spec, hw_entry_ns=1000 * entry_us,
            hw_exit_ns=1000 * rng.randint(0, budget - entry_us),
            target_residency_us=float(rng.randint(budget, budget + 40)))
    if rng.random() < 0.25:
        for agile, donor in (("C6A", "C1"), ("C6AE", "C1E")):
            cstates[agile] = dataclasses.replace(
                cstates[agile], power_mw=cstates[donor].power_mw,
                target_residency_us=cstates[donor].target_residency_us)
    return Catalog(cstates)


def tie_dense_cases(n, seed):
    """(catalog, config, perf) of n configs whose times meet on the ns;
    about half of them with dense snoops (from a stream of their own),
    so the horizon often falls in a snoop window."""
    rng, snoop_rng = random.Random(seed), random.Random(f"snoop {seed}")
    cases = []
    for _ in range(n):
        cores = rng.randint(1, 3)
        interval_us = rng.randint(2, 12)
        config = SimConfig(
            cores=cores,
            duration_s=rng.randint(10, 300) * 1e-6,
            seed=rng.randrange(2 ** 32),
            arrival=ArrivalSpec("periodic", 1e6 / interval_us),
            service=ServiceSpec("fixed", float(rng.randint(1, cores * interval_us - 1))),
            dispatch=rng.choice(["random", "round_robin", "pack_lowest_index"]),
            governor=GovernorPolicy(rng.choice(["clairvoyant", "ewma", "last_idle"]),
                                    rng.choice([0.25, 0.5, 1.0])),
            cstates_enabled=frozenset(rng.choice(DIFF_RESULTS.MENUS)),
            network_rtt_us=float(rng.choice([0, 0, 3])),
            pack_queue_cap=rng.randint(1, 3),
            snoop=SnoopSpec(snoop_rng.choice([0.0, 10 ** snoop_rng.uniform(5.0, 6.8)]),
                            snoop_rng.randint(0, 100)),
        )
        # No frequency penalty: agile menus serve whole-us times too.
        cases.append((tie_dense_catalog(rng), config, PerfModel(freq_penalty=0.0)))
    return cases


def saturation_cases(n, seed):
    """(catalog, config, perf) of n configs on 5 to 12 cores at 90 to 99 %
    of full load, about 1000 requests each, on an agile menu whose
    frequency penalty of 0 to 10 % can push the load past full; drawn
    from a stream of their own."""
    rng = random.Random(f"saturation {seed}")
    cases = []
    for _ in range(n):
        cores = rng.randint(5, 12)
        mean_us = rng.uniform(5.0, 20.0)
        rate_qps = rng.uniform(0.9, 0.99) * cores * 1e6 / mean_us
        config = SimConfig(
            cores=cores,
            duration_s=1000 / rate_qps,
            seed=rng.randrange(2 ** 32),
            arrival=ArrivalSpec("poisson", rate_qps),
            service=ServiceSpec(rng.choice(["fixed", "exponential"]), mean_us),
            dispatch=rng.choice(["random", "round_robin", "pack_lowest_index"]),
            cstates_enabled=frozenset(rng.choice(DIFF_RESULTS.AGILE_MENUS)),
        )
        cases.append((CATALOG, config, PerfModel(freq_penalty=rng.uniform(0.0, 0.1))))
    return cases


def differences(catalog, config, perf):
    """The outputs where run and the reference engine differ."""
    report = run(config, catalog=catalog, perf=perf, trace=True)
    got = {
        "energy_j": repr(report.energy_j),
        "avg_power_w": repr(report.avg_power_w),
        "per_core": [{"residency": p.residency, "transitions": p.transitions}
                     for p in report.per_core],
        "residency": report.residency.residency,
        "transitions": report.transitions,
        "latency_us": dataclasses.astuple(report.latency_us),
        "wakeups_aborted": report.wakeups_aborted,
        "peak_queue": report.peak_queue,
        "requests_offered": report.requests_offered,
        "requests_completed": report.requests_completed,
        "saturated": report.saturated,
        "snoops_served": report.snoops_served,
        "decisions": report.trace.decisions,
        "idle_intervals": report.trace.idle_intervals,
    }
    want = reference_run(config, catalog, perf)
    want["energy_j"], want["avg_power_w"] = repr(want["energy_j"]), repr(want["avg_power_w"])
    return sorted(key for key in want if got[key] != want[key])


def test_run_matches_the_reference_engine():
    cases = (drawn_cases(500, seed=35) + tie_dense_cases(500, seed=35)
             + saturation_cases(8, seed=35))
    assert len(cases) >= 958
    differing = [(config, keys) for catalog, config, perf in cases
                 if (keys := differences(catalog, config, perf))]
    # A count, not the list: pytest would diff a long list of configs.
    count = len(differing)
    assert count == 0, f"{count} configs differ; the first, and where: {differing[0]}"


def taken_from_sim(source):
    """What source imports from cstatesim.sim: each name, or the module
    itself when it is imported whole."""
    taken = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "cstatesim.sim":
            taken |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "cstatesim":
            taken |= {"cstatesim.sim" for alias in node.names if alias.name == "sim"}
        elif isinstance(node, ast.Import):
            taken |= {"cstatesim.sim" for alias in node.names if alias.name == "cstatesim.sim"}
    return taken


def test_the_reference_takes_only_the_stream_draws_from_sim():
    # Anything more of run's code would be checked against itself.
    source = Path(__file__).with_name("reference_engine.py").read_text()
    assert taken_from_sim(source) <= {"_draw_streams", "derive_subseed", "_rank_index"}
