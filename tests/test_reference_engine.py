"""run against the independent reference engine (tests/reference_engine.py).

Snoop-free configs of two kinds: those scripts/diff_results.py draws,
with the snoop rate set to 0, and tie-dense ones, where arrivals,
completions, entry ends and the horizon meet on the same nanosecond
(periodic arrivals, fixed service, and catalog latencies, target
residencies and horizons on a whole-microsecond grid).  Snoops are
covered by TestSnoops' per-window reference in test_sim.py.
"""

import dataclasses
import random

from reference_engine import reference_run
from test_scripts import diff_results_module

from cstatesim.catalog import Catalog, default_catalog
from cstatesim.errors import ValidationError
from cstatesim.model import PerfModel
from cstatesim.sim import ArrivalSpec, GovernorPolicy, ServiceSpec, SimConfig, run

CATALOG = default_catalog()
DIFF_RESULTS = diff_results_module()


def drawn_cases(n, seed):
    """(catalog, config, perf) of n diff_results configs, snoops off; a
    config that breaks a contract is left out."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        description = DIFF_RESULTS.random_config(rng)
        description["snoop"]["rate_per_core_hz"] = 0.0
        try:
            catalog, config = DIFF_RESULTS.build(description)
        except ValidationError:
            continue
        cases.append((catalog or CATALOG, config, PerfModel()))
    return cases


def tie_dense_catalog(rng):
    """The default catalog with each idle state's hw entry and exit and
    its target residency redrawn in whole us (within its contracts), and
    on about one in four, each agile state at its donor's power, so that
    equally deep states tie on name."""
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
            cstates[agile] = dataclasses.replace(cstates[agile],
                                                 power_mw=cstates[donor].power_mw)
    return Catalog(cstates)


def tie_dense_cases(n, seed):
    """(catalog, config, perf) of n configs whose times meet on the ns."""
    rng = random.Random(seed)
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
        )
        # No frequency penalty: agile menus serve whole-us times too.
        cases.append((tie_dense_catalog(rng), config, PerfModel(freq_penalty=0.0)))
    return cases


def differences(catalog, config, perf):
    """The outputs where run and the reference engine differ."""
    report = run(config, catalog=catalog, perf=perf, trace=True)
    got = {
        "energy_j": repr(report.energy_j),
        "per_core": [{"residency": p.residency, "transitions": p.transitions}
                     for p in report.per_core],
        "latency_us": dataclasses.astuple(report.latency_us),
        "wakeups_aborted": report.wakeups_aborted,
        "peak_queue": report.peak_queue,
        "requests_offered": report.requests_offered,
        "requests_completed": report.requests_completed,
        "decisions": report.trace.decisions,
        "idle_intervals": report.trace.idle_intervals,
    }
    want = reference_run(config, catalog, perf)
    want["energy_j"] = repr(want["energy_j"])
    return sorted(key for key in want if got[key] != want[key])


def test_run_matches_the_reference_engine():
    cases = drawn_cases(500, seed=35) + tie_dense_cases(500, seed=35)
    assert len(cases) >= 950
    differing = [(config, keys) for catalog, config, perf in cases
                 if (keys := differences(catalog, config, perf))]
    # A count, not the list: pytest would diff a long list of configs.
    count = len(differing)
    assert count == 0, f"{count} configs differ; the first, and where: {differing[0]}"
