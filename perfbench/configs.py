"""The benchmark's workloads as sim config texts, generated from a seed.

This module imports nothing from cstatesim, so a set-up probe can load it
before it starts its clock.
"""

WORKLOADS = ("sim-steady", "sim-agile-snoop", "sweep-demo")

# sweep-demo: the cross product the round sweeps, and the demo's horizon.
# Low loads come first: they maximise governor decisions per request.
SWEEP_LOADS_QPS = (10_000.0, 20_000.0, 40_000.0, 80_000.0, 120_000.0)
SWEEP_VARIANTS = ("baseline", "no_c6", "agile", "agile_no_c6_no_c1e")
DEMO_DURATION_S = 0.1

_SIM_STEADY = """\
[sim]
cores = 4
duration_s = 1.0
seed = {seed}
dispatch = round_robin
cstates_enabled = C0,C1,C1E,C6

[arrival]
process = poisson
rate_qps = 40000

[service]
dist = exponential
mean_us = 20

[governor]
predictor = clairvoyant
"""

_SIM_AGILE_SNOOP = """\
[sim]
cores = 4
duration_s = 1.0
seed = {seed}
dispatch = pack_lowest_index
cstates_enabled = C0,C6A,C6AE,C6

[arrival]
process = bursty
rate_qps = 40000
burst_on_ms = 1
burst_off_ms = 1

[service]
dist = lognormal
mean_us = 20
sigma = 1

[governor]
predictor = ewma
ewma_alpha = 0.5

[snoop]
rate_per_core_hz = 50000
service_ns = 50
"""

# The variant sections carry the same menus as the CLI's built-in names,
# so the config file is the sweep's only input.
_SWEEP_DEMO = """\
[sim]
cores = 4
duration_s = 0.02
seed = {seed}

[arrival]
rate_qps = 10000

[service]
dist = exponential
mean_us = 20

[variant:baseline]
cstates = C0,C1,C1E,C6

[variant:no_c6]
cstates = C0,C1,C1E

[variant:agile]
cstates = C0,C6A,C6AE,C6

[variant:agile_no_c6_no_c1e]
cstates = C0,C6A
"""

_TEXTS = {
    "sim-steady": _SIM_STEADY,
    "sim-agile-snoop": _SIM_AGILE_SNOOP,
    "sweep-demo": _SWEEP_DEMO,
}


def config_text(workload: str, seed: int) -> str:
    """The INI text of a workload's sim config for one seed."""
    return _TEXTS[workload].format(seed=seed)
