"""Synthetic low-load demo sweep.

Hardware-measured savings figures depend on residency traces collected
from real machines; nothing here reproduces those.  What this demo does
show, on a purely synthetic workload, are the properties the model
family promises:

  * a C1-dominated low-load profile (the regime where an agile deep
    idle state pays off most), swept across increasing load;
  * measured savings of the agile variant over the baseline that are
    monotonically non-increasing in load;
  * savings that stay below the ideal-replacement upper bound computed
    from the baseline run's own residency profile at every point;
  * p99 latency degradation bounded by a couple of percent.

Each load runs at its own sub-seed, derive_subseed(seed, "demo", i),
through the paired runner behind sim.sweep, so every point equals a
stand-alone run at that seed and both variants serve the same draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .catalog import default_catalog
from .model import PerfModel, upper_bound_savings
from .sim import (
    ArrivalSpec,
    GovernorPolicy,
    ServiceSpec,
    SimConfig,
    SimReport,
    SweepPoint,
    VariantSpec,
    _paired_sweep,
    derive_subseed,
    run,  # not called here: perfbench/tracer.py wraps demo.run
)

__all__ = ["DemoPoint", "DemoResult", "demo_sweep", "DEMO_LOADS_QPS", "DEMO_SEED",
           "DEMO_DURATION_S"]

# Utilizations around 5..60 percent for 4 cores at 20 us mean service.
DEMO_LOADS_QPS = (10_000.0, 20_000.0, 40_000.0, 80_000.0, 120_000.0)
DEMO_SEED = 2024
DEMO_DURATION_S = 0.2  # simulated seconds per point
_CORES = 4
_MEAN_US = 20.0
# A moderate scalability keeps the demo representative of cache- and
# memory-bound services rather than worst-case compute.
_PERF = PerfModel(freq_penalty=0.01, scalability=0.5)

BASELINE = VariantSpec("baseline", frozenset({"C0", "C1"}))
AGILE = VariantSpec("agile", frozenset({"C0", "C6A"}))


@dataclass(frozen=True)
class DemoPoint:
    qps: float
    baseline: SimReport
    agile: SimReport
    savings: float            # measured, agile vs baseline
    upper_bound: float        # ideal replacement bound on the baseline profile
    p99_delta: float          # fractional p99 degradation, agile vs baseline


@dataclass(frozen=True)
class DemoResult:
    points: List[DemoPoint]
    pairs: List[SweepPoint]   # baseline then agile at each load

    def sweep_points(self) -> List[SweepPoint]:
        """The plot-table shape (baseline first per load)."""
        return list(self.pairs)


def demo_sweep(
    seed: int = DEMO_SEED,
    loads_qps: Sequence[float] = DEMO_LOADS_QPS,
    duration_s: float = DEMO_DURATION_S,
) -> DemoResult:
    """Run the paired baseline/agile sweep and collect per-load comparisons."""
    catalog = default_catalog()
    configs = [
        SimConfig(
            cores=_CORES,
            duration_s=duration_s,
            seed=derive_subseed(seed, "demo", i),
            arrival=ArrivalSpec(process="poisson", rate_qps=qps),
            service=ServiceSpec(dist="exponential", mean_us=_MEAN_US),
            dispatch="round_robin",
            governor=GovernorPolicy(predictor="clairvoyant"),
        )
        for i, qps in enumerate(loads_qps)
    ]
    pairs = _paired_sweep(configs, (BASELINE, AGILE), catalog, _PERF, jobs=1)
    points = [
        DemoPoint(base.qps, base.report, agile.report, agile.savings_vs_first,
                  upper_bound_savings(base.report.residency, catalog),
                  agile.p99_delta_vs_first)
        for base, agile in zip(pairs[::2], pairs[1::2])
    ]
    return DemoResult(points, pairs)
