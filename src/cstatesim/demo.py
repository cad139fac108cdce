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

Both variants at a given load run with the same seed and against the
same arrival and service streams, drawn once per load, so the
comparison is paired: identical arrival and service-time draws, with
only the idle-state menu (and the service-time inflation that comes
with the agile states) differing.  Each load has its own sub-seed,
derive_subseed(seed, "demo", i), and every point equals a stand-alone
run at it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .catalog import Catalog, default_catalog
from .model import TRANSITION_BUCKET, PerfModel, ResidencyProfile, upper_bound_savings
from .sim import (
    ArrivalSpec,
    GovernorPolicy,
    ServiceSpec,
    SimConfig,
    SimReport,
    SweepPoint,
    VariantSpec,
    _draw_streams,
    derive_subseed,
    run,
)

__all__ = ["DemoPoint", "DemoResult", "demo_sweep", "DEMO_LOADS_QPS"]

# Utilizations around 5..60 percent for 4 cores at 20 us mean service.
DEMO_LOADS_QPS = (10_000.0, 20_000.0, 40_000.0, 80_000.0, 120_000.0)

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

    def sweep_points(self) -> List[SweepPoint]:
        """Adapt to the plot-table shape (baseline first per load)."""
        out: List[SweepPoint] = []
        for p in self.points:
            out.append(SweepPoint("baseline", p.qps, p.baseline))
            mean_d = (
                p.agile.latency_us.mean / p.baseline.latency_us.mean - 1.0
                if p.baseline.latency_us.mean > 0 else 0.0
            )
            out.append(
                SweepPoint("agile", p.qps, p.agile, p.savings, mean_d, p.p99_delta)
            )
        return out


def _bound_profile(profile: ResidencyProfile) -> ResidencyProfile:
    """Fold the transition bucket into C0 so the bound's precondition holds.

    Transition time is charged at C0 power anyway, so folding it into C0
    is the faithful reduction to a {C0, C1, C6} profile.
    """
    residency = dict(profile.residency)
    moved = residency.pop(TRANSITION_BUCKET, 0.0)
    residency["C0"] = residency.get("C0", 0.0) + moved
    transitions = {k: v for k, v in profile.transitions.items() if k in residency}
    return ResidencyProfile(profile.duration_s, residency, transitions)


def demo_sweep(
    seed: int = 2024,
    loads_qps: Sequence[float] = DEMO_LOADS_QPS,
    duration_s: float = 0.2,
    cores: int = 4,
    mean_us: float = 20.0,
    catalog: Optional[Catalog] = None,
    perf: Optional[PerfModel] = None,
) -> DemoResult:
    """Run the paired baseline/agile sweep and collect per-load comparisons."""
    if catalog is None:
        catalog = default_catalog()
    if perf is None:
        # A moderate scalability keeps the demo representative of cache-
        # and memory-bound services rather than worst-case compute.
        perf = PerfModel(freq_penalty=0.01, scalability=0.5)

    base = SimConfig(
        cores=cores,
        duration_s=duration_s,
        seed=seed,
        arrival=ArrivalSpec(process="poisson", rate_qps=loads_qps[0]),
        service=ServiceSpec(dist="exponential", mean_us=mean_us),
        dispatch="round_robin",
        governor=GovernorPolicy(predictor="clairvoyant"),
    )

    points: List[DemoPoint] = []
    for i, qps in enumerate(loads_qps):
        # One sub-seed and one draw of the streams per load, shared by
        # both variants: the comparison at each load is paired.
        point_seed = derive_subseed(seed, "demo", i)
        cfg = replace(base, seed=point_seed, arrival=replace(base.arrival, rate_qps=qps))
        streams = _draw_streams(cfg)
        rep_base = run(replace(cfg, cstates_enabled=BASELINE.cstates),
                       catalog=catalog, perf=perf, streams=streams)
        rep_agile = run(replace(cfg, cstates_enabled=AGILE.cstates),
                        catalog=catalog, perf=perf, streams=streams)
        savings = 1.0 - rep_agile.avg_power_w / rep_base.avg_power_w
        bound = upper_bound_savings(_bound_profile(rep_base.residency), catalog)
        p99_delta = (
            rep_agile.latency_us.p99 / rep_base.latency_us.p99 - 1.0
            if rep_base.latency_us.p99 > 0 else 0.0
        )
        points.append(DemoPoint(qps, rep_base, rep_agile, savings, bound, p99_delta))
    return DemoResult(points)
