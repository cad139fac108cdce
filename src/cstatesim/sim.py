"""Deterministic discrete-event simulator for per-core idle-state behavior.

A fixed number of cores serve a stream of requests.  Whenever a core's
queue drains, a governor predicts the upcoming idle duration and drops
the core into the deepest enabled idle state whose target residency
fits the prediction (falling back to the shallowest idle state).  Every
entry and exit pays that state's hardware latency, charged at active
power in a distinguished "transition" residency bucket.  Snoops hitting
a core resident in an agile deep idle state (C6A/C6AE) briefly wake the
caches without leaving the state.

Each core is a state machine (serving, idle-pending, entering,
resident, exiting) with at most one pending event.  Cores interact only
through dispatch, so the arrival stream drives the run: before each
arrival, every core replays its own events that sort before it.  Snoops
never move a core out of its state, so they are drawn lazily: when a
resident agile interval ends, the core's own Poisson snoop stream is
drawn across it, which is exact by memorylessness.

Determinism is a hard guarantee: virtual time is integer nanoseconds;
ties break on one integer key per event, time << 2 | priority (phase
events before an arrival at the same time, governor decisions after
it); and all randomness flows from named streams derived from the
config seed, one snoop stream per core.  Running the same config twice
produces byte-identical reports.

Energy is integrated exactly: every segment contributes integer
milliwatts times integer nanoseconds (picojoules), so the sum over the
residency buckets reproduces the reported energy with no rounding slop.

Scope notes: request service is single-threaded per core and FIFO; the
network is at most a constant RTT added to reported latency; snoops are
an exogenous Poisson process; thermal behavior is not modeled (turbo is
just an alternate active power level).
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from . import fsm
from .catalog import AGILE_STATES, Catalog, default_catalog
from .errors import ValidationError
from .model import TRANSITION_BUCKET, PerfModel, ResidencyProfile

__all__ = [
    "ArrivalSpec",
    "ServiceSpec",
    "SnoopSpec",
    "GovernorPolicy",
    "SimConfig",
    "LatencyStats",
    "SimReport",
    "VariantSpec",
    "SweepPoint",
    "run",
    "sweep",
    "select_state",
    "derive_subseed",
    "percentile_us",
]

_ARRIVAL_PROCESSES = ("poisson", "periodic", "bursty")
_SERVICE_DISTS = ("fixed", "exponential", "lognormal")
_DISPATCH_POLICIES = ("random", "round_robin", "pack_lowest_index")
_PREDICTORS = ("clairvoyant", "ewma", "last_idle")

# Which shallow state's power the caches draw while serving a snoop from
# an agile deep idle state (the cache subsystem is awake exactly as in
# that state).
_SNOOP_POWER_TWIN = {"C6A": "C1", "C6AE": "C1E"}


def _require_finite(spec) -> None:
    """Reject a NaN or infinite float in any field (integers are always finite)."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ArrivalSpec:
    """Request arrival process.

    rate_qps is the long-run average rate (0 means no arrivals at all).
    The bursty process is an on/off modulated Poisson stream with
    exponentially distributed on/off phases (means in milliseconds); the
    on-phase rate is scaled up so the long-run average stays rate_qps.
    """

    process: str = "poisson"
    rate_qps: float = 0.0
    burst_on_ms: float = 1.0
    burst_off_ms: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        if self.process not in _ARRIVAL_PROCESSES:
            raise ValidationError(f"arrival process must be one of {_ARRIVAL_PROCESSES}")
        if self.rate_qps < 0:
            raise ValidationError("rate_qps must be nonnegative")
        if self.process == "bursty" and (self.burst_on_ms <= 0 or self.burst_off_ms <= 0):
            raise ValidationError("burst on/off means must be positive")


@dataclass(frozen=True)
class ServiceSpec:
    """Per-request service time distribution (mean in microseconds)."""

    dist: str = "exponential"
    mean_us: float = 10.0
    sigma: float = 0.5  # lognormal shape parameter

    def __post_init__(self):
        _require_finite(self)
        if self.dist not in _SERVICE_DISTS:
            raise ValidationError(f"service dist must be one of {_SERVICE_DISTS}")
        if self.mean_us <= 0:
            raise ValidationError("mean_us must be positive")
        if self.dist == "lognormal" and self.sigma <= 0:
            raise ValidationError("lognormal sigma must be positive")


@dataclass(frozen=True)
class SnoopSpec:
    """Exogenous per-core snoop traffic and its service window."""

    rate_per_core_hz: float = 0.0
    service_ns: int = 50

    def __post_init__(self):
        _require_finite(self)
        if self.rate_per_core_hz < 0:
            raise ValidationError("snoop rate must be nonnegative")
        if self.service_ns < 0:
            raise ValidationError("snoop service_ns must be nonnegative")


@dataclass(frozen=True)
class GovernorPolicy:
    """Idle-duration predictor feeding state selection.

    clairvoyant reads the time of the next arrival (an oracle); ewma
    smooths observed idle durations with weight ewma_alpha on the newest
    one; last_idle repeats the previous idle duration.
    """

    predictor: str = "clairvoyant"
    ewma_alpha: float = 0.5

    def __post_init__(self):
        if self.predictor not in _PREDICTORS:
            raise ValidationError(f"predictor must be one of {_PREDICTORS}")
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise ValidationError("ewma_alpha must be in (0, 1]")


@dataclass(frozen=True)
class SimConfig:
    cores: int
    duration_s: float
    seed: int
    arrival: ArrivalSpec
    service: ServiceSpec = ServiceSpec()
    dispatch: str = "round_robin"
    governor: GovernorPolicy = GovernorPolicy()
    cstates_enabled: frozenset = frozenset({"C0", "C1", "C1E", "C6"})
    turbo_c0_power_w: Optional[float] = None
    snoop: SnoopSpec = SnoopSpec()
    network_rtt_us: float = 0.0
    pack_queue_cap: int = 4  # pack_lowest_index spills past this queue depth

    def __post_init__(self):
        _require_finite(self)
        if self.cores < 1:
            raise ValidationError("cores must be >= 1")
        # The run's horizon is duration_s in whole nanoseconds.
        if not (round(self.duration_s * 1e9) >= 1):
            raise ValidationError("duration_s must be at least 1 ns")
        if not (0 <= self.seed < 2 ** 64):
            raise ValidationError("seed must be a 64-bit nonnegative integer")
        if self.dispatch not in _DISPATCH_POLICIES:
            raise ValidationError(f"dispatch must be one of {_DISPATCH_POLICIES}")
        enabled = frozenset(self.cstates_enabled)
        object.__setattr__(self, "cstates_enabled", enabled)
        if "C0" not in enabled:
            raise ValidationError("cstates_enabled must contain C0")
        if not (enabled - {"C0"}):
            raise ValidationError("cstates_enabled needs at least one idle state")
        util = self.arrival.rate_qps * self.service.mean_us * 1e-6 / self.cores
        if util >= 1.0:
            raise ValidationError(
                f"offered per-core utilization {util:.3f} is not below 1"
            )
        if self.network_rtt_us < 0:
            raise ValidationError("network_rtt_us must be nonnegative")
        if self.turbo_c0_power_w is not None and self.turbo_c0_power_w <= 0:
            raise ValidationError("turbo_c0_power_w must be positive")
        if self.pack_queue_cap < 1:
            raise ValidationError("pack_queue_cap must be >= 1")

    def validate_against(self, catalog: Catalog) -> None:
        for name in sorted(self.cstates_enabled):
            catalog[name]  # raises on unknown states


@dataclass(frozen=True)
class LatencyStats:
    """Request latency summary in microseconds (zeros when no requests)."""

    mean: float = 0.0
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0
    p999: float = 0.0


@dataclass(frozen=True)
class SimTrace:
    """Optional per-run diagnostics for property checks (entries are in
    time order per core, not across cores)."""

    idle_intervals: List[Tuple[str, int]]     # (state, observed idle ns)
    decisions: List[Tuple[int, str]]          # (core, state)


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    seed: int
    energy_j: float
    avg_power_w: float
    residency: ResidencyProfile               # aggregated across cores
    per_core: List[ResidencyProfile]
    latency_us: LatencyStats
    transitions: Dict[str, int]
    wakeups_aborted: int
    snoops_served: int
    requests_offered: int
    requests_completed: int
    saturated: bool
    peak_queue: int
    trace: Optional[SimTrace] = None


def percentile_us(sorted_ns: Sequence[int], pct: float) -> float:
    """Nearest-rank percentile of a sorted latency list, in microseconds."""
    if not sorted_ns:
        return 0.0
    rank = math.ceil(pct / 100.0 * len(sorted_ns))
    return sorted_ns[max(0, rank - 1)] / 1000.0


def derive_subseed(seed: int, *parts) -> int:
    """Stable 63-bit sub-seed for a named stream or sweep point."""
    text = repr((seed,) + parts).encode()
    digest = hashlib.sha256(text).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _depth(spec) -> Tuple[float, int]:
    """Idle-state depth: target residency, ties toward lower power."""
    return (spec.target_residency_us, -spec.power_mw)


def _state_picker(enabled: frozenset, catalog: Catalog):
    """Governor state selection as a threshold table, built once per menu.

    Sorted by depth (stably over names), the states that fit a prediction
    form a prefix, so one bisect counts them; picks[k] is the choice when
    k states fit, picks[0] the shallowest state as the fallback.  Equal
    depths resolve to the first name, as max() and min() over names do.
    Returns pick(predicted_us) -> state name.
    """
    # Sorted names for cross-process determinism: set iteration order
    # depends on hash randomization.
    states = sorted((catalog[name] for name in sorted(enabled) if name != "C0"), key=_depth)
    if not states:
        raise ValidationError("no idle states enabled")
    first: Dict[Tuple[float, int], str] = {}
    for s in states:
        first.setdefault(_depth(s), s.name)
    thresholds = [s.target_residency_us for s in states]
    picks = [states[0].name] + [first[_depth(s)] for s in states]

    def pick(predicted_us: float) -> str:
        # A NaN prediction fits nothing, like one below every target.
        if not predicted_us >= thresholds[0]:
            return picks[0]
        return picks[bisect_right(thresholds, predicted_us)]
    return pick


def select_state(
    governor: GovernorPolicy,
    predicted_idle_us: float,
    enabled: frozenset,
    catalog: Catalog,
):
    """Deepest enabled idle state whose target residency fits the prediction.

    Depth orders by target residency, breaking ties toward lower power
    (so C6A is deeper than C1 even though they share a latency class).
    Falls back to the shallowest enabled idle state when nothing fits.
    """
    return catalog[_state_picker(enabled, catalog)(predicted_idle_us)]


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------

class _Arrivals:
    """Generates absolute arrival timestamps (integer ns), one ahead."""

    def __init__(self, spec: ArrivalSpec, rng: random.Random):
        self.spec = spec
        self.rng = rng
        self.t = 0
        if spec.process == "bursty" and spec.rate_qps > 0:
            on_s = spec.burst_on_ms * 1e-3
            off_s = spec.burst_off_ms * 1e-3
            # Scale the on-phase rate so the long-run average is rate_qps.
            self.on_rate = spec.rate_qps * (on_s + off_s) / on_s
            self.on_mean_s = on_s
            self.off_mean_s = off_s
            self.on_end = self.t + max(1, round(rng.expovariate(1.0 / on_s) * 1e9))
        elif spec.process == "periodic" and spec.rate_qps > 0:
            self.interval_ns = max(1, round(1e9 / spec.rate_qps))

    def next(self) -> Optional[int]:
        spec = self.spec
        if spec.rate_qps <= 0:
            return None
        if spec.process == "periodic":
            self.t += self.interval_ns
            return self.t
        if spec.process == "poisson":
            gap = self.rng.expovariate(spec.rate_qps)
            self.t += max(1, round(gap * 1e9))
            return self.t
        # bursty
        while True:
            gap = self.rng.expovariate(self.on_rate)
            cand = self.t + max(1, round(gap * 1e9))
            if cand <= self.on_end:
                self.t = cand
                return cand
            self.t = self.on_end
            off = max(1, round(self.rng.expovariate(1.0 / self.off_mean_s) * 1e9))
            on = max(1, round(self.rng.expovariate(1.0 / self.on_mean_s) * 1e9))
            self.t += off
            self.on_end = self.t + on


class _Service:
    """Per-request service time draws in integer ns, optionally inflated."""

    def __init__(self, spec: ServiceSpec, rng: random.Random, inflation: float):
        self.spec = spec
        self.rng = rng
        self.inflation = inflation
        if spec.dist == "lognormal":
            # Choose mu so the distribution mean equals mean_us.
            self.mu = math.log(spec.mean_us * 1e-6) - spec.sigma ** 2 / 2.0

    def next_ns(self) -> int:
        spec = self.spec
        if spec.dist == "fixed":
            s = spec.mean_us * 1e-6
        elif spec.dist == "exponential":
            s = self.rng.expovariate(1.0 / (spec.mean_us * 1e-6))
        else:
            s = self.rng.lognormvariate(self.mu, spec.sigma)
        return max(1, round(s * self.inflation * 1e9))


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

# Core phases.  The phase fixes a core's one pending event: a completion
# while serving, a governor decision while idle-pending, entry-done while
# entering (or aborting: an arrival landed mid-entry), exit-done while
# exiting.  A resident core waits for an arrival and holds no event.
_PH_SERVING = 0
_PH_IDLE_PENDING = 1
_PH_ENTERING = 2
_PH_ABORTING = 3
_PH_RESIDENT = 4
_PH_EXITING = 5

# Event keys are (time << 2 | priority): phase events (completion, entry
# done, exit done; priority 0) sort before an arrival at the same time,
# and governor decisions after it, so an arrival landing exactly when a
# queue drains is served before the governor can put the core to sleep.
_PRIO_ARRIVAL = 1
_PRIO_GOVERNOR = 2


class _Core:
    __slots__ = (
        "idx", "phase", "key", "state", "queue",
        "idle_start", "res_start", "pred_us",
        "seg_since", "seg_power", "seg_bucket", "buckets", "entries",
        "energy_pj", "snoop_clear_ns",
    )

    def __init__(self, idx: int, bucket_names):
        self.idx = idx
        self.phase = _PH_IDLE_PENDING
        self.key = _PRIO_GOVERNOR  # every core decides at t = 0
        self.state = None
        self.queue = deque()  # FIFO of (arrival_ns, service_ns); index 0 serves
        self.idle_start = 0
        self.res_start = 0
        self.pred_us = 0.0
        self.seg_since = 0
        self.seg_power = 0
        self.seg_bucket = "C0"
        self.buckets = {name: 0 for name in bucket_names}
        self.entries = {name: 0 for name in bucket_names if name != TRANSITION_BUCKET}
        self.energy_pj = 0
        self.snoop_clear_ns = 0

    def switch_segment(self, t: int, bucket: str, power_mw: int) -> None:
        span = t - self.seg_since
        if span:
            self.buckets[self.seg_bucket] += span
            self.energy_pj += self.seg_power * span
        self.seg_since = t
        self.seg_bucket = bucket
        self.seg_power = power_mw


def run(
    config: SimConfig,
    catalog: Optional[Catalog] = None,
    perf: Optional[PerfModel] = None,
    trace: bool = False,
) -> SimReport:
    """Simulate one configuration and summarize it.

    perf only matters when an agile deep idle state is enabled: then
    every service time is divided by (1 - freq_penalty * scalability).
    """
    if catalog is None:
        catalog = default_catalog()
    if perf is None:
        perf = PerfModel()
    config.validate_against(catalog)

    enabled = sorted(config.cstates_enabled)
    agile_on = bool(config.cstates_enabled & AGILE_STATES)
    inflation = perf.service_inflation if agile_on else 1.0

    # Active (C0) power: the turbo override, when set, applies to every
    # powered-and-stalled segment as well as actual service.
    if config.turbo_c0_power_w is not None:
        active_mw = round(config.turbo_c0_power_w * 1000)
    else:
        active_mw = catalog["C0"].power_mw
    state_mw = {name: catalog[name].power_mw for name in enabled}
    pick_state = _state_picker(config.cstates_enabled, catalog)

    # Entry/exit latencies: controller flow totals for the agile states,
    # catalog hardware figures for everything else.
    entry_ns: Dict[str, int] = {}
    exit_ns: Dict[str, int] = {}
    for name in enabled:
        if name == "C0":
            continue
        if name in AGILE_STATES:
            entry_ns[name] = fsm.entry_timeline(name).total_ns
            exit_ns[name] = fsm.exit_timeline(name).total_ns
        else:
            entry_ns[name] = catalog[name].hw_entry_ns
            exit_ns[name] = catalog[name].hw_exit_ns

    # Snoop window: cache wake + service + re-entry, charged at the
    # power of the state's shallow twin (its cache subsystem is awake
    # exactly as in that state) instead of the resident state's power.
    # Only states in these tables are snooped.
    snoop_rate = config.snoop.rate_per_core_hz
    snoop_window_ns: Dict[str, int] = {}
    snoop_delta_mw: Dict[str, int] = {}
    for name in AGILE_STATES & config.cstates_enabled if snoop_rate > 0 else ():
        flow = fsm.snoop_timeline(name, service_ns=config.snoop.service_ns)
        snoop_window_ns[name] = flow.total_ns + config.snoop.service_ns
        twin = catalog[_SNOOP_POWER_TWIN[name]].power_mw
        snoop_delta_mw[name] = max(0, twin - catalog[name].power_mw)

    def stream(*name) -> random.Random:
        return random.Random(derive_subseed(config.seed, *name))

    arrivals = _Arrivals(config.arrival, stream("arrival"))
    service = _Service(config.service, stream("service"), inflation)
    rng_dispatch = stream("dispatch")
    snoop_rngs = [stream("snoop", i) for i in range(config.cores)] if snoop_window_ns else []

    t_end = round(config.duration_s * 1e9)
    never = t_end << 2  # no event at or past the horizon is applied
    bucket_names = enabled + [TRANSITION_BUCKET]
    cores = [_Core(i, bucket_names) for i in range(config.cores)]

    latencies_ns: List[int] = []
    rtt_ns = round(config.network_rtt_us * 1000)
    rr_next = offered = completed = wakeups_aborted = snoops_served = 0
    in_system = peak_queue = 0
    dispatch = config.dispatch
    pack_cap = config.pack_queue_cap
    predictor = config.governor.predictor
    clairvoyant = predictor == "clairvoyant"
    alpha = config.governor.ewma_alpha
    idle_intervals: List[Tuple[str, int]] = []
    decisions: List[Tuple[int, str]] = []

    def advance(core: _Core, bound: int, next_arrival) -> None:
        """Apply the core's events whose keys sort before bound, in order."""
        nonlocal completed, in_system
        key = core.key
        while key < bound:
            t = key >> 2
            phase = core.phase
            if phase == _PH_SERVING:  # completion
                arrival_ns, _service_ns = core.queue.popleft()
                in_system -= 1
                completed += 1
                latencies_ns.append(t - arrival_ns + rtt_ns)
                if core.queue:
                    key = (t + core.queue[0][1]) << 2
                else:
                    core.phase = _PH_IDLE_PENDING
                    key = t << 2 | _PRIO_GOVERNOR
            elif phase == _PH_IDLE_PENDING:  # governor decision
                if clairvoyant:
                    # The oracle reads the next arrival, which is strictly
                    # later than t: same-time arrivals sort first.
                    predicted_us = (next_arrival - t) / 1000.0
                else:
                    predicted_us = core.pred_us
                state = pick_state(predicted_us)
                if trace:
                    decisions.append((core.idx, state))
                core.state = state
                core.entries[state] += 1
                core.phase = _PH_ENTERING
                core.idle_start = t
                core.switch_segment(t, TRANSITION_BUCKET, active_mw)
                key = (t + entry_ns[state]) << 2
            elif phase == _PH_ENTERING:  # entry done
                core.phase = _PH_RESIDENT
                core.res_start = t
                core.switch_segment(t, core.state, state_mw[core.state])
                key = never
            elif phase == _PH_ABORTING:  # entry done: exit, still in transition
                core.phase = _PH_EXITING
                key = (t + exit_ns[core.state]) << 2
            else:  # exit done; an exit only follows an arrival, so work is queued
                core.entries["C0"] += 1
                core.switch_segment(t, "C0", active_mw)
                core.phase = _PH_SERVING
                key = (t + core.queue[0][1]) << 2
        core.key = key

    def serve_snoops(core: _Core, t_stop: int) -> None:
        """Draw and charge the core's snoops in [res_start, t_stop).

        Windows clip at the horizon and do not double-charge when they
        overlap.
        """
        nonlocal snoops_served
        rng = snoop_rngs[core.idx]
        window = snoop_window_ns[core.state]
        delta_mw = snoop_delta_mw[core.state]
        ts = core.res_start
        while True:
            # Compare before rounding: at very low rates the raw
            # nanosecond value can overflow round().
            gap_ns = rng.expovariate(snoop_rate) * 1e9
            if not gap_ns < t_stop - ts:
                return
            ts += max(1, round(gap_ns))
            if ts >= t_stop:
                return
            start = max(ts, core.snoop_clear_ns)
            end = min(ts + window, t_end)
            if end > start:
                core.energy_pj += delta_mw * (end - start)
                core.snoop_clear_ns = end
            snoops_served += 1

    def observe_idle(core: _Core, t: int) -> None:
        """Feed the predictor when an arrival ends an idle period."""
        obs_ns = t - core.idle_start
        if trace:
            idle_intervals.append((core.state, obs_ns))
        obs_us = obs_ns / 1000.0
        if predictor == "ewma":
            core.pred_us = alpha * obs_us + (1.0 - alpha) * core.pred_us
        elif predictor == "last_idle":
            core.pred_us = obs_us

    # Before each arrival (times strictly increase), every core replays
    # its own events that sort before it; then the arrival is dispatched.
    t = arrivals.next() or math.inf  # None: no arrivals at all
    while t < t_end:
        bound = t << 2 | _PRIO_ARRIVAL
        for core in cores:
            if core.key < bound:
                advance(core, bound, t)

        offered += 1
        service_ns = service.next_ns()
        if dispatch == "round_robin":
            core = cores[rr_next]
            rr_next = (rr_next + 1) % len(cores)
        elif dispatch == "random":
            core = cores[rng_dispatch.randrange(len(cores))]
        else:
            # pack_lowest_index: fill the lowest-indexed core up to the
            # cap, then spill; when everything is at the cap, least
            # loaded wins (lowest index among ties).
            for core in cores:
                if len(core.queue) < pack_cap:
                    break
            else:
                core = min(cores, key=lambda c: len(c.queue))
        core.queue.append((t, service_ns))
        in_system += 1
        if in_system > peak_queue:
            peak_queue = in_system
        phase = core.phase
        if phase == _PH_IDLE_PENDING:  # the pending decision is dropped
            core.phase = _PH_SERVING
            core.key = (t + service_ns) << 2
        elif phase == _PH_RESIDENT:
            observe_idle(core, t)
            if core.state in snoop_window_ns:
                serve_snoops(core, t)
            core.phase = _PH_EXITING
            core.switch_segment(t, TRANSITION_BUCKET, active_mw)
            core.key = (t + exit_ns[core.state]) << 2
        elif phase == _PH_ENTERING:
            wakeups_aborted += 1
            core.phase = _PH_ABORTING
            observe_idle(core, t)
        elif phase == _PH_ABORTING:
            wakeups_aborted += 1
        # serving or already exiting: the queue entry is enough
        t = arrivals.next()

    # The horizon: replay what is left before it, charge the snoops of
    # the cores still resident, and close every core's open segment.
    for core in cores:
        advance(core, never, t)
        if core.phase == _PH_RESIDENT and core.state in snoop_window_ns:
            serve_snoops(core, t_end)
        core.switch_segment(t_end, core.seg_bucket, core.seg_power)

    energy_pj = sum(core.energy_pj for core in cores)
    energy_j = energy_pj * 1e-12
    # Average over the realized horizon (t_end is duration_s rounded to
    # whole nanoseconds) so energy, power, and residency stay one
    # consistent account even when the requested duration is not.
    horizon_s = t_end * 1e-9
    avg_power_w = energy_j / (horizon_s * config.cores)

    per_core = [
        ResidencyProfile(
            duration_s=horizon_s,
            residency={name: core.buckets[name] / t_end for name in bucket_names},
            transitions=dict(core.entries),
        )
        for core in cores
    ]
    agg_residency = {
        name: sum(core.buckets[name] for core in cores) / (t_end * config.cores)
        for name in bucket_names
    }
    agg_transitions = {
        name: sum(core.entries[name] for core in cores)
        for name in bucket_names
        if name != TRANSITION_BUCKET
    }
    aggregated = ResidencyProfile(
        duration_s=horizon_s,
        residency=agg_residency,
        transitions=agg_transitions,
    )

    latencies_ns.sort()
    stats = LatencyStats()
    if latencies_ns:
        stats = LatencyStats(sum(latencies_ns) / len(latencies_ns) / 1000.0, *(
            percentile_us(latencies_ns, pct) for pct in (50.0, 95.0, 99.0, 99.9)))

    # High-water-mark saturation heuristic: the backlog grew well past
    # anything a stable queue produces and never drained.
    saturated = peak_queue >= max(32, 8 * config.cores) and in_system >= peak_queue / 2

    return SimReport(
        config=config,
        seed=config.seed,
        energy_j=energy_j,
        avg_power_w=avg_power_w,
        residency=aggregated,
        per_core=per_core,
        latency_us=stats,
        transitions=agg_transitions,
        wakeups_aborted=wakeups_aborted,
        snoops_served=snoops_served,
        requests_offered=offered,
        requests_completed=completed,
        saturated=saturated,
        peak_queue=peak_queue,
        trace=SimTrace(idle_intervals, decisions) if trace else None,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariantSpec:
    """A named idle-state configuration to sweep."""

    name: str
    cstates: frozenset
    turbo_c0_power_w: Optional[float] = None


@dataclass(frozen=True)
class SweepPoint:
    """One (load, variant) result with deltas against the first variant."""

    variant: str
    qps: float
    report: SimReport
    savings_vs_first: float = 0.0
    mean_delta_vs_first: float = 0.0
    p99_delta_vs_first: float = 0.0


def _point_config(base: SimConfig, qps: float, variant: VariantSpec,
                  load_idx: int) -> SimConfig:
    return replace(
        base,
        seed=derive_subseed(base.seed, load_idx, variant.name),
        arrival=replace(base.arrival, rate_qps=qps),
        cstates_enabled=variant.cstates,
        turbo_c0_power_w=variant.turbo_c0_power_w,
    )


def _run_point(args) -> SimReport:
    config, catalog, perf = args
    return run(config, catalog=catalog, perf=perf)


def sweep(
    base: SimConfig,
    qps_list: Sequence[float],
    variants: Sequence[VariantSpec],
    catalog: Optional[Catalog] = None,
    perf: Optional[PerfModel] = None,
    jobs: int = 1,
) -> List[SweepPoint]:
    """Cross-product of loads and variants, each with a derived sub-seed.

    The first variant is the comparison baseline: every point carries
    its average-power savings and mean/p99 latency deltas against the
    first variant at the same load.
    """
    if not qps_list:
        raise ValidationError("qps_list must not be empty")
    if not variants:
        raise ValidationError("variants must not be empty")
    jobs = max(1, jobs)

    tasks = []
    for i, qps in enumerate(qps_list):
        for variant in variants:
            tasks.append((_point_config(base, qps, variant, i), catalog, perf))

    if jobs == 1:
        reports = [_run_point(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_point, tasks))

    points: List[SweepPoint] = []
    idx = 0
    for i, qps in enumerate(qps_list):
        first: Optional[SimReport] = None
        for variant in variants:
            rep = reports[idx]
            idx += 1
            if first is None:
                first = rep
                points.append(SweepPoint(variant.name, qps, rep))
                continue
            base_p = first.avg_power_w
            savings = (base_p - rep.avg_power_w) / base_p if base_p > 0 else 0.0
            mean_d = (
                rep.latency_us.mean / first.latency_us.mean - 1.0
                if first.latency_us.mean > 0 else 0.0
            )
            p99_d = (
                rep.latency_us.p99 / first.latency_us.p99 - 1.0
                if first.latency_us.p99 > 0 else 0.0
            )
            points.append(SweepPoint(variant.name, qps, rep, savings, mean_d, p99_d))
    return points
