"""Deterministic discrete-event simulator for per-core idle-state behavior.

A fixed number of cores serve a stream of requests.  Whenever a core's
queue drains, a governor predicts the upcoming idle duration and drops
the core into the deepest enabled idle state whose target residency
fits the prediction (falling back to the shallowest idle state).  Every
entry and exit pays that state's hardware latency, charged at active
power in a distinguished "transition" residency bucket.  Snoops hitting
a core resident in an agile deep idle state (C6A/C6AE) briefly wake the
caches without leaving the state.

The engine is a per-core Lindley recursion driven by the arrival
stream.  Service is FIFO and non-preemptive, so a request's completion
time is fixed when it arrives, and each core carries only the time its
queued work completes.  An idle period starts there and is resolved in
closed form by the core's next arrival (or by the horizon): the
governor's decision, then either an entry the arrival aborts (the exit
follows the entry's end) or a residency the arrival ends (the exit
follows the arrival).  Snoops never move a core out of its state, so
they are drawn lazily: when a resident agile interval ends, the core's
own Poisson snoop stream is drawn across it, which is exact by
memorylessness.  A snoop window that starts at or after the end of the
core's previous one, in an interval that ends at least one window
before the horizon, is only added to a nanosecond total charged once
per interval; windows that overlap or clip at the horizon are charged
one by one, for their uncovered part.

The recursion is one loop over (index, owner, arrival time, service
time).  Owners come from an iterator chosen once per run by the
dispatch policy: a cycle over the cores for round_robin; a lazy map of
the dispatch stream's randrange for random, one draw per arrival in
arrival order, as a per-arrival call would make; and for
pack_lowest_index a generator over the live completion queues, which
zip resumes after the previous arrival has been applied.  The loop's
last items are the horizon's decisions: (offered, core, t_end, 0), in
core order, for each core whose queue drains before t_end.  They pass
the arrivals' one decision site and stop at the entry and residency.
The clairvoyant oracle reads the arrival after the core's latest one,
and bisects only when that one is not after the idle period's start.
Idle states are indices into the sorted menu (C0 is 0): entry and exit
latencies, the snoop flags and windows, and each core's residency and
entry counts are lists indexed by state, and the governor reads its
threshold table (_state_picker) in place.  The oracle's lookahead is an
integer number of nanoseconds, so it reads the table as integer cut
points, one per target residency (_cut_ns): the least whole ns whose
value in us reaches the target.  It compares its gap with them as it
is, with no conversion to us, and chooses what the us table would.  The
ewma and last_idle predictions are us floats, read against the us
table; last_idle is ewma with weight 1 on the newest idle period.  A
core's prediction takes in each idle period where it is read, at the
decision, once the period's end is known (at the horizon too, where
nothing reads it again).  Per idle period the loop writes only the
per-core residency and entry tables; every entry and exit adds
entry_ns + exit_ns of transition time, so the transition bucket and
the C0 entries are settled once after the loop, from the entry counts
and the horizon's cuts, and so is the network RTT, with the per-name
tables.  The peak backlog costs one compare per arrival: limit is the
completions popped so far plus peak_queue, so arrival i can raise the
peak only when i >= limit, and only then are the other cores' queues
drained up to its time.
Latencies stay Python ints: the loop appends each to a plain list, which
is sorted in place after the loop, once the run has dropped its own
stream arrays.  That list, one int per completed request, is the
largest thing a run holds.

Same-nanosecond ties: a completion at an arrival's time leaves the
queue before the arrival joins it; an arrival exactly when the queue
drains finds the core still awake (the governor's decision is dropped
and service starts at once); an arrival exactly when an entry completes
finds the core resident, so it pays the full exit and does not abort
the entry.  Every arrival before an aborted entry completes counts as
an aborted wake-up.  Nothing at or past the horizon is applied: a
request completing there is not counted, and time is clipped at it.

Determinism is a hard guarantee: virtual time is integer nanoseconds,
and all randomness flows from named streams derived from the config
seed (arrivals, service, dispatch, and one snoop stream per core).
Running the same config twice produces byte-identical reports.  The
arrival and service streams do not depend on the idle-state menu, so a
sweep draws them once per load and every variant replays them.  A load
converts its service times to integer ns once per distinct service
inflation, and the variants that share an inflation read one array,
which no run writes to.  The exponential and lognormal samplers are
inlined copies of random.expovariate and random.lognormvariate: the
same uniform draws, in the same order, give the same numbers.  They
move expovariate's negation onto the rate, negated once per stream:
IEEE-754 division rounds the same for either sign, so
log(1 - u) / -rate is -log(1 - u) / rate to the bit, -0.0 included;
and lognormvariate's acceptance test z * z / 4 <= -log(u2) is written
z * z / -4 >= log(u2), which decides the same.  Poisson gaps are drawn
a chunk at a time, with expovariate's draws and arithmetic.  Drawn
gaps and service times become whole ns as round() makes them, ties to
even, without a call to it: adding and then subtracting 2**52 rounds a
float below 2**52 to a whole number, and floor() makes that an int; a
float at or above 2**52 is already whole (_ROUND_NS).

Energy is integrated exactly: every segment contributes integer
milliwatts times integer nanoseconds (picojoules), so the sum over the
residency buckets reproduces the reported energy with no rounding slop.

Scope notes: request service is single-threaded per core and FIFO; the
network is at most a constant RTT added to reported latency; snoops are
an exogenous Poisson process; thermal behavior is not modeled.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from itertools import accumulate, chain, count, cycle, islice, repeat
from typing import Dict, List, Optional, Sequence, Tuple

from . import fsm
from .catalog import AGILE_STATES, REPLACEMENTS, Catalog, default_catalog
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
    "MAX_CORES",
]

# Per-core state is allocated up front, several lists of cores entries
# each, so the core count is bounded before anything is allocated.
MAX_CORES = 4096

_ARRIVAL_PROCESSES = ("poisson", "periodic", "bursty")
_SERVICE_DISTS = ("fixed", "exponential", "lognormal")
_DISPATCH_POLICIES = ("random", "round_robin", "pack_lowest_index")
_PREDICTORS = ("clairvoyant", "ewma", "last_idle")

# Which shallow state's power the caches draw while serving a snoop from
# an agile deep idle state (the cache subsystem is awake exactly as in
# that state).
_SNOOP_POWER_TWIN = {agile: shallow for shallow, agile in REPLACEMENTS.items()}


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
        if self.process == "bursty":
            if self.burst_on_ms <= 0 or self.burst_off_ms <= 0:
                raise ValidationError("burst on/off means must be positive")
            # Phase lengths are drawn as integer nanoseconds.
            if not (self.burst_on_ms * 1e6 < 2 ** 62 and self.burst_off_ms * 1e6 < 2 ** 62):
                raise ValidationError("burst on/off means must be below 2**62 ns")
            # The stream is drawn one on/off cycle at a time, so the
            # expected cycles per arrival bound the work of drawing the
            # first arrival past the horizon (about 10k cycles at most).
            per_cycle = self.rate_qps * (self.burst_on_ms + self.burst_off_ms) * 1e-3
            if self.rate_qps > 0 and not per_cycle >= 1e-4:
                raise ValidationError(
                    f"bursty rate_qps {self.rate_qps:g} expects {per_cycle:.3g} arrivals "
                    f"per on/off cycle; at least 1e-4 are needed")


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
        # The samplers work in seconds, and divide by or take the log of
        # the mean.
        if not self.mean_us * 1e-6 > 0:
            raise ValidationError(f"mean_us {self.mean_us!r} underflows to 0 s")
        if self.dist == "lognormal" and self.sigma <= 0:
            raise ValidationError("lognormal sigma must be positive")


@dataclass(frozen=True)
class SnoopSpec:
    """Exogenous per-core snoop traffic and its service window."""

    rate_per_core_hz: float = 0.0
    service_ns: int = fsm.DEFAULT_SNOOP_SERVICE_NS

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
    snoop: SnoopSpec = SnoopSpec()
    network_rtt_us: float = 0.0
    pack_queue_cap: int = 4  # pack_lowest_index spills past this queue depth

    def __post_init__(self):
        _require_finite(self)
        if not 1 <= self.cores <= MAX_CORES:
            raise ValidationError(f"cores must be in [1, {MAX_CORES}], got {self.cores}")
        # Arrival times are stored as 64-bit integer nanoseconds; the
        # bound also covers a latency (at most the horizon plus the RTT).
        if not (self.duration_s * 1e9 + self.network_rtt_us * 1e3 < 2 ** 62):
            raise ValidationError(
                "duration_s plus network_rtt_us must be below 2**62 ns (about 146 years)")
        # The run's horizon is duration_s in whole nanoseconds.
        if not (round(self.duration_s * 1e9) >= 1):
            raise ValidationError("duration_s must be at least 1 ns")
        # A bursty stream is drawn one on/off cycle at a time, at about
        # 1.4 us per cycle whatever the rate, so the cycles expected over
        # the horizon bound the cost of the draw (about 1.4 s at most).
        arrival = self.arrival
        if arrival.process == "bursty" and arrival.rate_qps > 0:
            cycles = self.duration_s * 1e3 / (arrival.burst_on_ms + arrival.burst_off_ms)
            if not cycles <= 1e6:
                raise ValidationError(
                    f"bursty arrivals expect {cycles:.3g} on/off cycles over duration_s; "
                    f"at most 1e6 are allowed")
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
        if self.pack_queue_cap < 1:
            raise ValidationError("pack_queue_cap must be >= 1")

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
    """Optional per-run diagnostics for property checks.

    Entries are in time order per core, not across cores: each idle
    period is recorded when the arrival that ends it (or the horizon)
    is reached.  idle_intervals holds the periods an arrival ended.
    """

    idle_intervals: List[Tuple[str, int]]     # (state, observed idle ns)
    decisions: List[Tuple[int, str]]          # (core, state)


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    energy_j: float
    avg_power_w: float
    residency: ResidencyProfile               # aggregated across cores
    per_core: List[ResidencyProfile]
    latency_us: LatencyStats
    wakeups_aborted: int
    snoops_served: int
    requests_offered: int
    requests_completed: int
    saturated: bool
    peak_queue: int
    trace: Optional[SimTrace] = None

    @property
    def transitions(self) -> Dict[str, int]:
        """Entries per state, summed over cores (the residency's counts)."""
        return self.residency.transitions


def _rank_index(n: int, pct: float) -> int:
    """Index of the nearest-rank percentile pct among n sorted values.

    The rank, ceil(pct / 100 * n), is computed in integers with pct in
    thousandths of a percent.  In floats, 99.9 / 100.0 rounds up to
    0.9990000000000001, which is one rank too high at most n that are
    multiples of 1000.
    """
    return max(0, -(-round(pct * 1000) * n // 100_000) - 1)


def derive_subseed(seed: int, *parts) -> int:
    """Stable 63-bit sub-seed for a named stream or sweep point."""
    text = repr((seed,) + parts).encode()
    digest = hashlib.sha256(text).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _depth(spec) -> Tuple[float, int]:
    """Idle-state depth: target residency, ties toward lower power."""
    return (spec.target_residency_us, -spec.power_mw)


def _state_picker(enabled: frozenset, catalog: Catalog) -> Tuple[List[float], List[int]]:
    """Governor state selection as a threshold table, built once per menu.

    Sorted by depth (stably over names), the states that fit a prediction
    form a prefix, so one bisect counts them.  Returns (thresholds,
    picks): picks[bisect_right(thresholds, predicted_us)] is the choice,
    as an index into sorted(enabled); picks[0], the shallowest state, is
    the fallback when nothing fits.  Equal depths resolve to the first
    name, as max() and min() over names do.
    """
    # Sorted names for cross-process determinism: set iteration order
    # depends on hash randomization.
    names = sorted(enabled)
    states = sorted((catalog[name] for name in names if name != "C0"), key=_depth)
    if not states:
        raise ValidationError("no idle states enabled")
    first: Dict[Tuple[float, int], str] = {}
    for s in states:
        first.setdefault(_depth(s), s.name)
    thresholds = [s.target_residency_us for s in states]
    picks = [names.index(name) for name in
             [states[0].name] + [first[_depth(s)] for s in states]]
    return thresholds, picks


# The largest float as an integer: a larger integer converts to the same
# float or overflows, so none divides by 1000.0 to more.
_LARGEST_DIVISIBLE_NS = int(sys.float_info.max)


@lru_cache(maxsize=256)
def _cut_ns(threshold_us: float):
    """The least integer d with d / 1000.0 >= threshold_us (math.inf if none).

    So an idle period of gap_ns integer nanoseconds fits a state exactly
    when gap_ns >= _cut_ns(its target residency), which is what
    gap_ns / 1000.0 >= target decides, without the division.  threshold_us
    is a target residency, finite and nonnegative.  d / 1000.0 never
    decreases as d grows, so the cut is found by bisection with Python's
    own comparison: ceil(threshold_us * 1000) can be off by one either
    way, and stepping from it by 1 stalls once consecutive integers
    share a float (at about 9e12 us).
    """
    top = _LARGEST_DIVISIBLE_NS
    if not top / 1000.0 >= threshold_us:
        return math.inf
    # lo never fits (a target is nonnegative), hi always does.
    lo, hi = -1, 1
    while not hi / 1000.0 >= threshold_us:
        lo, hi = hi, min(2 * hi, top)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid / 1000.0 >= threshold_us:
            hi = mid
        else:
            lo = mid
    return hi


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
    thresholds, picks = _state_picker(enabled, catalog)
    # A NaN prediction fits nothing, like one below every target.
    k = bisect_right(thresholds, predicted_idle_us) if predicted_idle_us >= thresholds[0] else 0
    return catalog[sorted(enabled)[picks[k]]]


# ---------------------------------------------------------------------------
# Arrival and service streams
# ---------------------------------------------------------------------------

# Stream arrays are filled a chunk at a time from list comprehensions:
# faster than from a generator, and no temporary list holds every item.
# The lognormal draw, a rejection loop, is the exception: it comes from a
# generator, as fast there as an explicit loop.
_CHUNK = 4096

# random.NV_MAGICCONST, the ratio-of-uniforms bound of the normal draw.
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)

# floor(x + _ROUND_NS - _ROUND_NS) is round(x) for 0 <= x < 2**52, at
# about half its cost: floats in [2**52, 2**53) are spaced 1 apart, and
# addition rounds to nearest even.  A float at or above 2**52 is whole,
# so with "if x < _ROUND_NS else floor(x)" the form is round(x) for every
# nonnegative float, and inf raises OverflowError as round() does.
_ROUND_NS = 2.0 ** 52


def _arrival_times(spec: ArrivalSpec, rng: random.Random,
                   t_end: int) -> Tuple[array, float]:
    """Absolute arrival times in integer ns, strictly increasing.

    Returns every arrival before t_end, and the first one at or past it
    (math.inf when rate_qps is 0, or when its gap overflows a float),
    which the clairvoyant governor reads last; that one is kept apart
    because it can exceed the array's 64-bit range.  The bursty process
    is an on/off modulated Poisson stream whose on-phase rate is scaled
    so the long-run average is rate_qps.
    """
    if spec.rate_qps <= 0:
        return array("q"), math.inf
    inf = math.inf
    if spec.process == "periodic":
        try:
            interval = max(1, round(1e9 / spec.rate_qps))
        except OverflowError:  # the gap is past any float: nothing arrives
            return array("q"), inf
        times = array("q", range(interval, t_end, interval))
        return times, (len(times) + 1) * interval
    times, t = array("q"), 0
    uniform, log, floor, m = rng.random, math.log, math.floor, _ROUND_NS
    on_rate, on_end = spec.rate_qps, inf
    if spec.process == "poisson" and 40.0 / on_rate * 1e9 < m:
        # The loop below, a chunk at a time: every gap is below 2**52
        # (-log(1 - u) < 37), so it rounds as _ROUND_NS says with no
        # branch, and a chunk is no larger than the arrivals expected
        # before t_end, plus a few.
        neg_rate = -on_rate
        while True:
            n = min(_CHUNK, int((t_end - t) * on_rate * 1e-9) + 16)
            block = list(accumulate([floor(log(1.0 - uniform()) / neg_rate * 1e9 + m - m) or 1
                                     for _ in range(n)], initial=t))
            k = bisect_left(block, t_end, 1)
            times.fromlist(block[1:k])
            if k <= n:
                return times, block[k]
            t = block[n]
    if spec.process == "bursty":
        on_s = spec.burst_on_ms * 1e-3
        off_s = spec.burst_off_ms * 1e-3
        on_rate = spec.rate_qps * (on_s + off_s) / on_s
        on_end = max(1, round(rng.expovariate(1.0 / on_s) * 1e9))
    append = times.append
    expo = rng.expovariate
    neg_rate = -on_rate
    while True:
        # max(1, round(expo(on_rate) * 1e9)), inlined: one uniform draw
        # each, with the sign moved onto the rate, rounded as _ROUND_NS
        # says, and a nonnegative gap rounds to 0 only when below 1.
        gap = log(1.0 - uniform()) / neg_rate * 1e9
        try:
            cand = t + ((floor(gap + m - m) if gap < m else floor(gap)) or 1)
        except OverflowError:  # the gap is past any float: it never arrives
            cand = inf
        if cand <= on_end:
            if cand >= t_end:
                return times, cand
            t = cand
            append(t)
        else:  # the on phase is over: an off phase, then the next on phase
            t = on_end + max(1, round(expo(1.0 / off_s) * 1e9))
            on_end = t + max(1, round(expo(1.0 / on_s) * 1e9))


def _service_seconds(spec: ServiceSpec, rng: random.Random, n: int) -> array:
    """n per-request service times in seconds, before any inflation.

    The samplers are inlined stdlib ones and give the same numbers from
    the same draws: exponential as rng.expovariate, one uniform draw
    each; lognormal as rng.lognormvariate, the Kinderman-Monahan loop of
    random.normalvariate (two uniform draws per try, about 1.37 tries
    per sample) without a method call per sample.
    """
    if spec.dist == "fixed":
        return array("d", [spec.mean_us * 1e-6]) * n
    if spec.dist == "exponential":
        # rng.expovariate(rate), inlined as in _arrival_times.
        uniform, log, neg_rate = rng.random, math.log, -(1.0 / (spec.mean_us * 1e-6))
        seconds = array("d")
        for lo in range(0, n, _CHUNK):
            seconds.fromlist([log(1.0 - uniform()) / neg_rate
                              for _ in range(min(_CHUNK, n - lo))])
        return seconds
    # Choose mu so the distribution mean equals mean_us.
    mu = math.log(spec.mean_us * 1e-6) - spec.sigma ** 2 / 2.0
    # islice stops at the n-th sample, so no draw is made and dropped.
    return array("d", islice(_lognormal(rng.random, mu, spec.sigma), n))


def _lognormal(uniform, mu: float, sigma: float):
    """Endless rng.lognormvariate(mu, sigma) samples from uniform draws.

    The Kinderman-Monahan loop of random.normalvariate, with its draws
    and arithmetic (its acceptance test negated on both sides), then
    exp.  It reads only locals, which are faster than closure cells and
    globals.
    """
    log, exp, magic = math.log, math.exp, _NV_MAGICCONST
    while True:
        u1 = uniform()
        u2 = 1.0 - uniform()
        z = magic * (u1 - 0.5) / u2
        if z * z / -4.0 >= log(u2):
            yield exp(mu + z * sigma)


@dataclass(frozen=True)
class _Streams:
    """The draws of one load that no idle-state menu changes.

    Every variant run against the same streams serves the same requests
    at the same times, so comparisons between menus are paired (common
    random numbers); only the menu-dependent service inflation differs.
    """

    key: tuple            # (seed, arrival, service, t_end) they were drawn for
    arrivals: array       # 'q': arrival times before t_end, in ns
    lookahead: float      # the first arrival at or past t_end
    service_s: array      # 'd': one service time per arrival, in s
    # service_ns's conversions, one per distinct inflation.
    _service_ns: Dict[float, array] = field(default_factory=dict, compare=False, repr=False)

    def service_ns(self, inflation: float) -> array:
        """Service times inflated and rounded to whole ns (at least 1).

        round(x * inflation * 1e9) is the arithmetic a run always used
        (computed as _ROUND_NS says), so results do not depend on
        whether the streams are shared.
        Converted once per distinct inflation and kept with the streams,
        so the variants at one load whose menus share an inflation read
        one array; no run writes to it.  A run that draws its own
        streams keeps only this array and the arrivals for its loop.
        An array is kept only once it is whole.
        """
        ns = self._service_ns.get(inflation)
        if ns is None:
            ns, seconds = array("q"), self.service_s
            floor, m = math.floor, _ROUND_NS
            try:
                for lo in range(0, len(seconds), _CHUNK):
                    ns.fromlist([(floor(y + m - m) if y < m else floor(y)) or 1
                                 for x in seconds[lo:lo + _CHUNK]
                                 for y in (x * inflation * 1e9,)])
            except OverflowError:
                raise ValidationError("a service time is not below 2**63 ns") from None
            self._service_ns[inflation] = ns
        return ns


def _streams_key(config: SimConfig) -> tuple:
    """What a run's streams must have been drawn for."""
    return (config.seed, config.arrival, config.service, round(config.duration_s * 1e9))


def _draw_streams(config: SimConfig) -> _Streams:
    """Draw the arrival and service streams of config's seed and horizon."""
    key = _streams_key(config)
    seed, arrival, service, t_end = key
    arrivals, lookahead = _arrival_times(
        arrival, random.Random(derive_subseed(seed, "arrival")), t_end)
    service_s = _service_seconds(
        service, random.Random(derive_subseed(seed, "service")), len(arrivals))
    return _Streams(key, arrivals, lookahead, service_s)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

# The snoop flow depends only on its arguments, so each window is built
# once per process rather than once per run.
@lru_cache(maxsize=64)
def _snoop_window_ns(name: str, service_ns: int) -> int:
    """A snoop's window in an agile state: cache wake, service, re-entry."""
    return fsm.snoop_timeline(name, service_ns=service_ns).total_ns + service_ns


def run(
    config: SimConfig,
    catalog: Optional[Catalog] = None,
    perf: Optional[PerfModel] = None,
    trace: bool = False,
    *,
    streams: Optional[_Streams] = None,
) -> SimReport:
    """Simulate one configuration and summarize it.

    perf only matters when an agile deep idle state is enabled: then
    every service time is divided by (1 - freq_penalty * scalability).
    Only perf.service_inflation is read, never perf.delta_transition_ns.
    streams, when given, are the arrival and service draws of config's
    seed, arrival, service and horizon (from _draw_streams), shared by
    every variant at one load; without them the run draws its own, with
    the same result.
    """
    if catalog is None:
        catalog = default_catalog()
    if perf is None:
        perf = PerfModel()

    # Idle states are indices into the sorted menu; "C0" sorts first, so
    # it is index 0 and the idle states are 1 and up.
    names = sorted(config.cstates_enabled)
    n_states = len(names)
    agile_on = bool(config.cstates_enabled & AGILE_STATES)
    inflation = perf.service_inflation if agile_on else 1.0

    # Active (C0) power applies to every powered-and-stalled segment as
    # well as actual service.
    active_mw = catalog["C0"].power_mw
    state_mw = [catalog[name].power_mw for name in names]
    thresholds, picks = _state_picker(config.cstates_enabled, catalog)
    cuts_ns = [_cut_ns(threshold) for threshold in thresholds]

    # Entry/exit latencies: the catalog's hardware figures for every
    # state (the governor never picks C0, index 0).
    entry_ns = [catalog[name].hw_entry_ns for name in names]
    exit_ns = [catalog[name].hw_exit_ns for name in names]
    round_trip_ns = [0] + [a + b for a, b in zip(entry_ns[1:], exit_ns[1:])]

    # Snoop window: cache wake + service + re-entry, charged at the
    # power of the state's shallow twin (its cache subsystem is awake
    # exactly as in that state) instead of the resident state's power.
    # Only the states flagged in snooped are snooped.
    snoop_rate = config.snoop.rate_per_core_hz
    neg_snoop_rate = -snoop_rate  # serve_snoops' gaps divide by it
    snooped = [False] * n_states
    snoop_window_ns = [0] * n_states
    snoop_delta_mw = [0] * n_states
    for j, name in enumerate(names):
        if name not in AGILE_STATES or not snoop_rate > 0:
            continue
        window = _snoop_window_ns(name, config.snoop.service_ns)
        # Like the request utilization check: at one window per snoop
        # or more, the snoops alone would keep the core busy.
        if snoop_rate * window * 1e-9 >= 1.0:
            raise ValidationError(
                f"snoop rate {snoop_rate:g} Hz times the {window} ns {name} "
                f"snoop window is not below 1"
            )
        snooped[j] = True
        snoop_window_ns[j] = window
        twin = catalog[_SNOOP_POWER_TWIN[name]].power_mw
        snoop_delta_mw[j] = max(0, twin - catalog[name].power_mw)

    def stream(*name) -> random.Random:
        return random.Random(derive_subseed(config.seed, *name))

    if streams is None:
        streams = _draw_streams(config)
    elif streams.key != _streams_key(config):
        raise ValidationError(
            "streams were drawn for another seed, arrival, service or duration")
    t_end = round(config.duration_s * 1e9)
    arrivals, lookahead = streams.arrivals, streams.lookahead
    offered = len(arrivals)
    services = streams.service_ns(inflation)
    del streams  # keep only what the loop reads: a run's own service_s is freed
    snoop_rngs = [stream("snoop", i) for i in range(config.cores)] if any(snooped) else []

    # Per-core state.  A core's queued work completes at free[c]; what
    # happened before that is settled, except for an idle period that
    # starts at free[c] and is resolved by the core's next arrival (or
    # the horizon).
    n_cores = config.cores
    free = [0] * n_cores              # every core decides at t = 0
    abort_until = [0] * n_cores       # when its latest aborted entry completes
    queues = [deque() for _ in range(n_cores)]  # completion times of queued work
    last_arrival = [-1] * n_cores     # index of its latest arrival
    pred_us = [0.0] * n_cores
    transition_ns = [0] * n_cores     # only where the horizon cuts an idle period
    cut = [0] * n_cores               # idle periods the horizon ends with no C0 entry
    resident_ns = [[0] * n_states for _ in range(n_cores)]
    entries = [[0] * n_states for _ in range(n_cores)]
    snoop_clear_ns = [0] * n_cores

    latencies_ns: List[int] = []
    rtt_ns = round(config.network_rtt_us * 1000)
    wakeups_aborted = snoops_served = snoop_pj = peak_queue = 0
    # Completions popped so far, plus peak_queue: an arrival can raise
    # the peak only when its index reaches it.
    limit = 0
    # With one idle state on the menu no prediction can change the
    # choice, so none is made.
    only_state = picks[0] if len(set(picks)) == 1 else None
    predictor = config.governor.predictor if only_state is None else None
    clairvoyant = predictor == "clairvoyant"
    # last_idle is ewma with alpha 1: 1.0 * x + 0.0 * p == x for the
    # finite, nonnegative idle times the loop holds.
    alpha = 1.0 if predictor == "last_idle" else config.governor.ewma_alpha
    idle_intervals: List[Tuple[str, int]] = []
    decisions: List[Tuple[int, str]] = []

    def serve_snoops(c: int, state: int, ts: int, t_stop: int) -> None:
        """Draw and charge core c's snoops while resident over [ts, t_stop).

        A window that starts at or after the end of the core's previous
        one (clear), in an interval whose every window ends by the
        horizon (t_stop + window <= t_end), takes the fast path: it is
        counted, and the interval's fast windows are charged at once.
        Any other window overlaps the previous one or clips at the
        horizon, and only its uncovered part is charged.
        """
        nonlocal snoops_served, snoop_pj
        uniform, log, neg_rate = snoop_rngs[c].random, math.log, neg_snoop_rate
        floor, m = math.floor, _ROUND_NS
        window = snoop_window_ns[state]
        unclipped = t_stop + window <= t_end
        clear = snoop_clear_ns[c]
        fast = slow = slow_ns = 0
        while True:
            # expovariate(snoop_rate), inlined and rounded as in
            # _arrival_times.  A gap past any float (at very low rates)
            # cannot be rounded and ends the interval, as any gap
            # reaching t_stop does.
            gap = log(1.0 - uniform()) / neg_rate * 1e9
            try:
                ts += (floor(gap + m - m) if gap < m else floor(gap)) or 1
            except OverflowError:
                break
            if ts >= t_stop:
                break
            if ts >= clear and unclipped:
                fast += 1
                clear = ts + window
                continue
            slow += 1
            end = ts + window
            if end > t_end:
                end = t_end
            start = ts if ts > clear else clear
            if end > start:
                slow_ns += end - start
                clear = end
        snoops_served += fast + slow
        snoop_pj += snoop_delta_mw[state] * (fast * window + slow_ns)
        snoop_clear_ns[c] = clear

    def pack_lowest_index():
        """Owners under pack_lowest_index, one per arrival.

        Fill the lowest-indexed core up to the cap, then spill; when
        everything is at the cap, least loaded wins (lowest index among
        ties).  zip pulls each owner after the previous arrival has
        been applied, so the queues are live.
        """
        nonlocal limit
        for t in arrivals:
            c = 0
            for queue in queues:
                while queue and queue[0] <= t:
                    queue.popleft()
                    limit += 1
                if len(queue) < pack_cap:
                    break
                c += 1
            else:
                c = min(range(n_cores), key=lambda k: len(queues[k]))
            yield c

    # Each arrival's core, produced as zip pulls it: random dispatch
    # takes one draw per arrival, in arrival order.
    if config.dispatch == "round_robin":
        owners = cycle(range(n_cores))
    elif config.dispatch == "random":
        owners = map(stream("dispatch").randrange, repeat(n_cores))
    else:
        pack_cap = config.pack_queue_cap
        owners = pack_lowest_index()

    # Last, each core whose queue drains before the horizon decides once
    # more, at an item (offered, c, t_end, 0), read after every arrival.
    horizon = ((offered, c, t_end, 0) for c in range(n_cores) if free[c] < t_end)
    record = latencies_ns.append
    for i, c, t, service_ns in chain(zip(count(), owners, arrivals, services), horizon):
        queue = queues[c]
        f = free[c]
        if t < f:
            # Serving, or waking up for earlier work: join the queue.
            # Arriving before an aborted entry completes is one more
            # aborted wake-up.
            if t < abort_until[c]:
                wakeups_aborted += 1
            while queue[0] <= t:
                queue.popleft()
                limit += 1
        else:
            limit += len(queue)
            queue.clear()
            if t > f:
                # Resolve the idle period that began when the queue
                # drained at f; item i ends it.  The governor's state:
                # no prediction is NaN, so the table is read unguarded.
                if clairvoyant:
                    # The first arrival after f, on any core, is at most
                    # i and most often the one after c's latest.  Item
                    # i is after f (at the horizon, so is lookahead),
                    # so a next one at or before f is before i.
                    k = last_arrival[c] + 1
                    nxt = arrivals[k] if k < offered else lookahead
                    if nxt <= f:
                        k = bisect_right(arrivals, f, k, i)
                        nxt = arrivals[k] if k < offered else lookahead
                    state = picks[bisect_right(cuts_ns, nxt - f)]
                elif only_state is None:
                    # The prediction is read, then takes this period
                    # in (at the horizon too, where nothing reads it).
                    pred = pred_us[c]
                    state = picks[bisect_right(thresholds, pred)]
                    pred_us[c] = alpha * ((t - f) / 1000.0) + (1.0 - alpha) * pred
                else:
                    state = only_state
                if trace:
                    decisions.append((c, names[state]))
                entries[c][state] += 1
                e = f + entry_ns[state]
                if t == t_end:  # the horizon: no arrival, no exit
                    transition_ns[c] += min(e, t_end) - e - exit_ns[state]
                    cut[c] += 1
                    if e < t_end:
                        resident_ns[c][state] += t_end - e
                        if snooped[state]:
                            serve_snoops(c, state, e, t_end)
                    continue
                # The arrival aborts the entry or ends the residency.
                if t < e:
                    wakeups_aborted += 1
                    abort_until[c] = e
                    wake = e + exit_ns[state]
                else:
                    resident_ns[c][state] += t - e
                    if snooped[state]:
                        serve_snoops(c, state, e, t)
                    wake = t + exit_ns[state]
                if wake >= t_end:  # the horizon cuts the exit short: no C0 entry
                    transition_ns[c] -= wake - t_end
                    cut[c] += 1
                if trace:
                    idle_intervals.append((names[state], t - f))
                f = wake
            # else t == f: the queue drained just now, so the governor's
            # decision is dropped and service starts at once.
        f += service_ns
        free[c] = f
        last_arrival[c] = i
        queue.append(f)
        if f < t_end:
            record(f - t)
        # i + 1 less the completions popped bounds the backlog from
        # above (other cores may hold completions at or before t); pop
        # them all only when the bound could raise the peak, that is
        # when i >= limit.
        if i >= limit:
            for queue in queues:
                while queue and queue[0] <= t:
                    queue.popleft()
                    limit += 1
            if i >= limit:
                peak_queue += i + 1 - limit
                limit = i + 1

    # Integer picojoules: C0 and transitions draw active power.  The
    # per-name tables of the report are built from the index tables here,
    # with what the loop left out: every idle period's entry and exit
    # (the horizon's cuts are already in transition_ns), and the C0
    # entry of every one the horizon did not cut.
    energy_pj = snoop_pj
    buckets = []
    for c, (resident, core_entries) in enumerate(zip(resident_ns, entries)):
        transition = transition_ns[c] + sum(n * ns for n, ns in zip(core_entries, round_trip_ns))
        core_entries[0] = sum(core_entries) - cut[c]
        idle = sum(resident)
        energy_pj += (t_end - idle) * active_mw
        energy_pj += sum(ns * mw for ns, mw in zip(resident, state_mw))
        buckets.append({"C0": t_end - idle - transition,
                        **{names[j]: resident[j] for j in range(1, n_states)},
                        TRANSITION_BUCKET: transition})
    energy_j = energy_pj * 1e-12
    # Average over the realized horizon (t_end is duration_s rounded to
    # whole nanoseconds) so energy, power, and residency stay one
    # consistent account even when the requested duration is not.
    horizon_s = t_end * 1e-9
    avg_power_w = energy_j / (horizon_s * config.cores)

    per_core = [
        ResidencyProfile(
            duration_s=horizon_s,
            residency={name: ns / t_end for name, ns in bucket.items()},
            transitions=dict(zip(names, core_entries)),
        )
        for bucket, core_entries in zip(buckets, entries)
    ]
    agg_residency = {
        name: sum(bucket[name] for bucket in buckets) / (t_end * config.cores)
        for name in buckets[0]
    }
    aggregated = ResidencyProfile(
        duration_s=horizon_s,
        residency=agg_residency,
        transitions=dict(zip(names, map(sum, zip(*entries)))),
    )

    completed = len(latencies_ns)
    del arrivals, services  # drop a run's own draws before the sort
    latencies_ns.sort()
    stats = LatencyStats()
    if completed:
        # The RTT shifts every latency alike, so it is added only to the
        # integer sum and the four ranked values read, not to each one.
        stats = LatencyStats((sum(latencies_ns) + completed * rtt_ns) / completed / 1000.0, *(
            (latencies_ns[_rank_index(completed, pct)] + rtt_ns) / 1000.0
            for pct in (50.0, 95.0, 99.0, 99.9)))

    # High-water-mark saturation heuristic: the backlog grew well past
    # anything a stable queue produces and never drained.
    in_system = offered - completed
    saturated = peak_queue >= max(32, 8 * config.cores) and in_system >= peak_queue / 2

    return SimReport(
        config=config,
        energy_j=energy_j,
        avg_power_w=avg_power_w,
        residency=aggregated,
        per_core=per_core,
        latency_us=stats,
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
    """A named idle-state menu to sweep; a point runs the base config with it."""

    name: str
    cstates: frozenset


@dataclass(frozen=True)
class SweepPoint:
    """One (load, variant) result with deltas against the first variant."""

    variant: str
    report: SimReport
    savings_vs_first: float = 0.0
    mean_delta_vs_first: float = 0.0
    p99_delta_vs_first: float = 0.0

    @property
    def qps(self) -> float:
        """The point's load: its run's arrival rate."""
        return self.report.config.arrival.rate_qps


def _sweep_load(args) -> List[SimReport]:
    """Every variant at one load, run against the load's shared streams."""
    config, variants, catalog, perf = args
    streams = _draw_streams(config)
    return [
        run(replace(config, cstates_enabled=variant.cstates),
            catalog=catalog, perf=perf, streams=streams)
        for variant in variants
    ]


def _paired_sweep(
    configs: Sequence[SimConfig],
    variants: Sequence[VariantSpec],
    catalog: Optional[Catalog],
    perf: Optional[PerfModel],
    jobs: int,
) -> List[SweepPoint]:
    """Every variant at each config (one load), paired with the first variant.

    A load's arrival and service streams are drawn once and every variant
    replays them, so each point equals a stand-alone run.  Points are
    load-major, variants in the order given, and carry the average-power
    savings, (first - variant) / first, and the mean/p99 latency deltas
    against the first variant at the same load.  With jobs > 1, loads run
    in parallel processes, at most one per load and one per CPU this
    process may run on, and the process pool is imported only when it
    has two workers or more (a serial sweep never loads multiprocessing).
    """
    if not configs:
        raise ValidationError("qps_list must not be empty")
    if not variants:
        raise ValidationError("variants must not be empty")
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    # The pool starts all its workers at the first submit, so a worker
    # beyond the number of loads would be started for nothing, and one
    # beyond the usable CPUs would only wait for a turn on them.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    jobs = min(jobs, len(configs), cpus)

    tasks = [(config, variants, catalog, perf) for config in configs]
    if jobs == 1:
        per_load = [_sweep_load(task) for task in tasks]
    else:
        # concurrent.futures pulls in multiprocessing, logging, socket
        # and pickle, which only a parallel sweep uses.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_load = list(pool.map(_sweep_load, tasks))

    points: List[SweepPoint] = []
    for first, *others in per_load:
        base_p, base_lat = first.avg_power_w, first.latency_us
        points.append(SweepPoint(variants[0].name, first))
        for variant, rep in zip(variants[1:], others):
            savings = (base_p - rep.avg_power_w) / base_p if base_p > 0 else 0.0
            points.append(SweepPoint(variant.name, rep, savings,
                                     _delta(rep.latency_us.mean, base_lat.mean),
                                     _delta(rep.latency_us.p99, base_lat.p99)))
    return points


def _delta(value: float, first: float) -> float:
    """Fractional change of value over first (0 when first is 0)."""
    return value / first - 1.0 if first > 0 else 0.0


def sweep(
    base: SimConfig,
    qps_list: Sequence[float],
    variants: Sequence[VariantSpec],
    catalog: Optional[Catalog] = None,
    perf: Optional[PerfModel] = None,
    jobs: int = 1,
) -> List[SweepPoint]:
    """Cross-product of loads and variants, paired at each load.

    A point is base with its load's seed and rate and its variant's menu;
    every other field is base's.  Load i runs at the sub-seed
    derive_subseed(base.seed, i), and every variant at it serves the same
    arrival and service draws (common random numbers), so the comparisons
    with the first variant measure the menus, not seed noise (see
    _paired_sweep).  As in run, only perf.service_inflation is read,
    never perf.delta_transition_ns.
    """
    configs = [
        replace(base, seed=derive_subseed(base.seed, i),
                arrival=replace(base.arrival, rate_qps=qps))
        for i, qps in enumerate(qps_list)
    ]
    return _paired_sweep(configs, variants, catalog, perf, jobs)
