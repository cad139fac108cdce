"""Residency-weighted average power model.

Average power over an interval is the sum of each state's power times
the fraction of time spent in it.  On top of that this module provides:

  * upper_bound_savings: the best case for replacing C1 with an idle
    state that keeps C1's latency but draws C6's power, evaluated on a
    {C0, C1, C6} residency profile (a transition bucket is allowed).

  * rescale_residency / avg_power_aw: a first-order estimate of what a
    profile looks like after swapping C1 -> C6A and C1E -> C6AE, folding
    in a small frequency penalty on active time and the extra
    per-transition latency of the agile states.  Transition time lands
    in a distinguished "transition" bucket charged at C0 power.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from .catalog import AGILE_STATES, CSTATE_NAMES, REPLACEMENTS, Catalog
from .errors import ValidationError

__all__ = [
    "TRANSITION_BUCKET",
    "ResidencyProfile",
    "PerfModel",
    "SavingsVs",
    "PowerEstimate",
    "avg_power",
    "upper_bound_savings",
    "rescale_residency",
    "avg_power_aw",
]

# Pseudo-state collecting time spent entering/exiting idle states; it is
# charged at C0 power because the core is stalled but fully powered.
TRANSITION_BUCKET = "transition"

_SUM_TOL = 1e-9       # residency fractions must sum to 1 within this
_RENORM_TOL = 1e-6    # ... but small drift is silently repaired with a warning


@dataclass(frozen=True)
class ResidencyProfile:
    """Fractions of an interval spent in each state, plus entry counts.

    residency maps state name -> fraction of duration_s; fractions must
    sum to 1 (drift up to 1e-6 is renormalized with a warning, anything
    larger is rejected).  transitions maps state name -> number of
    entries into that state over the interval.
    """

    duration_s: float
    residency: Dict[str, float]
    transitions: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if not (self.duration_s > 0 and math.isfinite(self.duration_s)):
            raise ValidationError(f"duration must be positive, got {self.duration_s}")
        for name, frac in self.residency.items():
            if not (0.0 <= frac <= 1.0 + _RENORM_TOL):
                raise ValidationError(f"residency[{name!r}] = {frac} out of [0, 1]")
        for name, count in self.transitions.items():
            if name not in self.residency:
                raise ValidationError(
                    f"transitions mentions {name!r} which has no residency entry"
                )
            if count < 0:
                raise ValidationError(f"transitions[{name!r}] = {count} negative")
        total = sum(self.residency.values())
        if abs(total - 1.0) > _SUM_TOL:
            if abs(total - 1.0) <= _RENORM_TOL:
                warnings.warn(
                    f"residency sum {total:.9f} off by {total - 1.0:.2e}; renormalizing",
                    stacklevel=3,  # past the dataclass __init__ to its caller
                )
                object.__setattr__(
                    self,
                    "residency",
                    {k: v / total for k, v in self.residency.items()},
                )
            else:
                raise ValidationError(f"residency sum {total:.4f} ≠ 1")


@dataclass(frozen=True)
class PerfModel:
    """Knobs for the performance cost of running in agile idle mode.

    freq_penalty is the relative frequency loss while active (default
    1%); scalability in [0, 1] says how much of that loss the workload
    actually feels; delta_transition_ns is the extra per-transition
    latency of an agile state over the state it replaces.
    """

    freq_penalty: float = 0.01
    scalability: float = 1.0
    delta_transition_ns: int = 100

    def __post_init__(self):
        if not (0.0 <= self.freq_penalty < 1.0):
            raise ValidationError(f"freq_penalty {self.freq_penalty} out of [0, 1)")
        if not (0.0 <= self.scalability <= 1.0):
            raise ValidationError(f"scalability {self.scalability} out of [0, 1]")
        if self.delta_transition_ns < 0:
            raise ValidationError("delta_transition_ns must be nonnegative")

    @property
    def active_inflation(self) -> float:
        """Multiplier on active time: 1 + penalty * scalability."""
        return 1.0 + self.freq_penalty * self.scalability

    @property
    def service_inflation(self) -> float:
        """Multiplier on per-request service time: 1 / (1 - penalty * scalability)."""
        return 1.0 / (1.0 - self.freq_penalty * self.scalability)


@dataclass(frozen=True)
class SavingsVs:
    baseline_w: float
    savings_fraction: float


@dataclass(frozen=True)
class PowerEstimate:
    """Average power plus its per-state decomposition (watts).

    per_state_w sums to avg_power_w by construction.
    """

    avg_power_w: float
    per_state_w: Dict[str, float]
    savings_vs: Optional[SavingsVs] = None


def _state_power_w(name: str, catalog: Catalog) -> float:
    if name == TRANSITION_BUCKET:
        return catalog["C0"].power_w
    return catalog[name].power_w


def avg_power(profile: ResidencyProfile, catalog: Catalog) -> PowerEstimate:
    """Residency-weighted average power.

    The "transition" bucket, if present, is charged at C0 power; any
    other unknown state name is an error.
    """
    per_state = {
        name: frac * _state_power_w(name, catalog)
        for name, frac in profile.residency.items()
    }
    return PowerEstimate(avg_power_w=sum(per_state.values()), per_state_w=per_state)


def _require_states(profile: ResidencyProfile, allowed: Set[str], what: str) -> None:
    """Reject a profile with states outside allowed; what fills in the allowed list at {}."""
    extra = set(profile.residency) - allowed
    if extra:
        raise ValidationError(f"{what.format(sorted(allowed))}; got extra states {sorted(extra)}")


def upper_bound_savings(profile: ResidencyProfile, catalog: Catalog) -> float:
    """Best-case savings fraction from an ideal C1 replacement.

    The ideal replacement keeps C1's transition latency but draws C6's
    power, so every second of C1 residency saves P_C1 - P_C6.  Only
    profiles over {C0, C1, C6} are meaningful here, plus the transition
    bucket that simulated profiles carry, charged at C0 power; anything
    else is rejected.
    """
    _require_states(profile, {"C0", "C1", "C6", TRANSITION_BUCKET},
                    "upper-bound savings is defined on {} profiles")
    baseline = avg_power(profile, catalog).avg_power_w
    if baseline <= 0:
        return 0.0
    r_c1 = profile.residency.get("C1", 0.0)
    saved = r_c1 * (catalog["C1"].power_w - catalog["C6"].power_w)
    return saved / baseline


def rescale_residency(profile: ResidencyProfile, perf: PerfModel) -> ResidencyProfile:
    """Rework a residency profile for the performance model.

    Three effects, applied to absolute times and renormalized:

      (a) active (C0) time inflates by perf.active_inflation;
      (b) for each replaced state (C1, C1E), its entry count times
          delta_transition_ns moves out of that state's time into the
          "transition" bucket;
      (c) the remaining idle time shrinks (proportionally) to pay for
          (a), keeping total duration fixed.

    State names are kept; avg_power_aw does the renaming.  Raises
    "load infeasible under penalty" when the inflated active time does
    not fit.
    """
    dur = profile.duration_s
    times = {name: frac * dur for name, frac in profile.residency.items()}

    c0 = times.get("C0", 0.0)
    extra_active = c0 * (perf.active_inflation - 1.0)

    bucket = times.get(TRANSITION_BUCKET, 0.0)
    for state in REPLACEMENTS:
        if state not in times:
            continue
        moved_ns = profile.transitions.get(state, 0) * perf.delta_transition_ns
        if moved_ns == 0:
            continue
        try:
            moved = moved_ns * 1e-9
        except OverflowError:
            # Past 2**1024 ns: whole seconds, an int that compares
            # exactly with the residency below.
            moved = moved_ns // 10 ** 9
        if moved > times[state] + 1e-15:
            raise ValidationError(
                f"load infeasible under penalty: {state} transitions need "
                f"more than the {times[state]:.6g} s of residency that exist"
            )
        times[state] -= moved
        bucket += moved

    idle = {
        name: t for name, t in times.items()
        if name not in ("C0", TRANSITION_BUCKET)
    }
    idle_total = sum(idle.values())
    if extra_active > 0.0:
        if extra_active > idle_total + 1e-15:
            raise ValidationError("load infeasible under penalty")
        for name, t in idle.items():
            times[name] = t - extra_active * (t / idle_total)
    if "C0" in times or extra_active > 0.0:
        times["C0"] = c0 + extra_active
    if bucket > 0.0:
        times[TRANSITION_BUCKET] = bucket
    else:
        times.pop(TRANSITION_BUCKET, None)

    total = sum(times.values())
    residency = {name: t / total for name, t in times.items()}
    return ResidencyProfile(
        duration_s=dur,
        residency=residency,
        transitions=dict(profile.transitions),
    )


def avg_power_aw(
    profile: ResidencyProfile, catalog: Catalog, perf: PerfModel
) -> PowerEstimate:
    """Estimate average power after switching to the agile idle states.

    Takes a baseline profile over {C0, C1, C1E, C6} (a transition bucket
    is tolerated and passed through), rescales it per the performance
    model, renames C1 -> C6A and C1E -> C6AE, and reprices it.  The
    result carries savings_vs against the unmodified baseline.
    """
    _require_states(profile, (set(CSTATE_NAMES) - AGILE_STATES) | {TRANSITION_BUCKET},
                    "agile estimate expects a baseline profile over {}")

    baseline = avg_power(profile, catalog).avg_power_w
    scaled = rescale_residency(profile, perf)
    renamed = ResidencyProfile(
        duration_s=scaled.duration_s,
        residency={
            REPLACEMENTS.get(name, name): frac
            for name, frac in scaled.residency.items()
        },
    )
    est = avg_power(renamed, catalog)
    if baseline > 0:
        savings = (baseline - est.avg_power_w) / baseline
    else:
        savings = 0.0
    return PowerEstimate(
        avg_power_w=est.avg_power_w,
        per_state_w=est.per_state_w,
        savings_vs=SavingsVs(baseline_w=baseline, savings_fraction=savings),
    )
