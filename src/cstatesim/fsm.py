"""Controller flow timelines for idle-state entry, exit, and snoop handling.

The power-management controller sequences each flow as a handful of
steps.  A step costs either a number of controller clock cycles, a
fixed number of nanoseconds (for analog settling such as the staggered
power-gate ungating), or nothing at all when it only annotates a
concurrent, non-blocking action (like the voltage/frequency drop that
rides along with C6AE entry).  Cycle costs round up to whole
nanoseconds per step: ceil(cycles * 1000 / controller_mhz).

Each step's cost is a constant of this module: the cycle counts sit in
the step definitions, the nanosecond figures are named below.  Only the
controller clock, the exit's stagger plan and the snoop service window
are arguments.

The agile deep idle flows (C6A/C6AE) are the interesting ones: they
keep the PLL locked and the context in place, which is why entry fits
in single-digit cycles and exit is dominated by the 75 ns staggered
ungate.  Reference flows for C1 (trivial) and C6 (microseconds of cache
flush and context save/restore) are provided for comparison.

All functions are pure; the same arguments always produce the same
timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal, NamedTuple, Optional, Tuple

from .errors import ValidationError, require_fields

__all__ = [
    "CoreDomainState",
    "FsmStep",
    "FsmTimeline",
    "StaggerPlan",
    "ACTIVE_STATE",
    "DEFAULT_CONTROLLER_MHZ",
    "DEFAULT_SNOOP_SERVICE_NS",
    "entry_timeline",
    "exit_timeline",
    "snoop_timeline",
    "reference_flow",
]

DEFAULT_CONTROLLER_MHZ = 500
DEFAULT_SNOOP_SERVICE_NS = 50  # see snoop_timeline

_AGILE = ("C6A", "C6AE")

# C6AE's background switch to and from the minimum voltage/frequency
# point (an annotation: it never blocks entry or exit).
_PN_TRANSITION_NS = 10_000

# The C6 reference flow's step costs (see reference_flow).
_C6_FLUSH_NS = 75_000
_C6_SAVE_NS = 9_000
_C6_CONTROL_NS = 3_000
_C6_WAKE_NS = 10_000
_C6_RESTORE_NS = 20_000


@dataclass(frozen=True)
class CoreDomainState:
    """Snapshot of the core's power domains at one point in a flow.

    ufpg is the unified power-gate over the core logic; caches covers
    the L1/L2 arrays; cache_clock their clock tree; context says where
    architectural state lives; voltage names the supply point of the
    ungated portion (retention marks the shut-down level used by C6).
    Each field takes one of its Literal values (errors.require_fields).
    """

    ufpg: Literal["powered", "clock_gated", "power_gated"] = "powered"
    caches: Literal["active", "sleep_mode"] = "active"
    cache_clock: Literal["running", "gated"] = "running"
    pll: Literal["on_locked", "off"] = "on_locked"
    context: Literal["live", "retained_in_place", "saved_external"] = "live"
    voltage: Literal["nominal_p1", "min_pn", "retention"] = "nominal_p1"

    def __post_init__(self):
        require_fields(self)
        if self.ufpg == "power_gated" and self.context == "live":
            raise ValidationError(
                "power-gated core logic requires context retained or saved"
            )
        if self.caches == "sleep_mode" and self.cache_clock != "gated":
            raise ValidationError("cache sleep mode requires a gated cache clock")


ACTIVE_STATE = CoreDomainState()


@dataclass(frozen=True)
class FsmStep:
    """One step of a flow: a label, its cost, and the state it leaves behind.

    blocking=False marks a pure annotation: a concurrent action whose
    duration (fixed_ns) is informational and excluded from the flow's
    total latency.
    """

    label: str
    resulting: CoreDomainState
    cycles: int = 0
    fixed_ns: int = 0
    blocking: bool = True

    def __post_init__(self):
        require_fields(self)
        if self.cycles < 0 or self.fixed_ns < 0:
            raise ValidationError(f"step {self.label!r}: negative cost")
        if self.blocking and self.cycles == 0 and self.fixed_ns == 0:
            raise ValidationError(
                f"step {self.label!r}: a blocking step needs cycles or fixed_ns"
            )

    def ns(self, controller_mhz: int) -> int:
        """Wall time of this step at the given controller clock (0 if annotation)."""
        if not self.blocking:
            return 0
        return -(-self.cycles * 1000 // controller_mhz) + self.fixed_ns


class TimelineRow(NamedTuple):
    """One rendered step: label, raw costs, and cumulative blocking time."""

    label: str
    cycles: int
    fixed_ns: int
    cum_ns: int


@dataclass(frozen=True)
class StaggerPlan:
    """Zone-by-zone power-gate ungating to cap in-rush current."""

    zones: int = 5
    per_zone_ns: int = 15

    def __post_init__(self):
        require_fields(self)
        if self.zones <= 0:
            raise ValidationError("stagger plan needs at least one zone")
        if self.per_zone_ns <= 0:
            raise ValidationError("per-zone settle time must be positive")

    @property
    def total_ns(self) -> int:
        return self.zones * self.per_zone_ns


@dataclass(frozen=True)
class FsmTimeline:
    """An ordered flow of steps with its starting state and clock."""

    flow: Literal["entry", "exit", "snoop"]
    variant: str
    initial: CoreDomainState
    steps: Tuple[FsmStep, ...]
    controller_mhz: int = DEFAULT_CONTROLLER_MHZ

    def __post_init__(self):
        require_fields(self)
        if self.controller_mhz <= 0:
            raise ValidationError("controller clock must be positive")
        if not self.steps:
            raise ValidationError("a timeline needs at least one step")

    @property
    def total_ns(self) -> int:
        """Blocking latency of the whole flow."""
        return sum(step.ns(self.controller_mhz) for step in self.steps)

    @property
    def final(self) -> CoreDomainState:
        return self.steps[-1].resulting

    def rows(self) -> list:
        """One TimelineRow per step; annotations do not advance cum_ns."""
        cum = 0
        out = []
        for step in self.steps:
            cum += step.ns(self.controller_mhz)
            out.append(TimelineRow(step.label, step.cycles, step.fixed_ns, cum))
        return out


def _require_agile(variant: str, what: str) -> None:
    if variant not in _AGILE:
        raise ValidationError(
            f"{what} is defined for {_AGILE}; use reference_flow for {variant!r}"
        )


def entry_timeline(
    variant: str,
    controller_mhz: int = DEFAULT_CONTROLLER_MHZ,
) -> FsmTimeline:
    """Agile deep idle entry: three short controller steps (2, 4 and 3 cycles).

    1. clock-gate the core logic (power gate still closed later);
    2. assert retention and drop the power gate, context stays in place;
    3. put the caches into sleep mode and gate their clock.

    C6AE additionally kicks off a non-blocking switch to the minimum
    voltage/frequency point; it completes in the background
    (_PN_TRANSITION_NS, annotation only) and never blocks entry.
    """
    _require_agile(variant, "entry_timeline")

    s0 = ACTIVE_STATE
    s1 = replace(s0, ufpg="clock_gated")
    steps = [FsmStep("clock-gate core logic", s1, cycles=2)]
    if variant == "C6AE":
        s1 = replace(s1, voltage="min_pn")
        steps.append(
            FsmStep(
                "drop to min voltage/frequency (non-blocking)",
                s1,
                fixed_ns=_PN_TRANSITION_NS,
                blocking=False,
            )
        )
    s2 = replace(s1, ufpg="power_gated", context="retained_in_place")
    s3 = replace(s2, caches="sleep_mode", cache_clock="gated")
    steps.append(FsmStep("assert retention, open power gate", s2, cycles=4))
    steps.append(FsmStep("cache sleep mode, gate cache clock", s3, cycles=3))
    return FsmTimeline("entry", variant, s0, tuple(steps), controller_mhz)


def resident_state(variant: str) -> CoreDomainState:
    """The settled in-state snapshot for an agile deep idle variant."""
    _require_agile(variant, "resident_state")
    return entry_timeline(variant).final


def exit_timeline(
    variant: str,
    controller_mhz: int = DEFAULT_CONTROLLER_MHZ,
    stagger: Optional[StaggerPlan] = None,
) -> FsmTimeline:
    """Agile deep idle exit: three controller steps (2, 1 and 1 cycles).

    1. ungate the cache clock and leave sleep mode;
    2. close the power gate zone by zone (the stagger plan's fixed
       nanoseconds) and deassert retention;
    3. ungate the core logic clock.

    For C6AE the return to the nominal operating point rides along
    non-blocking (_PN_TRANSITION_NS), mirroring entry.
    """
    _require_agile(variant, "exit_timeline")
    if stagger is None:
        stagger = StaggerPlan()

    s0 = resident_state(variant)
    s1 = replace(s0, caches="active", cache_clock="running")
    s2 = replace(s1, ufpg="clock_gated", context="live")
    s3 = replace(s2, ufpg="powered")
    steps = [
        FsmStep("cache clock ungate, sleep exit", s1, cycles=2),
        FsmStep(
            "staggered power-gate close, deassert retention",
            s2,
            cycles=1,
            fixed_ns=stagger.total_ns,
        ),
        FsmStep("clock-ungate core logic", s3, cycles=1),
    ]
    if variant == "C6AE":
        s4 = replace(s3, voltage="nominal_p1")
        steps.append(
            FsmStep(
                "return to nominal voltage/frequency (non-blocking)",
                s4,
                fixed_ns=_PN_TRANSITION_NS,
                blocking=False,
            )
        )
    return FsmTimeline("exit", variant, s0, tuple(steps), controller_mhz)


def snoop_timeline(
    variant: str,
    controller_mhz: int = DEFAULT_CONTROLLER_MHZ,
    service_ns: int = DEFAULT_SNOOP_SERVICE_NS,
) -> FsmTimeline:
    """Snoop service while resident in an agile deep idle state.

    The caches wake (clock ungated, sleep exited; 2 cycles), the snoop
    is served for service_ns (an annotation: the duration is the
    caller's, not the controller's), and the caches drop back to sleep
    (3 cycles).  The core logic power gate never moves; the core stays
    in its idle state throughout.

    The default service window, DEFAULT_SNOOP_SERVICE_NS (50 ns), is a
    placeholder knob, not a validated figure; pass a measured value when
    one exists.
    """
    _require_agile(variant, "snoop_timeline")
    if service_ns < 0:
        raise ValidationError("service_ns must be nonnegative")

    s0 = resident_state(variant)
    s1 = replace(s0, caches="active", cache_clock="running")
    steps = (
        FsmStep("wake caches for snoop", s1, cycles=2),
        FsmStep("serve snoop (caller-timed)", s1, fixed_ns=service_ns, blocking=False),
        FsmStep("re-enter cache sleep, gate clock", s0, cycles=3),
    )
    return FsmTimeline("snoop", variant, s0, steps, controller_mhz)


def reference_flow(
    variant: str,
    flow: str,
    controller_mhz: int = DEFAULT_CONTROLLER_MHZ,
) -> FsmTimeline:
    """Comparison flows for the conventional states C1 and C6.

    C1 is a two-cycle clock gate/ungate.  C6 entry flushes the caches
    (_C6_FLUSH_NS covers a half-dirty cache at the minimum frequency),
    saves the context off-core (_C6_SAVE_NS), and power-gates the
    domain (_C6_CONTROL_NS of controller overhead); exit pays for
    power-ungate, PLL relock and fuse propagation (_C6_WAKE_NS) followed
    by context and microcode restore (_C6_RESTORE_NS).
    """
    if variant not in ("C1", "C6"):
        raise ValidationError("reference flows exist for C1 and C6 only")
    if flow not in ("entry", "exit"):
        raise ValidationError("reference flows cover entry and exit only")

    if variant == "C1":
        gated = replace(ACTIVE_STATE, ufpg="clock_gated")
        if flow == "entry":
            steps = (FsmStep("clock-gate core", gated, cycles=2),)
            return FsmTimeline("entry", "C1", ACTIVE_STATE, steps, controller_mhz)
        steps = (FsmStep("clock-ungate core", ACTIVE_STATE, cycles=2),)
        return FsmTimeline("exit", "C1", gated, steps, controller_mhz)

    # C6: caches flushed (represented as sleep_mode with a gated clock),
    # context off-core, PLL stopped, domain voltage removed.
    flushed = replace(
        ACTIVE_STATE, caches="sleep_mode", cache_clock="gated"
    )
    saved = replace(flushed, context="saved_external")
    off = replace(saved, ufpg="power_gated", pll="off", voltage="retention")
    if flow == "entry":
        steps = (
            FsmStep("flush L1/L2 caches", flushed, fixed_ns=_C6_FLUSH_NS),
            FsmStep("save context off-core", saved, fixed_ns=_C6_SAVE_NS),
            FsmStep("power-gate domain, stop PLL", off, fixed_ns=_C6_CONTROL_NS),
        )
        return FsmTimeline("entry", "C6", ACTIVE_STATE, steps, controller_mhz)
    relocked = replace(off, ufpg="clock_gated", pll="on_locked",
                       voltage="nominal_p1", context="saved_external")
    steps = (
        FsmStep("power-ungate, relock PLL, propagate fuses", relocked,
                fixed_ns=_C6_WAKE_NS),
        FsmStep("restore context and microcode", ACTIVE_STATE, fixed_ns=_C6_RESTORE_NS),
    )
    return FsmTimeline("exit", "C6", off, steps, controller_mhz)
