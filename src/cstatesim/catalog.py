"""Power and latency catalog for core idle states.

The catalog is the single source of truth for per-state power draw,
worst-case transition times, target residencies, and hardware
entry/exit latencies.  Powers are stored internally as integer
milliwatts so that golden-value arithmetic is exact; every public
interface speaks watts.

Six states are modeled:

    C0     active, at the base (P1) operating point
    C1     core clocks stopped, everything else powered
    C6A    core logic power-gated with in-place state retention,
           caches in sleep mode but coherent, PLL locked (agile deep idle)
    C1E    C1 plus a switch to the minimum-voltage/frequency point
    C6AE   C6A plus the minimum-voltage/frequency point (agile deep idle)
    C6     caches flushed, context saved off-core, PLL off, domain shut off

C6A deliberately shares C1's latency class and C6AE shares C1E's,
while drawing close-to-C6 power; that pairing is what the analytic
model and simulator exploit.  Catalog enforces the transition time
only: it refuses an agile state whose transition time differs from its
donor's, and a catalog file may still give one its own target
residency.
The built-in C6A/C6AE hardware entry/exit latencies are the totals of
their controller flows (fsm), so the flows stay their one definition.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from . import fsm
from .errors import (ParseError, ValidationError, file_fields, read_ini, read_input,
                     read_section, require_fields)

__all__ = [
    "CSTATE_NAMES",
    "AGILE_STATES",
    "REPLACEMENTS",
    "POWER_DEPTH_ORDER",
    "PState",
    "CStateSpec",
    "C6ABudget",
    "Catalog",
    "default_catalog",
    "default_budget",
    "budget_total",
    "power_ratio_vs_active",
    "load_catalog",
    "loads_catalog",
    "dumps_catalog",
]

# Canonical listing order: each agile state right after the state whose
# latency class it shares.
CSTATE_NAMES: Tuple[str, ...] = ("C0", "C1", "C6A", "C1E", "C6AE", "C6")
# Each agile deep idle state replaces the shallow state whose latency
# class it shares.
REPLACEMENTS = {"C1": "C6A", "C1E": "C6AE"}
AGILE_STATES = frozenset(REPLACEMENTS.values())
# Shallow-to-deep by power draw; strictly decreasing in the default
# catalog (note C6A undercuts C1E despite its shallower latency class).
POWER_DEPTH_ORDER: Tuple[str, ...] = ("C0", "C1", "C1E", "C6A", "C6AE", "C6")


@dataclass(frozen=True)
class PState:
    """The active operating point: the C0 power idle powers are compared to.

    A catalog's P1 is its C0's power (Catalog refuses any other), so
    active power has one key, [C0] power_w.
    """

    name: str
    c0_power_mw: int

    def __post_init__(self):
        if self.name != "P1":
            raise ValidationError(f"unknown P-state name {self.name!r}")
        require_fields(self, f"{self.name}: ")
        # Powers stay below 2**63 mW, as service times stay below 2**63 ns.
        if not 0 < self.c0_power_mw < 2 ** 63:
            raise ValidationError(f"{self.name}: C0 power must be positive and below 2**63 mW")


@dataclass(frozen=True)
class CStateSpec:
    """One idle state's latency and power contract.

    transition_time_us is the worst-case software-visible entry+exit
    cost; target_residency_us is the break-even idle duration the
    governor uses; hw_entry_ns/hw_exit_ns are the hardware-only
    latencies charged by the simulator.  C0 is never entered or exited,
    so its four latencies must be zero.  Its messages start with its name.
    """

    name: str
    transition_time_us: float
    target_residency_us: float
    power_mw: int
    hw_entry_ns: int
    hw_exit_ns: int

    @property
    def power_w(self) -> float:
        return self.power_mw / 1000.0

    @property
    def hw_total_ns(self) -> int:
        return self.hw_entry_ns + self.hw_exit_ns

    def __post_init__(self):
        if self.name not in CSTATE_NAMES:
            raise ValidationError(f"unknown C-state name {self.name!r}")
        require_fields(self, f"{self.name}: ")
        if self.transition_time_us < 0 or self.target_residency_us < 0:
            raise ValidationError(f"{self.name}: times must be nonnegative")
        # With the horizon below 2**62 ns and at most 2**12 cores, a run's
        # energy in integer picojoules then stays below 2**137, well
        # inside a float.
        if not 0 <= self.power_mw < 2 ** 63:
            raise ValidationError(f"{self.name}: power must be nonnegative and below 2**63 mW")
        if self.hw_entry_ns < 0 or self.hw_exit_ns < 0:
            raise ValidationError(f"{self.name}: hw latencies must be nonnegative")
        if self.name == "C0" and (self.transition_time_us or self.target_residency_us
                                  or self.hw_total_ns):
            raise ValidationError("C0: latencies must be zero (it is never entered or exited)")
        if self.target_residency_us < self.transition_time_us:
            raise ValidationError(
                f"{self.name}: target residency {self.target_residency_us} us "
                f"below transition time {self.transition_time_us} us"
            )
        if self.hw_total_ns > self.transition_time_us * 1000.0:
            raise ValidationError(
                f"{self.name}: hardware entry+exit {self.hw_total_ns} ns exceeds "
                f"transition time {self.transition_time_us} us"
            )


@dataclass(frozen=True)
class C6ABudget:
    """One row of the agile deep idle power budget.

    Each component contributes a [low, high] milliwatt range to the C6A
    and C6AE variants; ranges collapse to a point when low == high.
    """

    component: str
    c6a_mw: Tuple[int, int]
    c6ae_mw: Tuple[int, int]

    def __post_init__(self):
        for lo, hi in (self.c6a_mw, self.c6ae_mw):
            if lo < 0 or hi < lo:
                raise ValidationError(
                    f"budget row {self.component!r}: bad range [{lo}, {hi}]"
                )


@dataclass(frozen=True)
class Catalog:
    """Immutable bundle of C-state specs and P-states.

    Every C-state must be present, the one P-state is P1 at C0's power
    (derived from C0 when pstates is omitted, refused when a given one
    differs), and each agile state must keep its donor's transition
    time.  Treat as read-only after construction; derive variants from
    the contained specs, as Catalog(cstates).
    """

    cstates: Dict[str, CStateSpec]
    pstates: Optional[Dict[str, PState]] = None

    def __post_init__(self):
        missing = [n for n in CSTATE_NAMES if n not in self.cstates]
        if missing:
            raise ValidationError(f"catalog missing C-states: {missing}")
        c0_mw = self.cstates["C0"].power_mw
        pstates = {"P1": PState("P1", c0_mw)}
        if self.pstates is None:
            object.__setattr__(self, "pstates", pstates)
        elif self.pstates != pstates:
            raise ValidationError(f"catalog P-states must be exactly P1 at C0's {c0_mw} mW")
        for shallow, agile in REPLACEMENTS.items():
            a, b = self.cstates[shallow], self.cstates[agile]
            if a.transition_time_us != b.transition_time_us:
                raise ValidationError(
                    f"{agile} must share {shallow}'s transition time "
                    f"({b.transition_time_us} != {a.transition_time_us})"
                )

    def __getitem__(self, name: str) -> CStateSpec:
        try:
            return self.cstates[name]
        except KeyError:
            raise ValidationError(f"unknown C-state {name!r}") from None

    def pstate(self, name: str) -> PState:
        try:
            return self.pstates[name]
        except KeyError:
            raise ValidationError(f"unknown P-state {name!r}") from None

    def power_order_violations(self) -> List[str]:
        """Power must strictly decrease from C0 down to C6.

        The depth order is by power, not by latency class: the agile
        replacement of C1 already undercuts C1E (0.3 W vs 0.88 W), so
        the chain is C0 > C1 > C1E > C6A > C6AE > C6.  Returns
        human-readable violations instead of raising, so the validate
        CLI can report them as a failed check on a user catalog without
        refusing to load it.
        """
        violations = []
        for left, right in zip(POWER_DEPTH_ORDER, POWER_DEPTH_ORDER[1:]):
            pl = self.cstates[left].power_mw
            pr = self.cstates[right].power_mw
            if not pl > pr:
                violations.append(
                    f"power({left}) = {pl} mW not greater than power({right}) = {pr} mW"
                )
        return violations


# The controller flows depend only on their arguments, so each is built
# once per process rather than once per catalog.
@lru_cache(maxsize=None)
def _flow_totals_ns(variant: str) -> Tuple[int, int]:
    """Entry and exit totals of a state's flows (reference flows for C1 and C6)."""
    if variant in AGILE_STATES:
        return fsm.entry_timeline(variant).total_ns, fsm.exit_timeline(variant).total_ns
    return (fsm.reference_flow(variant, "entry").total_ns,
            fsm.reference_flow(variant, "exit").total_ns)


def default_catalog() -> Catalog:
    """Built-in catalog for a 14 nm server core (base 2.2 GHz, min 0.8 GHz)."""
    specs = [
        CStateSpec("C0", 0.0, 0.0, 4000, 0, 0),
        CStateSpec("C1", 2.0, 2.0, 1440, *_flow_totals_ns("C1")),
        CStateSpec("C6A", 2.0, 2.0, 300, *_flow_totals_ns("C6A")),
        CStateSpec("C1E", 10.0, 20.0, 880, 5000, 5000),
        CStateSpec("C6AE", 10.0, 20.0, 230, *_flow_totals_ns("C6AE")),
        CStateSpec("C6", 133.0, 600.0, 100, *_flow_totals_ns("C6")),
    ]
    return Catalog({s.name: s for s in specs})


def default_budget() -> List[C6ABudget]:
    """Component-level breakdown of C6A/C6AE residual power, in mW."""
    return [
        C6ABudget("power-gate residual leakage", (30, 50), (18, 30)),
        C6ABudget("context retention", (2, 2), (1, 1)),
        C6ABudget("cache sleep mode", (55, 55), (40, 40)),
        C6ABudget("rest of memory subsystem", (55, 55), (33, 33)),
        C6ABudget("power-management flow", (5, 5), (5, 5)),
        C6ABudget("adpll", (7, 7), (7, 7)),
        C6ABudget("regulator inefficiency", (36, 41), (23, 27)),
        C6ABudget("regulator static", (100, 100), (100, 100)),
    ]


def budget_total(rows: List[C6ABudget], variant: str) -> Tuple[int, int]:
    """Sum a budget's rows for one variant; returns (low, high) in mW."""
    if not rows:
        raise ValidationError("empty budget")
    if variant == "C6A":
        ranges = [r.c6a_mw for r in rows]
    elif variant == "C6AE":
        ranges = [r.c6ae_mw for r in rows]
    else:
        raise ValidationError(f"budget variant must be C6A or C6AE, got {variant!r}")
    return (sum(lo for lo, _ in ranges), sum(hi for _, hi in ranges))


def power_ratio_vs_active(state: CStateSpec, active: PState) -> float:
    """Idle power as a fraction of the given active operating point."""
    return state.power_mw / active.c0_power_mw


# ---------------------------------------------------------------------------
# Serialization: INI-style text, one section per state.  See docs/formats.md.
# ---------------------------------------------------------------------------

def dumps_catalog(catalog: Catalog) -> str:
    """Render a catalog to its canonical text form (byte-stable)."""
    out = io.StringIO()
    for name in CSTATE_NAMES:
        spec = catalog.cstates[name]
        out.write(f"[{name}]\n")
        for f, key, kind in file_fields(CStateSpec)[1:]:
            value = getattr(spec, f.name)
            if key != f.name:
                value = f"{value / 1000.0:g}"
            elif kind is float:
                value = f"{value:g}"
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()


def loads_catalog(text: str) -> Catalog:
    """Parse catalog text (see docs/formats.md).

    Each section's keys are its spec's fields after the name, a *_mw
    field as the key *_w in watts (errors.file_fields).  A section, or
    a key, that is absent or empty keeps the built-in catalog's value
    for the same state, so a file can give a single key.  Unknown
    sections and keys and malformed numbers raise ParseError; values
    that parse but break a spec's contract raise ValidationError.
    """
    cp = read_ini(text, "catalog file")
    specs = dict(default_catalog().cstates)
    for section in cp.sections():
        base = specs.get(section)
        if base is None:
            raise ParseError(f"unknown section [{section}]")
        specs[section] = read_section(cp, section, CStateSpec, base, name=section)
    return Catalog(specs)


def load_catalog(path: str) -> Catalog:
    return loads_catalog(read_input(path))
