"""Power and latency catalog for core idle states.

The catalog is the single source of truth for per-state power draw,
worst-case transition times, target residencies, and hardware
entry/exit latencies.  Powers are stored internally as integer
milliwatts so that golden-value arithmetic is exact; every public
interface speaks watts.

Six states are modeled:

    C0     active, at the base (P1) or minimum (Pn) operating point
    C1     core clocks stopped, everything else powered
    C6A    core logic power-gated with in-place state retention,
           caches in sleep mode but coherent, PLL locked (agile deep idle)
    C1E    C1 plus a switch to the minimum-voltage/frequency point
    C6AE   C6A plus the minimum-voltage/frequency point (agile deep idle)
    C6     caches flushed, context saved off-core, PLL off, domain shut off

C6A deliberately shares C1's latency class (same transition time and
target residency) and C6AE shares C1E's, while drawing close-to-C6
power; that pairing is what the analytic model and simulator exploit.
The built-in C6A/C6AE hardware entry/exit latencies are the totals of
their controller flows (fsm), so the flows stay their one definition.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import MISSING, Field, dataclass, fields
from functools import lru_cache
from typing import Dict, List, Tuple, get_type_hints

from . import fsm
from .errors import ParseError, ValidationError, read_input

__all__ = [
    "CSTATE_NAMES",
    "IDLE_STATES",
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
    "save_catalog",
    "dumps_catalog",
]

# Canonical listing order: each agile state right after the state whose
# latency class it shares.
CSTATE_NAMES: Tuple[str, ...] = ("C0", "C1", "C6A", "C1E", "C6AE", "C6")
IDLE_STATES: Tuple[str, ...] = ("C1", "C6A", "C1E", "C6AE", "C6")
# Each agile deep idle state replaces the shallow state whose latency
# class it shares.
REPLACEMENTS = {"C1": "C6A", "C1E": "C6AE"}
AGILE_STATES = frozenset(REPLACEMENTS.values())
# Shallow-to-deep by power draw; strictly decreasing in the default
# catalog (note C6A undercuts C1E despite its shallower latency class).
POWER_DEPTH_ORDER: Tuple[str, ...] = ("C0", "C1", "C1E", "C6A", "C6AE", "C6")

PSTATE_NAMES: Tuple[str, ...] = ("P1", "Pn")


@dataclass(frozen=True)
class PState:
    """An active operating point: frequency plus the C0 power it implies."""

    name: str
    frequency_ghz: float
    c0_power_mw: int

    @property
    def c0_power_w(self) -> float:
        return self.c0_power_mw / 1000.0

    def __post_init__(self):
        if self.name not in PSTATE_NAMES:
            raise ValidationError(f"unknown P-state name {self.name!r}")
        if not (math.isfinite(self.frequency_ghz) and self.frequency_ghz > 0):
            raise ValidationError(f"{self.name}: frequency must be finite and positive")
        if self.c0_power_mw <= 0:
            raise ValidationError(f"{self.name}: C0 power must be positive")


@dataclass(frozen=True)
class CStateSpec:
    """One idle state's latency and power contract.

    transition_time_us is the worst-case software-visible entry+exit
    cost; target_residency_us is the break-even idle duration the
    governor uses; hw_entry_ns/hw_exit_ns are the hardware-only
    latencies charged by the simulator.  The descriptive fields record
    what each state does to clocks, PLL, caches, voltage, and context.
    """

    name: str
    transition_time_us: float
    target_residency_us: float
    power_mw: int
    hw_entry_ns: int
    hw_exit_ns: int
    implied_pstate: str
    clocks: str = ""
    adpll: str = ""
    caches: str = ""
    voltage: str = ""
    context: str = ""

    @property
    def power_w(self) -> float:
        return self.power_mw / 1000.0

    @property
    def hw_total_ns(self) -> int:
        return self.hw_entry_ns + self.hw_exit_ns

    def __post_init__(self):
        if self.name not in CSTATE_NAMES:
            raise ValidationError(f"unknown C-state name {self.name!r}")
        if self.implied_pstate not in PSTATE_NAMES:
            raise ValidationError(
                f"{self.name}: implied_pstate must be one of {PSTATE_NAMES}"
            )
        # Chained comparisons also reject NaN, which compares false.
        if not (0 <= self.transition_time_us < math.inf
                and 0 <= self.target_residency_us < math.inf):
            raise ValidationError(f"{self.name}: times must be finite and nonnegative")
        if self.power_mw < 0:
            raise ValidationError(f"{self.name}: power must be nonnegative")
        if self.hw_entry_ns < 0 or self.hw_exit_ns < 0:
            raise ValidationError(f"{self.name}: hw latencies must be nonnegative")
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

    Treat as read-only after construction; derive variants with
    dataclasses.replace on the contained specs.
    """

    cstates: Dict[str, CStateSpec]
    pstates: Dict[str, PState]

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

    def validate(self) -> None:
        """Structural checks: all states present, latency classes paired."""
        missing = [n for n in CSTATE_NAMES if n not in self.cstates]
        if missing:
            raise ValidationError(f"catalog missing C-states: {missing}")
        missing_p = [n for n in PSTATE_NAMES if n not in self.pstates]
        if missing_p:
            raise ValidationError(f"catalog missing P-states: {missing_p}")
        for shallow, agile in REPLACEMENTS.items():
            a, b = self.cstates[shallow], self.cstates[agile]
            if a.transition_time_us != b.transition_time_us:
                raise ValidationError(
                    f"{agile} must share {shallow}'s transition time "
                    f"({b.transition_time_us} != {a.transition_time_us})"
                )

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
    pstates = {
        "P1": PState("P1", 2.2, 4000),
        "Pn": PState("Pn", 0.8, 1000),
    }
    specs = [
        CStateSpec(
            "C0", 0.0, 0.0, 4000, 0, 0, "P1",
            clocks="running", adpll="on", caches="coherent",
            voltage="active", context="maintained",
        ),
        CStateSpec(
            "C1", 2.0, 2.0, 1440, *_flow_totals_ns("C1"), "P1",
            clocks="stopped", adpll="on", caches="coherent",
            voltage="active", context="maintained",
        ),
        CStateSpec(
            "C6A", 2.0, 2.0, 300, *_flow_totals_ns("C6A"), "P1",
            clocks="stopped", adpll="on", caches="coherent",
            voltage="gated domain in retention, rest active",
            context="retained in place",
        ),
        CStateSpec(
            "C1E", 10.0, 20.0, 880, 5000, 5000, "Pn",
            clocks="stopped", adpll="on", caches="coherent",
            voltage="min v/f", context="maintained",
        ),
        CStateSpec(
            "C6AE", 10.0, 20.0, 230, *_flow_totals_ns("C6AE"), "Pn",
            clocks="stopped", adpll="on", caches="coherent",
            voltage="gated domain in retention, rest min v/f",
            context="retained in place",
        ),
        CStateSpec(
            "C6", 133.0, 600.0, 100, *_flow_totals_ns("C6"), "Pn",
            clocks="stopped", adpll="off", caches="flushed",
            voltage="shut off", context="saved to external sram",
        ),
    ]
    cat = Catalog({s.name: s for s in specs}, pstates)
    cat.validate()
    return cat


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

@lru_cache(maxsize=None)
def _file_fields(cls) -> Tuple[Tuple[Field, str, type], ...]:
    """(field, file key, type) for each field of a spec after its name.

    The fields are the file's keys, in order; a *_mw field is the key
    *_w, written and read in watts.
    """
    hints = get_type_hints(cls)
    return tuple(
        (f, f.name[:-3] + "_w" if f.name.endswith("_mw") else f.name, hints[f.name])
        for f in fields(cls)[1:]
    )


def dumps_catalog(catalog: Catalog) -> str:
    """Render a catalog to its canonical text form (byte-stable)."""
    out = io.StringIO()
    sections = [(f"pstate:{n}", catalog.pstates[n]) for n in PSTATE_NAMES]
    sections += [(n, catalog.cstates[n]) for n in CSTATE_NAMES]
    for header, spec in sections:
        out.write(f"[{header}]\n")
        for f, key, kind in _file_fields(type(spec)):
            value = getattr(spec, f.name)
            if key != f.name:
                value = f"{value / 1000.0:g}"
            elif kind is float:
                value = f"{value:g}"
            out.write(f"{key} = {value}\n")
        out.write("\n")
    return out.getvalue()


def save_catalog(catalog: Catalog, path: str) -> None:
    with open(path, "w") as f:
        f.write(dumps_catalog(catalog))


def _watts_to_mw(value: float, where: str) -> int:
    # Powers are quantized to whole milliwatts on ingest.
    mw = value * 1000.0
    if not (math.isfinite(mw) and mw >= 0):
        raise ParseError(f"{where}: power must be finite and nonnegative")
    return round(mw)


def _read_spec(sec, section: str, base):
    """A spec of base's type from one section, key by key from its fields.

    A field with no dataclass default is a required key; an absent key
    with a default keeps base's value.
    """
    spec_fields = _file_fields(type(base))
    unknown = sorted(set(sec) - {key for _, key, _ in spec_fields})
    if unknown:
        raise ParseError(f"[{section}] unknown keys: {unknown}")
    values = {}
    try:
        for f, key, kind in spec_fields:
            raw = sec[key] if f.default is MISSING else sec.get(key)
            if raw is None:
                values[f.name] = getattr(base, f.name)
            elif key != f.name:
                values[f.name] = _watts_to_mw(float(raw), section)
            else:
                values[f.name] = kind(raw)
        return type(base)(base.name, **values)
    except KeyError as e:
        raise ParseError(f"[{section}] missing key {e}") from None
    except ValueError as e:
        raise ParseError(f"[{section}]: {e}") from None


def loads_catalog(text: str) -> Catalog:
    """Parse catalog text.  Unknown keys are rejected; unknown sections too.

    Each section's keys are its spec's fields (see _file_fields).
    Descriptive keys (clocks, adpll, caches, voltage, context) are
    optional and default to the built-in catalog's wording for the same
    state, so a numeric-only override file stays short.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ParseError(f"bad catalog file: {e}") from None
    if cp.defaults():
        raise ParseError(f"unknown section {cp.default_section!r}")

    base = default_catalog()
    pstates: Dict[str, PState] = {}
    cstates: Dict[str, CStateSpec] = {}
    for section in cp.sections():
        if section.startswith("pstate:"):
            name = section.split(":", 1)[1]
            if name not in PSTATE_NAMES:
                raise ParseError(f"unknown P-state section {section!r}")
            pstates[name] = _read_spec(cp[section], section, base.pstates[name])
        elif section in CSTATE_NAMES:
            cstates[section] = _read_spec(cp[section], section, base.cstates[section])
        else:
            raise ParseError(f"unknown section {section!r}")

    # Sections not present fall back to the built-in values, so a file can
    # override a single state.
    for name in PSTATE_NAMES:
        pstates.setdefault(name, base.pstates[name])
    for name in CSTATE_NAMES:
        cstates.setdefault(name, base.cstates[name])

    cat = Catalog(cstates, pstates)
    cat.validate()
    return cat


def load_catalog(path: str) -> Catalog:
    return loads_catalog(read_input(path))
