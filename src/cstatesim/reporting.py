"""Trace and config ingestion, report serialization, plot tables.

File formats are documented in docs/formats.md.  All floats in emitted
documents are quantized to 6 significant digits at construction, which
makes serialization byte-stable: parsing an emitted document and
re-emitting it reproduces the bytes, and the canonical hash (which
drops the provenance timestamp) is stable for a given seed.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence

from . import __version__
from .catalog import CSTATE_NAMES
from .errors import ParseError, ValidationError, read_input
from .model import TRANSITION_BUCKET, PerfModel, ResidencyProfile
from .sim import (
    ArrivalSpec,
    GovernorPolicy,
    ServiceSpec,
    SimConfig,
    SimReport,
    SnoopSpec,
    SweepPoint,
    VariantSpec,
)

__all__ = [
    "SCHEMA_VERSION",
    "load_residency_csv",
    "loads_residency_csv",
    "dumps_residency_csv",
    "save_document",
    "make_document",
    "sim_report_document",
    "sweep_document",
    "estimate_document",
    "document_to_json",
    "parse_document",
    "canonical_hash",
    "emit_plot_table",
    "format_timeline",
    "timeline_csv",
    "ParsedSimConfig",
    "load_sim_config",
    "loads_sim_config",
    "config_to_dict",
]

SCHEMA_VERSION = 1

_RESIDENCY_HEADER = ["state", "fraction", "transitions"]
_KNOWN_TRACE_STATES = set(CSTATE_NAMES) | {TRANSITION_BUCKET}


# ---------------------------------------------------------------------------
# Residency CSV
# ---------------------------------------------------------------------------

def loads_residency_csv(text: str, duration_s: Optional[float] = None) -> ResidencyProfile:
    """Parse a residency trace.

    Format: optional `# duration_s=<x>` comment lines, then a
    `state,fraction,transitions` header, then one row per state.  An
    explicit duration_s argument wins over the comment; with neither,
    the duration defaults to 1 s (fraction-only uses are unaffected).
    """
    residency: Dict[str, float] = {}
    transitions: Dict[str, int] = {}
    comment_duration: Optional[float] = None
    header_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("duration_s"):
                try:
                    comment_duration = float(body.split("=", 1)[1])
                except (IndexError, ValueError):
                    raise ParseError(f"bad duration comment {line!r}", lineno) from None
            continue
        cells = [c.strip() for c in line.split(",")]
        if not header_seen:
            if cells != _RESIDENCY_HEADER:
                raise ParseError(
                    f"expected header {','.join(_RESIDENCY_HEADER)!r}, got {line!r}",
                    lineno,
                )
            header_seen = True
            continue
        if len(cells) != 3:
            raise ParseError(f"expected 3 columns, got {len(cells)}", lineno)
        state, frac_text, trans_text = cells
        if state not in _KNOWN_TRACE_STATES:
            raise ParseError(f"unknown state {state!r}", lineno)
        if state in residency:
            raise ParseError(f"duplicate state {state!r}", lineno)
        try:
            frac = float(frac_text)
        except ValueError:
            raise ParseError(f"bad fraction {frac_text!r}", lineno) from None
        try:
            trans = int(trans_text)
        except ValueError:
            raise ParseError(f"bad transition count {trans_text!r}", lineno) from None
        residency[state] = frac
        transitions[state] = trans

    if not header_seen:
        raise ParseError("missing residency header")
    if not residency:
        raise ParseError("no residency rows")

    if duration_s is None:
        duration_s = comment_duration if comment_duration is not None else 1.0
    # ResidencyProfile handles renormalization and sum validation.
    return ResidencyProfile(duration_s=duration_s, residency=residency,
                            transitions=transitions)


def load_residency_csv(path: str, duration_s: Optional[float] = None) -> ResidencyProfile:
    return loads_residency_csv(read_input(path), duration_s=duration_s)


def dumps_residency_csv(profile: ResidencyProfile) -> str:
    out = io.StringIO()
    out.write(f"# duration_s={_fmt6(profile.duration_s)}\n")
    out.write(",".join(_RESIDENCY_HEADER) + "\n")
    for state in sorted(profile.residency):
        out.write(
            f"{state},{_fmt6(profile.residency[state])},"
            f"{profile.transitions.get(state, 0)}\n"
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------

def _fmt6(x: float) -> str:
    return f"{x:.6g}"


def _q(value):
    """Quantize every float in a JSON-ish structure to 6 significant digits."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(_fmt6(value))
    if isinstance(value, dict):
        return {k: _q(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_q(v) for v in value]
    return value


def config_to_dict(config: SimConfig) -> dict:
    """Every SimConfig field, nested specs as dicts, the menu as a sorted list."""
    return {**asdict(config), "cstates_enabled": sorted(config.cstates_enabled)}


def _profile_dict(profile: ResidencyProfile) -> dict:
    return {
        "duration_s": profile.duration_s,
        "residency": {k: profile.residency[k] for k in sorted(profile.residency)},
        "transitions": {
            k: profile.transitions[k] for k in sorted(profile.transitions)
        },
    }


def make_document(kind: str, config: Optional[dict], results: dict,
                  seed: Optional[int]) -> dict:
    """Wrap results in the versioned report envelope.

    The provenance timestamp is informational only and excluded from
    canonical hashing.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": _q(config) if config is not None else None,
        "results": _q(results),
        "provenance": {
            "seed": seed,
            "tool": "cstatesim",
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
    }


def sim_report_document(report: SimReport) -> dict:
    results = {
        "energy_j": report.energy_j,
        "avg_power_w": report.avg_power_w,
        "latency_us": asdict(report.latency_us),
        "residency": _profile_dict(report.residency),
        "per_core": [_profile_dict(p) for p in report.per_core],
        "transitions": {k: report.transitions[k] for k in sorted(report.transitions)},
        "wakeups_aborted": report.wakeups_aborted,
        "snoops_served": report.snoops_served,
        "requests": {
            "offered": report.requests_offered,
            "completed": report.requests_completed,
        },
        "saturated": report.saturated,
        "peak_queue": report.peak_queue,
    }
    return make_document("sim_report", config_to_dict(report.config), results,
                         report.seed)


def sweep_document(points: Sequence[SweepPoint], base: SimConfig) -> dict:
    results = {
        "points": [
            {
                "variant": p.variant,
                "qps": p.qps,
                "seed": p.report.seed,
                "avg_power_w": p.report.avg_power_w,
                "savings_vs_first": p.savings_vs_first,
                "mean_delta_vs_first": p.mean_delta_vs_first,
                "p99_delta_vs_first": p.p99_delta_vs_first,
                "latency_us": asdict(p.report.latency_us),
                "saturated": p.report.saturated,
            }
            for p in points
        ],
    }
    return make_document("sweep", config_to_dict(base), results, base.seed)


def estimate_document(kind: str, estimate_dict: dict) -> dict:
    return make_document(kind, None, estimate_dict, None)


def document_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad report JSON: {e}") from None
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ParseError("not a report document (missing schema_version)")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema_version {doc['schema_version']!r}"
        )
    return doc


def canonical_hash(doc: dict) -> str:
    """SHA-256 over the canonical JSON form, timestamp excluded."""
    trimmed = json.loads(json.dumps(doc))  # deep copy via JSON
    prov = trimmed.get("provenance")
    if isinstance(prov, dict):
        prov.pop("timestamp", None)
    canonical = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_document(doc: dict, path: str) -> None:
    with open(path, "w") as f:
        f.write(document_to_json(doc))


# ---------------------------------------------------------------------------
# Plot table
# ---------------------------------------------------------------------------

_PLOT_COLUMNS = [
    "variant", "qps", "avg_power_w", "savings_pct",
    "mean_us", "p50_us", "p95_us", "p99_us", "p999_us",
    "mean_degradation_pct", "p99_degradation_pct",
]


def emit_plot_table(points: Sequence[SweepPoint]) -> str:
    """One CSV row per (variant, load): power, savings, latency, degradation.

    Percentages are against the first variant at the same load; the
    first variant's own rows carry zeros.  Column order is fixed (see
    docs/formats.md).
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_PLOT_COLUMNS)
    for p in points:
        lat = p.report.latency_us
        writer.writerow([
            p.variant,
            _fmt6(p.qps),
            _fmt6(p.report.avg_power_w),
            _fmt6(p.savings_vs_first * 100.0),
            _fmt6(lat.mean),
            _fmt6(lat.p50),
            _fmt6(lat.p95),
            _fmt6(lat.p99),
            _fmt6(lat.p999),
            _fmt6(p.mean_delta_vs_first * 100.0),
            _fmt6(p.p99_delta_vs_first * 100.0),
        ])
    return out.getvalue()


# ---------------------------------------------------------------------------
# FSM timeline rendering
# ---------------------------------------------------------------------------

def format_timeline(timeline) -> str:
    """Aligned text table of a controller flow."""
    rows = timeline.rows()
    label_w = max(len(r[0]) for r in rows)
    head = (
        f"{timeline.variant} {timeline.flow} @ {timeline.controller_mhz} MHz, "
        f"total {timeline.total_ns} ns"
    )
    lines = [head, "-" * len(head)]
    lines.append(
        f"{'step':<{label_w}}  {'cycles':>6}  {'fixed_ns':>8}  {'cum_ns':>6}"
    )
    for label, cycles, fixed_ns, cum in rows:
        lines.append(f"{label:<{label_w}}  {cycles:>6}  {fixed_ns:>8}  {cum:>6}")
    return "\n".join(lines) + "\n"


def timeline_csv(timeline) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["step", "cycles", "fixed_ns", "cum_ns"])
    for label, cycles, fixed_ns, cum in timeline.rows():
        writer.writerow([label, cycles, fixed_ns, cum])
    return out.getvalue()


# ---------------------------------------------------------------------------
# Simulation config files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParsedSimConfig:
    """A sim config file: the base config, perf model, named variants."""

    config: SimConfig
    perf: PerfModel
    variants: Dict[str, VariantSpec] = field(default_factory=dict)


def _getfloat(sec, key, default=None):
    raw = sec.get(key)
    if raw is None or raw.strip() == "":
        if default is None:
            raise ParseError(f"[{sec.name}] missing key {key!r}")
        return default
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"[{sec.name}] bad number for {key!r}: {raw!r}") from None


def _getint(sec, key, default=None):
    raw = sec.get(key)
    if raw is None or raw.strip() == "":
        if default is None:
            raise ParseError(f"[{sec.name}] missing key {key!r}")
        return default
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"[{sec.name}] bad integer for {key!r}: {raw!r}") from None


def _getoptfloat(sec, key):
    """An optional number: None when the key is absent or empty."""
    if not (sec.get(key) or "").strip():
        return None
    return _getfloat(sec, key)


def _check_keys(sec, allowed) -> None:
    unknown = sorted(set(sec) - set(allowed))
    if unknown:
        raise ParseError(f"[{sec.name}] unknown key {unknown[0]!r}")


# Sections that map onto the fields of a spec dataclass; each key's type
# is its field default's type.  [perf] takes only the fields run reads,
# through PerfModel.service_inflation: delta_transition_ns is the
# analytic model's knob (model estimate-aw --delta-ns), not the
# simulator's.
_SPEC_SECTIONS = {
    "arrival": ArrivalSpec,
    "service": ServiceSpec,
    "governor": GovernorPolicy,
    "snoop": SnoopSpec,
    "perf": PerfModel,
}
_SIM_KEYS = (
    "cores", "duration_s", "seed", "cstates_enabled", "dispatch",
    "network_rtt_us", "pack_queue_cap", "turbo_c0_power_w",
)
_PERF_KEYS = ("freq_penalty", "scalability")
_VARIANT_KEYS = ("cstates", "turbo_c0_power_w")
_GETTERS = {float: _getfloat, int: _getint}


def _spec_from_section(cp, name):
    """The section's spec dataclass, with each absent key at its default."""
    cls = _SPEC_SECTIONS[name]
    if name not in cp:
        return cls()
    sec = cp[name]
    specs = [f for f in fields(cls) if name != "perf" or f.name in _PERF_KEYS]
    _check_keys(sec, [f.name for f in specs])
    kwargs = {}
    for f in specs:
        getter = _GETTERS.get(type(f.default))
        if getter is not None:
            kwargs[f.name] = getter(sec, f.name, f.default)
        else:
            kwargs[f.name] = (sec.get(f.name) or "").strip() or f.default
    return cls(**kwargs)


def _state_list(raw: str) -> frozenset:
    return frozenset(s.strip() for s in raw.split(",") if s.strip())


def loads_sim_config(text: str) -> ParsedSimConfig:
    """Parse the INI-style simulation config (see docs/formats.md).

    Unknown sections and keys and malformed numbers raise ParseError;
    values that parse but break a contract raise ValidationError.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ParseError(f"bad sim config: {e}") from None
    if "sim" not in cp:
        raise ParseError("sim config needs a [sim] section")
    if cp.defaults():
        raise ParseError(f"unknown section [{cp.default_section}]")
    for section in cp.sections():
        if section != "sim" and section not in _SPEC_SECTIONS \
                and not section.startswith("variant:"):
            raise ParseError(f"unknown section [{section}]")

    sim_sec = cp["sim"]
    _check_keys(sim_sec, _SIM_KEYS)
    config = SimConfig(
        cores=_getint(sim_sec, "cores"),
        duration_s=_getfloat(sim_sec, "duration_s"),
        seed=_getint(sim_sec, "seed"),
        arrival=_spec_from_section(cp, "arrival"),
        service=_spec_from_section(cp, "service"),
        dispatch=sim_sec.get("dispatch", "round_robin").strip() or "round_robin",
        governor=_spec_from_section(cp, "governor"),
        cstates_enabled=_state_list(sim_sec.get("cstates_enabled", "C0,C1,C1E,C6")),
        turbo_c0_power_w=_getoptfloat(sim_sec, "turbo_c0_power_w"),
        snoop=_spec_from_section(cp, "snoop"),
        network_rtt_us=_getfloat(sim_sec, "network_rtt_us", 0.0),
        pack_queue_cap=_getint(sim_sec, "pack_queue_cap", 4),
    )
    perf = _spec_from_section(cp, "perf")

    variants: Dict[str, VariantSpec] = {}
    for section in cp.sections():
        if not section.startswith("variant:"):
            continue
        name = section.split(":", 1)[1].strip()
        if not name:
            raise ParseError(f"variant section {section!r} needs a name")
        sec = cp[section]
        states = _state_list(sec.get("cstates", ""))
        if not states:
            raise ParseError(f"[{section}] needs a cstates list")
        _check_keys(sec, _VARIANT_KEYS)
        variants[name] = VariantSpec(name, states, _getoptfloat(sec, "turbo_c0_power_w"))

    return ParsedSimConfig(config=config, perf=perf, variants=variants)


def load_sim_config(path: str) -> ParsedSimConfig:
    return loads_sim_config(read_input(path))
