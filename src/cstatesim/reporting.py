"""Trace and config ingestion, report serialization, plot tables.

File formats are documented in docs/formats.md.  All floats in emitted
documents are quantized to 6 significant digits at construction, which
makes serialization byte-stable: parsing an emitted document and
re-emitting it reproduces the bytes, and the canonical hash (which
drops the provenance timestamp) is stable for a given seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Dict, Optional, Sequence

from . import __version__
from .catalog import CSTATE_NAMES
from .errors import ParseError, file_fields, read_ini, read_input, read_section
from .model import TRANSITION_BUCKET, PerfModel, ResidencyProfile
from .sim import SimConfig, SimReport, SweepPoint, VariantSpec

__all__ = [
    "SCHEMA_VERSION",
    "load_residency_csv",
    "loads_residency_csv",
    "dumps_residency_csv",
    "loads_residency_items",
    "make_document",
    "sim_report_document",
    "sweep_document",
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

def _add_fraction(residency: Dict[str, float], state: str, frac_text: str,
                  lineno: Optional[int] = None) -> None:
    """Check one state=fraction row and record it (CSV rows and inline items)."""
    if state not in _KNOWN_TRACE_STATES:
        raise ParseError(f"unknown state {state!r}", lineno)
    if state in residency:
        raise ParseError(f"duplicate state {state!r}", lineno)
    try:
        residency[state] = float(frac_text)
    except ValueError:
        raise ParseError(f"bad fraction {frac_text!r}", lineno) from None


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
        _add_fraction(residency, state, frac_text, lineno)
        try:
            transitions[state] = int(trans_text)
        except ValueError:
            raise ParseError(f"bad transition count {trans_text!r}", lineno) from None

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


def loads_residency_items(text: str, duration_s: Optional[float] = None) -> ResidencyProfile:
    """Parse an inline profile: comma-separated NAME=FRACTION items.

    Each item passes the same checks as a CSV row; inline items carry
    no transition counts, and the duration defaults to 1 s.
    """
    residency: Dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        state, sep, frac_text = item.partition("=")
        if not sep:
            raise ParseError(f"bad residency item {item!r}, expected NAME=FRACTION")
        _add_fraction(residency, state.strip(), frac_text.strip())
    if not residency:
        raise ParseError("empty residency specification")
    return ResidencyProfile(duration_s=1.0 if duration_s is None else duration_s,
                            residency=residency)


def dumps_residency_csv(profile: ResidencyProfile) -> str:
    """Render a profile as a residency CSV; floats are written with repr,
    so the file reads back to the same profile exactly."""
    out = io.StringIO()
    out.write(f"# duration_s={profile.duration_s!r}\n")
    out.write(",".join(_RESIDENCY_HEADER) + "\n")
    for state in sorted(profile.residency):
        out.write(
            f"{state},{profile.residency[state]!r},"
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
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        },
    }


def sim_report_document(report: SimReport) -> dict:
    results = {
        "energy_j": report.energy_j,
        "avg_power_w": report.avg_power_w,
        "latency_us": asdict(report.latency_us),
        "residency": asdict(report.residency),
        "per_core": [asdict(p) for p in report.per_core],
        "transitions": report.transitions,
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
                         report.config.seed)


def sweep_document(points: Sequence[SweepPoint], base: SimConfig) -> dict:
    results = {
        "points": [
            {
                "variant": p.variant,
                "qps": p.qps,
                "seed": p.report.config.seed,
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
    prov = doc.get("provenance")
    if isinstance(prov, dict):
        doc = {**doc, "provenance": {k: v for k, v in prov.items() if k != "timestamp"}}
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


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


# Keys that only one mode reads, each with that mode and its test: given
# in another mode, such a key would be parsed and then ignored.  Reads
# that depend on the menu stay out, because a sweep variant changes it.
_MODE_KEYS = (
    ("sim", "pack_queue_cap", "dispatch = pack_lowest_index",
     lambda c: c.dispatch == "pack_lowest_index"),
    ("arrival", "burst_on_ms", "process = bursty", lambda c: c.arrival.process == "bursty"),
    ("arrival", "burst_off_ms", "process = bursty", lambda c: c.arrival.process == "bursty"),
    ("service", "sigma", "dist = lognormal", lambda c: c.service.dist == "lognormal"),
    ("governor", "ewma_alpha", "predictor = ewma", lambda c: c.governor.predictor == "ewma"),
    ("snoop", "service_ns", "rate_per_core_hz > 0", lambda c: c.snoop.rate_per_core_hz > 0),
)


def loads_sim_config(text: str) -> ParsedSimConfig:
    """Parse the INI-style simulation config (see docs/formats.md).

    [sim] holds SimConfig's keys, and each of its spec fields has a
    section of the same name.  An absent or empty key keeps its field's
    dataclass default; a field with none is a missing key.  A non-empty
    key that only one mode reads (_MODE_KEYS) is refused outside that
    mode.  [perf] takes only the PerfModel fields run reads, through
    PerfModel.service_inflation: delta_transition_ns is the analytic
    model's knob (model estimate-aw --delta-ns), not the simulator's.
    Unknown sections and keys, malformed numbers and keys outside their
    mode raise ParseError; values that parse but break a contract raise
    ValidationError.
    """
    cp = read_ini(text, "sim config")
    if "sim" not in cp:
        raise ParseError("sim config needs a [sim] section")
    known = {"sim", "perf"} | {f.name for f, _, hint in file_fields(SimConfig)
                               if is_dataclass(hint)}
    for section in cp.sections():
        if section not in known and not section.startswith("variant:"):
            raise ParseError(f"unknown section [{section}]")

    config = read_section(cp, "sim", SimConfig)
    for section, key, mode, reads in _MODE_KEYS:
        if cp.get(section, key, fallback="").strip() and not reads(config):
            raise ParseError(f"[{section}] key {key!r} is read only when {mode}")
    # Not a [perf] key: the field keeps its default.
    perf = read_section(cp, "perf", PerfModel,
                        delta_transition_ns=PerfModel.delta_transition_ns)

    variants: Dict[str, VariantSpec] = {}
    for section in cp.sections():
        if not section.startswith("variant:"):
            continue
        name = section.split(":", 1)[1].strip()
        if not name:
            raise ParseError(f"variant section {section!r} needs a name")
        if not cp[section].get("cstates", "").replace(",", " ").split():
            raise ParseError(f"[{section}] needs a cstates list")
        variants[name] = read_section(cp, section, VariantSpec, name=name)

    return ParsedSimConfig(config=config, perf=perf, variants=variants)


def load_sim_config(path: str) -> ParsedSimConfig:
    return loads_sim_config(read_input(path))
