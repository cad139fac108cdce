"""Command-line front end.

Subcommands:

  model upper-bound   ideal-replacement savings bound on a residency profile
  model estimate      residency-weighted average power
  model estimate-aw   agile-idle estimate with rescaling and renaming
  sim run             simulate one config file
  sim sweep           cross-product of loads and variants
  fsm trace           controller flow timelines as text or CSV
  validate            golden and invariant checks on a catalog

Exit codes: 0 success, 1 validation or check failure (an input file
that is not UTF-8 text included), 2 usage errors (including input or
output files that cannot be opened).  Nothing reads stdin; all
randomness comes from the seed in the config; machine-readable output
goes only to the paths given via --out/--plot/--csv.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from typing import Dict, List, Optional

from . import __version__, fsm
from .catalog import (
    AGILE_STATES,
    POWER_DEPTH_ORDER,
    Catalog,
    default_budget,
    default_catalog,
    budget_total,
    load_catalog,
    power_ratio_vs_active,
)
from .demo import DEMO_DURATION_S, DEMO_SEED, demo_sweep
from .errors import ParseError, ValidationError
from .model import (
    PerfModel,
    ResidencyProfile,
    avg_power,
    avg_power_aw,
    upper_bound_savings,
)
from .reporting import (
    document_to_json,
    emit_plot_table,
    format_timeline,
    load_residency_csv,
    load_sim_config,
    loads_residency_items,
    make_document,
    sim_report_document,
    sweep_document,
    timeline_csv,
)
from .sim import SimReport, SweepPoint, VariantSpec, run, sweep

# Idle-state menus available by name to `sim sweep --variants`; config
# files can define more via [variant:<name>] sections.
BUILTIN_VARIANTS: Dict[str, VariantSpec] = {v.name: v for v in (
    VariantSpec("baseline", frozenset({"C0", "C1", "C1E", "C6"})),
    VariantSpec("no_c6", frozenset({"C0", "C1", "C1E"})),
    VariantSpec("no_c6_no_c1e", frozenset({"C0", "C1"})),
    VariantSpec("agile", frozenset({"C0", "C6A", "C6AE", "C6"})),
    VariantSpec("agile_no_c6_no_c1e", frozenset({"C0", "C6A"})),
)}


def _write(path: str, text: str) -> None:
    """Write one output file and say so on stdout."""
    with open(path, "w") as f:
        f.write(text)
    print(f"wrote {path}")


def _profile_from_args(args, duration_s: Optional[float] = None) -> ResidencyProfile:
    if args.trace:
        return load_residency_csv(args.trace, duration_s=duration_s)
    if args.residency:
        return loads_residency_items(args.residency, duration_s=duration_s)
    raise ValidationError("give a profile via --residency or --trace")


def _catalog_from_args(args) -> Catalog:
    return load_catalog(args.catalog) if args.catalog else default_catalog()


def _perf_from_args(args) -> PerfModel:
    return PerfModel(
        freq_penalty=args.freq_penalty,
        scalability=args.scalability,
        delta_transition_ns=args.delta_ns,
    )


# ---------------------------------------------------------------------------
# model subcommands
# ---------------------------------------------------------------------------

def cmd_model_upper_bound(args) -> int:
    catalog = _catalog_from_args(args)
    profile = _profile_from_args(args)
    savings = upper_bound_savings(profile, catalog)
    print(f"savings {savings * 100.0:.1f}%")
    return 0


def cmd_model_estimate(args) -> int:
    catalog = _catalog_from_args(args)
    profile = _profile_from_args(args)
    est = avg_power(profile, catalog)
    print(f"average power {est.avg_power_w:.6g} W")
    for name in sorted(est.per_state_w):
        print(f"  {name:<10} {est.per_state_w[name]:>10.6g} W")
    if args.out:
        doc = make_document(
            "power_estimate",
            None,
            {
                "avg_power_w": est.avg_power_w,
                "per_state_w": est.per_state_w,
                "residency": profile.residency,
            },
            None,
        )
        _write(args.out, document_to_json(doc))
    return 0


def cmd_model_estimate_aw(args) -> int:
    catalog = _catalog_from_args(args)
    profile = _profile_from_args(args, duration_s=args.duration)
    perf = _perf_from_args(args)
    est = avg_power_aw(profile, catalog, perf)
    sv = est.savings_vs
    print(f"baseline power {sv.baseline_w:.6g} W")
    print(f"agile estimate {est.avg_power_w:.6g} W")
    print(f"savings {sv.savings_fraction * 100.0:.1f}%")
    if args.out:
        doc = make_document(
            "agile_power_estimate",
            None,
            {
                "avg_power_w": est.avg_power_w,
                "baseline_w": sv.baseline_w,
                "savings_fraction": sv.savings_fraction,
                "per_state_w": est.per_state_w,
                "perf": asdict(perf),
            },
            None,
        )
        _write(args.out, document_to_json(doc))
    return 0


# ---------------------------------------------------------------------------
# sim subcommands
# ---------------------------------------------------------------------------

def _print_report(report: SimReport) -> None:
    print(f"seed            {report.config.seed}")
    print(f"avg power       {report.avg_power_w:.6g} W")
    print(f"energy          {report.energy_j:.6g} J")
    lat = report.latency_us
    print(
        "latency us      "
        f"mean {lat.mean:.6g}  p50 {lat.p50:.6g}  p95 {lat.p95:.6g}  "
        f"p99 {lat.p99:.6g}  p99.9 {lat.p999:.6g}"
    )
    print(
        f"requests        offered {report.requests_offered}  "
        f"completed {report.requests_completed}  aborted-wakeups {report.wakeups_aborted}"
    )
    rows = sorted(report.residency.residency.items())
    print("residency       " + "  ".join(f"{k} {v:.4f}" for k, v in rows))
    print("transitions     " + "  ".join(
        f"{k} {v}" for k, v in sorted(report.transitions.items())
    ))
    if report.saturated:
        print("WARNING: saturated (queue high-water mark kept growing)")


def cmd_sim_run(args) -> int:
    parsed = load_sim_config(args.config)
    catalog = _catalog_from_args(args)
    report = run(parsed.config, catalog=catalog, perf=parsed.perf)
    _print_report(report)
    if args.out:
        _write(args.out, document_to_json(sim_report_document(report)))
    if args.plot:
        _write(args.plot, emit_plot_table([SweepPoint("run", report)]))
    return 0


def cmd_sim_sweep(args, parser) -> int:
    parsed = load_sim_config(args.config)
    catalog = _catalog_from_args(args)
    try:
        qps_list = [float(x) for x in args.qps.split(",") if x.strip()]
    except ValueError:
        raise ParseError(f"bad --qps list {args.qps!r}") from None
    if not qps_list:
        parser.error("--qps needs a comma-separated list of rates")
    names = [x.strip() for x in args.variants.split(",") if x.strip()]
    if not names:
        parser.error("--variants needs a comma-separated list of names")
    # A config file's [variant:<name>] section shadows the built-in one.
    known = {**BUILTIN_VARIANTS, **parsed.variants}
    for name in names:
        if name not in known:
            parser.error(f"unknown variant {name!r}; known: {', '.join(sorted(known))}")
    variants = [known[name] for name in names]
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")

    points = sweep(parsed.config, qps_list, variants, catalog=catalog,
                   perf=parsed.perf, jobs=args.jobs)
    table = emit_plot_table(points)
    print(table, end="")
    if args.out:
        _write(args.out, document_to_json(sweep_document(points, parsed.config)))
    if args.plot:
        _write(args.plot, table)
    return 0


def cmd_demo(args) -> int:
    result = demo_sweep(seed=args.seed, duration_s=args.duration)
    print(emit_plot_table(result.sweep_points()), end="")
    ok = True
    last = None
    for p in result.points:
        within = p.savings <= p.upper_bound
        monotone = last is None or p.savings <= last + 1e-9
        ok = ok and within and monotone and p.p99_delta <= 0.02
        print(
            f"qps {p.qps:>8.0f}  savings {p.savings * 100.0:5.1f}%  "
            f"bound {p.upper_bound * 100.0:5.1f}%  p99 delta {p.p99_delta * 100.0:+05.2f}%"
        )
        last = p.savings
    print("demo checks " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# fsm trace
# ---------------------------------------------------------------------------

def cmd_fsm_trace(args, parser) -> int:
    variant = args.variant
    flow = args.flow
    # Only an agile exit reads the stagger plan, and only a snoop its window.
    reads = {"exit": ("zones", "zone_ns") if variant in AGILE_STATES else (),
             "snoop": ("service_ns",)}.get(flow, ())
    for dest in ("zones", "zone_ns", "service_ns"):
        if dest not in reads and getattr(args, dest) != parser.get_default(dest):
            parser.error(f"--{dest.replace('_', '-')} does not apply to the "
                         f"{variant} {flow} flow")
    if variant in AGILE_STATES:
        if flow == "entry":
            timeline = fsm.entry_timeline(variant, args.mhz)
        elif flow == "exit":
            stagger = fsm.StaggerPlan(zones=args.zones, per_zone_ns=args.zone_ns)
            timeline = fsm.exit_timeline(variant, args.mhz, stagger)
        else:
            timeline = fsm.snoop_timeline(variant, args.mhz, service_ns=args.service_ns)
    else:
        timeline = fsm.reference_flow(variant, flow, args.mhz)
    print(format_timeline(timeline), end="")
    if args.csv:
        _write(args.csv, timeline_csv(timeline))
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    catalog = _catalog_from_args(args)
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if ok:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}" + (f": {detail}" if detail else ""))

    # Every check reads the catalog under test; loading it already
    # checked its structure and each state's latency contract.
    # Ideal-replacement savings bound on three reference profiles.
    golden_profiles = [
        ({"C0": 0.50, "C1": 0.45, "C6": 0.05}, 23.0),
        ({"C0": 0.25, "C1": 0.55, "C6": 0.20}, 41.0),
        ({"C0": 0.20, "C1": 0.80, "C6": 0.00}, 55.0),
    ]
    for residency, expect_pct in golden_profiles:
        got = upper_bound_savings(ResidencyProfile(1.0, dict(residency)), catalog) * 100
        check(
            f"upper-bound savings {expect_pct:.0f}% profile",
            abs(got - expect_pct) <= 0.6,
            f"got {got:.2f}%, expected {expect_pct:.0f}% within 0.6 points",
        )

    # Each agile state's power within the sum of its component budget.
    budget = default_budget()
    for variant in ("C6A", "C6AE"):
        lo, hi = budget_total(budget, variant)
        power_mw = catalog[variant].power_mw
        check(
            f"{variant} power within its budget {(lo, hi)} mW",
            lo <= power_mw <= hi,
            f"got {power_mw} mW",
        )

    # Idle-to-active power ratios for the agile states.
    p1 = catalog.pstate("P1")
    for name, lo, hi in (("C6A", 0.05, 0.08), ("C6AE", 0.05, 0.08)):
        ratio = power_ratio_vs_active(catalog[name], p1)
        check(
            f"{name}/C0(P1) power ratio in [5%, 8%]",
            lo <= ratio <= hi,
            f"got {ratio:.4f}",
        )

    # Hardware latency bounds (the built-in figures are the totals of
    # the controller flows at the default 500 MHz clock).
    c6, c1 = catalog["C6"], catalog["C1"]
    for name in ("C6A", "C6AE"):
        agile = catalog[name]
        check(f"{name} entry <= 20 ns", agile.hw_entry_ns <= 20, f"got {agile.hw_entry_ns} ns")
        check(f"{name} exit <= 85 ns", agile.hw_exit_ns <= 85, f"got {agile.hw_exit_ns} ns")
    check("C6 reference entry 87 us", c6.hw_entry_ns == 87_000, f"got {c6.hw_entry_ns} ns")
    check("C6 reference exit 30 us", c6.hw_exit_ns == 30_000, f"got {c6.hw_exit_ns} ns")
    check("C1 reference entry <= 10 ns", c1.hw_entry_ns <= 10, f"got {c1.hw_entry_ns} ns")

    # Transition speedup of each agile state over full deep idle.
    for name in ("C6A", "C6AE"):
        agile_hw = catalog[name].hw_total_ns
        ratio = c6.transition_time_us * 1000.0 / agile_hw if agile_hw else math.inf
        check(
            f"C6 transition / {name} hw latency >= 900x",
            agile_hw <= 105 and ratio >= 900.0,
            f"{name} hw {agile_hw} ns, ratio {ratio:.0f}x",
        )

    violations = catalog.power_order_violations()
    check(
        "catalog power strictly decreasing " + " > ".join(POWER_DEPTH_ORDER),
        not violations,
        "; ".join(violations),
    )

    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cstatesim",
        description="Model and simulate CPU core idle states, including "
                    "agile power-gated deep idle.",
    )
    parser.add_argument("--version", action="version", version=f"cstatesim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # model
    model = sub.add_parser("model", help="analytic power estimates")
    model_sub = model.add_subparsers(dest="model_command", required=True)

    def add_profile_args(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--residency", help="inline profile, e.g. C0=0.5,C1=0.45,C6=0.05")
        source.add_argument("--trace", help="residency CSV file")
        p.add_argument("--catalog", help="catalog override file")

    ub = model_sub.add_parser("upper-bound",
                              help="ideal-replacement savings bound on a {C0,C1,C6} profile")
    add_profile_args(ub)
    ub.set_defaults(func=cmd_model_upper_bound)

    est = model_sub.add_parser("estimate", help="residency-weighted average power")
    add_profile_args(est)
    est.add_argument("--out", help="write a JSON report document")
    est.set_defaults(func=cmd_model_estimate)

    est_aw = model_sub.add_parser(
        "estimate-aw", help="agile-idle estimate (C1->C6A, C1E->C6AE) with savings"
    )
    add_profile_args(est_aw)
    est_aw.add_argument("--duration", type=float, default=None,
                        help="profile duration in seconds (overrides the trace comment)")
    perf = PerfModel()
    est_aw.add_argument("--freq-penalty", type=float, default=perf.freq_penalty)
    est_aw.add_argument("--scalability", type=float, default=perf.scalability)
    est_aw.add_argument("--delta-ns", type=int, default=perf.delta_transition_ns,
                        help="extra per-transition latency of the agile states")
    est_aw.add_argument("--out", help="write a JSON report document")
    est_aw.set_defaults(func=cmd_model_estimate_aw)

    # sim
    simp = sub.add_parser("sim", help="discrete-event simulation")
    sim_sub = simp.add_subparsers(dest="sim_command", required=True)

    runp = sim_sub.add_parser("run", help="simulate one config")
    runp.add_argument("--config", required=True, help="sim config file")
    runp.add_argument("--catalog", help="catalog override file")
    runp.add_argument("--out", help="write the report JSON here")
    runp.add_argument("--plot", help="write a plot-table CSV here")
    runp.set_defaults(func=cmd_sim_run)

    sweepp = sim_sub.add_parser("sweep", help="loads x variants cross-product")
    sweepp.add_argument("--config", required=True, help="sim config file")
    sweepp.add_argument("--catalog", help="catalog override file")
    sweepp.add_argument("--qps", required=True, help="comma-separated arrival rates")
    sweepp.add_argument("--variants", required=True,
                        help="comma-separated variant names (built-in or from config)")
    sweepp.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes (default 1)")
    sweepp.add_argument("--out", help="write the sweep JSON here")
    sweepp.add_argument("--plot", help="write the plot-table CSV here")
    sweepp.set_defaults(func=lambda args: cmd_sim_sweep(args, sweepp))

    demop = sim_sub.add_parser(
        "demo", help="paired low-load demo sweep with its self-checks"
    )
    demop.add_argument("--seed", type=int, default=DEMO_SEED)
    demop.add_argument("--duration", type=float, default=DEMO_DURATION_S,
                       help="simulated seconds per point")
    demop.set_defaults(func=cmd_demo)

    # fsm
    fsmp = sub.add_parser("fsm", help="controller flow timelines")
    fsm_sub = fsmp.add_subparsers(dest="fsm_command", required=True)
    trace = fsm_sub.add_parser("trace", help="print one flow's steps")
    trace.add_argument("--flow", required=True, choices=["entry", "exit", "snoop"])
    trace.add_argument("--variant", required=True, choices=["C6A", "C6AE", "C1", "C6"])
    trace.add_argument("--mhz", type=int, default=fsm.DEFAULT_CONTROLLER_MHZ,
                       help="controller clock (default %(default)s)")
    stagger = fsm.StaggerPlan()
    trace.add_argument("--zones", type=int, default=stagger.zones, help="stagger zones (exit)")
    trace.add_argument("--zone-ns", type=int, default=stagger.per_zone_ns,
                       help="per-zone settle ns (exit)")
    trace.add_argument("--service-ns", type=int, default=fsm.DEFAULT_SNOOP_SERVICE_NS,
                       help="snoop service window (snoop)")
    trace.add_argument("--csv", help="also write step,cycles,fixed_ns,cum_ns CSV")
    trace.set_defaults(func=lambda args: cmd_fsm_trace(args, trace))

    # validate
    val = sub.add_parser("validate", help="run the golden checks on a catalog")
    val.add_argument("--catalog",
                     help="catalog file to check (default: the built-in catalog)")
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as e:
        print(f"error: no such file: {e.filename}", file=sys.stderr)
        return 2
    except OSError as e:
        reason = f"{e.filename}: {e.strerror}" if e.filename is not None else str(e)
        print(f"error: {reason}", file=sys.stderr)
        return 2
    except (ValidationError, ParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
