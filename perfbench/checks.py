"""Checks of a round's outputs after the clock stops.

Each check compares a result with a separate computation or with a
property the method must have; none reads a stored golden number, so a
later change that corrects the method is not scored as a failure. Every
check returns a list of failure messages, empty when the round is right.
"""

import hashlib
import math

from cstatesim import fsm, model, reporting
from cstatesim.catalog import AGILE_STATES

import configs

# Standard deviations of slack on the statistical checks.  At six the
# chance of a false alarm is about 2e-9 per check, so no seed fails one.
Z = 6.0
# Float tolerance of exact identities (energy integrated in picojoules,
# then divided; residency fractions summed in another order).
REL_EPS = 1e-9

# Squared coefficient of variation of one service-time draw.
_SERVICE_CV2 = {
    "fixed": lambda sigma: 0.0,
    "exponential": lambda sigma: 1.0,
    "lognormal": lambda sigma: math.expm1(sigma * sigma),
}


def _arrival_count_var(arrival, horizon_s: float) -> float:
    """Variance of the number of arrivals over the horizon.

    Poisson: the mean.  Bursty is an on/off modulated Poisson process
    (exponential phases); its two-state modulation adds
    2 * rate_on^2 * p_on * p_off * T / (1/on + 1/off) for long horizons.
    """
    mean = arrival.rate_qps * horizon_s
    if arrival.process == "periodic":
        return 1.0
    if arrival.process == "poisson":
        return mean
    on_s, off_s = arrival.burst_on_ms * 1e-3, arrival.burst_off_ms * 1e-3
    rate_on = arrival.rate_qps * (on_s + off_s) / on_s
    p_on = on_s / (on_s + off_s)
    return mean + 2.0 * rate_on ** 2 * p_on * (1.0 - p_on) * horizon_s / (1 / on_s + 1 / off_s)


def _snoop_window_energy_bound_j(config, catalog) -> float:
    """Most extra energy one snoop can add in any enabled agile state.

    The caches wake for the controller's snoop flow plus the service time,
    at no more than C1's power: C1 is the shallowest idle state whose
    caches are awake.
    """
    c1_w = catalog["C1"].power_w
    service_ns = config.snoop.service_ns
    return max(
        (fsm.snoop_timeline(s, service_ns=service_ns).total_ns + service_ns) * 1e-9
        * (c1_w - catalog[s].power_w)
        for s in sorted(config.cstates_enabled & AGILE_STATES)
    )


def check_sim_report(report, perf, catalog) -> list:
    """Properties of one simulated run, against the analytic model and its inputs."""
    cfg = report.config
    res = report.residency.residency
    horizon_s = report.residency.duration_s
    core_s = horizon_s * cfg.cores
    fails = []
    offered = report.requests_offered

    if not 0 < report.requests_completed <= offered:
        fails.append(f"completed {report.requests_completed} of {offered} offered")

    want = cfg.arrival.rate_qps * horizon_s
    slack = Z * math.sqrt(_arrival_count_var(cfg.arrival, horizon_s)) + 1.0
    if abs(offered - want) > slack:
        fails.append(f"offered {offered} requests, expected {want:.0f} +- {slack:.0f}")

    # C0 time is service time only (transitions have their own bucket), so
    # it matches the work offered, inflated when an agile state is enabled.
    # The realised arrival count removes the arrival noise; what is left is
    # the spread of the service draws plus the backlog at the horizon.
    agile_on = bool(cfg.cstates_enabled & AGILE_STATES)
    inflation = perf.service_inflation if agile_on else 1.0
    want_c0 = offered * cfg.service.mean_us * 1e-6 * inflation / core_s
    cv2 = _SERVICE_CV2[cfg.service.dist](cfg.service.sigma)
    tol = want_c0 * (Z * math.sqrt(cv2 / max(offered, 1)) + 0.01)
    if abs(res["C0"] - want_c0) > tol:
        fails.append(f"C0 residency {res['C0']:.6f}, offered utilisation {want_c0:.6f} +- {tol:.6f}")

    model_w = model.avg_power(report.residency, catalog).avg_power_w
    excess_j = (report.avg_power_w - model_w) * core_s
    rate = cfg.snoop.rate_per_core_hz
    if rate == 0 or not agile_on:
        if report.snoops_served:
            fails.append(f"{report.snoops_served} snoops served with no agile snoop traffic")
        if abs(excess_j) > REL_EPS * model_w * core_s:
            fails.append(f"avg power {report.avg_power_w!r} W != model {model_w!r} W without snoops")
        return fails

    agile_s = sum(res.get(s, 0.0) for s in AGILE_STATES) * core_s
    mu = rate * agile_s
    slack = Z * math.sqrt(mu) + 1.0
    if abs(report.snoops_served - mu) > slack:
        fails.append(f"{report.snoops_served} snoops served, expected {mu:.0f} +- {slack:.0f}")
    bound_j = report.snoops_served * _snoop_window_energy_bound_j(cfg, catalog)
    if not 0.0 < excess_j <= bound_j * (1 + REL_EPS):
        fails.append(f"snoop energy {excess_j:.6g} J outside (0, {bound_j:.6g}] J")
    return fails


def check_sweep(out, catalog) -> list:
    """Sweep points in load-major order, each a sound run; the JSON round-trips."""
    fails = []
    expected = [(q, v) for q in configs.SWEEP_LOADS_QPS for v in configs.SWEEP_VARIANTS]
    got = [(p.qps, p.variant) for p in out.sweep_points]
    if got != expected:
        fails.append(f"sweep points {got} != {expected}")
    for p in out.sweep_points:
        fails += [f"{p.variant}@{p.qps:g}: {m}" for m in check_sim_report(p.report, out.perf, catalog)]
    try:
        reparsed = reporting.parse_document(out.sweep_json)
    except ValueError as e:
        return fails + [f"sweep JSON does not re-parse: {e}"]
    if reporting.document_to_json(reparsed) != out.sweep_json:
        fails.append("sweep JSON does not re-emit byte-identically")
    if len(reparsed["results"]["points"]) != len(expected):
        fails.append("sweep JSON lost points")
    return fails


def _upper_bound(profile, catalog) -> float:
    """Ideal-replacement bound, from the formula: C1 time repriced at C6 power.

    Transition time is priced at C0 power, so it counts as C0 here.
    """
    r = profile.residency
    r0 = r.get("C0", 0.0) + r.get(model.TRANSITION_BUCKET, 0.0)
    p = {name: catalog[name].power_w for name in ("C0", "C1", "C6")}
    base_w = r0 * p["C0"] + r.get("C1", 0.0) * p["C1"] + r.get("C6", 0.0) * p["C6"]
    return r.get("C1", 0.0) * (p["C1"] - p["C6"]) / base_w


def check_demo(result, catalog) -> list:
    """The demo's claims: savings under the bound, not rising with load, p99 within 2 %."""
    fails = []
    last = None
    for p in result.points:
        tag = f"demo@{p.qps:g}"
        for rep in (p.baseline, p.agile):
            model_w = model.avg_power(rep.residency, catalog).avg_power_w
            if abs(rep.avg_power_w - model_w) > REL_EPS * model_w:
                fails.append(f"{tag}: avg power {rep.avg_power_w!r} W != model {model_w!r} W")
        savings = 1.0 - p.agile.avg_power_w / p.baseline.avg_power_w
        bound = _upper_bound(p.baseline.residency, catalog)
        if abs(savings - p.savings) > REL_EPS or abs(bound - p.upper_bound) > REL_EPS:
            fails.append(f"{tag}: savings/bound {p.savings}/{p.upper_bound} != {savings}/{bound}")
        if savings > bound:
            fails.append(f"{tag}: savings {savings:.4f} above the upper bound {bound:.4f}")
        if last is not None and savings > last + 1e-9:
            fails.append(f"{tag}: savings {savings:.4f} rose with load from {last:.4f}")
        if p.p99_delta > 0.02:
            fails.append(f"{tag}: p99 change {p.p99_delta:+.4f} above 2 %")
        last = savings
    return fails


def check_round(out, catalog) -> list:
    """Every check that applies to the round's outputs."""
    if out.demo_result is None:
        return [m for r in out.reports for m in check_sim_report(r, out.perf, catalog)]
    return check_sweep(out, catalog) + check_demo(out.demo_result, catalog)


def round_digest(out) -> str:
    """Canonical hash of the round's outputs, to compare rounds of one config."""
    if out.demo_result is None:
        return "".join(
            reporting.canonical_hash(reporting.sim_report_document(r)) for r in out.reports
        )
    return out.sweep_hash + hashlib.sha256(out.demo_table.encode()).hexdigest()
