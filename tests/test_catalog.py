"""Power/latency catalog: table values, invariants, budget sums, INI I/O."""

import dataclasses

import pytest

from cstatesim.catalog import (
    AGILE_STATES,
    CSTATE_NAMES,
    POWER_DEPTH_ORDER,
    C6ABudget,
    Catalog,
    CStateSpec,
    PState,
    budget_total,
    default_budget,
    default_catalog,
    dumps_catalog,
    load_catalog,
    loads_catalog,
    power_ratio_vs_active,
)
from cstatesim.errors import ParseError, ValidationError
from cstatesim.fsm import entry_timeline, exit_timeline, reference_flow


# ---------------------------------------------------------------------------
# Default catalog values
# ---------------------------------------------------------------------------

def test_default_catalog_is_complete_and_valid():
    cat = default_catalog()
    assert set(cat.cstates) == set(CSTATE_NAMES)
    assert set(cat.pstates) == {"P1"}


@pytest.mark.parametrize(
    "name,power_mw",
    [("C0", 4000), ("C1", 1440), ("C6A", 300), ("C1E", 880), ("C6AE", 230), ("C6", 100)],
)
def test_default_powers(name, power_mw):
    cat = default_catalog()
    assert cat[name].power_mw == power_mw
    assert cat[name].power_w == power_mw / 1000.0


@pytest.mark.parametrize(
    "name,transition_us,target_us",
    [("C1", 2.0, 2.0), ("C6A", 2.0, 2.0), ("C1E", 10.0, 20.0),
     ("C6AE", 10.0, 20.0), ("C6", 133.0, 600.0)],
)
def test_default_latencies(name, transition_us, target_us):
    spec = default_catalog()[name]
    assert spec.transition_time_us == transition_us
    assert spec.target_residency_us == target_us


def test_default_pstates():
    # P1 is C0's power: active power has one key, [C0] power_w.
    cat = default_catalog()
    assert cat.pstates == {"P1": PState("P1", 4000)}
    assert cat.pstate("P1").c0_power_mw == cat["C0"].power_mw


def test_power_strictly_decreases_along_depth_order():
    cat = default_catalog()
    powers = [cat[name].power_mw for name in POWER_DEPTH_ORDER]
    assert powers == sorted(powers, reverse=True)
    assert len(set(powers)) == len(powers)
    assert cat.power_order_violations() == []


def test_agile_states_share_their_donors_latency_class():
    cat = default_catalog()
    assert cat["C6A"].transition_time_us == cat["C1"].transition_time_us
    assert cat["C6AE"].transition_time_us == cat["C1E"].transition_time_us
    assert AGILE_STATES == {"C6A", "C6AE"}
    assert set(CSTATE_NAMES[1:]) == set(CSTATE_NAMES) - {"C0"}


@pytest.mark.parametrize("name", ["C6A", "C6AE"])
def test_default_agile_hw_latencies_are_the_controller_flow_totals(name):
    spec = default_catalog()[name]
    assert (spec.hw_entry_ns, spec.hw_exit_ns) == (
        entry_timeline(name).total_ns, exit_timeline(name).total_ns)
    assert (spec.hw_entry_ns, spec.hw_exit_ns) == (18, 83)


@pytest.mark.parametrize("name, totals", [("C1", (4, 4)), ("C6", (87_000, 30_000))])
def test_default_conventional_hw_latencies_are_the_reference_flow_totals(name, totals):
    spec = default_catalog()[name]
    assert (spec.hw_entry_ns, spec.hw_exit_ns) == (
        reference_flow(name, "entry").total_ns, reference_flow(name, "exit").total_ns)
    assert (spec.hw_entry_ns, spec.hw_exit_ns) == totals


def test_unknown_state_lookup_raises():
    with pytest.raises(ValidationError, match="C9"):
        default_catalog()["C9"]
    with pytest.raises(ValidationError):
        default_catalog().pstate("P9")


# ---------------------------------------------------------------------------
# Spec-level invariants on CStateSpec
# ---------------------------------------------------------------------------

def test_target_residency_below_transition_rejected():
    with pytest.raises(ValidationError, match="target"):
        CStateSpec("C6", 133.0, 100.0, 100, 87000, 30000)


def test_hw_latency_exceeding_transition_rejected():
    with pytest.raises(ValidationError, match="exceeds"):
        CStateSpec("C1", 2.0, 2.0, 1440, 1500, 1000)


def test_negative_power_rejected():
    with pytest.raises(ValidationError):
        CStateSpec("C1", 2.0, 2.0, -1, 4, 4)


def test_unknown_name_rejected():
    with pytest.raises(ValidationError, match="C2"):
        CStateSpec("C2", 2.0, 2.0, 100, 4, 4)


@pytest.mark.parametrize("build, message", [
    (lambda: PState("P2", 4000), "unknown P-state name 'P2'"),
    (lambda: PState("P1", 0), "P1: C0 power must be positive"),
    (lambda: CStateSpec("C1", 2.0, 2.0, 1440, -1, 4),
     "C1: hw latencies must be nonnegative"),
    (lambda: Catalog(default_catalog().cstates, {}),
     "catalog P-states must be exactly P1 at C0's 4000 mW"),
    (lambda: Catalog(default_catalog().cstates, {"P1": PState("P1", 3999)}),
     "catalog P-states must be exactly P1 at C0's 4000 mW"),
    # A zero C0 power in a file gives P1 no positive power.
    (lambda: loads_catalog("[C0]\npower_w = 0\n"), "P1: C0 power must be positive"),
], ids=["pstate-name", "c0-power", "hw-latency", "missing-pstate", "pstate-off-c0",
        "zero-c0-power-file"])
def test_out_of_range_field_rejected(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_catalog_missing_state_rejected():
    cat = default_catalog()
    partial = {k: v for k, v in cat.cstates.items() if k != "C6"}
    with pytest.raises(ValidationError, match="C6"):
        Catalog(partial, cat.pstates)


def test_catalog_broken_latency_pairing_rejected():
    cat = default_catalog()
    cstates = dict(cat.cstates)
    cstates["C6A"] = dataclasses.replace(
        cstates["C6A"], transition_time_us=5.0, target_residency_us=5.0
    )
    with pytest.raises(ValidationError, match="transition time"):
        Catalog(cstates, cat.pstates)


def test_power_order_violation_reported_not_raised():
    cat = default_catalog()
    cstates = dict(cat.cstates)
    cstates["C6A"] = dataclasses.replace(cstates["C6A"], power_mw=2000)
    bad = Catalog(cstates, cat.pstates)  # structurally fine
    violations = bad.power_order_violations()
    assert len(violations) == 1
    assert "C6A" in violations[0] and "C1E" in violations[0]


# ---------------------------------------------------------------------------
# Budget rows
# ---------------------------------------------------------------------------

def test_budget_totals_exact():
    rows = default_budget()
    assert budget_total(rows, "C6A") == (290, 315)
    assert budget_total(rows, "C6AE") == (227, 243)


def test_budget_has_component_per_row():
    rows = default_budget()
    assert len(rows) == 8
    assert len({r.component for r in rows}) == len(rows)
    for r in rows:
        lo_a, hi_a = r.c6a_mw
        lo_e, hi_e = r.c6ae_mw
        assert 0 <= lo_a <= hi_a
        assert 0 <= lo_e <= hi_e


def test_budget_point_values_bracket_catalog_powers():
    # The catalog's C6A/C6AE point powers sit inside the budget ranges.
    cat = default_catalog()
    for name in ("C6A", "C6AE"):
        lo, hi = budget_total(default_budget(), name)
        assert lo <= cat[name].power_mw <= hi


def test_budget_errors():
    with pytest.raises(ValidationError, match="empty"):
        budget_total([], "C6A")
    with pytest.raises(ValidationError, match="C1"):
        budget_total(default_budget(), "C1")
    with pytest.raises(ValidationError):
        C6ABudget("x", (5, 3), (1, 2))  # inverted range


# ---------------------------------------------------------------------------
# Power ratios
# ---------------------------------------------------------------------------

def test_power_ratios_vs_active():
    cat = default_catalog()
    p1 = cat.pstate("P1")
    assert power_ratio_vs_active(cat["C6A"], p1) == pytest.approx(0.075)
    assert power_ratio_vs_active(cat["C6AE"], p1) == pytest.approx(0.0575)
    assert power_ratio_vs_active(cat["C1"], p1) == pytest.approx(0.36)


# ---------------------------------------------------------------------------
# INI serialization
# ---------------------------------------------------------------------------

def test_dump_load_round_trip():
    cat = default_catalog()
    again = loads_catalog(dumps_catalog(cat))
    assert again == cat
    assert dumps_catalog(again) == dumps_catalog(cat)


def test_file_round_trip(tmp_path):
    path = tmp_path / "catalog.ini"
    cat = default_catalog()
    path.write_text(dumps_catalog(cat))
    assert load_catalog(str(path)) == cat


def test_partial_override_file_keeps_defaults():
    text = "[C6A]\n" \
           "transition_time_us = 2\ntarget_residency_us = 2\n" \
           "power_w = 0.31\nhw_entry_ns = 20\nhw_exit_ns = 80\n"
    cat = loads_catalog(text)
    assert cat["C6A"].power_mw == 310
    assert cat["C6"].power_mw == 100           # untouched default
    assert cat.pstate("P1").c0_power_mw == 4000


def test_power_quantized_to_milliwatts():
    text = "[C6A]\n" \
           "transition_time_us = 2\ntarget_residency_us = 2\n" \
           "power_w = 0.30041\nhw_entry_ns = 20\nhw_exit_ns = 80\n"
    assert loads_catalog(text)["C6A"].power_mw == 300


def test_one_key_file_keeps_builtin_values():
    # An absent key keeps the built-in state's value, so a file can give
    # just the C0 power; P1 follows it.
    base = default_catalog()
    c0 = dataclasses.replace(base["C0"], power_mw=11000)
    assert loads_catalog("[C0]\npower_w = 11\n") == Catalog(
        {**base.cstates, "C0": c0}, {"P1": PState("P1", 11000)})


def test_huge_power_in_file_rejected():
    # Finite watts, but past 2**63 mW: a run's energy would overflow a float.
    with pytest.raises(ValidationError, match=r"C0: power must be nonnegative and below 2\*\*63 mW"):
        loads_catalog("[C0]\npower_w = 1e300\n")
    with pytest.raises(ValidationError, match=r"P1: C0 power must be positive and below 2\*\*63 mW"):
        PState("P1", 2 ** 63)


def test_negative_power_in_file_rejected():
    text = "[C6A]\n" \
           "transition_time_us = 2\ntarget_residency_us = 2\n" \
           "power_w = -0.3\nhw_entry_ns = 20\nhw_exit_ns = 80\n"
    with pytest.raises(ParseError, match="nonnegative"):
        loads_catalog(text)


def test_infinite_power_in_file_rejected():
    # round() of an infinite wattage raised a bare OverflowError.
    text = "[C6A]\n" \
           "transition_time_us = 2\ntarget_residency_us = 2\n" \
           "power_w = inf\nhw_entry_ns = 20\nhw_exit_ns = 80\n"
    with pytest.raises(ParseError, match="finite"):
        loads_catalog(text)


@pytest.mark.parametrize("text", [
    "target_residency_us = 200\n",
    "transition_time_us = 200\ntarget_residency_us = 200\n",
    "hw_exit_ns = 100000\ntransition_time_us = 200\ntarget_residency_us = 200\n",
    "hw_entry_ns = 1\ntransition_time_us = 1\ntarget_residency_us = 1\n",
], ids=["target", "transition", "hw_exit", "hw_entry"])
def test_c0_latency_in_file_rejected(text):
    # C0 is never entered or exited, so nothing would read these.
    with pytest.raises(ValidationError,
                       match=r"^C0: latencies must be zero \(it is never entered or exited\)$"):
        loads_catalog("[C0]\n" + text)


def _every_field_changed(cat):
    """cat with every field of every spec moved off its built-in value,
    but C0's latencies, which must stay zero."""
    cstates = {n: dataclasses.replace(s, power_mw=s.power_mw + 7) for n, s in cat.cstates.items()}
    for n in CSTATE_NAMES[1:]:
        s = cstates[n]
        cstates[n] = dataclasses.replace(
            s,
            transition_time_us=s.transition_time_us + 1.5,
            target_residency_us=s.target_residency_us + 3.5,
            hw_entry_ns=s.hw_entry_ns + 1,
            hw_exit_ns=s.hw_exit_ns + 2,
        )
    return Catalog(cstates, {"P1": PState("P1", cstates["C0"].power_mw)})


def test_round_trip_carries_every_field():
    # A key the writer dropped would come back as the built-in value, so
    # the round trip starts from a catalog that differs in every field.
    base = default_catalog()
    cat = _every_field_changed(base)
    assert cat.pstate("P1") != base.pstate("P1")
    for name, spec in cat.cstates.items():
        for f in dataclasses.fields(spec)[1:]:
            if name != "C0" or f.name == "power_mw":
                assert getattr(spec, f.name) != getattr(base[name], f.name), (name, f.name)
    text = dumps_catalog(cat)
    assert loads_catalog(text) == cat
    assert dumps_catalog(loads_catalog(text)) == text
