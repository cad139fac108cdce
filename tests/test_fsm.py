"""Controller flow timelines: cycle accounting, state effects, round trips.

Latency oracles, computed by hand from the cycle budgets at the default
500 MHz controller clock (2 ns per cycle):

  agile entry   2 + 4 + 3 cycles            -> 4 + 8 + 6        = 18 ns
  agile exit    2cy + (1cy + 75 ns) + 1cy   -> 4 + 77 + 2       = 83 ns
  1-zone exit   4 + (2 + 15) + 2                                = 23 ns
  snoop         2cy wake + 3cy re-enter     -> 4 + 6            = 10 ns
  C1 reference  2 cycles                                        = 4 ns
  C6 reference  75000 + 9000 + 3000 = 87 us; 10000 + 20000      = 30 us
"""

import math

import pytest

from cstatesim import fsm
from cstatesim.catalog import AGILE_STATES, CSTATE_NAMES
from cstatesim.errors import ValidationError
from cstatesim.fsm import (
    ACTIVE_STATE,
    CoreDomainState,
    FsmStep,
    FsmTimeline,
    StaggerPlan,
    entry_timeline,
    exit_timeline,
    reference_flow,
    resident_state,
    snoop_timeline,
)


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["C6A", "C6AE"])
def test_entry_total_at_500mhz(variant):
    assert entry_timeline(variant).total_ns == 18


@pytest.mark.parametrize("variant", ["C6A", "C6AE"])
def test_entry_total_at_1ghz(variant):
    assert entry_timeline(variant, 1000).total_ns == 9


def test_entry_cumulative_times():
    rows = entry_timeline("C6A").rows()
    assert [r.cum_ns for r in rows] == [4, 12, 18]


def test_entry_final_state_is_gated_retained_sleeping():
    final = entry_timeline("C6A").final
    assert final.ufpg == "power_gated"
    assert final.context == "retained_in_place"
    assert final.caches == "sleep_mode"
    assert final.cache_clock == "gated"
    assert final.pll == "on_locked"


def test_c6ae_entry_drops_to_min_voltage_without_blocking():
    tl = entry_timeline("C6AE")
    labels = [s.label for s in tl.steps]
    assert any("min voltage" in lbl for lbl in labels)
    assert tl.total_ns == entry_timeline("C6A").total_ns  # annotation free
    assert tl.final.voltage == "min_pn"
    assert entry_timeline("C6A").final.voltage == "nominal_p1"


def test_entry_ceil_rounding_per_step():
    # At 333 MHz each step's nanoseconds round up individually.
    mhz = 333
    expect = sum(math.ceil(c * 1000 / mhz) for c in (2, 4, 3))
    assert entry_timeline("C6A", mhz).total_ns == expect


def test_entry_rejects_non_agile_variants_and_bad_clock():
    with pytest.raises(ValidationError):
        entry_timeline("C1")
    with pytest.raises(ValidationError):
        entry_timeline("C6")
    with pytest.raises(ValidationError):
        entry_timeline("C6A", 0)


@pytest.mark.parametrize("flow", [entry_timeline, exit_timeline, snoop_timeline])
@pytest.mark.parametrize("name", CSTATE_NAMES)
def test_flows_accept_exactly_the_catalog_agile_states(flow, name):
    # fsm cannot import catalog (catalog imports fsm), so its own list
    # of agile states is pinned to catalog's here.
    if name in AGILE_STATES:
        assert flow(name).variant == name
    else:
        with pytest.raises(ValidationError, match="use reference_flow"):
            flow(name)


# ---------------------------------------------------------------------------
# Exit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["C6A", "C6AE"])
def test_exit_total_at_500mhz(variant):
    assert exit_timeline(variant).total_ns == 83


def test_exit_single_zone():
    assert exit_timeline("C6A", stagger=StaggerPlan(zones=1)).total_ns == 23


def test_exit_stagger_dominates_budget():
    tl = exit_timeline("C6A")
    stagger_step = [s for s in tl.steps if s.fixed_ns == 75]
    assert len(stagger_step) == 1


def test_exit_restores_active_state():
    for variant in ("C6A", "C6AE"):
        tl = exit_timeline(variant)
        assert tl.initial == resident_state(variant)
        assert tl.final == ACTIVE_STATE


def test_entry_exit_round_trip_exact():
    for variant in ("C6A", "C6AE"):
        entered = entry_timeline(variant).final
        assert exit_timeline(variant).initial == entered
        assert exit_timeline(variant).final == ACTIVE_STATE == entry_timeline(variant).initial


def test_stagger_plan():
    assert StaggerPlan().total_ns == 75
    assert StaggerPlan(zones=5, per_zone_ns=15).total_ns == 75
    assert StaggerPlan(zones=2, per_zone_ns=10).total_ns == 20
    with pytest.raises(ValidationError):
        StaggerPlan(zones=0)
    with pytest.raises(ValidationError):
        StaggerPlan(per_zone_ns=0)


# ---------------------------------------------------------------------------
# Snoop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["C6A", "C6AE"])
def test_snoop_blocking_cost(variant):
    tl = snoop_timeline(variant)
    assert tl.total_ns == 10       # 2 cycles wake + 3 cycles re-enter
    wake, serve, reenter = tl.steps
    assert wake.ns(500) == 4
    assert reenter.ns(500) == 6
    assert not serve.blocking      # caller-timed service window


def test_snoop_wakes_caches_only():
    tl = snoop_timeline("C6A")
    awake = tl.steps[0].resulting
    assert awake.caches == "active"
    assert awake.cache_clock == "running"
    assert awake.ufpg == "power_gated"       # core logic stays gated
    assert tl.final == tl.initial == resident_state("C6A")


def test_snoop_service_window_is_configurable():
    tl = snoop_timeline("C6A", service_ns=200)
    assert tl.steps[1].fixed_ns == 200
    assert tl.total_ns == 10                 # still excluded from total


@pytest.mark.parametrize("controller_mhz", [100, 500, 1000, 3000])
@pytest.mark.parametrize("service_ns", [0, 1, 50, 200, 12345])
def test_agile_states_share_one_snoop_window(controller_mhz, service_ns):
    # The simulator charges a core's snoop windows by one rule that
    # needs them all of one length, across C6A and C6AE intervals.
    totals = {snoop_timeline(name, controller_mhz, service_ns).total_ns
              for name in AGILE_STATES}
    assert len(totals) == 1


# ---------------------------------------------------------------------------
# Reference flows
# ---------------------------------------------------------------------------

def test_c1_reference_flow():
    assert reference_flow("C1", "entry").total_ns == 4
    assert reference_flow("C1", "exit").total_ns == 4
    gated = reference_flow("C1", "entry").final
    assert gated.ufpg == "clock_gated"
    assert gated.context == "live"


def test_c6_reference_flow_totals():
    assert reference_flow("C6", "entry").total_ns == 87_000
    assert reference_flow("C6", "exit").total_ns == 30_000


def test_c6_reference_flow_states():
    off = reference_flow("C6", "entry").final
    assert off.ufpg == "power_gated"
    assert off.pll == "off"
    assert off.context == "saved_external"
    assert off.voltage == "retention"
    assert reference_flow("C6", "exit").initial == off
    assert reference_flow("C6", "exit").final == ACTIVE_STATE


def test_reference_flow_rejects_bad_args():
    with pytest.raises(ValidationError):
        reference_flow("C6A", "entry")
    with pytest.raises(ValidationError):
        reference_flow("C6", "snoop")


# ---------------------------------------------------------------------------
# Relationships between flows
# ---------------------------------------------------------------------------

def test_agile_round_trip_is_documented_bound():
    total = entry_timeline("C6A").total_ns + exit_timeline("C6A").total_ns
    assert total == 101
    assert total <= 105


def test_c6_over_agile_latency_ratio():
    agile = entry_timeline("C6A").total_ns + exit_timeline("C6A").total_ns
    deep = reference_flow("C6", "entry").total_ns + reference_flow("C6", "exit").total_ns
    assert deep / agile >= 900


# ---------------------------------------------------------------------------
# Domain-state and step invariants
# ---------------------------------------------------------------------------

def test_domain_state_invariants():
    with pytest.raises(ValidationError):
        CoreDomainState(ufpg="power_gated", caches="active",
                        cache_clock="running", pll="on_locked",
                        context="live", voltage="nominal_p1")
    with pytest.raises(ValidationError):
        CoreDomainState(ufpg="powered", caches="sleep_mode",
                        cache_clock="running", pll="on_locked",
                        context="live", voltage="nominal_p1")
    with pytest.raises(ValidationError):
        CoreDomainState(ufpg="bogus", caches="active",
                        cache_clock="running", pll="on_locked",
                        context="live", voltage="nominal_p1")


def test_agile_flows_keep_pll_locked():
    for variant in ("C6A", "C6AE"):
        for tl in (entry_timeline(variant), exit_timeline(variant),
                   snoop_timeline(variant)):
            assert tl.initial.pll == "on_locked"
            for step in tl.steps:
                assert step.resulting.pll == "on_locked"


def test_blocking_step_needs_a_cost():
    with pytest.raises(ValidationError):
        FsmStep("noop", ACTIVE_STATE)
    # annotations may be free of charge
    FsmStep("note", ACTIVE_STATE, blocking=False)


@pytest.mark.parametrize("build, message", [
    (lambda: FsmStep("stall", ACTIVE_STATE, cycles=-1), "step 'stall': negative cost"),
    (lambda: FsmTimeline("resume", "C6A", ACTIVE_STATE,
                         (FsmStep("wake", ACTIVE_STATE, cycles=1),)), "flow must be one of"),
    (lambda: FsmTimeline("entry", "C6A", ACTIVE_STATE, ()),
     "a timeline needs at least one step"),
    (lambda: snoop_timeline("C6A", service_ns=-1), "service_ns must be nonnegative"),
], ids=["step-cost", "flow", "no-steps", "snoop-service"])
def test_out_of_range_field_rejected(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_rows_do_not_advance_on_annotations():
    tl = exit_timeline("C6AE")
    rows = tl.rows()
    assert rows[-1].cum_ns == rows[-2].cum_ns  # trailing annotation
    assert rows[-1].cum_ns == tl.total_ns
