"""Analytic power model: residency-weighted power, savings bound, rescaling.

Golden values are hand-derived from the default catalog before being
frozen here:

  avg_power {C0:.5, C1:.45, C6:.05}   = .5*4 + .45*1.44 + .05*0.1 = 2.653 W
  bound     {C0:.50, C1:.45, C6:.05}  = .45*(1.44-.1)/2.653  = 0.2272898...
  bound     {C0:.25, C1:.55, C6:.20}  = .55*1.34/1.812       = 0.4067329...
  bound     {C0:.20, C1:.80}          = .80*1.34/1.952       = 0.5491803...
  aw, zero penalty {C0:.5,C1:.45,C6:.05} = .5*4+.45*.3+.05*.1 = 2.14 W
                                           savings .513/2.653 = 0.1933660...
  aw, zero penalty {C0:.2, C1:.8}        = .2*4+.8*.3         = 1.04 W
                                           savings .912/1.952 = 0.4672131...
  aw, fp=.01 s=1 d=100ns {C0:.5,C1:.5,1000 entries}:
      rescaled (.505, .0001, .4949) -> .505*4+.0001*4+.4949*.3
                                     = 2.16887 W; baseline 2.72 W
                                     -> savings 0.2026213...
"""

import dataclasses
import math
import warnings

import pytest

from cstatesim.catalog import Catalog, default_catalog
from cstatesim.errors import ValidationError
from cstatesim.model import (
    TRANSITION_BUCKET,
    PerfModel,
    ResidencyProfile,
    SavingsVs,
    avg_power,
    avg_power_aw,
    rescale_residency,
    upper_bound_savings,
)

CAT = default_catalog()
ZERO_PERF = PerfModel(freq_penalty=0.0, scalability=0.0, delta_transition_ns=0)


def profile(residency, transitions=None, duration_s=1.0):
    return ResidencyProfile(duration_s, dict(residency), dict(transitions or {}))


# ---------------------------------------------------------------------------
# ResidencyProfile
# ---------------------------------------------------------------------------

def test_profile_sum_must_be_one():
    with pytest.raises(ValidationError, match=r"residency sum 0\.9000"):
        profile({"C0": 0.5, "C1": 0.4})


def test_profile_small_drift_renormalized_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = profile({"C0": 0.5, "C1": 0.5 + 4e-7})
    assert any("renormaliz" in str(w.message) for w in caught)
    assert math.isclose(sum(p.residency.values()), 1.0, abs_tol=1e-12)


def test_profile_renormalization_warning_points_at_the_caller():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ResidencyProfile(1.0, {"C0": 0.5, "C1": 0.5 + 4e-7})
    assert [w.filename for w in caught] == [__file__]


def test_profile_transitions_must_reference_known_states():
    with pytest.raises(ValidationError, match="C6"):
        profile({"C0": 1.0}, transitions={"C6": 5})


def test_profile_rejects_bad_duration_and_fractions():
    with pytest.raises(ValidationError):
        profile({"C0": 1.0}, duration_s=0.0)
    with pytest.raises(ValidationError):
        profile({"C0": 1.5, "C1": -0.5})


def test_profile_rejects_negative_transition_count():
    with pytest.raises(ValidationError, match=r"transitions\['C1'\] = -1 negative"):
        profile({"C0": 0.5, "C1": 0.5}, transitions={"C1": -1})


# ---------------------------------------------------------------------------
# PerfModel
# ---------------------------------------------------------------------------

def test_perf_model_bounds():
    with pytest.raises(ValidationError):
        PerfModel(freq_penalty=1.0)
    with pytest.raises(ValidationError):
        PerfModel(freq_penalty=-0.1)
    with pytest.raises(ValidationError):
        PerfModel(scalability=1.5)
    with pytest.raises(ValidationError):
        PerfModel(delta_transition_ns=-1)


def test_perf_model_inflations():
    pm = PerfModel(freq_penalty=0.01, scalability=1.0)
    assert pm.active_inflation == pytest.approx(1.01)
    assert pm.service_inflation == pytest.approx(1.0 / 0.99)
    assert ZERO_PERF.active_inflation == 1.0
    assert ZERO_PERF.service_inflation == 1.0


# ---------------------------------------------------------------------------
# avg_power
# ---------------------------------------------------------------------------

def test_avg_power_pure_active():
    assert avg_power(profile({"C0": 1.0}), CAT).avg_power_w == pytest.approx(4.0)


def test_avg_power_mixed_golden():
    est = avg_power(profile({"C0": 0.5, "C1": 0.45, "C6": 0.05}), CAT)
    assert est.avg_power_w == pytest.approx(2.653, abs=1e-12)
    assert est.per_state_w["C0"] == pytest.approx(2.0)
    assert est.per_state_w["C1"] == pytest.approx(0.648)
    assert est.per_state_w["C6"] == pytest.approx(0.005)


def test_avg_power_pure_deep_idle():
    assert avg_power(profile({"C6": 1.0}), CAT).avg_power_w == pytest.approx(0.1)


def test_avg_power_per_state_sums_to_total():
    est = avg_power(profile({"C0": 0.3, "C1": 0.3, "C1E": 0.2, "C6": 0.2}), CAT)
    assert sum(est.per_state_w.values()) == pytest.approx(est.avg_power_w, abs=1e-9)


def test_avg_power_transition_bucket_charged_at_c0():
    est = avg_power(profile({"C0": 0.5, TRANSITION_BUCKET: 0.5}), CAT)
    assert est.avg_power_w == pytest.approx(4.0)


def test_avg_power_unknown_state_named_in_error():
    with pytest.raises(ValidationError, match="C9"):
        avg_power(ResidencyProfile(1.0, {"C9": 1.0}), CAT)


# ---------------------------------------------------------------------------
# upper_bound_savings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "residency,expected",
    [
        ({"C0": 0.50, "C1": 0.45, "C6": 0.05}, 0.45 * 1.34 / 2.653),
        ({"C0": 0.25, "C1": 0.55, "C6": 0.20}, 0.55 * 1.34 / 1.812),
        ({"C0": 0.20, "C1": 0.80}, 0.80 * 1.34 / 1.952),
    ],
)
def test_upper_bound_goldens(residency, expected):
    got = upper_bound_savings(profile(residency), CAT)
    assert got == pytest.approx(expected, abs=1e-12)


def test_upper_bound_with_no_c1_is_zero():
    assert upper_bound_savings(profile({"C0": 1.0}), CAT) == 0.0
    assert upper_bound_savings(profile({"C0": 0.5, "C6": 0.5}), CAT) == 0.0


def test_upper_bound_prices_the_transition_bucket_at_c0():
    # A simulated profile as it is equals the profile with the bucket folded into C0.
    got = upper_bound_savings(
        profile({"C0": 0.4, TRANSITION_BUCKET: 0.1, "C1": 0.45, "C6": 0.05}), CAT)
    assert got == pytest.approx(0.45 * 1.34 / 2.653, abs=1e-12)


def test_upper_bound_on_a_zero_power_baseline_is_zero():
    free_c6 = dataclasses.replace(CAT["C6"], power_mw=0)
    catalog = Catalog({**CAT.cstates, "C6": free_c6}, CAT.pstates)
    assert upper_bound_savings(profile({"C6": 1.0}), catalog) == 0.0


def test_upper_bound_rejects_other_states():
    with pytest.raises(ValidationError, match="C1E"):
        upper_bound_savings(profile({"C0": 0.5, "C1E": 0.5}), CAT)


def test_upper_bound_within_unit_interval():
    for r_c1 in (0.1, 0.5, 0.9):
        p = profile({"C0": 1 - r_c1, "C1": r_c1})
        assert 0.0 <= upper_bound_savings(p, CAT) <= 1.0


# ---------------------------------------------------------------------------
# rescale_residency
# ---------------------------------------------------------------------------

def test_rescale_zero_penalty_is_identity():
    p = profile({"C0": 0.5, "C1": 0.5}, transitions={"C1": 10})
    r = rescale_residency(p, ZERO_PERF)
    assert r.residency == p.residency
    assert r.duration_s == p.duration_s


def test_rescale_golden_single_idle_state():
    p = profile({"C0": 0.5, "C1": 0.5}, transitions={"C1": 1000})
    r = rescale_residency(p, PerfModel(0.01, 1.0, 100))
    assert r.residency["C0"] == pytest.approx(0.505, abs=1e-12)
    assert r.residency[TRANSITION_BUCKET] == pytest.approx(0.0001, abs=1e-12)
    assert r.residency["C1"] == pytest.approx(0.4949, abs=1e-12)
    assert r.duration_s == 1.0


def test_rescale_inflation_only():
    p = profile({"C0": 0.5, "C1": 0.5})
    r = rescale_residency(p, PerfModel(0.01, 1.0, 100))
    assert r.residency["C0"] == pytest.approx(0.505, abs=1e-12)
    assert r.residency["C1"] == pytest.approx(0.495, abs=1e-12)
    assert TRANSITION_BUCKET not in r.residency


def test_rescale_shrinks_idle_proportionally():
    p = profile({"C0": 0.5, "C1": 0.25, "C6": 0.25})
    r = rescale_residency(p, PerfModel(0.01, 1.0, 0))
    # 0.005 of extra active time comes out of 0.5 idle, split evenly.
    assert r.residency["C1"] == pytest.approx(0.2475, abs=1e-12)
    assert r.residency["C6"] == pytest.approx(0.2475, abs=1e-12)


def test_rescale_preserves_duration_and_normalization():
    p = profile({"C0": 0.4, "C1": 0.3, "C1E": 0.2, "C6": 0.1},
                transitions={"C1": 500, "C1E": 200}, duration_s=2.5)
    r = rescale_residency(p, PerfModel(0.01, 0.7, 100))
    assert r.duration_s == 2.5
    assert sum(r.residency.values()) == pytest.approx(1.0, abs=1e-9)
    assert r.transitions == p.transitions


def test_rescale_infeasible_active_inflation():
    with pytest.raises(ValidationError, match="infeasible"):
        rescale_residency(profile({"C0": 0.999, "C1": 0.001}),
                          PerfModel(0.5, 1.0, 0))


def test_rescale_infeasible_transition_bucket():
    p = profile({"C0": 0.5, "C1": 0.001, "C6": 0.499},
                transitions={"C1": 10 ** 6})
    with pytest.raises(ValidationError, match="infeasible"):
        rescale_residency(p, PerfModel(0.0, 0.0, 100))



@pytest.mark.parametrize("count, delta", [(10 ** 400, 100), (10, 10 ** 400)],
                         ids=["count", "delta"])
def test_rescale_transitions_past_a_float_are_infeasible(count, delta):
    # count * delta ns does not convert to a float; it is still compared
    # with the residency, exactly.
    p = profile({"C0": 0.5, "C1": 0.5}, transitions={"C1": count})
    with pytest.raises(ValidationError, match="infeasible"):
        rescale_residency(p, PerfModel(0.0, 0.0, delta))


def test_rescale_transitions_past_a_float_that_fit_the_residency():
    # 10**310 transitions of 100 ns are 1e303 s, within 0.5 * 1e305 s.
    p = profile({"C0": 0.5, "C1": 0.5}, transitions={"C1": 10 ** 310}, duration_s=1e305)
    r = rescale_residency(p, PerfModel(0.0, 0.0, 100))
    assert r.residency["transition"] == pytest.approx(0.01)
    assert r.residency["C1"] == pytest.approx(0.49)

# ---------------------------------------------------------------------------
# avg_power_aw
# ---------------------------------------------------------------------------

def test_aw_golden_mixed_zero_penalty():
    est = avg_power_aw(profile({"C0": 0.5, "C1": 0.45, "C6": 0.05}), CAT, ZERO_PERF)
    assert est.avg_power_w == pytest.approx(2.14, abs=1e-12)
    assert est.savings_vs.baseline_w == pytest.approx(2.653, abs=1e-12)
    assert est.savings_vs.savings_fraction == pytest.approx(0.513 / 2.653, abs=1e-12)


def test_aw_golden_c1_heavy_zero_penalty():
    est = avg_power_aw(profile({"C0": 0.2, "C1": 0.8}), CAT, ZERO_PERF)
    assert est.avg_power_w == pytest.approx(1.04, abs=1e-12)
    assert est.savings_vs.baseline_w == pytest.approx(1.952, abs=1e-12)
    assert est.savings_vs.savings_fraction == pytest.approx(0.912 / 1.952, abs=1e-12)


def test_aw_pure_deep_idle_nothing_to_replace():
    est = avg_power_aw(profile({"C6": 1.0}), CAT, ZERO_PERF)
    assert est.avg_power_w == pytest.approx(0.1)
    assert est.savings_vs.savings_fraction == 0.0


def test_aw_on_a_zero_power_baseline_saves_nothing():
    free_c6 = dataclasses.replace(CAT["C6"], power_mw=0)
    catalog = Catalog({**CAT.cstates, "C6": free_c6}, CAT.pstates)
    est = avg_power_aw(profile({"C6": 1.0}), catalog, ZERO_PERF)
    assert est.avg_power_w == 0.0
    assert est.savings_vs == SavingsVs(baseline_w=0.0, savings_fraction=0.0)


def test_aw_with_penalty_golden():
    p = profile({"C0": 0.5, "C1": 0.5}, transitions={"C1": 1000})
    est = avg_power_aw(p, CAT, PerfModel(0.01, 1.0, 100))
    assert est.avg_power_w == pytest.approx(2.16887, abs=1e-12)
    assert est.savings_vs.baseline_w == pytest.approx(2.72, abs=1e-12)
    assert est.savings_vs.savings_fraction == pytest.approx(
        (2.72 - 2.16887) / 2.72, abs=1e-12
    )


def test_aw_renames_replaced_states():
    est = avg_power_aw(profile({"C0": 0.2, "C1": 0.4, "C1E": 0.4}), CAT, ZERO_PERF)
    assert "C6A" in est.per_state_w and "C6AE" in est.per_state_w
    assert "C1" not in est.per_state_w and "C1E" not in est.per_state_w


def test_aw_rejects_agile_states_in_input():
    with pytest.raises(ValidationError, match="C6A"):
        avg_power_aw(profile({"C0": 0.5, "C6A": 0.5}), CAT, ZERO_PERF)


def test_aw_dominates_baseline_at_zero_penalty():
    for residency in (
        {"C0": 0.5, "C1": 0.45, "C6": 0.05},
        {"C0": 0.1, "C1E": 0.9},
        {"C0": 0.3, "C1": 0.3, "C1E": 0.3, "C6": 0.1},
    ):
        p = profile(residency)
        assert (avg_power_aw(p, CAT, ZERO_PERF).avg_power_w
                <= avg_power(p, CAT).avg_power_w + 1e-12)
