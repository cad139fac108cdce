"""Tests for the discrete-event simulator.

Hand-derived expectations used below:

* An all-idle core parked in C1 burns the C1 catalog power.  With one
  core enabled for {C0, C1} and no arrivals, the only departures from
  1.44 W are the single entry/exit transition (4 ns + 4 ns charged at
  C0 power over a 1 ms window), so avg_power_w must sit within 1e-3 of
  1.44.
* The same setup with {C0, C6} pays 87 us of entry and 30 us of exit
  at C0 power once, then idles at 0.1 W.  Over 10 ms the transition
  share is 117 us / 10 ms = 1.17 %, so the average stays above 0.1 W
  but falls toward it as the window grows.
* State selection is deepest-fits-first: a state fits when the
  predicted idle duration reaches its target residency, ties broken
  toward lower power.  When nothing fits the governor takes the
  shallowest enabled idle state.
* avg_power_w is defined as energy_j / (duration_s * cores), so the
  two report fields must agree to float round-off.
"""

import concurrent.futures
import dataclasses
import hashlib
import heapq
import itertools
import json
import math
import os
import random
import struct
import sys
import time
from array import array
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cstatesim import fsm
from cstatesim import sim as sim_module
from cstatesim.catalog import Catalog, default_catalog
from cstatesim.errors import ValidationError
from cstatesim.model import PerfModel
from cstatesim.demo import demo_sweep
from cstatesim.reporting import canonical_hash, emit_plot_table, sim_report_document
from cstatesim.sim import (
    MAX_ARRIVALS,
    MAX_CORES,
    ArrivalSpec,
    GovernorPolicy,
    ServiceSpec,
    SimConfig,
    SimReport,
    SnoopSpec,
    SweepPoint,
    VariantSpec,
    _arrival_times,
    _cut_ns,
    _draw_streams,
    _pack_owners,
    _rank_index,
    _serve_snoops,
    _service_seconds,
    derive_subseed,
    run,
    select_state,
    sweep,
)

CATALOG = default_catalog()


def c0_catalog(power_mw):
    """The default catalog with its C0 power replaced (P1 follows it)."""
    c0 = dataclasses.replace(CATALOG["C0"], power_mw=power_mw)
    return Catalog({**CATALOG.cstates, "C0": c0})


def quiet_config(**overrides):
    """A minimal valid config with no arrivals, 1 core, 1 ms."""
    base = dict(
        cores=1,
        duration_s=0.001,
        seed=1,
        arrival=ArrivalSpec(rate_qps=0.0),
        cstates_enabled=frozenset({"C0", "C1"}),
    )
    base.update(overrides)
    return SimConfig(**base)


def loaded_config(**overrides):
    """A modest open-loop load: 2 kqps of fixed 10 us work on 1 core."""
    base = dict(
        cores=1,
        duration_s=0.02,
        seed=7,
        arrival=ArrivalSpec(rate_qps=2000.0),
        service=ServiceSpec(dist="fixed", mean_us=10.0),
        cstates_enabled=frozenset({"C0", "C6A", "C6AE", "C6"}),
    )
    base.update(overrides)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# idle-floor power


class TestIdleFloor:
    def test_all_idle_c1_burns_c1_power(self):
        report = run(quiet_config())
        assert report.avg_power_w == pytest.approx(1.44, abs=1e-3)
        assert report.residency.residency["C1"] > 0.999
        assert report.residency.residency["C0"] == 0.0

    def test_all_idle_c6_approaches_c6_power(self):
        short = run(quiet_config(duration_s=0.01, cstates_enabled=frozenset({"C0", "C6"})))
        long = run(quiet_config(duration_s=0.1, cstates_enabled=frozenset({"C0", "C6"})))
        # one-off entry/exit overhead keeps the average above the floor…
        assert short.avg_power_w > 0.1
        assert long.avg_power_w > 0.1
        # …but it amortizes away as the window grows
        assert long.avg_power_w < short.avg_power_w
        assert long.avg_power_w == pytest.approx(0.1, abs=5e-3)

    def test_single_transition_counted(self):
        report = run(quiet_config())
        assert report.transitions == {"C0": 0, "C1": 1}


# ---------------------------------------------------------------------------
# state selection


class TestSelectState:
    GOV = GovernorPolicy(predictor="clairvoyant")

    def pick(self, predicted_us, enabled):
        return select_state(self.GOV, predicted_us, frozenset(enabled), CATALOG).name

    def test_short_idle_picks_shallow(self):
        assert self.pick(5.0, {"C1", "C1E", "C6"}) == "C1"

    def test_long_idle_picks_deep(self):
        assert self.pick(700.0, {"C1", "C1E", "C6"}) == "C6"

    def test_nothing_fits_falls_back_to_shallowest(self):
        assert self.pick(1.0, {"C6A", "C6AE", "C6"}) == "C6A"

    def test_equal_target_tie_breaks_to_lower_power(self):
        # C1 and C6A share a 2 us target; C6A draws less power.
        assert self.pick(5.0, {"C1", "C6A"}) == "C6A"

    def test_boundary_exactly_at_target_fits(self):
        assert CATALOG["C6"].target_residency_us == 600.0
        assert self.pick(600.0, {"C1", "C6"}) == "C6"
        assert self.pick(599.999, {"C1", "C6"}) == "C1"

    def test_no_idle_state_raises(self):
        with pytest.raises(ValidationError, match="no idle states"):
            select_state(self.GOV, 5.0, frozenset(), CATALOG)

    def test_equal_depth_resolves_to_first_name(self):
        # C6AE made a twin of C1E (same latencies and power, so the
        # agile pairing holds): the first name wins whether the twins
        # fit or are the fallback.
        c1e = CATALOG["C1E"]
        twin = dataclasses.replace(c1e, name="C6AE")
        catalog = Catalog(cstates={**CATALOG.cstates, "C6AE": twin}, pstates=CATALOG.pstates)
        for predicted_us in (0.0, c1e.target_residency_us, 50.0):
            assert select_state(self.GOV, predicted_us, frozenset({"C6AE", "C1E"}),
                                catalog).name == "C1E"

    def test_matches_scan_over_every_menu(self):
        # The threshold table agrees with the definition: the deepest
        # fitting state by (target residency, -power), else the
        # shallowest, first name among equals.
        def key(s):
            return (s.target_residency_us, -s.power_mw)
        idle = ["C1", "C1E", "C6", "C6A", "C6AE"]
        predictions = [-1.0, 0.0, math.nan, math.inf] + [
            s.target_residency_us + d
            for s in CATALOG.cstates.values() for d in (-1e-9, 0.0, 1e-9)
        ]
        for r in range(1, len(idle) + 1):
            for menu in itertools.combinations(idle, r):
                states = [CATALOG[n] for n in sorted(menu)]
                for p in predictions:
                    fits = [s for s in states if s.target_residency_us <= p]
                    want = max(fits, key=key) if fits else min(states, key=key)
                    assert self.pick(p, set(menu) | {"C0"}) == want.name, (menu, p)


class TestCutPoints:
    """_cut_ns(T), the least integer d with d / 1000.0 >= T (inf if none)."""

    @pytest.mark.parametrize("threshold_us, cut", [
        (0.0, 0),
        (0.1 + 0.2, 301),              # 0.30000000000000004: 300 ns falls short
        (20.0, 20_000),
        (600.0, 600_000),
        (2 ** 53 / 1000, 2 ** 53),
        (1e15, 10 ** 18 - 64),         # the 64 integers below 1e18 round up to it
        (1e300, None),                 # a 1007-bit cut, checked by its definition
        (sys.float_info.max, math.inf),
    ])
    def test_fixed_cases(self, threshold_us, cut):
        got = _cut_ns(threshold_us)
        if cut is not None:
            assert got == cut
        if got == math.inf:
            assert not int(sys.float_info.max) / 1000.0 >= threshold_us
        else:
            assert got / 1000.0 >= threshold_us and not (got - 1) / 1000.0 >= threshold_us

    @given(threshold_us=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
           offset=st.integers(-4, 4) | st.integers(-2 ** 64, 2 ** 64))
    def test_integer_cut_decides_as_the_us_comparison(self, threshold_us, offset):
        cut = _cut_ns(threshold_us)
        d = (int(sys.float_info.max) if cut == math.inf else cut) + offset
        assert (d / 1000.0 >= threshold_us) == (d >= cut)


def round_ns(x):
    """The stream conversions' rounding of a drawn value to whole ns."""
    m = sim_module._ROUND_NS
    return math.floor(x + m - m) if x < m else math.floor(x)


class TestRoundNs:
    """The inlined form of round() that the stream conversions use."""

    @pytest.mark.parametrize("x", [
        -0.0, 0.0, 0.5, 1.5, 2.5, 3.5, 1e6 + 0.5, 2.0 ** 51 + 0.5, 2.0 ** 52 - 1.5,
        0.49999999999999994,           # the float below 0.5: a naive +0.5 gives 1
        2.0 ** 52 - 0.5,               # a tie at the top of the fast form's range
        2.0 ** 52, 2.0 ** 53 - 1, 1e300,
    ])
    def test_fixed_cases(self, x):
        assert round_ns(x) == round(x) and type(round_ns(x)) is int

    def test_inf_overflows_as_round_does(self):
        with pytest.raises(OverflowError):
            round(math.inf)
        with pytest.raises(OverflowError):
            round_ns(math.inf)

    def test_poisson_chunk_gaps_stay_below_the_fast_form_range(self):
        # The chunked Poisson draw uses the form without its branch when
        # 40 / rate * 1e9 < 2**52: -log(1 - u) is below 37 for every
        # u < 1 that random() returns.
        assert -math.log(1.0 - (1.0 - 2.0 ** -53)) < 37

    @given(x=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
           | st.floats(min_value=0.0, max_value=2.0 ** 53))
    def test_equals_round(self, x):
        assert round_ns(x) == round(x)

    @given(seconds=st.lists(st.floats(0.0, 1e10) | st.floats(4.5e6, 9.1e6), max_size=20),
           inflation=st.floats(1.0, 2.0))
    def test_service_ns_is_round(self, seconds, inflation):
        # Values from 4.5e6 s straddle 2**52 and 2**53 ns; past 2**63 ns
        # the conversion is rejected.
        streams = sim_module._Streams(None, array("q"), math.inf, array("d", seconds))
        want = [round(x * inflation * 1e9) or 1 for x in seconds]
        if max(want, default=0) < 2 ** 63:
            assert list(streams.service_ns(inflation)) == want
        else:
            with pytest.raises(ValidationError, match=r"not below 2\*\*63 ns"):
                streams.service_ns(inflation)


def float_bits(x):
    """x's IEEE-754 bytes, so that -0.0 and 0.0 differ."""
    return struct.pack("<d", x)


# Uniform draws in [0, 1), subnormals included.
UNIFORM_DRAWS = st.floats(0.0, 1.0, exclude_max=True)


class TestSignFlippedDraws:
    """The samplers move expovariate's negation onto the rate, and the
    lognormal acceptance test's onto its left side.  IEEE-754 division
    rounds the same for either sign, so the draws keep their bits."""

    @given(u=UNIFORM_DRAWS, rate=st.floats(1e-9, 1e12))
    @example(u=0.0, rate=1.0)                   # -0.0 either way
    @example(u=1.0 - 2.0 ** -53, rate=1e-9)     # the largest draw
    @example(u=5e-324, rate=1e12)               # a subnormal draw
    def test_exponential_draw_keeps_its_bits(self, u, rate):
        x = math.log(1.0 - u)
        assert float_bits(x / -rate) == float_bits(-x / rate)
        assert float_bits(x / -rate * 1e9) == float_bits(-x / rate * 1e9)

    @given(u1=UNIFORM_DRAWS, u2=UNIFORM_DRAWS)
    @example(u1=0.0, u2=0.0)
    @example(u1=1.0 - 2.0 ** -53, u2=1.0 - 2.0 ** -53)
    def test_lognormal_acceptance_decides_as_normalvariate(self, u1, u2):
        u2 = 1.0 - u2
        z = sim_module._NV_MAGICCONST * (u1 - 0.5) / u2
        assert (z * z / -4.0 >= math.log(u2)) == (z * z / 4.0 <= -math.log(u2))


# ---------------------------------------------------------------------------
# determinism and seeding


class TestDeterminism:
    def test_same_seed_same_report(self):
        cfg = loaded_config()
        a = run(cfg)
        b = run(cfg)
        assert a.avg_power_w == b.avg_power_w
        assert a.energy_j == b.energy_j
        assert a.residency == b.residency
        assert a.latency_us == b.latency_us
        assert a.transitions == b.transitions

    def test_different_seed_different_trajectory(self):
        a = run(loaded_config(seed=7, service=ServiceSpec(dist="exponential", mean_us=10.0)))
        b = run(loaded_config(seed=8, service=ServiceSpec(dist="exponential", mean_us=10.0)))
        assert a.energy_j != b.energy_j

    def test_subseed_depends_on_every_part(self):
        assert derive_subseed(1, "arrival", 0) != derive_subseed(1, "arrival", 1)
        assert derive_subseed(1, "arrival", 0) != derive_subseed(1, "service", 0)
        assert derive_subseed(1, "arrival", 0) != derive_subseed(2, "arrival", 0)

    def test_subseed_stable_and_in_range(self):
        s = derive_subseed(42, "snoop", 3)
        assert s == derive_subseed(42, "snoop", 3)
        assert 0 <= s < 2**63

    @pytest.mark.parametrize("sigma", [0.2, 1.0, 2.5])
    @pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
    def test_lognormal_service_draws_are_the_stdlib_draws(self, seed, sigma):
        # The inlined sampler gives random.lognormvariate's numbers from
        # the same draws, across a chunk boundary, and makes no extra draw
        # (none at all for a run with no arrivals).
        spec = ServiceSpec("lognormal", 20.0, sigma=sigma)
        mu = math.log(spec.mean_us * 1e-6) - spec.sigma ** 2 / 2.0
        for n in (0, 1, sim_module._CHUNK + 1, 2 * sim_module._CHUNK + 3):
            ours, ref = random.Random(seed), random.Random(seed)
            assert list(_service_seconds(spec, ours, n)) == [
                ref.lognormvariate(mu, sigma) for _ in range(n)]
            assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("mean_us", [20.0, 0.001, 3e12])
    def test_exponential_service_draws_are_the_stdlib_draws(self, mean_us):
        # One expovariate draw per request, bit for bit, across a chunk
        # boundary, and no extra draw.
        spec = ServiceSpec("exponential", mean_us)
        for n in (1, sim_module._CHUNK + 1):
            ours, ref = random.Random(4), random.Random(4)
            assert [float_bits(x) for x in _service_seconds(spec, ours, n)] == [
                float_bits(ref.expovariate(1 / (mean_us * 1e-6))) for _ in range(n)]
            assert ours.getstate() == ref.getstate()

    @staticmethod
    def reference_bursty_times(seed, spec, t_end):
        """Bursty arrivals before t_end and the lookahead, one expovariate
        draw for the first on phase, each gap, and each off and on phase."""
        rng = random.Random(seed)

        def draw(rate):
            return max(1, round(rng.expovariate(rate) * 1e9))

        on_s, off_s = spec.burst_on_ms * 1e-3, spec.burst_off_ms * 1e-3
        on_rate = spec.rate_qps * (on_s + off_s) / on_s
        t, on_end, times = 0, draw(1.0 / on_s), []
        while True:
            cand = t + draw(on_rate)
            if cand <= on_end:
                if cand >= t_end:
                    return times, cand
                t = cand
                times.append(t)
            else:  # the gap overruns the on phase: an off phase, then an on phase
                t = on_end + draw(1.0 / off_s)
                on_end = t + draw(1.0 / on_s)

    @pytest.mark.parametrize("rate_qps, on_ms, off_ms", [
        (40_000.0, 1.0, 1.0), (1_000.0, 0.05, 2.0), (500_000.0, 2.0, 0.1)])
    @pytest.mark.parametrize("seed", range(5))
    def test_bursty_arrival_draws_are_the_stdlib_draws(self, seed, rate_qps, on_ms, off_ms):
        # About 4000 arrivals each: many on/off cycles, and gaps that
        # overrun an on phase.
        spec = ArrivalSpec("bursty", rate_qps, burst_on_ms=on_ms, burst_off_ms=off_ms)
        t_end = round(4000 / rate_qps * 1e9)
        times, lookahead = self.reference_bursty_times(seed, spec, t_end)
        got, got_lookahead = _arrival_times(spec, random.Random(seed), t_end)
        assert (list(got), got_lookahead) == (times, lookahead)

    @staticmethod
    def reference_poisson_times(seed, rate, n):
        """The first n Poisson arrival times, one expovariate draw each."""
        ref, t, times = random.Random(seed), 0, []
        for _ in range(n):
            t += round(ref.expovariate(rate) * 1e9) or 1
            times.append(t)
        return times

    @pytest.mark.parametrize("arrivals", [1, sim_module._CHUNK - 1, sim_module._CHUNK,
                                          sim_module._CHUNK + 1, 3 * sim_module._CHUNK + 5])
    def test_poisson_arrival_draws_are_the_stdlib_draws(self, arrivals):
        # Gaps are drawn a chunk at a time, perhaps past the horizon, but
        # the arrivals and the lookahead are those of one expovariate
        # draw per arrival.  Only the outputs are compared: a chunk may
        # draw ahead.  The horizon is just after the last arrival, then
        # exactly at the lookahead.
        rate = 40_000.0
        times = self.reference_poisson_times(9, rate, arrivals + 1)
        for t_end in (times[-2] + 1, times[-1]):
            got, lookahead = _arrival_times(ArrivalSpec("poisson", rate), random.Random(9), t_end)
            assert list(got) == times[:-1]
            assert lookahead == times[-1]

    @pytest.mark.parametrize("rate", [1e-8, 1e-7, 2.5e-7, 8.8e-6, 9e-6])
    def test_poisson_gaps_past_2_52_ns_are_the_stdlib_draws(self, rate):
        # Below about 8.9e-6 qps the gaps are drawn one at a time, and
        # below about 2.2e-7 qps most of them are past 2**52 ns, where
        # they are rounded without the fast form.
        times = self.reference_poisson_times(3, rate, 20)
        got, lookahead = _arrival_times(ArrivalSpec("poisson", rate), random.Random(3), times[-1])
        assert (list(got), lookahead) == (times[:-1], times[-1])

    def test_poisson_horizon_on_a_chunk_boundary(self):
        # At seed 5 the horizons at the 1st, 2nd and 3rd _CHUNK-th draw
        # each end a chunk exactly: the lookahead is a chunk's last draw.
        class Counting(random.Random):
            draws = 0

            def random(self):
                self.draws += 1
                return super().random()

        rate, chunk = 40_000.0, sim_module._CHUNK
        times = self.reference_poisson_times(5, rate, 3 * chunk)
        for j in (chunk, 2 * chunk, 3 * chunk):
            rng = Counting(5)
            got, lookahead = _arrival_times(ArrivalSpec("poisson", rate), rng, times[j - 1])
            assert (list(got), lookahead) == (times[:j - 1], times[j - 1])
            assert rng.draws == j


# ---------------------------------------------------------------------------
# config validation


class TestConfigValidation:
    def test_utilization_at_or_above_one_rejected(self):
        with pytest.raises(ValidationError, match="utilization"):
            SimConfig(
                cores=1,
                duration_s=0.01,
                seed=1,
                arrival=ArrivalSpec(rate_qps=100000.0),
                service=ServiceSpec(dist="fixed", mean_us=10.0),
            )
        # A huge mean stays a short figure, not 300 digits.
        with pytest.raises(ValidationError, match="utilization") as info:
            quiet_config(arrival=ArrivalSpec(rate_qps=1.0),
                         service=ServiceSpec(dist="fixed", mean_us=1e300))
        assert len(str(info.value)) < 60

    def test_expected_arrivals_past_the_limit_rejected_before_any_draw(self):
        # 10^10 expected arrivals used to be drawn until memory ran out.
        start = time.perf_counter()
        with pytest.raises(ValidationError,
                           match=r"expects 1e\+10 arrivals; at most 10,000,000"):
            quiet_config(duration_s=1e6, arrival=ArrivalSpec(rate_qps=1e4))
        assert time.perf_counter() - start < 1.0
        for rate_qps in (MAX_ARRIVALS / 1000.0 - 1.0, MAX_ARRIVALS / 1000.0):
            cfg = quiet_config(duration_s=1000.0, arrival=ArrivalSpec(rate_qps=rate_qps))
            assert cfg.arrival.rate_qps == rate_qps
        with pytest.raises(ValidationError, match="arrivals"):
            quiet_config(duration_s=1000.0,
                         arrival=ArrivalSpec(rate_qps=MAX_ARRIVALS / 1000.0 + 1.0))

    def test_c0_required(self):
        with pytest.raises(ValidationError, match="C0"):
            quiet_config(cstates_enabled=frozenset({"C1", "C6"}))

    def test_some_idle_state_required(self):
        with pytest.raises(ValidationError, match="idle state"):
            quiet_config(cstates_enabled=frozenset({"C0"}))

    @pytest.mark.parametrize("cores", [0, MAX_CORES + 1, 10**11])
    def test_core_count_out_of_bounds_rejected(self, cores):
        # Rejected at construction, before any per-core list exists.
        with pytest.raises(ValidationError, match=r"cores must be in \[1, 4096\]"):
            quiet_config(cores=cores)

    def test_core_count_at_the_bound_accepted(self):
        assert quiet_config(cores=MAX_CORES).cores == 4096

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValidationError, match="64-bit"):
            quiet_config(seed=2**64)

    def test_bad_dispatch_rejected(self):
        with pytest.raises(ValidationError, match="dispatch"):
            quiet_config(dispatch="fastest_first")

    def test_bad_predictor_rejected(self):
        with pytest.raises(ValidationError, match="predictor"):
            GovernorPolicy(predictor="psychic")

    @pytest.mark.parametrize("build, message", [
        (lambda: ArrivalSpec(process="uniform"), "arrival process must be one of"),
        (lambda: ArrivalSpec(rate_qps=-1.0), "rate_qps must be nonnegative"),
        (lambda: ServiceSpec(dist="pareto"), "service dist must be one of"),
        (lambda: ServiceSpec(mean_us=0.0), "mean_us must be positive"),
        (lambda: ServiceSpec(dist="lognormal", sigma=0.0), "lognormal sigma must be positive"),
        (lambda: SnoopSpec(rate_per_core_hz=-1.0), "snoop rate must be nonnegative"),
        (lambda: SnoopSpec(service_ns=-1), "snoop service_ns must be nonnegative"),
        (lambda: GovernorPolicy(ewma_alpha=0.0), r"ewma_alpha must be in \(0, 1\]"),
        (lambda: GovernorPolicy(ewma_alpha=1.5), r"ewma_alpha must be in \(0, 1\]"),
        (lambda: quiet_config(pack_queue_cap=0), "pack_queue_cap must be >= 1"),
    ], ids=["process", "rate", "dist", "mean", "sigma", "snoop-rate", "snoop-service",
            "alpha-zero", "alpha-above-one", "pack-cap"])
    def test_out_of_range_field_rejected(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    def test_negative_rtt_rejected(self):
        with pytest.raises(ValidationError, match="rtt"):
            quiet_config(network_rtt_us=-1.0)

    @pytest.mark.parametrize("dist", ["fixed", "exponential", "lognormal"])
    def test_mean_that_underflows_in_seconds_rejected(self, dist):
        # 1e-320 us is 0 s in floats: the exponential sampler would
        # divide by it and the lognormal one take its log.
        with pytest.raises(ValidationError, match="mean_us 1e-320 underflows to 0 s"):
            ServiceSpec(dist, 1e-320)

    def test_bursty_needs_positive_phases(self):
        with pytest.raises(ValidationError, match="burst"):
            ArrivalSpec(process="bursty", rate_qps=100.0, burst_on_ms=0.0)

    def test_nan_rate_rejected(self):
        with pytest.raises(ValidationError, match="rate_qps must be finite"):
            ArrivalSpec(rate_qps=math.nan)

    def test_infinite_service_mean_rejected(self):
        with pytest.raises(ValidationError, match="mean_us must be finite"):
            ServiceSpec(mean_us=math.inf)

    def test_infinite_snoop_rate_rejected(self):
        # An infinite rate draws zero gaps: one snoop per nanosecond.
        with pytest.raises(ValidationError, match="rate_per_core_hz must be finite"):
            SnoopSpec(rate_per_core_hz=math.inf)

    def test_infinite_duration_rejected(self):
        with pytest.raises(ValidationError, match="duration_s must be finite"):
            quiet_config(duration_s=math.inf)

    def test_sub_nanosecond_duration_rejected(self):
        # It rounds to an empty horizon, which left nothing to average over.
        for duration_s in (0.0, -1.0, 4e-10):
            with pytest.raises(ValidationError, match="at least 1 ns"):
                quiet_config(duration_s=duration_s)
        assert run(quiet_config(duration_s=6e-10)).residency.duration_s == 1e-9

    def test_horizon_beyond_64_bit_nanoseconds_rejected(self):
        # Times are stored as 64-bit nanoseconds; 1e300 s also overflowed
        # round() with a bare OverflowError.
        for overrides in (dict(duration_s=1e300), dict(duration_s=1e10),
                          dict(network_rtt_us=5e15)):
            with pytest.raises(ValidationError, match="below 2\\*\\*62 ns"):
                quiet_config(**overrides)

    def test_first_arrival_far_past_the_horizon(self):
        # At 1e-12 qps the first arrival lands about 1e21 ns out, past
        # the 64-bit range; the clairvoyant governor still reads it.
        report = run(quiet_config(arrival=ArrivalSpec(rate_qps=1e-12),
                                  cstates_enabled=frozenset({"C0", "C1", "C6"})))
        assert report.requests_offered == 0
        assert report.transitions == {"C0": 0, "C1": 0, "C6": 1}

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("process", ["periodic", "poisson"])
    def test_vanishing_rate_draws_no_arrival(self, process, seed):
        # At 1e-300 qps a gap in ns overflows a float; it used to end in
        # a bare OverflowError from round().  Such an arrival never comes.
        report = run(quiet_config(seed=seed, arrival=ArrivalSpec(process, 1e-300),
                                  cstates_enabled=frozenset({"C0", "C1", "C6"})))
        assert report.requests_offered == 0
        assert report.transitions == {"C0": 0, "C1": 0, "C6": 1}

    @pytest.mark.parametrize("rate_qps", [1e-300, 1e-100, 0.049])
    def test_bursty_rate_below_one_arrival_per_10k_cycles_rejected(self, rate_qps):
        # The bursty stream is drawn one on/off cycle at a time, so at
        # 1e-100 qps the draw of the first arrival never ended (and at
        # 1e-300 a gap overflowed round()).
        with pytest.raises(ValidationError, match="per on/off cycle"):
            ArrivalSpec("bursty", rate_qps)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_bursty_rate_at_the_cycle_bound_runs(self, seed):
        # 1e-4 arrivals per 2 ms cycle: about 10k cycles drawn to find
        # the first arrival past a 1 ms horizon.
        started = time.monotonic()
        report = run(quiet_config(seed=seed, arrival=ArrivalSpec("bursty", 0.05)))
        assert report.requests_offered == 0
        assert time.monotonic() - started < 5.0

    def test_bursty_phase_beyond_64_bit_nanoseconds_rejected(self):
        # A phase of 1e300 ms overflowed round() when it was drawn.
        for overrides in (dict(burst_on_ms=1e300), dict(burst_off_ms=5e12)):
            with pytest.raises(ValidationError, match="below 2\\*\\*62 ns"):
                ArrivalSpec("bursty", 1000.0, **overrides)

    def test_bursty_cycles_over_the_horizon_bounded(self):
        # 1e-6 ms phases make 5e8 on/off cycles in 1 s; drawn one cycle
        # at a time, that stream took about 12 minutes.
        def tiny_phases(duration_s):
            return SimConfig(
                cores=4, duration_s=duration_s, seed=1,
                service=ServiceSpec("exponential", 20.0),
                arrival=ArrivalSpec("bursty", 100_000.0, burst_on_ms=1e-6, burst_off_ms=1e-6))
        started = time.monotonic()
        with pytest.raises(ValidationError, match="on/off cycles"):
            run(tiny_phases(1.0))
        assert time.monotonic() - started < 1.0
        # 5e4 cycles in 0.1 ms are within the bound.
        report = run(tiny_phases(1e-4))
        assert report.requests_offered > 0

    def test_nan_rtt_rejected(self):
        with pytest.raises(ValidationError, match="network_rtt_us must be finite"):
            quiet_config(network_rtt_us=math.nan)


# ---------------------------------------------------------------------------
# load, latency, and queueing


class TestLoadBehaviour:
    def test_energy_identity(self):
        report = run(loaded_config())
        # the profile carries the realized horizon (whole nanoseconds)
        horizon_s = report.residency.duration_s
        assert report.avg_power_w == pytest.approx(
            report.energy_j / (horizon_s * report.config.cores), rel=1e-12
        )

    def test_residency_sums_to_one(self):
        report = run(loaded_config(cores=2, arrival=ArrivalSpec(rate_qps=4000.0)))
        assert sum(report.residency.residency.values()) == pytest.approx(1.0, abs=1e-9)
        for prof in report.per_core:
            assert sum(prof.residency.values()) == pytest.approx(1.0, abs=1e-9)

    def test_aggregate_is_mean_of_cores(self):
        report = run(loaded_config(cores=2, seed=3, arrival=ArrivalSpec(rate_qps=4000.0)))
        for state, frac in report.residency.residency.items():
            per_core = [p.residency.get(state, 0.0) for p in report.per_core]
            assert frac == pytest.approx(sum(per_core) / len(per_core), abs=1e-9)

    def test_latency_includes_service_and_rtt(self):
        report = run(
            loaded_config(
                network_rtt_us=117.0,
                arrival=ArrivalSpec(rate_qps=1000.0),
                cstates_enabled=frozenset({"C0", "C1"}),
            )
        )
        assert report.latency_us.p50 >= 127.0
        assert report.latency_us.mean >= 127.0

    def test_rtt_shifts_every_latency_statistic_exactly(self):
        # The RTT is a constant added to every latency: each statistic
        # moves by exactly that much, and nothing else in the run moves.
        cfg = loaded_config(cores=2, arrival=ArrivalSpec(rate_qps=20_000.0),
                            service=ServiceSpec(dist="exponential", mean_us=30.0))
        near = run(cfg)
        far = run(dataclasses.replace(cfg, network_rtt_us=117.0))
        assert near.requests_completed > 100
        for stat in ("mean", "p50", "p95", "p99", "p999"):
            assert getattr(far.latency_us, stat) - getattr(near.latency_us, stat) == \
                pytest.approx(117.0, abs=1e-9), stat
        assert far.energy_j == near.energy_j
        assert far.avg_power_w == near.avg_power_w
        assert far.residency == near.residency
        assert far.per_core == near.per_core
        assert far.transitions == near.transitions
        assert far.wakeups_aborted == near.wakeups_aborted
        assert (far.requests_offered, far.requests_completed) == (
            near.requests_offered, near.requests_completed)

    def test_percentiles_ordered(self):
        stats = run(loaded_config(service=ServiceSpec(dist="exponential", mean_us=10.0))).latency_us
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.p999

    @pytest.mark.parametrize("pct", ["50", "95", "99", "99.9"])
    def test_percentile_rank_is_exact(self, pct):
        # Nearest rank, ceil(pct / 100 * n) in exact arithmetic: with
        # float division p99.9 read one rank high at n = 1000.
        for n in range(1, 5001):
            rank = math.ceil(Fraction(pct) / 100 * n)
            assert _rank_index(n, float(pct)) == rank - 1, n

    def test_completes_offered_load_when_unsaturated(self):
        report = run(loaded_config())
        assert report.requests_completed == report.requests_offered
        assert not report.saturated

    def test_c0_power_moves_only_the_energy(self):
        # The catalog's C0 power prices active time and transitions; it
        # changes no decision, residency or latency.
        hot = run(loaded_config(), catalog=c0_catalog(11_000))
        cool = run(loaded_config())
        assert hot.avg_power_w > cool.avg_power_w
        assert hot.residency == cool.residency
        assert hot.latency_us == cool.latency_us

    def test_service_time_past_64_bits_is_a_validation_error(self):
        # 1e16 us is 1e19 ns, past the 64-bit service array.  The failed
        # conversion is not kept: a second try fails the same way rather
        # than reading a truncated array.
        cfg = SimConfig(cores=MAX_CORES, duration_s=4e9, seed=1,
                        arrival=ArrivalSpec("periodic", 4e-8),
                        service=ServiceSpec("fixed", 1e16))
        with pytest.raises(ValidationError, match=r"not below 2\*\*63 ns"):
            run(cfg)
        streams = _draw_streams(cfg)
        assert len(streams.arrivals) == 159
        for _ in range(2):
            with pytest.raises(ValidationError, match=r"not below 2\*\*63 ns"):
                run(cfg, streams=streams)

    def test_catalog_agile_exit_latency_reaches_the_run(self):
        # A slower C6A exit delays every request that wakes a core and
        # adds transition time charged at C0 power.
        cfg = loaded_config(cores=4, arrival=ArrivalSpec(rate_qps=20000.0),
                            cstates_enabled=frozenset({"C0", "C6A"}))
        slow_exit = dataclasses.replace(CATALOG["C6A"], hw_exit_ns=1500)
        slow = run(cfg, catalog=Catalog({**CATALOG.cstates, "C6A": slow_exit},
                                        CATALOG.pstates))
        fast = run(cfg)
        assert slow.latency_us.mean > fast.latency_us.mean
        assert slow.energy_j > fast.energy_j

    def test_frequency_penalty_saturates_marginal_load(self):
        # 0.9 utilization at nominal speed doubles past 1.0 when every
        # request takes 2x as long, so the queue grows without bound.
        cfg = SimConfig(
            cores=1,
            duration_s=0.05,
            seed=5,
            arrival=ArrivalSpec(rate_qps=90000.0),
            service=ServiceSpec(dist="fixed", mean_us=10.0),
            cstates_enabled=frozenset({"C0", "C6A"}),
        )
        report = run(cfg, perf=PerfModel(freq_penalty=0.5, scalability=1.0))
        assert report.saturated
        assert report.peak_queue >= 32
        assert report.requests_completed < report.requests_offered


# ---------------------------------------------------------------------------
# dispatch policies


class TestDispatch:
    def test_pack_lowest_index_concentrates_load(self):
        report = run(
            SimConfig(
                cores=2,
                duration_s=0.02,
                seed=1,
                arrival=ArrivalSpec(rate_qps=5000.0),
                service=ServiceSpec(dist="fixed", mean_us=10.0),
                dispatch="pack_lowest_index",
            )
        )
        busy = report.per_core[0].residency["C0"]
        spare = report.per_core[1].residency["C0"]
        assert busy > 0.0
        assert spare == 0.0

    def test_round_robin_spreads_load(self):
        report = run(
            SimConfig(
                cores=2,
                duration_s=0.02,
                seed=1,
                arrival=ArrivalSpec(rate_qps=5000.0),
                service=ServiceSpec(dist="fixed", mean_us=10.0),
                dispatch="round_robin",
            )
        )
        assert all(p.residency["C0"] > 0.0 for p in report.per_core)

    @staticmethod
    def popping_pack_owner(queues, cap, t):
        """The pack rule on popped queues: pop each scanned queue up to t,
        then test len < cap; when no core has room, the shortest queue."""
        for c, queue in enumerate(queues):
            while queue and queue[0] <= t:
                queue.popleft()
            if len(queue) < cap:
                return c
        lengths = [len(queue) for queue in queues]
        return lengths.index(min(lengths))

    def test_pack_owners_match_popping_each_scanned_queue(self):
        # _pack_owners only reads its queues, so they keep completions
        # the reference has popped, and each owner leaves them as they
        # were.  Arrivals and completions share one small range of whole
        # times, so they tie often, and completions tie with each other.
        for seed in range(200):
            rng = random.Random(seed)
            n_cores, cap = rng.randint(1, 5), rng.randint(1, 4)
            arrivals = sorted(rng.sample(range(1, 60), rng.randint(1, 59)))
            queues = [deque() for _ in range(n_cores)]
            reference = [deque() for _ in range(n_cores)]
            owners = _pack_owners(arrivals, queues, cap)
            for t in arrivals:
                before = [list(queue) for queue in queues]
                c = next(owners)
                assert [list(queue) for queue in queues] == before, (seed, t)  # only read
                assert c == self.popping_pack_owner(reference, cap, t), (seed, t)
                done = t + rng.randint(1, 12)
                if reference[c] and reference[c][-1] > done:
                    done = reference[c][-1]  # completions stay ascending
                queues[c].append(done)
                reference[c].append(done)

    def test_peak_queue_and_completions_match_an_independent_count(self):
        # With no entry or exit latency each core is a plain FIFO queue:
        # a request completes at max(arrival, previous completion) +
        # service.  The peak is then counted with one heap of the
        # completions of every core: the most requests that arrived by
        # an arrival's time and complete after it.  Queues build up near
        # the top utilizations and in bursts, where the engine drains.
        zero = Catalog({name: dataclasses.replace(spec, hw_entry_ns=0, hw_exit_ns=0)
                        for name, spec in CATALOG.cstates.items()})
        menus = [frozenset({"C0", "C1"}), frozenset({"C0", "C1", "C1E", "C6"})]
        for seed in range(150):
            rng = random.Random(seed)
            cores = rng.randint(1, 4)
            mean_us = rng.uniform(2.0, 20.0)
            rate_qps = rng.uniform(0.3, 0.97) * cores / mean_us * 1e6
            config = SimConfig(
                cores=cores,
                duration_s=rng.randint(100, 600) / rate_qps,
                seed=seed,
                arrival=ArrivalSpec(rng.choice(["poisson", "periodic", "bursty"]), rate_qps,
                                    burst_on_ms=rng.uniform(0.02, 0.5),
                                    burst_off_ms=rng.uniform(0.02, 0.5)),
                service=ServiceSpec(rng.choice(["fixed", "exponential", "lognormal"]), mean_us,
                                    sigma=rng.uniform(0.2, 1.5)),
                dispatch=rng.choice(["round_robin", "random", "pack_lowest_index"]),
                cstates_enabled=rng.choice(menus),
                pack_queue_cap=rng.randint(1, 4),
            )
            streams = _draw_streams(config)
            t_end = round(config.duration_s * 1e9)
            dispatch = random.Random(derive_subseed(seed, "dispatch")).randrange
            turns = itertools.cycle(range(cores))
            free = [0] * cores
            queues = [deque() for _ in range(cores)]
            pending = []
            peak = completed = 0
            for t, service_ns in zip(streams.arrivals, streams.service_ns(1.0)):
                if config.dispatch == "round_robin":
                    c = next(turns)
                elif config.dispatch == "random":
                    c = dispatch(cores)
                else:
                    c = self.popping_pack_owner(queues, config.pack_queue_cap, t)
                done = free[c] = max(t, free[c]) + service_ns
                queues[c].append(done)
                heapq.heappush(pending, done)
                while pending[0] <= t:
                    heapq.heappop(pending)
                peak = max(peak, len(pending))
                completed += done < t_end
            report = run(config, catalog=zero, streams=streams)
            assert (report.peak_queue, report.requests_completed, report.requests_offered) == (
                peak, completed, len(streams.arrivals)), (seed, config)


# ---------------------------------------------------------------------------
# snoops


class TestSnoops:
    def test_snoops_add_energy_without_changing_decisions(self):
        base = dict(
            cores=1,
            duration_s=0.02,
            seed=7,
            arrival=ArrivalSpec(rate_qps=2000.0),
            service=ServiceSpec(dist="fixed", mean_us=10.0),
            cstates_enabled=frozenset({"C0", "C6A", "C6AE", "C6"}),
        )
        off = run(SimConfig(**base), trace=True)
        on = run(SimConfig(**base, snoop=SnoopSpec(rate_per_core_hz=5000.0)), trace=True)
        assert on.snoops_served > 0
        assert on.energy_j > off.energy_j
        assert on.trace.decisions == off.trace.decisions
        assert on.residency == off.residency
        assert on.latency_us == off.latency_us

    def test_no_snoop_rate_no_snoops(self):
        report = run(loaded_config())
        assert report.snoops_served == 0

    @pytest.mark.parametrize("rate_hz", [1e-300, 1e-3])
    def test_vanishing_snoop_rate_serves_none(self, rate_hz):
        # At 1e-300 Hz a snoop gap in ns overflows a float, which
        # round() cannot take; such a gap ends the interval like any
        # other gap past it.
        cfg = loaded_config(snoop=SnoopSpec(rate_per_core_hz=rate_hz))
        on, off = run(cfg), run(dataclasses.replace(cfg, snoop=SnoopSpec()))
        assert on.snoops_served == 0
        assert on.energy_j == off.energy_j

    def test_lazy_snoops_over_a_horizon_long_residency(self):
        # One core, no arrivals: it enters C6A at t = 0 and stays
        # resident up to the horizon, so its one resident interval is
        # closed by the horizon.  Served snoops are Poisson in the
        # resident time; each charges its window at C1 - C6A power,
        # less window overlaps and the part past the horizon.
        rate_hz = 20_000.0
        cfg = quiet_config(duration_s=0.05, cstates_enabled=frozenset({"C0", "C6A"}),
                           snoop=SnoopSpec(rate_per_core_hz=rate_hz))
        on = run(cfg)
        off = run(dataclasses.replace(cfg, snoop=SnoopSpec()))
        t_end = 50_000_000
        res_start = fsm.entry_timeline("C6A").total_ns
        assert on.residency.residency["C6A"] == (t_end - res_start) / t_end

        mu = rate_hz * (t_end - res_start) * 1e-9
        assert abs(on.snoops_served - mu) <= 6 * math.sqrt(mu)

        # The core's own stream, drawn from the start of the interval.
        rng = random.Random(derive_subseed(cfg.seed, "snoop", 0))
        times = []
        ts = res_start
        while True:
            ts += max(1, round(rng.expovariate(rate_hz) * 1e9))
            if ts >= t_end:
                break
            times.append(ts)
        assert on.snoops_served == len(times)
        window = fsm.snoop_timeline("C6A", service_ns=50).total_ns + 50
        overlap = sum(max(0, a + window - b) for a, b in zip(times, times[1:]))
        clipped = max(0, times[-1] + window - t_end)
        delta_mw = CATALOG["C1"].power_mw - CATALOG["C6A"].power_mw
        excess_pj = delta_mw * (len(times) * window - overlap - clipped)
        assert (on.energy_j - off.energy_j) * 1e12 == pytest.approx(excess_pj, rel=1e-9)

    @staticmethod
    def reference_snoops(rng, rate, ts, t_stop, clear, window, t_end):
        """(served, charged ns, clear) over [ts, t_stop), one expovariate
        draw per gap, each snoop charged for its window's uncovered part."""
        served = charged_ns = 0
        while True:
            try:
                ts += max(1, round(rng.expovariate(rate) * 1e9))
            except OverflowError:  # a gap past any float ends the interval
                break
            if ts >= t_stop:
                break
            served += 1
            end, start = min(ts + window, t_end), max(ts, clear)
            if end > start:
                charged_ns += end - start
                clear = end
        return served, charged_ns, clear

    def snoop_mismatches(self, cases):
        """The cases (seed, rate, ts, t_stop, clear, window, t_end) where
        _serve_snoops differs from the reference."""
        return [(seed, rate, *interval) for seed, rate, *interval in cases
                if _serve_snoops(random.Random(seed).random, -rate, *interval)
                != self.reference_snoops(random.Random(seed), rate, *interval)]

    def test_dense_snoops_are_the_stdlib_draws(self):
        # 10^5 to 10^7.2 Hz against windows of 1 to 120 ns, so windows
        # overlap, with the horizon at the interval's end, inside the
        # last window's reach, just past it, and far past it.  clear may
        # reach into the interval.
        cases = []
        for k in range(300):
            pick = random.Random(f"case {k}")
            rate, window = 10 ** pick.uniform(5.0, 7.2), pick.randint(1, 120)
            ts = pick.randrange(10 ** 6)
            t_stop, clear = ts + pick.randint(1, 20_000), pick.randint(0, ts + window)
            for t_end in (t_stop, t_stop + 1, t_stop + window - 1, t_stop + window,
                          t_stop + 10 ** 9):
                cases.append((k, rate, ts, t_stop, clear, window, t_end))
        assert self.snoop_mismatches(cases) == []

    def test_chained_intervals_match_the_reference(self):
        # One core in engine order: clear starts at 0, each resident
        # interval starts after the previous one stops, and each side
        # carries its own returned clear and its own snoop stream.  At
        # 1e6 to 3e8 Hz against 1 to 60 ns windows, windows overlap
        # within and across intervals.  The horizon falls inside the
        # last interval (which it cuts, as the engine does), at its end,
        # within the last window's reach past it, and far past it.
        mismatches = []
        for k in range(1000):
            pick = random.Random(f"chain {k}")
            rate, window = 10 ** pick.uniform(6.0, math.log10(3e8)), pick.randint(1, 60)
            intervals, t_stop = [], 0
            for _ in range(pick.randint(1, 5)):
                ts = t_stop + pick.randint(1, 300)
                t_stop = ts + pick.randint(0, 400)
                intervals.append((ts, t_stop))
            last_ts = intervals[-1][0]
            for t_end in (last_ts + pick.randint(1, t_stop - last_ts) if t_stop > last_ts
                          else t_stop, t_stop, t_stop + pick.randint(1, window),
                          t_stop + 10 ** 9):
                uniform, rng = random.Random(k).random, random.Random(k)
                clear = ref_clear = 0
                for ts, stop in intervals:
                    stop = min(stop, t_end)
                    got = _serve_snoops(uniform, -rate, ts, stop, clear, window, t_end)
                    want = self.reference_snoops(rng, rate, ts, stop, ref_clear, window,
                                                 t_end)
                    if got != want:
                        mismatches.append((k, t_end, ts, got, want))
                    clear, ref_clear = got[2], want[2]
        assert mismatches == []

    def test_snoop_gaps_past_2_52_ns_are_the_stdlib_draws(self):
        # At 10^-8 to 10^-6.5 Hz most gaps are past 2**52 ns, where they
        # are rounded without the fast form.  The interval ends at the
        # first snoop (not served) or 1 ns after it (served), so a gap
        # 1 ns off changes the count.  At 1e-300 Hz every gap overflows.
        cases = []
        for k in range(200):
            pick = random.Random(f"case {k}")
            rate, window = 10 ** pick.uniform(-8.0, -6.5), pick.randint(1, 120)
            ts = pick.randrange(10 ** 6)
            first = ts + max(1, round(random.Random(k).expovariate(rate) * 1e9))
            for t_stop in (first, first + 1):
                cases += [(k, rate, ts, t_stop, ts, window, t_stop + window),
                          (k, rate, ts, t_stop, ts, window, t_stop)]
        cases.append((0, 1e-300, 0, 2 ** 62, 0, 60, 2 ** 62))
        assert self.snoop_mismatches(cases) == []

    def test_unbounded_snoop_rate_rejected_at_once(self):
        # 1e10 Hz against a 60 ns window: 600 snoops due per window.  The
        # engine draws snoops one per loop step, so a 1 s run of an idle
        # C6A core used to take hours.
        cfg = quiet_config(duration_s=1.0, cstates_enabled=frozenset({"C0", "C6A"}),
                           snoop=SnoopSpec(rate_per_core_hz=1e10))
        start = time.perf_counter()
        with pytest.raises(ValidationError, match="snoop window is not below 1"):
            run(cfg)
        assert time.perf_counter() - start < 1.0

    def test_snoop_rate_just_below_one_per_window_runs(self):
        window = fsm.snoop_timeline("C6A", service_ns=50).total_ns + 50
        rate_hz = 0.9e9 / window
        cfg = quiet_config(duration_s=20e-6, cstates_enabled=frozenset({"C0", "C6A"}),
                           snoop=SnoopSpec(rate_per_core_hz=rate_hz))
        assert run(cfg).snoops_served > 0

    def test_snoop_rate_ignored_without_agile_states(self):
        # Only C6A/C6AE are snooped, so the rate bound has nothing to bound.
        cfg = quiet_config(snoop=SnoopSpec(rate_per_core_hz=1e10))
        assert run(cfg).snoops_served == 0


# ---------------------------------------------------------------------------
# same-nanosecond tie rules
#
# Periodic arrivals and fixed service, so every time below is computed
# by hand (all times in ns).


def drop_config(**overrides):
    """Arrivals every 10000 ns with 9996 ns of work on 1 core, menu
    {C0, C1} (4 ns entry, 4 ns exit), horizon 50000.

    Decision at 0: C1, resident [4, 10000).  t=10000 wakes it (exit to
    10004), done at 20000.  t=20000 lands exactly there: done at 29996.
    t=30000: the decision at 29996 enters C1 until 30000, the arrival
    wakes it (exit to 30004), done at 40000.  t=40000 lands exactly
    there: done at 49996.  The horizon's decision at 49996 is still
    entering at 50000.
    """
    base = dict(cores=1, duration_s=50e-6, seed=1,
                arrival=ArrivalSpec("periodic", 100_000.0),
                service=ServiceSpec("fixed", 9.996),
                cstates_enabled=frozenset({"C0", "C1"}))
    base.update(overrides)
    return SimConfig(**base)


class TestTieRules:
    def test_arrival_at_free_drops_the_decision(self):
        # t=20000 and t=40000 meet a queue that drained in the same ns:
        # no entry, service starts at once, latency is the service time.
        report = run(drop_config(), trace=True)
        assert report.transitions == {"C0": 2, "C1": 3}
        assert report.trace.decisions == [(0, "C1")] * 3
        assert report.requests_completed == 4
        assert report.latency_us.mean == pytest.approx((2 * 10.0 + 2 * 9.996) / 4)
        assert report.latency_us.p50 == 9.996

    def test_arrival_at_entry_end_is_resident(self):
        # t=30000 is exactly when the entry begun at 29996 completes: the
        # core counts as resident for 0 ns, the entry is not aborted, and
        # the wake-up pays the full 4 ns exit.
        report = run(drop_config(), trace=True)
        assert report.wakeups_aborted == 0
        assert report.trace.idle_intervals == [("C1", 10_000), ("C1", 4)]
        residency = report.residency.residency
        assert residency["C1"] == 9996 / 50_000
        assert residency["transition"] == (8 + 8 + 4) / 50_000
        assert residency["C0"] == 39_984 / 50_000

    def test_completion_at_arrival_leaves_before_peak_counts(self):
        # The request done at 20000 leaves before the one arriving at
        # 20000 joins, so the backlog never exceeds 1.
        assert run(drop_config()).peak_queue == 1

    def test_oracle_skips_an_arrival_at_the_idle_start(self):
        # Menu {C0, C1, C6A} (C6A: 18 ns entry, 83 ns exit), 2 cores in
        # round robin, arrivals every 10000 ns, 9917 ns of work, no
        # frequency penalty.  Each core wakes 83 ns after its arrival and
        # drains exactly when the other core's next request arrives: core
        # 0 at 20000, core 1 at 30000, core 0 again at 40000 (the horizon
        # is 50000).  The first arrival after each idle start is 10000 ns
        # away, so the oracle picks C6A every time; counting the arrival
        # at the idle start itself would predict 0 and fall back to C1.
        config = SimConfig(cores=2, duration_s=50e-6, seed=1,
                           arrival=ArrivalSpec("periodic", 100_000.0),
                           service=ServiceSpec("fixed", 9.917),
                           cstates_enabled=frozenset({"C0", "C1", "C6A"}))
        report = run(config, perf=PerfModel(freq_penalty=0.0), trace=True)
        assert report.trace.decisions == [(0, "C6A"), (1, "C6A"), (0, "C6A"), (1, "C6A"),
                                          (0, "C6A")]
        assert report.trace.idle_intervals == [("C6A", 10_000), ("C6A", 20_000),
                                               ("C6A", 10_000), ("C6A", 10_000)]

    def test_arrival_as_an_aborted_entry_completes_is_not_aborted(self):
        # Menu {C0, C1E} (5000 ns entry, 5000 ns exit), 3000 ns of work
        # every 4000 ns on 1 core, horizon 80000.  The core goes idle at
        # 0, 31000 and 59000, and the arrivals at 4000, 32000 and 60000
        # abort those entries, which would complete at 5000, 36000 and
        # 64000.  The arrivals at 36000 and 64000 come exactly then: the
        # core is already waking up, so they are not aborted wake-ups.
        config = SimConfig(cores=1, duration_s=80e-6, seed=1,
                           arrival=ArrivalSpec("periodic", 250_000.0),
                           service=ServiceSpec("fixed", 3.0),
                           cstates_enabled=frozenset({"C0", "C1E"}))
        assert run(config).wakeups_aborted == 3

    def test_each_arrival_inside_an_aborted_entry_counts(self):
        # Menu {C0, C6}: 87000 ns entry, 30000 ns exit; 1000 ns of work
        # every 30000 ns, horizon 125000.  The entry begun at 0 is
        # aborted by t=30000 and again hit by t=60000 (two aborted
        # wake-ups); t=90000 lands in the exit (87000 to 117000) and is
        # not counted.  The queue drains at 118000, 119000, 120000;
        # t=120000 lands at free.  The horizon's decision at 121000 is
        # still entering.
        config = SimConfig(cores=1, duration_s=125e-6, seed=1,
                           arrival=ArrivalSpec("periodic", 1e9 / 30_000),
                           service=ServiceSpec("fixed", 1.0),
                           cstates_enabled=frozenset({"C0", "C6"}))
        report = run(config, trace=True)
        assert report.wakeups_aborted == 2
        assert report.transitions == {"C0": 1, "C6": 2}
        assert report.trace.idle_intervals == [("C6", 30_000)]
        assert report.residency.residency == {
            "C0": 4000 / 125_000, "C6": 0.0, "transition": 121_000 / 125_000}
        assert report.latency_us.mean == (88.0 + 59.0 + 30.0 + 1.0) / 4
        assert report.peak_queue == 3

    @pytest.mark.parametrize("t_end", [20_002, 20_004])
    def test_exit_cut_by_the_horizon(self, t_end):
        # Menu {C0, C1} (4 ns entry, 4 ns exit), 1000 ns of work every
        # 10000 ns.  Decision at 0: C1, resident [4, 10000); t=10000
        # wakes it (exit to 10004), done at 11004.  Decision at 11004:
        # C1, resident [11008, 20000); t=20000 wakes it, but its exit
        # would end at 20004, not before the horizon: no C0 entry, and
        # the exit counts only up to t_end.
        config = SimConfig(cores=1, duration_s=t_end * 1e-9, seed=1,
                           arrival=ArrivalSpec("periodic", 100_000.0),
                           service=ServiceSpec("fixed", 1.0),
                           cstates_enabled=frozenset({"C0", "C1"}))
        report = run(config, trace=True)
        assert report.transitions == {"C0": 1, "C1": 2}
        assert report.trace.decisions == [(0, "C1"), (0, "C1")]
        assert report.trace.idle_intervals == [("C1", 10_000), ("C1", 8996)]
        transition = 4 + 4 + 4 + (t_end - 20_000)
        assert report.residency.residency == {
            "C0": 1000 / t_end, "C1": 18_988 / t_end, "transition": transition / t_end}
        assert report.requests_offered == 2
        assert report.requests_completed == 1
        assert report.latency_us.mean == 1.004
        assert report.wakeups_aborted == 0

    def test_two_core_round_robin_peak_queue(self):
        # Two cores take alternate arrivals every 1000 ns, each 1998 ns
        # of work, menu {C0, C1}, horizon 6500.  Core 0: t=1000 wakes it
        # (exit to 1004), done 3002; t=3000 queues, done 5000; t=5000
        # lands at free, done 6998.  Core 1: t=2000, done 4002; t=4000
        # queues, done 6000; t=6000 lands at free, done 7998.  Backlog at
        # each arrival: 1, 2, 3, 3 (3002 is done by 4000), 2, 2.
        config = SimConfig(cores=2, duration_s=6.5e-6, seed=1,
                           arrival=ArrivalSpec("periodic", 1e6),
                           service=ServiceSpec("fixed", 1.998),
                           dispatch="round_robin",
                           cstates_enabled=frozenset({"C0", "C1"}))
        report = run(config)
        assert report.peak_queue == 3
        assert report.requests_offered == 6
        assert report.requests_completed == 4
        assert report.latency_us.mean == (2.002 + 2.002 + 2.0 + 2.0) / 4
        assert report.wakeups_aborted == 0
        assert report.transitions == {"C0": 2, "C1": 2}


# ---------------------------------------------------------------------------
# mispredicting governors


class TestPredictors:
    def test_bursty_ewma_aborts_some_entries(self):
        # Long off-phases teach the smoother to expect long idles, so it
        # commits to the deep state; the next burst lands mid-entry and
        # the wakeup is deferred until the transition completes.
        cfg = SimConfig(
            cores=1,
            duration_s=0.02,
            seed=3,
            arrival=ArrivalSpec(
                process="bursty", rate_qps=5000.0, burst_on_ms=0.5, burst_off_ms=2.0
            ),
            service=ServiceSpec(dist="fixed", mean_us=10.0),
            governor=GovernorPolicy(predictor="ewma", ewma_alpha=0.3),
            cstates_enabled=frozenset({"C0", "C1", "C6"}),
        )
        report = run(cfg)
        assert report.wakeups_aborted > 0

    def test_clairvoyant_fit_decisions_never_abort(self):
        # Clairvoyant aborts can only come from fallback decisions (gaps
        # shorter than every target, where even the shallowest entry may
        # not finish in time).  Every target covers its own entry
        # latency, so a state chosen because it fits always completes
        # entry before the arrival.  This seeded run has no sub-target
        # gap, hence no aborts at all.
        report = run(loaded_config(seed=11), trace=True)
        idle = [CATALOG[n] for n in report.config.cstates_enabled if n != "C0"]
        shallowest = min(idle, key=lambda s: (s.target_residency_us, -s.power_mw))
        fallbacks = sum(1 for _, s in report.trace.decisions if s == shallowest.name)
        assert report.wakeups_aborted <= fallbacks

    @pytest.mark.parametrize("process", sim_module._ARRIVAL_PROCESSES)
    @pytest.mark.parametrize("dispatch", sim_module._DISPATCH_POLICIES)
    @pytest.mark.parametrize("menu", [("C0", "C1"), ("C0", "C6A"), ("C0", "C6")])
    def test_one_idle_state_menu_makes_the_predictor_moot(self, menu, dispatch, process):
        # With one idle state every decision picks it, so run makes no
        # prediction (its only_state shortcut): each predictor has to
        # give the same report, trace included.
        snoop = SnoopSpec(rate_per_core_hz=20_000.0 if "C6A" in menu else 0.0)
        reports = [
            run(SimConfig(cores=2, duration_s=0.01, seed=29,
                          arrival=ArrivalSpec(process, rate_qps=20_000.0),
                          service=ServiceSpec("exponential", 20.0), dispatch=dispatch,
                          governor=governor, cstates_enabled=frozenset(menu), snoop=snoop),
                trace=True)
            for governor in (GovernorPolicy("clairvoyant"), GovernorPolicy("ewma", 0.3),
                             GovernorPolicy("ewma", 1.0), GovernorPolicy("last_idle"))
        ]
        assert reports[0].requests_completed > 0
        for report in reports[1:]:
            assert dataclasses.replace(report, config=reports[0].config) == reports[0]


# ---------------------------------------------------------------------------
# tracing


class TestTrace:
    def test_trace_disabled_by_default(self):
        assert run(loaded_config()).trace is None

    def test_trace_records_decisions_and_intervals(self):
        report = run(loaded_config(), trace=True)
        assert report.trace is not None
        assert len(report.trace.decisions) > 0
        assert len(report.trace.idle_intervals) > 0
        enabled = report.config.cstates_enabled
        assert {state for _, state in report.trace.decisions} <= enabled
        for state, ns in report.trace.idle_intervals:
            assert state in enabled
            assert ns >= 0


# ---------------------------------------------------------------------------
# sweep


class TestSweep:
    VARIANTS = [
        VariantSpec("baseline", frozenset({"C0", "C1", "C1E", "C6"})),
        VariantSpec("agile", frozenset({"C0", "C6A", "C6AE", "C6"})),
    ]

    def base(self):
        return SimConfig(
            cores=1,
            duration_s=0.01,
            seed=9,
            arrival=ArrivalSpec(rate_qps=1000.0),
            service=ServiceSpec(dist="fixed", mean_us=10.0),
        )

    def test_grid_shape_and_labels(self):
        points = sweep(self.base(), [1000.0, 5000.0], self.VARIANTS)
        assert len(points) == 4
        assert [(p.variant, p.qps) for p in points] == [
            ("baseline", 1000.0),
            ("agile", 1000.0),
            ("baseline", 5000.0),
            ("agile", 5000.0),
        ]

    def test_load_and_entry_counts_have_one_source(self):
        # A point's load is its run's arrival rate, and a report's entry
        # counts are its aggregate residency's: neither is stored twice.
        for p in sweep(self.base(), [1000.0, 5000.0], self.VARIANTS):
            assert p.qps == p.report.config.arrival.rate_qps
            assert p.report.transitions is p.report.residency.transitions
        stored = {f.name for cls in (SimReport, SweepPoint) for f in dataclasses.fields(cls)}
        assert not stored & {"qps", "seed", "transitions"}

    def test_deltas_relative_to_first_variant(self):
        points = sweep(self.base(), [1000.0], self.VARIANTS)
        ref, agile = points
        assert ref.p99_delta_vs_first == 0.0
        assert ref.mean_delta_vs_first == 0.0
        assert ref.savings_vs_first == 0.0
        expected = agile.report.latency_us.p99 / ref.report.latency_us.p99 - 1.0
        assert agile.p99_delta_vs_first == pytest.approx(expected, rel=1e-9)
        saved = 1.0 - agile.report.avg_power_w / ref.report.avg_power_w
        assert agile.savings_vs_first == pytest.approx(saved, rel=1e-9)

    def test_identical_variants_give_exact_zeros(self):
        # Paired on shared streams, a variant compared with itself shows
        # no difference at all; unpaired seeds made these deltas a few
        # percent of seed noise.
        base = SimConfig(
            cores=4, duration_s=0.02, seed=2024, arrival=ArrivalSpec(rate_qps=10_000.0),
            service=ServiceSpec("lognormal", 20.0, sigma=1.0), dispatch="random",
            governor=GovernorPolicy("ewma"), snoop=SnoopSpec(50_000.0),
        )
        for menu in ({"C0", "C1", "C1E", "C6"}, {"C0", "C6A", "C6AE", "C6"}):
            twins = [VariantSpec("a", frozenset(menu)), VariantSpec("b", frozenset(menu))]
            points = sweep(base, [10_000.0, 40_000.0], twins)
            for p in points:
                assert (p.savings_vs_first, p.mean_delta_vs_first,
                        p.p99_delta_vs_first) == (0.0, 0.0, 0.0)

    def _assert_points_equal_standalone_runs(self, base, qps_list, variants, catalog=None):
        points = sweep(base, qps_list, variants, catalog=catalog)
        for k, p in enumerate(points):
            i, variant = divmod(k, len(variants))
            alone = run(dataclasses.replace(
                base, seed=derive_subseed(base.seed, i),
                arrival=dataclasses.replace(base.arrival, rate_qps=qps_list[i]),
                cstates_enabled=variants[variant].cstates), catalog=catalog)
            assert (p.qps, p.variant) == (qps_list[i], variants[variant].name)
            assert canonical_hash(sim_report_document(p.report)) == \
                canonical_hash(sim_report_document(alone))

    def test_each_point_equals_a_standalone_run_at_its_load_seed(self):
        variants = self.VARIANTS + [VariantSpec("agile_only", frozenset({"C0", "C6A"}))]
        self._assert_points_equal_standalone_runs(self.base(), [2000.0, 5000.0], variants)

    def test_catalog_reaches_every_point(self):
        # A variant swaps in only its menu, so the sweep's catalog, here
        # with an 11 W C0, prices every point as it prices a standalone run.
        base = SimConfig(cores=2, duration_s=0.01, seed=3,
                         arrival=ArrivalSpec(rate_qps=10_000.0),
                         service=ServiceSpec("exponential", 10.0))
        self._assert_points_equal_standalone_runs(base, [10_000.0, 20_000.0], self.VARIANTS,
                                                  catalog=c0_catalog(11_000))

    def test_variants_sharing_an_inflation_share_one_conversion(self):
        # The two agile menus run at one service inflation and the two
        # others at 1.0, so each load converts its service times twice
        # and two variants read each array.  In either order every point
        # equals a stand-alone run, and afterwards the shared arrays
        # still equal a fresh conversion: no run wrote to them.
        base = SimConfig(cores=2, duration_s=0.01, seed=5,
                         arrival=ArrivalSpec(rate_qps=20_000.0),
                         service=ServiceSpec("lognormal", 20.0, sigma=1.0),
                         governor=GovernorPolicy("ewma"), snoop=SnoopSpec(50_000.0),
                         network_rtt_us=3.0)
        variants = [VariantSpec("baseline", frozenset({"C0", "C1", "C1E", "C6"})),
                    VariantSpec("agile_only", frozenset({"C0", "C6A"})),
                    VariantSpec("no_c6", frozenset({"C0", "C1", "C1E"})),
                    VariantSpec("agile", frozenset({"C0", "C6A", "C6AE", "C6"}))]
        for order in (variants, variants[::-1]):
            self._assert_points_equal_standalone_runs(base, [10_000.0, 30_000.0], order)

        perf = PerfModel()
        streams = _draw_streams(base)
        for variant in variants:
            run(dataclasses.replace(base, cstates_enabled=variant.cstates),
                perf=perf, streams=streams)
        for inflation in (1.0, perf.service_inflation):
            shared = streams.service_ns(inflation)
            assert streams.service_ns(inflation) is shared
            assert shared == array("q", [round(x * inflation * 1e9) or 1
                                         for x in streams.service_s])

    def test_streams_drawn_for_another_config_rejected(self):
        cfg = self.base()
        streams = _draw_streams(cfg)
        assert run(cfg, streams=streams) == run(cfg)
        for other in (dataclasses.replace(cfg, seed=10),
                      dataclasses.replace(cfg, arrival=ArrivalSpec(rate_qps=2000.0)),
                      dataclasses.replace(cfg, service=ServiceSpec("fixed", 11.0)),
                      dataclasses.replace(cfg, duration_s=0.02)):
            with pytest.raises(ValidationError, match="streams were drawn"):
                run(other, streams=streams)

    def test_demo_plot_table_unchanged(self):
        # Recorded before the demo drew its streams once per load: both
        # variants already shared each load's seed.
        table = emit_plot_table(demo_sweep(seed=7, duration_s=0.05).sweep_points())
        assert hashlib.sha256(table.encode()).hexdigest() == \
            "c935af16f203dfd78a1c0b6390c47598f86a1fb79ebdddbf8a1d46fd8109df06"

    def test_each_demo_point_equals_a_standalone_run_at_its_demo_seed(self):
        seed, loads = 11, [10_000.0, 40_000.0]
        result = demo_sweep(seed=seed, loads_qps=loads, duration_s=0.02)
        perf = PerfModel(freq_penalty=0.01, scalability=0.5)
        pairs = result.sweep_points()
        assert [(p.variant, p.qps) for p in pairs] == [
            (v, q) for q in loads for v in ("baseline", "agile")]
        for i, (point, qps) in enumerate(zip(result.points, loads)):
            base, agile = pairs[2 * i], pairs[2 * i + 1]
            for menu, report, sp in (({"C0", "C1"}, point.baseline, base),
                                     ({"C0", "C6A"}, point.agile, agile)):
                alone = run(SimConfig(
                    cores=4, duration_s=0.02, seed=derive_subseed(seed, "demo", i),
                    arrival=ArrivalSpec(rate_qps=qps), service=ServiceSpec("exponential", 20.0),
                    dispatch="round_robin", governor=GovernorPolicy("clairvoyant"),
                    cstates_enabled=frozenset(menu)), perf=perf)
                assert sp.report is report
                assert canonical_hash(sim_report_document(report)) == \
                    canonical_hash(sim_report_document(alone))
            assert (agile.savings_vs_first, agile.p99_delta_vs_first) == \
                (point.savings, point.p99_delta)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValidationError, match="qps_list"):
            sweep(self.base(), [], self.VARIANTS)
        with pytest.raises(ValidationError, match="variants"):
            sweep(self.base(), [1000.0], [])
        with pytest.raises(ValidationError, match="qps_list"):
            demo_sweep(loads_qps=[])

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The worker counts of the pools a sweep asks for.  The recorder
        runs the loads in this process: no worker is started."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return sizes

    def test_pool_sized_at_most_one_worker_per_load(self, monkeypatch, pool_sizes):
        # The pool starts all its workers at the first submit, so it is
        # sized by the loads (on 64 usable CPUs, so the CPUs do not cap it).
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        serial = sweep(self.base(), [1000.0, 3000.0], self.VARIANTS)
        assert sweep(self.base(), [1000.0, 3000.0], self.VARIANTS, jobs=64) == serial
        assert pool_sizes == [2]
        sweep(self.base(), [1000.0], self.VARIANTS, jobs=64)  # one load runs serially
        assert pool_sizes == [2]

    def test_pool_sized_at_most_one_worker_per_usable_cpu(self, monkeypatch, pool_sizes):
        loads = [1000.0, 2000.0, 3000.0, 4000.0]
        serial = sweep(self.base(), loads, self.VARIANTS)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        assert sweep(self.base(), loads, self.VARIANTS, jobs=64) == serial
        assert pool_sizes == [3]
        # One usable CPU runs serially, with no pool.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert sweep(self.base(), loads, self.VARIANTS, jobs=64) == serial
        assert pool_sizes == [3]
        # Without sched_getaffinity the CPU count caps it; an unknown
        # count is one CPU.
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert sweep(self.base(), loads, self.VARIANTS, jobs=64) == serial
        assert pool_sizes == [3, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sweep(self.base(), loads, self.VARIANTS, jobs=64) == serial
        assert pool_sizes == [3, 2]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValidationError, match="jobs must be >= 1"):
            sweep(self.base(), [1000.0], self.VARIANTS, jobs=jobs)

    def test_parallel_jobs_match_serial(self):
        serial = sweep(self.base(), [1000.0, 3000.0], self.VARIANTS, jobs=1)
        parallel = sweep(self.base(), [1000.0, 3000.0], self.VARIANTS, jobs=2)
        assert [(p.qps, p.variant, p.report.energy_j) for p in serial] == [
            (p.qps, p.variant, p.report.energy_j) for p in parallel
        ]


# ---------------------------------------------------------------------------
# golden results

AGILE_MENU = frozenset({"C0", "C6A", "C6AE", "C6"})

# Configs whose results are pinned by hash.  Together they cover every
# arrival process, dispatch policy (pack_queue_cap 1 included) and
# predictor, agile menus, a network RTT, an 11 W C0 from the catalog
# (GOLDEN_CATALOGS), a zero-rate run, and snoops at 20 kHz-5 MHz per
# core (a zero snoop service window included).
GOLDEN = [
    (dict(cores=2, duration_s=0.02, seed=11, arrival=ArrivalSpec("poisson", 20_000.0),
          service=ServiceSpec("exponential", 20.0), dispatch="round_robin",
          governor=GovernorPolicy("clairvoyant")),
     "26f567c0f69144837cc89543e033952c403c15b603d16f217b44f8ce9f71816f"),
    (dict(cores=3, duration_s=0.02, seed=12, arrival=ArrivalSpec("periodic", 30_000.0),
          service=ServiceSpec("fixed", 15.0), dispatch="random",
          governor=GovernorPolicy("ewma", 0.3), cstates_enabled=AGILE_MENU),
     "6b2448a1daac3dc89bcab835f97fc8a44be20bbc4fe4dbfca7eb7ae151e40076"),
    (dict(cores=2, duration_s=0.02, seed=13,
          arrival=ArrivalSpec("bursty", 20_000.0, burst_on_ms=0.5, burst_off_ms=1.5),
          service=ServiceSpec("lognormal", 20.0, sigma=1.0), dispatch="pack_lowest_index",
          pack_queue_cap=1, governor=GovernorPolicy("last_idle"),
          cstates_enabled=frozenset({"C0", "C1", "C6"})),
     "163d023a0a996f8cd3402d6e04b7fd8bdf278200e2f9aad4831ac76cbc7b1229"),
    (dict(cores=4, duration_s=0.02, seed=14,
          arrival=ArrivalSpec("bursty", 40_000.0, burst_on_ms=1.0, burst_off_ms=1.0),
          service=ServiceSpec("exponential", 20.0), dispatch="pack_lowest_index",
          governor=GovernorPolicy("clairvoyant"), cstates_enabled=AGILE_MENU,
          network_rtt_us=25.0),
     "9e8a050d34e99a6230b052b5b56f9d6c6eb3b5cb18750368c64061129112a069"),
    (dict(cores=2, duration_s=0.01, seed=15, arrival=ArrivalSpec("poisson", 0.0)),
     "d93c4630c0c33ce8b2887f4837510397f97d9a1f88a289abbbfb13401d3346bb"),
    (dict(cores=2, duration_s=0.02, seed=16, arrival=ArrivalSpec("poisson", 15_000.0),
          service=ServiceSpec("lognormal", 10.0, sigma=0.5), dispatch="random",
          governor=GovernorPolicy("last_idle"),
          cstates_enabled=frozenset({"C0", "C1E", "C6AE"}), network_rtt_us=3.5),
     "0f573eebf44c553bc27fd944c659f27e19a29336cd31122ba2f16bfba7facdf0"),
    (dict(cores=1, duration_s=0.02, seed=17, arrival=ArrivalSpec("periodic", 7_000.0),
          service=ServiceSpec("fixed", 12.0), dispatch="round_robin",
          governor=GovernorPolicy("clairvoyant"), cstates_enabled=frozenset({"C0", "C6A"})),
     "8fdf6c4fcb04fdc0300b3d1f1bd1e74fdec22e34a07de2af6f21e8c3468ccc84"),
    (dict(cores=3, duration_s=0.02, seed=18, arrival=ArrivalSpec("poisson", 60_000.0),
          service=ServiceSpec("exponential", 25.0), dispatch="pack_lowest_index",
          governor=GovernorPolicy("ewma", 0.7), cstates_enabled=AGILE_MENU),
     "1a36751faaebd45e280e2a6b74236292809a5b79ef7ac1fd220850b55539301a"),
    (dict(cores=2, duration_s=0.02, seed=19, arrival=ArrivalSpec("poisson", 20_000.0),
          service=ServiceSpec("exponential", 20.0), dispatch="pack_lowest_index",
          pack_queue_cap=2, governor=GovernorPolicy("ewma", 0.5), cstates_enabled=AGILE_MENU,
          snoop=SnoopSpec(20_000.0)),
     "1a9dfe6752bae822fe7a620d144aa3f2a3816a7b501ec998b453758c988e868c"),
    (dict(cores=3, duration_s=0.02, seed=20,
          arrival=ArrivalSpec("bursty", 30_000.0, burst_on_ms=0.5, burst_off_ms=0.5),
          service=ServiceSpec("lognormal", 15.0, sigma=0.8), dispatch="round_robin",
          governor=GovernorPolicy("clairvoyant"),
          cstates_enabled=frozenset({"C0", "C1", "C6A"}), snoop=SnoopSpec(200_000.0)),
     "fa90381f2f7c11ad09b14175182560cd8d7d83a7dd1d2ac6f0ed81b759f32160"),
    (dict(cores=2, duration_s=0.02, seed=21, arrival=ArrivalSpec("periodic", 12_000.0),
          service=ServiceSpec("fixed", 10.0), dispatch="random",
          governor=GovernorPolicy("last_idle"), cstates_enabled=frozenset({"C0", "C1E", "C6AE"}),
          snoop=SnoopSpec(100_000.0, service_ns=0)),
     "d0089d6210d6b6a15ceb533eccc0456ace16b920e7ba7107894bfca29d37d92d"),
    # One idle state on the menu: the run takes it without a prediction.
    (dict(cores=3, duration_s=0.02, seed=22, arrival=ArrivalSpec("poisson", 30_000.0),
          service=ServiceSpec("exponential", 20.0), dispatch="round_robin",
          governor=GovernorPolicy("clairvoyant"), cstates_enabled=frozenset({"C0", "C1"})),
     "c76595a8603f8d16f070eb67d15682e47c468dbd44f0b30d1fb653985455d27c"),
    (dict(cores=2, duration_s=0.02, seed=23,
          arrival=ArrivalSpec("bursty", 20_000.0, burst_on_ms=0.5, burst_off_ms=1.0),
          service=ServiceSpec("lognormal", 15.0, sigma=0.8), dispatch="pack_lowest_index",
          governor=GovernorPolicy("ewma", 0.5), cstates_enabled=frozenset({"C0", "C6A"}),
          snoop=SnoopSpec(50_000.0)),
     "19d80e675e0a1cd32689102b922dd644330b7bf96f51e5d101b2dcef48d16b67"),
    (dict(cores=4, duration_s=0.02, seed=24, arrival=ArrivalSpec("poisson", 40_000.0),
          service=ServiceSpec("exponential", 20.0), dispatch="random",
          governor=GovernorPolicy("clairvoyant"),
          cstates_enabled=frozenset({"C0", "C1", "C1E", "C6"})),
     "0aa86e48298df99f4d1455823bfac11bf7a07f12fbc33cb0ecff370f5966bf7d"),
    # Every core is at the cap at times, so the least-loaded fallback runs
    # (test_pack_golden_reaches_the_least_loaded_fallback).
    (dict(cores=2, duration_s=0.02, seed=25, arrival=ArrivalSpec("poisson", 90_000.0),
          service=ServiceSpec("exponential", 20.0), dispatch="pack_lowest_index",
          pack_queue_cap=1, governor=GovernorPolicy("ewma", 0.5)),
     "17d3c85b499f59da8829b9acc15d8bfdeb0651a68009ccc9c78b40c08ad2164a"),
    # 5 MHz snoops with a 60 ns window: about a quarter of the windows
    # overlap the one before, and some reach past the horizon, so both
    # of _serve_snoops' deductions apply (18,618 snoops served).
    (dict(cores=2, duration_s=0.002, seed=27, arrival=ArrivalSpec("poisson", 5_000.0),
          service=ServiceSpec("exponential", 20.0), dispatch="round_robin",
          governor=GovernorPolicy("clairvoyant"),
          cstates_enabled=frozenset({"C0", "C6A", "C6AE"}), snoop=SnoopSpec(5_000_000.0, 50)),
     "7a3a6cb76c3ad68f477d753c2fee7670d7a3be65f4867a67258a6fef817b0fb1"),
    # More cores than arrivals: five arrivals on eight cores, so three
    # cores decide only at the horizon
    # (test_golden_trace_hash_with_horizon_only_cores).
    (dict(cores=8, duration_s=0.002, seed=28, arrival=ArrivalSpec("poisson", 2_500.0),
          service=ServiceSpec("exponential", 20.0), dispatch="random",
          governor=GovernorPolicy("clairvoyant")),
     "72b8c69bad8214f9bc4ef42b730261493ec5e8a75e19ac0ef3c5a22f840cc954"),
    # Targets off the ns grid (OFF_GRID_CATALOG): C1E's cut is 20001 ns
    # and C6's 600001 ns.  Arrivals every 600 us and near-fixed service
    # of about 575 us give a first idle gap of 600000 ns, one below C6's
    # cut, and after C1E exits gaps of exactly 20000 and 20001 ns, on
    # both sides of C1E's cut; so C1E's cut one off either way, or C6's
    # one low, moves the run.
    (dict(cores=1, duration_s=0.2, seed=29, arrival=ArrivalSpec("periodic", 1e9 / 600_000),
          service=ServiceSpec("lognormal", 574.9995, sigma=1e-5), dispatch="round_robin",
          governor=GovernorPolicy("clairvoyant")),
     "0977caf60a270bd02996fffc0069044d80d786d15482696a5f2c36e4dee60281"),
    # Drawn values past 2**52 ns, where the stream conversions round
    # without the fast form (TestRoundNs), over a 1e9 s horizon: Poisson
    # gaps at 1e-7 qps, below the chunked draw's rate bound; snoop gaps
    # at 1e-7 Hz on a menu whose only deep states are agile (185 snoops
    # served); and a fixed 5e12 us service, inflated, at utilization 0.5.
    (dict(cores=2, duration_s=1e9, seed=30, arrival=ArrivalSpec("poisson", 1e-7),
          service=ServiceSpec("exponential", 20.0), dispatch="round_robin",
          governor=GovernorPolicy("clairvoyant")),
     "08c9ca4c67658158e1242bab9a0ff1d20ad3763aa40c9331284be37934aa0208"),
    (dict(cores=2, duration_s=1e9, seed=31, arrival=ArrivalSpec("poisson", 2e-8),
          service=ServiceSpec("exponential", 20.0), dispatch="random",
          governor=GovernorPolicy("ewma", 0.5), cstates_enabled=frozenset({"C0", "C6A", "C6AE"}),
          snoop=SnoopSpec(1e-7)),
     "f6231fa85172d6fd558a0d72a6c162c80e8d4d3f603f5ac92d11a9c4847a64a7"),
    (dict(cores=1, duration_s=1e9, seed=32, arrival=ArrivalSpec("poisson", 1e-7),
          service=ServiceSpec("fixed", 5e12), dispatch="round_robin",
          governor=GovernorPolicy("clairvoyant"), cstates_enabled=frozenset({"C0", "C1", "C6A"})),
     "687ffba86ac5904b3f7ec25aba9c7d0524f4c17d9cc34ced85a5e2301e6fef26"),
]


OFF_GRID_CATALOG = Catalog({
    **CATALOG.cstates,
    "C1E": dataclasses.replace(CATALOG["C1E"], target_residency_us=20.0004),
    "C6": dataclasses.replace(CATALOG["C6"], target_residency_us=600.0005),
})

# The catalog a golden config runs with, by seed, where it is not the
# default.
GOLDEN_CATALOGS = {18: c0_catalog(11_000), 29: OFF_GRID_CATALOG}


@pytest.mark.parametrize("kwargs, digest", GOLDEN,
                         ids=[f"seed{kwargs['seed']}" for kwargs, _ in GOLDEN])
def test_golden_results_hash(kwargs, digest):
    report = run(SimConfig(**kwargs), catalog=GOLDEN_CATALOGS.get(kwargs["seed"]))
    results = sim_report_document(report)["results"]
    assert hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest() == digest


def test_pack_golden_reaches_the_least_loaded_fallback():
    kwargs = next(kwargs for kwargs, _ in GOLDEN if kwargs["seed"] == 25)
    report = run(SimConfig(**kwargs))
    assert report.peak_queue > kwargs["cores"] * kwargs["pack_queue_cap"]


# The trace lists of one config under each dispatch policy, pinned in
# order: entries are recorded when the arrival that ends an idle period
# (or the horizon) is reached.
TRACE_GOLDEN = {
    "round_robin": "ca4fbae03571ae838b18e287bbc37d66f8b0255cebcde66982a3ff8ebadf8d5a",
    "random": "d9e4c0a6733eb4898f15a6aa20d97fac32397889f988ef4b5295ec9770083f6a",
    "pack_lowest_index": "8826df5634c55f8df76daca95ad4ca21ce52c0966fab729c61b5fd3ceef373da",
}


@pytest.mark.parametrize("dispatch", sorted(TRACE_GOLDEN))
def test_golden_trace_hash(dispatch):
    config = SimConfig(
        cores=3, duration_s=0.02, seed=26,
        arrival=ArrivalSpec("bursty", 30_000.0, burst_on_ms=0.5, burst_off_ms=0.5),
        service=ServiceSpec("lognormal", 20.0, sigma=0.8), dispatch=dispatch,
        pack_queue_cap=2, governor=GovernorPolicy("ewma", 0.5),
        cstates_enabled=frozenset({"C0", "C1", "C1E", "C6A", "C6"}), snoop=SnoopSpec(50_000.0))
    trace = run(config, trace=True).trace
    text = json.dumps([trace.decisions, trace.idle_intervals])
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_GOLDEN[dispatch]


def test_golden_trace_hash_with_horizon_only_cores():
    # Cores 0, 1 and 6 get no arrival: their one decision is the
    # horizon's, and the oracle reads the first arrival of the whole run
    # (a C1E choice here; the second arrival would give C6).  The
    # horizon's decisions follow every arrival's, in core order.
    kwargs = next(kwargs for kwargs, _ in GOLDEN if kwargs["seed"] == 28)
    report = run(SimConfig(**kwargs), trace=True)
    assert report.requests_offered == 5
    assert {c for c, _ in report.trace.decisions[:5]} == {2, 3, 4, 5, 7}
    text = json.dumps([report.trace.decisions, report.trace.idle_intervals])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "b9a31b255a6a77ec4c62abec94a6774a9bac723955602bdd4e9c8de676d776fa"
