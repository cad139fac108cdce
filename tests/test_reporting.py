"""Tests for file formats: residency CSV, JSON reports, plot tables,
timeline rendering, and the INI simulation config."""

import json
import re
import warnings
from dataclasses import MISSING, fields

import pytest

from cstatesim.cli import main
from cstatesim.errors import ParseError, ValidationError
from cstatesim.fsm import entry_timeline, exit_timeline
from cstatesim.model import PerfModel, ResidencyProfile
from cstatesim.reporting import (
    SCHEMA_VERSION,
    canonical_hash,
    document_to_json,
    dumps_residency_csv,
    emit_plot_table,
    format_timeline,
    load_sim_config,
    loads_residency_csv,
    loads_residency_items,
    loads_sim_config,
    make_document,
    parse_document,
    sim_report_document,
    sweep_document,
    timeline_csv,
)
from cstatesim.sim import (
    ArrivalSpec,
    GovernorPolicy,
    ServiceSpec,
    SimConfig,
    SnoopSpec,
    VariantSpec,
    run,
    sweep,
)


def small_report(seed=7, **overrides):
    base = dict(
        cores=1,
        duration_s=0.005,
        seed=seed,
        arrival=ArrivalSpec(rate_qps=2000.0),
        service=ServiceSpec(dist="fixed", mean_us=10.0),
    )
    base.update(overrides)
    return run(SimConfig(**base))


# ---------------------------------------------------------------------------
# residency CSV


class TestResidencyCsv:
    GOOD = "state,fraction,transitions\nC0,0.45,120\nC1,0.55,120\n"

    def test_parse_minimal(self):
        prof = loads_residency_csv(self.GOOD)
        assert prof.residency == {"C0": 0.45, "C1": 0.55}
        assert prof.transitions == {"C0": 120, "C1": 120}
        assert prof.duration_s == 1.0

    def test_duration_comment(self):
        text = "# duration_s=2.5\n" + self.GOOD
        assert loads_residency_csv(text).duration_s == 2.5

    def test_duration_argument_wins_over_comment(self):
        text = "# duration_s=2.5\n" + self.GOOD
        assert loads_residency_csv(text, duration_s=9.0).duration_s == 9.0

    def test_round_trip(self):
        prof = ResidencyProfile(
            duration_s=3.0,
            residency={"C0": 0.2, "C1": 0.35, "C6": 0.45},
            transitions={"C0": 5, "C1": 7, "C6": 2},
        )
        again = loads_residency_csv(dumps_residency_csv(prof))
        assert again.duration_s == prof.duration_s
        assert again.residency == prof.residency
        assert again.transitions == prof.transitions

    def test_simulated_profile_round_trips_exactly(self):
        report = run(SimConfig(cores=4, duration_s=0.02, seed=1,
                               arrival=ArrivalSpec(rate_qps=20000.0),
                               service=ServiceSpec(mean_us=20.0),
                               cstates_enabled=frozenset({"C0", "C1", "C6"})))
        prof = report.residency
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = loads_residency_csv(dumps_residency_csv(prof))
        assert again.duration_s == prof.duration_s
        assert again.residency == prof.residency
        # Every row carries a count, so the transition bucket reads back as 0.
        assert again.transitions == {**dict.fromkeys(prof.residency, 0), **prof.transitions}

    def test_transition_bucket_row_allowed(self):
        text = "state,fraction,transitions\nC0,0.5,10\nC1,0.49,10\ntransition,0.01,0\n"
        prof = loads_residency_csv(text)
        assert prof.residency["transition"] == 0.01

    def test_wrong_header(self):
        with pytest.raises(ParseError, match="line 1: expected header"):
            loads_residency_csv("state,share,count\nC0,1.0,0\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="missing residency header"):
            loads_residency_csv("# just a comment\n")

    def test_no_rows(self):
        with pytest.raises(ParseError, match="no residency rows"):
            loads_residency_csv("state,fraction,transitions\n")

    def test_unknown_state_with_line_number(self):
        text = "state,fraction,transitions\nC9,1.0,0\n"
        with pytest.raises(ParseError, match="line 2: unknown state 'C9'"):
            loads_residency_csv(text)

    def test_duplicate_state(self):
        text = "state,fraction,transitions\nC0,0.5,0\nC0,0.5,0\n"
        with pytest.raises(ParseError, match="line 3: duplicate state 'C0'"):
            loads_residency_csv(text)

    def test_bad_fraction(self):
        text = "state,fraction,transitions\nC0,half,0\n"
        with pytest.raises(ParseError, match="line 2: bad fraction 'half'"):
            loads_residency_csv(text)

    def test_bad_transition_count(self):
        text = "state,fraction,transitions\nC0,1.0,many\n"
        with pytest.raises(ParseError, match="bad transition count 'many'"):
            loads_residency_csv(text)

    def test_wrong_column_count(self):
        text = "state,fraction,transitions\nC0,1.0\n"
        with pytest.raises(ParseError, match="expected 3 columns, got 2"):
            loads_residency_csv(text)

    def test_bad_duration_comment(self):
        with pytest.raises(ParseError, match="bad duration comment"):
            loads_residency_csv("# duration_s=soon\n" + self.GOOD)

    def test_fractions_must_sum_to_one(self):
        text = "state,fraction,transitions\nC0,0.3,0\nC1,0.5,0\n"
        with pytest.raises(ValidationError, match=r"residency sum 0\.8000"):
            loads_residency_csv(text)

    def test_tiny_drift_renormalizes_with_warning(self):
        text = "state,fraction,transitions\nC0,0.5000004,0\nC1,0.5,0\n"
        with pytest.warns(UserWarning, match="renormalizing"):
            prof = loads_residency_csv(text)
        assert sum(prof.residency.values()) == pytest.approx(1.0, abs=1e-12)

    def test_blank_lines_are_skipped(self):
        text = "\n" + self.GOOD.replace("\nC1", "\n  \nC1") + "\n"
        assert loads_residency_csv(text) == loads_residency_csv(self.GOOD)

    def test_inline_items_skip_empty_items(self):
        prof = loads_residency_items(" C0=0.45, ,C1 = 0.55,")
        assert prof.residency == {"C0": 0.45, "C1": 0.55}
        assert prof.duration_s == 1.0

    def test_inline_items_all_empty(self):
        with pytest.raises(ParseError, match="^empty residency specification$"):
            loads_residency_items(" , ")

    def test_parse_error_carries_line_attribute(self):
        try:
            loads_residency_csv("state,fraction,transitions\nC9,1.0,0\n")
        except ParseError as e:
            assert e.line == 2
        else:
            pytest.fail("expected ParseError")


# ---------------------------------------------------------------------------
# JSON report documents


class TestDocuments:
    def test_envelope_shape(self):
        doc = sim_report_document(small_report())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["kind"] == "sim_report"
        assert doc["config"]["cores"] == 1
        assert doc["provenance"]["seed"] == 7
        assert doc["provenance"]["tool"] == "cstatesim"
        assert "timestamp" in doc["provenance"]
        results = doc["results"]
        for key in (
            "energy_j",
            "avg_power_w",
            "latency_us",
            "residency",
            "per_core",
            "transitions",
            "wakeups_aborted",
            "snoops_served",
            "requests",
            "saturated",
            "peak_queue",
        ):
            assert key in results

    def test_timestamp_is_utc_to_the_second(self):
        # The form docs/formats.md shows: ISO 8601, whole seconds, UTC.
        doc = sim_report_document(small_report())
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00",
                            doc["provenance"]["timestamp"])

    def test_floats_quantized_to_6_significant_digits(self):
        doc = make_document(
            "power_estimate", None, {"avg_power_w": 0.123456789, "deep": {"x": 1234567.89}}, None
        )
        assert doc["results"]["avg_power_w"] == 0.123457
        assert doc["results"]["deep"]["x"] == 1234570.0

    def test_quantization_leaves_bools_and_ints_alone(self):
        doc = make_document("power_estimate", None, {"flag": True, "n": 123456789}, None)
        assert doc["results"]["flag"] is True
        assert doc["results"]["n"] == 123456789

    def test_json_round_trip_is_byte_stable(self):
        doc = sim_report_document(small_report())
        text = document_to_json(doc)
        assert text.endswith("}\n")
        assert document_to_json(parse_document(text)) == text

    def test_parse_document_rejects_bad_json(self):
        with pytest.raises(ParseError, match="bad report JSON"):
            parse_document("{not json")

    def test_parse_document_rejects_missing_version(self):
        with pytest.raises(ParseError, match="missing schema_version"):
            parse_document(json.dumps({"kind": "sim_report"}))

    def test_parse_document_rejects_unknown_version(self):
        doc = sim_report_document(small_report())
        doc["schema_version"] = 999
        with pytest.raises(ParseError, match="unsupported schema_version"):
            parse_document(document_to_json(doc))

    def test_canonical_hash_ignores_timestamp(self):
        doc = sim_report_document(small_report())
        h1 = canonical_hash(doc)
        doc["provenance"]["timestamp"] = "2000-01-01T00:00:00+00:00"
        assert canonical_hash(doc) == h1

    def test_canonical_hash_leaves_the_document_alone(self):
        doc = sim_report_document(small_report())
        before = document_to_json(doc)
        canonical_hash(doc)
        assert document_to_json(doc) == before

    def test_canonical_hash_sees_results(self):
        doc = sim_report_document(small_report())
        h1 = canonical_hash(doc)
        doc["results"]["avg_power_w"] += 1.0
        assert canonical_hash(doc) != h1

    def test_same_seed_same_hash(self):
        a = sim_report_document(small_report())
        b = sim_report_document(small_report())
        assert canonical_hash(a) == canonical_hash(b)

    def test_estimate_document_has_no_config(self):
        doc = make_document("power_estimate", None, {"avg_power_w": 1.0}, None)
        assert doc["config"] is None
        assert doc["provenance"]["seed"] is None


# ---------------------------------------------------------------------------
# sweep document and plot table


def tiny_sweep():
    base = SimConfig(
        cores=1,
        duration_s=0.005,
        seed=11,
        arrival=ArrivalSpec(rate_qps=1000.0),
        service=ServiceSpec(dist="fixed", mean_us=10.0),
    )
    variants = [
        VariantSpec("baseline", frozenset({"C0", "C1", "C1E", "C6"})),
        VariantSpec("agile", frozenset({"C0", "C6A", "C6AE", "C6"})),
    ]
    return base, sweep(base, [1000.0, 4000.0, 8000.0], variants)


class TestSweepOutputs:
    def test_sweep_document_points(self):
        base, points = tiny_sweep()
        doc = sweep_document(points, base)
        assert doc["kind"] == "sweep"
        rows = doc["results"]["points"]
        assert len(rows) == 6
        assert rows[0]["variant"] == "baseline"
        assert rows[0]["savings_vs_first"] == 0.0
        assert rows[1]["variant"] == "agile"
        assert {"qps", "seed", "avg_power_w", "latency_us", "saturated"} <= set(rows[0])

    def test_plot_table_shape(self):
        _, points = tiny_sweep()
        table = emit_plot_table(points)
        lines = table.strip().split("\n")
        assert lines[0] == (
            "variant,qps,avg_power_w,savings_pct,mean_us,p50_us,p95_us,"
            "p99_us,p999_us,mean_degradation_pct,p99_degradation_pct"
        )
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert first[0] == "baseline"
        assert float(first[1]) == 1000.0
        # first variant rows carry zero savings/degradation by definition
        assert float(first[3]) == 0.0
        assert float(first[-1]) == 0.0
        assert float(first[-2]) == 0.0

    def test_plot_table_percentages_match_points(self):
        _, points = tiny_sweep()
        lines = emit_plot_table(points).strip().split("\n")[1:]
        for line, point in zip(lines, points):
            cells = line.split(",")
            assert float(cells[3]) == pytest.approx(
                point.savings_vs_first * 100.0, abs=1e-4
            )
            assert float(cells[-1]) == pytest.approx(
                point.p99_delta_vs_first * 100.0, abs=1e-4
            )


# ---------------------------------------------------------------------------
# timeline rendering


class TestTimelineRendering:
    def test_format_timeline_header(self):
        text = format_timeline(entry_timeline("C6A"))
        assert text.splitlines()[0] == "C6A entry @ 500 MHz, total 18 ns"

    def test_format_timeline_row_count(self):
        timeline = exit_timeline("C6A")
        text = format_timeline(timeline)
        # header + rule + column header + one line per step row
        assert len(text.splitlines()) == 3 + len(timeline.rows())

    def test_timeline_csv(self):
        timeline = entry_timeline("C6AE")
        lines = timeline_csv(timeline).strip().split("\n")
        assert lines[0] == "step,cycles,fixed_ns,cum_ns"
        assert len(lines) == 1 + len(timeline.rows())
        last = lines[-1].split(",")
        assert int(last[-1]) == timeline.total_ns


# ---------------------------------------------------------------------------
# simulation config files


MINIMAL_INI = """
[sim]
cores = 2
duration_s = 0.5
seed = 42
"""

FULL_INI = """
[sim]
cores = 4
duration_s = 1.0
seed = 9
cstates_enabled = C0, C6A, C6AE, C6
dispatch = pack_lowest_index
pack_queue_cap = 8
network_rtt_us = 50

[arrival]
process = bursty
rate_qps = 20000
burst_on_ms = 2
burst_off_ms = 5

[service]
dist = lognormal
mean_us = 25
sigma = 0.8

[governor]
predictor = ewma
ewma_alpha = 0.25

[snoop]
rate_per_core_hz = 100
service_ns = 60

[perf]
freq_penalty = 0.02
scalability = 0.9

[variant:all_idle]
cstates = C0, C1, C1E, C6

[variant:hot]
cstates = C0, C1
"""


class TestSimConfigFile:
    def test_minimal_defaults(self):
        parsed = loads_sim_config(MINIMAL_INI)
        cfg = parsed.config
        assert cfg.cores == 2
        assert cfg.duration_s == 0.5
        assert cfg.seed == 42
        assert cfg.arrival.process == "poisson"
        assert cfg.arrival.rate_qps == 0.0
        assert cfg.service.dist == "exponential"
        assert cfg.service.mean_us == 10.0
        assert cfg.governor.predictor == "clairvoyant"
        assert cfg.dispatch == "round_robin"
        assert cfg.cstates_enabled == frozenset({"C0", "C1", "C1E", "C6"})
        assert cfg.snoop.rate_per_core_hz == 0.0
        assert cfg.network_rtt_us == 0.0
        assert cfg.pack_queue_cap == 4
        assert parsed.perf.freq_penalty == 0.01
        assert parsed.variants == {}

    def test_full_config(self):
        parsed = loads_sim_config(FULL_INI)
        cfg = parsed.config
        assert cfg.cores == 4
        assert cfg.cstates_enabled == frozenset({"C0", "C6A", "C6AE", "C6"})
        assert cfg.dispatch == "pack_lowest_index"
        assert cfg.pack_queue_cap == 8
        assert cfg.network_rtt_us == 50.0
        assert cfg.arrival.process == "bursty"
        assert cfg.arrival.burst_off_ms == 5.0
        assert cfg.service.dist == "lognormal"
        assert cfg.service.sigma == 0.8
        assert cfg.governor.predictor == "ewma"
        assert cfg.governor.ewma_alpha == 0.25
        assert cfg.snoop.rate_per_core_hz == 100.0
        assert cfg.snoop.service_ns == 60
        assert parsed.perf.freq_penalty == 0.02
        assert parsed.perf.scalability == 0.9
        assert set(parsed.variants) == {"all_idle", "hot"}
        assert parsed.variants["all_idle"].cstates == frozenset(
            {"C0", "C1", "C1E", "C6"}
        )
        assert parsed.variants["hot"].cstates == frozenset({"C0", "C1"})

    def test_missing_sim_section(self):
        with pytest.raises(ParseError, match=r"needs a \[sim\] section"):
            loads_sim_config("[arrival]\nrate_qps = 10\n")

    def test_missing_required_key(self):
        with pytest.raises(ParseError, match=r"\[sim\] missing key 'seed'"):
            loads_sim_config("[sim]\ncores = 1\nduration_s = 1\n")
        # A variant is its menu: it has no default one.
        with pytest.raises(ParseError, match=r"^\[variant:x\] missing key 'cstates'$"):
            loads_sim_config(MINIMAL_INI + "\n[variant:x]\n")

    def test_variant_needs_a_name(self):
        with pytest.raises(ParseError, match=r"^variant section 'variant: ' needs a name$"):
            loads_sim_config(MINIMAL_INI + "\n[variant: ]\ncstates = C0,C1\n")

    def test_semantic_errors_stay_validation_errors(self):
        text = """
[sim]
cores = 1
duration_s = 1
seed = 1

[arrival]
rate_qps = 200000

[service]
dist = fixed
mean_us = 10
"""
        with pytest.raises(ValidationError, match="utilization"):
            loads_sim_config(text)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "sim.ini"
        path.write_text(MINIMAL_INI)
        assert load_sim_config(str(path)).config.cores == 2


# One non-default value per key: (section, key, INI text, parsed value).
_KEY_VALUES = [
    ("sim", "cores", "3", 3),
    ("sim", "duration_s", "0.25", 0.25),
    ("sim", "seed", "7", 7),
    ("sim", "dispatch", "random", "random"),
    ("sim", "cstates_enabled", "C0, C6A", frozenset({"C0", "C6A"})),
    ("sim", "network_rtt_us", "50", 50.0),
    ("sim", "pack_queue_cap", "8", 8),
    ("arrival", "process", "bursty", "bursty"),
    ("arrival", "rate_qps", "1000", 1000.0),
    ("arrival", "burst_on_ms", "2", 2.0),
    ("arrival", "burst_off_ms", "3", 3.0),
    ("service", "dist", "lognormal", "lognormal"),
    ("service", "mean_us", "25", 25.0),
    ("service", "sigma", "0.8", 0.8),
    ("governor", "predictor", "ewma", "ewma"),
    ("governor", "ewma_alpha", "0.25", 0.25),
    ("snoop", "rate_per_core_hz", "100", 100.0),
    ("snoop", "service_ns", "60", 60),
    ("perf", "freq_penalty", "0.02", 0.02),
    ("perf", "scalability", "0.9", 0.9),
    ("variant:v", "cstates", "C0, C1E", frozenset({"C0", "C1E"})),
]
_SECTION_CLASSES = {
    "sim": SimConfig, "arrival": ArrivalSpec, "service": ServiceSpec,
    "governor": GovernorPolicy, "snoop": SnoopSpec, "perf": PerfModel,
    "variant:v": VariantSpec,
}


# Each key that only one mode reads: (section, key) -> (the key that sets
# the mode, in the same section; the value that reads the key; another
# value that does not; the mode as the refusal names it).
_MODE_KEYS = {
    ("sim", "pack_queue_cap"):
        ("dispatch", "pack_lowest_index", "random", "dispatch = pack_lowest_index"),
    ("arrival", "burst_on_ms"): ("process", "bursty", "periodic", "process = bursty"),
    ("arrival", "burst_off_ms"): ("process", "bursty", "periodic", "process = bursty"),
    ("service", "sigma"): ("dist", "lognormal", "fixed", "dist = lognormal"),
    ("governor", "ewma_alpha"): ("predictor", "ewma", "last_idle", "predictor = ewma"),
    ("snoop", "service_ns"): ("rate_per_core_hz", "100", "0", "rate_per_core_hz > 0"),
}


def _ini_with(section, key, raw, mode=None):
    """MINIMAL_INI's [sim] keys, plus (or with) one key set to raw.

    A key that only one mode reads is written with its mode key, set to
    mode, or when mode is None to the value that reads the key.
    """
    sections = {"sim": {"cores": "2", "duration_s": "0.5", "seed": "42"}}
    keys = sections.setdefault(section, {})
    if (section, key) in _MODE_KEYS:
        mode_key, reading, _, _ = _MODE_KEYS[section, key]
        keys[mode_key] = reading if mode is None else mode
    keys[key] = raw
    if section.startswith("variant:") and key != "cstates":
        keys["cstates"] = "C0, C1"
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()) + "\n"
                   for name, body in sections.items())


def _parsed_value(parsed, section, key):
    if section == "sim":
        owner = parsed.config
    elif section == "perf":
        owner = parsed.perf
    elif section.startswith("variant:"):
        owner = parsed.variants["v"]
    else:
        owner = getattr(parsed.config, section)
    return getattr(owner, key)


class TestSimConfigKeys:
    def test_every_field_has_a_key_value(self):
        sections = {"arrival", "service", "governor", "snoop"}
        expected = {("sim", f.name) for f in fields(SimConfig) if f.name not in sections}
        for section in sections:
            expected |= {(section, f.name) for f in fields(_SECTION_CLASSES[section])}
        expected |= {("perf", "freq_penalty"), ("perf", "scalability"),
                     ("variant:v", "cstates")}
        assert {(section, key) for section, key, _, _ in _KEY_VALUES} == expected

    @pytest.mark.parametrize("section, key, raw, value", _KEY_VALUES)
    def test_key_reaches_its_field(self, section, key, raw, value):
        parsed = loads_sim_config(_ini_with(section, key, raw))
        got = _parsed_value(parsed, section, key)
        assert got == value
        assert type(got) is type(value)

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, key, _, _ in _KEY_VALUES
        if key not in ("cores", "duration_s", "seed", "cstates_enabled", "cstates")
    ])
    def test_empty_value_means_the_field_default(self, section, key):
        parsed = loads_sim_config(_ini_with(section, key, ""))
        default = {f.name: f.default for f in fields(_SECTION_CLASSES[section])}[key]
        assert default is not MISSING
        assert _parsed_value(parsed, section, key) == default

    @pytest.mark.parametrize("section, key", sorted(_MODE_KEYS))
    def test_mode_specific_key_is_refused_outside_its_mode(self, section, key, tmp_path,
                                                           capsys):
        _, _, other, mode_text = _MODE_KEYS[section, key]
        raw, value = {(s, k): (raw, value) for s, k, raw, value in _KEY_VALUES}[section, key]
        message = f"[{section}] key '{key}' is read only when {mode_text}"
        path = tmp_path / "sim.ini"
        # An empty mode key is the default mode, which does not read the key.
        for mode in ("", other):
            text = _ini_with(section, key, raw, mode)
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                loads_sim_config(text)
            path.write_text(text)
            assert main(["sim", "run", "--config", str(path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
            # Empty, the key means its default in any mode.
            path.write_text(_ini_with(section, key, "", mode))
            assert main(["sim", "run", "--config", str(path)]) == 0
        assert _parsed_value(loads_sim_config(_ini_with(section, key, raw)),
                             section, key) == value
