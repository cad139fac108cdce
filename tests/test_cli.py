"""End-to-end CLI tests driving main(argv) in-process."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from cstatesim import __version__, fsm
from cstatesim.catalog import default_catalog, dumps_catalog, loads_catalog
from cstatesim.cli import BUILTIN_VARIANTS, build_parser, main
from cstatesim.demo import demo_sweep
from cstatesim.model import PerfModel, upper_bound_savings
from cstatesim.sim import ArrivalSpec, ServiceSpec, SimConfig, SnoopSpec, run
from cstatesim.errors import ParseError, ValidationError, read_ini
from cstatesim.reporting import (canonical_hash, dumps_residency_csv, parse_document,
                                 sim_report_document)

SIM_INI = """
[sim]
cores = 1
duration_s = 0.01
seed = 3

[arrival]
rate_qps = 2000

[service]
dist = fixed
mean_us = 10

[variant:custom_pair]
cstates = C0, C6A
"""


@pytest.fixture
def sim_config(tmp_path):
    path = tmp_path / "sim.ini"
    path.write_text(SIM_INI)
    return str(path)


def c0_catalog_file(tmp_path, power_w):
    """A catalog file that gives only C0's power_w."""
    path = tmp_path / "c0.ini"
    path.write_text(f"[C0]\npower_w = {power_w}\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# model subcommands


class TestModelCli:
    def test_upper_bound_low_idle_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, "model", "upper-bound", "--residency", "C0=0.5,C1=0.45,C6=0.05"
        )
        assert code == 0
        assert out == "savings 22.7%\n"

    def test_upper_bound_heavy_idle_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, "model", "upper-bound", "--residency", "C0=0.2,C1=0.8"
        )
        assert code == 0
        assert out == "savings 54.9%\n"

    def test_upper_bound_all_deep_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "model", "upper-bound", "--residency", "C6=1.0")
        assert code == 0
        assert out == "savings 0.0%\n"

    def test_estimate_prints_total_and_per_state(self, capsys):
        code, out, _ = run_cli(
            capsys, "model", "estimate", "--residency", "C0=0.5,C1=0.45,C6=0.05"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "average power 2.653 W"
        assert any(line.split() == ["C0", "2", "W"] for line in lines[1:])
        assert any(line.split() == ["C1", "0.648", "W"] for line in lines[1:])

    def test_estimate_writes_document(self, capsys, tmp_path):
        out_path = tmp_path / "estimate.json"
        code, out, _ = run_cli(
            capsys,
            "model", "estimate",
            "--residency", "C6=1.0",
            "--out", str(out_path),
        )
        assert code == 0
        assert f"wrote {out_path}" in out
        doc = parse_document(out_path.read_text())
        assert doc["kind"] == "power_estimate"
        assert doc["results"]["avg_power_w"] == 0.1

    def test_estimate_aw_zero_penalty_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "model", "estimate-aw",
            "--residency", "C0=0.5,C1=0.45,C6=0.05",
            "--freq-penalty", "0", "--delta-ns", "0",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "baseline power 2.653 W"
        assert lines[1] == "agile estimate 2.14 W"
        assert lines[2] == "savings 19.3%"

    def test_estimate_aw_document(self, capsys, tmp_path):
        out_path = tmp_path / "aw.json"
        code, out, _ = run_cli(
            capsys,
            "model", "estimate-aw",
            "--residency", "C0=0.2,C1=0.8",
            "--freq-penalty", "0", "--delta-ns", "0",
            "--out", str(out_path),
        )
        assert code == 0
        doc = parse_document(out_path.read_text())
        assert doc["kind"] == "agile_power_estimate"
        assert doc["results"]["avg_power_w"] == 1.04
        assert doc["results"]["perf"]["freq_penalty"] == 0.0

    def test_trace_file_input(self, capsys, tmp_path):
        trace = tmp_path / "residency.csv"
        trace.write_text(
            "# duration_s=2.0\n"
            "state,fraction,transitions\n"
            "C0,0.5,100\nC1,0.45,100\nC6,0.05,10\n"
        )
        code, out, _ = run_cli(capsys, "model", "estimate", "--trace", str(trace))
        assert code == 0
        assert out.splitlines()[0] == "average power 2.653 W"

    @pytest.mark.parametrize("count, delta", [("1" + "0" * 400, "100"), ("10", "1" + "0" * 400)],
                             ids=["count", "delta"])
    def test_estimate_aw_transitions_past_a_float_is_exit_1(self, capsys, tmp_path, count, delta):
        trace = tmp_path / "residency.csv"
        trace.write_text(f"state,fraction,transitions\nC0,0.5,0\nC1,0.5,{count}\n")
        code, out, err = run_cli(capsys, "model", "estimate-aw", "--trace", str(trace),
                                 "--delta-ns", delta)
        assert code == 1
        assert out == ""
        assert err == ("error: load infeasible under penalty: C1 transitions need "
                       "more than the 0.5 s of residency that exist\n")

    def test_profile_required(self, capsys):
        code, _, err = run_cli(capsys, "model", "estimate")
        assert code == 1
        assert "give a profile" in err

    def test_bad_residency_sum_is_exit_1(self, capsys):
        code, _, err = run_cli(
            capsys, "model", "estimate", "--residency", "C0=0.5,C1=0.3"
        )
        assert code == 1
        assert "error: residency sum 0.8000" in err

    def test_malformed_residency_item(self, capsys):
        code, _, err = run_cli(capsys, "model", "estimate", "--residency", "C0:1.0")
        assert code == 1
        assert "expected NAME=FRACTION" in err

    def test_residency_and_trace_together_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["model", "estimate", "--trace", str(tmp_path / "r.csv"),
                  "--residency", "C0=0.5,C1=0.45,C6=0.05"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["upper-bound", "estimate"])
    def test_duration_only_on_estimate_aw(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main(["model", command, "--residency", "C0=0.5,C1=0.45,C6=0.05",
                  "--duration", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --duration 7" in capsys.readouterr().err

    @pytest.mark.parametrize("residency, message", [
        ("C0=0.3,C1=0.7,C1=0.7", "duplicate state 'C1'"),
        ("C0=0.5,C9=0.5", "unknown state 'C9'"),
        ("C0=0.5,C1=half", "bad fraction 'half'"),
    ], ids=["duplicate", "unknown", "bad-fraction"])
    def test_inline_items_get_the_csv_row_checks(self, capsys, residency, message):
        code, out, err = run_cli(capsys, "model", "estimate", "--residency", residency)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_upper_bound_reads_a_simulated_profile_as_written(self, capsys, tmp_path):
        report = run(SimConfig(cores=4, duration_s=0.02, seed=1,
                               arrival=ArrivalSpec(rate_qps=20000.0),
                               service=ServiceSpec(mean_us=20.0),
                               cstates_enabled=frozenset({"C0", "C1", "C6"})))
        assert "transition" in report.residency.residency
        trace = tmp_path / "sim_residency.csv"
        trace.write_text(dumps_residency_csv(report.residency))
        code, out, _ = run_cli(capsys, "model", "upper-bound", "--trace", str(trace))
        assert code == 0
        bound = upper_bound_savings(report.residency, default_catalog())
        assert out == f"savings {bound * 100.0:.1f}%\n"

    def test_missing_trace_file_is_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "model", "estimate", "--trace", "/nonexistent/r.csv"
        )
        assert code == 2
        assert "no such file" in err


# ---------------------------------------------------------------------------
# sim run / sweep


class TestSimCli:
    def test_run_prints_summary_and_writes_docs(self, capsys, sim_config, tmp_path):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "plot.csv"
        code, out, _ = run_cli(
            capsys,
            "sim", "run",
            "--config", sim_config,
            "--out", str(out_json),
            "--plot", str(out_csv),
        )
        assert code == 0
        assert "avg power" in out
        assert "residency" in out
        doc = parse_document(out_json.read_text())
        assert doc["kind"] == "sim_report"
        assert doc["config"]["seed"] == 3
        plot = out_csv.read_text().splitlines()
        assert plot[0].startswith("variant,qps,avg_power_w")
        assert len(plot) == 2

    def test_run_is_deterministic_across_invocations(self, capsys, sim_config, tmp_path):
        hashes = []
        for name in ("a.json", "b.json"):
            out_json = tmp_path / name
            code, _, _ = run_cli(
                capsys, "sim", "run", "--config", sim_config, "--out", str(out_json)
            )
            assert code == 0
            hashes.append(canonical_hash(parse_document(out_json.read_text())))
        assert hashes[0] == hashes[1]

    def test_missing_config_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sim", "run", "--config", "/nonexistent.ini")
        assert code == 2
        assert "no such file" in err

    def test_sweep_table_and_document(self, capsys, sim_config, tmp_path):
        out_json = tmp_path / "sweep.json"
        code, out, _ = run_cli(
            capsys,
            "sim", "sweep",
            "--config", sim_config,
            "--qps", "1000,3000",
            "--variants", "baseline,agile",
            "--out", str(out_json),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("variant,qps,avg_power_w")
        rows = [line for line in lines[1:] if line.startswith(("baseline", "agile"))]
        assert len(rows) == 4
        doc = parse_document(out_json.read_text())
        assert doc["kind"] == "sweep"
        assert len(doc["results"]["points"]) == 4

    def test_sweep_accepts_config_defined_variant(self, capsys, sim_config):
        code, out, _ = run_cli(
            capsys,
            "sim", "sweep",
            "--config", sim_config,
            "--qps", "1000",
            "--variants", "baseline,custom_pair",
        )
        assert code == 0
        assert any(line.startswith("custom_pair,") for line in out.splitlines())

    def test_sweep_config_variant_shadows_the_builtin(self, capsys, tmp_path):
        # The file's agile is {C0, C1}, so it runs as no_c6_no_c1e does.
        path = tmp_path / "shadow.ini"
        path.write_text(SIM_INI + "\n[variant:agile]\ncstates = C0, C1\n")
        code, out, _ = run_cli(capsys, "sim", "sweep", "--config", str(path),
                               "--qps", "1000", "--variants", "no_c6_no_c1e,agile")
        assert code == 0
        first, shadowed = [line.split(",", 1) for line in out.splitlines()[1:]]
        assert (first[0], shadowed[0]) == ("no_c6_no_c1e", "agile")
        assert shadowed[1] == first[1]

    def test_sweep_unknown_variant_is_usage_error(self, capsys, sim_config):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "sim", "sweep",
                    "--config", sim_config,
                    "--qps", "1000",
                    "--variants", "warp_drive",
                ]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown variant 'warp_drive'" in err
        for name in BUILTIN_VARIANTS:
            assert name in err

    def test_sweep_plot_file_is_the_printed_table(self, capsys, sim_config, tmp_path):
        plot = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sim", "sweep", "--config", sim_config,
                               "--qps", "1000,3000", "--variants", "baseline,agile",
                               "--plot", str(plot))
        assert code == 0
        table = plot.read_text()
        assert table.startswith("variant,qps,avg_power_w")
        assert out == table + f"wrote {plot}\n"

    @pytest.mark.parametrize("flag, value", [("--qps", ","), ("--variants", " , ")])
    def test_sweep_empty_list_is_usage_error(self, capsys, sim_config, flag, value):
        argv = {"--qps": "1000", "--variants": "baseline", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["sim", "sweep", "--config", sim_config,
                  *(item for pair in argv.items() for item in pair)])
        assert exc.value.code == 2
        assert f"{flag} needs a comma-separated list" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_sweep_jobs_below_one_is_usage_error(self, capsys, sim_config, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["sim", "sweep", "--config", sim_config, "--qps", "1000",
                  "--variants", "baseline", "--jobs", jobs])
        assert exc.value.code == 2
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err

    def test_sweep_bad_qps_is_parse_error(self, capsys, sim_config):
        code, out, err = run_cli(
            capsys,
            "sim", "sweep",
            "--config", sim_config,
            "--qps", "1000,abc",
            "--variants", "baseline",
        )
        assert code == 1
        assert out == ""
        assert err == "error: bad --qps list '1000,abc'\n"

    def test_run_catalog_c0_latency_is_exit_1(self, capsys, tmp_path, sim_config):
        # C0 is never entered or exited: its latencies would be ignored.
        path = tmp_path / "c0.ini"
        path.write_text("[C0]\nhw_exit_ns = 100000\ntransition_time_us = 200\n"
                        "target_residency_us = 200\n")
        code, out, err = run_cli(capsys, "sim", "run", "--config", sim_config,
                                 "--catalog", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: C0: latencies must be zero (it is never entered or exited)\n"

    def test_run_unbounded_snoop_rate_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "snoop.ini"
        path.write_text("[sim]\ncores = 1\nduration_s = 1\nseed = 3\n"
                        "cstates_enabled = C0,C6A\n\n[snoop]\nrate_per_core_hz = 1e10\n")
        code, out, err = run_cli(capsys, "sim", "run", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: snoop rate 1e+10 Hz times the 60 ns C6A snoop window is not below 1\n"

    def test_run_catalog_c0_power_raises_power(self, capsys, tmp_path, sim_config):
        def power(*argv):
            code, out, _ = run_cli(capsys, "sim", "run", "--config", sim_config, *argv)
            assert code == 0
            return float(next(line for line in out.splitlines()
                              if line.startswith("avg power")).split()[2])

        hot = power("--catalog", c0_catalog_file(tmp_path, 11.0))
        assert hot > power()

    @pytest.mark.parametrize("dist", ["fixed", "exponential", "lognormal"])
    def test_run_mean_that_underflows_is_exit_1(self, capsys, tmp_path, dist):
        path = tmp_path / "tiny.ini"
        path.write_text("[sim]\ncores = 1\nduration_s = 0.01\nseed = 3\n\n"
                        f"[service]\ndist = {dist}\nmean_us = 1e-320\n")
        code, out, err = run_cli(capsys, "sim", "run", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: mean_us 1e-320 underflows to 0 s\n"

    def test_run_service_time_past_64_bits_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "long.ini"
        path.write_text("[sim]\ncores = 4096\nduration_s = 4e9\nseed = 3\n\n"
                        "[arrival]\nprocess = periodic\nrate_qps = 4e-8\n\n"
                        "[service]\ndist = fixed\nmean_us = 1e16\n")
        code, out, err = run_cli(capsys, "sim", "run", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: a service time is not below 2**63 ns\n"

    def test_run_past_the_arrival_limit_is_exit_1_before_any_draw(self, capsys, tmp_path):
        # 10^10 expected arrivals: drawn, they ran out of memory.
        path = tmp_path / "long.ini"
        path.write_text("[sim]\ncores = 1\nduration_s = 1000000\nseed = 3\n\n"
                        "[arrival]\nrate_qps = 10000\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sim", "run", "--config", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err == ("error: rate_qps 10000 over duration_s 1e+06 expects 1e+10 "
                       "arrivals; at most 10,000,000 are allowed\n")

    def test_run_catalog_power_past_64_bits_is_exit_1(self, capsys, tmp_path):
        path = tmp_path / "one.ini"
        path.write_text("[sim]\ncores = 1\nduration_s = 1\nseed = 3\n\n"
                        "[arrival]\nrate_qps = 1000\n")
        code, out, err = run_cli(capsys, "sim", "run", "--config", str(path),
                                 "--catalog", c0_catalog_file(tmp_path, 1e300))
        assert code == 1
        assert out == ""
        assert err == "error: C0: power must be nonnegative and below 2**63 mW\n"

    def test_run_prints_saturation_warning(self, capsys, tmp_path):
        # 0.9 utilization at nominal speed; halving the clock saturates the core.
        path = tmp_path / "saturated.ini"
        path.write_text("[sim]\ncores = 1\nduration_s = 0.05\nseed = 5\n"
                        "cstates_enabled = C0,C6A\n\n[arrival]\nrate_qps = 90000\n\n"
                        "[service]\ndist = fixed\nmean_us = 10\n\n"
                        "[perf]\nfreq_penalty = 0.5\n")
        code, out, _ = run_cli(capsys, "sim", "run", "--config", str(path))
        assert code == 0
        assert "WARNING: saturated (queue high-water mark kept growing)\n" in out

    def test_demo_self_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "sim", "demo", "--duration", "0.05")
        assert code == 0
        assert "demo checks pass" in out


# ---------------------------------------------------------------------------
# fsm trace


class TestFsmCli:
    def test_entry_trace_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "fsm", "trace", "--flow", "entry", "--variant", "C6A"
        )
        assert code == 0
        assert out.splitlines()[0] == "C6A entry @ 500 MHz, total 18 ns"

    def test_exit_trace_respects_zone_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fsm", "trace", "--flow", "exit", "--variant", "C6AE",
            "--zones", "1", "--zone-ns", "15",
        )
        assert code == 0
        assert "total 23 ns" in out.splitlines()[0]

    def test_reference_flow_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "fsm", "trace", "--flow", "exit", "--variant", "C6"
        )
        assert code == 0
        assert "total 30000 ns" in out.splitlines()[0]

    def test_csv_output(self, capsys, tmp_path):
        csv_path = tmp_path / "steps.csv"
        code, out, _ = run_cli(
            capsys,
            "fsm", "trace", "--flow", "snoop", "--variant", "C6A",
            "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "step,cycles,fixed_ns,cum_ns"
        assert len(lines) > 1

    def test_snoop_flow_for_reference_variant_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "fsm", "trace", "--flow", "snoop", "--variant", "C1"
        )
        assert code == 1
        assert "error:" in err

    def test_snoop_trace_respects_service_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "fsm", "trace", "--flow", "snoop", "--variant", "C6A",
            "--service-ns", "100",
        )
        assert code == 0
        serve = next(line for line in out.splitlines() if line.startswith("serve snoop"))
        assert serve.split()[-2] == "100"

    @pytest.mark.parametrize("flags, flag, flow", [
        (["--flow", "entry", "--variant", "C6A", "--zones", "9", "--service-ns", "999"],
         "--zones", "C6A entry"),
        (["--flow", "exit", "--variant", "C6", "--zones", "9", "--zone-ns", "1"],
         "--zones", "C6 exit"),
        (["--flow", "snoop", "--variant", "C6A", "--zones", "9"],
         "--zones", "C6A snoop"),
        (["--flow", "exit", "--variant", "C6", "--zone-ns", "1"],
         "--zone-ns", "C6 exit"),
        (["--flow", "entry", "--variant", "C6AE", "--service-ns", "999"],
         "--service-ns", "C6AE entry"),
    ])
    def test_flag_the_flow_does_not_read_is_usage_error(self, capsys, flags, flag, flow):
        with pytest.raises(SystemExit) as exc:
            main(["fsm", "trace", *flags])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{flag} does not apply to the {flow} flow" in err

    @pytest.mark.parametrize("flow, variant", [
        ("entry", "C6A"), ("exit", "C6A"), ("snoop", "C6A"), ("entry", "C6"),
    ])
    def test_zero_controller_clock_rejected(self, capsys, flow, variant):
        code, out, err = run_cli(
            capsys, "fsm", "trace", "--flow", flow, "--variant", variant, "--mhz", "0"
        )
        assert code == 1
        assert out == ""
        assert err == "error: controller clock must be positive\n"


# ---------------------------------------------------------------------------
# validate


def validate_catalog(capsys, tmp_path, text):
    path = tmp_path / "catalog.ini"
    path.write_text(text)
    code, out, err = run_cli(capsys, "validate", "--catalog", str(path))
    assert err == ""
    return code, out, [line for line in out.splitlines() if line.startswith("FAIL")]


class TestValidateCli:
    CHECKS = [
        "upper-bound savings 23% profile",
        "upper-bound savings 41% profile",
        "upper-bound savings 55% profile",
        "C6A power within its budget (290, 315) mW",
        "C6AE power within its budget (227, 243) mW",
        "C6A/C0(P1) power ratio in [5%, 8%]",
        "C6AE/C0(P1) power ratio in [5%, 8%]",
        "C6A entry <= 20 ns",
        "C6A exit <= 85 ns",
        "C6AE entry <= 20 ns",
        "C6AE exit <= 85 ns",
        "C6 reference entry 87 us",
        "C6 reference exit 30 us",
        "C1 reference entry <= 10 ns",
        "C6 transition / C6A hw latency >= 900x",
        "C6 transition / C6AE hw latency >= 900x",
        "catalog power strictly decreasing C0 > C1 > C1E > C6A > C6AE > C6",
    ]

    def test_default_catalog_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        assert out.splitlines() == [f"PASS {name}" for name in self.CHECKS] + [
            "all checks passed"
        ]

    def test_broken_catalog_fails_power_ordering(self, capsys, tmp_path):
        # C6A at 2.0 W sits above C1E, outside its budget and at half of P1.
        broken = dumps_catalog(default_catalog()).replace(
            "power_w = 0.3\n", "power_w = 2.0\n"
        )
        assert "power_w = 2.0" in broken
        code, out, fails = validate_catalog(capsys, tmp_path, broken)
        assert code == 1
        assert fails == [
            "FAIL C6A power within its budget (290, 315) mW: got 2000 mW",
            "FAIL C6A/C0(P1) power ratio in [5%, 8%]: got 0.5000",
            "FAIL catalog power strictly decreasing C0 > C1 > C1E > C6A > C6AE > C6: "
            "power(C1E) = 880 mW not greater than power(C6A) = 2000 mW",
        ]
        assert out.endswith("3 failure(s)\n")

    def test_agile_power_over_budget_in_power_order(self, capsys, tmp_path):
        # 0.5 W keeps the power order but is 12.5 % of P1 and over budget.
        broken = dumps_catalog(default_catalog()).replace(
            "power_w = 0.3\n", "power_w = 0.5\n"
        )
        code, out, fails = validate_catalog(capsys, tmp_path, broken)
        assert code == 1
        assert fails == [
            "FAIL C6A power within its budget (290, 315) mW: got 500 mW",
            "FAIL C6A/C0(P1) power ratio in [5%, 8%]: got 0.1250",
        ]
        assert out.endswith("2 failure(s)\n")

    def test_c6_entry_latency_read_from_the_catalog(self, capsys, tmp_path):
        broken = dumps_catalog(default_catalog()).replace(
            "hw_entry_ns = 87000\n", "hw_entry_ns = 80000\n"
        )
        code, _, fails = validate_catalog(capsys, tmp_path, broken)
        assert code == 1
        assert fails == ["FAIL C6 reference entry 87 us: got 80000 ns"]

    def test_zero_agile_hw_latency_ends_without_a_traceback(self, capsys, tmp_path):
        cat = default_catalog()
        c6a = dataclasses.replace(cat["C6A"], hw_entry_ns=0, hw_exit_ns=0)
        zero = dataclasses.replace(cat, cstates={**cat.cstates, "C6A": c6a})
        code, out, fails = validate_catalog(capsys, tmp_path, dumps_catalog(zero))
        assert code == 0
        assert fails == []
        assert "PASS C6 transition / C6A hw latency >= 900x\n" in out

    def test_c6ae_hw_latencies_read_from_the_catalog(self, capsys, tmp_path):
        code, out, fails = validate_catalog(
            capsys, tmp_path, "[C6AE]\nhw_entry_ns = 4000\nhw_exit_ns = 5000\n")
        assert code == 1
        assert fails == [
            "FAIL C6AE entry <= 20 ns: got 4000 ns",
            "FAIL C6AE exit <= 85 ns: got 5000 ns",
            "FAIL C6 transition / C6AE hw latency >= 900x: C6AE hw 9000 ns, ratio 15x",
        ]
        assert out.endswith("3 failure(s)\n")

    def test_power_ratios_read_the_c0_power(self, capsys, tmp_path):
        # Active power has one key: P1 is [C0] power_w.
        code, out, fails = validate_catalog(capsys, tmp_path, "[C0]\npower_w = 11\n")
        assert code == 1
        assert fails == [
            "FAIL upper-bound savings 23% profile: got 9.80%, expected 23% within 0.6 points",
            "FAIL upper-bound savings 41% profile: got 20.69%, expected 41% within 0.6 points",
            "FAIL upper-bound savings 55% profile: got 31.98%, expected 55% within 0.6 points",
            "FAIL C6A/C0(P1) power ratio in [5%, 8%]: got 0.0273",
            "FAIL C6AE/C0(P1) power ratio in [5%, 8%]: got 0.0209",
        ]
        assert out.endswith("5 failure(s)\n")

    def test_catalog_breaking_a_state_contract_does_not_load(self, capsys, tmp_path):
        # C6's target residency below its transition time: the catalog is
        # refused when it loads, before any check runs.
        broken = dumps_catalog(default_catalog()).replace(
            "target_residency_us = 600\n", "target_residency_us = 100\n"
        )
        assert "target_residency_us = 100" in broken
        path = tmp_path / "broken.ini"
        path.write_text(broken)
        code, out, err = run_cli(capsys, "validate", "--catalog", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: C6: target residency 100.0 us below transition time 133.0 us\n"


def catalog_keys():
    """(section, key, value) for each key the built-in catalog's file gives."""
    cp = read_ini(dumps_catalog(default_catalog()), "catalog file")
    return [(section, key, value) for section in cp.sections()
            for key, value in cp[section].items()]


def other_value(raw):
    """Another valid value for a catalog key: half of it, or 1 for a zero."""
    if raw == "0":
        return "1"
    return str(int(raw) // 2) if raw.isdigit() else f"{float(raw) / 2:g}"


# Two short runs that between them enter every idle state: idle gaps
# from under 2 us to past 1 ms, under the conventional and the agile menu.
KEY_RUNS = [
    SimConfig(cores=1, duration_s=0.05, seed=7, arrival=ArrivalSpec(rate_qps=5000.0),
              service=ServiceSpec(dist="exponential", mean_us=5.0),
              cstates_enabled=frozenset(menu))
    for menu in (("C0", "C1", "C1E", "C6"), ("C0", "C6A", "C6AE", "C6"))
]


def catalog_outcome(capsys, tmp_path, text):
    """A catalog file's load error, or its runs' hashes and validate output."""
    try:
        catalog = loads_catalog(text)
    except (ParseError, ValidationError) as e:
        return f"{type(e).__name__}: {e}"
    path = tmp_path / "catalog.ini"
    path.write_text(text)
    _, out, _ = run_cli(capsys, "validate", "--catalog", str(path))
    return [canonical_hash(sim_report_document(run(cfg, catalog=catalog)))
            for cfg in KEY_RUNS], out


@pytest.mark.parametrize("section, key, value", catalog_keys())
def test_every_catalog_key_is_read(capsys, tmp_path, section, key, value):
    # A key that a file may set but nothing reads is a knob that is
    # parsed and ignored: moving it must be refused or change something.
    text = f"[{section}]\n{key} = {other_value(value)}\n"
    assert catalog_outcome(capsys, tmp_path, text) != catalog_outcome(capsys, tmp_path, "")


# ---------------------------------------------------------------------------
# unreadable files


@pytest.fixture
def not_utf8(tmp_path):
    path = tmp_path / "bin.ini"
    path.write_bytes(b"\xff\xfe[sim]\ncores = 1\n")
    return str(path)


class TestFileErrors:
    """A file that cannot be opened is exit 2, one that is not text is exit 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "run", "--config", "{dir}"],
            ["validate", "--catalog", "{dir}"],
            ["model", "estimate", "--trace", "{dir}"],
            ["sim", "run", "--config", "{config}", "--out", "{dir}"],
            ["sim", "sweep", "--config", "{config}", "--qps", "1000",
             "--variants", "baseline", "--plot", "{dir}"],
        ],
        ids=["run-config", "validate-catalog", "estimate-trace", "run-out", "sweep-plot"],
    )
    def test_directory_is_exit_2(self, capsys, tmp_path, sim_config, argv):
        argv = [a.format(dir=tmp_path, config=sim_config) for a in argv]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == f"error: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "run", "--config"],
            ["validate", "--catalog"],
            ["model", "estimate", "--trace"],
        ],
        ids=["run-config", "validate-catalog", "estimate-trace"],
    )
    def test_undecodable_bytes_are_parse_error(self, capsys, not_utf8, argv):
        code, out, err = run_cli(capsys, *argv, not_utf8)
        assert code == 1
        assert out == ""
        assert err == f"error: {not_utf8}: not UTF-8 text (byte 0: invalid start byte)\n"

    def test_huge_core_count_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "big.ini"
        path.write_text(SIM_INI.replace("cores = 1", f"cores = {10 ** 11}"))
        code, _, err = run_cli(capsys, "sim", "run", "--config", str(path))
        assert code == 1
        assert "cores must be in [1, 4096]" in err


# ---------------------------------------------------------------------------
# start-up

# Run in a fresh interpreter: the test process itself has imported the
# process pool through other tests.
STARTUP_PROBE = """
import sys
import cstatesim, cstatesim.reporting, cstatesim.cli, cstatesim.demo

def pool_modules():
    return sorted(m for m in sys.modules
                  if m == "logging" or m.startswith(("concurrent", "multiprocessing")))

print(pool_modules())
code = cstatesim.cli.main(["sim", "sweep", "--config", sys.argv[1], "--qps", "1000,3000",
                           "--variants", "baseline,agile", "--jobs", "1"])
print(code, pool_modules())
"""


class TestStartup:
    def test_imports_and_serial_sweep_load_no_process_pool(self, sim_config):
        src = str(Path(__import__("cstatesim").__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, sim_config],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "[]"
        assert lines[-1] == "0 []"


# ---------------------------------------------------------------------------
# parser plumbing


class TestParserPlumbing:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["model", "--help"],
            ["model", "upper-bound", "--help"],
            ["model", "estimate", "--help"],
            ["model", "estimate-aw", "--help"],
            ["sim", "--help"],
            ["sim", "run", "--help"],
            ["sim", "sweep", "--help"],
            ["sim", "demo", "--help"],
            ["fsm", "trace", "--help"],
            ["validate", "--help"],
        ],
    )
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("cstatesim ")

    def test_pyproject_reads_the_package_version(self):
        from setuptools.config.pyprojecttoml import read_configuration
        with warnings.catch_warnings():
            # setuptools 65 warns that any [tool.setuptools] table is beta.
            warnings.filterwarnings("ignore", message=r"Support for .* is still \*beta\*")
            config = read_configuration(Path(__file__).resolve().parents[1] / "pyproject.toml")
        assert config["project"]["version"] == __version__

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        import cstatesim.__main__  # noqa: F401 - import must succeed


class TestParserDefaults:
    """Each optional flag's default is the default of what it sets."""

    def test_fsm_trace_defaults(self, capsys):
        args = build_parser().parse_args(["fsm", "trace", "--flow", "exit", "--variant", "C6A"])
        assert args.mhz == fsm.DEFAULT_CONTROLLER_MHZ
        assert (args.zones, args.zone_ns) == (fsm.StaggerPlan().zones,
                                              fsm.StaggerPlan().per_zone_ns)
        snoop_service = inspect.signature(fsm.snoop_timeline).parameters["service_ns"]
        assert args.service_ns == snoop_service.default == SnoopSpec().service_ns
        with pytest.raises(SystemExit):
            main(["fsm", "trace", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"controller clock (default {fsm.DEFAULT_CONTROLLER_MHZ})" in help_text

    def test_model_estimate_aw_defaults(self):
        args = build_parser().parse_args(["model", "estimate-aw"])
        perf = PerfModel()
        assert (args.freq_penalty, args.scalability, args.delta_ns) == (
            perf.freq_penalty, perf.scalability, perf.delta_transition_ns)

    def test_sim_demo_defaults(self):
        args = build_parser().parse_args(["sim", "demo"])
        params = inspect.signature(demo_sweep).parameters
        assert (args.seed, args.duration) == (params["seed"].default,
                                              params["duration_s"].default)
