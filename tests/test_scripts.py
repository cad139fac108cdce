"""Smoke tests of the comparison tools in scripts/.

diff_results.py and bench_pairs.py back every claim that a change keeps
reports byte-identical or makes a workload faster.  diff_results.py is
run here as a command, the way it is used on two checkouts.
bench_pairs.py, which makes the benchmark runs and writes the bench
file, is run with a stub in place of the benchmark, and its summary on
in-memory runs.  The benchmark's set-up probe is run on this checkout,
and its tracer is checked against the names it wraps.
"""

import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def diff_results_module():
    spec = importlib.util.spec_from_file_location("diff_results", SCRIPTS / "diff_results.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mutant_src(tmp_path, old: str, new: str) -> Path:
    """A copy of src/ with one line of sim.py replaced."""
    mutant = tmp_path / "src"
    shutil.copytree(ROOT / "src", mutant, ignore=shutil.ignore_patterns("__pycache__"))
    sim_py = mutant / "cstatesim" / "sim.py"
    text = sim_py.read_text()
    assert text.count(old) == 1
    sim_py.write_text(text.replace(old, new))
    return mutant


def test_diff_results_matches_a_checkout_with_itself():
    src = ROOT / "src"
    proc = script("diff_results.py", src, src, "--configs", 10, "--seed", 3)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("10 configs matched")


def test_diff_results_counts_every_differing_key_path(tmp_path):
    # A copy whose network RTT is 1 ns longer moves every latency figure
    # of every config that completes a request, and nothing else.  The
    # first differing config is printed whole, so it can be rerun.
    line = "    rtt_ns = round(config.network_rtt_us * 1000)\n"
    mutant = mutant_src(tmp_path, line, line.replace(")\n", ") + 1\n"))
    proc = script("diff_results.py", ROOT / "src", mutant, "--configs", 20, "--seed", 3)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first, value, header, *rows = proc.stdout.splitlines()
    prefix, description = first.split(": ", 1)
    assert prefix.startswith("config ") and prefix.endswith(" differs")
    assert set(json.loads(description)) >= {"cores", "seed", "network_rtt_us"}
    assert value.startswith(".document.results.latency_us.") and " != " in value
    differing = int(header.split()[0])
    assert 0 < differing <= 20 and header.endswith("configs differ; configs per key path:")
    counts = {row.split()[1]: int(row.split()[0]) for row in rows}
    assert counts == {f".document.results.latency_us.{key}": differing
                      for key in ("mean", "p50", "p95", "p99", "p999")}


def test_diff_results_sweeps_catch_a_run_that_writes_its_service_times(tmp_path):
    # A copy whose run adds 1 us to every service time it was given,
    # after its loop.  A stand-alone run converts its own array and drops
    # it, so every run config matches; only a sweep's second variant at a
    # shared inflation replays the written array, and differs.
    configs, seed = 40, 3
    rng = random.Random(seed)
    drawn = [diff_results_module().random_config(rng) for _ in range(configs)]
    sweeps = sum(d["sweep"] is not None for d in drawn)
    assert sweeps >= 1
    line = "    del arrivals, services  # drop a run's own draws before the sort\n"
    mutant = mutant_src(tmp_path, line, "    for k, s in enumerate(services):\n"
                                        "        services[k] = s + 1000\n" + line)
    proc = script("diff_results.py", ROOT / "src", mutant, "--configs", configs, "--seed", seed)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first, value, header, *rows = proc.stdout.splitlines()
    assert '"sweep": {' in first
    assert value.startswith(".document.results.points[")
    assert 1 <= int(header.split()[0]) <= sweeps
    assert rows and all(row.split()[1].startswith((".document.results.points[*].",
                                                   ".full_precision[*]."))
                        for row in rows)


def test_diff_results_a_null_key_differs_from_an_absent_one():
    # A key that one side writes as null and the other lacks is a
    # difference, so a pair of outcomes that compare unequal always
    # yields a first differing key path.
    differences = diff_results_module().differences
    parent = {"document": {"config": {"cores": 2, "old_key": None}}}
    change = {"document": {"config": {"cores": 2}}}
    assert [(path, repr(a), repr(b)) for path, a, b in differences(parent, change)] == [
        (".document.config.old_key", "None", "<absent>")]
    assert [path for path, _, _ in differences(change, parent)] == [".document.config.old_key"]
    assert list(differences(parent, parent)) == []


def test_diff_results_max_requests_sizes_the_configs():
    # The default keeps every config under 3,000 expected requests; the
    # knob lets them reach past 10k, across chunks of 4096 draws.
    diff_results = diff_results_module()

    def expected_requests(max_requests):
        rng = random.Random(5)
        configs = [diff_results.random_config(rng, max_requests) for _ in range(300)]
        return [c["arrival"]["rate_qps"] * c["duration_s"] for c in configs]

    assert max(expected_requests(diff_results.MAX_REQUESTS)) <= 3000 * (1 + 1e-9)
    assert max(expected_requests(20_000)) > 10_000
    src = ROOT / "src"
    proc = script("diff_results.py", src, src, "--configs", 3, "--max-requests", 20_000)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("3 configs matched")
    proc = script("diff_results.py", src, src, "--max-requests", 0)
    assert proc.returncode == 2 and "--max-requests" in proc.stderr


def huge_stream(config: dict):
    """Which stream of a diff_results config is drawn past 2**52 ns, if any."""
    if config["duration_s"] < 1e6:
        return None
    if config["service"]["mean_us"] * 1e3 > 2 ** 51:
        return "service"
    return "snoop" if config["snoop"]["rate_per_core_hz"] > 0 else "arrival"


def test_diff_results_draws_values_past_2_52_ns():
    # About one config in twenty takes one stream past 2**52 ns, over a
    # horizon of up to 1e9 s, traced, not swept and with no other
    # snoops; the arrival rates cross the chunked Poisson draw's bound
    # of about 9e-6 qps.
    diff_results = diff_results_module()
    rng = random.Random(0)
    configs = [diff_results.random_config(rng) for _ in range(1000)]
    huge = [c for c in configs if huge_stream(c)]
    assert 25 <= len(huge) <= 80
    assert {huge_stream(c) for c in huge} == set(diff_results.HUGE_STREAMS)
    for c in huge:
        assert c["duration_s"] <= 1e9 and c["trace"] and c["sweep"] is None
        assert c["arrival"]["process"] == "poisson"
        snoop_hz = c["snoop"]["rate_per_core_hz"]
        if huge_stream(c) == "snoop":
            assert 1e9 / snoop_hz > 2 ** 52 / 10 and {"C6A", "C6AE"} & set(c["cstates_enabled"])
        else:
            assert snoop_hz == 0
    rates = [c["arrival"]["rate_qps"] for c in huge if huge_stream(c) == "arrival"]
    assert min(rates) < 1e9 / 2 ** 52 and max(rates) > 40 * 1e9 / 2 ** 52
    assert all(c["duration_s"] < 1e6 for c in configs if not huge_stream(c))


@pytest.mark.parametrize("old, new", [
    # the service conversion's fallback one ns high
    ("(floor(y + m - m) if y < m else floor(y)) or 1",
     "(floor(y + m - m) if y < m else floor(y) + 1) or 1"),
    # the generic arrival loop without its fallback
    ("cand = t + ((floor(gap + m - m) if gap < m else floor(gap)) or 1)",
     "cand = t + (floor(gap + m - m) or 1)"),
    # the chunked Poisson draw's old rate bound, which lets gaps past
    # 2**52 ns into its branch-free rounding
    ("40.0 / on_rate * 1e9 < m:", "40.0 / on_rate * 1e9 < 1e300:"),
])
def test_diff_results_catches_a_fault_past_2_52_ns(tmp_path, old, new):
    # Each fault moves only values past 2**52 ns, by a few ns at most,
    # which only the traces of the configs drawn there show, and at
    # times the full-precision energy and power; no document key.
    mutant = mutant_src(tmp_path, old, new)
    proc = script("diff_results.py", ROOT / "src", mutant, "--configs", 40, "--seed", 1)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first, _, _, *rows = proc.stdout.splitlines()
    assert huge_stream(json.loads(first.split(": ", 1)[1]))
    paths = [row.split()[1] for row in rows]
    assert ".trace_sha256" in paths
    assert set(paths) <= {".trace_sha256", ".full_precision[*].energy_j",
                          ".full_precision[*].avg_power_w"}


def test_diff_results_compares_energy_and_power_at_full_precision(tmp_path):
    # Dividing by 1e12 instead of multiplying by 1e-12 moves the energy
    # by about one ulp at times: nothing that a document's 6 digits, a
    # trace or a latency shows, so only the full-precision keys differ.
    line = "    energy_j = energy_pj * 1e-12\n"
    mutant = mutant_src(tmp_path, line, "    energy_j = energy_pj / 1e12\n")
    proc = script("diff_results.py", ROOT / "src", mutant, "--configs", 40, "--seed", 3)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    _, value, header, *rows = proc.stdout.splitlines()
    assert value.startswith(".full_precision[")
    differing = int(header.split()[0])
    assert {row.split()[1]: int(row.split()[0]) for row in rows} == {
        ".full_precision[*].energy_j": differing, ".full_precision[*].avg_power_w": differing}


def bench_runs(values: dict) -> dict:
    """Result documents of every workload: every metric of a run at seed s is values[s]."""
    return {w["name"]: {seed: {"correct": True, "attempted": 6, "failed": 0,
                               "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                                           for m in BENCHMARK["end_to_end"]}}
                        for seed, value in values.items()}
            for w in BENCHMARK["workloads"]}


def test_bench_pairs_medians_and_paired_wins(monkeypatch):
    # The change reads lower than the parent at four of the five paired
    # seeds; seed 6 has no parent run, so it is not a pair.
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    doc = bench_pairs.bench_document(
        bench_runs({s: 10.0 + s for s in range(1, 6)}),
        bench_runs({1: 10.5, 2: 11.5, 3: 14.0, 4: 13.5, 5: 14.5, 6: 0.0}), "synthetic")
    assert doc["note"] == "synthetic"
    assert sorted(doc["workloads"]) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for summary in doc["workloads"].values():
        assert summary["seeds"] == [1, 2, 3, 4, 5]
        assert summary["rounds"]["parent"] == {"attempted": 30, "failed": 0, "all_correct": True}
        assert sorted(summary["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
        for metric in BENCHMARK["end_to_end"]:
            m = summary["metrics"][metric["name"]]
            assert m["parent"] == {"median": 13.0, "q1": 12.0, "q3": 14.0, "runs": 5}
            assert m["change"]["median"] == 13.5
            assert m["parent_quartile_distance"] == 2.0
            assert m["median_change"] == 13.5 / 13.0 - 1.0
            assert m["change_wins"] == (4 if metric["better"] == "lower" else 1)
            assert (m["pairs"], m["bound"]) == (5, metric["bound"])
            # The parent's quartile distance, 2.0, against the bound's allowance.
            expected = "unresolved" if 2.0 > metric["bound"] * 13.0 else "no_regression"
            assert m["verdict"] == expected


STEADY = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


@pytest.mark.parametrize("better, before, after, expected", [
    # Ten of ten pairs won, by more than the parent's quartile distance.
    ("lower", STEADY, [9.0] * 10, "gain"),
    ("higher", STEADY, [11.0] * 10, "gain"),
    # Eight wins and two ties: ties count for neither side.
    ("lower", [10.0] * 10, [9.0] * 8 + [10.0] * 2, "no_regression"),
    # The median 30 % worse, beyond the 20 % bound.
    ("lower", STEADY, [13.0] * 10, "worse"),
    ("higher", STEADY, [7.0] * 10, "worse"),
    # Inside the bound, with the parent's spread far wider than it.
    ("lower", [5.0, 10.0, 15.0] * 3 + [10.0], [10.0] * 10, "unresolved"),
    # As wide a parent spread, but every change run beats every parent run.
    ("lower", [10.0] * 7 + [30.0, 40.0, 50.0], [9.0] * 10, "no_regression"),
    ("lower", STEADY, [10.5] * 10, "no_regression"),
])
def test_bench_pairs_verdicts(monkeypatch, better, before, after, expected):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    def runs(values):
        return {seed: {"correct": True, "attempted": 6, "failed": 0,
                       "metrics": {"m": {"value": value, "unit": "s"}}}
                for seed, value in enumerate(values, 1)}

    metric = {"name": "m", "unit": "s", "better": better, "bound": 0.2}
    summary = bench_pairs.summarise(runs(before), runs(after), [metric])
    assert summary["metrics"]["m"]["verdict"] == expected


def test_bench_pairs_refuses_a_root_that_is_not_a_checkout(tmp_path):
    missing = tmp_path / "nonexistent"
    out = tmp_path / "BENCH.json"
    proc = script("bench_pairs.py", missing, ROOT, "--pairs", 1, "--seconds", 1,
                  "--seed-base", 0, "--out", out)
    assert proc.returncode == 1
    assert str(missing) in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_bench_pairs_alternates_sides_on_consecutive_seeds(tmp_path, monkeypatch, capsys):
    # A stub runner stands in for perfbench/run.py: it records each
    # command with its checkout and writes the result copy a run leaves.
    # Seed 42 of sweep-demo fails a round on both sides and still pairs.
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    parent, change = tmp_path / "parent", tmp_path / "change"
    calls = []

    def runner(command, cwd):
        calls.append((cwd, command))
        seed = int(command[command.index("--seed") + 1])
        workload = command[command.index("--workload") + 1]
        failed = int(workload == "sweep-demo" and seed == 42)
        doc = {"correct": not failed, "attempted": 6, "failed": failed,
               "metrics": {m["name"]: {"value": 1.0 if cwd == parent else 0.9, "unit": m["unit"]}
                           for m in BENCHMARK["end_to_end"]}}
        out = cwd / "perfbench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(doc))
        return failed

    doc = bench_pairs.run_pairs(parent, change, pairs=3, seconds=2.5, seed_base=40,
                                note="stub", runner=runner)
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    expected = []
    for seed, order in ((41, (parent, change)), (42, (change, parent)), (43, (parent, change))):
        for workload in workloads:
            expected += [(root, BENCHMARK["command"] + [
                "--workload", workload, "--seed", str(seed), "--seconds", "2.5", "--trace", "0"])
                for root in order]
    assert calls == expected
    assert doc["note"] == "stub"
    for workload, summary in doc["workloads"].items():
        assert summary["seeds"] == [41, 42, 43]
        failed = [42] if workload == "sweep-demo" else []
        assert summary["failed_seeds"] == {"parent": failed, "change": failed}
        assert summary["metrics"]["wall_s"]["change_wins"] == 3
    assert "sweep-demo seed 42: a round failed on parent and change" in capsys.readouterr().err


def test_bench_pairs_stops_at_a_run_that_leaves_no_result(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_pairs

    with pytest.raises(RuntimeError, match="exit 2"):
        bench_pairs.run_pairs(tmp_path, tmp_path, pairs=1, seconds=1.0, seed_base=0, note="",
                              runner=lambda command, cwd: 2)


def test_perfbench_set_up_probe_runs_on_this_checkout():
    # The set-up probe reads cstatesim.default_catalog at package level,
    # so dropping it from the package fails here rather than in every
    # benchmark run.
    proc = subprocess.run(
        [sys.executable, "perfbench/setup_probe.py", "--workload", "sim-steady", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert {"import_s", "setup_s"} <= set(json.loads(proc.stdout.splitlines()[-1]))


def test_perfbench_tracer_resolves_every_wrapped_name(monkeypatch):
    # The traced benchmark run wraps each (module, attribute) pair in
    # tracer.TARGETS by name, so a name dropped from cstatesim fails here
    # rather than in every benchmark run.  The block restores them all.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    with tracer.Tracer().installed():
        pass
    for attrs in tracer.TARGETS.values():
        for module, attr in attrs:
            assert getattr(module, attr).__name__ != "traced"
