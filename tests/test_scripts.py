"""Smoke tests of the comparison tools in scripts/.

diff_results.py and bench_file.py back every claim that a change keeps
reports byte-identical or makes a workload faster, so each is run here
as a command, the way it is used on two checkouts.  bench_pairs.py,
which makes the benchmark runs, is run with a stub in place of the
benchmark.  The benchmark's tracer is checked against the names it wraps.
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
    assert rows and all(row.split()[1].startswith(".document.results.points[*].")
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
    # which only the traces of the configs drawn there show.
    mutant = mutant_src(tmp_path, old, new)
    proc = script("diff_results.py", ROOT / "src", mutant, "--configs", 40, "--seed", 1)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    first, _, _, *rows = proc.stdout.splitlines()
    assert huge_stream(json.loads(first.split(": ", 1)[1]))
    assert [row.split()[1] for row in rows] == [".trace_sha256"]


def write_runs(out_dir: Path, values: dict) -> None:
    """perfbench/out-style result copies: every metric of a run at seed s is values[s]."""
    out_dir.mkdir()
    for workload in BENCHMARK["workloads"]:
        for seed, value in values.items():
            doc = {"correct": True, "attempted": 6, "failed": 0,
                   "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                               for m in BENCHMARK["end_to_end"]}}
            (out_dir / f"{workload['name']}-seed{seed}-trace0.json").write_text(json.dumps(doc))
        # A traced copy is not an end-to-end run and is skipped.
        (out_dir / f"{workload['name']}-seed1-trace1.json").write_text("{}")


def test_bench_file_medians_and_paired_wins(tmp_path):
    # The change reads lower than the parent at four of the five paired
    # seeds; seed 6 has no parent run, so it is not a pair.
    write_runs(tmp_path / "parent", {s: 10.0 + s for s in range(1, 6)})
    write_runs(tmp_path / "change", {1: 10.5, 2: 11.5, 3: 14.0, 4: 13.5, 5: 14.5, 6: 0.0})
    out = tmp_path / "BENCH.json"
    proc = script("bench_file.py", tmp_path / "parent", tmp_path / "change",
                  "--out", out, "--note", "synthetic")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
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


def test_bench_file_needs_a_pair_for_every_workload(tmp_path):
    write_runs(tmp_path / "parent", {1: 1.0})
    (tmp_path / "change").mkdir()
    proc = script("bench_file.py", tmp_path / "parent", tmp_path / "change",
                  "--out", tmp_path / "BENCH.json")
    assert proc.returncode == 1
    assert proc.stderr.startswith("no paired runs for")
    assert not (tmp_path / "BENCH.json").exists()


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
