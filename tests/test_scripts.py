"""Smoke tests of the comparison tools in scripts/.

diff_results.py and bench_file.py back every claim that a change keeps
reports byte-identical or makes a workload faster, so each is run here
as a command, the way it is used on two checkouts.  The benchmark's
tracer is checked against the names it wraps.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, timeout=120)


def test_diff_results_matches_a_checkout_with_itself():
    src = ROOT / "src"
    proc = script("diff_results.py", src, src, "--configs", 10, "--seed", 3)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("10 configs matched")


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
