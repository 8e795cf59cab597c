import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


def run_file(folder, workload, seed, cpu, rss, *, trace=0, nproc=2):
    """A run file shaped like perfbench/run.py's, with two end-to-end metrics."""
    result = {
        "workload": workload,
        "seed": seed,
        "environment": {"python": "3.11.7", "numpy": "2.4.6", "nproc": nproc, "commit": None},
        "metrics": {"cpu_s": {"value": cpu, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}},
        "samples": {"cpu_s": 9, "peak_rss_mb": 9},
    }
    folder.mkdir(exist_ok=True)
    (folder / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result))


def test_record_pairs_runs_by_seed(tmp_path):
    parent, head, out = tmp_path / "parent", tmp_path / "head", tmp_path / "BENCH.json"
    for seed, (p_cpu, h_cpu) in enumerate([(0.5, 0.3), (0.4, 0.45), (0.6, 0.2)], start=1):
        run_file(parent, "si-er3k", seed, p_cpu, 34.0)
        run_file(head, "si-er3k", seed, h_cpu, 34.0, nproc=4 if seed == 3 else 2)
    run_file(parent, "si-er3k", 4, 0.1, 30.0)  # no head run: left out
    run_file(head, "si-er3k", 1, 9.0, 99.0, trace=1)  # traced: not read
    run_file(parent, "tau-karate", 7, 0.8, 34.0)
    run_file(head, "tau-karate", 7, 0.7, 35.0)
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(head), "--parent-commit", "aaa",
         "--head-commit", "bbb", "--seconds", "40", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == "bench_record: parent run si-er3k seed 4 has no pair; left out\n"
    doc = json.loads(out.read_text())
    assert doc["parent"] == {
        "commit": "aaa", "environment": {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}
    }
    assert doc["head"]["commit"] == "bbb"
    assert doc["head"]["environment"]["nproc"] == [2, 4]
    assert doc["commands"] == [
        f"python3 perfbench/run.py --workload {w} --seed {s} --seconds 40 --trace 0"
        for w, s in [("si-er3k", 1), ("si-er3k", 2), ("si-er3k", 3), ("tau-karate", 7)]
    ]
    si = doc["workloads"]["si-er3k"]
    assert si["seeds"] == [1, 2, 3]
    cpu = si["metrics"]["cpu_s"]
    assert cpu["unit"] == "s"
    assert cpu["parent"] == pytest.approx({"median": 0.5, "q1": 0.45, "q3": 0.55, "runs": 3, "samples": 27})
    assert cpu["head"] == pytest.approx({"median": 0.3, "q1": 0.25, "q3": 0.375, "runs": 3, "samples": 27})
    assert (cpu["head_lower_pairs"], cpu["pairs"]) == (2, 3)
    assert si["metrics"]["peak_rss_mb"]["head_lower_pairs"] == 0  # ties are not lower
    tau = doc["workloads"]["tau-karate"]["metrics"]
    assert tau["cpu_s"]["parent"] == {"median": 0.8, "q1": 0.8, "q3": 0.8, "runs": 1, "samples": 9}
    assert (tau["peak_rss_mb"]["head_lower_pairs"], tau["peak_rss_mb"]["pairs"]) == (0, 1)


def test_record_without_pairs_fails(tmp_path):
    run_file(tmp_path / "parent", "si-er3k", 1, 0.5, 34.0)
    run_file(tmp_path / "head", "si-er3k", 2, 0.5, 34.0)
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "parent"), str(tmp_path / "head"),
         "--parent-commit", "a", "--head-commit", "b", "--seconds", "5", "--out", str(tmp_path / "B.json")],
        capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == "bench_record: no parent run and head run share a workload and a seed"
    assert not (tmp_path / "B.json").exists()
