"""Tests of the benchmark itself: inputs, row check and tracer.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import collections
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import graphs  # noqa: E402
import rowcheck  # noqa: E402
import tracer  # noqa: E402
from spawner import Spawner  # noqa: E402
from workloads import POOL, WORKLOADS  # noqa: E402

KITE = ROOT / "src" / "fldrank" / "datasets" / "kite.edges"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_edge_bytes(name):
    graph = WORKLOADS[name].graph
    assert graph(ROOT, 3) == graph(ROOT, 3)
    if name != "tau-karate":  # karate is fixed; its seed picks the SI stream
        assert graph(ROOT, 3) != graph(ROOT, 4)


def test_generators_have_requested_shape():
    ba = graphs.barabasi_albert(200, 3, seed=1)
    assert len(ba) == 3 + 3 * (200 - 4)
    assert len(set(ba)) == len(ba) and all(u < v for u, v in ba)
    er = graphs.describe(graphs.edge_list_bytes(graphs.erdos_renyi(2000, 6.0, seed=1)))
    assert 5000 < er["edges"] < 7000


def test_relabel_keeps_the_structure():
    edges = graphs.barabasi_albert(300, 2, seed=5)
    moved = graphs.relabel(edges, 300, seed=9)
    assert moved != edges and len(moved) == len(edges)

    def degrees(es):
        return sorted(collections.Counter(u for e in es for u in e).values())

    assert degrees(moved) == degrees(edges)


def _reference(name: str, instance: int = 0) -> tuple[str, dict]:
    entry = json.loads((BENCH / "reference" / f"{name}.json").read_text())["instances"]
    assert sorted(entry, key=int) == [str(i) for i in range(POOL)]
    return entry[str(instance)]["rows"], entry[str(instance)]["graph"]


def _check(name: str, rows: str) -> list[str]:
    reference, graph = _reference(name)
    w = WORKLOADS[name]
    return rowcheck.check_rows(rows, reference, w.schema, graph["n"], w.argv)


def _perturb(rows: str, line: int, column: int, new: str) -> str:
    lines = rows.split("\n")
    cells = lines[line].split(",")
    cells[column] = new
    lines[line] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_rows_pass_their_own_check(name):
    assert _check(name, _reference(name)[0]) == []


@pytest.mark.parametrize(
    "name, line, column",
    [
        ("structure-ba2k", 2, 3),  # integer overlap
        ("structure-ba2k", 2, 1),  # measure label
        ("tau-karate", 3, 1),  # float tau
        ("tau-karate", 3, 2),  # integer n_c
        ("si-er3k", 5, 1),  # float mean_F
    ],
)
def test_row_check_rejects_a_perturbed_row(name, line, column):
    rows = _reference(name)[0]
    cell = rows.split("\n")[line].split(",")[column]
    if column == 1 and name == "structure-ba2k":
        new = "xx"
    elif "." in cell:
        new = f"{float(cell) + 2e-6:.6f}"
    else:
        new = str(int(cell) + 1)
    assert _check(name, _perturb(rows, line, column, new))


def test_row_check_tolerates_float_noise_below_tolerance():
    rows = _reference("tau-karate")[0]
    cell = rows.split("\n")[3].split(",")[1]
    noisy = _perturb(rows, 3, 1, f"{float(cell) + 5e-7:.7f}")
    assert _check("tau-karate", noisy) == []


def test_invariants_catch_what_the_reference_shares():
    # the same broken rows as output and as reference: only invariants can fail
    overlap = "measure_a,measure_b,k,overlap\na,a,5,5\na,b,5,3\nb,a,5,2\nb,b,5,4\n"
    problems = rowcheck.check_rows(overlap, overlap, "overlap", 10, ("compare", "--k", "5"))
    assert any("diagonal b,b" in p for p in problems)
    assert any("overlap a,b=3 but b,a=2" in p for p in problems)
    traj = "t,mean_F,std_F\n0,2.000000,0.000000\n1,5.000000,1.0\n2,4.000000,1.0\n3,11.0,0.0\n"
    problems = rowcheck.check_rows(traj, traj, "trajectory", 10, ("si", "--top", "2"))
    assert any("decreases" in p for p in problems) and any("exceeds" in p for p in problems)
    tau = "lambda,tau,n_c,n_d\n0.1,1.5,44,2\n"
    problems = rowcheck.check_rows(tau, tau, "tau", 10, ("tau",))
    assert any("|tau|" in p for p in problems) and any("C(10,2)" in p for p in problems)


def test_a_crashed_or_wrong_run_fails_its_check(tmp_path):
    import bench

    rows, graph = _reference("tau-karate")
    inp = bench.Input(WORKLOADS["tau-karate"], 0, tmp_path / "g", graph, rows, tmp_path)
    rows_path = tmp_path / "rows.csv"
    Path(f"{rows_path}.manifest.json").write_text(json.dumps({"input": {"sha256": graph["sha256"]}}))
    tally = bench.Tally()

    def run(code: int, text: str) -> bool:
        rows_path.write_text(text)
        return bench.check_run(inp, bench.Child(code, 1.0, 1.0, 1.0, "", ""), rows_path, tally, "r")

    assert run(0, rows)
    assert not run(3, rows)
    assert not run(0, _perturb(rows, 2, 2, "0"))
    assert (tally.attempted, tally.failed) == (3, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--k", "3"],
        ["tau", "--measure", "fld", "--lambda-range", "0.1:0.2:0.1", "--replicates", "5"],
        ["si", "--top", "2", "--measure", "dc", "--beta", "2", "--replicates", "5"],
    ],
    ids=["compare", "tau", "si"],
)
def test_traced_self_times_sum_to_root_span(tmp_path, argv):
    cli_args = [argv[0], "--input", str(KITE), "--out", str(tmp_path / "rows.csv"), *argv[1:]]
    report = tracer.traced_main(cli_args)
    assert report["exit"] == 0 and report["missing"] == []
    seconds = {k: v for k, v in report["metrics"].items() if k.endswith("_s")}
    assert report["root_s"] > 0
    assert sum(seconds.values()) == pytest.approx(report["root_s"], rel=1e-9, abs=1e-12)
    assert all(v >= 0 for v in seconds.values())
    assert report["metrics"]["graph.parse_s"] > 0
    if argv[0] != "compare":
        assert report["metrics"]["si.step_calls"] > 0
        assert report["metrics"]["si.replicates"] > 0


def test_tracing_is_undone_after_the_run(tmp_path):
    import fldrank.cli
    import fldrank.si

    before = (fldrank.cli.main, fldrank.si.si_step, fldrank.graph.Graph.build)
    tracer.traced_main(["compare", "--input", str(KITE), "--out", str(tmp_path / "r.csv")])
    assert (fldrank.cli.main, fldrank.si.si_step, fldrank.graph.Graph.build) == before


def test_spawner_keeps_the_benchmarks_memory_out_of_child_peak_rss(tmp_path):
    # a child spawned straight from this process would report at least
    # its peak, ballast included
    with Spawner() as spawner:
        ballast = bytearray(150 * 1024 * 1024)
        ballast[::4096] = b"\1" * len(ballast[::4096])
        code, _, _, rss_mb = spawner.run(
            [sys.executable, "-c", "pass"], None, tmp_path, tmp_path / "o", tmp_path / "e", 60
        )
        del ballast
    assert code == 0
    assert rss_mb < 140
