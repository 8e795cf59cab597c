import hashlib
import json
import re
from pathlib import Path

import pytest

import fldrank.cli
import fldrank.graph
from fldrank.cli import build_parser, main
from fldrank.datasets import karate_path, kite_path

FLOAT6 = re.compile(r"^-?\d+\.\d{6}$")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(csv_text):
    lines = csv_text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_rank_kite_fld(capsys):
    code, out, _ = run(capsys, ["rank", "--input", str(kite_path()), "--measure", "fld"])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["rank", "node", "score", "undefined"]
    assert rows[0][:2] == ["1", "4"]
    assert len(rows) == 10
    for row in rows:
        assert FLOAT6.match(row[2])
        assert row[3] in ("0", "1")


def test_rank_kite_dc_rank1(capsys):
    code, out, _ = run(capsys, ["rank", "--input", str(kite_path()), "--measure", "dc"])
    assert code == 0
    _, rows = rows_of(out)
    assert rows[0][1] == "7"


def test_rank_empty_graph(tmp_path, capsys):
    empty = tmp_path / "empty.edges"
    empty.write_text("# nothing here\n")
    code, out, _ = run(capsys, ["rank", "--input", str(empty), "--measure", "dc"])
    assert code == 0
    assert out == "rank,node,score,undefined\n"


def test_rank_json_mirrors_csv(tmp_path, capsys):
    code, out_csv, _ = run(capsys, ["rank", "--input", str(kite_path()), "--measure", "ld"])
    assert code == 0
    code, out_json, _ = run(
        capsys,
        ["rank", "--input", str(kite_path()), "--measure", "ld", "--output", "json"],
    )
    assert code == 0
    header, rows = rows_of(out_csv)
    data = json.loads(out_json)
    assert [list(entry.keys()) for entry in data] == [header] * len(rows)
    for row, entry in zip(rows, data):
        assert entry["rank"] == int(row[0])
        assert entry["node"] == row[1]
        assert entry["score"] == pytest.approx(float(row[2]), abs=1e-6)
        assert entry["undefined"] == int(row[3])


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--input", str(kite_path()), "--measure", "fld"],
        ["si", "--input", str(karate_path()), "--seeds", "1,34", "--lambda", "0.2", "--replicates", "5"],
        [
            "tau", "--input", str(karate_path()), "--measure", "ld",
            "--lambda-range", "0.05:0.1:0.05", "--replicates", "5",
        ],
        ["compare", "--input", str(kite_path()), "--k", "3"],
    ],
    ids=["rank", "si", "tau", "compare"],
)
def test_json_mirrors_csv_cell_for_cell(argv, capsys):
    code, out_csv, _ = run(capsys, argv)
    assert code == 0
    code, out_json, _ = run(capsys, [*argv, "--output", "json"])
    assert code == 0
    header, rows = rows_of(out_csv)
    data = json.loads(out_json)
    assert [list(entry) for entry in data] == [header] * len(rows)
    for row, entry in zip(rows, data):
        # labels stay strings; every other cell is a JSON number
        assert [isinstance(v, str) for v in entry.values()] == [
            key in ("node", "measure_a", "measure_b") for key in entry
        ]
        assert [f"{v:.6f}" if isinstance(v, float) else str(v) for v in entry.values()] == row


def test_unknown_measure_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--input", str(kite_path()), "--measure", "pagerank"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "--measure", "dc"],
        ["si", "--seeds", "1", "--lambda", "0.5"],
        ["tau", "--measure", "fld"],
        ["compare"],
    ],
    ids=lambda argv: argv[0],
)
def test_missing_input_file(argv, capsys, tmp_path):
    missing = tmp_path / "missing.edges"
    code, out, err = run(capsys, [argv[0], "--input", str(missing), *argv[1:]])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(missing) in err


def test_malformed_input_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    for text, message in [
        ("1 2\n1 2 3\n", "line 2: expected 2 labels, got 3: '1 2 3'"),
        ("1 2\r\n1 2 3\r\n", "line 2: expected 2 labels, got 3: '1 2 3'"),
        # a form feed or U+2028 does not end the comment line, so "3" is on line 3
        ("# note\fmore\n1 2\n3\n", "line 3: expected 2 labels, got 1: '3'"),
        ("1 2\n# a\u2028b\n3\n", "line 3: expected 2 labels, got 1: '3'"),
    ]:
        bad.write_bytes(text.encode("utf-8"))
        code, _, err = run(capsys, ["rank", "--input", str(bad), "--measure", "dc"])
        assert code == 1
        assert message in err


def test_non_utf8_input_is_one_clean_error_line(tmp_path, capsys):
    bad = tmp_path / "latin1.edges"
    bad.write_bytes(b"\xffa b\n")
    code, out, err = run(capsys, ["rank", "--input", str(bad), "--measure", "dc"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_si_wavefront(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "si",
            "--input", str(kite_path()),
            "--seeds", "7",
            "--lambda", "1",
            "--replicates", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    header, rows = rows_of(out.read_text())
    assert header == ["t", "mean_F", "std_F"]
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert [row[1] for row in rows] == ["1.000000", "7.000000", "8.000000", "9.000000", "10.000000"]
    assert all(row[2] == "0.000000" for row in rows)
    manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert manifest["command"] == "si"
    assert manifest["params"]["lambda"] == 1.0
    assert manifest["params"]["seeds"] == ["7"]


def test_si_zero_rate_constant_column(capsys):
    code, out, _ = run(
        capsys,
        ["si", "--input", str(kite_path()), "--seeds", "7,8", "--lambda", "0", "--replicates", "2"],
    )
    assert code == 0
    _, rows = rows_of(out)
    assert len({row[1] for row in rows}) == 1


def test_si_unknown_seed_label_names_it(capsys):
    code, _, err = run(
        capsys,
        ["si", "--input", str(kite_path()), "--seeds", "99", "--lambda", "0.5"],
    )
    assert code == 1
    assert "'99'" in err


def test_si_beta_and_lambda_are_mutually_exclusive():
    base = ["si", "--input", str(kite_path()), "--seeds", "7"]
    with pytest.raises(SystemExit) as exc:
        main(base + ["--beta", "3", "--lambda", "0.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(base)
    assert exc.value.code == 2


def test_si_beta_converts_and_records_both(tmp_path):
    out = tmp_path / "t.csv"
    code = main(
        [
            "si",
            "--input", str(kite_path()),
            "--seeds", "7",
            "--beta", "3",
            "--replicates", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert manifest["params"]["beta"] == 3.0
    assert manifest["params"]["lambda"] == 0.125


def test_si_top_seeds_require_measure(capsys, tmp_path):
    # the input does not exist: the arguments must be rejected before it is read
    with pytest.raises(SystemExit) as exc:
        main(["si", "--input", str(tmp_path / "missing.edges"), "--top", "3", "--lambda", "0.5"])
    assert exc.value.code == 2
    assert "--top requires --measure" in capsys.readouterr().err


def test_si_top_beyond_node_count_names_both(capsys):
    argv = ["si", "--input", str(kite_path()), "--top", "11", "--measure", "dc", "--lambda", "0.5"]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "error: --top 11 exceeds node count 10\n"


def test_si_top_seeds_from_measure(tmp_path):
    out = tmp_path / "t.csv"
    code = main(
        [
            "si",
            "--input", str(kite_path()),
            "--top", "3",
            "--measure", "fld",
            "--lambda", "0.5",
            "--replicates", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    # the top 3 by fld are 4, 5, 7; the manifest lists them in node-ID order
    assert manifest["params"]["seeds"] == ["5", "7", "4"]


def test_tau_single_cell_range(capsys):
    code, out, _ = run(
        capsys,
        [
            "tau",
            "--input", str(kite_path()),
            "--measure", "dc",
            "--lambda-range", "0.1:0.1:0.1",
            "--t-eval", "3",
            "--replicates", "5",
        ],
    )
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["lambda", "tau", "n_c", "n_d"]
    assert len(rows) == 1
    assert rows[0][0] == "0.100000"
    assert -1.0 <= float(rows[0][1]) <= 1.0


def test_tau_rejects_bad_range():
    with pytest.raises(SystemExit) as exc:
        main(["tau", "--input", str(kite_path()), "--measure", "dc", "--lambda-range", "nope"])
    assert exc.value.code == 2


def test_compare_full_k_is_all_nodes(capsys):
    code, out, _ = run(capsys, ["compare", "--input", str(kite_path()), "--k", "10"])
    assert code == 0
    header, rows = rows_of(out)
    assert header == ["measure_a", "measure_b", "k", "overlap"]
    assert len(rows) == 36
    assert all(row[3] == "10" for row in rows)


def test_compare_k_beyond_node_count_fails_before_any_measure(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(fldrank.cli, "compute_measure", lambda g, m: calls.append(m))
    code, out, err = run(capsys, ["compare", "--input", str(kite_path()), "--k", "11"])
    assert code == 1
    assert out == ""
    assert err == "error: --k 11 exceeds node count 10\n"
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--k", "0"],
        ["si", "--top", "-3", "--measure", "dc", "--lambda", "0.5"],
        ["si", "--seeds", "7", "--lambda", "0.5", "--replicates", "0"],
        ["tau", "--measure", "dc", "--replicates", "-1"],
        ["tau", "--measure", "dc", "--t-eval", "0"],
    ],
)
def test_non_positive_counts_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--input", str(kite_path()), *argv[1:]])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["si", "--seeds", "7", "--lambda", "0.5", "--rng-seed", "-1"],
        ["si", "--seeds", "7", "--lambda", "0.5", "--max-steps", "-2"],
        ["tau", "--measure", "dc", "--rng-seed", "-5"],
    ],
)
def test_negative_seeds_and_step_caps_are_usage_errors(argv, capsys, tmp_path):
    # the input does not exist: the arguments must be rejected before it is read
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--input", str(tmp_path / "missing.edges"), *argv[1:]])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        # the non-finite grids used to loop forever, growing a list
        (["tau", "--measure", "dc", "--lambda-range=nan:0.1:0.05"], "expected finite"),
        (["tau", "--measure", "dc", "--lambda-range=0.01:inf:0.01"], "expected finite"),
        (["tau", "--measure", "dc", "--lambda-range=-inf:0.1:0.01"], "expected finite"),
        (["tau", "--measure", "dc", "--lambda-range=0.01:0.1:nan"], "expected finite"),
        (["tau", "--measure", "dc", "--lambda-range=inf:inf:1"], "expected finite"),
        (["tau", "--measure", "dc", "--lambda-range", "0:0.1:0.05"], "must lie in (0, 1]"),
        (["tau", "--measure", "dc", "--lambda-range", "0.5:1.5:0.5"], "must lie in (0, 1]"),
        (["si", "--seeds", "7", "--lambda", "nan"], "must lie in [0, 1]"),
        (["si", "--seeds", "7", "--lambda", "1.5"], "must lie in [0, 1]"),
        (["si", "--seeds", "7", "--lambda", "-0.1"], "must lie in [0, 1]"),
        (["si", "--seeds", "7", "--beta", "nan"], "must lie in [0, inf]"),
        (["si", "--seeds", "7", "--beta", "-1"], "must lie in [0, inf]"),
        # about 9e11 rates: rejected once the grid reaches the cap
        (["tau", "--measure", "dc", "--lambda-range", "0.1:1:1e-12"], "at most 1000 rates"),
        (["tau", "--measure", "dc", "--lambda-range", "0.0005:1:0.0005"], "at most 1000 rates"),
        # 105 rates, of which only 11 differ once rounded to 10 decimals
        (["tau", "--measure", "dc", "--lambda-range", "0.1:0.1:1e-11"], "rates repeat"),
        (["tau", "--measure", "dc", "--lambda-range", "0.1:0.5:0"], "need step > 0"),
        (["tau", "--measure", "dc", "--lambda-range", "0.1:0.5:-0.1"], "need step > 0"),
        (["tau", "--measure", "dc", "--lambda-range", "0.5:0.1:0.1"], "start <= stop"),
    ],
)
def test_bad_rates_are_usage_errors(argv, message, capsys, tmp_path):
    # the input does not exist: the arguments must be rejected before it is read
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--input", str(tmp_path / "missing.edges"), *argv[1:]])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_longest_rate_grid_keeps_its_values(tmp_path):
    argv = ["tau", "--input", str(tmp_path / "missing.edges"), "--measure", "dc"]
    args = build_parser().parse_args([*argv, "--lambda-range", "0.001:1:0.001"])
    assert args.lambda_range == [round(0.001 + k * 0.001, 10) for k in range(1000)]


@pytest.mark.parametrize("measures", [",", "", ",,"])
def test_empty_measure_list_is_a_usage_error(measures, capsys, tmp_path):
    # the input does not exist: the arguments must be rejected before it is read
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--input", str(tmp_path / "missing.edges"), f"--measures={measures}"])
    assert exc.value.code == 2
    assert "expected at least one measure" in capsys.readouterr().err


def test_non_decimal_digit_labels_rank_as_text(tmp_path, capsys):
    # '²' is a digit to str.isdigit() but not a number to int()
    edges = tmp_path / "sup.edges"
    edges.write_bytes("1 \u00b2\n\u00b2 3\n3 1\n".encode("utf-8"))
    code, out, _ = run(capsys, ["rank", "--input", str(edges), "--measure", "dc"])
    assert code == 0
    assert [row[1] for row in rows_of(out)[1]] == ["1", "3", "\u00b2"]


def test_infinite_beta_is_rate_zero(capsys):
    base = ["si", "--input", str(kite_path()), "--seeds", "7,8", "--replicates", "2"]
    code, out_beta, _ = run(capsys, [*base, "--beta", "inf"])
    assert code == 0
    code, out_lambda, _ = run(capsys, [*base, "--lambda", "0"])
    assert code == 0
    assert out_beta == out_lambda


def test_compare_on_a_long_path_exits_0(tmp_path, capsys):
    # power iteration stalls on ec here; the Lanczos finish converges
    path = tmp_path / "path300.edges"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(299)))
    code, out, err = run(capsys, ["compare", "--input", str(path)])
    assert code == 0, err
    assert len(rows_of(out)[1]) == 36


def test_zero_seed_and_step_cap_are_accepted(capsys):
    code, out, _ = run(
        capsys,
        ["si", "--input", str(kite_path()), "--seeds", "7", "--lambda", "0.5",
         "--rng-seed", "0", "--max-steps", "0", "--replicates", "2"],
    )
    assert code == 0
    assert rows_of(out)[1] == [["0", "1.000000", "0.000000"]]


def test_compare_runs_one_all_sources_pass(monkeypatch, capsys):
    real = fldrank.graph.all_distance_fields
    calls = []

    def spy(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(fldrank.graph, "all_distance_fields", spy)
    code, out, _ = run(capsys, ["compare", "--input", str(karate_path()), "--k", "5"])
    assert code == 0
    assert len(rows_of(out)[1]) == 36
    assert len(calls) == 1


def test_compare_diagonal_and_known_cells(capsys):
    code, out, _ = run(
        capsys,
        ["compare", "--input", str(kite_path()), "--measures", "fld,dc,bc", "--k", "3"],
    )
    assert code == 0
    _, rows = rows_of(out)
    cells = {(row[0], row[1]): int(row[3]) for row in rows}
    assert cells[("fld", "fld")] == 3
    assert cells[("fld", "dc")] == 3
    assert cells[("fld", "bc")] == 2
    assert cells[("fld", "bc")] == cells[("bc", "fld")]


def test_manifest_rerun_reproduces_rank_bytes(tmp_path):
    first = tmp_path / "a.csv"
    assert main(["rank", "--input", str(karate_path()), "--measure", "fld", "--out", str(first)]) == 0
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    second = tmp_path / "b.csv"
    argv = [
        manifest["command"],
        "--input", manifest["input"]["path"],
        "--measure", manifest["params"]["measure"],
        "--output", manifest["output"]["format"],
        "--out", str(second),
    ]
    assert main(argv) == 0
    assert first.read_bytes() == second.read_bytes()


def test_manifest_rerun_reproduces_si_bytes(tmp_path):
    first = tmp_path / "a.csv"
    argv = [
        "si",
        "--input", str(karate_path()),
        "--seeds", "34,1,34,9",
        "--lambda", "0.2",
        "--replicates", "20",
        "--rng-seed", "9",
        "--out", str(first),
    ]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    # the seed set, deduplicated, in node-ID order
    assert manifest["params"]["seeds"] == ["1", "9", "34"]
    second = tmp_path / "b.csv"
    rerun = [
        "si",
        "--input", manifest["input"]["path"],
        "--seeds", ",".join(manifest["params"]["seeds"]),
        "--lambda", str(manifest["params"]["lambda"]),
        "--replicates", str(manifest["params"]["replicates"]),
        "--rng-seed", str(manifest["params"]["rng_seed"]),
        "--out", str(second),
    ]
    assert main(rerun) == 0
    assert first.read_bytes() == second.read_bytes()


def test_manifest_rerun_reproduces_tau_bytes(tmp_path):
    first = tmp_path / "a.json"
    argv = [
        "tau",
        "--input", str(karate_path()),
        "--measure", "ld",
        "--lambda-range", "0.1:0.3:0.1",
        "--t-eval", "3",
        "--replicates", "5",
        "--rng-seed", "4",
        "--output", "json",
        "--out", str(first),
    ]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "a.json.manifest.json").read_text())
    params = manifest["params"]
    grid = params["lambda_grid"]
    assert grid == [0.1, 0.2, 0.3]
    second = tmp_path / "b.json"
    rerun = [
        manifest["command"],
        "--input", manifest["input"]["path"],
        "--measure", params["measure"],
        "--lambda-range", f"{grid[0]}:{grid[-1]}:{round(grid[1] - grid[0], 10)}",
        "--t-eval", str(params["t_eval"]),
        "--replicates", str(params["replicates"]),
        "--rng-seed", str(params["rng_seed"]),
        "--output", manifest["output"]["format"],
        "--out", str(second),
    ]
    assert main(rerun) == 0
    assert json.loads((tmp_path / "b.json.manifest.json").read_text())["params"] == params
    assert first.read_bytes() == second.read_bytes()


def test_manifest_rerun_reproduces_compare_bytes(tmp_path):
    first = tmp_path / "a.csv"
    argv = ["compare", "--input", str(karate_path()), "--measures", "fld,dc,ld", "--k", "5"]
    assert main([*argv, "--out", str(first)]) == 0
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    second = tmp_path / "b.csv"
    rerun = [
        manifest["command"],
        "--input", manifest["input"]["path"],
        "--measures", ",".join(manifest["params"]["measures"]),
        "--k", str(manifest["params"]["k"]),
        "--output", manifest["output"]["format"],
        "--out", str(second),
    ]
    assert main(rerun) == 0
    assert first.read_bytes() == second.read_bytes()


def test_output_uses_unix_newlines_only(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["rank", "--input", str(kite_path()), "--measure", "dc", "--out", str(out)]) == 0
    assert b"\r" not in out.read_bytes()


def test_self_loop_warning_is_one_clean_stderr_line(tmp_path, capsys):
    looped = tmp_path / "loop.edges"
    looped.write_text("a b\nb b\n")
    out = tmp_path / "r.csv"
    code, _, err = run(
        capsys, ["rank", "--input", str(looped), "--measure", "dc", "--out", str(out)]
    )
    assert code == 0
    assert err == "warning: dropped 1 self-loop(s)\n"
    assert ".py:" not in err


def test_manifest_hashes_the_bytes_it_parsed(tmp_path, monkeypatch):
    edges = tmp_path / "g.edges"
    edges.write_bytes(b"\xef\xbb\xbfa b\r\nb c\n")
    real = Path.read_bytes
    reads = []

    def spy(path):
        if path == edges:
            reads.append(path)
        return real(path)

    monkeypatch.setattr(Path, "read_bytes", spy)
    out = tmp_path / "r.csv"
    assert main(["rank", "--input", str(edges), "--measure", "dc", "--out", str(out)]) == 0
    monkeypatch.undo()
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert manifest["input"]["sha256"] == hashlib.sha256(edges.read_bytes()).hexdigest()
    assert len(reads) == 1


def test_manifest_goes_to_stderr_without_out(capsys):
    code, out, err = run(capsys, ["rank", "--input", str(kite_path()), "--measure", "dc"])
    assert code == 0
    manifest = json.loads(err)
    assert manifest["command"] == "rank"
    assert manifest["input"]["sha256"]
