import codecs
import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

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
    # the line of the first undecodable byte, counted in the input with any
    # byte-order mark, which the decoder drops before it counts positions
    bad = tmp_path / "latin1.edges"
    for data, line in [
        (b"\xffa b\n", 1),
        (b"a b\n\xff c\n", 2),
        (b"\xef\xbb\xbfa b\n\xff c\n", 2),
        (b"\xef\xbb\xbfa\n\xff b\n", 2),
    ]:
        bad.write_bytes(data)
        code, out, err = run(capsys, ["rank", "--input", str(bad), "--measure", "dc"])
        assert code == 1
        assert out == ""
        assert err == f"error: line {line}: invalid UTF-8 byte 0xff\n"


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


def test_si_explicit_seeds_take_no_measure(capsys, tmp_path):
    # --measure picks the --top seeds only: with --seeds the manifest would record it unused
    argv = ["si", "--input", str(tmp_path / "missing.edges"), "--seeds", "1", "--measure", "fld"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--lambda", "0.5"])
    assert exc.value.code == 2
    assert "--measure applies only with --top" in capsys.readouterr().err


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


@pytest.mark.parametrize("measures", ["dc,dc", "fld,dc,FLD"])
def test_repeated_measure_is_a_usage_error(measures, capsys, tmp_path):
    # a repeat would print duplicate rows and list the measure twice in the manifest
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--input", str(tmp_path / "missing.edges"), f"--measures={measures}"])
    assert exc.value.code == 2
    assert f"each named once, got {measures!r}" in capsys.readouterr().err


def test_non_decimal_digit_labels_rank_as_text(tmp_path, capsys):
    # '²' is a digit to str.isdigit() but not a number to int()
    edges = tmp_path / "sup.edges"
    edges.write_bytes("1 \u00b2\n\u00b2 3\n3 1\n".encode("utf-8"))
    code, out, _ = run(capsys, ["rank", "--input", str(edges), "--measure", "dc"])
    assert code == 0
    assert [row[1] for row in rows_of(out)[1]] == ["1", "3", "\u00b2"]


def test_csv_quotes_labels_that_hold_commas_or_quotes(tmp_path, capsys):
    # RFC 4180: such a cell is wrapped in " and its own " doubled; JSON needs neither
    edges = tmp_path / "quoted.edges"
    edges.write_text('1,1 1,2\n1,2 "q"\n')
    labels = ["1,2", '"q"', "1,1"]
    code, out, _ = run(capsys, ["rank", "--input", str(edges), "--measure", "dc"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [len(row) for row in rows] == [4] * 4
    assert [row[1] for row in rows[1:]] == labels
    assert out.split("\n")[1:3] == ['1,"1,2",2.000000,0', '2,"""q""",1.000000,0']
    code, out, _ = run(capsys, ["rank", "--input", str(edges), "--measure", "dc", "--output", "json"])
    assert code == 0
    assert json.loads(out) == [
        {"rank": rank, "node": label, "score": score, "undefined": 0}
        for rank, label, score in zip([1, 2, 3], labels, [2.0, 1.0, 1.0])
    ]


# a child whose preferred encoding is ASCII, where the C locale has one
_ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def _rank_utf8_labels_in_a_child(tmp_path, setting, out_args=()):
    """Run ``rank --measure dc`` on non-ASCII labels in a child under ``setting``;
    skip where that setting's preferred encoding is UTF-8 after all."""
    src = str(Path(fldrank.cli.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, **setting, "PYTHONPATH": path}
    probe = "import locale; print(locale.getpreferredencoding(False))"
    preferred = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.strip()
    if setting is _ASCII_LOCALE and codecs.lookup(preferred).name == "utf-8":
        pytest.skip("the C locale's preferred encoding is UTF-8 here")
    edges = tmp_path / "utf8.edges"
    edges.write_bytes("\u00fc \u4e2d\n\u00e9 \u00fc\n".encode("utf-8"))
    return subprocess.run(
        [sys.executable, "-m", "fldrank.cli", "rank", "--measure", "dc", "--input", str(edges), *out_args],
        env=env,
        capture_output=True,
    )


@pytest.mark.parametrize(
    "setting", [_ASCII_LOCALE, {"PYTHONWARNDEFAULTENCODING": "1"}], ids=["ascii-locale", "warn-encoding"]
)
def test_out_files_are_utf8_in_any_locale(tmp_path, setting):
    out = tmp_path / "rows.csv"
    done = _rank_utf8_labels_in_a_child(tmp_path, setting, ["--out", str(out)])
    assert done.returncode == 0, done.stderr
    assert not [line for line in done.stderr.splitlines() if line.startswith(b"warning:")]
    _, rows = rows_of(out.read_bytes().decode("utf-8"))
    assert [row[1] for row in rows] == ["\u00fc", "\u00e9", "\u4e2d"]
    assert json.loads((tmp_path / "rows.csv.manifest.json").read_bytes().decode("utf-8"))


def test_stdout_rows_are_utf8_in_any_locale(tmp_path):
    out = tmp_path / "rows.csv"
    to_file = _rank_utf8_labels_in_a_child(tmp_path, _ASCII_LOCALE, ["--out", str(out)])
    assert to_file.returncode == 0, to_file.stderr
    to_stdout = _rank_utf8_labels_in_a_child(tmp_path, _ASCII_LOCALE)
    assert to_stdout.returncode == 0, to_stdout.stderr
    assert to_stdout.stdout == out.read_bytes()


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


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 8.00 EiB for an array with shape (2**60,)"),
         "error: out of memory: Unable to allocate 8.00 EiB for an array with shape (2**60,)\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
)
def test_out_of_memory_is_one_clean_error_line(monkeypatch, capsys, exc, line):
    def exhausted(g, measure):
        raise exc

    monkeypatch.setattr(fldrank.cli, "compute_measure", exhausted)
    code, out, err = run(capsys, ["rank", "--input", str(kite_path()), "--measure", "fld"])
    assert code == 1
    assert out == ""
    assert err == line


def test_out_of_memory_under_an_address_space_limit(tmp_path):
    # the child limits its own address space to 200 MiB before it imports
    # numpy, which with fldrank takes about 110 MB of it; path(6000)'s shell
    # table needs 6000 x 6000 int64 cells (275 MiB), so numpy's allocation fails.
    # The child prints "imported" once fldrank.cli is in; where a numpy build
    # cannot even import under the limit, there is nothing to test
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no RLIMIT_AS on this platform")
    limit = 200 * 2**20
    child = (
        f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
        "import fldrank.cli; print('imported', flush=True); sys.exit(fldrank.cli.main())"
    )
    path = tmp_path / "path6000.edges"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(5999)))
    src = str(Path(fldrank.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", child, "rank", "--measure", "fld", "--input", str(path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.perf_counter() - start
    if not done.stdout.startswith("imported\n"):
        pytest.skip(f"fldrank.cli does not import within {limit} bytes: {done.stderr[-200:]}")
    assert done.returncode == 1, done.stderr
    assert done.stdout == "imported\n"
    assert "Traceback" not in done.stderr
    assert re.fullmatch(r"error: out of memory: Unable to allocate .*\(6000, 6000\).*\n", done.stderr)
    assert elapsed < 5


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


def cli_in_a_child(tmp_path, argv, prelude=""):
    """Run ``main(argv)`` in a fresh interpreter after ``prelude``: its rows and
    manifest bytes, its stderr, the modules loaded when ``main`` returned, the
    module hashlib's sha256 came from (None without hashlib), and whether
    ``import _hashlib`` then succeeds."""
    child = (
        f"import json, sys; {prelude}\nimport fldrank.cli as cli\n"
        "code = cli.main(sys.argv[1:]); modules = sorted(sys.modules)\n"
        "sha256_from = 'hashlib' in sys.modules and sys.modules['hashlib'].sha256.__module__\n"
        "try:\n    import _hashlib\nexcept ImportError:\n    _hashlib = None\n"
        "print(json.dumps([code, modules, sha256_from or None, _hashlib is not None]))"
    )
    src = str(Path(fldrank.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "rows.csv"
    done = subprocess.run(
        [sys.executable, "-c", child, *argv, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    code, modules, sha256_from, importable = json.loads(done.stdout)
    assert code == 0, done.stderr
    manifest = (tmp_path / "rows.csv.manifest.json").read_bytes()
    return SimpleNamespace(
        rows=out.read_bytes(),
        manifest=manifest,
        stderr=done.stderr,
        modules=set(modules),
        sha256_from=sha256_from,
        hashlib_importable=importable,
    )


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no built-in SHA-256",
)
def test_compare_hashes_its_input_without_openssl(tmp_path):
    # hashlib maps OpenSSL's libcrypto, a few MB of resident memory, on import
    child = cli_in_a_child(tmp_path, ["compare", "--input", str(karate_path())])
    assert not {"hashlib", "_hashlib"} & child.modules
    digest = json.loads(child.manifest)["input"]["sha256"]
    assert digest == hashlib.sha256(karate_path().read_bytes()).hexdigest()


def test_manifest_digest_falls_back_to_hashlib(tmp_path):
    prelude = "sys.modules['_sha2'] = sys.modules['_sha256'] = None"
    argv = ["rank", "--measure", "dc", "--input", str(kite_path())]
    child = cli_in_a_child(tmp_path, argv, prelude)
    assert ("_hashlib" in child.modules) == (importlib.util.find_spec("_hashlib") is not None)
    digest = json.loads(child.manifest)["input"]["sha256"]
    assert digest == hashlib.sha256(kite_path().read_bytes()).hexdigest()


# SI runs load numpy.random, which imports secrets, hmac and hashlib
_SI_RUNS = {
    "tau": ["tau", "--measure", "dc", "--replicates", "10", "--input", str(karate_path())],
    "si": ["si", "--top", "3", "--measure", "dc", "--beta", "3", "--replicates", "10",
           "--input", str(karate_path())],
}
_HAS_BUILTIN_HASHES = all(map(importlib.util.find_spec, fldrank.cli._BUILTIN_HASHES))


@pytest.mark.skipif(not _HAS_BUILTIN_HASHES, reason="a built-in hash module is missing here")
@pytest.mark.parametrize("command", sorted(_SI_RUNS))
def test_si_runs_load_numpy_random_without_openssl(tmp_path, command):
    child = cli_in_a_child(tmp_path, _SI_RUNS[command])
    assert {"numpy.random", "hmac"} <= child.modules
    assert child.sha256_from in ("_sha2", "_sha256")  # hashlib took the built-in hashes
    assert "_hashlib" not in child.modules
    assert child.stderr == ""
    # the block ends with main
    assert child.hashlib_importable == (importlib.util.find_spec("_hashlib") is not None)


@pytest.mark.skipif(importlib.util.find_spec("_hashlib") is None, reason="no OpenSSL here")
def test_missing_builtin_hash_keeps_openssl_and_a_clean_stderr(tmp_path):
    # blocked _hashlib and missing _md5: hashlib would log "code for hash md5
    # was not found" with a traceback
    child = cli_in_a_child(tmp_path, _SI_RUNS["tau"], "sys.modules['_md5'] = None")
    assert child.sha256_from == "_hashlib"
    assert child.stderr == ""


@pytest.mark.skipif(importlib.util.find_spec("_hashlib") is None, reason="no OpenSSL here")
@pytest.mark.parametrize("command", sorted(_SI_RUNS))
def test_si_rows_do_not_depend_on_openssl(tmp_path, command):
    plain = cli_in_a_child(tmp_path, _SI_RUNS[command])
    with_openssl = cli_in_a_child(tmp_path, _SI_RUNS[command], "import _hashlib")
    assert with_openssl.sha256_from == "_hashlib"
    assert plain.rows == with_openssl.rows
    assert plain.manifest == with_openssl.manifest


def test_manifest_goes_to_stderr_without_out(capsys):
    code, out, err = run(capsys, ["rank", "--input", str(kite_path()), "--measure", "dc"])
    assert code == 0
    manifest = json.loads(err)
    assert manifest["command"] == "rank"
    assert manifest["input"]["sha256"]


def test_measures_and_rankings_import_nothing_past_the_cli():
    # a module first imported mid-run (numpy.ma, say, by np.unique) adds its
    # import time and memory to every CLI run; the edge list is parsed first,
    # since its decoder loads a codec
    probe = """
import sys
from pathlib import Path

import fldrank.cli as cli

g = cli.parse_edge_list(Path(sys.argv[1]).read_bytes())
loaded = set(sys.modules)
for measure in cli.Measure:
    cli.rank_nodes(cli.compute_measure(g, measure), g.node_labels)
print(sorted(set(sys.modules) - loaded))
"""
    src = str(Path(fldrank.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", probe, str(karate_path())],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


# OpenBLAS takes its thread count from the first of these that is set. Since
# this process imported fldrank.cli it holds OPENBLAS_NUM_THREADS=1, so the
# children below start without all three
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _python_without_blas_threads(code, *args, **blas):
    """Run ``code`` in a child with no BLAS thread variable but ``blas``; its stdout."""
    src = str(Path(fldrank.cli.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    env |= {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **blas}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


# BA(10001, 3) is past the 10000 nodes from which OpenBLAS splits ec's products
_EC_THREADS_AND_SCORES = """
import hashlib, os, sys
import fldrank.cli
sys.path.insert(0, sys.argv[1])
from conftest import barabasi_albert_graph
scores = fldrank.eigenvector_centrality(barabasi_albert_graph(10001, 3, 0))[0].scores
print(len(os.listdir("/proc/self/task")), hashlib.sha256(scores.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core runs OpenBLAS on one thread anyway")
def test_cli_runs_openblas_on_one_thread():
    # an idle OpenBLAS worker spins about 0.1 s of CPU after loading, and
    # splitting the products makes ec's scores depend on the core count
    tests = str(Path(__file__).parent)
    threads, scores = _python_without_blas_threads(_EC_THREADS_AND_SCORES, tests)
    assert threads == "1"
    pinned = _python_without_blas_threads(_EC_THREADS_AND_SCORES, tests, OPENBLAS_NUM_THREADS="1")
    assert scores == pinned[1]


def test_only_the_cli_sets_a_blas_thread_default():
    probe = "import os, {}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    # a program that imports fldrank as a library keeps its BLAS threads
    assert _python_without_blas_threads(probe.format("fldrank.centrality")) == ["None"]
    assert _python_without_blas_threads(probe.format("fldrank.cli")) == ["1"]
    assert _python_without_blas_threads(probe.format("fldrank.cli"), OPENBLAS_NUM_THREADS="3") == ["3"]
