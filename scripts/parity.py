"""Check that the CLI writes byte for byte what another commit's CLI writes.

    python scripts/parity.py BASE

Unpacks ``git archive BASE`` into a temporary directory and runs one fixed
matrix of CLI commands against that tree and against this checkout, on the
same input files: the bundled kite and karate graphs and generated
BA(300, 3), path(300) and 12x12 grid graphs. On every graph the matrix runs
``rank`` with each of the six measures, ``compare``; ``si`` with and without
``--max-steps``, at rate 0 and with one replicate; and ``tau`` at one rate
for each measure. Four more runs take one graph each: on karate, ``si``
with 150 replicates (two SI batches of unequal length), ``si`` from the
labelled seeds 1 and 34 (``--seeds``), and ``tau`` on the default grid; on
kite, ``si --top`` past the node count, an error path.
Six generated graphs run only their own commands. Five run ``rank``:
path(1000), deep enough for fld's and ld's node blocks to run at many
widths, with ld and with fld; a path(600) followed by BA(300, 3), whose
path sources run the all-sources pass in frontier blocks while the BA
sources run it as words; the same two parts the other way round, shallow
words first, then the deep path; and the path glued by one edge to the BA
graph, one deep component whose dense part narrows its frontier blocks.
These three run cc, ld and fld. A chain of 70 diamonds (211 nodes) runs
bc: its path counts pass 2**63, so bc's counts widen to Python integers.
BA(3000, 3), whose 2E of about 18k passes the 16,384 contacts one SI batch
may hold, runs ``si`` with 3 replicates, one row per batch, and ``rank``
with bc, whose blocks hold 3 sources. Three small inputs run ``rank`` with
dc and ``compare``: one with a UTF-8 byte-order mark, CRLF line ends and
two self-loops, which give one warning line; one with a self-loop and then
a line of three labels, which gives one error line and no warning; and one
whose labels hold a comma, a double quote and a non-ASCII letter, which
the CSV rows quote (the first two) and the output file holds as UTF-8.
Each run's rows, manifest, stdout, stderr and exit code are compared. Every
difference is printed, and the script exits 1 if there is any, 0 otherwise
(2 if BASE cannot be unpacked). The two trees of a run run side by side.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MEASURES = ("dc", "cc", "bc", "ec", "ld", "fld")
COMMANDS = {
    **{f"rank-{m}": ["rank", "--measure", m] for m in MEASURES},
    "compare": ["compare", "--k", "5"],
    "si": ["si", "--top", "3", "--measure", "dc", "--beta", "2", "--replicates", "20"],
    "si-max-steps": [
        *("si", "--top", "3", "--measure", "fld", "--lambda", "0.3"),
        *("--replicates", "20", "--max-steps", "6", "--rng-seed", "7"),
    ],
    "si-rate-0": ["si", "--top", "3", "--measure", "dc", "--lambda", "0", "--replicates", "5"],
    "si-one-replicate": ["si", "--top", "3", "--measure", "dc", "--beta", "2", "--replicates", "1"],
    **{
        f"tau-{m}": ["tau", "--measure", m, "--lambda-range", "0.2:0.2:0.1", "--replicates", "20"]
        for m in MEASURES
    },
}
ON_ONE_GRAPH = {
    "kite": {"si-too-many-seeds": ["si", "--top", "11", "--measure", "dc", "--beta", "1"]},
    "karate": {
        # karate's SI batches hold 105 rows: a batch of 105 and one of 45
        "si-two-batches": ["si", "--top", "3", "--measure", "dc", "--beta", "2", "--replicates", "150"],
        "si-seeds": ["si", "--seeds", "1,34", "--lambda", "0.2", "--replicates", "5"],
        "tau-grid": ["tau", "--measure", "fld", "--t-eval", "3", "--replicates", "20"],
    },
}
# graphs that run only their own commands, not the matrix
ONLY_ON_GRAPH = {
    "path1000": {f"rank-{m}": ["rank", "--measure", m] for m in ("ld", "fld")},
    "path600ba300": {f"rank-{m}": ["rank", "--measure", m] for m in ("cc", "ld", "fld")},
    "ba300path600": {f"rank-{m}": ["rank", "--measure", m] for m in ("cc", "ld", "fld")},
    "path600glueba300": {f"rank-{m}": ["rank", "--measure", m] for m in ("cc", "ld", "fld")},
    "diamonds70": {"rank-bc": ["rank", "--measure", "bc"]},
    # 2E is about 18k: SI runs its replicates one row per batch, and bc its sources in blocks of 3
    "ba3000": {
        "si": ["si", "--top", "3", "--measure", "dc", "--beta", "3", "--replicates", "3"],
        "rank-bc": ["rank", "--measure", "bc"],
    },
    "bomcrlf": {c: COMMANDS[c] for c in ("rank-dc", "compare")},
    "badline": {c: COMMANDS[c] for c in ("rank-dc", "compare")},
    "quoting": {c: COMMANDS[c] for c in ("rank-dc", "compare")},
}
# inputs as raw bytes: a byte-order mark, CRLF line ends, self-loops, a malformed line,
# labels holding a comma, a double quote and a non-ASCII letter
RAW_INPUTS = {
    "bomcrlf": b"\xef\xbb\xbfa b\r\nb c\r\nc c\r\nc d\r\nd e\r\ne e\r\ne a\r\nb f\r\n",
    "badline": b"a b\nb b\nb c d\nc d\n",
    "quoting": b'1,1 1,2\n1,2 "q"\n"q" \xc3\xbc\n\xc3\xbc 1,1\n',
}


def ba_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Preferential attachment from a star on m + 1 nodes, m distinct targets per new node."""
    rng = random.Random(seed)
    edges = [(0, v) for v in range(1, m + 1)]
    endpoints = [u for e in edges for u in e]
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(endpoints))
        for u in sorted(targets):
            edges.append((u, v))
            endpoints += (u, v)
    return edges


def write_inputs(folder: Path) -> dict[str, Path]:
    """Every input graph as an edge-list file in ``folder``, by name."""
    datasets = ROOT / "src" / "fldrank" / "datasets"
    generated = {
        "ba300": [f"{a} {b}" for a, b in ba_edges(300, 3, 0)],
        "ba3000": [f"{a} {b}" for a, b in ba_edges(3000, 3, 0)],
        "path300": [f"{i} {i + 1}" for i in range(299)],
        "path1000": [f"{i} {i + 1}" for i in range(999)],
        "path600ba300": [f"p{i} p{i + 1}" for i in range(599)]
        + [f"b{a} b{b}" for a, b in ba_edges(300, 3, 0)],
        "ba300path600": [f"b{a} b{b}" for a, b in ba_edges(300, 3, 0)]
        + [f"p{i} p{i + 1}" for i in range(599)],
        "path600glueba300": [f"p{i} p{i + 1}" for i in range(599)]
        + ["p599 b0"]
        + [f"b{a} b{b}" for a, b in ba_edges(300, 3, 0)],
        "diamonds70": [
            f"{u} {v}"
            for i in range(70)
            for mid in (f"b{i}", f"c{i}")
            for u, v in ((f"a{i}", mid), (mid, f"a{i + 1}"))
        ],
        "grid12": [
            f"{i},{j} {a},{b}"
            for i in range(12)
            for j in range(12)
            for a, b in ((i, j + 1), (i + 1, j))
            if a < 12 and b < 12
        ],
    }
    paths = {}
    for name in ("kite", "karate"):
        paths[name] = folder / f"{name}.edges"
        shutil.copyfile(datasets / f"{name}.edges", paths[name])
    for name, lines in generated.items():
        paths[name] = folder / f"{name}.edges"
        paths[name].write_text("\n".join(lines) + "\n")
    for name, data in RAW_INPUTS.items():
        paths[name] = folder / f"{name}.edges"
        paths[name].write_bytes(data)
    return paths


def unpack(base: str, folder: Path) -> None:
    """The tree of commit ``base`` in ``folder``, as ``git archive`` gives it."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", base], stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", str(folder)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or tar.returncode:
        print(f"parity: cannot unpack {base!r}", file=sys.stderr)
        sys.exit(2)


def run(tree: Path, folder: Path, argv: list[str]) -> dict[str, bytes | int | None]:
    """One CLI run of ``tree`` in ``folder``: its exit code and every byte it wrote."""
    folder.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "fldrank.cli", *argv, "--out", "rows.csv"],
        cwd=folder,
        env=env,
        capture_output=True,
    )
    files = {"rows": folder / "rows.csv", "manifest": folder / "rows.csv.manifest.json"}
    return {
        "exit code": done.returncode,
        "stdout": done.stdout,
        "stderr": done.stderr,
        **{name: path.read_bytes() if path.exists() else None for name, path in files.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="commit to compare this checkout with, such as HEAD")
    base = parser.parse_args().base
    with tempfile.TemporaryDirectory(prefix="fldrank-parity-") as tmp, ThreadPoolExecutor(2) as pool:
        tmp = Path(tmp)
        for folder in ("base", "inputs"):
            (tmp / folder).mkdir()
        unpack(base, tmp / "base")
        inputs = write_inputs(tmp / "inputs")
        differences = runs = 0
        for graph, path in inputs.items():
            commands = ONLY_ON_GRAPH.get(graph) or {**COMMANDS, **ON_ONE_GRAPH.get(graph, {})}
            for name, command in commands.items():
                argv = [*command, "--input", str(path)]
                sides = [(tmp / "base", "base-runs"), (ROOT, "checkout-runs")]
                outputs = list(pool.map(lambda s: run(s[0], tmp / s[1] / graph / name, argv), sides))
                runs += 1
                for key, value in outputs[0].items():
                    if outputs[1][key] != value:
                        differences += 1
                        print(f"{graph} {name}: {key} differs")
        print(f"parity against {base}: {runs} runs, {differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
