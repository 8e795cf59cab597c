"""The benchmark's workloads: which graph each one feeds the CLI, and how.

Each workload is one real ``fldrank`` CLI invocation on an edge-list file.
The BA and ER structures are generated once, from STRUCTURE_SEED; the
workload seed relabels their nodes, shuffles the edge order and picks the
SI random stream. Every seed so does the same amount of work, and the
spread of a metric over seeds measures the machine rather than the input;
with a new structure per seed, ec's power-iteration time (BA, 0.07-0.6 s)
and the SI saturation time (ER, summed mean_F 171k-207k) varied with the
seed. ``tau-karate`` uses the bundled karate graph as is; its seed picks
the SI stream.

Reference rows are recorded for a fixed pool of ``POOL`` instances, so a
seed maps to instance ``seed % POOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import graphs

POOL = 10
STRUCTURE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    schema: str  # row schema of the output, see rowcheck.SCHEMAS
    # subcommand and its options, without --input/--out; "{instance}" is
    # replaced by the instance number
    argv: tuple[str, ...]
    graph: Callable[[Path, int], bytes]  # (checkout root, instance) -> edge-list bytes

    def cli_args(self, instance: int, edges: Path, out: Path) -> list[str]:
        options = [a.format(instance=instance) for a in self.argv[1:]]
        return [self.argv[0], "--input", str(edges), "--out", str(out), *options]


def _ba2k(root: Path, instance: int) -> bytes:
    edges = graphs.barabasi_albert(2000, 3, STRUCTURE_SEED)
    return graphs.edge_list_bytes(graphs.relabel(edges, 2000, instance))


def _karate(root: Path, instance: int) -> bytes:
    return (root / "src" / "fldrank" / "datasets" / "karate.edges").read_bytes()


def _er3k(root: Path, instance: int) -> bytes:
    edges = graphs.erdos_renyi(3000, 6.0, STRUCTURE_SEED)
    return graphs.edge_list_bytes(graphs.relabel(edges, 3000, instance))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "structure-ba2k",
            "all six measures on BA(2000,3): parsing, 3 all-sources BFS passes, bc, dense ec, fld; no SI work",
            "overlap",
            ("compare", "--k", "50"),
            _ba2k,
        ),
        Workload(
            "tau-karate",
            "the paper's tau sweep on karate (10 rates, 100 reps): thousands of tiny single-seed SI runs",
            "tau",
            ("tau", "--measure", "fld", "--t-eval", "10", "--replicates", "100",
             "--rng-seed", "{instance}"),
            _karate,
        ),
        Workload(
            "si-er3k",
            "top-20 dc seeds on ER(3000, mean degree 6): few long SI runs, all-pairs BFS for the step cap",
            "trajectory",
            ("si", "--top", "20", "--measure", "dc", "--beta", "3", "--replicates", "50",
             "--rng-seed", "{instance}"),
            _er3k,
        ),
    )
}
