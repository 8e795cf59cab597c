"""Write one BENCH_*.json from two sets of perfbench runs: a parent and a head.

    python scripts/bench_record.py PARENT_OUT HEAD_OUT \\
        --parent-commit SHA --head-commit SHA --seconds 40 --out BENCH_31.json

PARENT_OUT and HEAD_OUT are the ``.perfbench_out`` directories of two
checkouts, each holding ``<workload>-seed<i>-trace0.json`` files written by
``perfbench/run.py --workload <workload> --seed <i> --seconds S --trace 0``.
A parent run and a head run pair up when they share workload and seed; an
unpaired file is named on stderr and left out. For each workload and each
end-to-end metric the file records, per side, the median and the quartiles
(inclusive method) of the per-run values and the number of samples behind
them, and for the pair the number of pairs in which the head's value is
lower. The commits come from the command line, since a run made in a
``git archive`` copy records none. The file also holds each side's Python,
numpy and ``nproc`` and the ``run.py`` command of every run.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

RUN_FILE = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")


def load_runs(folder: Path) -> dict[tuple[str, int], dict]:
    """The untraced run files in ``folder``, by (workload, seed)."""
    runs = {}
    for path in sorted(folder.iterdir()):
        match = RUN_FILE.fullmatch(path.name)
        if match:
            runs[match["workload"], int(match["seed"])] = json.loads(path.read_text())
    return runs


def summary(values: list[float], samples: int) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values), "samples": samples}


def one_or_all(values: list):
    """The value when every run agrees, else the distinct values in order."""
    distinct = list(dict.fromkeys(values))
    return distinct[0] if len(distinct) == 1 else distinct


def environment(results: list[dict]) -> dict:
    return {key: one_or_all([r["environment"][key] for r in results]) for key in ("python", "numpy", "nproc")}


def record(parent: dict, head: dict, parent_commit: str, head_commit: str, seconds: float) -> dict:
    """The BENCH document for the runs that pair up between ``parent`` and ``head``."""
    pairs = sorted(parent.keys() & head.keys())
    if not pairs:
        raise ValueError("no parent run and head run share a workload and a seed")
    workloads = {}
    for workload in dict.fromkeys(w for w, _ in pairs):
        seeds = [s for w, s in pairs if w == workload]
        sides = {side: [runs[workload, s] for s in seeds] for side, runs in (("parent", parent), ("head", head))}
        metrics = {}
        for name, first in sides["parent"][0]["metrics"].items():
            values = {side: [r["metrics"][name]["value"] for r in results] for side, results in sides.items()}
            metrics[name] = {
                "unit": first["unit"],
                **{
                    side: summary(values[side], sum(r["samples"][name] for r in results))
                    for side, results in sides.items()
                },
                "head_lower_pairs": sum(h < p for p, h in zip(values["parent"], values["head"])),
                "pairs": len(seeds),
            }
        workloads[workload] = {"seeds": seeds, "metrics": metrics}
    return {
        "parent": {"commit": parent_commit, "environment": environment([parent[k] for k in pairs])},
        "head": {"commit": head_commit, "environment": environment([head[k] for k in pairs])},
        "commands": [
            f"python3 perfbench/run.py --workload {w} --seed {s} --seconds {seconds:g} --trace 0"
            for w, s in pairs
        ],
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write a BENCH_*.json from parent and head perfbench runs.")
    parser.add_argument("parent_out", type=Path, help="the parent checkout's .perfbench_out")
    parser.add_argument("head_out", type=Path, help="the head checkout's .perfbench_out")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--head-commit", required=True)
    parser.add_argument("--seconds", type=float, required=True, help="the --seconds every run was given")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    parent, head = load_runs(args.parent_out), load_runs(args.head_out)
    for side, runs, other in (("parent", parent, head), ("head", head, parent)):
        for workload, seed in sorted(runs.keys() - other.keys()):
            print(f"bench_record: {side} run {workload} seed {seed} has no pair; left out", file=sys.stderr)
    try:
        document = record(parent, head, args.parent_commit, args.head_commit, args.seconds)
    except ValueError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
