"""Per-layer tracing of one in-process CLI run.

Run as ``python3 perfbench/tracer.py OUT.json -- <fldrank CLI args>``: it
wraps the public functions of each fldrank module at every name where
callers bind them (``cli.tau_sweep``, ``evaluation.spreading_ability``,
``fld.all_distance_fields``, ...), calls ``fldrank.cli.main`` and writes
the spans and the per-layer metrics to OUT.json.

A span is (name, start, end, parent). Functions called once per SI step or
per replicate are not given a span each; their calls are aggregated into a
count and a total time per parent span. A layer's self time is its span
time minus the time covered by its children, so the self times of all
layers add up to the root span, ``cli.main``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable

# (module, attribute, span name, aggregated per parent span)
TARGETS = (
    ("fldrank.cli", "main", "cli", False),
    ("fldrank.graph", "load_edge_list", "graph.load", False),
    ("fldrank.graph", "parse_edge_list", "graph.parse", False),
    ("fldrank.graph", "Graph.build", "graph.build", False),
    ("fldrank.graph", "all_distance_fields", "graph.bfs_all", False),
    ("fldrank.graph", "diameter", "graph.diameter", False),
    ("fldrank.graph", "connected_components", "graph.components", False),
    ("fldrank.centrality", "degree_centrality", "centrality.dc", False),
    ("fldrank.centrality", "closeness_centrality", "centrality.cc", False),
    ("fldrank.centrality", "betweenness_centrality", "centrality.bc", False),
    ("fldrank.centrality", "eigenvector_centrality", "centrality.ec", False),
    ("fldrank.centrality", "local_dimension", "centrality.ld", False),
    ("fldrank.centrality", "rank_nodes", "centrality.rank", False),
    ("fldrank.fld", "fuzzy_local_dimension", "fld.fld", False),
    ("fldrank.si", "simulate", "si.simulate", False),
    ("fldrank.si", "spreading_ability", "si.ability", False),
    ("fldrank.si", "si_step", "si.step", True),
    ("fldrank.si", "replicate_rng", "si.rng", True),
    ("fldrank.evaluation", "tau_sweep", "evaluation.tau_sweep", False),
    ("fldrank.evaluation", "kendall_tau", "evaluation.kendall", False),
    ("fldrank.evaluation", "compute_measure", "evaluation.compute_measure", False),
    ("fldrank.evaluation", "top_k_overlap", "evaluation.overlap", False),
)

# span name -> (counter, amount of work in one call, from its args and result)
COUNTERS = {
    "graph.bfs_all": ("graph.bfs_sources", lambda args, result: args[0].node_count),
    "si.simulate": ("si.replicates", lambda args, result: args[1].replicates),
    "si.step": ("si.infections", lambda args, result: len(result)),
}

# per-layer metric -> (end-to-end metrics it should move, workloads it runs on)
LAYER_METRICS = {
    "graph.load_s": ("setup_s, wall_s", "all"),
    "graph.parse_s": ("setup_s, wall_s", "all"),
    "graph.build_s": ("setup_s, wall_s", "all"),
    "graph.bfs_all_s": ("wall_s, peak_rss_mb", "structure-ba2k, si-er3k"),
    "graph.bfs_all_calls": ("wall_s, peak_rss_mb", "structure-ba2k, si-er3k"),
    "graph.bfs_sources": ("wall_s, peak_rss_mb", "structure-ba2k, si-er3k"),
    "graph.diameter_s": ("wall_s, peak_rss_mb", "structure-ba2k, si-er3k"),
    "graph.components_s": ("wall_s, peak_rss_mb", "structure-ba2k, si-er3k"),
    "centrality.dc_s": ("wall_s", "structure-ba2k"),
    "centrality.cc_s": ("wall_s", "structure-ba2k"),
    "centrality.bc_s": ("wall_s", "structure-ba2k"),
    "centrality.ec_s": ("wall_s, peak_rss_mb", "structure-ba2k"),
    "centrality.ld_s": ("wall_s", "structure-ba2k"),
    "centrality.rank_s": ("wall_s", "structure-ba2k"),
    "fld.fld_s": ("wall_s", "structure-ba2k"),
    "si.simulate_s": ("wall_s, cpu_s", "tau-karate, si-er3k"),
    "si.simulate_calls": ("wall_s, cpu_s", "tau-karate, si-er3k"),
    "si.replicates": ("wall_s, cpu_s", "tau-karate, si-er3k"),
    "si.step_s": ("wall_s, cpu_s", "tau-karate, si-er3k"),
    "si.step_calls": ("wall_s, cpu_s", "tau-karate, si-er3k"),
    "si.infections": ("wall_s, cpu_s", "tau-karate, si-er3k"),
    "si.rng_s": ("wall_s, cpu_s", "tau-karate, si-er3k"),
    "si.ability_s": ("wall_s, cpu_s", "tau-karate, si-er3k"),
    "evaluation.tau_sweep_s": ("wall_s", "tau-karate, structure-ba2k"),
    "evaluation.kendall_s": ("wall_s", "tau-karate, structure-ba2k"),
    "evaluation.compute_measure_s": ("wall_s", "tau-karate, structure-ba2k"),
    "evaluation.overlap_s": ("wall_s", "tau-karate, structure-ba2k"),
    "cli.self_s": ("wall_s", "all"),
    "trace.overhead_s": ("wall_s", "all"),
}


class Tracer:
    """Spans and per-parent aggregates of the wrapped calls, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.aggregates: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, total]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def wrap(self, fn, name: str, aggregated: bool):
        clock, stack, counter = time.perf_counter, self._stack, COUNTERS.get(name)

        if aggregated:

            def traced(*args, **kwargs):
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    entry = self.aggregates.setdefault((stack[-1], name), [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                if counter:
                    self.counts[counter[0]] += counter[1](args, result)
                return result

        else:

            def traced(*args, **kwargs):
                record = [name, 0.0, 0.0, stack[-1]]
                stack.append(len(self.spans))
                self.spans.append(record)
                record[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                if counter:
                    self.counts[counter[0]] += counter[1](args, result)
                return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per span name: span time minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (parent, name), (_, total) in self.aggregates.items():
            if parent >= 0:
                covered[parent] += total
            totals[name] += total
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += end - start - covered[i]
        return dict(totals)

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric in LAYER_METRICS except trace.overhead_s (0 if unseen)."""
        found: dict[str, float] = {}
        for name, seconds in self.self_times().items():
            found["cli.self_s" if name == "cli" else f"{name}_s"] = seconds
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        for (_, name), (count, _) in self.aggregates.items():
            calls[name] += count
        found.update({f"{name}_calls": count for name, count in calls.items()})
        found.update(self.counts)
        return {
            m: found.get(m, 0.0 if m.endswith("_s") else 0)
            for m in LAYER_METRICS
            if m != "trace.overhead_s"
        }


def install(tracer: Tracer) -> tuple[list[str], Callable[[], None]]:
    """Wrap every target at each name bound to it in an fldrank module.

    Returns the targets that could not be found and a function that undoes
    the wrapping.
    """
    import fldrank  # noqa: F401  (imported here: run.py reads LAYER_METRICS without fldrank)
    import fldrank.cli  # noqa: F401

    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fldrank"]
    missing, undo = [], []
    for module_name, attr, name, aggregated in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(fn_name) if owner is not None else None
            if not isinstance(original, classmethod):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, fn_name, classmethod(tracer.wrap(original.__func__, name, aggregated)))
            undo.append((owner, fn_name, original))
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            missing.append(f"{module_name}.{attr}")
            continue
        traced = tracer.wrap(original, name, aggregated)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    undo.append((mod, key, original))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return missing, uninstall


def traced_main(cli_args: list[str]) -> dict:
    """Run ``fldrank.cli.main(cli_args)`` under a fresh tracer."""
    tracer = Tracer()
    missing, uninstall = install(tracer)
    try:
        import fldrank.cli

        code = fldrank.cli.main(cli_args)
    finally:
        uninstall()
    return {
        "exit": code,
        "missing": missing,
        "root_s": tracer.root_seconds(),
        "metrics": tracer.metrics(),
        "spans": tracer.spans,
        "aggregates": [[p, n, c, t] for (p, n), (c, t) in tracer.aggregates.items()],
    }


if __name__ == "__main__":
    out_path, separator, *cli_args = sys.argv[1:]
    if separator != "--":
        sys.exit("usage: tracer.py OUT.json -- <fldrank CLI args>")
    report = traced_main(cli_args)
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    sys.exit(report["exit"])
