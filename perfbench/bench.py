"""The benchmark itself: inputs, timed and traced runs, row checks, results.

``run.py`` is the entry point; see its docstring for what is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import graphs
import rowcheck
from spawner import Spawner
from tracer import LAYER_METRICS
from workloads import POOL, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

# setup probes before each timed run, so that the samples span the whole
# measured interval rather than one moment of a machine whose speed drifts
SETUP_PER_RUN = 2
# On a shared 2-vCPU virtual machine the CPU speed drifts by 20-40% over
# minutes, in CPU time as much as in wall time. A fixed speed probe, shaped
# like fldrank's hot loops (pure-Python BFS, small numpy calls), runs before
# and after each child; each child's wall time is scaled by PROBE_NOMINAL_S
# over the mean wall time of the two probes around it, and its CPU time by
# PROBE_NOMINAL_S over their mean CPU time. The raw medians are printed and
# kept in the results file.
PROBE_NOMINAL_S = 0.15
PROBE_NODES = 1500
# About three quarters of setup_s is the import of numpy, and that slows
# with the machine more than the speed probe does: over twenty minutes its
# median went from 0.2 s to 0.1 s while the probe moved by a factor of 1.5.
# So setup_s is scaled instead by a bare ``import numpy`` in a fresh
# process, timed right after each setup sample: SETUP_NOMINAL_S over the
# median of those.
SETUP_NOMINAL_S = 0.1
NUMPY_IMPORT = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
# every child must end by then, so the benchmark exits within 180 s
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Input:
    workload: Workload
    instance: int
    edges: Path
    graph: dict  # n, edges, sha256
    reference_rows: str
    work: Path


@dataclass
class Tally:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    first_rows: bytes | None = None


def _probe_graph() -> tuple[tuple[int, ...], ...]:
    n = PROBE_NODES
    rng = np.random.default_rng(0)
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in map(int, rng.integers(0, n, 3)):
            if v != u:
                neighbours[u].add(v)
                neighbours[v].add(u)
    return tuple(tuple(sorted(ns)) for ns in neighbours)


_PROBE_ADJ = _probe_graph()


@dataclass
class Probe:
    wall_s: float
    cpu_s: float


def speed_probe() -> Probe:
    """Wall and CPU seconds for a fixed amount of BFS and small-array numpy work."""
    adj, n = _PROBE_ADJ, len(_PROBE_ADJ)
    rng = np.random.default_rng(0)
    marked = np.zeros(n, dtype=bool)
    marked[::50] = True
    start, start_cpu = time.perf_counter(), time.process_time()
    for source in range(90):
        dist = [-1] * n
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
    for _ in range(11000):
        idx = np.flatnonzero(marked)
        np.unique(idx[rng.random(idx.size) < 0.3])
    return Probe(time.perf_counter() - start, time.process_time() - start_cpu)


def scales(probes: list[Probe]) -> tuple[list[float], list[float]]:
    """Per child, the wall and CPU scale from the probes just before and after it."""
    pairs = list(zip(probes, probes[1:]))
    wall = [2 * PROBE_NOMINAL_S / (a.wall_s + b.wall_s) for a, b in pairs]
    cpu = [2 * PROBE_NOMINAL_S / (a.cpu_s + b.cpu_s) for a, b in pairs]
    return wall, cpu


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FLDRANK_THREADS"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Runner:
    """Runs children through the spawner; each must end by ``deadline``."""

    spawner: Spawner
    deadline: float  # a time.monotonic() value

    def run(self, argv: list[str], log: Path) -> Child:
        """Run one child to completion; its CPU time and peak RSS come from wait4."""
        out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
        timeout = max(self.deadline - time.monotonic(), 1.0)
        code, wall, cpu, rss = self.spawner.run(argv, child_env(), ROOT, out_path, err_path, timeout)
        return Child(
            code=code,
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=rss,
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
        )


def build_input(workload: Workload, instance: int) -> Input:
    """Write the workload's edge list for ``instance``; no reference rows yet."""
    if not (ROOT / "src" / "fldrank" / "cli.py").is_file():
        raise BenchError(f"no fldrank sources under {ROOT / 'src'}")
    data = workload.graph(ROOT, instance)
    work = OUT / workload.name
    work.mkdir(parents=True, exist_ok=True)
    edges = work / "graph.edges"
    edges.write_bytes(data)
    return Input(workload, instance, edges, graphs.describe(data), "", work)


def prepare(workload: Workload, seed: int) -> Input:
    """The input for ``seed`` with the reference rows recorded on it."""
    ref_file = REFERENCE / f"{workload.name}.json"
    if not ref_file.is_file():
        raise BenchError(f"missing reference rows {ref_file}")
    inp = build_input(workload, seed % POOL)
    reference = json.loads(ref_file.read_text())["instances"][str(inp.instance)]
    if reference["graph"] != inp.graph:
        raise BenchError(
            f"input drift: instance {inp.instance} is {inp.graph}, reference rows were "
            f"recorded on {reference['graph']}"
        )
    inp.reference_rows = reference["rows"]
    return inp


def setup_probe(inp: Input, runner: Runner) -> float:
    """One fresh process timing ``import fldrank`` plus ``load_edge_list``."""
    child = runner.run([sys.executable, str(HERE / "setup_probe.py"), str(inp.edges)], inp.work / "setup")
    if child.code != 0:
        raise BenchError(f"setup probe exited {child.code}: {child.stderr.strip()}")
    report = json.loads(child.stdout)
    if not Path(report["module"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"fldrank imported from {report['module']}, not from {ROOT / 'src'}")
    return report["setup_s"]


def numpy_import_probe(inp: Input, runner: Runner) -> float:
    """One fresh process timing a bare ``import numpy``."""
    child = runner.run([sys.executable, "-c", NUMPY_IMPORT], inp.work / "numpy")
    if child.code != 0:
        raise BenchError(f"numpy import probe exited {child.code}: {child.stderr.strip()}")
    return float(child.stdout)


def check_run(inp: Input, child: Child, rows_path: Path, tally: Tally, label: str) -> bool:
    """Check one run's exit code, rows and manifest; record any failure in tally.

    Returns whether the run passed.
    """
    tally.attempted += 1
    problems = []
    if child.code != 0:
        problems.append(f"exit code {child.code}: {child.stderr.strip()[-500:]}")
    else:
        try:
            rows = rows_path.read_bytes()
            manifest = json.loads(Path(f"{rows_path}.manifest.json").read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"missing or unreadable output: {exc!r}")
            rows = b""
            manifest = None
        if manifest is not None and manifest.get("input", {}).get("sha256") != inp.graph["sha256"]:
            problems.append("manifest input hash differs from the input's sha256")
        problems += rowcheck.check_rows(
            rows.decode("utf-8", errors="replace"),
            inp.reference_rows,
            inp.workload.schema,
            inp.graph["n"],
            inp.workload.argv,
        )
        if tally.first_rows is None:
            tally.first_rows = rows
        elif rows != tally.first_rows:
            problems.append("rows differ from the first repeat's bytes")
    if problems:
        tally.failed += 1
        tally.problems += [f"{label}: {p}" for p in problems]
    return not problems


def cli_command(inp: Input, rows_path: Path, runner: list[str]) -> list[str]:
    """The CLI invocation under ``runner``; removes the previous run's output first."""
    rows_path.unlink(missing_ok=True)
    Path(f"{rows_path}.manifest.json").unlink(missing_ok=True)
    return [sys.executable, *runner, *inp.workload.cli_args(inp.instance, inp.edges, rows_path)]


UNTRACED = ["-m", "fldrank.cli"]


@dataclass
class Timed:
    """One checked child with the scales of the probes around it."""

    child: Child
    passed: bool
    wall_scale: float = 1.0
    cpu_scale: float = 1.0


def _apply_scales(runs: list[Timed], probes: list[Probe]) -> None:
    for run, wall, cpu in zip(runs, *scales(probes)):
        run.wall_scale, run.cpu_scale = wall, cpu


def timed_runs(
    inp: Input, seconds: float, runner: Runner, tally: Tally
) -> tuple[list[Timed], list[Probe], list[tuple[float, float]]]:
    """Untraced CLI runs, each after SETUP_PER_RUN pairs of a setup probe and
    a numpy import probe, and a speed probe, until the next one would end
    after ``seconds``; a last speed probe closes the final run."""
    runs: list[Timed] = []
    probes: list[Probe] = []
    setup: list[tuple[float, float]] = []
    start = time.monotonic()
    rows_path = inp.work / "rows.csv"
    while True:
        for _ in range(SETUP_PER_RUN):
            setup.append((setup_probe(inp, runner), numpy_import_probe(inp, runner)))
        probes.append(speed_probe())
        child = runner.run(cli_command(inp, rows_path, UNTRACED), inp.work / "cli")
        passed = check_run(inp, child, rows_path, tally, f"run {len(runs) + 1}")
        runs.append(Timed(child, passed))
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(r.child.wall_s for r in runs) > seconds:
            probes.append(speed_probe())
            _apply_scales(runs, probes)
            return runs, probes, setup


def traced_runs(
    inp: Input, seconds: float, runner: Runner, tally: Tally
) -> tuple[list[Timed], list[tuple[Timed, dict | None]], list[Probe]]:
    """Pairs of one untraced and one traced run, each child between two speed
    probes, until the next pair would overrun."""
    plain: list[Timed] = []
    traced: list[tuple[Timed, dict | None]] = []
    probes: list[Probe] = []
    start = time.monotonic()
    rows_path = inp.work / "rows.csv"
    report_path = inp.work / "trace.json"
    children: list[Timed] = []
    while True:
        probes.append(speed_probe())
        child = runner.run(cli_command(inp, rows_path, UNTRACED), inp.work / "cli")
        passed = check_run(inp, child, rows_path, tally, f"untraced run {len(plain) + 1}")
        plain.append(Timed(child, passed))
        probes.append(speed_probe())
        tracer_cmd = [str(HERE / "tracer.py"), str(report_path), "--"]
        report_path.unlink(missing_ok=True)
        child = runner.run(cli_command(inp, rows_path, tracer_cmd), inp.work / "traced")
        passed = check_run(inp, child, rows_path, tally, f"traced run {len(traced) + 1}")
        report = json.loads(report_path.read_text()) if passed else None
        traced.append((Timed(child, passed), report))
        children += [plain[-1], traced[-1][0]]
        elapsed = time.monotonic() - start
        pair = statistics.median(p.child.wall_s + t.child.wall_s for p, (t, _) in zip(plain, traced))
        if elapsed + pair > seconds:
            probes.append(speed_probe())
            _apply_scales(children, probes)
            return plain, traced, probes


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def _median(values) -> float | int:
    """Median; an integer when all values are the same-valued integer counts."""
    values = list(values)
    value = statistics.median(values)
    if all(isinstance(v, int) for v in values) and value == int(value):
        return int(value)
    return float(value)


def bench(workload: Workload, seed: int, seconds: float, trace: bool, spawner: Spawner) -> dict:
    runner = Runner(spawner, time.monotonic() + DEADLINE_S)
    inp = prepare(workload, seed)
    setup_probe(inp, runner)  # warms bytecode and file caches; not a sample
    tally = Tally()
    result = {
        "workload": workload.name,
        "seed": seed,
        "instance": inp.instance,
        "graph": inp.graph,
        "environment": environment(),
    }
    if not trace:
        runs, probes, setup = timed_runs(inp, seconds, runner, tally)
        ok = [r for r in runs if r.passed]
        if not ok:
            raise BenchError(f"no timed run passed the row check: {tally.problems[:3]}")
        setup_raw = _median(s for s, _ in setup)
        metrics = {
            "wall_s": _median(r.child.wall_s * r.wall_scale for r in ok),
            "cpu_s": _median(r.child.cpu_s * r.cpu_scale for r in ok),
            "peak_rss_mb": _median(r.child.peak_rss_mb for r in ok),
            "setup_s": setup_raw * SETUP_NOMINAL_S / _median(n for _, n in setup),
        }
        result["raw"] = {
            "wall_s": _median(r.child.wall_s for r in ok),
            "cpu_s": _median(r.child.cpu_s for r in ok),
            "setup_s": setup_raw,
        }
        units = END_TO_END_UNITS
        result["runs"] = [
            {
                "code": r.child.code,
                "passed": r.passed,
                "wall_s": r.child.wall_s,
                "cpu_s": r.child.cpu_s,
                "peak_rss_mb": r.child.peak_rss_mb,
                "wall_scale": r.wall_scale,
                "cpu_scale": r.cpu_scale,
            }
            for r in runs
        ]
        result["setup_and_numpy_import_s"] = setup
        samples = {name: len(ok) for name in metrics} | {"setup_s": len(setup)}
    else:
        plain, traced, probes = traced_runs(inp, seconds, runner, tally)
        reports = [report for t, report in traced if t.passed]
        plain_ok = [p for p in plain if p.passed]
        if not reports or not plain_ok:
            raise BenchError(f"no traced and untraced pair passed the row check: {tally.problems[:3]}")
        metrics = {
            name: _median(r["metrics"][name] for r in reports)
            for name in LAYER_METRICS
            if name != "trace.overhead_s"
        }
        traced_ok = [t for t, _ in traced if t.passed]
        metrics["trace.overhead_s"] = _median(
            t.child.wall_s * t.wall_scale for t in traced_ok
        ) - _median(p.child.wall_s * p.wall_scale for p in plain_ok)
        units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
        result["missing_trace_targets"] = sorted({m for r in reports for m in r["missing"]})
        result["raw"] = {
            "trace.overhead_s": _median(t.child.wall_s for t in traced_ok)
            - _median(p.child.wall_s for p in plain_ok)
        }
        result["untraced_wall_s"] = [[p.child.wall_s, p.wall_scale] for p in plain]
        result["traced_wall_s"] = [[t.child.wall_s, t.wall_scale] for t, _ in traced]
        samples = {name: len(reports) for name in metrics}
        samples["trace.overhead_s"] = min(len(traced_ok), len(plain_ok))
    result |= {
        "speed_probes": [[p.wall_s, p.cpu_s] for p in probes],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "samples": samples,
    }
    (OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    return result


def report(result: dict) -> None:
    g, env = result["graph"], result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  instance {result['instance']}")
    print(f"input    n={g['n']} edges={g['edges']} sha256={g['sha256']}")
    print(
        f"env      python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}"
        f"  commit {env['commit'] or 'unknown'}"
    )
    verdict = "PASS" if result["failed"] == 0 else "FAIL"
    print(
        f"rows     {verdict}: {result['attempted'] - result['failed']} of {result['attempted']}"
        " runs match the reference rows and invariants, repeats byte-identical"
    )
    for problem in result["problems"][:20]:
        print(f"         {problem}")
    for name, m in result["metrics"].items():
        moves = f"  moves {LAYER_METRICS[name][0]}" if name in LAYER_METRICS else ""
        value = f"{m['value']:14d}" if isinstance(m["value"], int) else f"{m['value']:14.6f}"
        raw = f"  unscaled {result['raw'][name]:.6f}" if name in result["raw"] else ""
        print(f"{name:30s} {value} {m['unit']:6s} n={result['samples'][name]}{raw}{moves}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':30s} {frac:14.6f} {'ratio':6s} n={result['attempted']}")


def main(spawner: Spawner, argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the fldrank CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spawner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(result)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    # the metrics cover passing runs only; a failed check still fails the run
    return 0 if result["failed"] == 0 else 1

