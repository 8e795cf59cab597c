"""Benchmark of the fldrank CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout holding ``src/fldrank``. Each timed run is
a real CLI invocation in a fresh process (``python3 -m fldrank.cli``) on an
edge-list file the benchmark builds from the seed; the program sees only
that file. Runs repeat until ``--seconds`` would be exceeded, and every
timing is the median over the repeats.

With ``--trace 0`` it reports, per workload:

- wall_s: child wall time from spawn until exit, after the rows and
  manifest are written;
- cpu_s: the child's user+sys CPU time, from ``os.wait4``;
- peak_rss_mb: the child's own max RSS, from ``os.wait4`` (unlike
  RUSAGE_CHILDREN, not a maximum over earlier children), taken in a small
  spawner process (``spawner.py``) so that the benchmark's own memory
  does not leak into it;
- setup_s: ``import fldrank`` plus ``load_edge_list`` in a fresh process,
  the median of SETUP_PER_RUN probes before each timed run.

With ``--trace 1`` it alternates an untraced run with a traced one
(``tracer.py``) and reports the per-layer metrics of the traced runs and
``trace.overhead_s``, the traced minus the untraced median wall time.

Every child runs between two speed probes (``bench.py``,
PROBE_NOMINAL_S); wall_s and trace.overhead_s are scaled by the probes'
wall time, cpu_s by their CPU time, and setup_s by a bare ``import
numpy`` timed after each setup sample (SETUP_NOMINAL_S), to cancel the
drift of a shared machine's speed. The unscaled medians are printed
beside them.

Every run's rows are checked (``rowcheck.py``) and all repeats must write
byte-identical rows; a run that exits non-zero or fails the check counts
in ``failed`` and is left out of the medians, and the benchmark then
exits with code 1. Details of every run go to ``.perfbench_out/``; the
last line of stdout is the JSON result.
"""

import sys

from spawner import Spawner

if __name__ == "__main__":
    # the spawner is forked before bench imports numpy and builds the inputs
    with Spawner() as spawner:
        import bench

        code = bench.main(spawner)
    sys.exit(code)
