"""Row check for the CLI's CSV output: reference rows plus schema invariants.

A timed run counts as failed when its rows differ from the reference rows
recorded for the same input (labels and integer columns exactly, floats
within ``FLOAT_TOL``) or break an invariant that holds for any input:

- compare: the overlap matrix has k on the diagonal and is symmetric;
- si: F(0) is the seed count, mean_F never decreases and never exceeds n;
- tau: |tau| <= 1 and n_c + n_d <= C(n, 2).
"""

from __future__ import annotations

import math

FLOAT_TOL = 1e-6

SCHEMAS = {
    "overlap": (("measure_a", str), ("measure_b", str), ("k", int), ("overlap", int)),
    "trajectory": (("t", int), ("mean_F", float), ("std_F", float)),
    "tau": (("lambda", float), ("tau", float), ("n_c", int), ("n_d", int)),
}


class RowError(ValueError):
    """The rows cannot be parsed against their schema."""


def parse_rows(text: str, schema: str) -> list[tuple]:
    columns = SCHEMAS[schema]
    lines = text.split("\n")
    if lines[-1] != "":
        raise RowError("output does not end with a newline")
    header, body = lines[0], lines[1:-1]
    if header != ",".join(name for name, _ in columns):
        raise RowError(f"header {header!r} does not match schema {schema}")
    rows = []
    for lineno, line in enumerate(body, start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            raise RowError(f"line {lineno}: expected {len(columns)} cells, got {len(cells)}")
        try:
            rows.append(tuple(kind(cell) for (_, kind), cell in zip(columns, cells)))
        except ValueError:
            raise RowError(f"line {lineno}: bad cell in {line!r}") from None
    return rows


def _differences(rows: list[tuple], reference: list[tuple]) -> list[str]:
    if len(rows) != len(reference):
        return [f"{len(rows)} rows, reference has {len(reference)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, reference), start=1):
        for got, want in zip(row, ref):
            same = abs(got - want) <= FLOAT_TOL if isinstance(want, float) else got == want
            if not same:
                problems.append(f"row {i}: {row} differs from reference {ref}")
                break
    return problems


def _overlap_invariants(rows, n, options) -> list[str]:
    k = int(options["--k"])
    table = {(a, b): overlap for a, b, _, overlap in rows}
    problems = []
    for (a, b), overlap in table.items():
        if a == b and overlap != k:
            problems.append(f"diagonal {a},{a} is {overlap}, expected k={k}")
        if table.get((b, a)) != overlap:
            problems.append(f"overlap {a},{b}={overlap} but {b},{a}={table.get((b, a))}")
        if not 0 <= overlap <= k:
            problems.append(f"overlap {a},{b}={overlap} outside 0..{k}")
    if any(row[2] != k for row in rows):
        problems.append(f"k column differs from {k}")
    return problems


def _trajectory_invariants(rows, n, options) -> list[str]:
    seeds = int(options["--top"])
    problems = []
    if [row[0] for row in rows] != list(range(len(rows))):
        problems.append("t column is not 0, 1, 2, ...")
    means = [row[1] for row in rows]
    if not rows or means[0] != seeds or rows[0][2] != 0.0:
        problems.append(f"F(0) is not the seed count {seeds}")
    if any(b < a for a, b in zip(means, means[1:])):
        problems.append("mean_F decreases")
    if any(m > n for m in means):
        problems.append(f"mean_F exceeds n={n}")
    return problems


def _tau_invariants(rows, n, options) -> list[str]:
    pairs = math.comb(n, 2)
    problems = []
    for lam, tau, n_c, n_d in rows:
        if not abs(tau) <= 1.0:
            problems.append(f"lambda {lam}: |tau|={abs(tau)} > 1")
        if n_c < 0 or n_d < 0 or n_c + n_d > pairs:
            problems.append(f"lambda {lam}: n_c={n_c}, n_d={n_d} outside C({n},2)={pairs}")
    return problems


_INVARIANTS = {
    "overlap": _overlap_invariants,
    "trajectory": _trajectory_invariants,
    "tau": _tau_invariants,
}


def check_rows(text: str, reference: str, schema: str, n: int, argv) -> list[str]:
    """Problems found in ``text``; an empty list means the rows pass.

    ``argv`` is the workload's subcommand and options, from which the
    invariants read k and the seed count; ``n`` is the input's node count.
    """
    try:
        rows = parse_rows(text, schema)
    except RowError as exc:
        return [str(exc)]
    options = dict(zip(argv[1::2], argv[2::2]))
    return _differences(rows, parse_rows(reference, schema)) + _INVARIANTS[schema](
        rows, n, options
    )
