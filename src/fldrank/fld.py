"""Fuzzy local dimension: distance-weighted node counting and its growth slope.

Plain local dimension counts every node inside a radius with weight one.
Here each node at hop distance d inside a box of size eps contributes a
Gaussian weight exp(-d^2/eps^2) instead, so near nodes count almost fully
and the rim barely counts. Averaging those weights over the nodes inside
the box gives a fuzzy node count in (0, 1]; the slope of its log against
the log of the radius is the node's fuzzy local dimension. A node whose
fuzzy count shrinks as the box grows ends up with a negative slope, which
marks it as peripheral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .centrality import Measure, ScoreVector, _log_log_slopes
from .graph import Graph


def membership(d: float, eps: float) -> float:
    """Gaussian weight exp(-d^2/eps^2) for hop distance d in a box of size eps.

    Equals 1 exactly when d = 0, decreases strictly in d, and increases
    strictly in eps for d > 0. Unreachable nodes have no membership; the
    caller must restrict to the center's component.
    """
    if d < 0:
        raise ValueError("hop distance must be non-negative (filter unreachable nodes first)")
    if eps <= 0:
        raise ValueError("box size must be positive")
    return math.exp(-(d * d) / (eps * eps))


@dataclass(frozen=True)
class FuzzyCountSeries:
    """Fuzzy and real node counts around one center, per radius 1..d_max."""

    radii: tuple[int, ...]
    counts: tuple[float, ...]
    real_counts: tuple[int, ...]


def fuzzy_count(shell_counts: tuple[int, ...], r: int) -> tuple[float, int]:
    """Average membership over the nodes within hop distance r of the center.

    ``shell_counts[d]`` is the number of nodes at hop distance d from the
    center. The center itself (distance 0, weight 1) is included in both
    the sum and the divisor, and the box size is the radius. Returns
    ``(fuzzy count, real count)``. Weights are accumulated shell by shell so
    the result is bit-identical under any node relabeling.
    """
    d_max = len(shell_counts) - 1
    if not 1 <= r <= d_max:
        raise ValueError(f"radius {r} outside 1..{d_max}")
    total = 0.0
    count = 0
    for shell_r in range(r + 1):
        shell = shell_counts[shell_r]
        total += shell * membership(shell_r, r)
        count += shell
    return total / count, count


def fuzzy_count_series(shell_counts: tuple[int, ...]) -> FuzzyCountSeries:
    """Fuzzy counts for every radius the center can see (1..d_max)."""
    radii = tuple(range(1, len(shell_counts)))
    counts: list[float] = []
    reals: list[int] = []
    for r in radii:
        c, real = fuzzy_count(shell_counts, r)
        counts.append(c)
        reals.append(real)
    return FuzzyCountSeries(radii, tuple(counts), tuple(reals))


def fuzzy_local_dimension(g: Graph) -> ScoreVector:
    """Fuzzy local dimension of every node; larger means more influential.

    Per node, the slope of ln(fuzzy count) against ln(radius) over radii
    1..d_max. Negative slopes are valid scores marking peripheral nodes.
    Nodes seeing fewer than two radii cannot be fitted; they are flagged
    undefined and carry sentinel score 0, which keeps rankings total.
    """
    return _log_log_slopes(g, Measure.FLD, lambda shells: fuzzy_count_series(shells).counts)
