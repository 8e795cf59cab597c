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
from itertools import accumulate

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


def fuzzy_count_series(shell_counts: tuple[int, ...]) -> FuzzyCountSeries:
    """Fuzzy and real node counts for every radius the center can see (1..d_max).

    ``shell_counts[d]`` is the number of nodes at hop distance d from the
    center. At radius r the box size is r, and the fuzzy count is the
    membership summed over the nodes within r, divided by their real count;
    the center (distance 0, weight 1) is in both. Weights are summed shell
    by shell, left to right, so the result is bit-identical under any node
    relabeling.
    """
    return _series(shell_counts, _membership_table(len(shell_counts) - 1))


def _membership_table(depth: int) -> list[list[float]]:
    """``table[r - 1][d]`` is ``membership(d, r)``, for radii r = 1..depth and d = 0..r."""
    return [[membership(d, r) for d in range(r + 1)] for r in range(1, depth + 1)]


def _series(shell_counts: tuple[int, ...], table: list[list[float]]) -> FuzzyCountSeries:
    """``fuzzy_count_series`` with the weights read from a table at least as deep."""
    radii = tuple(range(1, len(shell_counts)))
    reals = tuple(accumulate(shell_counts))[1:]
    counts: list[float] = []
    for weights, real in zip(table, reals):
        total = 0.0
        for shell, weight in zip(shell_counts, weights):  # d = 0..r
            total += shell * weight
        counts.append(total / real)
    return FuzzyCountSeries(radii, tuple(counts), reals)


def fuzzy_local_dimension(g: Graph) -> ScoreVector:
    """Fuzzy local dimension of every node; larger means more influential.

    Per node, the slope of ln(fuzzy count) against ln(radius) over radii
    1..d_max. Negative slopes are valid scores marking peripheral nodes.
    Nodes seeing fewer than two radii cannot be fitted; they are flagged
    undefined and carry sentinel score 0, which keeps rankings total. The
    weights of every radius up to the deepest node's d_max are computed
    once and shared by all nodes.
    """
    table = _membership_table(max(map(len, g.shell_counts), default=1) - 1)
    return _log_log_slopes(g, Measure.FLD, lambda shells: _series(shells, table).counts)
