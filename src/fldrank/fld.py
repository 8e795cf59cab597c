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

import numpy as np

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
    relabeling. This is the one-node case of ``fuzzy_local_dimension``'s
    counts. The counts must start with 1 and be positive.
    """
    if len(shell_counts) == 0 or shell_counts[0] != 1 or min(shell_counts) < 1:
        raise ValueError(f"shell counts must start with 1 and be positive: {shell_counts!r}")
    depth = len(shell_counts) - 1
    shells = np.array(shell_counts, dtype=np.int64).reshape(depth + 1, 1)
    counts = _fuzzy_counts(shells, _membership_table(depth))[:, 0]
    reals = tuple(accumulate(shell_counts))[1:]
    return FuzzyCountSeries(tuple(range(1, depth + 1)), tuple(counts.tolist()), reals)


def _membership_table(depth: int) -> np.ndarray:
    """``table[d, r - 1]`` is ``membership(d, r)`` for radii r = 1..depth and d = 0..r, else 0."""
    table = np.zeros((depth + 1, depth))
    for r in range(1, depth + 1):
        # membership's expression, without its argument checks
        table[: r + 1, r - 1] = [math.exp(-(d * d) / (r * r)) for d in range(r + 1)]
    return table


def _fuzzy_counts(shells: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Fuzzy counts at radii 1..w, one row per radius, of shell columns for distances 0..w.

    ``weights`` is a ``_membership_table`` at least w deep. One multiply-add
    per distance d adds shell d's count times ``membership(d, r)`` to every
    radius r >= max(d, 1), so each (radius, column) sum runs over d
    ascending from +0.0, as a left-to-right loop would: counts below 2**53
    convert to float exactly, and a zero shell past a column's own depth
    adds +0.0.
    """
    w = shells.shape[0] - 1
    totals = np.zeros((w, shells.shape[1]))
    for d in range(w + 1):
        first = max(d, 1) - 1  # row of radius max(d, 1)
        totals[first:] += np.multiply.outer(weights[d, first:w], shells[d])
    return totals / np.cumsum(shells, axis=0)[1:]


def fuzzy_local_dimension(g: Graph) -> ScoreVector:
    """Fuzzy local dimension of every node; larger means more influential.

    Per node, the slope of ln(fuzzy count) against ln(radius) over radii
    1..d_max. Negative slopes are valid scores marking peripheral nodes.
    Nodes seeing fewer than two radii cannot be fitted; they are flagged
    undefined and carry sentinel score 0, which keeps rankings total. The
    weights of every radius up to the deepest node's d_max are computed
    once and shared by all nodes; the counts are computed a block of nodes
    at a time, across the block.
    """
    weights = _membership_table(g.shell_table.shape[1] - 1)
    return _log_log_slopes(g, Measure.FLD, lambda shells: _fuzzy_counts(shells, weights))
