"""Rank agreement: tie-aware Kendall tau, top-k overlap, tau-vs-spreading sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centrality import (
    Measure,
    RankingList,
    ScoreVector,
    SortDirection,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
    local_dimension,
)
from .fld import fuzzy_local_dimension
from .graph import Graph
from .si import derive_seed, spreading_ability


@dataclass(frozen=True)
class PairedSequence:
    """Two aligned per-node value sequences (scores vs. spreading ability)."""

    w: tuple[float, ...]
    v: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(float(x) for x in self.w))
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        if len(self.w) != len(self.v):
            raise ValueError("sequences must have equal length")
        if len(self.w) < 2:
            raise ValueError("need at least two pairs")
        if not all(math.isfinite(x) for x in self.w + self.v):
            raise ValueError("values must be finite")


@dataclass(frozen=True)
class TauResult:
    """Concordance summary: tau = (n_c - n_d) / (0.5 n (n-1))."""

    tau: float
    n_c: int
    n_d: int
    n: int


def _count_inversions(values: list[float]) -> int:
    """Pairs (i < j) with values[i] > values[j], by merge sort. Ties do not count."""
    a = list(values)
    n = len(a)
    buf = [0.0] * n
    inversions = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            if mid >= hi:
                continue
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if a[j] < a[i]:
                    inversions += mid - i
                    buf[k] = a[j]
                    j += 1
                else:
                    buf[k] = a[i]
                    i += 1
                k += 1
            while i < mid:
                buf[k] = a[i]
                i += 1
                k += 1
            while j < hi:
                buf[k] = a[j]
                j += 1
                k += 1
            a[lo:hi] = buf[lo:hi]
        width *= 2
    return inversions


def _tied_pairs(sorted_values) -> int:
    """Sum of t*(t-1)/2 over runs of equal values (input must be sorted)."""
    total = 0
    run = 1
    for prev, cur in zip(sorted_values, sorted_values[1:]):
        if cur == prev:
            run += 1
        else:
            total += run * (run - 1) // 2
            run = 1
    total += run * (run - 1) // 2
    return total


def kendall_tau(p: PairedSequence) -> TauResult:
    """Tau over all pairs, with ties counting toward neither side.

    Pairs tied in either coordinate contribute to neither n_c nor n_d but
    stay in the n(n-1)/2 denominator, so ties shrink |tau|. Counting uses
    the sort-and-merge scheme: after sorting by (w, v), discordant pairs
    are exactly the strict inversions of the v sequence, and concordant
    pairs follow from the tie-group counts. Exact integer arithmetic
    throughout; matches brute-force pair enumeration.
    """
    n = len(p.w)
    order = sorted(range(n), key=lambda i: (p.w[i], p.v[i]))
    w_sorted = [p.w[i] for i in order]
    v_in_w_order = [p.v[i] for i in order]
    pairs_w = _tied_pairs(w_sorted)
    pairs_both = _tied_pairs(sorted(zip(w_sorted, v_in_w_order)))
    pairs_v = _tied_pairs(sorted(p.v))
    n_d = _count_inversions(v_in_w_order)
    total = n * (n - 1) // 2
    n_c = total - pairs_w - pairs_v + pairs_both - n_d
    tau = (n_c - n_d) / (0.5 * n * (n - 1))
    return TauResult(tau=tau, n_c=n_c, n_d=n_d, n=n)


def top_k_overlap(a: RankingList, b: RankingList, k: int) -> int:
    """Size of the intersection of the two top-k label sets."""
    if k <= 0:
        raise ValueError("k must be positive")
    if k > len(a.labels) or k > len(b.labels):
        raise ValueError("k exceeds ranking length")
    return len(set(a.top(k)) & set(b.top(k)))


def oriented_scores(sv: ScoreVector) -> np.ndarray:
    """Scores flipped so that larger always means more influential."""
    if sv.direction is SortDirection.ASCENDING:
        return -sv.scores
    return sv.scores.copy()


def tau_sweep(
    g: Graph,
    sv: ScoreVector,
    lambda_grid,
    *,
    t_eval: int = 10,
    replicates: int = 100,
    rng_seed: int = 0,
) -> list[tuple[float, TauResult]]:
    """Tau between a measure and simulated spreading ability, per infection rate.

    For each rate, every defined node is seeded alone and its mean infected
    count at t_eval (over ``replicates`` runs) becomes the ground-truth
    value; tau then compares that against the measure's scores, oriented so
    that larger means more influential. Undefined nodes are dropped from
    the pairing. Each (rate, node) pair gets its own derived seed, so the
    sweep is deterministic end to end.
    """
    grid = [float(l) for l in lambda_grid]
    if not grid:
        raise ValueError("lambda grid must not be empty")
    if any(not 0.0 < l <= 1.0 for l in grid):
        raise ValueError("lambda values must lie in (0, 1]")
    keep = [i for i in range(g.node_count) if not sv.undefined[i]]
    if len(keep) < 2:
        raise ValueError("need at least two defined nodes")
    w = tuple(float(x) for x in oriented_scores(sv)[keep])
    results: list[tuple[float, TauResult]] = []
    for li, lam in enumerate(grid):
        ability = tuple(
            spreading_ability(
                g,
                node,
                lam,
                t_eval=t_eval,
                replicates=replicates,
                rng_seed=derive_seed(rng_seed, li, node),
            )
            for node in keep
        )
        results.append((lam, kendall_tau(PairedSequence(w, ability))))
    return results


def compute_measure(g: Graph, measure: Measure | str) -> ScoreVector:
    """Score a graph with any of the six measures."""
    m = Measure(measure) if isinstance(measure, str) else measure
    if m is Measure.DC:
        return degree_centrality(g)
    if m is Measure.BC:
        return betweenness_centrality(g)
    if m is Measure.EC:
        return eigenvector_centrality(g)[0]
    if m is Measure.CC:
        return closeness_centrality(g)
    if m is Measure.LD:
        return local_dimension(g)
    return fuzzy_local_dimension(g)
