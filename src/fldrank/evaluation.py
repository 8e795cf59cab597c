"""Rank agreement: tie-aware Kendall tau, top-k overlap, tau-vs-spreading sweeps."""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections import Counter
from dataclasses import dataclass

from .centrality import (
    Measure,
    RankingList,
    ScoreVector,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
    local_dimension,
    oriented_scores,
)
from .fld import fuzzy_local_dimension
from .graph import Graph
from .si import _int_at_least, _real_in, derive_seed, spreading_ability


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


def kendall_tau(p: PairedSequence) -> TauResult:
    """Tau over all pairs, with ties counting toward neither side.

    Pairs tied in either coordinate contribute to neither n_c nor n_d but
    stay in the n(n-1)/2 denominator, so ties shrink |tau|. Knight's method
    (JASA 1966): after sorting by (w, v), the discordant pairs are exactly
    the strict inversions of v, counted here by bisecting each v into the
    sorted prefix before it; the concordant pairs then follow from the
    tie-group sizes in w, in v and in (w, v). Exact integer arithmetic
    throughout; matches brute-force pair enumeration.
    """
    n = len(p.w)
    n_d = 0
    prefix: list[float] = []
    for _, v in sorted(zip(p.w, p.v)):
        n_d += len(prefix) - bisect_right(prefix, v)
        insort(prefix, v)
    pairs_w, pairs_v, pairs_both = (
        sum(t * (t - 1) // 2 for t in Counter(values).values())
        for values in (p.w, p.v, zip(p.w, p.v))
    )
    total = n * (n - 1) // 2
    n_c = total - pairs_w - pairs_v + pairs_both - n_d
    tau = (n_c - n_d) / (0.5 * n * (n - 1))
    return TauResult(tau=tau, n_c=n_c, n_d=n_d, n=n)


def top_k_overlap(a: RankingList, b: RankingList, k: int) -> int:
    """Size of the intersection of the two top-k label sets."""
    k = _int_at_least("k", k, 1)
    if k > len(a.labels) or k > len(b.labels):
        raise ValueError("k exceeds ranking length")
    return len(set(a.top(k)) & set(b.top(k)))


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
    grid = [_real_in("lambda_grid entry", l, 0.0, 1.0, above_low=True) for l in lambda_grid]
    if not grid:
        raise ValueError("lambda grid must not be empty")
    if len(sv.scores) != g.node_count:
        raise ValueError(f"score count {len(sv.scores)} does not match node count {g.node_count}")
    keep = [i for i in range(g.node_count) if not sv.undefined[i]]
    if len(keep) < 2:
        raise ValueError("need at least two defined nodes")
    rng_seed = _int_at_least("rng_seed", rng_seed)
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
