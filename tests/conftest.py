"""Shared fixtures, small graph builders, and independent test oracles.

The oracles here deliberately take the dumbest correct route (explicit path
enumeration, quadratic pair counting, the textbook regression formula in
exact fractions) so they stay independent of the production algorithms they
check.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np
import pytest

from fldrank import UNREACHABLE, Graph, membership, replicate_rng
from fldrank.datasets import load_karate, load_kite
from fldrank.graph import _bfs


@pytest.fixture(scope="session")
def kite() -> Graph:
    return load_kite()


@pytest.fixture(scope="session")
def karate() -> Graph:
    return load_karate()


def cycle_graph(n: int) -> Graph:
    return Graph.build([(str(i), str((i + 1) % n)) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.build([(str(i), str(i + 1)) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return Graph.build([("c", f"l{i}") for i in range(leaves)])


def complete_graph(n: int) -> Graph:
    return Graph.build([(str(i), str(j)) for i in range(n) for j in range(i + 1, n)])


def ladder_graph(rungs: int) -> Graph:
    """Two paths of ``rungs`` nodes, joined rung by rung."""
    edges = [(f"a{i}", f"b{i}") for i in range(rungs)]
    for i in range(rungs - 1):
        edges += [(f"a{i}", f"a{i + 1}"), (f"b{i}", f"b{i + 1}")]
    return Graph.build(edges)


def binary_tree_graph(n: int) -> Graph:
    """Nodes 0..n-1, node i the parent of 2i + 1 and 2i + 2."""
    return Graph.build([(str((i - 1) // 2), str(i)) for i in range(1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """A rows x cols lattice, node "i,j" joined to its right and lower neighbors."""
    edges = [(f"{i},{j}", f"{i},{j + 1}") for i in range(rows) for j in range(cols - 1)]
    edges += [(f"{i},{j}", f"{i + 1},{j}") for i in range(rows - 1) for j in range(cols)]
    return Graph.build(edges)


def prufer_tree_graph(n: int, rng: np.random.Generator) -> Graph:
    """The labeled tree on "0".."n-1" (n >= 2) of a uniformly drawn Prufer sequence.

    Decoded with a heap of leaves: each sequence entry is joined to the
    smallest current leaf, and the last two leaves are joined at the end.
    """
    sequence = rng.integers(n, size=n - 2).tolist()
    degree = [1] * n
    for v in sequence:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in sequence:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.build((str(a), str(b)) for a, b in edges)


def barabasi_albert_graph(n: int, m: int, seed: int) -> Graph:
    """Preferential attachment from a star on m + 1 nodes, m distinct targets per new node."""
    rng = np.random.default_rng(seed)
    edges = [(0, v) for v in range(1, m + 1)]
    endpoints = [u for e in edges for u in e]
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(endpoints[int(rng.integers(len(endpoints)))])
        for u in sorted(targets):
            edges.append((u, v))
            endpoints += (u, v)
    return Graph.build((str(a), str(b)) for a, b in edges)


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Erdos-Renyi style graph with labels '0'..'n-1'; may be disconnected."""
    edges = [
        (str(i), str(j))
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return Graph.build(edges, nodes=[str(i) for i in range(n)])


def relabeled(g: Graph, mapping: dict[str, str], rng: np.random.Generator) -> Graph:
    """Same structure under new labels, with shuffled input order.

    Shuffling both the edge order and the endpoint orientation exercises
    the internal-ID assignment, which scores must not depend on.
    """
    edges = []
    for v in range(g.node_count):
        for u in g.adjacency[v]:
            if v < u:
                a, b = mapping[g.node_labels[v]], mapping[g.node_labels[u]]
                edges.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(edges)
    labels = [mapping[l] for l in g.node_labels]
    rng.shuffle(labels)
    return Graph.build(edges, nodes=labels)


def scores_by_label(g: Graph, sv) -> dict[str, float | None]:
    """Label-keyed view of a score vector; undefined nodes map to None."""
    return {
        label: (None if sv.undefined[i] else float(sv.scores[i]))
        for i, label in enumerate(g.node_labels)
    }


@dataclass(frozen=True)
class DistanceField:
    """Single-source BFS result.

    ``dist[j]`` is the hop distance from ``source`` to ``j``, or UNREACHABLE
    when ``j`` lies in another component. ``d_max`` is the eccentricity of
    the source within its component and ``shell_counts[r]`` the number of
    nodes at distance exactly ``r`` (``shell_counts[0] == 1``).
    """

    source: int
    dist: tuple[int, ...]
    d_max: int
    shell_counts: tuple[int, ...]


def bfs_distances(g: Graph, source: int) -> DistanceField:
    """Exact hop distances from ``source`` by breadth-first search."""
    if not 0 <= source < g.node_count:
        raise ValueError(f"source {source} out of range for {g.node_count} nodes")
    dist = [UNREACHABLE] * g.node_count
    order = _bfs(g, source, dist)
    d_max = dist[order[-1]]
    shells = [0] * (d_max + 1)
    for v in order:
        shells[dist[v]] += 1
    return DistanceField(source, tuple(dist), d_max, tuple(shells))


def shell_rows(g: Graph) -> list[tuple[int, ...]]:
    """Each node's shell counts as the shell table holds them: its row cut at its depth."""
    return [tuple(row[: np.count_nonzero(row)]) for row in g.shell_table.tolist()]


def check_shell_table(g: Graph) -> list[tuple[int, ...]]:
    """Assert that row s of the shell table is ``bfs_distances(g, s).shell_counts``, then zeros.

    Also checks the table's shape, dtype and read-only flag, and returns the
    reference shell counts.
    """
    references = [bfs_distances(g, s).shell_counts for s in range(g.node_count)]
    table = g.shell_table
    assert table.dtype == np.int64 and not table.flags.writeable
    assert table.shape == (g.node_count, max(map(len, references), default=1))
    for row, shells in zip(table.tolist(), references):
        assert tuple(row[: len(shells)]) == shells
        assert not any(row[len(shells) :])
    return references


def brute_force_path_counts(g: Graph) -> tuple[list[int], int]:
    """Shortest-path counting by explicit enumeration of every path.

    Returns per-node interior-path counts over ordered pairs plus the total
    path count, both exact integers. Exponential; intended for tiny graphs.
    """
    n = g.node_count
    fields = [bfs_distances(g, s) for s in range(n)]
    numerators = [0] * n
    denominator = 0
    for s in range(n):
        dist = fields[s].dist
        for t in range(n):
            if t == s or dist[t] == UNREACHABLE:
                continue
            paths: list[list[int]] = []

            def extend(v: int, path: list[int]) -> None:
                if v == t:
                    paths.append(list(path))
                    return
                for u in g.adjacency[v]:
                    if (
                        dist[u] == dist[v] + 1
                        and fields[u].dist[t] == dist[t] - dist[u]
                    ):
                        path.append(u)
                        extend(u, path)
                        path.pop()

            extend(s, [s])
            denominator += len(paths)
            for path in paths:
                for v in path[1:-1]:
                    numerators[v] += 1
    return numerators, denominator


def oracle_path_counts(g: Graph) -> tuple[list[int], int]:
    """``shortest_path_counts`` as one Python BFS per source on adjacency tuples.

    The per-source loop the CSR block kernel replaced, kept as its exact
    reference: path counts ``sigma`` forward, downstream counts backward.
    """
    n = g.node_count
    numerators = [0] * n
    denominator = 0
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        dist[s] = 0
        sigma[s] = 1
        order: list[int] = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in g.adjacency[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
                if dist[u] == dist[v] + 1:
                    sigma[u] += sigma[v]
        downstream = [0] * n
        for v in reversed(order):
            acc = 0
            for u in g.adjacency[v]:
                if dist[u] == dist[v] + 1:
                    acc += 1 + downstream[u]
            downstream[v] = acc
        denominator += downstream[s]
        for v in order:
            if v != s:
                numerators[v] += sigma[v] * downstream[v]
    return numerators, denominator


def diamond_chain(links: int) -> Graph:
    """``links`` diamonds end to end: 2**links shortest paths from end to end."""
    edges = []
    for i in range(links):
        for mid in (f"b{i}", f"c{i}"):
            edges += [(f"a{i}", mid), (mid, f"a{i + 1}")]
    return Graph.build(edges)


def closed_form_slope(x, y) -> float:
    """Regression slope in the uncentered algebraic form, rounded once.

    The sums are exact fractions: in floats, the differences of products
    cancel catastrophically when x varies little against its mean.
    """
    x = [Fraction(a) for a in x]
    y = [Fraction(b) for b in y]
    n = len(x)
    sx = sum(x)
    sy = sum(y)
    sxy = sum(a * b for a, b in zip(x, y))
    sxx = sum(a * a for a in x)
    return float((n * sxy - sx * sy) / (n * sxx - sx * sx))


def loop_slope(xs, ys) -> float:
    """Least-squares slope of ys on xs, centered form, each sum an explicit left-to-right loop."""
    n = len(xs)
    sum_x = sum_y = 0
    for a, b in zip(xs, ys):
        sum_x += a
        sum_y += b
    x_bar, y_bar = sum_x / n, sum_y / n
    num = den = 0
    for a, b in zip(xs, ys):
        num += (a - x_bar) * (b - y_bar)
        den += (a - x_bar) ** 2
    return num / den


def oracle_fuzzy_counts(shell_counts) -> list[float]:
    """Fuzzy counts at radii 1..d_max of one node, by the per-node loop.

    For each radius r, shell d's size times ``membership(d, r)``, summed
    over d = 0..r left to right from 0.0, over the real count within r.
    """
    counts = []
    for r in range(1, len(shell_counts)):
        total = 0.0
        for shell, weight in zip(shell_counts, _memberships(r)):  # d = 0..r
            total += shell * weight
        counts.append(total / sum(shell_counts[: r + 1]))
    return counts


@lru_cache(maxsize=None)
def _memberships(r: int) -> tuple[float, ...]:
    """``membership(d, r)`` for d = 0..r."""
    return tuple(membership(d, r) for d in range(r + 1))


def oracle_ball_sizes(shell_counts) -> list[int]:
    """Nodes within radius r of one node, for r = 1..d_max."""
    return list(accumulate(shell_counts))[1:]


def oracle_log_log_slopes(g: Graph, counts_of) -> tuple[np.ndarray, np.ndarray]:
    """Per node, ``loop_slope`` of ln(counts) on ln(radius), and the undefined mask.

    The per-node loop behind ld (``counts_of`` = ``oracle_ball_sizes``) and
    fld (``oracle_fuzzy_counts``): a node seeing fewer than two radii is
    undefined with score 0.
    """
    scores = np.zeros(g.node_count)
    undefined = np.zeros(g.node_count, dtype=bool)
    for i in range(g.node_count):
        shells = bfs_distances(g, i).shell_counts
        if len(shells) < 3:
            undefined[i] = True
            continue
        xs = [math.log(r) for r in range(1, len(shells))]
        scores[i] = loop_slope(xs, [math.log(c) for c in counts_of(shells)])
    return scores, undefined


def oracle_closeness(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per node, 1 / (summed hop distances within its component), and the undefined mask."""
    scores = np.zeros(g.node_count)
    undefined = np.zeros(g.node_count, dtype=bool)
    for i in range(g.node_count):
        total = sum(d for d in bfs_distances(g, i).dist if d != UNREACHABLE)
        if total == 0:
            undefined[i] = True
        else:
            scores[i] = 1.0 / total
    return scores, undefined


def brute_force_tau(w, v) -> tuple[int, int]:
    """Concordant/discordant counts by quadratic pair enumeration."""
    w = [float(x) for x in w]
    v = [float(x) for x in v]
    n = len(w)
    n_c = n_d = 0
    for i in range(n):
        for j in range(i + 1, n):
            sign = ((w[i] > w[j]) - (w[i] < w[j])) * ((v[i] > v[j]) - (v[i] < v[j]))
            if sign > 0:
                n_c += 1
            elif sign < 0:
                n_d += 1
    return n_c, n_d


def oracle_si_step(
    g: Graph, infected: np.ndarray, lam: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-contact SI update, one uniform per contact in contact order.

    Walks infected sources ascending, then their neighbors in adjacency
    order; the batched kernel must consume the same draws in the same order.
    """
    targets: list[int] = []
    for v in np.flatnonzero(infected):
        for u in g.adjacency[int(v)]:
            if not infected[u]:
                targets.append(u)
    if not targets:
        return np.empty(0, dtype=np.int64)
    arr = np.asarray(targets, dtype=np.int64)
    hits = arr[rng.random(arr.size) < lam]
    return np.unique(hits)


@dataclass(frozen=True)
class SiTrajectory:
    """Infected counts F(0), F(1), ... of one oracle replicate.

    ``terminated_at`` is the step at which no further infection was
    possible (or the step cap); F is constant from there on.
    """

    f: tuple[int, ...]
    terminated_at: int


def same_runs(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two ``replicate_counts`` tables hold the same runs.

    A table is as long as its slowest run, so the shorter one is padded
    with each row's terminal count before the comparison.
    """
    length = max(a.shape[1], b.shape[1])
    a, b = (np.pad(t, ((0, 0), (0, length - t.shape[1])), mode="edge") for t in (a, b))
    return np.array_equal(a, b)


def oracle_trajectory(
    g: Graph, seeds, lam: float, max_steps: int | None, rng: np.random.Generator
) -> SiTrajectory:
    """One replicate, stepped by ``oracle_si_step`` until nothing can change.

    Without a cap, the cap is 10 times the diameter (at least 1), taken
    from single-source BFS.
    """
    if max_steps is None:
        ecc = (bfs_distances(g, s).d_max for s in range(g.node_count))
        max_steps = 10 * max(max(ecc, default=0), 1)
    infected = np.zeros(g.node_count, dtype=bool)
    infected[list(seeds)] = True
    f = [int(infected.sum())]
    t = 0
    while t < max_steps:
        has_contact = any(
            not infected[u] for v in np.flatnonzero(infected) for u in g.adjacency[int(v)]
        )
        if lam == 0.0 or not has_contact:
            break
        infected[oracle_si_step(g, infected, lam, rng)] = True
        f.append(int(infected.sum()))
        t += 1
    return SiTrajectory(tuple(f), terminated_at=t)


def oracle_ability(
    g: Graph, node: int, lam: float, t_eval: int, replicates: int, rng_seed: int
) -> float:
    """Mean infected count at step t_eval over ``oracle_trajectory`` runs seeded at ``node``.

    Replicate k steps on numpy's own ``replicate_rng(rng_seed, k)``; a run
    that stops early keeps its terminal count.
    """
    values = []
    for k in range(replicates):
        f = oracle_trajectory(g, (node,), lam, t_eval, replicate_rng(rng_seed, k)).f
        values.append(f[min(t_eval, len(f) - 1)])
    return float(np.mean(np.asarray(values, dtype=np.float64)))


def oracle_tree_mean(shells, t: int, lam: float) -> float:
    """Exact mean SI count at step t from one seed on a tree; a lower bound on any graph.

    ``shells[d]`` counts the nodes at hop distance d from the seed. Each
    contact transmits after a Geometric(lam) delay, so a node at distance d
    on a tree is infected by step t exactly when at least d of t
    Bernoulli(lam) trials succeed: the mean is the sum over d of
    shells[d] * P(Binomial(t, lam) >= d). Off trees a node is never infected
    later than along one of its shortest paths, so the sum is a lower bound.
    """
    pmf = [math.comb(t, k) * lam**k * (1 - lam) ** (t - k) for k in range(t + 1)]
    return sum(shell * sum(pmf[d:]) for d, shell in enumerate(shells))


def oracle_ibmf_mean(g: Graph, seed: int, lam: float, t: int) -> float:
    """Individual-based mean-field SI count at step t from one seed; an upper bound on any graph.

    q(0) marks the seed, and q_v(s + 1) = 1 - (1 - q_v(s)) * prod over u ~ v
    of (1 - lam * q_u(s)). Every state is an increasing function of the
    independent trials, one per (step, contact), so Harris' inequality gives
    P(v susceptible at s + 1) >= P(v susceptible at s) * prod of
    (1 - lam * P(u infected at s)); the recursion is increasing in q, so by
    induction q_v(t) >= P(v infected by step t), and the sum bounds the mean
    count from above. Not exact even on trees, where it counts a parent's
    infection as independent of its child's.
    """
    q = np.zeros(g.node_count)
    q[seed] = 1.0
    for _ in range(t):
        escape = [math.prod(1.0 - lam * q[u] for u in g.adjacency[v]) for v in range(g.node_count)]
        q = 1.0 - (1.0 - q) * np.asarray(escape)
    return float(q.sum())


def exact_si_mean(g: Graph, source: int, lam: float, t: int) -> float:
    """Exact mean SI count at step t from one seed, on any graph of at most 12 nodes.

    Synchronous SI is a Markov chain on the infected set S: from S, each
    susceptible node with k infected neighbors turns infected independently
    with probability 1 - (1 - lam)^k. The distribution over the infected
    sets, as bitmasks, is pushed forward t steps, one susceptible node's
    branch at a time. It can hold 2^n sets, so larger graphs raise.
    """
    n = g.node_count
    if n > 12:
        raise ValueError(f"exact SI means take at most 12 nodes, got {n}")
    neighbors = [sum(1 << u for u in g.adjacency[v]) for v in range(n)]
    states = {1 << source: 1.0}
    for _ in range(t):
        pushed: dict[int, float] = {}
        for infected, p in states.items():
            branches = {infected: p}
            for v in range(n):
                k = bin(neighbors[v] & infected).count("1")
                if k == 0 or infected >> v & 1:
                    continue
                q = 1.0 - (1.0 - lam) ** k
                split: dict[int, float] = {}
                for state, w in branches.items():
                    if q > 0.0:
                        split[state | 1 << v] = w * q
                    if q < 1.0:
                        split[state] = w * (1.0 - q)
                branches = split
            for state, w in branches.items():
                pushed[state] = pushed.get(state, 0.0) + w
        states = pushed
    return sum(p * bin(state).count("1") for state, p in states.items())


def coupled_infected_sets(
    g: Graph,
    seeds,
    lam_lo: float,
    lam_hi: float,
    steps: int,
    rng: np.random.Generator,
):
    """Run two infection chains sharing one uniform per (step, contact).

    Independent reference dynamics for the monotonicity-in-lambda property:
    with shared randomness, the low-rate infected set must stay inside the
    high-rate one at every step.
    """
    lo = set(seeds)
    hi = set(seeds)
    draws: dict[tuple[int, int, int], float] = {}

    def shared(t: int, v: int, u: int) -> float:
        key = (t, v, u)
        if key not in draws:
            draws[key] = float(rng.random())
        return draws[key]

    history = [(set(lo), set(hi))]
    for t in range(steps):
        new_lo = {
            u
            for v in sorted(lo)
            for u in g.adjacency[v]
            if u not in lo and shared(t, v, u) < lam_lo
        }
        new_hi = {
            u
            for v in sorted(hi)
            for u in g.adjacency[v]
            if u not in hi and shared(t, v, u) < lam_hi
        }
        lo |= new_lo
        hi |= new_hi
        history.append((set(lo), set(hi)))
    return history
