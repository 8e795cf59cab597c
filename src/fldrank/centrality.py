"""Baseline node-importance measures and ranking machinery.

Degree, closeness, betweenness, eigenvector and local dimension, each
returned as a ScoreVector; ``oriented_scores`` holds the one rule for which
end of a measure's scale means "most influential". All operations are pure
functions of the immutable graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .graph import Graph, contact_ids, disjoint_copies, distinct_cells

# Contact budget of one betweenness source block. A block of w sources
# holds w * n cells, w copies of the contact arrays and up to w times the
# directed edges as DAG edges, so w is this over the directed edge count
# (or node count, when larger): a block holds about this many entries of
# each kind, however many sources the graph has.
_BLOCK_CONTACTS = 2**16
_INT64_LIMIT = 2**63
# (radius, node) cells of one node block of the log-log slope pass; a block
# holds a few float arrays of this size
_BLOCK_CELLS = 2**16
# values per list of the slope pass's math.log calls, whose Python floats
# would otherwise take several times the block's arrays
_LOG_CHUNK = 2**10
# Power iteration for ec stops once no entry moves by _EC_TOL in one step.
_EC_TOL = 1e-12
_EC_MAX_ITER = 10_000
# When it stalls, restarted Lanczos finishes: _LANCZOS_STEPS basis vectors
# per restart, at most _EC_RESTARTS restarts, until |Ax - lambda x| < _EC_TOL.
_LANCZOS_STEPS = 64
_EC_RESTARTS = 2_000


class Measure(Enum):
    DC = "dc"
    CC = "cc"
    BC = "bc"
    EC = "ec"
    LD = "ld"
    FLD = "fld"


class PowerIterationError(RuntimeError):
    """Neither power iteration nor its Lanczos finish converged within their caps."""


@dataclass(frozen=True)
class ScoreVector:
    """Per-node scores for one measure.

    ``undefined[i]`` flags nodes where the measure has no principled value
    (for example closeness of an isolated node); their ``scores`` entry is
    a sentinel and must not be interpreted.
    """

    measure: Measure
    scores: np.ndarray
    undefined: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        object.__setattr__(self, "undefined", np.asarray(self.undefined, dtype=bool))
        if self.scores.shape != self.undefined.shape:
            raise ValueError("scores and undefined mask must have the same length")
        defined = self.scores[~self.undefined]
        if defined.size and not np.all(np.isfinite(defined)):
            raise ValueError("defined scores must be finite")


def oriented_scores(sv: ScoreVector) -> np.ndarray:
    """Scores flipped so that larger always means more influential.

    Only local dimension ranks ascending: a hub's ball is already large at
    radius 1, so it grows by a smaller power of the radius.
    """
    return -sv.scores if sv.measure is Measure.LD else sv.scores.copy()


@dataclass(frozen=True)
class RankingList:
    """Total order over node labels, most influential first.

    Defined nodes come first, sorted by score in the measure's direction
    with ties broken by ascending label; undefined nodes follow, ordered by
    label, so the order stays total for rank-correlation work.
    """

    measure: Measure
    labels: tuple[str, ...]
    scores: tuple[float, ...]
    undefined: tuple[bool, ...]

    def top(self, k: int) -> tuple[str, ...]:
        return self.labels[:k]


def label_sort_key(label: str):
    """Ascending label order, comparing numerically when both sides are integers."""
    body = label[1:] if label[:1] == "-" else label
    if body.isdecimal():  # exactly the digits int() reads; '²' is a digit, not decimal
        return (0, int(label), label)
    return (1, 0, label)


def rank_nodes(sv: ScoreVector, labels: tuple[str, ...]) -> RankingList:
    """Deterministic ranking of all nodes from a score vector.

    One stable ``np.lexsort`` on (undefined, negated oriented score, label
    position); the label positions are computed once per label tuple.
    """
    if len(labels) != len(sv.scores):
        raise ValueError("label count does not match score count")
    # undefined nodes last; -0.0 == 0.0, so signed zeros tie and fall back to labels
    negated = np.where(sv.undefined, 0.0, -oriented_scores(sv))
    order = np.lexsort((_label_positions(tuple(labels)), negated, sv.undefined))
    return RankingList(
        measure=sv.measure,
        labels=tuple(map(labels.__getitem__, order.tolist())),
        scores=tuple(sv.scores[order].tolist()),
        undefined=tuple(sv.undefined[order].tolist()),
    )


@lru_cache(maxsize=8)
def _label_positions(labels: tuple[str, ...]) -> np.ndarray:
    """Each label's place in ascending ``label_sort_key`` order."""
    order = sorted(range(len(labels)), key=lambda i: label_sort_key(labels[i]))
    positions = np.empty(len(labels), dtype=np.intp)
    positions[order] = np.arange(len(labels))
    positions.setflags(write=False)
    return positions


def _sum(values):
    """Left-to-right sum: the built-in sum() of floats is compensated from Python 3.12 on."""
    total = 0
    for v in values:
        total += v
    return total


def degree_centrality(g: Graph) -> ScoreVector:
    """Neighbor count per node."""
    scores = np.array([len(ns) for ns in g.adjacency], dtype=np.float64)
    return ScoreVector(Measure.DC, scores, np.zeros(g.node_count, dtype=bool))


def closeness_centrality(g: Graph) -> ScoreVector:
    """Reciprocal of the summed hop distances to every other node.

    The sum runs over the node's own component only; nodes in singleton
    components have no distance sum at all and are flagged undefined. The
    sums are exact: one int64 product of the shell table with the distances.
    """
    table = g.shell_table
    totals = table @ np.arange(table.shape[1])
    undefined = totals == 0
    scores = np.divide(1.0, totals, out=np.zeros(g.node_count), where=~undefined)
    return ScoreVector(Measure.CC, scores, undefined)


def shortest_path_counts(g: Graph) -> tuple[list[int], int]:
    """Raw shortest-path counts behind the betweenness ratio.

    Returns ``(numerators, denominator)`` where ``numerators[i]`` is the
    number of shortest paths over all ordered pairs (s, t), s != t != i,
    that pass through ``i`` as an interior node, and ``denominator`` is the
    total number of shortest paths over all ordered pairs in the same
    component. Both are exact integers.

    Per source, a BFS records path counts ``sigma`` into each node; a
    reverse sweep then counts, for every node v, the shortest paths that
    start at v and end strictly farther from the source:

        downstream[v] = sum over successors u of (1 + downstream[u])

    Every shortest path through v decomposes as (source -> v) x (v ->
    target), so v's contribution for this source is sigma[v] *
    downstream[v], and downstream[source] is the source's share of the
    denominator.

    Both sweeps (Brandes, J. Math. Sociol. 2001) run level by level over the
    CSR contact arrays for a block of sources at once. Each forward level
    is direction-optimizing (Beamer, Asanovic & Patterson, SC 2012): it
    expands either the frontier's contacts or the unseen nodes' contacts,
    whichever are fewer. Both find the same DAG edges, so the direction
    moves only the cost. The counts are int64 and become Python ints within
    a block once they could reach 2**63, so each block runs once and the
    results stay exact. The blocks' numerators are summed in int64 while the
    sum of their maxima stays below 2**63, and as Python ints from there on.
    """
    n = g.node_count
    width = max(1, min(n, _BLOCK_CONTACTS // max(g.edge_arrays[1].size, n, 1)))
    # one disjoint copy of the graph per source of a block
    copies, heads = disjoint_copies(g, width)
    tails = np.repeat(np.arange(width * n), np.diff(copies))
    max_degree = int(np.diff(g.edge_arrays[0]).max(initial=0))
    numerators = np.zeros(n, dtype=np.int64)
    denominator = 0
    # at least every numerator so far: the sum of the parts' maxima
    bound = 0
    for first in range(0, n, width):
        sources = np.arange(first, min(first + width, n))
        part, share = _block_path_counts(n, copies, heads, tails, max_degree, sources)
        bound += int(part.max(initial=0))
        if part.dtype == object or bound >= _INT64_LIMIT:
            # Python ints from here on, the parts too: an int64 part would add numpy scalars
            bound = _INT64_LIMIT
            numerators = numerators.astype(object, copy=False)
            part = part.astype(object, copy=False)
        numerators += part
        denominator += share
    return numerators.tolist(), denominator


def _block_path_counts(
    n: int,
    copies: np.ndarray,
    heads: np.ndarray,
    tails: np.ndarray,
    max_degree: int,
    sources: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Numerator parts and denominator share of a block of sources.

    Cell ``b * n + v`` holds node v as seen from ``sources[b]``, in copy b of
    the graph (CSR ``copies``, contact ends ``heads`` and ``tails``). A forward
    level's shortest-path DAG edges, along which sigma flows, are the
    contacts between its frontier and the unseen cells. Top-down, the level
    expands the frontier cells' contacts and keeps those that reach unseen
    cells. Bottom-up, it expands the unseen cells' contacts and keeps those
    whose other end is in the frontier. It goes bottom-up when the unseen
    cells have fewer contacts than the frontier. A thin frontier, whose size
    times ``max_degree`` is at most half the contacts of the frontier and the
    unseen cells together, goes top-down without counting its contacts. A
    thin level takes its next frontier by a slot pass over the kept heads,
    any other level from the cells that turned seen. The backward sweep
    replays the DAG edges in reverse to sum downstream counts. Both run in
    int64. Before a backward level whose counts could reach 2**63 (a count
    so far of ``limit`` - 1 or more), the downstream counts turn to Python
    ints, and sigma is recounted on them.
    """
    width = sources.size
    cells = np.arange(width) * n + sources
    unseen = np.ones(width * n, dtype=bool)
    unseen[cells] = False
    sigma = np.zeros(width * n, dtype=np.int64)
    sigma[cells] = 1
    slot = np.empty(width * n, dtype=np.intp)
    dag: list[tuple[np.ndarray, np.ndarray]] = []
    frontier = cells
    # contacts of the cells not yet expanded: the frontier's and the unseen cells'
    reach = int(copies[width * n])
    while frontier.size:
        # a level goes the way that expands fewer contacts, and a thin
        # frontier's size bound shows it top-down with no numpy call
        thin = 2 * frontier.size * max_degree <= reach
        if thin or 2 * int((copies[1:].take(frontier) - copies.take(frontier)).sum()) <= reach:
            contacts, _ = contact_ids(copies, frontier)
            head = heads.take(contacts)
            fresh = unseen.take(head)
            head, tail = head.compress(fresh), tails.take(contacts.compress(fresh))
            reach -= contacts.size
        else:
            # bottom-up: of the unseen cells' contacts, those from the frontier
            front = np.zeros(width * n, dtype=bool)
            front[frontier] = True
            contacts, _ = contact_ids(copies, np.flatnonzero(unseen))
            tail = heads.take(contacts)
            kept = front.take(tail)
            tail, head = tail.compress(kept), tails.take(contacts.compress(kept))
            reach = contacts.size  # every contact left is an unseen cell's
        if not thin:
            was = unseen.copy()
        unseen[head] = False
        np.add.at(sigma, head, sigma.take(tail))
        dag.append((tail, head))
        if thin:
            frontier = distinct_cells(head, slot)
        else:
            # the cells that turned seen, in cell order
            frontier = np.flatnonzero(was != unseen)
    down = np.zeros(width * n, dtype=np.int64)
    top_down = 0
    # a node gathers from at most max-degree DAG neighbors: their counts below this sum below 2**63
    limit = _INT64_LIMIT // max(1, max_degree)
    for tail, head in reversed(dag):
        # the bound runs ahead of the level, so every count so far is exact
        if top_down + 1 >= limit and down.dtype != object:
            down = down.astype(object)
        np.add.at(down, tail, 1 + down.take(head))
        top_down = max(top_down, int(down.take(tail).max(initial=0)))
    # sigma[t] counts some of the paths that down[source] counts, so sigma can
    # have wrapped only if down widened; per node, the block sums up to width
    # products sigma * down
    if down.dtype == object or int(sigma.max()) * top_down * width >= _INT64_LIMIT:
        sigma = np.zeros(width * n, dtype=object)
        sigma[cells] = 1
        for tail, head in dag:
            np.add.at(sigma, head, sigma[tail])
        down = down.astype(object)
    share = int(down[cells].sum())
    down[cells] = 0
    return (sigma * down).reshape(width, n).sum(axis=0), share


def betweenness_centrality(g: Graph) -> ScoreVector:
    """Share of all shortest paths that pass through each node.

    The denominator is one global constant (total shortest-path count over
    ordered pairs), not the per-pair normalization of the textbook
    variant; the ranking is unaffected by the constant but the raw values
    differ.
    """
    numerators, denominator = shortest_path_counts(g)
    if denominator == 0:
        scores = np.zeros(g.node_count, dtype=np.float64)
    else:
        scores = np.array([num / denominator for num in numerators], dtype=np.float64)
    return ScoreVector(Measure.BC, scores, np.zeros(g.node_count, dtype=bool))


def eigenvector_centrality(g: Graph) -> tuple[ScoreVector, float]:
    """Principal eigenvector of the adjacency matrix, on the largest component.

    Power iteration from the uniform vector, renormalized to unit length
    each step; iterating on A + I keeps bipartite components from
    oscillating without changing the eigenvectors. It converges at rate
    (lambda2 + 1) / (lambda1 + 1), which nears 1 on long paths and large
    grids; when it stalls at ``_EC_MAX_ITER`` steps, restarted Lanczos
    finishes from its last iterate (``_lanczos_finish``). Nodes outside the
    largest component are flagged undefined. Also returns the dominant
    eigenvalue estimate for diagnostics.
    """
    scores = np.zeros(g.node_count, dtype=np.float64)
    undefined = np.ones(g.node_count, dtype=bool)
    if g.edge_count == 0:
        return ScoreVector(Measure.EC, scores, undefined), float("nan")
    comp = np.asarray(g.components.component_id, dtype=np.intp)
    sizes = np.asarray(g.components.component_sizes)
    # size ties broken by smallest member label, so the choice depends on
    # the labeled graph only, not on input order
    tied = np.flatnonzero(sizes[comp] == sizes.max()).tolist()
    first = min(tied, key=lambda i: label_sort_key(g.node_labels[i]))
    members = np.flatnonzero(comp == comp[first])
    m = members.size
    # the component's CSR rows, renumbered 0..m-1; every member has a neighbor
    offsets, targets = g.edge_arrays
    contacts, degrees = contact_ids(offsets, members)
    local = np.zeros(g.node_count, dtype=np.intp)
    local[members] = np.arange(m)
    cols = local[targets[contacts]]
    rowstarts = np.cumsum(degrees) - degrees

    def adj_times(x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(x.take(cols), rowstarts)

    x = np.full(m, 1.0 / math.sqrt(m))
    for _ in range(_EC_MAX_ITER):
        y = adj_times(x) + x
        y /= np.linalg.norm(y)
        moved = np.max(np.abs(y - x))
        x = y
        if moved < _EC_TOL:
            break
    else:
        x = _lanczos_finish(adj_times, x)
    eigenvalue = float(x @ adj_times(x))
    scores[members] = x
    undefined[members] = False
    return ScoreVector(Measure.EC, scores, undefined), eigenvalue


def _lanczos_finish(adj_times, x: np.ndarray) -> np.ndarray:
    """Dominant eigenvector of the symmetric matrix behind ``adj_times``, from ``x``.

    Lanczos with full reorthogonalization (Golub & Van Loan, *Matrix
    Computations*, 4th ed., ch. 10), restarted from the Ritz vector of the
    largest Ritz value every ``_LANCZOS_STEPS`` steps, so it holds
    ``_LANCZOS_STEPS`` vectors of length m. The sign is fixed so that the
    vector sums positive. Raises ``PowerIterationError`` when the residual
    is still ``_EC_TOL`` or more after ``_EC_RESTARTS`` restarts.
    """
    basis = np.empty((_LANCZOS_STEPS, x.size))
    y = adj_times(x)
    residual = float(np.linalg.norm(y - (x @ y) * x))
    for _ in range(_EC_RESTARTS):
        alpha: list[float] = []
        beta: list[float] = []
        q = x
        for j in range(_LANCZOS_STEPS):
            basis[j] = q
            w = adj_times(q)
            alpha.append(q @ w)
            done = basis[: j + 1]
            w -= done.T @ (done @ w)
            w -= done.T @ (done @ w)  # twice, so the basis stays orthogonal to rounding
            b = float(np.linalg.norm(w))
            if b < _EC_TOL or j == _LANCZOS_STEPS - 1:  # invariant subspace, or full
                break
            beta.append(b)
            q = w / b
        _, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        x = vectors[:, -1] @ basis[: len(alpha)]
        x /= np.linalg.norm(x)
        if x.sum() < 0:
            x = -x
        y = adj_times(x)
        residual = float(np.linalg.norm(y - (x @ y) * x))
        if residual < _EC_TOL:
            return x
    raise PowerIterationError(
        f"no convergence within {_EC_MAX_ITER} iterations and {_EC_RESTARTS} "
        f"Lanczos restarts (residual {residual:.3e})"
    )


def _log_log_slopes(g: Graph, measure: Measure, counts_of) -> ScoreVector:
    """Per node, the slope of ln(counts[r - 1]) against ln(r) for r = 1..d_max.

    Nodes seeing fewer than two radii have no regression; they are flagged
    undefined and carry sentinel score 0. The others are fitted in blocks of
    nodes sorted by depth, each within ``_BLOCK_CELLS`` cells as wide as its
    deepest node. ``counts_of`` maps a block's shell counts, one row per
    distance 0..w and one column per node (zero past the node's d_max), to
    its counts at radii 1..w, one row per radius.

    Each slope has the bits of the centered least-squares formula on the
    node's own points, every sum a left-to-right loop from +0.0 (a ``cumsum``
    down the radius rows, read at the node's d_max). Logs are ``math.log``
    per value; ln 1..ln k's mean and squared deviations are computed once per
    depth k in Python, since ``x ** 2`` (libm ``pow``) and ``x * x`` can differ.
    """
    table = g.shell_table
    depths = np.count_nonzero(table, axis=1) - 1
    undefined = depths < 2
    scores = np.zeros(g.node_count, dtype=np.float64)
    fitted = np.flatnonzero(~undefined)
    fitted = fitted[np.argsort(depths[fitted], kind="stable")]
    xs = [math.log(r) for r in range(1, table.shape[1])]
    x_bar = np.zeros(table.shape[1])
    den = np.ones(table.shape[1])
    for k in set(depths[fitted].tolist()):
        mean = _sum(xs[:k]) / k
        x_bar[k] = mean
        den[k] = _sum((a - mean) ** 2 for a in xs[:k])
    xs = np.array(xs)
    start = 0
    while start < fitted.size:
        # the nodes sort by depth, so a block's width is its last node's
        stop = min(fitted.size, start + max(1, _BLOCK_CELLS // (depths[fitted[start]] + 1)))
        stop = min(stop, start + max(1, _BLOCK_CELLS // (depths[fitted[stop - 1]] + 1)))
        block = fitted[start:stop]
        k = depths[block]
        w = int(k[-1])
        counts = counts_of(table[block, : w + 1].T)
        inside = np.arange(1, w + 1)[:, None] <= k
        values = counts[inside].astype(np.float64, copy=False)
        for first in range(0, values.size, _LOG_CHUNK):
            chunk = values[first : first + _LOG_CHUNK]
            chunk[:] = list(map(math.log, chunk.tolist()))
        # row 0 is the +0.0 each sum starts from; row r holds radius r's terms
        terms = np.zeros((w + 1, block.size))
        terms[1:][inside] = values
        nodes = np.arange(block.size)
        y_bar = np.cumsum(terms, axis=0)[k, nodes] / k
        deviations = (xs[:w, None] - x_bar[k]) * (terms[1:] - y_bar)
        terms[1:] = np.where(inside, deviations, 0.0)
        scores[block] = np.cumsum(terms, axis=0)[k, nodes] / den[k]
        start = stop
    return ScoreVector(measure, scores, undefined)


def local_dimension(g: Graph) -> ScoreVector:
    """Growth exponent of the ball around each node.

    For radii r = 1..d_max, fit ln(nodes within r) against ln(r); the slope
    is the node's local dimension. Nodes seeing fewer than two radii have
    no regression and are flagged undefined. The ball sizes are the shell
    table's running sums, a block of nodes at a time.
    """
    return _log_log_slopes(g, Measure.LD, lambda shells: np.cumsum(shells, axis=0)[1:])
