"""Undirected simple graphs: edge-list ingestion, BFS shell counts, components.

Graphs are immutable once built. Internal node IDs are dense integers
0..node_count-1; external labels are arbitrary strings and are never assumed
to be contiguous numbers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

UNREACHABLE = -1

# Sources per word of the all-sources pass: one bit each of a uint64 per node.
_WORD_BITS = 64
# Depth past which a component's sources run in frontier blocks, not words, as
# measured (shell-pass CPU, 2 vCPUs, numpy 2.4.6): the kernels are even on path(n)
# at 450-550 levels and on grid(10, n) at about 250; at 508 frontier blocks win 1.8x.
_MAX_WORD_LEVELS = 512


class EdgeListError(ValueError):
    """Malformed edge-list input. Carries the offending 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph in adjacency-list form.

    ``adjacency[i]`` is the sorted tuple of neighbors of node ``i``.
    Symmetry and the absence of self-loops and duplicate edges are
    guaranteed by the constructors, so every measure downstream can assume
    a 0/1 adjacency structure.
    """

    node_count: int
    node_labels: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, edges: Iterable[tuple[str, str]], nodes: Iterable[str] = ()) -> Graph:
        """Build from labeled edges, with optional extra (isolated) labels.

        Internal IDs follow first appearance: the ``nodes`` argument is
        interned first, then edge endpoints in input order. Duplicate edges
        collapse to one; self-loops are dropped.
        """
        ids: dict[str, int] = {}
        for label in nodes:
            ids.setdefault(label, len(ids))
        pairs: set[tuple[int, int]] = set()
        for a, b in edges:  # a is interned before b: ids follow first appearance
            i, j = ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))
            if i != j:
                pairs.add((i, j) if i < j else (j, i))
        adj: list[list[int]] = [[] for _ in range(len(ids))]
        for i, j in pairs:
            adj[i].append(j)
            adj[j].append(i)
        return cls(len(ids), tuple(ids), tuple(tuple(sorted(ns)) for ns in adj))

    @cached_property
    def label_to_id(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.node_labels)}

    @cached_property
    def shell_table(self) -> np.ndarray:
        """Every node's shell counts, from one ``all_distance_fields`` pass per graph."""
        return all_distance_fields(self)

    @cached_property
    def components(self) -> ComponentMap:
        """The connected components, labelled once per graph."""
        return connected_components(self)

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR contact arrays ``(offsets, targets)``, one target per directed edge.

        Node v's contacts are ``targets[offsets[v]:offsets[v + 1]]``, its
        neighbors in adjacency order, so the contacts run source-ascending.
        Both arrays are read-only, since every caller shares the cached pair.
        """
        degrees = np.fromiter(map(len, self.adjacency), dtype=np.intp, count=self.node_count)
        offsets = np.concatenate(([0], np.cumsum(degrees)))
        targets = np.fromiter(
            chain.from_iterable(self.adjacency), dtype=np.intp, count=int(offsets[-1])
        )
        offsets.setflags(write=False)
        targets.setflags(write=False)
        return offsets, targets

    @property
    def edge_count(self) -> int:
        return sum(len(ns) for ns in self.adjacency) // 2


@dataclass(frozen=True)
class ComponentMap:
    """Partition of the node set into connected components."""

    component_id: tuple[int, ...]
    component_sizes: tuple[int, ...]


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse one edge per line as two whitespace-separated labels.

    Bytes are decoded as UTF-8, dropping a leading byte-order mark; a byte that is
    not UTF-8 raises EdgeListError at its line. Blank lines and lines starting with
    '#' or '%' are ignored. Lines end at LF or CRLF only; any other separator (form
    feed, U+2028, ...) is part of its line. Duplicate edges collapse silently.
    Self-loops are dropped and reported through a single warning carrying
    the dropped count; the looped label still becomes a node.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8-sig")
        except UnicodeDecodeError as exc:  # exc.object and exc.start leave out a BOM
            lineno = exc.object.count(b"\n", 0, exc.start) + 1
            raise EdgeListError(f"invalid UTF-8 byte 0x{exc.object[exc.start]:02x}", lineno) from None
    self_loops = 0

    def edges():  # streamed into Graph.build, so no list holds every label pair
        nonlocal self_loops
        for lineno, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
            line = raw.strip()
            if not line or line.startswith(("#", "%")):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise EdgeListError(f"expected 2 labels, got {len(tokens)}: {raw!r}", lineno)
            self_loops += tokens[0] == tokens[1]
            yield tokens

    g = Graph.build(edges())
    if self_loops:  # here, not in the generator, so stacklevel=2 is the caller
        warnings.warn(f"dropped {self_loops} self-loop(s)", stacklevel=2)
    return g


def load_edge_list(path: str | Path) -> Graph:
    """Read an edge-list file (UTF-8) and build the graph."""
    return parse_edge_list(Path(path).read_bytes())


def _bfs(g: Graph, source: int, dist: list[int]) -> list[int]:
    """Fill in ``dist`` from ``source`` over nodes still UNREACHABLE; return them in visit order."""
    dist[source] = 0
    order = [source]
    for v in order:  # the list grows while it is read: it is the queue
        d = dist[v] + 1
        for u in g.adjacency[v]:
            if dist[u] == UNREACHABLE:
                dist[u] = d
                order.append(u)
    return order


def all_distance_fields(g: Graph) -> np.ndarray:
    """One BFS per node, keeping only its shell counts, as one padded table.

    Row s of the read-only (nodes x (depth + 1)) int64 table holds the
    number of nodes at each hop distance from s, then zeros up to the
    graph's largest eccentricity ``depth``; a shell count is positive up to
    its node's own eccentricity, so the row's nonzero count is that plus one.

    Both kernels are multi-source BFS (Then et al., VLDB 2014). Most
    sources run 64 at a time as the bits of one uint64 per node: each
    level ORs every node's neighbor frontiers over the CSR contact arrays.
    A level scans every contact, however small its frontier, so that pays
    on small-diameter graphs. The sources of a deep component, one of more
    than ``_MAX_WORD_LEVELS`` nodes that a double sweep from its first node
    finds deeper than that (a long path, a large grid), run in frontier
    blocks, which expand only the frontier's contacts. Any other component
    is at most twice that deep, and the word pass runs it through.

    Read it through the cached ``Graph.shell_table`` rather than calling it
    directly, so a graph pays for the pass once.
    """
    n = g.node_count
    offsets, targets = g.edge_arrays
    degrees = np.diff(offsets)
    # reduceat segments: one per node with neighbors (isolated nodes have
    # none, and reduceat would misread an empty segment)
    owners = np.flatnonzero(degrees)
    starts = offsets[owners]
    component, sizes = g.components.component_id, g.components.component_sizes
    firsts = dict(zip(component[::-1], range(n - 1, -1, -1)))  # each component's first node
    big = (c for c, size in enumerate(sizes) if size > _MAX_WORD_LEVELS)
    deep_components = [c for c in big if double_sweep_depth(g, firsts[c]) > _MAX_WORD_LEVELS]
    in_deep = np.isin(component, deep_components)
    shallow, deep = np.flatnonzero(~in_deep), np.flatnonzero(in_deep)
    # A frontier block holds 128 sources over the deep nodes' mean degree, so a
    # level expands about 128 contacts per deep node: 64 sources in a tree, the
    # sparsest deep component (m > 512 nodes, 2(m - 1) contacts), fewer in denser
    # ones. The 128 is hand-tuned on paths glued to BA graphs, not derived from the word size.
    width = max(1, 128 * deep.size // max(int(degrees[deep].sum()), 1))

    def blocks():
        for i in range(0, shallow.size, _WORD_BITS):
            sources = shallow[i : i + _WORD_BITS]
            yield sources, _word_block_shells(n, sources, owners, starts, targets)
        for i in range(0, deep.size, width):
            sources = deep[i : i + width]
            yield sources, _frontier_block_shells(g, sources)

    table = np.zeros((n, 1), dtype=np.int64)
    depth = 0
    for sources, block in blocks():
        depth = max(depth, block.shape[1] - 1)
        if depth >= table.shape[1]:
            # a widening copies the table; where frontier blocks run, the
            # depth may grow block by block, and at least doubling keeps the copies few
            wider = min(max(depth + 1, 2 * table.shape[1] if deep.size else 0), n)
            table = np.pad(table, ((0, 0), (0, wider - table.shape[1])))
        table[sources, : block.shape[1]] = block
    table = np.ascontiguousarray(table[:, : depth + 1])
    table.setflags(write=False)
    return table


def _word_block_shells(
    n: int, sources: np.ndarray, owners: np.ndarray, starts: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Shell counts of ``sources`` (at most 64), one bit each of a uint64 per node.

    One row per source and one column per hop distance up to the block's depth, zero-padded.
    """
    seen = np.zeros(n, dtype=np.uint64)
    seen[sources] = np.left_shift(np.uint64(1), np.arange(sources.size, dtype=np.uint64))
    frontier = seen.copy()
    levels = [np.ones(_WORD_BITS, dtype=np.int64)]  # distance 0: the source itself
    while owners.size:
        reached = np.zeros(n, dtype=np.uint64)
        reached[owners] = np.bitwise_or.reduceat(frontier[targets], starts)
        frontier = reached & ~seen
        hit = frontier[frontier != 0]
        if hit.size == 0:
            break
        seen |= frontier
        bits = np.unpackbits(hit.astype("<u8").view(np.uint8), bitorder="little")
        levels.append(bits.reshape(hit.size, _WORD_BITS).sum(axis=0, dtype=np.int64))
    return np.array(levels).T[: sources.size]


def _frontier_block_shells(g: Graph, sources: np.ndarray) -> np.ndarray:
    """Shell counts of ``sources``, one row each; cell ``b * n + v`` is node v seen from row b."""
    n = g.node_count
    frontier = np.arange(sources.size) * n + sources
    seen = np.zeros(frontier.size * n, dtype=bool)
    slot = np.empty(seen.size, dtype=np.intp)
    levels = []
    while frontier.size:
        seen[frontier] = True
        levels.append(np.bincount(frontier // n, minlength=sources.size))
        frontier = distinct_cells(unseen_heads(g, frontier, seen), slot)
    return np.array(levels).T


def unseen_heads(g: Graph, cells: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Head cells of the contacts from ``cells`` (``b * n + v``) to unseen ones, in contact order."""
    n = g.node_count
    offsets, targets = g.edge_arrays
    nodes = cells % n
    contacts, degrees = contact_ids(offsets, nodes)
    heads = (cells - nodes).repeat(degrees) + targets[contacts]
    return heads[~seen[heads]]


def distinct_cells(cells: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """``cells`` with each kept once, where it last occurs; ``slot`` is intp scratch by cell."""
    order = np.arange(cells.size)
    slot[cells] = order
    return cells[slot[cells] == order]


def contact_ids(offsets: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contact IDs of ``nodes``, node by node in adjacency order, and their degrees.

    ``offsets`` is the first array of ``Graph.edge_arrays``; the IDs index
    its second, so node ``nodes[i]`` owns ``degrees[i]`` consecutive IDs.
    """
    first = offsets[nodes]
    degrees = offsets[nodes + 1] - first
    ends = degrees.cumsum()
    # contact IDs, node by node: first, first + 1, ..., first + degree - 1
    contacts = (first - ends + degrees).repeat(degrees)
    contacts += np.arange(contacts.size)
    return contacts, degrees


def disjoint_copies(g: Graph, width: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR offsets of ``width`` disjoint copies of ``g``, and each contact's head cell.

    Cell ``b * n + v`` is node v of copy b, and contact c of copy b is ``b * 2E + c``.
    """
    offsets, targets = g.edge_arrays
    rows = np.arange(width)[:, None]
    copies = np.append((rows * targets.size + offsets[:-1]).ravel(), width * targets.size)
    return copies, (rows * g.node_count + targets).ravel()


def connected_components(g: Graph) -> ComponentMap:
    """Label components by BFS; IDs follow the smallest node in each component."""
    dist = [UNREACHABLE] * g.node_count
    comp = [-1] * g.node_count
    sizes: list[int] = []
    for s in range(g.node_count):
        if dist[s] == UNREACHABLE:
            members = _bfs(g, s, dist)
            for v in members:
                comp[v] = len(sizes)
            sizes.append(len(members))
    return ComponentMap(tuple(comp), tuple(sizes))


def diameter(g: Graph) -> int:
    """Largest finite eccentricity over all nodes; 0 for an empty graph."""
    return g.shell_table.shape[1] - 1


def double_sweep_depth(g: Graph, source: int) -> int:
    """Eccentricity of the node a BFS from ``source`` visits last: at most the diameter.

    A double sweep (Magnien, Latapy & Habib, JEA 2009): two single-source
    BFS runs bound the diameter of ``source``'s component from below, and
    twice the bound is at least that diameter, without the all-sources pass.
    """
    far = _bfs(g, source, [UNREACHABLE] * g.node_count)[-1]
    dist = [UNREACHABLE] * g.node_count
    return dist[_bfs(g, far, dist)[-1]]
