"""Deterministic numpy graph generators for the benchmark inputs.

Each generator is a pure function of its size parameters and a seed, so
the same seed always yields the same edge-list bytes. The bytes are hashed
into the benchmark results, which makes generator drift (a numpy change in
``Generator`` streams, say) visible as a changed sha256.
"""

from __future__ import annotations

import hashlib

import numpy as np


def barabasi_albert(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """Preferential attachment: each new node links to m distinct earlier nodes.

    Starts from a star on m+1 nodes; a new node picks its targets from the
    list of edge endpoints, so the pick is proportional to degree.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    rng = np.random.default_rng(seed)
    edges = [(0, v) for v in range(1, m + 1)]
    endpoints = [u for e in edges for u in e]
    for v in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(endpoints[int(rng.integers(len(endpoints)))])
        for u in sorted(targets):
            edges.append((u, v))
            endpoints.extend((u, v))
    return edges


def erdos_renyi(n: int, mean_degree: float, seed: int) -> list[tuple[int, int]]:
    """G(n, p) with p = mean_degree / (n - 1); one row of coin flips per node."""
    if n < 2:
        raise ValueError("need n >= 2")
    p = mean_degree / (n - 1)
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n - 1):
        hits = np.flatnonzero(rng.random(n - 1 - u) < p)
        edges.extend((u, u + 1 + int(j)) for j in hits)
    return edges


def relabel(edges: list[tuple[int, int]], n: int, seed: int) -> list[tuple[int, int]]:
    """The same graph with node labels permuted and edges shuffled by ``seed``.

    Node IDs inside fldrank follow first appearance in the file, so this
    changes ID order, tie-breaking by label and SI contact order, but not
    the structure, and hence not the amount of work a measure does.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return [(int(perm[edges[i][0]]), int(perm[edges[i][1]])) for i in rng.permutation(len(edges))]


def edge_list_bytes(edges: list[tuple[int, int]]) -> bytes:
    return "".join(f"{u} {v}\n" for u, v in edges).encode("ascii")


def describe(data: bytes) -> dict:
    """Node count, edge count and sha256 of an edge-list file's bytes."""
    labels: set[bytes] = set()
    edges = 0
    for line in data.splitlines():
        tokens = line.split()
        if len(tokens) != 2 or tokens[0].startswith((b"#", b"%")):
            continue
        labels.update(tokens)
        edges += 1
    return {"n": len(labels), "edges": edges, "sha256": hashlib.sha256(data).hexdigest()}
