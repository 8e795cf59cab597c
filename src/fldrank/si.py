"""Discrete-time susceptible-infected spreading with reproducible replicates.

Synchronous updates: at each step every infected node tries once to infect
each currently susceptible neighbor, independently with probability lam, so
a susceptible node with k infected neighbors flips with probability
1 - (1 - lam)^k. With lam = 1 the process reduces exactly to the BFS
wavefront from the seed set, which anchors the tests.

Replicates run as a batch of boolean state rows over the graph's cached CSR
contact arrays (``Graph.edge_arrays``), addressed as flat cells (node v of
row b is cell b * n + v): each ``si_step`` visits the contacts of the
infected cells only and keeps those whose head cell is still susceptible,
and a row stops once it has infected the seeds' whole components, when no
such contact is left. Replicate k draws one uniform per open contact, in
contact order, from an RNG substream derived deterministically from
(rng_seed, k), so its trajectory does not depend on how many replicates run
alongside it or on how they are batched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph, contact_ids, diameter

# Contact budget of one replicate batch. A step of R rows visits at most R
# times the directed edges, so R is this over the edge count (or node count,
# when larger): the temporaries stay O(E) whatever the replicate count.
_CHUNK_CONTACTS = 2**14


@dataclass(frozen=True)
class SiConfig:
    """One spreading experiment: infection rate, seed set, replication."""

    lam: float
    seeds: tuple[int, ...]
    replicates: int = 1
    max_steps: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if not self.seeds:
            raise ValueError("seed set must not be empty")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")
        object.__setattr__(self, "seeds", tuple(sorted(set(self.seeds))))


@dataclass(frozen=True)
class SiTrajectory:
    """Infected counts F(0), F(1), ... of one replicate.

    ``terminated_at`` is the step at which no further infection was
    possible (or the step cap); F is constant from there on.
    """

    f: tuple[int, ...]
    terminated_at: int


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Replicate-averaged trajectory with per-step sample dispersion.

    Replicates that stop early are extended by carrying their terminal
    count forward, so all columns average the same number of runs.
    """

    mean_f: tuple[float, ...]
    std_f: tuple[float, ...]
    replicates: int
    trajectories: tuple[SiTrajectory, ...] | None = None


def lambda_from_beta(beta: float) -> float:
    """Spreading rate (1/2)**beta."""
    return 0.5 ** beta


def replicate_rng(master_seed: int, replicate: int) -> np.random.Generator:
    """Independent, reproducible stream for one replicate."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(replicate,))
    return np.random.default_rng(seq)


def derive_seed(master_seed: int, *key: int) -> int:
    """Fold a key path into a fresh 64-bit master seed (for nested campaigns)."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return int(seq.generate_state(1, np.uint64)[0])


def si_step(
    g: Graph,
    infected: np.ndarray,
    lam: float,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> np.ndarray:
    """One synchronous update; returns the newly infected cells as sorted flat indices.

    ``infected`` is one replicate's (n,) state with ``rng`` its generator, or
    an (R, n) batch of replicate rows with ``rng`` a sequence of R
    generators, one per row, as ``simulate`` steps it. Node v of row b is
    cell ``b * n + v``, so one replicate's cells are node IDs. Only the
    infected cells' contacts are visited, in a fixed order (cells ascending,
    neighbors in adjacency order), so a step costs O(R n) plus their degree
    sum. Each contact whose head cell is still susceptible consumes one
    uniform draw from its row's generator, so a given generator state always
    yields the same outcome. ``infected`` is not modified.
    """
    offsets, targets = g.edge_arrays
    n = g.node_count
    rngs = [rng] if np.ndim(infected) == 1 else rng
    state = np.asarray(infected, dtype=bool).ravel()
    cells = np.flatnonzero(state)
    nodes = cells % n
    contacts, degrees = contact_ids(offsets, nodes)
    heads = np.repeat(cells - nodes, degrees) + targets[contacts]
    heads = heads[~state[heads]]
    counts = np.bincount(heads // n, minlength=len(rngs)).tolist()
    draws = np.concatenate([r.random(c) for r, c in zip(rngs, counts)])
    newly = np.zeros(state.size, dtype=bool)
    newly[heads[draws < lam]] = True
    return np.flatnonzero(newly)


def _run_chunk(
    g: Graph,
    seeds: tuple[int, ...],
    lam: float,
    max_steps: int,
    rngs: list[np.random.Generator],
    reach: int,
) -> np.ndarray:
    """Run one replicate per generator as a batch of boolean state rows.

    Returns the infected count of every row at steps 0..T, where T is the
    last step any row took (a stopped row keeps its terminal count). A row
    stops at the first step with no open contact, which is when it has
    infected all ``reach`` nodes of the seeds' components, or at the step cap.
    """
    n = g.node_count
    infected = np.zeros((len(rngs), n), dtype=bool)
    infected[:, list(seeds)] = True
    f = infected.sum(axis=1)
    counts = [f.copy()]
    live = np.arange(len(rngs)) if lam > 0.0 else np.empty(0, dtype=np.intp)
    while len(counts) <= max_steps:
        live = live[f[live] < reach]
        if not live.size:
            break
        rows, nodes = np.divmod(si_step(g, infected[live], lam, [rngs[k] for k in live]), n)
        infected[live[rows], nodes] = True
        f += np.bincount(live[rows], minlength=len(rngs))
        counts.append(f.copy())
    return np.stack(counts, axis=1)


def simulate(g: Graph, cfg: SiConfig, *, keep_replicates: bool = False) -> TrajectoryEnsemble:
    """Run the configured replicates and aggregate their trajectories.

    Deterministic given cfg: replicate k always uses the substream derived
    from (cfg.rng_seed, k), independent of the replicate count and of how
    the replicates are batched.
    """
    for s in cfg.seeds:
        if not 0 <= s < g.node_count:
            raise ValueError(f"seed node {s} out of range for {g.node_count} nodes")
    if cfg.max_steps is not None:
        max_steps = cfg.max_steps
    else:
        max_steps = 10 * max(diameter(g), 1)

    components = g.components
    reach = sum(
        components.component_sizes[c] for c in {components.component_id[s] for s in cfg.seeds}
    )
    chunk = max(1, _CHUNK_CONTACTS // max(g.edge_arrays[1].size, g.node_count))
    parts: list[np.ndarray] = []
    for first in range(0, cfg.replicates, chunk):
        rngs = [
            replicate_rng(cfg.rng_seed, k)
            for k in range(first, min(first + chunk, cfg.replicates))
        ]
        parts.append(_run_chunk(g, cfg.seeds, cfg.lam, max_steps, rngs, reach))

    # pad every batch to the longest run by carrying its terminal counts
    length = max(part.shape[1] for part in parts)
    counts = np.vstack(
        [np.pad(part, ((0, 0), (0, length - part.shape[1])), mode="edge") for part in parts]
    )
    table = counts.astype(np.float64)
    mean = table.mean(axis=0)
    if cfg.replicates > 1:
        std = table.std(axis=0, ddof=1)
    else:
        std = np.zeros(length)
    trajectories = None
    if keep_replicates:
        # a row stops at its first step with all of reach infected; a row that
        # never gets there ran to the step cap, and so did the longest batch
        full = counts == reach
        stopped_at = np.where(full.any(axis=1), full.argmax(axis=1), length - 1).tolist()
        trajectories = tuple(
            SiTrajectory(tuple(row[: stop + 1]), terminated_at=stop)
            for row, stop in zip(counts.tolist(), stopped_at)
        )
    return TrajectoryEnsemble(
        mean_f=tuple(float(v) for v in mean),
        std_f=tuple(float(v) for v in std),
        replicates=cfg.replicates,
        trajectories=trajectories,
    )


def spreading_ability(
    g: Graph,
    node: int,
    lam: float,
    *,
    t_eval: int = 10,
    replicates: int = 100,
    rng_seed: int = 0,
) -> float:
    """Mean infected count at step t_eval when seeding only ``node``.

    The per-node ground truth for rank-correlation against the centrality
    measures. Replicates stopping before t_eval keep their terminal count.
    """
    if t_eval < 1:
        raise ValueError("t_eval must be >= 1")
    cfg = SiConfig(
        lam=lam,
        seeds=(node,),
        replicates=replicates,
        max_steps=t_eval,
        rng_seed=rng_seed,
    )
    ensemble = simulate(g, cfg)
    idx = min(t_eval, len(ensemble.mean_f) - 1)
    return ensemble.mean_f[idx]
