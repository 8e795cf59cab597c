"""Discrete-time susceptible-infected spreading with reproducible replicates.

Synchronous updates: at each step every infected node tries once to infect
each currently susceptible neighbor, independently with probability lam, so
a susceptible node with k infected neighbors flips with probability
1 - (1 - lam)^k. With lam = 1 the process reduces exactly to the BFS
wavefront from the seed set, which anchors the tests.

Replicate k draws from an RNG substream derived deterministically from
(rng_seed, k), so its trajectory does not depend on how many replicates
run alongside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, diameter


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
    g: Graph, infected: np.ndarray, lam: float, rng: np.random.Generator
) -> np.ndarray:
    """One synchronous update; returns the IDs newly infected this step.

    Contacts are enumerated in a fixed order (infected sources ascending,
    neighbors in adjacency order) and consume one uniform draw each, so a
    given generator state always yields the same outcome.
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


def _has_active_contact(g: Graph, infected: np.ndarray) -> bool:
    for v in np.flatnonzero(infected):
        for u in g.adjacency[int(v)]:
            if not infected[u]:
                return True
    return False


def _run_replicate(
    g: Graph, seeds: tuple[int, ...], lam: float, max_steps: int, rng: np.random.Generator
) -> SiTrajectory:
    infected = np.zeros(g.node_count, dtype=bool)
    infected[list(seeds)] = True
    f = [int(infected.sum())]
    t = 0
    while t < max_steps:
        if lam == 0.0 or not _has_active_contact(g, infected):
            break
        new = si_step(g, infected, lam, rng)
        infected[new] = True
        f.append(int(infected.sum()))
        t += 1
    return SiTrajectory(tuple(f), terminated_at=t)


def simulate(g: Graph, cfg: SiConfig, *, keep_replicates: bool = False) -> TrajectoryEnsemble:
    """Run the configured replicates and aggregate their trajectories.

    Deterministic given cfg: replicate k always uses the substream derived
    from (cfg.rng_seed, k), independent of the replicate count.
    """
    for s in cfg.seeds:
        if not 0 <= s < g.node_count:
            raise ValueError(f"seed node {s} out of range for {g.node_count} nodes")
    if cfg.max_steps is not None:
        max_steps = cfg.max_steps
    else:
        max_steps = 10 * max(diameter(g), 1)

    trajectories = tuple(
        _run_replicate(g, cfg.seeds, cfg.lam, max_steps, replicate_rng(cfg.rng_seed, k))
        for k in range(cfg.replicates)
    )

    length = max(len(tr.f) for tr in trajectories)
    table = np.array(
        [tr.f + (tr.f[-1],) * (length - len(tr.f)) for tr in trajectories], dtype=np.float64
    )
    mean = table.mean(axis=0)
    if cfg.replicates > 1:
        std = table.std(axis=0, ddof=1)
    else:
        std = np.zeros(length)
    return TrajectoryEnsemble(
        mean_f=tuple(float(v) for v in mean),
        std_f=tuple(float(v) for v in std),
        replicates=cfg.replicates,
        trajectories=trajectories if keep_replicates else None,
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
