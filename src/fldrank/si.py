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
contact order, from the stream of ``replicate_rng(rng_seed, k)``, so its
trajectory does not depend on how many replicates run alongside it or on how
they are batched. ``seed_words`` seeds all those streams in one vectorized
hash pass and ``ReplicateStreams`` draws them. ``replicate_counts`` returns
every replicate's infected counts as one table, and ``simulate`` averages it.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .graph import Graph, contact_ids, diameter

# Contact budget of one replicate batch. A step of R rows visits at most R
# times the directed edges, so R is this over the edge count (or node count,
# when larger): the temporaries stay O(E) whatever the replicate count.
_CHUNK_CONTACTS = 2**14

# Uniforms buffered per row of a multi-row batch: an even share of 2**15
# (256 KB) per batch, at most 2**10 (8 KB). At 100 replicates on karate most
# rows then fill once per simulation. A buffer widens when one step of a row
# needs more than it holds. A one-row batch buffers nothing.
_STREAM_BUFFER = 2**15
_ROW_BUFFER = 2**10


def _int_at_least(name: str, value, low: int = 0) -> int:
    """``value`` as an int >= low: a numpy integer becomes the equal int, a bool fails."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be an integer, not a bool")
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _rate(name: str, value, above_zero: bool = False) -> float:
    """``value`` as a float in [0, 1], or (0, 1] if above_zero: a bool or non-real fails."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not (0.0 < value <= 1.0 if above_zero else 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in {'(' if above_zero else '['}0, 1], got {value}")
    return float(value)


@dataclass(frozen=True)
class SiConfig:
    """One spreading experiment: infection rate, seed set, replication."""

    lam: float
    seeds: tuple[int, ...]
    replicates: int = 1
    max_steps: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lam", _rate("lam", self.lam))
        if not self.seeds:
            raise ValueError("seed set must not be empty")
        object.__setattr__(self, "replicates", _int_at_least("replicates", self.replicates, 1))
        if self.max_steps is not None:
            object.__setattr__(self, "max_steps", _int_at_least("max_steps", self.max_steps))
        object.__setattr__(self, "rng_seed", _int_at_least("rng_seed", self.rng_seed))
        seeds = {_int_at_least("seeds entry", s) for s in self.seeds}
        object.__setattr__(self, "seeds", tuple(sorted(seeds)))


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Replicate-averaged trajectory with per-step sample dispersion.

    Replicates that stop early are extended by carrying their terminal
    count forward, so all columns average the same number of runs.
    """

    mean_f: tuple[float, ...]
    std_f: tuple[float, ...]


def lambda_from_beta(beta: float) -> float:
    """Spreading rate (1/2)**beta."""
    return 0.5 ** beta


def replicate_rng(master_seed: int, replicate: int) -> np.random.Generator:
    """Independent, reproducible stream for one replicate.

    The reference for ``seed_words`` and ``ReplicateStreams``, which seed
    and draw the same streams in bulk.
    """
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(replicate,))
    return np.random.default_rng(seq)


# numpy's SeedSequence hash constants (pool of 4 uint32 words); NEP 19 keeps
# them, and PCG64's seeding from the hashed words, stable
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative integer (0 is one word)."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("seed must be non-negative")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seed_state(entropy: int, keys: np.ndarray, n_words: int) -> list[np.ndarray]:
    """``SeedSequence(entropy, spawn_key=(k,)).generate_state(n_words)`` per uint32 key k.

    numpy's hash, step for step, with every word an array over ``keys``; the
    entropy's own mixing runs once for all of them. Every value is kept below
    2**32 before it meets an array, so the uint32 arithmetic wraps alike
    under numpy 1.x value-based casting and numpy 2's NEP 50.
    """
    # entropy shorter than the pool is padded with zeros, and the key follows it
    run = _words(entropy)
    run += [0] * (4 - len(run))
    rest = run[4:] + [keys]
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (x * _MIX_MULT_L & _MASK32) - (y * _MIX_MULT_R & _MASK32) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in run[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in rest:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    h = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % 4] ^ h
        h = h * _MULT_B & _MASK32
        value = value * h & _MASK32
        out.append(value ^ value >> 16)
    return out


def derive_seed(master_seed: int, *key: int) -> int:
    """Fold a key path into a fresh 64-bit master seed (for nested campaigns)."""
    return int(np.random.SeedSequence(master_seed, spawn_key=key).generate_state(1, np.uint64)[0])


def seed_words(master_seed: int, replicates) -> np.ndarray:
    """Row k is ``SeedSequence(master_seed, spawn_key=(k,)).generate_state(4, np.uint64)``.

    One hash pass covers every replicate index k in ``replicates``, each
    below 2**32 (one spawn-key word).
    """
    keys = np.asarray(replicates, dtype=np.int64)
    if keys.size and not (0 <= keys.min() and keys.max() <= _MASK32):
        raise ValueError("replicate indices must lie in [0, 2**32)")
    words = np.stack(_seed_state(master_seed, keys.astype(np.uint32), 8), axis=1)
    # generate_state(4, np.uint64) reads the uint32 words little-endian
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _Words:
    """One row of ``seed_words`` as a PCG64's seed sequence, which PCG64 reads by raw pointer."""

    def __init__(self, words: np.ndarray):
        # registered, not subclassed: a subclass would load numpy.random (5 MB) on import
        np.random.bit_generator.ISeedSequence.register(_Words)
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:  # the one request PCG64 makes
            raise ValueError(f"seed words serve 4 uint64 words only, not {n_words} of {dtype}")
        return np.ascontiguousarray(self._words, dtype=np.uint64)


class ReplicateStreams:
    """Uniform draws for a batch of replicate rows, row r on the PCG64 seeded by ``words[r]``.

    A row's Generator is built at its first draw. A one-row batch reads it
    directly; in a wider batch each row keeps its unread uniforms at the end
    of its buffer, which its Generator refills only when a step needs more.
    """

    def __init__(self, words: np.ndarray):
        self._words = words
        self._rngs: list[np.random.Generator | None] = [None] * len(words)
        width = min(_ROW_BUFFER, _STREAM_BUFFER // len(words)) if len(words) > 1 else 0
        self._buf = np.empty((len(words), width))
        self._pos = np.full(len(words), width, dtype=np.intp)  # every row starts empty

    def __len__(self) -> int:
        return len(self._rngs)

    def _rng(self, row: int) -> np.random.Generator:
        if self._rngs[row] is None:
            self._rngs[row] = np.random.Generator(np.random.PCG64(_Words(self._words[row])))
        return self._rngs[row]

    def draw(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """The next ``counts[i]`` uniforms of each row ``rows[i]``, concatenated in that order."""
        if len(self) == 1:
            return self._rng(0).random(counts.item())
        short = self._pos[rows] + counts > self._buf.shape[1]
        for row, need in zip(rows[short].tolist(), counts[short].tolist()):
            self._refill(row, need)
        width = self._buf.shape[1]
        start = self._pos[rows]
        self._pos[rows] = start + counts
        offsets = np.cumsum(counts) - counts
        cells = np.repeat(rows * width + start - offsets, counts)
        return self._buf.ravel()[cells + np.arange(cells.size)]

    def _refill(self, row: int, need: int) -> None:
        """Keep the row's unread uniforms and fill the rest of its buffer from its stream."""
        width = self._buf.shape[1]
        if need > width:  # every row's unread uniforms move to the end of a wider buffer
            wider = np.empty((len(self), need))
            wider[:, need - width :] = self._buf
            self._buf = wider
            self._pos += need - width
        buf = self._buf[row]
        left = buf.size - int(self._pos[row])
        if left:
            buf[:left] = buf[-left:]
        self._rng(row).random(out=buf[left:])
        self._pos[row] = 0


def _generator_draw(rng: np.random.Generator | Sequence[np.random.Generator]):
    """``draw(counts)`` over caller-supplied generators, one per row."""
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    return lambda counts: np.concatenate([r.random(c) for r, c in zip(rngs, counts.tolist())])


def si_step(
    g: Graph,
    infected: np.ndarray,
    lam: float,
    rng: np.random.Generator | Sequence[np.random.Generator] | Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """One synchronous update; returns the newly infected cells as sorted flat indices.

    ``infected`` is one replicate's (n,) state or an (R, n) batch of
    replicate rows. Node v of row b is cell ``b * n + v``, so one
    replicate's cells are node IDs. Only the infected cells' contacts are
    visited, in a fixed order (cells ascending, neighbors in adjacency
    order), so a step costs O(R n) plus their degree sum. Each contact whose
    head cell is still susceptible consumes one uniform from its row's
    stream: ``rng`` is a function ``draw(counts)`` returning row r's next
    ``counts[r]`` uniforms, in row order, as ``simulate`` passes, or a
    Generator per row (a single one for an (n,) state), which is wrapped
    into one. A given stream state so always yields the same outcome.
    ``infected`` is not modified.
    """
    offsets, targets = g.edge_arrays
    n = g.node_count
    rows = 1 if np.ndim(infected) == 1 else len(infected)
    draw = rng if callable(rng) else _generator_draw(rng)
    state = np.asarray(infected, dtype=bool).ravel()
    cells = np.flatnonzero(state)
    nodes = cells % n
    contacts, degrees = contact_ids(offsets, nodes)
    heads = np.repeat(cells - nodes, degrees) + targets[contacts]
    heads = heads[~state[heads]]
    counts = np.bincount(heads // n, minlength=rows)
    newly = np.zeros(state.size, dtype=bool)
    newly[heads[draw(counts) < lam]] = True
    return np.flatnonzero(newly)


def _run_chunk(
    g: Graph,
    seeds: tuple[int, ...],
    lam: float,
    max_steps: int,
    streams: ReplicateStreams,
    reach: int,
) -> np.ndarray:
    """Run one replicate per stream row as a batch of boolean state rows.

    Returns the infected count of every row at steps 0..T, where T is the
    last step any row took (a stopped row keeps its terminal count). A row
    stops at the first step with no open contact, which is when it has
    infected all ``reach`` nodes of the seeds' components, or at the step cap.
    """
    n = g.node_count
    infected = np.zeros((len(streams), n), dtype=bool)
    infected[:, list(seeds)] = True
    f = infected.sum(axis=1)
    counts = [f.copy()]
    live = np.arange(len(streams)) if lam > 0.0 else np.empty(0, dtype=np.intp)
    while len(counts) <= max_steps:
        live = live[f[live] < reach]
        if not live.size:
            break
        rows, nodes = np.divmod(si_step(g, infected[live], lam, partial(streams.draw, live)), n)
        infected[live[rows], nodes] = True
        f += np.bincount(live[rows], minlength=len(streams))
        counts.append(f.copy())
    return np.stack(counts, axis=1)


def replicate_counts(g: Graph, cfg: SiConfig) -> np.ndarray:
    """Infected counts of every replicate at steps 0..T, one int row per replicate.

    T is the last step any replicate took; a replicate that stopped earlier
    keeps its terminal count. Deterministic given cfg: replicate k always
    uses the substream derived from (cfg.rng_seed, k), independent of the
    replicate count and of how the replicates are batched.
    """
    if cfg.seeds[-1] >= g.node_count:  # seeds are sorted
        raise ValueError(f"seed node {cfg.seeds[-1]} out of range for {g.node_count} nodes")
    max_steps = cfg.max_steps if cfg.max_steps is not None else 10 * max(diameter(g), 1)
    components = g.components
    reach = sum(
        components.component_sizes[c] for c in {components.component_id[s] for s in cfg.seeds}
    )
    chunk = max(1, _CHUNK_CONTACTS // max(g.edge_arrays[1].size, g.node_count))
    words = seed_words(cfg.rng_seed, range(cfg.replicates))
    parts = [
        _run_chunk(g, cfg.seeds, cfg.lam, max_steps, ReplicateStreams(words[i : i + chunk]), reach)
        for i in range(0, cfg.replicates, chunk)
    ]
    # pad every batch to the longest run by carrying its terminal counts
    length = max(part.shape[1] for part in parts)
    return np.vstack(
        [np.pad(part, ((0, 0), (0, length - part.shape[1])), mode="edge") for part in parts]
    )


def simulate(g: Graph, cfg: SiConfig) -> TrajectoryEnsemble:
    """Mean and sample deviation of ``replicate_counts`` per step."""
    table = replicate_counts(g, cfg).astype(np.float64)
    std = table.std(axis=0, ddof=1) if cfg.replicates > 1 else np.zeros(table.shape[1])
    return TrajectoryEnsemble(
        mean_f=tuple(float(v) for v in table.mean(axis=0)),
        std_f=tuple(float(v) for v in std),
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
    measures. Replicates stopping before t_eval keep their terminal count, so
    the last column of the count table (at most t_eval + 1 long) is the one.
    """
    t_eval = _int_at_least("t_eval", t_eval, 1)
    cfg = SiConfig(
        lam=lam,
        seeds=(node,),
        replicates=replicates,
        max_steps=t_eval,
        rng_seed=rng_seed,
    )
    return simulate(g, cfg).mean_f[-1]
