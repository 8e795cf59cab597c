"""Discrete-time susceptible-infected spreading with reproducible replicates.

Synchronous updates: at each step every infected node tries once to infect
each currently susceptible neighbor, independently with probability lam, so
a susceptible node with k infected neighbors flips with probability
1 - (1 - lam)^k. With lam = 1 the process reduces exactly to the BFS
wavefront from the seed set, which anchors the tests.

Replicates run as a batch of boolean state rows over the graph's cached CSR
contact arrays (``Graph.edge_arrays``), addressed as flat cells (node v of
row b is cell b * n + v). A batch expands each infected cell's contacts
once, when it is infected, into a bool mask of live contacts; each step
closes those whose head cell is infected, and ``si_step`` draws over the
rest, the open contacts. A batch stops when no contact is open, which is
when every row has infected the seeds' whole components, or at the step
cap: 10 times the graph's
diameter (at least 1) unless the config sets one. A double sweep from the
first seed bounds that cap from below, so the exact diameter, and the
all-sources pass behind it, is computed only when a batch is still running
at the bound. Replicate k draws one uniform per open contact, in contact
order, from the stream of ``replicate_rng(rng_seed, k)``, so its trajectory
does not depend on how many replicates run alongside it or on how they are
batched. ``seed_words`` seeds all those streams in one vectorized hash
pass and ``ReplicateStreams`` draws them. ``replicate_counts`` returns
every replicate's infected counts as one table, and ``simulate`` averages
it.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .graph import Graph, contact_ids, diameter, disjoint_copies, double_sweep_depth, unseen_heads

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


def _real_in(name: str, value, low: float, high: float, above_low: bool = False) -> float:
    """A real ``value``, not a bool, as a float in [low, high], or (low, high] if above_low."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not (low < value <= high if above_low else low <= value <= high):  # NaN fails both
        bracket = "(" if above_low else "["
        raise ValueError(f"{name} must lie in {bracket}{low:g}, {high:g}], got {value}")
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
        object.__setattr__(self, "lam", _real_in("lam", self.lam, 0.0, 1.0))
        object.__setattr__(self, "replicates", _int_at_least("replicates", self.replicates, 1))
        if self.max_steps is not None:
            object.__setattr__(self, "max_steps", _int_at_least("max_steps", self.max_steps))
        object.__setattr__(self, "rng_seed", _int_at_least("rng_seed", self.rng_seed))
        if not np.iterable(self.seeds):
            raise TypeError(f"seeds must be an iterable of node ids, got {self.seeds!r}")
        seeds = {_int_at_least("seeds entry", s) for s in self.seeds}
        if not seeds:  # after conversion: the truth of a numpy array is ambiguous
            raise ValueError("seed set must not be empty")
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
    """Spreading rate (1/2)**beta, for beta in [0, inf] (inf is rate 0)."""
    return 0.5 ** _real_in("beta", beta, 0.0, np.inf)


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


def _seed_state(entropy: int, keys: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy, spawn_key=(k,)).generate_state(n_words)`` per uint32 key k.

    numpy's hash as an (n_words, len(keys)) uint32 array. numpy mixes the
    entropy into the pool once: a spawn key pads entropy shorter than the
    pool with zero words, which the unkeyed pool's fill hashes too, so every
    key's pool starts from the unkeyed one. The key's rounds and the
    output's then run as one array pass each. Every value is kept below
    2**32 before it meets an array, so the uint32 arithmetic wraps alike
    under numpy 1.x value-based casting and NEP 50.
    """
    pool = np.random.SeedSequence(entropy).pool[:, None]
    # filling and cross-mixing the pool take 16 hash steps, each uint32 word
    # of entropy past the pool 4 more
    words = -(-operator.index(entropy).bit_length() // 32)
    h = _INIT_A * pow(_MULT_A, 4 * max(4, words), 2**32) & _MASK32

    def steps(h, mult, rounds):
        """The hash constant at each of ``rounds`` + 1 steps from ``h``, as a uint32 column."""
        hs = [h]
        while len(hs) <= rounds:
            hs.append(hs[-1] * mult & _MASK32)
        return np.array(hs, dtype=np.uint32)[:, None]

    # the key's four rounds, one per pool word, then the output's rounds
    hs = steps(h, _MULT_A, 4)
    value = (keys ^ hs[:-1]) * hs[1:]
    pool = pool * _MIX_MULT_L - (value ^ value >> 16) * _MIX_MULT_R
    pool ^= pool >> 16
    hs = steps(_INIT_B, _MULT_B, n_words)
    value = (pool[np.arange(n_words) % 4] ^ hs[:-1]) * hs[1:]
    return value ^ value >> 16


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
    words = _seed_state(master_seed, keys.astype(np.uint32), 8).T
    # generate_state(4, np.uint64) reads the uint32 words little-endian
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


@cache
def _register_words() -> None:
    # registered, not subclassed: a subclass would load numpy.random on import, about
    # 2.7 MB resident, plus 3.4 MB of OpenSSL where cli.main does not block _hashlib
    np.random.bit_generator.ISeedSequence.register(_Words)


class _Words:
    """One row of ``seed_words`` as a PCG64's seed sequence, which PCG64 reads by raw pointer."""

    def __init__(self, words: np.ndarray):
        _register_words()
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:  # the one request PCG64 makes
            raise ValueError(f"seed words serve 4 uint64 words only, not {n_words} of {dtype}")
        return np.ascontiguousarray(self._words, dtype=np.uint64)


class ReplicateStreams:
    """Uniform draws for a batch of replicate rows, row r on the PCG64 seeded by ``words[r]``.

    Every row's Generator is built with the batch, and in a wider batch
    fills the row's buffer at once. A one-row batch reads its Generator
    directly; in a wider batch each row keeps its unread uniforms at the end
    of its buffer, which its Generator refills only when a step needs more.
    """

    def __init__(self, words: np.ndarray):
        rows = len(words)
        width = min(_ROW_BUFFER, _STREAM_BUFFER // rows) if rows > 1 else 0
        self._buf = np.empty((rows, width))
        self._pos, self._base = np.zeros(rows, dtype=np.intp), np.arange(rows) * width
        self._rngs = [np.random.Generator(np.random.PCG64(_Words(row))) for row in words]
        for rng, buf in zip(self._rngs, self._buf):
            rng.random(out=buf)

    def __len__(self) -> int:
        return len(self._rngs)

    def draw(self, counts: np.ndarray) -> np.ndarray:
        """The next ``counts[r]`` uniforms of every row r (0 sits the step out), in row order."""
        if len(self) == 1:
            return self._rngs[0].random(counts.item())
        end = self._pos + counts
        if end.max() > self._buf.shape[1]:
            for row in np.flatnonzero(end > self._buf.shape[1]).tolist():
                self._refill(row, int(counts[row]))
            end = self._pos + counts
        self._pos = end
        ends = counts.cumsum()
        cells = (self._base + end - ends).repeat(counts)
        return self._buf.ravel()[cells + np.arange(ends[-1])]

    def _refill(self, row: int, need: int) -> None:
        """Keep the row's unread uniforms and fill the rest of its buffer from its stream."""
        width = self._buf.shape[1]
        if need > width:  # every row's unread uniforms move to the end of a wider buffer
            wider = np.empty((len(self), need))
            wider[:, need - width :] = self._buf
            self._buf = wider
            self._pos += need - width
            self._base = np.arange(len(self)) * need
        buf = self._buf[row]
        left = buf.size - int(self._pos[row])
        if left:
            buf[:left] = buf[-left:]
        self._rngs[row].random(out=buf[left:])
        self._pos[row] = 0


def si_step(
    g: Graph,
    infected: np.ndarray,
    lam: float,
    rng: np.random.Generator | Sequence[np.random.Generator] | Callable[[np.ndarray], np.ndarray],
    heads: np.ndarray | None = None,
) -> np.ndarray:
    """One synchronous update; returns the newly infected cells as sorted flat indices.

    ``infected`` is one replicate's (n,) state or an (R, n) batch of rows
    over the n nodes of ``g``; node v of row b is cell ``b * n + v``. Each
    open contact, from an infected cell to a susceptible one, draws one
    uniform from its row's stream, in a fixed order: infected cells
    ascending, neighbors in adjacency order. ``heads`` are the head cells of
    the open contacts in that order; by default the step finds them by
    expanding every infected cell. ``rng`` is ``draw(counts)``, returning
    row r's next ``counts[r]`` uniforms in row order, or one Generator per
    row (a lone one for an (n,) state). ``infected`` is not modified.
    """
    n = g.node_count
    state = np.asarray(infected, dtype=bool)
    if state.ndim not in (1, 2) or state.shape[-1] != n:
        raise ValueError(f"infected must have shape ({n},) or (R, {n}), got {state.shape}")
    rows = 1 if state.ndim == 1 else len(state)
    if not callable(rng):
        rngs = [rng] if isinstance(rng, np.random.Generator) else rng
        if len(rngs) != rows:
            raise ValueError(f"need one Generator per row: {rows} row(s), {len(rngs)} given")
        rng = lambda counts: np.concatenate([r.random(c) for r, c in zip(rngs, counts.tolist())])
    state = state.ravel()
    if heads is None:
        heads = unseen_heads(g, np.flatnonzero(state), state)
    counts = np.bincount(heads // n, minlength=rows)
    newly = np.zeros(state.size, dtype=bool)
    newly[heads[rng(counts) < lam]] = True
    return newly.nonzero()[0]


def _run_chunk(
    g: Graph,
    seeds: tuple[int, ...],
    lam: float,
    low: int,
    cap: Callable[[], int],
    streams: ReplicateStreams,
) -> np.ndarray:
    """Run one replicate per stream row as a batch of boolean state rows.

    Returns the infected count of every row at steps 0..T, where T is the
    last step any row took (a stopped row keeps its terminal count), built
    once at the end from the cells each step infected. Each step marks the
    contacts of the cells infected the step before as ``live``, the run's
    one expansion of them, then closes the live contacts whose head is
    infected; the rest are the step's open contacts. A step so costs an
    O(R 2E) bool scan plus the new cells' degrees plus the live contacts.
    The batch stops when none is open, or at the step cap ``cap()``, which
    is at least ``low`` and asked for only by a batch that runs ``low``
    steps without stopping.
    """
    n, rows = g.node_count, len(streams)
    copies, heads = disjoint_copies(g, rows)
    infected = np.zeros((rows, n), dtype=bool)
    infected[:, list(seeds)] = True
    cells = infected.ravel()
    news = [np.flatnonzero(cells)]  # the cells infected at each step, the seeds at step 0
    live = np.zeros(heads.size, dtype=bool)
    while lam > 0.0 and (len(news) <= low or len(news) <= cap()):
        live[contact_ids(copies, news[-1])[0]] = True
        contacts = live.nonzero()[0]
        reached = heads[contacts]
        susceptible = ~cells[reached]
        live[contacts] = susceptible
        reached = reached[susceptible]
        if not reached.size:
            break
        news.append(si_step(g, infected, lam, streams.draw, reached))
        cells[news[-1]] = True
    steps = np.repeat(np.arange(len(news)), [new.size for new in news])
    at = np.concatenate(news) // n * len(news) + steps  # (row, step) of every infection
    return np.bincount(at, minlength=rows * len(news)).reshape(rows, -1).cumsum(axis=1)


def replicate_counts(g: Graph, cfg: SiConfig) -> np.ndarray:
    """Infected counts of every replicate at steps 0..T, one int row per replicate.

    T is the last step any replicate took; a replicate that stopped earlier
    keeps its terminal count. Deterministic given cfg: replicate k always
    uses the substream derived from (cfg.rng_seed, k), independent of the
    replicate count and of how the replicates are batched.

    Without ``cfg.max_steps`` the cap is 10 times the diameter (at least 1),
    computed once and only for a batch still running at a double-sweep bound.
    """
    if cfg.seeds[-1] >= g.node_count:  # seeds are sorted
        raise ValueError(f"seed node {cfg.seeds[-1]} out of range for {g.node_count} nodes")
    if cfg.max_steps is None:
        low = 10 * max(double_sweep_depth(g, cfg.seeds[0]), 1)
        cap = cache(lambda: 10 * max(diameter(g), 1))
    else:
        low = cfg.max_steps
        cap = lambda: low
    chunk = max(1, _CHUNK_CONTACTS // max(g.edge_arrays[1].size, g.node_count))
    words = seed_words(cfg.rng_seed, range(cfg.replicates))
    parts = [
        _run_chunk(g, cfg.seeds, cfg.lam, low, cap, ReplicateStreams(words[i : i + chunk]))
        for i in range(0, cfg.replicates, chunk)
    ]
    if len(parts) == 1:
        return parts[0]
    # pad every batch to the longest run by carrying its terminal counts
    length = max(part.shape[1] for part in parts)
    return np.vstack([np.pad(p, ((0, 0), (0, length - p.shape[1])), mode="edge") for p in parts])


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
