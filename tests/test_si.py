import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fldrank.graph
import fldrank.si
from conftest import (
    barabasi_albert_graph,
    binary_tree_graph,
    coupled_infected_sets,
    grid_graph,
    oracle_ability,
    oracle_ibmf_mean,
    oracle_si_step,
    oracle_trajectory,
    oracle_tree_mean,
    path_graph,
    prufer_tree_graph,
    random_graph,
    same_runs,
    star_graph,
)
from fldrank import (
    Graph,
    SiConfig,
    bfs_distances,
    connected_components,
    diameter,
    lambda_from_beta,
    replicate_counts,
    replicate_rng,
    si_step,
    simulate,
    spreading_ability,
)
from fldrank.datasets import load_karate
from fldrank.si import _ROW_BUFFER, ReplicateStreams, _Words, derive_seed, seed_words


def infected_mask(g, labels):
    mask = np.zeros(g.node_count, dtype=bool)
    for label in labels:
        mask[g.label_to_id[label]] = True
    return mask


# --- single step ------------------------------------------------------------


def test_step_zero_rate_infects_nobody(kite):
    mask = infected_mask(kite, ["7"])
    new = si_step(kite, mask, 0.0, replicate_rng(0, 0))
    assert new.size == 0


def test_step_rate_one_is_the_bfs_frontier(kite):
    mask = infected_mask(kite, ["7"])
    new = si_step(kite, mask, 1.0, replicate_rng(0, 0))
    assert sorted(kite.node_labels[i] for i in new) == ["1", "2", "3", "4", "5", "6"]


def test_step_two_node_empirical_rate():
    g = Graph.build([("a", "b")])
    mask = np.array([True, False])
    hits = 0
    reps = 2000
    for k in range(reps):
        new = si_step(g, mask.copy(), 0.5, replicate_rng(123, k))
        hits += new.size
    # 3 sigma binomial band around 0.5
    bound = 3 * math.sqrt(0.25 / reps)
    assert abs(hits / reps - 0.5) < bound


def test_step_returns_unique_sorted_ids():
    g = path_graph(3)
    mask = infected_mask(g, ["0", "2"])
    new = si_step(g, mask, 1.0, replicate_rng(0, 0))
    assert list(new) == [g.label_to_id["1"]]


# --- trajectories -----------------------------------------------------------


def test_wavefront_from_kite_center(kite):
    cfg = SiConfig(lam=1.0, seeds=(kite.label_to_id["7"],), replicates=4, rng_seed=9)
    ensemble = simulate(kite, cfg)
    assert ensemble.mean_f == (1.0, 7.0, 8.0, 9.0, 10.0)
    assert all(v == 0.0 for v in ensemble.std_f)
    # every replicate stops at step 4, so the table has no padding
    assert replicate_counts(kite, cfg).tolist() == [[1, 7, 8, 9, 10]] * 4


def test_zero_rate_trajectory_is_constant(kite):
    cfg = SiConfig(lam=0.0, seeds=(0, 3), replicates=3)
    assert simulate(kite, cfg).mean_f == (2.0,)
    assert replicate_counts(kite, cfg).tolist() == [[2]] * 3  # every run stops at step 0


def test_config_validation():
    with pytest.raises(ValueError):
        SiConfig(lam=-0.1, seeds=(0,))
    with pytest.raises(ValueError):
        SiConfig(lam=1.1, seeds=(0,))
    with pytest.raises(ValueError, match="seed set"):
        SiConfig(lam=0.5, seeds=())
    with pytest.raises(ValueError):
        SiConfig(lam=0.5, seeds=(0,), replicates=0)
    with pytest.raises(ValueError):
        SiConfig(lam=0.5, seeds=(0,), rng_seed=-1)
    with pytest.raises(ValueError, match="max_steps"):
        SiConfig(lam=0.5, seeds=(0,), max_steps=-1)
    # counts used to pass as floats or bools: 2.5 steps ran 2, NaN ran 0,
    # True ran one replicate, and 2.5 replicates failed inside range(); a
    # True rate ran at rate 1, and a str rate failed without naming lam
    for name, bad in [
        ("lam", True),
        ("lam", np.True_),
        ("lam", "0.5"),
        ("lam", None),
        ("max_steps", 2.5),
        ("max_steps", float("nan")),
        ("max_steps", True),
        ("replicates", True),
        ("replicates", np.True_),
        ("replicates", 2.5),
        ("replicates", "3"),
        # a seed set that is not iterable failed inside the set comprehension
        ("seeds", 5),
        ("seeds", None),
    ]:
        with pytest.raises(TypeError, match=name):
            SiConfig(**{"lam": 0.5, "seeds": (0,), name: bad})
    cfg = SiConfig(lam=np.float32(0.5), seeds=(0,), replicates=np.int64(3), max_steps=np.uint8(4))
    assert (cfg.lam, cfg.replicates, cfg.max_steps) == (0.5, 3, 4)
    assert type(cfg.lam) is float
    assert type(cfg.replicates) is int and type(cfg.max_steps) is int
    assert SiConfig(lam=0.5, seeds=(2, 0, 2)).seeds == (0, 2)
    # a seed array of two or more nodes used to fail on its ambiguous truth value
    assert SiConfig(lam=0.5, seeds=np.array([3, 1, 3])).seeds == (1, 3)
    with pytest.raises(ValueError, match="seed set"):
        SiConfig(lam=0.5, seeds=np.array([], dtype=np.int64))


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False, np.True_, "3", None])
def test_config_rejects_a_seed_that_is_not_an_integer(bad):
    # a float used to pass here and fail later inside simulate; True ran as seed 1
    with pytest.raises(TypeError, match="rng_seed"):
        SiConfig(lam=0.5, seeds=(0,), rng_seed=bad)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7), np.uint64(2**64 - 1)])
def test_numpy_integer_seed_runs_the_streams_of_the_equal_int(karate, seed):
    cfg = SiConfig(lam=0.3, seeds=(0,), replicates=6, rng_seed=seed)
    assert type(cfg.rng_seed) is int and cfg.rng_seed == int(seed)
    plain = SiConfig(lam=0.3, seeds=(0,), replicates=6, rng_seed=int(seed))
    assert simulate(karate, cfg) == simulate(karate, plain)
    assert np.array_equal(replicate_counts(karate, cfg), replicate_counts(karate, plain))


@pytest.mark.parametrize(
    "bad, error",
    [(True, TypeError), (np.True_, TypeError), (1.0, TypeError), ("1", TypeError), (-1, ValueError)],
)
def test_config_rejects_a_seed_node_that_is_not_a_non_negative_integer(bad, error):
    # True used to fail inside simulate as a bare IndexError, 1.0 as a tuple-index TypeError
    with pytest.raises(error, match="seeds"):
        SiConfig(lam=0.5, seeds=(0, bad))


def test_numpy_integer_seed_node_runs_as_the_equal_int(karate):
    cfg = SiConfig(lam=0.3, seeds=(np.int64(7),), replicates=6)
    assert cfg.seeds == (7,) and type(cfg.seeds[0]) is int
    plain = SiConfig(lam=0.3, seeds=(7,), replicates=6)
    assert np.array_equal(replicate_counts(karate, cfg), replicate_counts(karate, plain))


def test_simulate_rejects_out_of_range_seed(kite):
    with pytest.raises(ValueError):
        simulate(kite, SiConfig(lam=0.5, seeds=(99,)))


def test_lambda_from_beta():
    assert lambda_from_beta(3) == 0.125
    assert lambda_from_beta(1) == 0.5
    assert lambda_from_beta(float("inf")) == 0.0
    # -1 used to give rate 2.0, True rate 0.5, and "3" failed without naming beta
    for bad in [-1, float("nan")]:
        with pytest.raises(ValueError, match="beta"):
            lambda_from_beta(bad)
    for bad in [True, "3"]:
        with pytest.raises(TypeError, match="beta"):
            lambda_from_beta(bad)


def test_trajectory_monotone_and_bounded(karate):
    cfg = SiConfig(lam=0.2, seeds=(0,), replicates=10, rng_seed=5)
    counts = replicate_counts(karate, cfg)
    assert (np.diff(counts, axis=1) >= 0).all()
    assert counts[:, -1].max() <= karate.node_count


def test_bounded_by_reachable_set():
    g = Graph.build([("a", "b"), ("x", "y"), ("y", "z")])
    cfg = SiConfig(lam=1.0, seeds=(g.label_to_id["a"],), replicates=2)
    ensemble = simulate(g, cfg)
    assert ensemble.mean_f[-1] == 2.0


def test_saturation_at_high_rate_before_step_cap():
    rng = np.random.default_rng(31)
    for _ in range(5):
        g = random_graph(rng, int(rng.integers(5, 50)), 0.15)
        comp = connected_components(g)
        seed = int(rng.integers(g.node_count))
        reach = comp.component_sizes[comp.component_id[seed]]
        cfg = SiConfig(lam=0.5, seeds=(seed,), replicates=8, rng_seed=int(rng.integers(2**32)))
        assert (replicate_counts(g, cfg)[:, -1] == reach).all()


def test_susceptible_plus_infected_partition_holds(kite):
    infected = infected_mask(kite, ["7"])
    susceptible = ~infected
    rng = replicate_rng(77, 0)
    for t in range(12):
        assert int(infected.sum()) + int(susceptible.sum()) == kite.node_count
        assert not (infected & susceptible).any()
        new = si_step(kite, infected, 0.35, rng)
        assert not infected[new].any()
        infected[new] = True
        susceptible[new] = False


def test_padding_aligns_replicates_of_different_length():
    g = path_graph(6)
    cfg = SiConfig(lam=0.45, seeds=(0,), replicates=20, rng_seed=1)
    ensemble = simulate(g, cfg)
    counts = replicate_counts(g, cfg)
    length = counts.shape[1]
    assert len(ensemble.mean_f) == len(ensemble.std_f) == length
    # every run infects the whole path; the slowest does so at the last
    # step, and a faster one is padded with its terminal count
    full = counts == g.node_count
    assert full[:, -1].all()
    stopped_at = full.argmax(axis=1)
    assert stopped_at.max() == length - 1
    assert stopped_at.min() < length - 1


# --- batched kernel against the per-contact oracle ----------------------------


def _two_component_graph():
    g = Graph.build([("a", "b"), ("b", "c"), ("c", "d"), ("x", "y"), ("y", "z"), ("z", "x")])
    return g, (g.label_to_id["b"], g.label_to_id["y"])


@pytest.mark.parametrize("graph", ["kite", "karate", "path", "two components"])
@pytest.mark.parametrize("lam", [0.0, 0.05, 0.35, 1.0])
@pytest.mark.parametrize("max_steps", [0, 3, None])
def test_simulate_matches_per_contact_oracle(graph, lam, max_steps, request):
    if graph == "two components":
        g, seeds = _two_component_graph()
    elif graph == "path":
        g, seeds = path_graph(7), (3,)
    else:
        g, seeds = request.getfixturevalue(graph), (0,)
    cfg = SiConfig(lam=lam, seeds=seeds, replicates=12, max_steps=max_steps, rng_seed=21)
    _assert_counts_match_oracle(g, cfg)


@pytest.mark.parametrize("max_steps", [1, 2, 3])
def test_simulate_matches_oracle_on_steps_wider_than_a_row_buffer(max_steps):
    # the center's first step draws one uniform per leaf, past a row's default buffer
    g = star_graph(_ROW_BUFFER + 76)
    cfg = SiConfig(lam=0.05, seeds=(g.label_to_id["c"],), replicates=12, max_steps=max_steps)
    _assert_counts_match_oracle(g, cfg)


@pytest.mark.parametrize("graph", ["ba200", "grid12"])
@pytest.mark.parametrize("one_row_batches", [False, True], ids=["batched", "one-row"])
def test_simulate_matches_oracle_where_most_cells_end_interior(graph, one_row_batches, monkeypatch):
    # run to saturation: most infected cells lose their last susceptible
    # neighbor and leave the spreaders long before the run ends
    g = barabasi_albert_graph(200, 3, seed=0) if graph == "ba200" else grid_graph(12, 12)
    if one_row_batches:
        monkeypatch.setattr(fldrank.si, "_CHUNK_CONTACTS", 1)
    cfg = SiConfig(lam=0.3, seeds=(0,), replicates=8, rng_seed=0)
    _assert_counts_match_oracle(g, cfg)
    assert replicate_counts(g, cfg)[:, -1].tolist() == [g.node_count] * 8


def test_a_run_past_the_sweep_bound_falls_back_to_the_exact_cap(monkeypatch):
    # the seed's triangle sweeps to depth 1, a bound of 10 steps, but the
    # separate 6-node path sets the diameter to 5, a cap of 50 steps
    g = Graph.build(
        [("s", "a"), ("a", "b"), ("b", "s")] + [(f"p{i}", f"p{i + 1}") for i in range(5)]
    )
    calls = {"all_distance_fields": [], "diameter": []}

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda graph: calls[name].append(graph) or real(graph))

    spy(fldrank.graph, "all_distance_fields")
    spy(fldrank.si, "diameter")  # by its module-level name, where the tracer wraps it
    cfg = SiConfig(lam=0.05, seeds=(g.label_to_id["s"],), replicates=20, rng_seed=3)
    table = replicate_counts(g, cfg)
    # one exact diameter for all 20 rows, which runs the all-sources pass once
    assert calls == {"all_distance_fields": [g], "diameter": [g]}
    assert table.shape[1] - 1 > 10  # some replicate outlasted the bound
    for k, row in enumerate(table.tolist()):
        f = list(oracle_trajectory(g, cfg.seeds, cfg.lam, None, replicate_rng(3, k)).f)
        assert row == f + f[-1:] * (len(row) - len(f))


@pytest.mark.parametrize(
    "build", [load_karate, lambda: barabasi_albert_graph(200, 3, seed=0)], ids=["karate", "ba200"]
)
def test_a_run_within_the_sweep_bound_runs_no_all_sources_pass(build):
    g, h = build(), build()  # h runs the exact cap on a graph of its own
    cfg = SiConfig(lam=0.5, seeds=(0,), replicates=20, rng_seed=4)
    table = replicate_counts(g, cfg)
    assert "shell_counts" not in g.__dict__
    capped = SiConfig(
        lam=0.5, seeds=(0,), replicates=20, max_steps=10 * max(diameter(h), 1), rng_seed=4
    )
    assert np.array_equal(table, replicate_counts(h, capped))


def _assert_counts_match_oracle(g, cfg):
    """Each table row is its oracle run padded with its terminal count."""
    expected = [
        oracle_trajectory(g, cfg.seeds, cfg.lam, cfg.max_steps, replicate_rng(cfg.rng_seed, k))
        for k in range(cfg.replicates)
    ]
    table = replicate_counts(g, cfg)
    assert table.shape == (cfg.replicates, max(tr.terminated_at for tr in expected) + 1)
    for row, trajectory in zip(table.tolist(), expected):
        f = list(trajectory.f)
        assert row == f + f[-1:] * (len(row) - len(f))


def test_step_matches_per_contact_oracle(karate):
    rng = np.random.default_rng(2)
    for k in range(20):
        infected = rng.random(karate.node_count) < 0.3
        new = si_step(karate, infected, 0.4, replicate_rng(5, k))
        assert new.tolist() == oracle_si_step(karate, infected, 0.4, replicate_rng(5, k)).tolist()


def test_batch_step_matches_row_by_row_steps(karate):
    batch = np.random.default_rng(4).random((5, karate.node_count)) < 0.3
    new = si_step(karate, batch, 0.4, [replicate_rng(9, k) for k in range(5)])
    rows, nodes = np.divmod(new, karate.node_count)
    for k in range(5):
        expected = si_step(karate, batch[k], 0.4, replicate_rng(9, k))
        assert nodes[rows == k].tolist() == expected.tolist()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 16),
    p=st.floats(0.1, 0.8),
    rows=st.integers(1, 4),
    density=st.floats(0.0, 1.0),
    lam=st.floats(0.0, 1.0),
)
def test_step_over_the_open_contacts_is_the_step_over_every_infected_cell(
    seed, n, p, rows, density, lam
):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    state = rng.random((rows, n)) < density
    # the head cells of the open contacts, by brute force, in draw order
    heads = np.array(
        [
            b * n + u
            for b in range(rows)
            for v in range(n)
            if state[b, v]
            for u in g.adjacency[v]
            if not state[b, u]
        ],
        dtype=np.intp,
    )
    if rows == 1:  # one replicate's (n,) state
        state = state[0]
    every, tracked = ([replicate_rng(seed, k) for k in range(rows)] for _ in range(2))
    expected = si_step(g, state, lam, every)
    assert si_step(g, state, lam, tracked, heads).tolist() == expected.tolist()
    # both consumed the same uniforms, so every stream is at the same next draw
    assert [r.random() for r in every] == [r.random() for r in tracked]


@pytest.mark.parametrize("shape", [(3,), (5,), (2, 3), (1, 5), (2, 2, 4), ()])
def test_step_rejects_a_state_of_another_shape(shape):
    g = path_graph(4)
    with pytest.raises(ValueError, match="shape"):
        si_step(g, np.ones(shape, dtype=bool), 0.5, replicate_rng(0, 0))


@pytest.mark.parametrize("rows, generators", [(3, 4), (3, 2), (3, 0), (1, 2)])
def test_step_rejects_a_generator_count_other_than_the_row_count(rows, generators):
    g = path_graph(4)
    state = np.zeros((rows, 4), dtype=bool)
    state[:, 0] = True
    with pytest.raises(ValueError, match="one Generator per row"):
        si_step(g, state, 0.5, [replicate_rng(0, k) for k in range(generators)])


def test_step_takes_a_lone_generator_for_one_row_only():
    g = path_graph(4)
    one = np.array([True, False, False, False])
    expected = si_step(g, one, 1.0, replicate_rng(0, 0))
    assert si_step(g, one, 1.0, [replicate_rng(0, 0)]).tolist() == expected.tolist()
    assert si_step(g, one[None], 1.0, replicate_rng(0, 0)).tolist() == expected.tolist()
    with pytest.raises(ValueError, match="one Generator per row"):
        si_step(g, np.stack([one, one]), 1.0, replicate_rng(0, 0))


def test_a_run_expands_only_the_boundary(monkeypatch):
    # on a path seeded at one end at rate 1, step t has t + 1 infected cells
    # but one new cell, with 2 contacts at most, to expand
    real = fldrank.si.contact_ids
    sizes = []

    def spy(offsets, nodes):
        contacts, degrees = real(offsets, nodes)
        sizes.append(contacts.size)
        return contacts, degrees

    monkeypatch.setattr(fldrank.si, "contact_ids", spy)
    g = path_graph(400)
    simulate(g, SiConfig(lam=1.0, seeds=(g.label_to_id["0"],), replicates=1))
    monkeypatch.undo()
    assert len(sizes) >= 399  # at least one expansion per step
    assert max(sizes) <= 2


@pytest.mark.parametrize("one_row_batches", [False, True])
def test_a_run_expands_each_infected_cell_once(karate, one_row_batches, monkeypatch):
    real = fldrank.si.contact_ids
    expanded = []

    def spy(offsets, nodes):
        contacts, degrees = real(offsets, nodes)
        expanded.append(contacts.size)
        return contacts, degrees

    if one_row_batches:
        monkeypatch.setattr(fldrank.si, "_CHUNK_CONTACTS", 1)
    monkeypatch.setattr(fldrank.si, "contact_ids", spy)
    cfg = SiConfig(lam=0.3, seeds=(0, 16), replicates=12, rng_seed=2)
    table = replicate_counts(karate, cfg)
    monkeypatch.undo()
    # every run infects the whole (connected) graph before its step cap, and
    # so has expanded each of its cells, all 2E contacts, once by its end
    assert (table[:, -1] == karate.node_count).all()
    assert sum(expanded) == cfg.replicates * karate.edge_arrays[1].size


def test_simulate_steps_each_batch_through_si_step(karate, monkeypatch):
    # per-step time and infection counts are attributed to si_step
    real = fldrank.si.si_step
    sizes = []

    def spy(*args):
        new = real(*args)
        sizes.append(new.size)
        return new

    monkeypatch.setattr(fldrank.si, "si_step", spy)
    cfg = SiConfig(lam=0.2, seeds=(0,), replicates=10, max_steps=5, rng_seed=1)
    simulate(karate, cfg)
    monkeypatch.undo()
    counts = replicate_counts(karate, cfg)  # the ten rows run as one batch
    assert len(sizes) == counts.shape[1] - 1
    assert sum(sizes) == (counts[:, -1] - counts[:, 0]).sum()


def test_ensemble_does_not_depend_on_batch_size(karate, monkeypatch):
    cfg = SiConfig(lam=0.15, seeds=(0, 33), replicates=30, rng_seed=6)
    batched = simulate(karate, cfg)
    batched_counts = replicate_counts(karate, cfg)
    monkeypatch.setattr(fldrank.si, "_CHUNK_CONTACTS", 1)  # one replicate per batch
    assert simulate(karate, cfg) == batched
    assert same_runs(replicate_counts(karate, cfg), batched_counts)


# --- replicate streams against numpy's own generators --------------------------

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128, 2**200 + 7]
EDGE_KEYS = [0, 1, 99, 2**32 - 1]


def _expected_draws(refs, counts):
    return np.concatenate([ref.random(c) for ref, c in zip(refs, counts)])


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_pcg64_states_are_the_states_replicate_rng_starts_from(seed):
    words = seed_words(seed, EDGE_KEYS)
    assert words.dtype == np.uint64 and words.shape == (len(EDGE_KEYS), 4)
    for key, row in zip(EDGE_KEYS, words):
        seq = np.random.SeedSequence(seed, spawn_key=(key,))
        assert row.tolist() == seq.generate_state(4, np.uint64).tolist()
        start = np.random.PCG64(_Words(row)).state
        assert start == replicate_rng(seed, key).bit_generator.state


def test_seed_words_serve_only_the_request_pcg64_makes():
    row = seed_words(5, [3])[0]
    # PCG64 reads the words through a raw pointer, so any layout becomes 4
    # contiguous native uint64 words, and any other request fails
    for given in [row, row.astype(row.dtype.newbyteorder()), np.repeat(row, 2)[::2]]:
        got = _Words(given).generate_state(4, np.uint64)
        assert got.flags.c_contiguous and got.dtype == np.uint64 and got.dtype.isnative
        assert got.tolist() == row.tolist()
    swapped = np.dtype(np.uint64).newbyteorder()
    for request in [(4,), (4, np.uint32), (8, np.uint64), (2, np.uint64), (4, np.int64), (4, swapped)]:
        with pytest.raises(ValueError, match="seed words"):
            _Words(row).generate_state(*request)


def _loads_numpy_random(statement):
    """Whether a fresh interpreter has ``numpy.random`` loaded after ``statement``."""
    src = str(Path(fldrank.si.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    check = f"import sys; {statement}; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip() == "True"


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # _Words registers itself with numpy.random on first use, not on import
    if _loads_numpy_random("import numpy"):
        pytest.skip("this numpy loads numpy.random on import")
    assert not _loads_numpy_random("import fldrank.cli")


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_streams_match_replicate_rng_draw_for_draw(seed):
    streams = ReplicateStreams(seed_words(seed, EDGE_KEYS))
    refs = [replicate_rng(seed, key) for key in EDGE_KEYS]
    w = _ROW_BUFFER  # each of the four rows gets a buffer this wide at the first draw
    schedule = [
        [3, 0, w, 1],  # every row fills at the batch's first draw; row 2 drains it
        [w - 3, 0, 1, 5],  # row 0 drains; row 2 refills from offset w
        [0, w - 2, 0, 2],  # row 1's first draw leaves 2 unread
        # rows 1 and 3 refill in one step, and their draws straddle the end of
        # the old buffer and the new fill; row 0 refills from empty
        [w // 2, 5, 1, w - 4],
        [0, 0, 0, w],  # a lone drawing row draws a whole buffer right after a partial read
        # row 1 needs more than a row holds: every row widens, and row 2 reads
        # on from its unread uniforms at the end of the wider buffer
        [0, w + 7, 3, 0],
        # row 0 widens and refills, then row 3 widens again and moves row 0's
        # fresh uniforms; row 0's draws straddle its old unread and the fill
        [2 * w, 0, 1, 3 * w],
        [0, 0, 0, 5000],  # a lone drawing row widens, after a refill
        [0, 0, 0, 4],
        [0, 1, 1, 0],
    ]
    for counts in schedule:
        got = streams.draw(np.array(counts))
        assert got.tolist() == _expected_draws(refs, counts).tolist()
    # a one-row batch reads its Generator directly, below, past and far past a buffer's width
    lone = ReplicateStreams(seed_words(seed, EDGE_KEYS[-1:]))
    ref = replicate_rng(seed, EDGE_KEYS[-1])
    for count in [1, 3, w + 7, 5000]:
        assert lone.draw(np.array([count])).tolist() == ref.random(count).tolist()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**200),
    keys=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5, unique=True),
    steps=st.lists(st.lists(st.integers(0, 1500), min_size=5, max_size=5), max_size=8),
)
def test_streams_match_replicate_rng_on_any_draw_sequence(seed, keys, steps):
    streams = ReplicateStreams(seed_words(seed, keys))
    refs = [replicate_rng(seed, key) for key in keys]
    for step in steps:
        # rows with a zero count sit the step out, as stopped rows do
        counts = step[: len(keys)]
        got = streams.draw(np.array(counts))
        assert got.tolist() == _expected_draws(refs, counts).tolist()


@pytest.mark.parametrize("keys", [[2**32], [0, 2**32 + 5], [-1]])
def test_replicate_index_outside_one_key_word_fails_loudly(keys):
    with pytest.raises(ValueError, match="replicate indices"):
        seed_words(0, keys)


def test_count_table_is_pinned_across_numpy_versions(karate, monkeypatch):
    # every other stream test compares with numpy's own Generators, which
    # would not show a stream that changed between numpy versions; recorded
    # under numpy 2.4.6
    cfg = SiConfig(lam=0.3, seeds=(0,), replicates=4, max_steps=5, rng_seed=11)
    pinned = [
        [1, 4, 15, 22, 28, 30],
        [1, 6, 14, 26, 31, 32],
        [1, 10, 17, 24, 29, 32],
        [1, 9, 13, 19, 24, 32],
    ]
    assert replicate_counts(karate, cfg).tolist() == pinned  # one four-row batch
    monkeypatch.setattr(fldrank.si, "_CHUNK_CONTACTS", 1)
    assert replicate_counts(karate, cfg).tolist() == pinned  # four one-row batches


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_derive_seed_matches_seed_sequence(seed):
    for key in [(0, 0), (3, 33), (9, 2**32 - 1), (2**32, 1), (2**70,), ()]:
        seq = np.random.SeedSequence(entropy=seed, spawn_key=key)
        assert derive_seed(seed, *key) == int(seq.generate_state(1, np.uint64)[0])


def test_negative_seed_or_key_fails_loudly():
    with pytest.raises(ValueError):
        derive_seed(-1, 0)
    with pytest.raises(ValueError):
        derive_seed(0, 1, -2)
    with pytest.raises(ValueError, match="non-negative"):
        seed_words(-1, [0])


# --- engine against the per-contact oracle on numpy's generators ---------------


def _graph_with_isolated_node():
    return Graph.build([("a", "b"), ("b", "c"), ("x", "y")], nodes=["z"])


@pytest.mark.parametrize("graph", ["kite", "karate", "disconnected"])
@pytest.mark.parametrize("lam", [0.05, 0.4, 1.0])
@pytest.mark.parametrize("t_eval", [1, 10])
def test_spreading_ability_is_the_oracle_mean(graph, lam, t_eval, request):
    if graph == "disconnected":
        g = _graph_with_isolated_node()
        nodes = range(g.node_count)
    else:
        g = request.getfixturevalue(graph)
        nodes = [0, g.node_count // 2, g.node_count - 1]
    for node in nodes:
        got = spreading_ability(g, node, lam, t_eval=t_eval, replicates=15, rng_seed=node + 40)
        assert got == oracle_ability(g, node, lam, t_eval, 15, node + 40)


# --- monotone coupling ------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 16),
    p=st.floats(0.15, 0.6),
    lam_lo=st.floats(0.05, 0.5),
    extra=st.floats(0.0, 0.5),
)
def test_infection_grows_with_rate_under_shared_randomness(seed, n, p, lam_lo, extra):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    seeds = {int(rng.integers(n))}
    lam_hi = min(1.0, lam_lo + extra)
    history = coupled_infected_sets(g, seeds, lam_lo, lam_hi, steps=8, rng=rng)
    for lo, hi in history:
        assert lo <= hi


# --- determinism ------------------------------------------------------------


def test_identical_config_identical_ensemble(karate):
    cfg = SiConfig(lam=0.3, seeds=(0, 5), replicates=25, rng_seed=88)
    a = simulate(karate, cfg)
    b = simulate(karate, cfg)
    assert a.mean_f == b.mean_f
    assert a.std_f == b.std_f


def test_replicate_trajectory_does_not_depend_on_replicate_count(karate):
    def run(replicates):
        cfg = SiConfig(lam=0.25, seeds=(1, 2, 3), replicates=replicates, rng_seed=4)
        return replicate_counts(karate, cfg)

    assert same_runs(run(16)[:8], run(8))


# --- per-node spreading ability ----------------------------------------------


def test_isolated_seed_scores_exactly_one():
    g = Graph.build([("a", "b")], nodes=["x"])
    assert spreading_ability(g, g.label_to_id["x"], 0.9, replicates=5) == 1.0


def test_full_rate_reaches_component_size(kite):
    node = kite.label_to_id["7"]
    assert spreading_ability(kite, node, 1.0, t_eval=4, replicates=3) == 10.0
    assert spreading_ability(kite, node, 1.0, t_eval=9, replicates=3) == 10.0


def test_star_center_and_leaf_expectations():
    g = star_graph(4)
    reps = 4000
    center = spreading_ability(g, g.label_to_id["c"], 0.5, t_eval=1, replicates=reps, rng_seed=3)
    leaf = spreading_ability(g, g.label_to_id["l0"], 0.5, t_eval=1, replicates=reps, rng_seed=3)
    # center: 1 + Binomial(4, 1/2); leaf: 1 + Bernoulli(1/2); 3 sigma bands
    assert abs(center - 3.0) < 3 * math.sqrt(1.0 / reps)
    assert abs(leaf - 1.5) < 3 * math.sqrt(0.25 / reps)


# --- the exact SI mean on trees ---------------------------------------------

# replicate counts, seed and z bounds were fixed before the first run; a miss
# is a finding about the SI engine, not a reason to re-seed
EXACT_REPLICATES = 2000
BOUND_REPLICATES = 500
Z_BOUND = 4.0


def final_counts(g, node, lam, t, replicates):
    cfg = SiConfig(lam=lam, seeds=(node,), replicates=replicates, max_steps=t, rng_seed=0)
    return replicate_counts(g, cfg)[:, -1]


def z_score(counts, expected):
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert se > 0
    return (counts.mean() - expected) / se


@pytest.mark.parametrize(
    "build, n, lam, t, labels",
    [(path_graph, 201, 0.3, 10, ["0", "100"]), (binary_tree_graph, 255, 0.2, 8, ["0", "5", "200"])],
    ids=["path201", "tree255"],
)
def test_mean_count_matches_the_exact_tree_mean(build, n, lam, t, labels):
    g = build(n)
    for label in labels:
        node = g.label_to_id[label]
        counts = final_counts(g, node, lam, t, EXACT_REPLICATES)
        z = z_score(counts, oracle_tree_mean(g.shell_counts[node], t, lam))
        assert abs(z) <= Z_BOUND, (label, z)


def test_mean_count_is_at_least_the_tree_bound(karate):
    for node in range(karate.node_count):
        counts = final_counts(karate, node, 0.1, 5, BOUND_REPLICATES)
        z = z_score(counts, oracle_tree_mean(karate.shell_counts[node], 5, 0.1))
        assert z >= -Z_BOUND, (karate.node_labels[node], z)


# fixed with the constants above, before the first run
PRUFER_REPLICATES = 500


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 10_000),
    tree_seed=st.integers(0, 2**32 - 1),
    where=st.floats(0.0, 1.0, exclude_max=True),
    lam=st.sampled_from([0.1, 0.3, 0.5]),
    t=st.integers(1, 10),
)
def test_mean_count_matches_the_exact_mean_on_random_trees(n, tree_seed, where, lam, t):
    g = prufer_tree_graph(n, np.random.default_rng(tree_seed))
    node = int(where * n)
    counts = final_counts(g, node, lam, t, PRUFER_REPLICATES)
    z = z_score(counts, oracle_tree_mean(bfs_distances(g, node).shell_counts, t, lam))
    assert abs(z) <= Z_BOUND, z


def test_mean_count_is_at_least_the_tree_bound_on_ba200():
    g = barabasi_albert_graph(200, 3, seed=0)
    for node in range(0, g.node_count, 4):
        counts = final_counts(g, node, 0.1, 5, BOUND_REPLICATES)
        z = z_score(counts, oracle_tree_mean(g.shell_counts[node], 5, 0.1))
        assert z >= -Z_BOUND, (g.node_labels[node], z)


def test_rate_one_count_is_the_cumulative_shell_count(karate):
    graphs = [
        (path_graph(201), 10),
        (binary_tree_graph(255), 8),
        (karate, 2),
        (barabasi_albert_graph(200, 3, seed=0), 3),
        (grid_graph(12, 12), 4),
        (_graph_with_isolated_node(), 2),  # node 0 is the isolated one
    ]
    for g, t in graphs:
        for node in range(0, g.node_count, 7):
            shells = g.shell_counts[node]
            reach = sum(shells[: t + 1])
            assert final_counts(g, node, 1.0, t, 3).tolist() == [reach] * 3
            # both bounds are exact at rate 1, on any graph
            assert oracle_tree_mean(shells, t, 1.0) == reach
            assert oracle_ibmf_mean(g, node, 1.0, t) == reach


# --- both analytic bounds on any graph ----------------------------------------

# fixed before the first run, like the constants above: the tree mean bounds
# the mean from below, the individual-based mean field from above. At t = 2
# the upper bound is the exact mean from one seed, and an engine that infects
# at 1.1 lam lies 10-20 SE above it on karate at lam 0.5.
SANDWICH_REPLICATES = 2000
SANDWICH_GRAPHS = {
    "karate": load_karate,
    "ba200": lambda: barabasi_albert_graph(200, 3, seed=0),
    "grid12": lambda: grid_graph(12, 12),
}
SANDWICH_CASES = [
    ("karate", 0.5, 2, [str(v) for v in range(1, 35, 5)]),
    ("karate", 0.1, 4, [str(v) for v in range(1, 35, 5)]),
    ("ba200", 0.2, 3, [str(v) for v in range(0, 200, 25)]),
    ("grid12", 0.3, 5, ["0,0", "0,6", "5,5", "11,11", "3,8"]),
]


def sandwich_z(counts, g, node, lam, t):
    """z of the mean count against the tree lower bound and the mean-field upper bound.

    A sample with no spread (every run the same count, as from a seed alone
    in its component) is given a deviation of one count.
    """
    se = (counts.std(ddof=1) or 1.0) / math.sqrt(len(counts))
    lower = oracle_tree_mean(bfs_distances(g, node).shell_counts, t, lam)
    upper = oracle_ibmf_mean(g, node, lam, t)
    return (counts.mean() - lower) / se, (counts.mean() - upper) / se


@pytest.mark.parametrize("graph, lam, t, labels", SANDWICH_CASES)
def test_mean_count_lies_between_the_tree_and_mean_field_bounds(graph, lam, t, labels):
    g = SANDWICH_GRAPHS[graph]()
    for label in labels:
        node = g.label_to_id[label]
        counts = final_counts(g, node, lam, t, SANDWICH_REPLICATES)
        z_lower, z_upper = sandwich_z(counts, g, node, lam, t)
        assert z_lower >= -Z_BOUND and z_upper <= Z_BOUND, (label, z_lower, z_upper)


# fixed with the constants above, before the first run
GNP_REPLICATES = 500


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 30),
    isolated=st.integers(0, 3),
    graph_seed=st.integers(0, 2**32 - 1),
    p=st.floats(0.0, 0.4),
    where=st.floats(0.0, 1.0, exclude_max=True),
    lam=st.sampled_from([0.1, 0.3, 0.5]),
    t=st.integers(1, 6),
)
@example(n=5, isolated=2, graph_seed=0, p=0.3, where=0.99, lam=0.3, t=3)  # a seed alone
def test_mean_count_lies_between_both_bounds_on_random_graphs(
    n, isolated, graph_seed, p, where, lam, t
):
    # nodes n .. n + isolated - 1 have no edge
    rng = np.random.default_rng(graph_seed)
    edges = [(str(i), str(j)) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    g = Graph.build(edges, nodes=[str(i) for i in range(n + isolated)])
    node = int(where * g.node_count)
    counts = final_counts(g, node, lam, t, GNP_REPLICATES)
    z_lower, z_upper = sandwich_z(counts, g, node, lam, t)
    assert z_lower >= -Z_BOUND and z_upper <= Z_BOUND, (z_lower, z_upper)


def test_t_eval_must_be_positive(kite):
    with pytest.raises(ValueError, match="t_eval"):
        spreading_ability(kite, 0, 0.5, t_eval=0)
    # 2.5 used to run 2 steps and read step 2's mean
    for bad in [2.5, float("nan"), True, "2"]:
        with pytest.raises(TypeError, match="t_eval"):
            spreading_ability(kite, 0, 0.5, t_eval=bad)
    numpy_int, plain = (
        spreading_ability(kite, 0, 0.5, t_eval=t, replicates=5) for t in (np.int64(2), 2)
    )
    assert numpy_int == plain
