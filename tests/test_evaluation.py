import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_tau, oracle_ability, path_graph
from fldrank import (
    Graph,
    Measure,
    PairedSequence,
    ScoreVector,
    compute_measure,
    degree_centrality,
    kendall_tau,
    local_dimension,
    oriented_scores,
    rank_nodes,
    spreading_ability,
    tau_sweep,
    top_k_overlap,
)


def tau_of(w, v):
    return kendall_tau(PairedSequence(tuple(w), tuple(v)))


# --- kendall tau ------------------------------------------------------------


def test_identical_order_is_full_agreement():
    result = tau_of((1, 2, 3, 4), (1, 2, 3, 4))
    assert result.tau == 1.0
    assert result.n_c == 6
    assert result.n_d == 0
    assert result.n == 4


def test_reversed_order_is_full_disagreement():
    assert tau_of((1, 2, 3), (3, 2, 1)).tau == -1.0


def test_one_swapped_pair():
    result = tau_of((1, 2, 3), (1, 3, 2))
    assert result.n_c == 2
    assert result.n_d == 1
    assert result.tau == pytest.approx(1 / 3)


def test_ties_count_toward_neither_side():
    assert tau_of((1, 1), (1, 2)).tau == 0.0
    assert tau_of((1, 2), (2, 2)).tau == 0.0
    result = tau_of((1, 1, 2), (1, 2, 3))
    assert result.n_c == 2
    assert result.n_d == 0
    assert result.tau == pytest.approx(2 / 3)


def test_tau_formula_is_exact():
    result = tau_of((3, 1, 4, 1, 5), (2, 7, 1, 8, 2))
    assert result.tau == (result.n_c - result.n_d) / (0.5 * result.n * (result.n - 1))


def test_paired_sequence_validation():
    with pytest.raises(ValueError):
        PairedSequence((1.0,), (2.0,))
    with pytest.raises(ValueError):
        PairedSequence((1.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        PairedSequence((1.0, float("nan")), (1.0, 2.0))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)),
        min_size=2,
        max_size=60,
    )
)
def test_merge_counting_matches_pair_enumeration(pairs):
    w = tuple(float(a) for a, _ in pairs)
    v = tuple(float(b) for _, b in pairs)
    result = tau_of(w, v)
    n_c, n_d = brute_force_tau(w, v)
    assert (result.n_c, result.n_d) == (n_c, n_d)


def test_counting_matches_pair_enumeration_at_size():
    # 800 pairs over few distinct values, so both coordinates carry long tie
    # runs, with -0.0 and 0.0 (equal, so tied) mixed into each
    rng = np.random.default_rng(20260)
    values = np.array([-2.5, -1.0, -0.0, 0.0, 0.5, 3.0])
    w = tuple(float(x) for x in rng.choice(values, 800))
    v = tuple(float(x) for x in rng.choice(values[:-1], 800))
    assert {math.copysign(1.0, x) for x in w if x == 0} == {-1.0, 1.0}
    assert {math.copysign(1.0, x) for x in v if x == 0} == {-1.0, 1.0}
    result = tau_of(w, v)
    assert (result.n_c, result.n_d) == brute_force_tau(w, v)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
        min_size=2,
        max_size=40,
    )
)
def test_tau_stays_in_range(pairs):
    result = tau_of([a for a, _ in pairs], [b for _, b in pairs])
    assert -1.0 <= result.tau <= 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=30, unique=True),
    st.integers(0, 2**32 - 1),
)
def test_tau_antisymmetric_when_untied(v, seed):
    w = list(np.random.default_rng(seed).permutation(len(v)).astype(float))
    assert tau_of(w, v).tau == -tau_of(w, [-x for x in v]).tau


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-10_000, 10_000), st.integers(-10_000, 10_000)),
        min_size=2,
        max_size=30,
    )
)
def test_tau_invariant_under_increasing_transform(pairs):
    # spacing >= 1e-3 keeps exp strictly increasing in float arithmetic
    w = [a / 1000 for a, _ in pairs]
    v = [b / 1000 for _, b in pairs]
    assert tau_of(w, v).tau == tau_of([math.exp(x) for x in w], v).tau


# --- top-k overlap ----------------------------------------------------------


def test_overlap_of_identical_rankings(kite):
    ranking = rank_nodes(degree_centrality(kite), kite.node_labels)
    assert top_k_overlap(ranking, ranking, 10) == 10
    assert top_k_overlap(ranking, ranking, 3) == 3


def test_overlap_counts_shared_labels(kite):
    a = rank_nodes(compute_measure(kite, "fld"), kite.node_labels)
    b = rank_nodes(compute_measure(kite, "dc"), kite.node_labels)
    # fld top-3 {4,5,7} vs dc top-3 {7,4,5}
    assert top_k_overlap(a, b, 3) == 3
    c = rank_nodes(compute_measure(kite, "bc"), kite.node_labels)
    # bc top-3 {8,4,5}
    assert top_k_overlap(a, c, 3) == 2


def test_overlap_argument_errors(kite):
    ranking = rank_nodes(degree_centrality(kite), kite.node_labels)
    with pytest.raises(ValueError):
        top_k_overlap(ranking, ranking, 0)
    with pytest.raises(ValueError):
        top_k_overlap(ranking, ranking, 11)


# --- orientation ------------------------------------------------------------


def test_ascending_measures_are_negated_for_pairing(kite):
    ld = local_dimension(kite)
    assert np.array_equal(oriented_scores(ld), -ld.scores)
    dc = degree_centrality(kite)
    assert np.array_equal(oriented_scores(dc), dc.scores)


# --- tau sweep --------------------------------------------------------------


def test_sweep_on_two_tied_nodes_gives_zero():
    g = Graph.build([("a", "b")])
    results = tau_sweep(g, degree_centrality(g), [0.5], t_eval=2, replicates=4)
    assert len(results) == 1
    lam, result = results[0]
    assert lam == 0.5
    assert result.tau == 0.0
    assert result.n_c == result.n_d == 0


def test_sweep_validates_arguments(kite):
    sv = degree_centrality(kite)
    with pytest.raises(ValueError):
        tau_sweep(kite, sv, [])
    with pytest.raises(ValueError):
        tau_sweep(kite, sv, [0.0])
    with pytest.raises(ValueError):
        tau_sweep(kite, sv, [1.5])
    # True used to run at rate 1.0 and "0.5" at 0.5
    for bad in [True, np.True_, "0.5", None]:
        with pytest.raises(TypeError, match="lambda_grid"):
            tau_sweep(kite, sv, [0.5, bad], t_eval=2, replicates=2)


@pytest.mark.parametrize(
    "bad, error", [(True, TypeError), (1.5, TypeError), ("1", TypeError), (-1, ValueError)]
)
def test_sweep_rejects_a_seed_that_is_not_a_non_negative_integer(kite, bad, error):
    # True used to run as seed 1, and 1.5 failed inside the seed hash without naming rng_seed
    with pytest.raises(error, match="rng_seed"):
        tau_sweep(kite, degree_centrality(kite), [0.5], t_eval=2, replicates=2, rng_seed=bad)


def test_sweep_runs_a_numpy_integer_seed_as_the_equal_int(kite):
    sv = degree_centrality(kite)
    runs = [tau_sweep(kite, sv, [0.3], t_eval=3, replicates=4, rng_seed=s) for s in (np.int64(7), 7)]
    assert runs[0] == runs[1]


def test_sweep_excludes_undefined_nodes():
    g = Graph.build([("a", "b"), ("b", "c")], nodes=["x"])
    sv = compute_measure(g, "cc")
    assert sv.undefined[g.label_to_id["x"]]
    results = tau_sweep(g, sv, [0.5], t_eval=2, replicates=4)
    # pairing covers the three connected nodes only
    assert results[0][1].n == 3


def test_sweep_is_deterministic(kite):
    sv = compute_measure(kite, "fld")
    grid = [0.05, 0.1]
    a = tau_sweep(kite, sv, grid, t_eval=5, replicates=10, rng_seed=21)
    b = tau_sweep(kite, sv, grid, t_eval=5, replicates=10, rng_seed=21)
    assert a == b
    assert all(-1.0 <= r.tau <= 1.0 for _, r in a)


@pytest.mark.parametrize("rng_seed", [0, 2**40 + 3])
def test_sweep_matches_one_built_from_oracle_abilities(kite, rng_seed):
    # each (rate index, node) gets SeedSequence's 64-bit word for that spawn key
    sv = compute_measure(kite, "fld")
    grid = [0.2, 0.6]
    w = tuple(oriented_scores(sv))
    expected = []
    for li, lam in enumerate(grid):
        ability = []
        for node in range(kite.node_count):
            seq = np.random.SeedSequence(entropy=rng_seed, spawn_key=(li, node))
            node_seed = int(seq.generate_state(1, np.uint64)[0])
            ability.append(oracle_ability(kite, node, lam, 5, 10, node_seed))
        expected.append((lam, kendall_tau(PairedSequence(w, tuple(ability)))))
    assert tau_sweep(kite, sv, grid, t_eval=5, replicates=10, rng_seed=rng_seed) == expected


def test_spreading_ability_agrees_with_itself(kite):
    ability = tuple(
        spreading_ability(kite, node, 0.3, t_eval=5, replicates=60, rng_seed=node)
        for node in range(kite.node_count)
    )
    result = kendall_tau(PairedSequence(ability, ability))
    assert result.n_d == 0
    if len(set(ability)) == len(ability):
        assert result.tau == 1.0
    else:
        assert result.tau > 0.0


def test_compute_measure_dispatch(kite):
    for name in ("dc", "cc", "bc", "ec", "ld", "fld"):
        sv = compute_measure(kite, name)
        assert sv.measure == Measure(name)
        assert len(sv.scores) == kite.node_count
    with pytest.raises(ValueError):
        compute_measure(kite, "pagerank")
