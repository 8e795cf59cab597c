import math

import numpy as np
import pytest

import fldrank.fld
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bfs_distances,
    closed_form_slope,
    cycle_graph,
    loop_slope,
    path_graph,
    random_graph,
    relabeled,
    scores_by_label,
    shell_rows,
)
from fldrank import (
    Graph,
    connected_components,
    fuzzy_count_series,
    fuzzy_local_dimension,
    membership,
    rank_nodes,
)

# Expected per-node fuzzy local dimension of the kite network, nodes 1..10.
KITE_FLD = (0.3609, 0.3609, 0.3015, 0.4554, 0.4554, 0.3015, 0.4442, 0.0760, 0.0375, -0.1163)


# --- membership weight ------------------------------------------------------


def test_membership_at_zero_distance_is_one():
    for eps in (0.5, 1.0, 3.0, 10.0):
        assert membership(0, eps) == 1.0


def test_membership_known_values():
    assert membership(1, 2) == pytest.approx(math.exp(-0.25), abs=1e-15)
    assert membership(3, 3) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_membership_rejects_bad_arguments():
    with pytest.raises(ValueError):
        membership(-1, 1.0)
    with pytest.raises(ValueError):
        membership(1, 0.0)
    with pytest.raises(ValueError):
        membership(1, -2.0)


@given(
    d=st.integers(0, 10),
    eps=st.floats(0.5, 10.0),
)
def test_membership_bounds(d, eps):
    value = membership(d, eps)
    assert 0.0 < value <= 1.0
    assert (value == 1.0) == (d == 0)


@given(
    d=st.integers(1, 10),
    eps=st.floats(0.5, 9.0),
)
def test_membership_monotonic(d, eps):
    assert membership(d + 1, eps) < membership(d, eps)
    assert membership(d, eps + 0.5) > membership(d, eps)


# --- fuzzy counting ---------------------------------------------------------


def test_fuzzy_counts_around_kite_center(kite):
    series = fuzzy_count_series(shell_rows(kite)[kite.label_to_id["7"]])
    expected = {1: (0.4582, 7), 2: (0.7551, 8), 3: (0.8198, 9), 4: (0.8353, 10)}
    for r, (value, real) in expected.items():
        assert series.counts[r - 1] == pytest.approx(value, abs=1e-4)
        assert series.real_counts[r - 1] == real


@pytest.mark.parametrize(
    "shells",
    [(), (1, 2, 0), (0,), (2, 1), (1, -1)],
    ids=["empty", "padded-row", "no-center", "two-centers", "negative"],
)
def test_fuzzy_count_series_rejects_what_no_node_has(shells):
    # a center sees itself at distance 0, and every shell up to its depth is
    # occupied: a padded table row's trailing zeros would add phantom radii
    with pytest.raises(ValueError, match="must start with 1 and be positive"):
        fuzzy_count_series(shells)


def test_series_shape_and_invariants(kite):
    comp = connected_components(kite)
    for source in range(kite.node_count):
        df = bfs_distances(kite, source)
        series = fuzzy_count_series(df.shell_counts)
        assert series.radii == tuple(range(1, df.d_max + 1))
        for c in series.counts:
            assert 0.0 < c <= 1.0
        assert list(series.real_counts) == sorted(set(series.real_counts))
        assert series.real_counts[-1] == comp.component_sizes[comp.component_id[source]]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 14),
    p=st.floats(0.15, 0.6),
)
def test_fuzzy_mass_strictly_grows_with_radius(seed, n, p):
    g = random_graph(np.random.default_rng(seed), n, p)
    for source in range(g.node_count):
        series = fuzzy_count_series(bfs_distances(g, source).shell_counts)
        masses = [c * real for c, real in zip(series.counts, series.real_counts)]
        for a, b in zip(masses, masses[1:]):
            assert b > a


# --- fuzzy local dimension --------------------------------------------------


def test_kite_scores(kite):
    sv = fuzzy_local_dimension(kite)
    assert not sv.undefined.any()
    by_label = scores_by_label(kite, sv)
    for node, expected in enumerate(KITE_FLD, start=1):
        assert by_label[str(node)] == pytest.approx(expected, abs=1e-3), node
    assert by_label["7"] == pytest.approx(0.4442, abs=1e-4)
    assert by_label["10"] < 0


def test_slope_matches_independent_regression(kite, karate):
    for g in (kite, karate):
        sv = fuzzy_local_dimension(g)
        for i in range(g.node_count):
            df = bfs_distances(g, i)
            if df.d_max < 2:
                continue
            series = fuzzy_count_series(df.shell_counts)
            xs = [math.log(r) for r in series.radii]
            ys = [math.log(c) for c in series.counts]
            assert abs(sv.scores[i] - closed_form_slope(xs, ys)) < 1e-12


def test_scores_are_the_slopes_of_each_nodes_own_series_bit_for_bit(karate):
    # the shared weight table must give every node, shallow or deep, the
    # bits of its own series; a clique with a long tail mixes depths 1 to 22
    tail = [(f"t{i}", f"t{i + 1}") for i in range(20)]
    clique = [(str(i), str(j)) for i in range(5) for j in range(i + 1, 5)]
    for g in (karate, Graph.build(clique + tail + [("4", "t0")], nodes=["x"])):
        sv = fuzzy_local_dimension(g)
        for i, shells in enumerate(shell_rows(g)):
            if len(shells) < 3:
                assert sv.undefined[i]
                continue
            series = fuzzy_count_series(shells)
            xs = [math.log(r) for r in series.radii]
            assert sv.scores[i] == loop_slope(xs, [math.log(c) for c in series.counts])


def test_weights_are_computed_once_per_distance_and_radius(monkeypatch):
    # path(30) has depth 29: one call per (d, r) with 0 <= d <= r <= 29,
    # where one table per node would make about 30 times as many
    calls = []
    real = fldrank.fld.membership

    def spy(d, eps):
        calls.append((d, eps))
        return real(d, eps)

    monkeypatch.setattr(fldrank.fld, "membership", spy)
    fuzzy_local_dimension(path_graph(30))
    assert sorted(calls) == [(d, r) for d in range(30) for r in range(1, 30) if d <= r]


def test_nodes_without_two_radii_get_sentinel():
    g = Graph.build([("a", "b")], nodes=["x"])
    sv = fuzzy_local_dimension(g)
    assert sv.undefined.all()
    assert not sv.scores.any()


def test_kite_ranking(kite):
    # The score pairs {1,2}, {3,6} and {4,5} are exactly equal by the
    # kite's mirror symmetry, so their order is down to the tie rule:
    # ascending label.
    ranking = rank_nodes(fuzzy_local_dimension(kite), kite.node_labels)
    assert ranking.labels == ("4", "5", "7", "1", "2", "3", "6", "8", "9", "10")
    assert ranking.labels[-1] == "10"


def test_exact_ties_from_kite_symmetry(kite):
    by_label = scores_by_label(kite, fuzzy_local_dimension(kite))
    assert by_label["1"] == by_label["2"]
    assert by_label["3"] == by_label["6"]
    assert by_label["4"] == by_label["5"]


def test_karate_top10(karate):
    ranking = rank_nodes(fuzzy_local_dimension(karate), karate.node_labels)
    assert ranking.top(10) == ("1", "34", "33", "3", "2", "32", "24", "28", "31", "30")


def test_all_equal_scores_rank_by_label():
    g = cycle_graph(5)
    ranking = rank_nodes(fuzzy_local_dimension(g), g.node_labels)
    assert ranking.labels == ("0", "1", "2", "3", "4")


def test_vertex_transitive_uniform_scores():
    for g in (cycle_graph(5), cycle_graph(9)):
        sv = fuzzy_local_dimension(g)
        assert np.ptp(sv.scores) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 10),
    p=st.floats(0.2, 0.8),
)
def test_relabeling_permutes_scores_exactly(seed, n, p):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    mapping = {label: f"q{rng.integers(10**6)}_{label}" for label in g.node_labels}
    h = relabeled(g, mapping, rng)
    a = scores_by_label(g, fuzzy_local_dimension(g))
    b = scores_by_label(h, fuzzy_local_dimension(h))
    assert {mapping[k]: v for k, v in a.items()} == b


def test_disconnected_center_uses_own_component_only():
    g = Graph.build([("a", "b"), ("b", "c"), ("c", "d"), ("x", "y"), ("y", "z")])
    sv = fuzzy_local_dimension(g)
    sub = Graph.build([("x", "y"), ("y", "z")])
    sub_sv = fuzzy_local_dimension(sub)
    assert sv.scores[g.label_to_id["y"]] == sub_sv.scores[sub.label_to_id["y"]]
