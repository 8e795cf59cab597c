import math
import tracemalloc
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    barabasi_albert_graph,
    brute_force_path_counts,
    closed_form_slope,
    complete_graph,
    cycle_graph,
    diamond_chain,
    grid_graph,
    ladder_graph,
    loop_slope,
    oracle_ball_sizes,
    oracle_closeness,
    oracle_fuzzy_counts,
    oracle_log_log_slopes,
    oracle_path_counts,
    path_graph,
    random_graph,
    relabeled,
    scores_by_label,
    shell_rows,
    star_graph,
)
import fldrank.centrality as centrality
from fldrank import (
    Graph,
    Measure,
    PowerIterationError,
    ScoreVector,
    betweenness_centrality,
    closeness_centrality,
    compute_measure,
    connected_components,
    degree_centrality,
    eigenvector_centrality,
    fuzzy_local_dimension,
    local_dimension,
    oriented_scores,
    rank_nodes,
    shortest_path_counts,
)

CLASSIC = (Measure.DC, Measure.CC, Measure.BC, Measure.EC, Measure.LD)


def top_label(g, sv) -> str:
    return rank_nodes(sv, g.node_labels).labels[0]


# --- degree ---------------------------------------------------------------


def test_degree_kite_center(kite):
    sv = degree_centrality(kite)
    assert sv.scores[kite.label_to_id["7"]] == 6


def test_degree_isolated_node():
    g = Graph.build([("a", "b")], nodes=["x"])
    sv = degree_centrality(g)
    assert sv.scores[g.label_to_id["x"]] == 0
    assert not sv.undefined.any()


def test_degree_karate_rank1(karate):
    assert top_label(karate, degree_centrality(karate)) == "34"


# --- closeness ------------------------------------------------------------


def test_closeness_kite_center(kite):
    sv = closeness_centrality(kite)
    assert sv.scores[kite.label_to_id["7"]] == pytest.approx(1 / 15, abs=1e-15)


def test_closeness_path_of_three():
    g = path_graph(3)
    sv = closeness_centrality(g)
    assert sv.scores[g.label_to_id["1"]] == pytest.approx(0.5)


def test_closeness_karate_rank1(karate):
    assert top_label(karate, closeness_centrality(karate)) == "1"


def test_closeness_singleton_component_undefined():
    g = Graph.build([("a", "b")], nodes=["x"])
    sv = closeness_centrality(g)
    assert sv.undefined[g.label_to_id["x"]]
    assert not sv.undefined[g.label_to_id["a"]]


def test_closeness_restricted_to_component():
    g = Graph.build([("a", "b"), ("c", "d")])
    sv = closeness_centrality(g)
    assert sv.scores[g.label_to_id["a"]] == pytest.approx(1.0)


# --- betweenness ----------------------------------------------------------


def test_betweenness_path_of_three():
    g = path_graph(3)
    numerators, denominator = shortest_path_counts(g)
    assert numerators[g.label_to_id["1"]] == 2
    assert denominator == 6
    sv = betweenness_centrality(g)
    assert sv.scores[g.label_to_id["1"]] == pytest.approx(1 / 3)


def test_betweenness_tree_leaves_are_zero():
    g = star_graph(4)
    sv = betweenness_centrality(g)
    for i in range(g.node_count):
        if g.node_labels[i] != "c":
            assert sv.scores[i] == 0.0


def test_betweenness_tiny_graphs_all_zero():
    for g in (Graph.build([]), Graph.build([], nodes=["a"]), Graph.build([("a", "b")])):
        sv = betweenness_centrality(g)
        assert not sv.scores.any()


def test_betweenness_karate_rank1(karate):
    assert top_label(karate, betweenness_centrality(karate)) == "1"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    p=st.floats(0.15, 0.9),
)
def test_betweenness_matches_path_enumeration(seed, n, p):
    g = random_graph(np.random.default_rng(seed), n, p)
    assert shortest_path_counts(g) == brute_force_path_counts(g)


def two_components_and_isolated_nodes() -> Graph:
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("x", "y"), ("y", "z")]
    return Graph.build(edges, nodes=["lone", "a", "hermit"])


def diamonds_into_clique() -> Graph:
    """``diamond_chain(70)`` with its far end joined to a 40-clique.

    A bc block here has levels that go bottom-up (into the clique) and
    counts past 2**63 (along the chain).
    """
    edges = []
    for g, prefix in ((diamond_chain(70), ""), (complete_graph(40), "k")):
        labels = g.node_labels
        edges += [
            (prefix + labels[v], prefix + labels[u])
            for v in range(g.node_count)
            for u in g.adjacency[v]
            if v < u
        ]
    return Graph.build([*edges, ("a70", "k0")])


def oracle_cases(kite, karate, path_length=300):
    rng = np.random.default_rng(7)
    shapes = zip(rng.integers(3, 150, 12), rng.uniform(0.005, 0.2, 12))
    randoms = [random_graph(rng, int(n), float(p)) for n, p in shapes]
    return [
        kite,
        karate,
        path_graph(path_length),
        star_graph(40),
        barabasi_albert_graph(120, 3, 1),
        grid_graph(12, 12),
        diamonds_into_clique(),
        two_components_and_isolated_nodes(),
        Graph.build([]),
        Graph.build([], nodes=["a"]),
        Graph.build([], nodes=["a", "b"]),
        Graph.build([("a", "b")]),
        *randoms,
    ]


def test_path_counts_match_per_source_oracle(kite, karate):
    for g in oracle_cases(kite, karate):
        numerators, denominator = shortest_path_counts(g)
        assert (numerators, denominator) == oracle_path_counts(g)
        assert all(type(c) is int for c in [*numerators, denominator])


@pytest.mark.parametrize("budget", [1, 2**9, 2**40])
def test_path_counts_do_not_depend_on_block_size(kite, karate, monkeypatch, budget):
    # budget 1 runs one source per block, 2**40 all sources in one block;
    # 2**9 runs karate in blocks of 3 sources and a last block of 1
    cases = oracle_cases(kite, karate, path_length=60)
    expected = [shortest_path_counts(g) for g in cases]
    monkeypatch.setattr(centrality, "_BLOCK_CONTACTS", budget)
    assert [shortest_path_counts(g) for g in cases] == expected


@pytest.mark.parametrize("links", [60, 70])
def test_path_counts_rerun_exactly_past_int64(karate, monkeypatch, links):
    # 60 links keep each count below 2**62 but overflow the block's sums of
    # products; at 70 links the downstream counts themselves pass 2**63
    dtypes = []
    block = centrality._block_path_counts

    def spy(*args):
        part, share = block(*args)
        dtypes.append(part.dtype)
        return part, share

    monkeypatch.setattr(centrality, "_block_path_counts", spy)
    g = diamond_chain(links)
    numerators, denominator = shortest_path_counts(g)
    assert max(numerators) > 2**63 and denominator > 2**links
    assert (numerators, denominator) == oracle_path_counts(g)
    assert object in dtypes
    dtypes.clear()
    shortest_path_counts(karate)
    assert object not in dtypes


def test_block_sums_widen_to_python_ints_past_int64(monkeypatch):
    # one source per block of path(60), each int64 part raised by 2**62:
    # the parts stay int64, and their sums pass 2**63 from the second block
    offset = 2**62
    dtypes = []
    block = centrality._block_path_counts

    def raised(*args):
        part, share = block(*args)
        dtypes.append(part.dtype)
        return part + offset, share

    monkeypatch.setattr(centrality, "_BLOCK_CONTACTS", 1)
    monkeypatch.setattr(centrality, "_block_path_counts", raised)
    g = path_graph(60)
    numerators, denominator = shortest_path_counts(g)
    expected, paths = oracle_path_counts(g)
    assert set(dtypes) == {np.dtype(np.int64)} and len(dtypes) == g.node_count
    assert numerators == [count + offset * g.node_count for count in expected]
    assert denominator == paths
    assert all(type(c) is int for c in numerators)


def test_path_counts_expand_fewer_contacts_than_every_source_top_down(monkeypatch):
    # top-down alone expands each source's n cells' contacts once: n * 2E
    real = centrality.contact_ids
    sizes = []

    def spy(offsets, nodes):
        contacts, degrees = real(offsets, nodes)
        sizes.append(contacts.size)
        return contacts, degrees

    monkeypatch.setattr(centrality, "contact_ids", spy)
    g = barabasi_albert_graph(300, 3, 0)
    shortest_path_counts(g)
    assert sum(sizes) < 0.6 * g.node_count * g.edge_arrays[1].size
    path = path_graph(300)
    assert shortest_path_counts(path) == oracle_path_counts(path)


def test_path_counts_run_each_block_once(monkeypatch):
    # the blocks whose counts pass 2**63 widen in place instead of running again
    calls = []
    block = centrality._block_path_counts

    def spy(*args):
        calls.append(args[-1])
        return block(*args)

    monkeypatch.setattr(centrality, "_block_path_counts", spy)
    g = diamond_chain(70)
    counts = shortest_path_counts(g)
    n = g.node_count
    width = max(1, min(n, centrality._BLOCK_CONTACTS // max(g.edge_arrays[1].size, n)))
    assert len(calls) == math.ceil(n / width)
    assert np.concatenate(calls).tolist() == list(range(n))
    assert counts == oracle_path_counts(g)


# --- eigenvector ----------------------------------------------------------


def test_eigenvector_triangle_uniform():
    g = complete_graph(3)
    sv, eigenvalue = eigenvector_centrality(g)
    assert np.allclose(sv.scores, 1 / math.sqrt(3), atol=1e-12)
    assert eigenvalue == pytest.approx(2.0, abs=1e-9)


def test_eigenvector_star_center_dominates():
    g = star_graph(4)
    sv, eigenvalue = eigenvector_centrality(g)
    center = g.label_to_id["c"]
    leaves = [i for i in range(g.node_count) if i != center]
    assert all(sv.scores[center] > sv.scores[i] for i in leaves)
    assert np.allclose(sv.scores[leaves], sv.scores[leaves[0]], atol=1e-12)
    assert eigenvalue == pytest.approx(2.0, abs=1e-9)


def test_eigenvector_bipartite_cycle_converges():
    sv, _ = eigenvector_centrality(cycle_graph(4))
    assert np.allclose(sv.scores, 0.5, atol=1e-10)


def test_eigenvector_no_edges_all_undefined():
    g = Graph.build([], nodes=["a", "b"])
    sv, eigenvalue = eigenvector_centrality(g)
    assert sv.undefined.all()
    assert math.isnan(eigenvalue)


def test_eigenvector_restricted_to_largest_component():
    g = Graph.build([("a", "b"), ("b", "c"), ("x", "y")])
    sv, _ = eigenvector_centrality(g)
    assert not sv.undefined[g.label_to_id["a"]]
    assert sv.undefined[g.label_to_id["x"]]


def test_eigenvector_component_tie_is_stable_under_input_order():
    # two components of equal size: the one holding the smallest label wins,
    # whatever order the edges arrive in
    forward = Graph.build([("a", "b"), ("x", "y")])
    backward = Graph.build([("y", "x"), ("b", "a")])
    for g in (forward, backward):
        sv, _ = eigenvector_centrality(g)
        assert not sv.undefined[g.label_to_id["a"]]
        assert not sv.undefined[g.label_to_id["b"]]
        assert sv.undefined[g.label_to_id["x"]]
        assert sv.undefined[g.label_to_id["y"]]


def test_eigenvector_residual_and_nonnegativity(karate, kite):
    for g in (karate, kite):
        sv, eigenvalue = eigenvector_centrality(g)
        x = sv.scores
        adj = np.zeros((g.node_count, g.node_count))
        for v in range(g.node_count):
            for u in g.adjacency[v]:
                adj[v, u] = 1.0
        assert np.linalg.norm(adj @ x - eigenvalue * x) < 1e-10
        assert (x >= 0).all()
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)


def test_eigenvector_karate_rank1(karate):
    sv, _ = eigenvector_centrality(karate)
    assert top_label(karate, sv) == "34"


def connected_random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    """Random graph plus a random spanning tree, so it is connected."""
    g = random_graph(rng, n, p)
    edges = [(g.node_labels[v], g.node_labels[u]) for v in range(n) for u in g.adjacency[v]]
    edges += [(str(v), str(rng.integers(v))) for v in range(1, n)]
    return Graph.build(edges)


def dense_principal_pair(g: Graph) -> tuple[float, np.ndarray]:
    """Largest adjacency eigenvalue and its eigenvector, summing positive, by dense eigh."""
    adj = np.zeros((g.node_count, g.node_count))
    for v in range(g.node_count):
        adj[v, list(g.adjacency[v])] = 1.0
    values, vectors = np.linalg.eigh(adj)
    return values[-1], vectors[:, -1] * np.sign(vectors[:, -1].sum())


def test_eigenvector_matches_dense_eigh():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = connected_random_graph(rng, int(rng.integers(3, 80)), float(rng.uniform(0.02, 0.3)))
        value, expected = dense_principal_pair(g)
        sv, eigenvalue = eigenvector_centrality(g)
        assert not sv.undefined.any()
        assert np.allclose(sv.scores, expected, rtol=0, atol=1e-9)
        assert eigenvalue == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize(
    "g", [path_graph(300), path_graph(1000), ladder_graph(300)], ids=["path300", "path1000", "ladder300"]
)
def test_eigenvector_finishes_stalled_power_iteration_with_lanczos(g, monkeypatch):
    real = centrality._lanczos_finish
    calls = []

    def spy(adj_times, x):
        calls.append(x.size)
        return real(adj_times, x)

    monkeypatch.setattr(centrality, "_lanczos_finish", spy)
    value, expected = dense_principal_pair(g)
    sv, eigenvalue = eigenvector_centrality(g)
    assert calls == [g.node_count]
    # mirror-symmetric nodes tie only up to rounding, so compare with a tolerance
    assert np.allclose(sv.scores, expected, rtol=0, atol=1e-9)
    assert eigenvalue == pytest.approx(value, abs=1e-9)


def test_lanczos_is_not_entered_where_power_iteration_converges(kite, karate, monkeypatch):
    def refuse(adj_times, x):
        raise AssertionError("power iteration stalled")

    monkeypatch.setattr(centrality, "_lanczos_finish", refuse)
    for g in (kite, karate, barabasi_albert_graph(2000, 3, seed=0)):
        sv, _ = eigenvector_centrality(g)
        assert not sv.undefined.any()


def test_eigenvector_raises_once_the_restart_budget_is_spent(monkeypatch):
    monkeypatch.setattr(centrality, "_EC_RESTARTS", 0)
    with pytest.raises(PowerIterationError, match="0 Lanczos restarts"):
        eigenvector_centrality(path_graph(300))


def test_eigenvector_matches_networkx_on_karate(karate):
    nx = pytest.importorskip("networkx")
    pytest.importorskip("scipy")  # eigenvector_centrality_numpy runs on scipy
    graph = nx.Graph()
    graph.add_nodes_from(range(karate.node_count))
    graph.add_edges_from((v, u) for v in range(karate.node_count) for u in karate.adjacency[v])
    expected = nx.eigenvector_centrality_numpy(graph)
    sv, _ = eigenvector_centrality(karate)
    assert np.allclose(sv.scores, [expected[v] for v in range(karate.node_count)], atol=1e-9)


def test_eigenvector_memory_stays_sparse():
    # a dense adjacency of 3000 nodes alone would take 3000**2 * 8 bytes = 72 MB
    n = 3000
    rng = np.random.default_rng(5)
    ring = [(str(v), str((v + 1) % n)) for v in range(n)]
    chords = [(str(a), str(b)) for a, b in rng.integers(n, size=(n, 2))]
    g = Graph.build(ring + chords)
    g.edge_arrays, g.components
    tracemalloc.start()
    try:
        sv, _ = eigenvector_centrality(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not sv.undefined.any()
    assert peak < 4 * 2**20


# --- local dimension ------------------------------------------------------


def test_local_dimension_kite_center(kite):
    sv = local_dimension(kite)
    # oracle: closed-form fit of ln(7,8,9,10) on ln(1,2,3,4)
    assert sv.scores[kite.label_to_id["7"]] == pytest.approx(
        0.25268434873684753, abs=1e-12
    )


def test_local_dimension_nine_cycle_uniform():
    g = cycle_graph(9)
    sv = local_dimension(g)
    # oracle: closed-form fit of ln(3,5,7,9) on ln(1,2,3,4)
    assert np.allclose(sv.scores, 0.7895348218628645, atol=1e-12)
    assert np.ptp(sv.scores) < 1e-12


def test_local_dimension_needs_two_radii():
    g = path_graph(3)
    sv = local_dimension(g)
    middle = g.label_to_id["1"]
    assert sv.undefined[middle]
    assert not sv.undefined[g.label_to_id["0"]]


def test_local_dimension_karate_rank1(karate):
    assert top_label(karate, local_dimension(karate)) == "34"


def test_local_dimension_sorts_ascending():
    # oriented_scores is the one rule for a measure's direction: it negates
    # ld alone, and always returns a fresh array
    scores = np.array([3.0, -1.0, 0.5, 0.0, -0.0])
    for m in Measure:
        sv = ScoreVector(m, scores, np.zeros(scores.size, bool))
        oriented = oriented_scores(sv)
        assert np.array_equal(oriented, -scores if m is Measure.LD else scores), m
        assert not np.shares_memory(oriented, sv.scores), m


# --- regression helper ----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-50, 50),
            st.floats(-50, 50),
        ),
        min_size=2,
        max_size=30,
        unique_by=lambda t: t[0],
    )
)
# a float evaluation of the uncentered formula gives 1.11e-9 here, not 0
@example([(-1e-05, 25.0), (-1.192092896e-07, 25.0)])
def test_ols_slope_matches_closed_form(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if max(xs) - min(xs) < 1e-6:
        return
    assert loop_slope(xs, ys) == pytest.approx(closed_form_slope(xs, ys), abs=1e-9, rel=1e-9)


def test_ols_slope_has_the_same_bits_on_every_python(kite, karate):
    # the built-in sum() of floats is compensated from Python 3.12 on, which
    # moves the last bits of many ld and fld scores: every score must have
    # the bits of a left-to-right loop over the node's own points
    graphs = (kite, karate, barabasi_albert_graph(200, 3, 0), path_graph(300), grid_graph(12, 12))
    for g in graphs:
        ld, fld = local_dimension(g), fuzzy_local_dimension(g)
        for i, shells in enumerate(shell_rows(g)):
            if len(shells) < 3:
                continue
            xs = [math.log(r) for r in range(1, len(shells))]
            for sv, counts in ((ld, oracle_ball_sizes(shells)), (fld, oracle_fuzzy_counts(shells))):
                ys = [math.log(c) for c in counts]
                slope = loop_slope(xs, ys).hex()
                assert sv.scores[i].hex() == slope, (sv.measure, g.node_labels[i])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 40),
    p=st.floats(0.0, 0.25),
    extra=st.integers(0, 3),
)
def test_shell_table_measures_match_the_per_node_oracles(seed, n, p, extra):
    # G(n, p) at these rates has isolated nodes and several components of
    # mixed depths; a budget of 1 cell fits one node per block, 8 a few
    rng = np.random.default_rng(seed)
    edges = [(str(i), str(j)) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    g = Graph.build(edges, nodes=[*map(str, range(n)), *(f"x{k}" for k in range(extra))])
    expected = {
        Measure.CC: oracle_closeness(g),
        Measure.LD: oracle_log_log_slopes(g, oracle_ball_sizes),
        Measure.FLD: oracle_log_log_slopes(g, oracle_fuzzy_counts),
    }
    for budget in (1, 8, centrality._BLOCK_CELLS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(centrality, "_BLOCK_CELLS", budget)
            for measure, (scores, undefined) in expected.items():
                sv = compute_measure(g, measure)
                assert sv.scores.tobytes() == scores.tobytes(), (measure, budget)
                assert np.array_equal(sv.undefined, undefined), (measure, budget)


# --- structural properties ------------------------------------------------


def test_vertex_transitive_graphs_score_uniformly():
    for g in (cycle_graph(5), cycle_graph(9), complete_graph(5)):
        for measure in CLASSIC:
            sv = compute_measure(g, measure)
            # structurally identical nodes: either all undefined (K5 has
            # diameter 1, so no dimension fit exists) or all equal
            assert sv.undefined.all() or not sv.undefined.any(), measure
            if not sv.undefined.any():
                assert np.ptp(sv.scores) < 1e-12, measure


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 10),
    p=st.floats(0.2, 0.9),
)
def test_relabeling_equivariance(seed, n, p):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    perm = rng.permutation(n)
    mapping = {g.node_labels[i]: f"n{perm[i]}" for i in range(n)}
    h = relabeled(g, mapping, rng)
    for measure in (Measure.DC, Measure.CC, Measure.BC, Measure.LD, Measure.FLD):
        a = scores_by_label(g, compute_measure(g, measure))
        b = scores_by_label(h, compute_measure(h, measure))
        assert {mapping[k]: v for k, v in a.items()} == b, measure
    # eigenvector scores live on "the largest component", which is only a
    # graph-level notion when that component is unique
    sizes = connected_components(g).component_sizes
    if g.edge_count and sorted(sizes).count(max(sizes)) == 1:
        a = scores_by_label(g, compute_measure(g, Measure.EC))
        b = scores_by_label(h, compute_measure(h, Measure.EC))
        for label, value in a.items():
            other = b[mapping[label]]
            if value is None:
                assert other is None
            else:
                assert other == pytest.approx(value, abs=1e-9)


# --- score vectors and rankings -------------------------------------------


def test_score_vector_rejects_nonfinite_defined_scores():
    with pytest.raises(ValueError):
        ScoreVector(Measure.DC, np.array([1.0, np.inf]), np.array([False, False]))
    ScoreVector(Measure.DC, np.array([1.0, np.nan]), np.array([False, True]))


def test_score_vector_rejects_mismatched_mask():
    with pytest.raises(ValueError):
        ScoreVector(Measure.DC, np.array([1.0, 2.0]), np.array([False]))


def test_rank_breaks_ties_by_ascending_label():
    sv = ScoreVector(Measure.DC, np.array([2.0, 2.0, 5.0]), np.zeros(3, bool))
    ranking = rank_nodes(sv, ("b", "a", "z"))
    assert ranking.labels == ("z", "a", "b")


def test_rank_is_numeric_aware_for_integer_labels():
    sv = ScoreVector(Measure.DC, np.array([1.0, 1.0, 1.0]), np.zeros(3, bool))
    ranking = rank_nodes(sv, ("10", "9", "100"))
    assert ranking.labels == ("9", "10", "100")


def test_rank_ascending_measure_small_first():
    sv = ScoreVector(Measure.LD, np.array([3.0, 1.0, 2.0]), np.zeros(3, bool))
    ranking = rank_nodes(sv, ("a", "b", "c"))
    assert ranking.labels == ("b", "c", "a")


def test_rank_places_undefined_last_by_label():
    sv = ScoreVector(
        Measure.CC,
        np.array([0.5, 0.0, 0.9, 0.0]),
        np.array([False, True, False, True]),
    )
    ranking = rank_nodes(sv, ("a", "zz", "b", "aa"))
    assert ranking.labels == ("b", "a", "aa", "zz")
    assert ranking.undefined == (False, False, True, True)


def test_rank_deterministic_under_input_reordering(kite):
    rng = np.random.default_rng(7)
    identity = {label: label for label in kite.node_labels}
    reordered = relabeled(kite, identity, rng)
    a = rank_nodes(degree_centrality(kite), kite.node_labels)
    b = rank_nodes(degree_centrality(reordered), reordered.node_labels)
    assert a.labels == b.labels
    assert a.scores == b.scores


def test_rank_length_mismatch_rejected(kite):
    sv = degree_centrality(kite)
    with pytest.raises(ValueError):
        rank_nodes(sv, kite.node_labels[:-1])


def reference_order(measure, scores, undefined, labels) -> list[int]:
    """The RankingList rule, written from its docstring with a comparator."""
    label_key = [centrality.label_sort_key(label) for label in labels]

    def before(i, j):
        if scores[i] != scores[j]:  # -0.0 == 0.0: signed zeros tie
            smaller_first = measure is Measure.LD
            return -1 if (scores[i] < scores[j]) == smaller_first else 1
        return -1 if label_key[i] < label_key[j] else 1

    defined = sorted((i for i in range(len(labels)) if not undefined[i]), key=cmp_to_key(before))
    missing = sorted((i for i in range(len(labels)) if undefined[i]), key=label_key.__getitem__)
    return defined + missing


LABELS = st.one_of(
    st.integers(-30, 30).map(str),  # decimal labels compare as integers
    st.text(alphabet="ab0²-", min_size=1, max_size=3),  # '²' is a digit but not decimal
)


@settings(max_examples=300, deadline=None)
@given(measure=st.sampled_from(list(Measure)), data=st.data())
def test_rank_nodes_matches_the_ranking_rule(measure, data):
    labels = data.draw(st.lists(LABELS, max_size=12, unique=True))
    n = len(labels)
    # few distinct values, so ties and signed zeros are common
    score = st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0]) | st.floats(-1e3, 1e3)
    undefined = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # an undefined node's score is a sentinel, which may be anything
    scores = [data.draw(st.floats() if flag else score) for flag in undefined]
    ranking = rank_nodes(ScoreVector(measure, scores, undefined), tuple(labels))
    order = reference_order(measure, scores, undefined, labels)
    assert ranking.labels == tuple(labels[i] for i in order)
    assert ranking.undefined == tuple(undefined[i] for i in order)
    assert np.array_equal(ranking.scores, [scores[i] for i in order], equal_nan=True)
