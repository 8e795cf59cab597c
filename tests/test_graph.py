import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fldrank.graph
from conftest import (
    barabasi_albert_graph,
    bfs_distances,
    check_shell_table,
    cycle_graph,
    grid_graph,
    path_graph,
    random_graph,
)
from fldrank import (
    UNREACHABLE,
    EdgeListError,
    Graph,
    connected_components,
    diameter,
    parse_edge_list,
)
from fldrank.datasets import kite_path, load_karate
from fldrank.graph import double_sweep_depth


def test_parse_path_graph():
    g = parse_edge_list("1 2\n2 3\n")
    assert g.node_count == 3
    assert g.edge_count == 2
    assert set(g.node_labels) == {"1", "2", "3"}


def test_parse_collapses_duplicates_and_warns_on_self_loops():
    with pytest.warns(UserWarning, match="1 self-loop"):
        g = parse_edge_list("a b\nb a\na a\n")
    assert g.node_count == 2
    assert g.edge_count == 1


def test_parse_self_loop_still_creates_the_node():
    with pytest.warns(UserWarning):
        g = parse_edge_list("x x\n")
    assert g.node_labels == ("x",)
    assert g.edge_count == 0


def test_parse_interleaved_self_loops_keep_first_appearance_order():
    with pytest.warns(UserWarning) as record:
        g = parse_edge_list("b b\na c\nc b\nd d\n")
    assert [str(w.message) for w in record] == ["dropped 2 self-loop(s)"]
    assert record[0].filename == __file__  # the caller's line, not parse_edge_list's
    assert g.node_labels == ("b", "a", "c", "d")
    assert g.edge_count == 2


def test_parse_kite_fixture(kite):
    assert kite.node_count == 10
    assert kite.edge_count == 18


def test_parse_comments_blanks_and_crlf():
    g = parse_edge_list(b"# header\r\n% other comment\r\n\r\n1 2\r\n2 3\n")
    assert g.node_count == 3
    assert g.edge_count == 2


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_parse_ends_lines_at_lf_only(sep):
    # sep does not end the comment line, so (b, c) is no edge
    g = parse_edge_list(f"# a{sep}b c\n1 2\n".encode("utf-8"))
    assert g.node_labels == ("1", "2")
    with pytest.raises(EdgeListError) as err:
        parse_edge_list(f"1 2{sep}3 4\n")
    assert err.value.line_number == 1


def test_parse_drops_utf8_byte_order_mark(kite):
    g = parse_edge_list(b"\xef\xbb\xbf" + kite_path().read_bytes())
    assert g.node_labels == kite.node_labels
    assert g.adjacency == kite.adjacency


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(EdgeListError) as err:
        parse_edge_list("1 2\n1 2 3\n")
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)


def test_parse_error_after_a_self_loop_warns_nothing():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EdgeListError) as err:
            parse_edge_list("a a\nb c\nb c d\n")
    assert err.value.line_number == 3
    assert caught == []


def test_parse_single_token_line_is_an_error():
    with pytest.raises(EdgeListError):
        parse_edge_list("1\n")


def test_parse_empty_input_gives_empty_graph():
    g = parse_edge_list("")
    assert g.node_count == 0
    assert g.edge_count == 0


def test_adjacency_is_symmetric_sorted_and_simple(kite):
    for v in range(kite.node_count):
        neighbors = kite.adjacency[v]
        assert list(neighbors) == sorted(set(neighbors))
        assert v not in neighbors
        for u in neighbors:
            assert v in kite.adjacency[u]


def test_labels_not_assumed_contiguous():
    g = parse_edge_list("5 900\n900 7\n")
    assert set(g.node_labels) == {"5", "900", "7"}


def test_bfs_kite_center(kite):
    df = bfs_distances(kite, kite.label_to_id["7"])
    by_label = {kite.node_labels[j]: d for j, d in enumerate(df.dist)}
    for near in "123456":
        assert by_label[near] == 1
    assert by_label["8"] == 2
    assert by_label["9"] == 3
    assert by_label["10"] == 4
    assert df.d_max == 4
    assert df.shell_counts == (1, 6, 1, 1, 1)


def test_bfs_isolated_node():
    g = Graph.build([], nodes=["solo"])
    df = bfs_distances(g, 0)
    assert df.d_max == 0
    assert df.shell_counts == (1,)


def test_bfs_five_cycle_shells():
    g = cycle_graph(5)
    for s in range(5):
        df = bfs_distances(g, s)
        assert df.shell_counts == (1, 2, 2)
        assert df.d_max == 2


def test_bfs_source_out_of_range(kite):
    with pytest.raises(ValueError):
        bfs_distances(kite, 10)
    with pytest.raises(ValueError):
        bfs_distances(kite, -1)


def test_bfs_marks_unreachable_nodes():
    g = Graph.build([("a", "b"), ("c", "d")])
    df = bfs_distances(g, g.label_to_id["a"])
    assert df.dist[g.label_to_id["c"]] == UNREACHABLE
    assert df.dist[g.label_to_id["d"]] == UNREACHABLE
    assert sum(df.shell_counts) == 2


def test_components_kite(kite):
    comp = connected_components(kite)
    assert comp.component_sizes == (10,)
    assert set(comp.component_id) == {0}


def test_components_two_disjoint_edges():
    g = Graph.build([("a", "b"), ("c", "d")])
    comp = connected_components(g)
    assert sorted(comp.component_sizes) == [2, 2]
    assert comp.component_id[0] == comp.component_id[1]
    assert comp.component_id[0] != comp.component_id[2]


def test_components_empty_graph():
    comp = connected_components(Graph.build([]))
    assert comp.component_sizes == ()
    assert comp.component_id == ()


def test_components_match_bfs_reachability_on_random_graphs():
    rng = np.random.default_rng(3)
    shapes = set()
    for _ in range(20):
        n = int(rng.integers(1, 60))
        g = random_graph(rng, n, float(rng.uniform(0.0, 0.08)))
        # reference: component IDs numbered by smallest member
        expected = [-1] * n
        sizes: list[int] = []
        for s in range(n):
            if expected[s] < 0:
                reach = [v for v, d in enumerate(bfs_distances(g, s).dist) if d != UNREACHABLE]
                for v in reach:
                    expected[v] = len(sizes)
                sizes.append(len(reach))
        comp = connected_components(g)
        assert comp.component_id == tuple(expected)
        assert comp.component_sizes == tuple(sizes)
        shapes.add((1 in sizes, len(sizes) > 1))
    assert (True, True) in shapes


def test_diameter_values(kite):
    assert diameter(kite) == 4
    assert diameter(Graph.build([])) == 0
    assert diameter(Graph.build([], nodes=["x"])) == 0
    assert diameter(Graph.build([("a", "b"), ("c", "d")])) == 1


def test_double_sweep_depth_values(kite):
    # from an end of a path the second sweep starts at the other end
    assert double_sweep_depth(path_graph(6), 2) == 5
    assert double_sweep_depth(kite, 0) == diameter(kite)
    assert double_sweep_depth(Graph.build([], nodes=["x"]), 0) == 0
    # the sweep stays in the source's component
    two = Graph.build([("a", "b"), ("c", "d"), ("d", "e")])
    assert double_sweep_depth(two, two.label_to_id["a"]) == 1


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 14),
    p=st.floats(0.0, 0.6),
    where=st.floats(0.0, 1.0, exclude_max=True),
)
def test_double_sweep_depth_is_a_lower_bound_on_the_diameter(seed, n, p, where):
    # sparse draws leave isolated nodes and several components
    g = random_graph(np.random.default_rng(seed), n, p)
    source = int(where * n)
    depth = double_sweep_depth(g, source)
    assert bfs_distances(g, source).d_max <= depth <= diameter(g)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    p=st.floats(0.05, 0.7),
)
def test_bfs_invariants_on_random_graphs(seed, n, p):
    g = random_graph(np.random.default_rng(seed), n, p)
    fields = [bfs_distances(g, s) for s in range(n)]
    comp = connected_components(g)
    for i in range(n):
        for j in range(n):
            assert fields[i].dist[j] == fields[j].dist[i]
    for s in range(n):
        row, shells = g.shell_table[s].tolist(), fields[s].shell_counts
        assert tuple(row[: len(shells)]) == shells and not any(row[len(shells) :])
        assert fields[s].dist[s] == 0
        assert sum(fields[s].shell_counts) == comp.component_sizes[comp.component_id[s]]
        for v in range(n):
            for u in g.adjacency[v]:
                du, dv = fields[s].dist[u], fields[s].dist[v]
                if du != UNREACHABLE and dv != UNREACHABLE:
                    assert abs(du - dv) <= 1


def _rebuilt(g: Graph, order) -> Graph:
    """A fresh copy of ``g``, its nodes interned in ``order``."""
    edges = [(g.node_labels[v], g.node_labels[u]) for v in order for u in g.adjacency[v]]
    return Graph.build(edges, nodes=[g.node_labels[v] for v in order])


def _blocks(sources, width: int) -> list[list[int]]:
    """``sources`` cut into consecutive blocks of ``width``, the last one shorter."""
    sources = list(sources)
    return [sources[i : i + width] for i in range(0, len(sources), width)]


def _frontier_width(g: Graph, sources: list[int]) -> int:
    """Sources per frontier block: 128 over the mean degree of the deep ``sources``, at least 1."""
    contacts = sum(len(g.adjacency[s]) for s in sources)
    return max(1, 128 * len(sources) // max(contacts, 1))


def _shell_pass_plan(g: Graph, levels: int) -> tuple[list[list[int]], list[list[int]]]:
    """The sources of each word block, and of each frontier block, that the shell pass runs.

    A source runs in a frontier block exactly when it lies in a component
    of more than ``levels`` nodes whose double sweep from its smallest node
    reaches deeper than ``levels``. The word blocks take the other sources
    64 at a time, in node order, and the frontier blocks the deep ones
    ``_frontier_width`` at a time.
    """
    comp = connected_components(g)
    deep = {
        c
        for c, size in enumerate(comp.component_sizes)
        if size > levels and double_sweep_depth(g, comp.component_id.index(c)) > levels
    }
    in_deep = [comp.component_id[s] in deep for s in range(g.node_count)]
    deep_sources = [s for s in range(g.node_count) if in_deep[s]]
    shallow = [s for s in range(g.node_count) if not in_deep[s]]
    return _blocks(shallow, 64), _blocks(deep_sources, _frontier_width(g, deep_sources))


def _spy_on_shell_pass(monkeypatch) -> tuple[list[list[int]], list[list[int]]]:
    """Record the sources of each word block, and of each frontier block, of the shell pass."""
    tried, calls = [], []
    for name, blocks in (("_word_block_shells", tried), ("_frontier_block_shells", calls)):
        kernel = getattr(fldrank.graph, name)

        def spy(*args, kernel=kernel, blocks=blocks):
            blocks.append(args[1].tolist())  # each kernel takes its sources second
            return kernel(*args)

        monkeypatch.setattr(fldrank.graph, name, spy)
    return tried, calls


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130, 200])
def test_shell_counts_across_word_boundaries(monkeypatch, n):
    # sparse random graphs add isolated nodes and several components. Below
    # the real level limit, the sources of a component that a double sweep
    # finds deeper than the limit run in frontier blocks, and any other
    # source runs in a 64-source word block, however deep (a frontier block
    # over such a shallow limit may hold more than 64 sources). In order of
    # eccentricity the shallow sources come first, so the word blocks and
    # frontier blocks hold sources from all over the node range (at n =
    # 200, limits 1 and 2); in node order they interleave (at n = 65 and 130)
    drawn = random_graph(np.random.default_rng(n), n, 1.5 / max(n, 1))
    if n >= 63:
        comp = connected_components(drawn)
        assert 1 in comp.component_sizes
        assert sum(size > 1 for size in comp.component_sizes) > 1
    by_depth = sorted(range(n), key=lambda s: bfs_distances(drawn, s).d_max)
    tried, calls = _spy_on_shell_pass(monkeypatch)
    for levels in (fldrank.graph._MAX_WORD_LEVELS, 1, 2):
        monkeypatch.setattr(fldrank.graph, "_MAX_WORD_LEVELS", levels)
        for order in (range(n), by_depth):
            g = _rebuilt(drawn, order)
            tried.clear()
            calls.clear()
            check_shell_table(g)
            assert (tried, calls) == _shell_pass_plan(g, levels)


def _path600_then_ba2000() -> Graph:
    """A 600-node path labelled p0..p599, then BA(2000, 3) with its labels prefixed by b."""
    path = [(f"p{i}", f"p{i + 1}") for i in range(599)]
    ba = barabasi_albert_graph(2000, 3, 1)
    labels = [f"b{label}" for label in ba.node_labels]
    return Graph.build(path + [(labels[v], labels[u]) for v in range(2000) for u in ba.adjacency[v]])


def _path600_glued_to_ba300() -> Graph:
    """A 600-node path p0..p599 whose end p599 has one edge to node b0 of BA(300, 3)."""
    path = [(f"p{i}", f"p{i + 1}") for i in range(599)]
    ba = barabasi_albert_graph(300, 3, 1)
    labels = [f"b{label}" for label in ba.node_labels]
    ba_edges = [(labels[v], labels[u]) for v in range(300) for u in ba.adjacency[v]]
    return Graph.build(path + [("p599", labels[0])] + ba_edges)


def test_shell_pass_runs_frontier_blocks_only_in_deep_components(monkeypatch):
    # a 600-node path, then BA(2000, 3): the path's sources 0-599 run in
    # frontier blocks of 64 (a path's mean degree is about 2), and the BA
    # sources run in word blocks from source 600 on, since their component
    # is shallow
    g = _path600_then_ba2000()
    tried, calls = _spy_on_shell_pass(monkeypatch)
    check_shell_table(g)
    assert calls == _blocks(range(600), 64)
    assert tried == _blocks(range(600, g.node_count), 64)


@pytest.mark.parametrize(
    "g",
    [path_graph(130), cycle_graph(65), _path600_glued_to_ba300(), grid_graph(2, 600)],
    ids=["path130", "cycle65", "path600-glued-ba300", "grid2x600"],
)
def test_shell_counts_on_long_paths_across_words(g):
    check_shell_table(g)


@pytest.mark.parametrize("n, frontier_sources", [(513, 0), (514, 514)])
def test_word_pass_runs_up_to_its_level_limit(monkeypatch, n, frontier_sources):
    # a path's end node 0 has eccentricity n - 1, and a double sweep from it
    # finds that depth: 512 levels stay in the word pass, and 513 send every
    # source to the frontier blocks
    assert fldrank.graph._MAX_WORD_LEVELS == 512
    g = path_graph(n)
    tried, calls = _spy_on_shell_pass(monkeypatch)
    check_shell_table(g)
    assert calls == _blocks(range(n - frontier_sources, n), 64)
    assert tried == (_blocks(range(n), 64) if frontier_sources == 0 else [])


def test_frontier_blocks_take_a_deep_component_after_shallow_word_blocks(monkeypatch):
    # a 70-node star, then a 600-node path: sources 0-69 lie in the star, two
    # levels deep, and run as two word blocks; the path is deeper than the
    # word pass's level limit, and its sources run in frontier blocks
    edges = [("c", f"l{i}") for i in range(69)] + [(f"p{i}", f"p{i + 1}") for i in range(599)]
    g = Graph.build(edges)
    tried, calls = _spy_on_shell_pass(monkeypatch)
    check_shell_table(g)
    assert calls == _blocks(range(70, g.node_count), 64)
    assert tried == [list(range(64)), list(range(64, 70))]


def test_word_pass_has_no_level_limit(monkeypatch):
    # with every double sweep read as 0, no component counts as deep, and the
    # word pass runs path(600)'s blocks through all 599 levels
    monkeypatch.setattr(fldrank.graph, "double_sweep_depth", lambda g, source: 0)
    g = path_graph(600)
    tried, calls = _spy_on_shell_pass(monkeypatch)
    check_shell_table(g)
    assert calls == []
    assert tried == _blocks(range(600), 64)


@pytest.mark.parametrize(
    "build, sweeps",
    [
        (load_karate, 0),
        (lambda: barabasi_albert_graph(300, 3, 1), 0),
        (lambda: barabasi_albert_graph(2000, 3, 1), 1),
    ],
    ids=["karate", "ba300", "ba2000"],
)
def test_shell_pass_sweeps_only_components_larger_than_its_level_limit(monkeypatch, build, sweeps):
    # a component of at most _MAX_WORD_LEVELS nodes is never deeper than that,
    # so only BA(2000, 3)'s one component pays for a double sweep
    g = build()
    sources, real = [], fldrank.graph.double_sweep_depth
    monkeypatch.setattr(
        fldrank.graph, "double_sweep_depth", lambda g, s: sources.append(s) or real(g, s)
    )
    fldrank.graph.all_distance_fields(g)
    assert sources == [0] * sweeps


def test_no_word_block_holds_a_source_of_a_deep_component(monkeypatch):
    # path(600), then BA(2000, 3): the word pass runs only blocks of BA sources
    g = _path600_then_ba2000()
    tried, _ = _spy_on_shell_pass(monkeypatch)
    fldrank.graph.all_distance_fields(g)
    assert tried
    assert not any(g.node_labels[s].startswith("p") for block in tried for s in block)


def _ba300_beside_glued() -> Graph:
    """BA(300, 3) labelled s0..s299, then ``_path600_glued_to_ba300``."""
    ba, glued = barabasi_albert_graph(300, 3, 2), _path600_glued_to_ba300()
    edges = [(f"s{v}", f"s{u}") for v in range(300) for u in ba.adjacency[v]]
    labels = glued.node_labels
    return Graph.build(edges + [(labels[v], labels[u]) for v in range(900) for u in glued.adjacency[v]])


def _caterpillar(spine: int, prefix: str = "") -> list[tuple[str, str]]:
    """The edges of a ``spine``-node path with one leaf on each of its nodes."""
    edges = [(f"{prefix}p{i}", f"{prefix}p{i + 1}") for i in range(spine - 1)]
    return edges + [(f"{prefix}p{i}", f"{prefix}l{i}") for i in range(spine)]


def test_frontier_blocks_hold_only_deep_sources_and_follow_their_degree(monkeypatch):
    # BA(300, 3) on its own, then path(600) glued to another BA(300, 3): the
    # glued component is deep, and its dense part raises its mean degree to
    # about 3.3, so its frontier blocks hold 128 // 3.3 = 38 sources. A
    # caterpillar on a 520-node spine is a tree 521 levels deep, with the
    # fewest contacts a component of its size can have, so its blocks, alone
    # or beside a second one, hold 128 * n_d // c_d = 64 sources: the width's
    # bound is tight
    tried, calls = _spy_on_shell_pass(monkeypatch)
    for g, width in (
        (_ba300_beside_glued(), 38),
        (Graph.build(_caterpillar(520)), 64),
        (Graph.build(_caterpillar(520, "a") + _caterpillar(520, "b")), 64),
    ):
        tried.clear()
        calls.clear()
        check_shell_table(g)
        shallow = [s for s in range(g.node_count) if g.node_labels[s].startswith("s")]
        deep = [s for s in range(g.node_count) if not g.node_labels[s].startswith("s")]
        assert 128 * len(deep) // sum(len(g.adjacency[s]) for s in deep) == width
        assert sorted(s for block in calls for s in block) == deep
        assert max(map(len, calls)) == width
        assert sorted(s for block in tried for s in block) == shallow


def _canonical(g: Graph):
    edges = {
        frozenset((g.node_labels[v], g.node_labels[u]))
        for v in range(g.node_count)
        for u in g.adjacency[v]
    }
    return set(g.node_labels), edges


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 10),
    p=st.floats(0.1, 0.8),
)
def test_parse_is_invariant_under_line_reordering(seed, n, p):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    lines = [
        f"{g.node_labels[v]} {g.node_labels[u]}"
        for v in range(n)
        for u in g.adjacency[v]
        if v < u
    ]
    if not lines:
        return
    parsed = parse_edge_list("\n".join(lines) + "\n")
    shuffled = list(lines)
    rng.shuffle(shuffled)
    reparsed = parse_edge_list("\n".join(shuffled) + "\n")
    assert _canonical(parsed) == _canonical(reparsed)
