"""End-to-end acceptance suite: golden values, oracle equivalences, statistics.

Each test prints one `[acceptance]` line so a plain `pytest -s
tests/test_acceptance.py` reads as a checklist. Three checks encode golden
expectations that are not reproducible from the definitions; they fail by
design and say why (see their docstrings and the repo README).
"""

import math
import time
from itertools import accumulate

import numpy as np
import pytest

from conftest import (
    bfs_distances,
    brute_force_path_counts,
    brute_force_tau,
    closed_form_slope,
    complete_graph,
    coupled_infected_sets,
    cycle_graph,
    random_graph,
    relabeled,
    same_runs,
    scores_by_label,
)
from fldrank import (
    Graph,
    Measure,
    PairedSequence,
    SiConfig,
    compute_measure,
    connected_components,
    fuzzy_count_series,
    fuzzy_local_dimension,
    kendall_tau,
    lambda_from_beta,
    local_dimension,
    membership,
    rank_nodes,
    replicate_counts,
    shortest_path_counts,
    si_step,
    simulate,
    spreading_ability,
    tau_sweep,
    top_k_overlap,
)

KITE_FLD_GOLDEN = (0.3609, 0.3609, 0.3015, 0.4554, 0.4554, 0.3015, 0.4442, 0.0760, 0.0375, -0.1163)
KITE_FUZZY_COUNTS_7 = (0.4582, 0.7551, 0.8198, 0.8353)
KITE_FLD_COLUMN = ("4", "5", "7", "2", "1", "6", "3", "8", "9", "10")
KARATE_FLD_TOP10 = ("1", "34", "33", "3", "2", "32", "24", "28", "31", "30")


def _check(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {label}: {status}{suffix}")
    assert ok, f"{label}{suffix}"


def _ranking(g, measure):
    return rank_nodes(compute_measure(g, measure), g.node_labels)


def test_criterion_1_kite_fld_exactness(kite):
    started = time.perf_counter()
    sv = fuzzy_local_dimension(kite)
    by_label = scores_by_label(kite, sv)
    score_errs = [
        abs(by_label[str(node)] - expected)
        for node, expected in enumerate(KITE_FLD_GOLDEN, start=1)
    ]
    series = fuzzy_count_series(bfs_distances(kite, kite.label_to_id["7"]).shell_counts)
    count_errs = [
        abs(series.counts[r - 1] - expected)
        for r, expected in enumerate(KITE_FUZZY_COUNTS_7, start=1)
    ]
    elapsed = time.perf_counter() - started
    _check(
        "criterion 1 kite scores and intermediate counts",
        max(score_errs) < 1e-3 and max(count_errs) < 1e-4 and elapsed < 1.0,
        f"max score err {max(score_errs):.2e}, max count err {max(count_errs):.2e}, {elapsed:.3f}s",
    )


def test_criterion_2_kite_fld_ranking_column(kite):
    """Golden kite ranking, literal.

    Known red: the golden column orders the tied pairs {1,2} as (2,1) and
    {3,6} as (6,3) but the tied pair {4,5} as (4,5). Those pairs have
    exactly equal scores (the kite has a mirror symmetry swapping 1-2, 3-6
    and 4-5), so no deterministic tie rule can produce both orders at
    once; the ascending-label rule used here yields (4,5,7,1,2,3,6,8,9,10).
    """
    got = _ranking(kite, Measure.FLD).labels
    _check(
        "criterion 2a kite ranking column, literal",
        got == KITE_FLD_COLUMN,
        f"got {got}",
    )


def test_criterion_2_kite_dc_and_tail(kite):
    ranking = _ranking(kite, Measure.FLD)
    dc_first = _ranking(kite, Measure.DC).labels[0]
    _check(
        "criterion 2b kite degree rank-1 and negative-score tail",
        dc_first == "7" and ranking.labels[-1] == "10",
        f"dc rank-1 {dc_first}, last {ranking.labels[-1]}",
    )


def test_criterion_3_karate_rankings(karate):
    started = time.perf_counter()
    fld_top = _ranking(karate, Measure.FLD).top(10)
    firsts = {m: _ranking(karate, m).labels[0] for m in Measure if m is not Measure.FLD}
    elapsed = time.perf_counter() - started
    ok = (
        fld_top == KARATE_FLD_TOP10
        and firsts[Measure.DC] == "34"
        and firsts[Measure.EC] == "34"
        and firsts[Measure.LD] == "34"
        and firsts[Measure.CC] == "1"
        and firsts[Measure.BC] == "1"
        and elapsed < 1.0
    )
    _check(
        "criterion 3a karate top-10 and rank-1 nodes",
        ok,
        f"fld top10 {fld_top}, rank-1s {{{', '.join(f'{m.value}:{v}' for m, v in firsts.items())}}}, {elapsed:.3f}s",
    )


def test_criterion_3_karate_fld_bc_overlap(karate):
    """Golden overlap of 8 between the fld and bc top-10 sets.

    Known red: with betweenness computed from its definition here (raw
    shortest-path counts over a global denominator, validated against
    exhaustive path enumeration), the karate top-10 is {1,34,33,32,3,9,
    14,2,20,6} and the overlap is 6. No standard betweenness variant
    (per-pair normalized, endpoint-inclusive, current-flow, load, flow)
    reproduces the golden top-10 set this expectation was derived from.
    """
    overlap = top_k_overlap(_ranking(karate, Measure.FLD), _ranking(karate, Measure.BC), 10)
    _check("criterion 3b karate fld/bc top-10 overlap = 8", overlap == 8, f"got {overlap}")


def test_criterion_4_oracle_equivalence(kite, karate):
    started = time.perf_counter()
    rng = np.random.default_rng(20240811)

    bc_ok = True
    for _ in range(200):
        g = random_graph(rng, int(rng.integers(3, 9)), float(rng.uniform(0.15, 0.9)))
        if shortest_path_counts(g) != brute_force_path_counts(g):
            bc_ok = False
            break

    tau_ok = True
    for i in range(1000):
        n = int(rng.integers(2, 201))
        if i % 2 == 0:
            w = rng.integers(0, 10, size=n).astype(float)
            v = rng.integers(0, 10, size=n).astype(float)
        else:
            w = rng.normal(size=n)
            v = rng.normal(size=n)
        result = kendall_tau(PairedSequence(tuple(w), tuple(v)))
        if (result.n_c, result.n_d) != brute_force_tau(tuple(w), tuple(v)):
            tau_ok = False
            break

    slope_err = 0.0
    for g in (kite, karate):
        ld = local_dimension(g)
        fld = fuzzy_local_dimension(g)
        for i in range(g.node_count):
            field = bfs_distances(g, i)
            if field.d_max < 2:
                continue
            xs = [math.log(r) for r in range(1, field.d_max + 1)]
            cumulative = list(accumulate(field.shell_counts))
            ys = [math.log(cumulative[r]) for r in range(1, field.d_max + 1)]
            slope_err = max(slope_err, abs(ld.scores[i] - closed_form_slope(xs, ys)))
            series = fuzzy_count_series(field.shell_counts)
            ys = [math.log(c) for c in series.counts]
            slope_err = max(slope_err, abs(fld.scores[i] - closed_form_slope(xs, ys)))
    elapsed = time.perf_counter() - started
    _check(
        "criterion 4 oracle equivalence (paths, tau, regression)",
        bc_ok and tau_ok and slope_err < 1e-12,
        f"bc {bc_ok}, tau {tau_ok}, max slope err {slope_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_si_invariants(kite, karate):
    rng = np.random.default_rng(5150)

    constant = simulate(kite, SiConfig(lam=0.0, seeds=(0, 4), replicates=5))
    zero_ok = constant.mean_f == (2.0,)

    wavefront = simulate(kite, SiConfig(lam=1.0, seeds=(kite.label_to_id["7"],), replicates=3))
    wave_ok = wavefront.mean_f == (1.0, 7.0, 8.0, 9.0, 10.0)

    coupling_ok = True
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(3, 20)), float(rng.uniform(0.1, 0.6)))
        low = float(rng.uniform(0.05, 0.6))
        high = min(1.0, low + float(rng.uniform(0.0, 0.4)))
        seeds = {int(rng.integers(g.node_count))}
        for lo, hi in coupled_infected_sets(g, seeds, low, high, steps=6, rng=rng):
            if not lo <= hi:
                coupling_ok = False

    partition_ok = True
    for _ in range(10):
        g = random_graph(rng, 12, 0.3)
        infected = np.zeros(g.node_count, dtype=bool)
        infected[0] = True
        susceptible = ~infected
        step_rng = np.random.default_rng(rng.integers(2**32))
        for t in range(8):
            if int(infected.sum()) + int(susceptible.sum()) != g.node_count:
                partition_ok = False
            new = si_step(g, infected, 0.4, step_rng)
            infected[new] = True
            susceptible[new] = False

    def replicate_runs(replicates):
        cfg = SiConfig(lam=0.25, seeds=(0, 1), replicates=replicates, rng_seed=77)
        return replicate_counts(karate, cfg)

    deterministic = same_runs(replicate_runs(16)[:8], replicate_runs(8))

    _check(
        "criterion 5 spreading invariants and determinism",
        zero_ok and wave_ok and coupling_ok and partition_ok and deterministic,
        f"zero {zero_ok}, wavefront {wave_ok}, coupling {coupling_ok}, "
        f"partition {partition_ok}, replicate count {deterministic}",
    )


def test_criterion_6_statistical_oracle():
    started = time.perf_counter()
    replicates = 10_000

    pair = Graph.build([("a", "b")])
    ensemble = simulate(pair, SiConfig(lam=0.5, seeds=(0,), replicates=replicates, max_steps=1, rng_seed=6))
    rate = ensemble.mean_f[1] - 1.0
    rate_ok = abs(rate - 0.5) < 0.015

    star = Graph.build([("c", f"l{i}") for i in range(4)])
    center = spreading_ability(star, star.label_to_id["c"], 0.5, t_eval=1, replicates=replicates, rng_seed=7)
    leaf = spreading_ability(star, star.label_to_id["l0"], 0.5, t_eval=1, replicates=replicates, rng_seed=8)
    # 3 sigma of the replicate means: center sd 1, leaf sd 0.5
    center_ok = abs(center - 3.0) < 3.0 / math.sqrt(replicates)
    leaf_ok = abs(leaf - 1.5) < 1.5 / math.sqrt(replicates)

    elapsed = time.perf_counter() - started
    _check(
        "criterion 6 statistical oracle",
        rate_ok and center_ok and leaf_ok and elapsed < 10.0,
        f"rate {rate:.4f}, center {center:.4f}, leaf {leaf:.4f}, {elapsed:.1f}s",
    )


def _top10_seeds(g, measure):
    return tuple(sorted(g.label_to_id[l] for l in _ranking(g, measure).top(10)))


def test_criterion_7_curve_dominance(karate):
    """Spreading curves seeded by the fld top-10 vs the ld top-10.

    Known red: the ld top-10 includes nodes 6 and 7, the only gateway to
    node 17 and an otherwise unseeded corner, while fld picks the more
    central 31 and 32; under these dynamics the ld seed set covers the
    graph faster at every tested rate, so the fld curve does not dominate.
    """
    started = time.perf_counter()
    lam = lambda_from_beta(3.0)
    curves = {}
    for measure in (Measure.FLD, Measure.LD):
        cfg = SiConfig(lam=lam, seeds=_top10_seeds(karate, measure), replicates=100, rng_seed=0)
        curves[measure] = simulate(karate, cfg).mean_f
    length = max(len(c) for c in curves.values())
    padded = {
        m: list(c) + [c[-1]] * (length - len(c)) for m, c in curves.items()
    }
    n = karate.node_count
    saturated = next(
        (t for t in range(length) if padded[Measure.FLD][t] >= n and padded[Measure.LD][t] >= n),
        length - 1,
    )
    wins = sum(
        1 for t in range(saturated + 1) if padded[Measure.FLD][t] >= padded[Measure.LD][t]
    )
    fraction = wins / (saturated + 1)
    elapsed = time.perf_counter() - started
    _check(
        "criterion 7a fld-seeded spread dominates ld-seeded spread",
        fraction >= 0.8 and elapsed < 60.0,
        f"fld >= ld at {wins}/{saturated + 1} steps ({fraction:.0%}), {elapsed:.1f}s",
    )


def test_criterion_7_tau_dominance(karate):
    started = time.perf_counter()
    grid = [round(0.01 * i, 10) for i in range(1, 11)]
    taus = {}
    for measure in (Measure.FLD, Measure.LD):
        sv = compute_measure(karate, measure)
        taus[measure] = [r.tau for _, r in tau_sweep(karate, sv, grid, t_eval=10, replicates=100, rng_seed=0)]
    wins = sum(1 for a, b in zip(taus[Measure.FLD], taus[Measure.LD]) if a > b)
    elapsed = time.perf_counter() - started
    _check(
        "criterion 7b tau(fld) beats tau(ld) across the rate sweep",
        wins >= 8 and elapsed < 120.0,
        f"fld wins {wins}/10, {elapsed:.1f}s",
    )


def test_criterion_8_property_suite(kite):
    rng = np.random.default_rng(888)

    equivariance_ok = True
    graphs = [kite] + [random_graph(rng, int(rng.integers(4, 10)), 0.5) for _ in range(4)]
    for g in graphs:
        perm = rng.permutation(g.node_count)
        mapping = {g.node_labels[i]: f"p{perm[i]}" for i in range(g.node_count)}
        h = relabeled(g, mapping, rng)
        sizes = connected_components(g).component_sizes
        unique_largest = bool(sizes) and list(sizes).count(max(sizes)) == 1
        for measure in Measure:
            if measure is Measure.EC and (g.edge_count == 0 or not unique_largest):
                # the largest component, where eigenvector scores live, is
                # only a graph-level notion when it is unique
                continue
            a = scores_by_label(g, compute_measure(g, measure))
            b = scores_by_label(h, compute_measure(h, measure))
            for label, value in a.items():
                other = b[mapping[label]]
                if value is None or other is None:
                    equivariance_ok &= value is None and other is None
                elif measure is Measure.EC:
                    equivariance_ok &= abs(value - other) < 1e-9
                else:
                    equivariance_ok &= value == other

    transitive_ok = True
    for g in (cycle_graph(5), cycle_graph(9), cycle_graph(4), complete_graph(5)):
        for measure in Measure:
            sv = compute_measure(g, measure)
            if sv.undefined.all():
                continue
            transitive_ok &= not sv.undefined.any() and float(np.ptp(sv.scores)) < 1e-12

    membership_ok = True
    eps_grid = [0.5 * k for k in range(1, 21)]
    for eps in eps_grid:
        values = [membership(d, eps) for d in range(11)]
        membership_ok &= all(0.0 < v <= 1.0 for v in values)
        membership_ok &= values[0] == 1.0 and all(v < 1.0 for v in values[1:])
        membership_ok &= all(b < a for a, b in zip(values, values[1:]))
    for d in range(1, 11):
        series = [membership(d, eps) for eps in eps_grid]
        membership_ok &= all(b > a for a, b in zip(series, series[1:]))

    tau_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 40))
        w = rng.integers(0, 6, size=n).astype(float)
        v = rng.normal(size=n)
        result = kendall_tau(PairedSequence(tuple(w), tuple(v)))
        tau_ok &= -1.0 <= result.tau <= 1.0
        if len(set(v)) == n:
            flipped = kendall_tau(PairedSequence(tuple(w), tuple(-v)))
            tau_ok &= result.tau == -flipped.tau

    _check(
        "criterion 8 property suite",
        equivariance_ok and transitive_ok and membership_ok and tau_ok,
        f"equivariance {equivariance_ok}, transitive {transitive_ok}, "
        f"membership {membership_ok}, tau {tau_ok}",
    )
