"""Rank influential nodes in complex networks.

Six per-node importance measures (degree, closeness, betweenness,
eigenvector, local dimension and fuzzy local dimension) over immutable
undirected graphs, a reproducible susceptible-infected spreading simulator
for ground-truth influence, and tie-aware Kendall tau to score rankings
against it.

The public names load their submodule on first use, so ``import fldrank``
imports no numpy and the CLI can choose numpy's BLAS thread count first.
"""

from importlib import import_module

_EXPORTS = {
    "centrality": (
        "Measure PowerIterationError RankingList ScoreVector betweenness_centrality"
        " closeness_centrality degree_centrality eigenvector_centrality local_dimension"
        " oriented_scores rank_nodes shortest_path_counts"
    ),
    "evaluation": "PairedSequence TauResult compute_measure kendall_tau tau_sweep top_k_overlap",
    "fld": "FuzzyCountSeries fuzzy_count_series fuzzy_local_dimension membership",
    "graph": (
        "UNREACHABLE ComponentMap EdgeListError Graph all_distance_fields"
        " connected_components diameter load_edge_list parse_edge_list"
    ),
    "si": (
        "SiConfig TrajectoryEnsemble lambda_from_beta replicate_counts replicate_rng"
        " si_step simulate spreading_ability"
    ),
}
# public name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name: str):
    # no caching: each access reads the submodule's current binding
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
