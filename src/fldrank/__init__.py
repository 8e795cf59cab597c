"""Rank influential nodes in complex networks.

Six per-node importance measures (degree, closeness, betweenness,
eigenvector, local dimension and fuzzy local dimension) over immutable
undirected graphs, a reproducible susceptible-infected spreading simulator
for ground-truth influence, and tie-aware Kendall tau to score rankings
against it.
"""

from .centrality import (
    Measure,
    PowerIterationError,
    RankingList,
    ScoreVector,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
    local_dimension,
    ols_slope,
    oriented_scores,
    rank_nodes,
    shortest_path_counts,
)
from .evaluation import (
    PairedSequence,
    TauResult,
    compute_measure,
    kendall_tau,
    tau_sweep,
    top_k_overlap,
)
from .fld import (
    FuzzyCountSeries,
    fuzzy_count_series,
    fuzzy_local_dimension,
    membership,
)
from .graph import (
    UNREACHABLE,
    ComponentMap,
    DistanceField,
    EdgeListError,
    Graph,
    all_distance_fields,
    bfs_distances,
    connected_components,
    diameter,
    load_edge_list,
    parse_edge_list,
)
from .si import (
    SiConfig,
    TrajectoryEnsemble,
    lambda_from_beta,
    replicate_counts,
    replicate_rng,
    si_step,
    simulate,
    spreading_ability,
)

__version__ = "0.1.0"
