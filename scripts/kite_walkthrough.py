"""Walk through fuzzy local dimension on the bundled kite network.

Prints the per-radius fuzzy counts around the hub, every node's score, and
the ranking columns of all six measures side by side.
"""

import argparse

from fldrank import Measure, compute_measure, fuzzy_count_series, rank_nodes
from fldrank.datasets import load_kite


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()
    kite = load_kite()

    # the shell table's row holds node 7's shell counts, then zeros past its depth
    row = kite.shell_table[kite.label_to_id["7"]]
    series = fuzzy_count_series(tuple(row[row > 0].tolist()))
    print("fuzzy counts around node 7:")
    print("  r   fuzzy     nodes within r")
    for r, fuzzy, real in zip(series.radii, series.counts, series.real_counts):
        print(f"  {r}   {fuzzy:.4f}    {real}")

    sv = compute_measure(kite, Measure.FLD)
    print("\nfuzzy local dimension per node:")
    for label in sorted(kite.node_labels, key=int):
        print(f"  node {label:>2}  {sv.scores[kite.label_to_id[label]]: .4f}")

    rankings = {m: rank_nodes(compute_measure(kite, m), kite.node_labels) for m in Measure}
    print("\nranking columns (most influential first):")
    print("  rank  " + "  ".join(f"{m.value:>3}" for m in Measure))
    for row in range(kite.node_count):
        cells = "  ".join(f"{rankings[m].labels[row]:>3}" for m in Measure)
        print(f"  {row + 1:>4}  {cells}")


if __name__ == "__main__":
    main()
