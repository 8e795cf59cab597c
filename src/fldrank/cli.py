"""Command-line front end: rank tables, spreading campaigns, tau sweeps, overlaps.

Every run emits its data rows (CSV or JSON) plus a run manifest holding the
command, the input file hash and all effective parameters, enough to
reproduce the rows byte for byte. With --out FILE the manifest lands next
to it as FILE.manifest.json; without --out, rows go to stdout and the
manifest to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

from . import __version__
from .centrality import Measure, PowerIterationError, rank_nodes
from .evaluation import compute_measure, tau_sweep, top_k_overlap
from .graph import Graph, parse_edge_list
from .si import SiConfig, _int_at_least, _real_in, lambda_from_beta, simulate

# Longest --lambda-range grid accepted (the paper's grid has 10 rates).
_MAX_RATES = 1000

_COLUMNS = {
    "rank": ("rank", "node", "score", "undefined"),
    "si": ("t", "mean_F", "std_F"),
    "tau": ("lambda", "tau", "n_c", "n_d"),
    "compare": ("measure_a", "measure_b", "k", "overlap"),
}


def _cell(value, output: str):
    """A row cell as CSV text or a JSON value: bools as 0/1, floats to 6 decimals."""
    if isinstance(value, bool):
        value = int(value)
    elif isinstance(value, float):
        return f"{value:.6f}" if output == "csv" else round(value, 6)
    return str(value) if output == "csv" else value


def _render(columns: tuple[str, ...], rows, output: str) -> str:
    cells = [[_cell(v, output) for v in row] for row in rows]
    if output == "json":
        return json.dumps([dict(zip(columns, row)) for row in cells], indent=2) + "\n"
    return "\n".join([",".join(columns), *(",".join(row) for row in cells)]) + "\n"


def _usage(parse):
    """``parse`` as an argparse type: its TypeError or ValueError is a usage error (exit 2)."""

    def parse_or_usage_error(raw: str):
        try:
            return parse(raw)
        except (TypeError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse_or_usage_error


# the library's own rules, applied to the raw text before any input is read
_positive_int = _usage(lambda raw: _int_at_least("value", int(raw), 1))
_non_negative_int = _usage(lambda raw: _int_at_least("value", int(raw)))
_rate = _usage(lambda raw: _real_in("value", float(raw), 0.0, 1.0))
_beta = _usage(lambda raw: _real_in("value", float(raw), 0.0, math.inf))


def _parse_measure(name: str) -> Measure:
    return Measure(name.lower())  # an unknown name raises a ValueError that quotes it


def _parse_measures(raw: str) -> list[Measure]:
    measures = [_parse_measure(tok) for tok in raw.split(",") if tok]
    if not measures:
        raise ValueError(f"expected at least one measure, got {raw!r}")
    return measures


def _parse_lambda_range(raw: str) -> list[float]:
    try:
        start, stop, step = (float(tok) for tok in raw.split(":"))
    except ValueError:
        raise ValueError(f"expected start:stop:step, got {raw!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"expected finite start:stop:step, got {raw!r}")
    if step <= 0 or start > stop:
        raise ValueError("need step > 0 and start <= stop")
    values = []
    while True:
        value = round(start + len(values) * step, 10)
        if value > stop + 1e-9:
            break
        if len(values) == _MAX_RATES:
            raise ValueError(f"at most {_MAX_RATES} rates, got {raw!r}")
        values.append(value)
    for value in (values[0], values[-1]):  # the grid ascends
        _real_in("rate", value, 0.0, 1.0, above_low=True)
    if len(set(values)) < len(values):
        raise ValueError(f"rates repeat once rounded to 10 decimals, got {raw!r}")
    return values


def _resolve_seeds(g: Graph, args) -> tuple[int, ...]:
    """Node IDs of --seeds, or of the --top nodes of --measure, as given."""
    if args.seeds is not None:
        ids = []
        for label in args.seeds.split(","):
            label = label.strip()
            if label not in g.label_to_id:
                raise ValueError(f"seed label {label!r} not in graph")
            ids.append(g.label_to_id[label])
        return tuple(ids)
    ranking = rank_nodes(compute_measure(g, args.measure), g.node_labels)
    if args.top > len(ranking.labels):
        raise ValueError(f"--top {args.top} exceeds node count {len(ranking.labels)}")
    return tuple(g.label_to_id[l] for l in ranking.top(args.top))


# Each subcommand maps the parsed graph and arguments to (rows, manifest params).


def cmd_rank(g: Graph, args) -> tuple[list, dict]:
    ranking = rank_nodes(compute_measure(g, args.measure), g.node_labels)
    rows = [
        (pos, label, score, undefined)
        for pos, (label, score, undefined) in enumerate(
            zip(ranking.labels, ranking.scores, ranking.undefined), start=1
        )
    ]
    return rows, {"measure": args.measure.value}


def cmd_si(g: Graph, args) -> tuple[list, dict]:
    lam = args.lam if args.lam is not None else lambda_from_beta(args.beta)
    cfg = SiConfig(
        lam=lam,
        seeds=_resolve_seeds(g, args),
        replicates=args.replicates,
        max_steps=args.max_steps,
        rng_seed=args.rng_seed,
    )
    ensemble = simulate(g, cfg)
    rows = [
        (t, mean, std)
        for t, (mean, std) in enumerate(zip(ensemble.mean_f, ensemble.std_f))
    ]
    params = {
        "seeds": [g.node_labels[s] for s in cfg.seeds],
        "top": args.top,
        "measure": args.measure.value if args.measure else None,
        "beta": args.beta,
        "lambda": lam,
        "replicates": args.replicates,
        "rng_seed": args.rng_seed,
        "max_steps": args.max_steps,
    }
    return rows, params


def cmd_tau(g: Graph, args) -> tuple[list, dict]:
    sv = compute_measure(g, args.measure)
    results = tau_sweep(
        g,
        sv,
        args.lambda_range,
        t_eval=args.t_eval,
        replicates=args.replicates,
        rng_seed=args.rng_seed,
    )
    rows = [(lam, res.tau, res.n_c, res.n_d) for lam, res in results]
    params = {
        "measure": args.measure.value,
        "lambda_grid": args.lambda_range,
        "t_eval": args.t_eval,
        "replicates": args.replicates,
        "rng_seed": args.rng_seed,
    }
    return rows, params


def cmd_compare(g: Graph, args) -> tuple[list, dict]:
    if args.k > g.node_count:  # before any measure is computed
        raise ValueError(f"--k {args.k} exceeds node count {g.node_count}")
    rankings = {
        m: rank_nodes(compute_measure(g, m), g.node_labels) for m in args.measures
    }
    rows = [
        (a.value, b.value, args.k, top_k_overlap(rankings[a], rankings[b], args.k))
        for a in args.measures
        for b in args.measures
    ]
    return rows, {"measures": [m.value for m in args.measures], "k": args.k}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fldrank",
        description="Rank influential network nodes and evaluate rankings against simulated spreading.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="edge-list file")
        p.add_argument("--output", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write rows here (manifest lands at OUT.manifest.json)")

    p_rank = sub.add_parser("rank", help="score and rank all nodes with one measure")
    common(p_rank)
    p_rank.add_argument("--measure", type=_usage(_parse_measure), required=True)
    p_rank.set_defaults(func=cmd_rank)

    p_si = sub.add_parser("si", help="simulate spreading from a seed set")
    common(p_si)
    seeds = p_si.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seeds", help="comma-separated node labels")
    seeds.add_argument("--top", type=_positive_int, help="seed the top-k nodes of --measure")
    p_si.add_argument("--measure", type=_usage(_parse_measure), default=None)
    rate = p_si.add_mutually_exclusive_group(required=True)
    rate.add_argument("--beta", type=_beta, help="infection rate (1/2)**beta")
    rate.add_argument("--lambda", dest="lam", type=_rate, help="infection rate directly")
    p_si.add_argument("--replicates", type=_positive_int, default=100)
    p_si.add_argument("--rng-seed", type=_non_negative_int, default=0)
    p_si.add_argument(
        "--max-steps",
        type=_non_negative_int,
        default=None,
        help="step cap of every replicate (default: 10 × the graph's diameter, at least 1)",
    )
    p_si.set_defaults(func=cmd_si)

    p_tau = sub.add_parser("tau", help="rank correlation against spreading ability")
    common(p_tau)
    p_tau.add_argument("--measure", type=_usage(_parse_measure), required=True)
    p_tau.add_argument("--lambda-range", type=_usage(_parse_lambda_range), default="0.01:0.1:0.01")
    p_tau.add_argument("--t-eval", type=_positive_int, default=10)
    p_tau.add_argument("--replicates", type=_positive_int, default=100)
    p_tau.add_argument("--rng-seed", type=_non_negative_int, default=0)
    p_tau.set_defaults(func=cmd_tau)

    p_cmp = sub.add_parser("compare", help="pairwise top-k overlap between measures")
    common(p_cmp)
    p_cmp.add_argument("--measures", type=_usage(_parse_measures), default=list(Measure))
    p_cmp.add_argument("--k", type=_positive_int, default=10)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "top", None) is not None and args.measure is None:
        parser.error("--top requires --measure")
    with warnings.catch_warnings():
        # one "warning: ..." line per library warning, without its source line
        warnings.showwarning = _print_warning
        try:
            data = Path(args.input).read_bytes()  # read once: parsed and hashed
            rows, params = args.func(parse_edge_list(data), args)
            payload = _render(_COLUMNS[args.command], rows, args.output)
            manifest = {
                "tool": "fldrank",
                "version": __version__,
                "command": args.command,
                "input": {"path": str(args.input), "sha256": hashlib.sha256(data).hexdigest()},
                "params": params,
                "output": {"format": args.output, "path": str(args.out) if args.out else None},
            }
            manifest_text = json.dumps(manifest, indent=2) + "\n"
            if args.out:
                Path(args.out).write_text(payload, newline="")
                Path(str(args.out) + ".manifest.json").write_text(manifest_text, newline="")
            else:
                sys.stdout.write(payload)
                sys.stderr.write(manifest_text)
            return 0
        except (PowerIterationError, ValueError, OSError) as exc:  # EdgeListError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
