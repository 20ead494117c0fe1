"""Command-line surface: cluster, sample, simulate, stats.

Every command is a deterministic function of its input files and flags
(including the seed): rerunning any invocation reproduces byte-identical
artifacts. Exit codes: 0 success, 1 runtime error (bad file, I/O), 2
usage error (unknown command, flag out of range).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import astuple
from pathlib import Path
from typing import Sequence

from . import __version__
from .cluster import DEFAULT_TAU, check_tau, flat_clusters, upgma_linkage
from .errors import CurationError, InvalidFlagValue, NonFiniteValue, UnknownId
from .io import (
    export_clusters,
    load_trajectories,
    read_labeled_ids,
    sha256_file,
    write_experiment_csv,
    write_manifest,
)
from .metric import DEFAULT_WEIGHTS, MetricWeights, pairwise_distances, write_distance_matrix
from .sampling import (
    DEFAULT_GRID_ALPHAS,
    DEFAULT_GRID_BETAS,
    DEFAULT_GRID_BUDGETS,
    SamplingConfig,
    check_budget,
    check_int,
    plan_experiment_grid,
    pool_partition,
    sampling_round,
)
from .states import TrajectoryPool
from .surrogate import (
    DEFAULT_HOLDOUT,
    DEFAULT_K_MODES,
    DEFAULT_SPLIT_SEED,
    check_holdout,
    run_al_experiment,
)
from .synth import canonical_pool_spec, synthetic_pool


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajcurate",
        description="Cluster vehicle trajectory-states and run novelty-sensitive "
        "active-learning sampling rounds under an annotation budget.",
    )
    parser.add_argument("--version", action="version", version=f"trajcurate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, input_required: bool = True) -> None:
        p.add_argument(
            "--input",
            required=input_required,
            help="trajectory record file (.jsonl or .csv)"
            + ("" if input_required else "; defaults to the built-in synthetic fixture"),
        )
        p.add_argument("--labeled", help="id-list file overriding per-record labeled flags")
        p.add_argument("--tau", type=float, default=DEFAULT_TAU, help="cophenetic cut threshold")
        p.add_argument(
            "--weights",
            default=",".join(map(str, astuple(DEFAULT_WEIGHTS))),
            help="metric weights as ka,kv,kh",
        )

    p_cluster = sub.add_parser("cluster", help="distances + linkage + flat clusters + exports")
    add_common(p_cluster)
    p_cluster.add_argument("--out", default=".", help="output directory")
    p_cluster.add_argument("--matrix-out", help="optional binary condensed-matrix dump")

    p_sample = sub.add_parser("sample", help="run one sampling round and write its manifest")
    add_common(p_sample)
    p_sample.add_argument("--alpha", type=float, required=True, help="novel fraction in [0, 1]")
    p_sample.add_argument("--beta", type=float, required=True, help="cluster depth cap in (0, 1]")
    p_sample.add_argument(
        "--budget", required=True, help="sample count (integer) or unlabeled-pool fraction (float < 1 or 1.0)"
    )
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", default="manifest.json", help="manifest output path")

    p_sim = sub.add_parser("simulate", help="surrogate experiment sweep to a result CSV")
    add_common(p_sim, input_required=False)
    p_sim.add_argument(
        "--pool-size",
        type=int,
        dest="pool_size",
        help="size of the built-in fixture (default 2000); only without --input",
    )
    p_sim.add_argument("--grid", default="default", choices=["default", "custom"])
    p_sim.add_argument("--alphas", default="", help="comma list for --grid custom")
    p_sim.add_argument("--betas", default="", help="comma list for --grid custom")
    p_sim.add_argument(
        "--budgets",
        default="",
        help="comma list for --grid custom; each entry as in sample --budget",
    )
    p_sim.add_argument("--seeds", type=int, default=3, help="number of training seeds (0..n-1)")
    p_sim.add_argument("--k-modes", type=int, default=DEFAULT_K_MODES, dest="k_modes")
    p_sim.add_argument("--holdout", type=float, default=DEFAULT_HOLDOUT, help="held-out fraction")
    p_sim.add_argument("--split-seed", type=int, default=DEFAULT_SPLIT_SEED, dest="split_seed")
    p_sim.add_argument("--out", required=True, help="result CSV path")

    p_stats = sub.add_parser("stats", help="cluster size histogram and novelty census")
    add_common(p_stats)
    p_stats.add_argument("--out", help="also write the report to this path")

    return parser


def parse_weights(flag: str) -> MetricWeights:
    parts = flag.split(",")
    if len(parts) != 3:
        raise InvalidFlagValue(f"--weights needs ka,kv,kh, got {flag!r}")
    try:
        return MetricWeights(*map(float, parts))
    except ValueError:
        raise InvalidFlagValue(f"--weights values must be numbers, got {flag!r}") from None
    except NonFiniteValue as exc:  # MetricWeights owns the range rule
        raise InvalidFlagValue(f"--weights: {exc}") from None


def parse_budget(flag: str, name: str = "--budget") -> int | float:
    """Integer literals are counts; float literals are pool fractions."""
    try:
        if any(c in flag for c in ".eE"):
            value = float(flag)
        else:
            value = int(flag)
    except ValueError:
        raise InvalidFlagValue(f"{name} must be a count or fraction, got {flag!r}") from None
    check_budget(value, name)
    return value


def _load_pool(args) -> TrajectoryPool:
    pool = load_trajectories(args.input)
    if args.labeled:
        ids = read_labeled_ids(args.labeled)
        try:
            pool = TrajectoryPool.from_columns(pool.ids, pool.points, pool.dyn, ids)
        except UnknownId as exc:  # a stray id
            raise UnknownId(f"{args.labeled}: {exc}") from None
    return pool


def cmd_cluster(args) -> int:
    check_tau(args.tau, "--tau")
    weights = parse_weights(args.weights)
    pool = _load_pool(args)
    matrix = pairwise_distances(pool, weights)
    if args.matrix_out:
        write_distance_matrix(matrix, args.matrix_out)
    tree = upgma_linkage(matrix, overwrite=True)
    del matrix
    part = flat_clusters(tree, args.tau, labeled_ids=pool.labeled_ids, leaf_ids=pool.ids)
    assignments_path, dendro_path = export_clusters(part, tree, args.out)
    print(f"wrote {assignments_path} and {dendro_path}")
    return 0


def cmd_sample(args) -> int:
    weights = parse_weights(args.weights)
    budget = parse_budget(args.budget)
    cfg = SamplingConfig(
        alpha=args.alpha,
        beta=args.beta,
        budget=budget,
        tau=args.tau,
        weights=weights,
        seed=args.seed,
    )
    pool = _load_pool(args)
    manifest = sampling_round(pool_partition(pool, cfg), cfg)
    write_manifest(manifest, args.out, input_digest=sha256_file(args.input))
    print(
        f"wrote {args.out}: {len(manifest.selected)} selected "
        f"({manifest.novel_quota} novel quota, {manifest.familiar_quota} familiar quota, "
        f"{manifest.fallback_count} fallback)"
    )
    return 0


def _parse_float_list(flag: str, name: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in flag.split(",") if p.strip())
    except ValueError:
        raise InvalidFlagValue(f"{name} must be a comma list of numbers, got {flag!r}") from None


def cmd_simulate(args) -> int:
    weights = parse_weights(args.weights)
    check_int(args.seeds, 1, "--seeds")
    check_int(args.k_modes, 1, "--k-modes")
    check_holdout(args.holdout, "--holdout")
    check_int(args.split_seed, 0, "--split-seed")
    if args.grid == "default":
        for name in ("alphas", "betas", "budgets"):
            if getattr(args, name):
                raise InvalidFlagValue(f"--{name} needs --grid custom")
        alphas, betas, budgets = DEFAULT_GRID_ALPHAS, DEFAULT_GRID_BETAS, DEFAULT_GRID_BUDGETS
    else:
        alphas = _parse_float_list(args.alphas, "--alphas")
        betas = _parse_float_list(args.betas, "--betas")
        budgets = tuple(parse_budget(b, "--budgets") for b in args.budgets.split(",") if b.strip())
        if not (alphas and betas and budgets):
            raise InvalidFlagValue("--grid custom needs --alphas, --betas and --budgets")
    grid = plan_experiment_grid(alphas, betas, budgets, tau=args.tau, weights=weights)
    if args.input:
        if args.pool_size is not None:
            raise InvalidFlagValue("--pool-size sizes the built-in fixture; --input replaces it")
        pool = _load_pool(args)
    else:
        size = 2000 if args.pool_size is None else args.pool_size
        check_int(size, 10, "--pool-size")
        pool = synthetic_pool(canonical_pool_spec(total_count=size))
    result = run_al_experiment(
        pool,
        grid,
        seeds=range(args.seeds),
        k_modes=args.k_modes,
        holdout_fraction=args.holdout,
        split_seed=args.split_seed,
    )
    write_experiment_csv(result, args.out)
    print(f"wrote {args.out}: {len(result.rows)} rows")
    return 0


def cmd_stats(args) -> int:
    check_tau(args.tau, "--tau")
    weights = parse_weights(args.weights)
    pool = _load_pool(args)
    tree = upgma_linkage(pairwise_distances(pool, weights), overwrite=True)
    part = flat_clusters(tree, args.tau, labeled_ids=pool.labeled_ids, leaf_ids=pool.ids)

    histogram = Counter(part.rows.sizes.tolist())
    labeled_classes = Counter(map(part.novelty_class, part.labeled_ids))
    lines = [
        f"items: {len(pool)} labeled: {len(pool.labeled_ids)} "
        f"unlabeled: {len(pool.unlabeled_ids)}",
        f"tau: {part.tau:.17g}",
        f"clusters: {len(part.rows.sizes)}",
        "cluster size histogram:",
    ]
    lines += [f"  size {size}: {count}" for size, count in sorted(histogram.items())]
    lines += [
        f"novel clusters (no labeled member, size >= 2): {len(part.novel_clusters)}",
        f"unclustered singletons: {len(part.singletons)}",
        f"familiar clusters: {len(part.familiar_clusters)}",
        f"labeled singletons: {labeled_classes['labeled-singleton']}",
    ]
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    return 0


_COMMANDS = {
    "cluster": cmd_cluster,
    "sample": cmd_sample,
    "simulate": cmd_simulate,
    "stats": cmd_stats,
}

# SamplingConfig's checks name a parameter first; the error names its flag
_FLAGS = {
    "sample": {"alpha": "--alpha", "beta": "--beta", "tau": "--tau", "seed": "--seed"},
    "simulate": {"alpha": "--alphas", "beta": "--betas", "tau": "--tau"},
}


def dispatch(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help/--version
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except InvalidFlagValue as exc:
        param, sep, rest = str(exc).partition(" ")
        flag = _FLAGS.get(args.command, {}).get(param, param)
        print(f"error: {flag}{sep}{rest}", file=sys.stderr)
        return 2
    except (CurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
