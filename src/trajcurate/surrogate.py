"""Desk-scale benchmark: k-NN surrogate predictor and the sampling sweep.

The surrogate stands in for a trained trajectory predictor so sampling
strategies can be compared in seconds. It observes a query's dynamic
state plus its first two future points (the same observable prefix the
distance metric would see at prediction time) and predicts the full
twelve-point trajectories of the nearest labeled neighbors, nearest
first. Prediction quality is scored with minADE_K: the minimum over the
K first modes of the mean pointwise displacement from the ground truth.

``run_al_experiment`` pairs every active-learning cell (config x seed)
with a uniform-random baseline of the same size drawn from the same
initial state and scores both on one fixed, motif-stratified held-out
split, writing rows suitable for budget/alpha/beta curves.

Labels change neither the linkage nor a query's distance ranking, so
once per weight setting the sweep builds the dendrogram, and
``_rank_holdout`` ranks every held-out query against the whole training
pool and tabulates its ADE against its first ranked rows; the tree is cut
once per tau. Per cell it runs one sampling round on that cut and draws
the baseline, and each distinct labeled set is scored once:
``_score_ranked`` finds a query's k nearest labeled rows as positions in
its ranking, reads their ADE from the table and computes only the
positions past the table's width.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .cluster import ClusterPartition, Dendrogram, is_real
from .errors import InsufficientPool, InvalidFlagValue
from .metric import MetricWeights, _distance
from .sampling import (
    BASELINE_STREAM,
    HOLDOUT_STREAM,
    SamplingConfig,
    check_int,
    phase_rng,
    pool_partition,
    sampling_round,
    upgma_linkage_for_pool,
)
from .states import TRAJECTORY_LEN, TrajectoryPool
from .synth import largest_remainder, motif_key

PREFIX_LEN = 2

# the sweep's defaults: modes per prediction, held-out fraction, split seed
DEFAULT_K_MODES = 10
DEFAULT_HOLDOUT = 0.2
DEFAULT_SPLIT_SEED = 1

# holdout queries per distance block in _rank_holdout
_QUERY_BLOCK = 64
# fewest ranked columns _score_ranked first scans per row for labeled
# neighbors; a row holding fewer than k of them doubles its own head
_HEAD_WIDTH = 64
# ranked columns per query whose ADE _rank_holdout tabulates
_TABLE_WIDTH = 256
# a mode's ADE is its kernel distance with zero [v, a, h] rows and weights, over TRAJECTORY_LEN
_NO_DYN, _POINTS_ONLY = np.zeros(3), MetricWeights(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ExperimentRow:
    budget: float
    alpha: float
    beta: float
    seed: int
    strategy: str
    made5: float
    made10: float


@dataclass(frozen=True)
class ExperimentResult:
    """Paired active/random rows and their per-cell mean minADE_5."""

    rows: tuple[ExperimentRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))

    @cached_property
    def _made5(self) -> dict[tuple[float, float, float, str], float]:
        """(budget, alpha, beta, strategy) -> mean made5 over the seeds."""
        groups: dict[tuple[float, float, float, str], list[float]] = {}
        for r in self.rows:
            groups.setdefault((r.budget, r.alpha, r.beta, r.strategy), []).append(r.made5)
        return {key: float(np.mean(made5)) for key, made5 in groups.items()}

    def mean_made5(self, budget: float, alpha: float, beta: float, strategy: str) -> float:
        return self._made5[budget, alpha, beta, strategy]


def check_holdout(fraction: float, name: str = "holdout fraction") -> None:
    """Raise ``InvalidFlagValue`` unless the held-out ``fraction`` is in [0, 1)."""
    if not (is_real(fraction) and 0.0 <= fraction < 1.0):
        raise InvalidFlagValue(f"{name} must be in [0, 1), got {fraction!r}")


def stratified_holdout(
    ids: Sequence[str],
    fraction: float = DEFAULT_HOLDOUT,
    seed: int = DEFAULT_SPLIT_SEED,
) -> tuple[list[int], list[int]]:
    """Split the rows of ``ids`` into (train, holdout), stratified by the
    motif key of each id.

    The holdout gets round(fraction * n) items apportioned across groups
    by largest remainder, with per-group membership drawn from a seeded
    substream, so the split is a pure function of (ids, fraction, seed).
    """
    check_holdout(fraction)
    check_int(seed, 0, "seed")
    n = len(ids)
    groups: dict[str, list[int]] = {}
    for idx, id_ in enumerate(ids):
        groups.setdefault(motif_key(id_), []).append(idx)
    names = sorted(groups)
    target = int(round(fraction * n))
    weights = [len(groups[g]) / n for g in names]
    quotas = largest_remainder(weights, target)
    # a group can not give more than it has
    for gi, g in enumerate(names):
        quotas[gi] = min(quotas[gi], len(groups[g]))
    rng = phase_rng(seed, HOLDOUT_STREAM)
    holdout: list[int] = []
    for g, quota in zip(names, quotas):
        members = groups[g]
        order = rng.permutation(len(members))[:quota]
        holdout.extend(members[int(i)] for i in order)
    holdout_set = set(holdout)
    train = [i for i in range(n) if i not in holdout_set]
    return train, sorted(holdout_set)


def _rank_holdout(
    held: TrajectoryPool, train: TrajectoryPool, w: MetricWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Per query, the ``int32`` stable argsort of its prefix distances to
    every training row, and the ADE of its first ``_TABLE_WIDTH`` ranked
    rows (fewer when the row is shorter), in rank order.

    ``train`` is the training pool in id order, so distance ties rank by
    id. Queries go through the kernel in blocks to bound temporaries.
    """
    qp, qd, lp, ld = held.points, held.dyn, train.points, train.dyn
    order = np.empty((len(qp), len(lp)), dtype=np.int32)
    table = np.empty((len(qp), min(_TABLE_WIDTH, len(lp))))
    for lo in range(0, len(qp), _QUERY_BLOCK):
        hi = lo + _QUERY_BLOCK
        dist = _distance(qp[lo:hi, None], qd[lo:hi, None], lp[None], ld[None], w, PREFIX_LEN)
        order[lo:hi] = np.argsort(dist, axis=1, kind="stable")
        modes, truth = lp[order[lo:hi, :_TABLE_WIDTH]], qp[lo:hi, None]
        table[lo:hi] = _distance(modes, _NO_DYN, truth, _NO_DYN, _POINTS_ONLY) / TRAJECTORY_LEN
    return order, table


def _score_ranked(
    held: TrajectoryPool,
    train: TrajectoryPool,
    order: np.ndarray,
    labeled: np.ndarray,
    k_modes: int,
    table: np.ndarray,
) -> tuple[float, float]:
    """Mean minADE_5 and minADE_10 of the surrogate over the queries.

    ``order`` and ``table`` are ``_rank_holdout``'s ranking of ``train`` and
    its ADE table (or its first columns); ``labeled`` is a boolean mask over
    the rows. A stable sort filtered to a subset keeps the order the
    subset's own stable sort gives, so the first k labeled columns of each
    row are its k nearest labeled neighbors, ties by id. Only a head of each
    row is scanned: a row whose head holds fewer than k labeled columns is
    widened on its own, and the first k labeled columns are the same at any
    width that holds them, so the scores do not depend on the widths. An ADE
    past the table's width is computed here, to the same bits.
    """
    n_labeled = int(labeled.sum())
    k = min(k_modes, n_labeled)
    # start at the k-th labeled column's expected position, k * n / n_labeled;
    # a full row holds all n_labeled >= k labeled columns, so widening ends
    width = _HEAD_WIDTH
    while width * n_labeled < k * order.shape[1]:
        width *= 2
    cols = np.empty((len(order), k), dtype=np.intp)  # rank positions
    short = np.arange(len(order))  # rows not yet holding k labeled columns
    while short.size:
        m = labeled[order[short, :width]]
        count = np.count_nonzero(m, axis=1)
        ok = count >= k
        # the labeled positions of the head, row after row: a row's run
        # starts at the count of the rows before it, and its first k are
        # its k nearest labeled neighbors
        first = np.cumsum(count) - count
        pos = np.flatnonzero(m)[first[ok, None] + np.arange(k)]
        cols[short[ok]] = pos % m.shape[1]  # a head wider than the row is the row
        short = short[~ok]
        width *= 2
    query = np.broadcast_to(np.arange(len(order))[:, None], cols.shape)
    near = cols < table.shape[1]
    far = ~near
    ade = np.empty(cols.shape)
    ade[near] = table[query[near], cols[near]]
    modes, truth = train.points[order[query[far], cols[far]]], held.points[query[far]]
    ade[far] = _distance(modes, _NO_DYN, truth, _NO_DYN, _POINTS_ONLY) / TRAJECTORY_LEN
    best5, best10 = ade[:, : min(5, k)].min(axis=1), ade[:, : min(10, k)].min(axis=1)
    return float(best5.mean()), float(best10.mean())


def run_al_experiment(
    pool: TrajectoryPool,
    grid: Sequence[SamplingConfig],
    seeds: Sequence[int],
    k_modes: int = DEFAULT_K_MODES,
    holdout_fraction: float = DEFAULT_HOLDOUT,
    split_seed: int = DEFAULT_SPLIT_SEED,
) -> ExperimentResult:
    """Sweep sampling configs against a paired uniform-random baseline.

    For each (config, seed) the labeled pool is built by one sampling
    round starting from the pool's own labeled set, the baseline draws the
    same number of ids uniformly from the same unlabeled pool, and both
    are scored on the identical held-out split. Labels change neither the
    linkage nor the holdout's distance ranking, so the linkage, the ranking
    and its ADE table are built once per distinct weight setting, the tree
    is cut once per tau, and a labeled set scored before (the same as an
    earlier cell's or its own baseline's) is not scored again.
    """
    check_int(len(grid), 1, "number of configs")
    check_int(len(seeds), 1, "number of seeds")
    for seed in seeds:
        check_int(seed, 0, "seed")
    check_int(k_modes, 1, "k_modes")
    train_idx, holdout_idx = stratified_holdout(pool.ids, holdout_fraction, split_seed)
    if not holdout_idx:
        raise InsufficientPool(
            f"holdout fraction {holdout_fraction} holds out none of {len(pool)} trajectory-states"
        )
    held, working = pool.take(holdout_idx), pool.take(train_idx)

    n_unlabeled = len(working) - len(working.labeled_ids)
    if not n_unlabeled:
        raise InsufficientPool("no unlabeled trajectory-states left after the holdout split")
    for cfg in grid:
        if isinstance(cfg.budget, int) and cfg.budget > n_unlabeled:
            raise InsufficientPool(
                f"budget {cfg.budget} exceeds the unlabeled pool ({n_unlabeled})"
            )

    # training rows in id order, so the ranking breaks distance ties by id
    by_id = working.take(sorted(range(len(working)), key=working.ids.__getitem__))
    row_of = dict(zip(by_id.ids, range(len(by_id))))
    labeled0 = np.fromiter(map(working.labeled_ids.__contains__, by_id.ids), bool, len(by_id))
    # the id-sorted unlabeled ids are the unlabeled rows, ascending
    unlabeled_rows0 = np.flatnonzero(~labeled0)

    ranked: dict[MetricWeights, tuple[Dendrogram, np.ndarray, np.ndarray]] = {}
    partitions: dict[tuple[MetricWeights, float], ClusterPartition] = {}
    # the baseline draw depends only on (seed, size)
    baselines: dict[tuple[int, int], np.ndarray] = {}
    scores: dict[tuple[MetricWeights, bytes], tuple[float, float]] = {}

    def score(weights: MetricWeights, picked: np.ndarray) -> tuple[float, float]:
        labeled = labeled0.copy()
        labeled[picked] = True
        key = (weights, np.packbits(labeled).tobytes())
        if key not in scores:
            _, order, table = ranked[weights]
            scores[key] = _score_ranked(held, by_id, order, labeled, k_modes, table)
        return scores[key]

    rows: list[ExperimentRow] = []
    for cfg in grid:
        if cfg.weights not in ranked:
            tree = upgma_linkage_for_pool(working, cfg.weights)
            ranked[cfg.weights] = (tree, *_rank_holdout(held, by_id, cfg.weights))
        tree = ranked[cfg.weights][0]
        if (cfg.weights, cfg.tau) not in partitions:
            partitions[cfg.weights, cfg.tau] = pool_partition(working, cfg, tree)
        partition = partitions[cfg.weights, cfg.tau]
        budget_frac = (
            cfg.budget if isinstance(cfg.budget, float) else cfg.budget / n_unlabeled
        )
        for seed in seeds:
            manifest = sampling_round(partition, replace(cfg, seed=seed))
            take = len(manifest.selected)
            picked = np.fromiter(map(row_of.__getitem__, manifest.ids()), np.intp, take)
            made5a, made10a = score(cfg.weights, picked)
            if (seed, take) not in baselines:
                rng = phase_rng(seed, BASELINE_STREAM)
                baselines[seed, take] = unlabeled_rows0[rng.permutation(n_unlabeled)[:take]]
            made5r, made10r = score(cfg.weights, baselines[seed, take])
            rows.append(
                ExperimentRow(budget_frac, cfg.alpha, cfg.beta, seed, "active", made5a, made10a)
            )
            rows.append(
                ExperimentRow(budget_frac, cfg.alpha, cfg.beta, seed, "random", made5r, made10r)
            )
    return ExperimentResult(rows=tuple(rows))
