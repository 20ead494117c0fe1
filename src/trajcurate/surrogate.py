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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .cluster import ClusterPartition, Dendrogram
from .errors import InsufficientPool, NonFiniteValue, ParseError
from .metric import MetricWeights, _distance, check_distances
from .sampling import (
    BASELINE_STREAM,
    HOLDOUT_STREAM,
    SamplingConfig,
    phase_rng,
    pool_partition,
    sampling_round,
    upgma_linkage_for_pool,
)
from .states import TrajectoryPool
from .synth import largest_remainder, motif_key

PREFIX_LEN = 2

# holdout queries per distance block in _rank_holdout
_QUERY_BLOCK = 64
# fewest ranked columns _score_ranked first scans per row for labeled
# neighbors; a row holding fewer than k of them doubles its own head
_HEAD_WIDTH = 64


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
        active = {(r.budget, r.alpha, r.beta, r.seed) for r in self.rows if r.strategy == "active"}
        random_ = {(r.budget, r.alpha, r.beta, r.seed) for r in self.rows if r.strategy == "random"}
        if active != random_:
            raise ParseError("every active row needs a matching random row (same budget and seed)")

    @cached_property
    def _made5(self) -> dict[tuple[float, float, float, str], float]:
        """(budget, alpha, beta, strategy) -> mean made5 over the seeds."""
        groups: dict[tuple[float, float, float, str], list[float]] = {}
        for r in self.rows:
            groups.setdefault((r.budget, r.alpha, r.beta, r.strategy), []).append(r.made5)
        return {key: float(np.mean(made5)) for key, made5 in groups.items()}

    def mean_made5(self, budget: float, alpha: float, beta: float, strategy: str) -> float:
        return self._made5[budget, alpha, beta, strategy]


def stratified_holdout(
    ids: Sequence[str],
    fraction: float = 0.2,
    seed: int = 0,
) -> tuple[list[int], list[int]]:
    """Split the rows of ``ids`` into (train, holdout), stratified by the
    motif key of each id.

    The holdout gets round(fraction * n) items apportioned across groups
    by largest remainder, with per-group membership drawn from a seeded
    substream, so the split is a pure function of (ids, fraction, seed).
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"holdout fraction must be in [0, 1), got {fraction}")
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
    qp: np.ndarray, qd: np.ndarray, lp: np.ndarray, ld: np.ndarray, w: MetricWeights
) -> np.ndarray:
    """Per query, the ``int32`` stable argsort of its prefix distances to
    every training row.

    ``qp``/``qd`` are the queries' point and ``[v, a, h]`` columns and
    ``lp``/``ld`` the training pool's, in id order, so distance ties rank
    by id. Queries go through the kernel in blocks to bound temporaries,
    and each block passes the distance matrix's own value check.
    """
    order = np.empty((len(qp), len(lp)), dtype=np.int32)
    for lo in range(0, len(qp), _QUERY_BLOCK):
        hi = lo + _QUERY_BLOCK
        dist = _distance(qp[lo:hi, None], qd[lo:hi, None], lp[None], ld[None], w, PREFIX_LEN)
        check_distances(dist)
        order[lo:hi] = np.argsort(dist, axis=1, kind="stable")
    return order


def _score_ranked(
    qp: np.ndarray, lp: np.ndarray, order: np.ndarray, labeled: np.ndarray, k_modes: int
) -> tuple[float, float]:
    """Mean minADE_5 and minADE_10 of the surrogate over the queries.

    ``order`` is ``_rank_holdout`` over the training points ``lp`` and
    ``labeled`` a boolean mask over the same rows. A stable sort filtered
    to a subset keeps the order the subset's own stable sort gives, so the
    first k labeled columns of each row are its k nearest labeled
    neighbors, ties by id. Only a head of each row is scanned: a row whose
    head holds fewer than k labeled columns is widened on its own, and the
    first k labeled columns are the same at any width that holds them, so
    the scores do not depend on the widths.
    """
    n_labeled = int(labeled.sum())
    k = min(k_modes, n_labeled)
    # start at the k-th labeled column's expected position, k * n / n_labeled;
    # a full row holds all n_labeled >= k labeled columns, so widening ends
    width = _HEAD_WIDTH
    while width * n_labeled < k * order.shape[1]:
        width *= 2
    nearest = np.empty((len(order), k), dtype=order.dtype)
    short = np.arange(len(order))  # rows not yet holding k labeled columns
    while short.size:
        head = order[short, :width]
        m = labeled[head]
        count = np.count_nonzero(m, axis=1)
        ok = count >= k
        # the labeled positions of the head, row after row: a row's run
        # starts at the count of the rows before it, and its first k are
        # its k nearest labeled neighbors
        first = np.cumsum(count) - count
        pos = np.flatnonzero(m)[first[ok, None] + np.arange(k)]
        nearest[short[ok]] = head.ravel()[pos]
        short = short[~ok]
        width *= 2
    modes = lp[nearest]  # (nq, k, 12, 2)
    diff = modes - qp[:, None, :, :]
    diff *= diff
    ade = np.sqrt(diff[..., 0] + diff[..., 1]).mean(axis=2)
    made5 = float(ade[:, : min(5, k)].min(axis=1).mean())
    made10 = float(ade[:, : min(10, k)].min(axis=1).mean())
    # a query whose later points overflow has finite prefix distances
    if not np.isfinite((made5, made10)).all():
        raise NonFiniteValue(f"minADE scores must be finite, got {made5} and {made10}")
    return made5, made10


def run_al_experiment(
    pool: TrajectoryPool,
    grid: Sequence[SamplingConfig],
    seeds: Sequence[int],
    k_modes: int = 10,
    holdout_fraction: float = 0.2,
    split_seed: int = 1,
) -> ExperimentResult:
    """Sweep sampling configs against a paired uniform-random baseline.

    For each (config, seed) the labeled pool is built by one sampling
    round starting from the pool's own labeled set, the baseline draws the
    same number of ids uniformly from the same unlabeled pool, and both
    are scored on the identical held-out split. Labels change neither the
    linkage nor the holdout's distance ranking, so both are computed once
    per distinct weight setting, and the tree is cut once per tau.
    """
    train_idx, holdout_idx = stratified_holdout(pool.ids, holdout_fraction, split_seed)
    if not holdout_idx:
        raise InsufficientPool(
            f"holdout fraction {holdout_fraction} holds out none of {len(pool)} trajectory-states"
        )
    qp, qd = pool.points[holdout_idx], pool.dyn[holdout_idx]
    working = pool.take(train_idx)

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
    lp, ld = by_id.points, by_id.dyn
    row_of = dict(zip(by_id.ids, range(len(by_id))))
    labeled0 = np.fromiter(map(working.labeled_ids.__contains__, by_id.ids), bool, len(by_id))
    # the id-sorted unlabeled ids are the unlabeled rows, ascending
    unlabeled_rows0 = np.flatnonzero(~labeled0)

    def score(picked: np.ndarray, order: np.ndarray) -> tuple[float, float]:
        labeled = labeled0.copy()
        labeled[picked] = True
        return _score_ranked(qp, lp, order, labeled, k_modes)

    ranked: dict[MetricWeights, tuple[Dendrogram, np.ndarray]] = {}
    partitions: dict[tuple[MetricWeights, float], ClusterPartition] = {}
    # the baseline draw depends only on (seed, size), so cells share its score
    baseline_scores: dict[tuple[MetricWeights, int, int], tuple[float, float]] = {}
    rows: list[ExperimentRow] = []
    for cfg in grid:
        if cfg.weights not in ranked:
            ranked[cfg.weights] = (
                upgma_linkage_for_pool(working, cfg.weights),
                _rank_holdout(qp, qd, lp, ld, cfg.weights),
            )
        tree, order = ranked[cfg.weights]
        if (cfg.weights, cfg.tau) not in partitions:
            partitions[cfg.weights, cfg.tau] = pool_partition(working, cfg, tree)
        partition = partitions[cfg.weights, cfg.tau]
        budget_frac = (
            cfg.budget if isinstance(cfg.budget, float) else cfg.budget / n_unlabeled
        )
        for seed in seeds:
            manifest = sampling_round(working, replace(cfg, seed=seed), partition=partition)
            take = len(manifest.selected)
            picked = np.fromiter(map(row_of.__getitem__, manifest.ids()), np.intp, take)
            made5a, made10a = score(picked, order)
            if (cfg.weights, seed, take) not in baseline_scores:
                rng = phase_rng(seed, BASELINE_STREAM)
                baseline = unlabeled_rows0[rng.permutation(n_unlabeled)[:take]]
                baseline_scores[cfg.weights, seed, take] = score(baseline, order)
            made5r, made10r = baseline_scores[cfg.weights, seed, take]
            rows.append(
                ExperimentRow(budget_frac, cfg.alpha, cfg.beta, seed, "active", made5a, made10a)
            )
            rows.append(
                ExperimentRow(budget_frac, cfg.alpha, cfg.beta, seed, "random", made5r, made10r)
            )
    return ExperimentResult(rows=tuple(rows))
