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
from typing import Callable, Sequence

import numpy as np

from .cluster import ClusterPartition, Dendrogram
from .errors import InsufficientPool, ParseError
from .metric import MetricWeights, _distance
from .sampling import (
    BASELINE_STREAM,
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
# fewest ranked columns _score_ranked scans for labeled neighbors
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
    """Paired active/random rows plus aggregation helpers."""

    rows: tuple[ExperimentRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        active = {(r.budget, r.alpha, r.beta, r.seed) for r in self.rows if r.strategy == "active"}
        random_ = {(r.budget, r.alpha, r.beta, r.seed) for r in self.rows if r.strategy == "random"}
        if active != random_:
            raise ParseError("every active row needs a matching random row (same budget and seed)")

    def cells(self) -> tuple[tuple[float, float, float], ...]:
        return tuple(sorted({(r.budget, r.alpha, r.beta) for r in self.rows}))

    @cached_property
    def _means(self) -> dict[tuple[float, float, float, str], tuple[float, float, int]]:
        """(budget, alpha, beta, strategy) -> (mean made5, mean made10, n_seeds)."""
        groups: dict[tuple[float, float, float, str], list[ExperimentRow]] = {}
        for r in self.rows:
            groups.setdefault((r.budget, r.alpha, r.beta, r.strategy), []).append(r)
        return {
            key: (
                float(np.mean([r.made5 for r in rs])),
                float(np.mean([r.made10 for r in rs])),
                len(rs),
            )
            for key, rs in groups.items()
        }

    def mean_made5(self, budget: float, alpha: float, beta: float, strategy: str) -> float:
        return self._means[budget, alpha, beta, strategy][0]

    def improvement_over_random(self) -> tuple[tuple[float, float, float, float, float, int], ...]:
        """Per cell: (budget, alpha, beta, delta5, delta10, n_seeds).

        Deltas are random minus active, so positive means the strategy
        beat the baseline.
        """
        out = []
        for cell in self.cells():
            active5, active10, n = self._means[cell + ("active",)]
            random5, random10, _ = self._means[cell + ("random",)]
            out.append(cell + (random5 - active5, random10 - active10, n))
        return tuple(out)


def stratified_holdout(
    ids: Sequence[str],
    fraction: float = 0.2,
    seed: int = 0,
    key: Callable[[str], str] = motif_key,
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
        groups.setdefault(key(id_), []).append(idx)
    names = sorted(groups)
    target = int(round(fraction * n))
    weights = [len(groups[g]) / n for g in names]
    quotas = largest_remainder(weights, target)
    # a group can not give more than it has
    for gi, g in enumerate(names):
        quotas[gi] = min(quotas[gi], len(groups[g]))
    rng = phase_rng(seed, stream=4)
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
    by id. Queries go through the kernel in blocks to bound temporaries.
    """
    order = np.empty((len(qp), len(lp)), dtype=np.int32)
    for lo in range(0, len(qp), _QUERY_BLOCK):
        hi = lo + _QUERY_BLOCK
        dist = _distance(qp[lo:hi, None], qd[lo:hi, None], lp[None], ld[None], w, PREFIX_LEN)
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
    neighbors, ties by id.
    """
    n_labeled = int(labeled.sum())
    k = min(k_modes, n_labeled)
    # the k nearest labeled columns usually sit in a short head of each row:
    # start at the k-th labeled column's expected position, k * n / n_labeled,
    # and widen until every row holds k of them
    width = _HEAD_WIDTH
    while width * n_labeled < k * order.shape[1]:
        width *= 2
    while True:
        head = order[:, :width]
        m = labeled[head]
        seen = np.cumsum(m, axis=1, dtype=np.int32)
        if width >= order.shape[1] or seen[:, -1].min() >= k:
            break
        width *= 2
    m &= seen <= k
    modes = lp[head[m].reshape(len(order), k)]  # (nq, k, 12, 2)
    diff = modes - qp[:, None, :, :]
    diff *= diff
    ade = np.sqrt(diff[..., 0] + diff[..., 1]).mean(axis=2)
    made5 = float(ade[:, : min(5, k)].min(axis=1).mean())
    made10 = float(ade[:, : min(10, k)].min(axis=1).mean())
    return made5, made10


def run_al_experiment(
    pool: TrajectoryPool,
    grid: Sequence[SamplingConfig],
    seeds: Sequence[int],
    k_modes: int = 10,
    holdout_fraction: float = 0.2,
    split_seed: int = 1,
    group_key: Callable[[str], str] = motif_key,
) -> ExperimentResult:
    """Sweep sampling configs against a paired uniform-random baseline.

    For each (config, seed) the labeled pool is built by one sampling
    round starting from the pool's own labeled set, the baseline draws the
    same number of ids uniformly from the same unlabeled pool, and both
    are scored on the identical held-out split. Labels change neither the
    linkage nor the holdout's distance ranking, so both are computed once
    per distinct weight setting, and the tree is cut once per tau.
    """
    train_idx, holdout_idx = stratified_holdout(pool.ids, holdout_fraction, split_seed, group_key)
    if not holdout_idx:
        raise InsufficientPool(
            f"holdout fraction {holdout_fraction} holds out none of {len(pool)} trajectory-states"
        )
    qp, qd = pool.points[holdout_idx], pool.dyn[holdout_idx]
    working = pool.take(train_idx)

    unlabeled0 = sorted(working.unlabeled_ids)
    if not unlabeled0:
        raise InsufficientPool("no unlabeled trajectory-states left after the holdout split")
    for cfg in grid:
        if isinstance(cfg.budget, int) and cfg.budget > len(unlabeled0):
            raise InsufficientPool(
                f"budget {cfg.budget} exceeds the unlabeled pool ({len(unlabeled0)})"
            )

    # training rows in id order, so the ranking breaks distance ties by id
    by_id = working.take(sorted(range(len(working)), key=working.ids.__getitem__))
    lp, ld = by_id.points, by_id.dyn
    labeled0 = np.zeros(len(by_id), dtype=bool)
    labeled0[[by_id.row(i) for i in working.labeled_ids]] = True

    def score(picked: Sequence[str], order: np.ndarray) -> tuple[float, float]:
        labeled = labeled0.copy()
        labeled[[by_id.row(i) for i in picked]] = True
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
            cfg.budget if isinstance(cfg.budget, float) else cfg.budget / len(unlabeled0)
        )
        for seed in seeds:
            manifest = sampling_round(working, replace(cfg, seed=seed), partition=partition)
            made5a, made10a = score(manifest.ids(), order)
            take = len(manifest.selected)
            if (cfg.weights, seed, take) not in baseline_scores:
                rng = phase_rng(seed, BASELINE_STREAM)
                baseline_ids = [
                    unlabeled0[int(i)] for i in rng.permutation(len(unlabeled0))[:take]
                ]
                baseline_scores[cfg.weights, seed, take] = score(baseline_ids, order)
            made5r, made10r = baseline_scores[cfg.weights, seed, take]
            rows.append(
                ExperimentRow(budget_frac, cfg.alpha, cfg.beta, seed, "active", made5a, made10a)
            )
            rows.append(
                ExperimentRow(budget_frac, cfg.alpha, cfg.beta, seed, "random", made5r, made10r)
            )
    return ExperimentResult(rows=tuple(rows))
