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
from typing import Callable, Sequence

import numpy as np

from .errors import InsufficientPool, ParseError
from .metric import MetricWeights, _distance
from .sampling import (
    BASELINE_STREAM,
    SamplingConfig,
    phase_rng,
    sampling_round,
    upgma_linkage_for_pool,
)
from .states import TrajectoryPool, TrajectoryState
from .synth import largest_remainder, motif_key

PREFIX_LEN = 2


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

    def mean_made5(self, budget: float, alpha: float, beta: float, strategy: str) -> float:
        vals = [
            r.made5
            for r in self.rows
            if (r.budget, r.alpha, r.beta, r.strategy) == (budget, alpha, beta, strategy)
        ]
        return float(np.mean(vals))

    def mean_made10(self, budget: float, alpha: float, beta: float, strategy: str) -> float:
        vals = [
            r.made10
            for r in self.rows
            if (r.budget, r.alpha, r.beta, r.strategy) == (budget, alpha, beta, strategy)
        ]
        return float(np.mean(vals))

    def improvement_over_random(self) -> tuple[tuple[float, float, float, float, float, int], ...]:
        """Per cell: (budget, alpha, beta, delta5, delta10, n_seeds).

        Deltas are random minus active, so positive means the strategy
        beat the baseline.
        """
        out = []
        for budget, alpha, beta in self.cells():
            n = sum(
                1
                for r in self.rows
                if (r.budget, r.alpha, r.beta, r.strategy) == (budget, alpha, beta, "active")
            )
            d5 = self.mean_made5(budget, alpha, beta, "random") - self.mean_made5(
                budget, alpha, beta, "active"
            )
            d10 = self.mean_made10(budget, alpha, beta, "random") - self.mean_made10(
                budget, alpha, beta, "active"
            )
            out.append((budget, alpha, beta, d5, d10, n))
        return tuple(out)


def stratified_holdout(
    items: Sequence[TrajectoryState],
    fraction: float = 0.2,
    seed: int = 0,
    key: Callable[[str], str] = motif_key,
) -> tuple[list[int], list[int]]:
    """Split item indices into (train, holdout), stratified by motif key.

    The holdout gets round(fraction * n) items apportioned across groups
    by largest remainder, with per-group membership drawn from a seeded
    substream, so the split is a pure function of (items, fraction, seed).
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"holdout fraction must be in [0, 1), got {fraction}")
    n = len(items)
    groups: dict[str, list[int]] = {}
    for idx, s in enumerate(items):
        groups.setdefault(key(s.id), []).append(idx)
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


def _score_split(
    qp: np.ndarray,
    qd: np.ndarray,
    train: TrajectoryPool,
    labeled_rows: Sequence[int],
    k_modes: int,
    w: MetricWeights,
) -> tuple[float, float]:
    """Mean minADE_5 and minADE_10 of the surrogate over the queries.

    ``qp``/``qd`` are the queries' point and ``[v, a, h]`` columns;
    ``labeled_rows`` index ``train`` in id order, which breaks distance
    ties by id.
    """
    points, dyn = train.columns
    lp, ld = points[labeled_rows], dyn[labeled_rows]
    dist = _distance(qp[:, None], qd[:, None], lp[None], ld[None], w, PREFIX_LEN)

    k = min(k_modes, len(labeled_rows))
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    modes = lp[order]  # (nq, k, 12, 2)
    ade = np.sqrt(((modes - qp[:, None, :, :]) ** 2).sum(axis=3)).mean(axis=2)
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
    are scored on the identical held-out split. Linkage is computed once
    per distinct weight setting since it does not depend on labels.
    """
    train_idx, holdout_idx = stratified_holdout(
        pool.items, holdout_fraction, split_seed, group_key
    )
    points, dyn = pool.columns
    qp, qd = points[holdout_idx], dyn[holdout_idx]
    train_items = tuple(pool.items[i] for i in train_idx)
    train_ids = {s.id for s in train_items}
    working = TrajectoryPool(train_items, pool.labeled_ids & train_ids)

    unlabeled0 = sorted(working.unlabeled_ids)
    if not unlabeled0:
        raise InsufficientPool("no unlabeled trajectory-states left after the holdout split")
    for cfg in grid:
        if isinstance(cfg.budget, int) and cfg.budget > len(unlabeled0):
            raise InsufficientPool(
                f"budget {cfg.budget} exceeds the unlabeled pool ({len(unlabeled0)})"
            )

    def score(picked: Sequence[str], w: MetricWeights) -> tuple[float, float]:
        labeled_rows = [working.row(i) for i in sorted(working.labeled_ids.union(picked))]
        return _score_split(qp, qd, working, labeled_rows, k_modes, w)

    linkage_cache: dict[MetricWeights, object] = {}
    rows: list[ExperimentRow] = []
    for cfg in grid:
        if cfg.weights not in linkage_cache:
            linkage_cache[cfg.weights] = upgma_linkage_for_pool(working, cfg.weights)
        tree = linkage_cache[cfg.weights]
        budget_frac = (
            cfg.budget if isinstance(cfg.budget, float) else cfg.budget / len(unlabeled0)
        )
        for seed in seeds:
            manifest = sampling_round(working, replace(cfg, seed=seed), dendrogram=tree)
            rng = phase_rng(seed, BASELINE_STREAM)
            take = len(manifest.selected)
            baseline_ids = [
                unlabeled0[int(i)] for i in rng.permutation(len(unlabeled0))[:take]
            ]

            made5a, made10a = score(manifest.ids(), cfg.weights)
            made5r, made10r = score(baseline_ids, cfg.weights)
            rows.append(
                ExperimentRow(budget_frac, cfg.alpha, cfg.beta, seed, "active", made5a, made10a)
            )
            rows.append(
                ExperimentRow(budget_frac, cfg.alpha, cfg.beta, seed, "random", made5r, made10r)
            )
    return ExperimentResult(rows=tuple(rows))
