"""Novelty-sensitive active-learning sampling rounds.

One round takes the pool's flat clusters at tau, split by novelty against
its labeled set (``pool_partition``), and spends a budget B in two phases:

  novel phase    quota = round(alpha * B), drawn uniformly from clusters
                 with no labeled member plus unclustered singletons; a
                 picked cluster contributes up to max(1, floor(beta * size))
                 members and is never revisited within the round.
  familiar phase quota = B - novel quota, drawn from clusters that contain
                 a labeled member (including the just-annotated novel
                 picks); passes over the eligible clusters repeat, each
                 pass drawing up to the beta cap per cluster, until the
                 quota is met or the supply is gone.

Any shortfall is filled at the end of the round uniformly at random from
the remaining unlabeled pool and tagged as fallback. Selection is driven
by a seeded PCG64 generator with one spawned substream per phase
(spawn_key 0 = novel, 1 = familiar, 2 = fallback; the benchmark draws its
random baseline from 3 and its holdout split from 4), so a manifest is a
pure function of (pool, config).

A round runs on the cut's rank rows, the pool's items in sorted-id order
(``ClusterPartition.rows``): a boolean mask marks the rows labeled or
picked so far. The novel phase draws from the partition's own novelty
split; the familiar phase re-splits with one bincount over the labels of
the marked rows, the novel picks among them. Every candidate and member
list is in ascending rows or sorted ids, so each phase makes its PCG64
draws on the same lists, in the same order, as over sorted id strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from numbers import Integral
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from .cluster import (
    DEFAULT_TAU, ClusterPartition, Dendrogram, check_tau, flat_clusters, is_real, upgma_linkage
)
from .errors import EmptyUnlabeledPool, InvalidFlagValue, ParseError
from .metric import DEFAULT_WEIGHTS, MetricWeights, pairwise_distances
from .states import TrajectoryPool

PHASE_NOVEL_CLUSTER = "novel-cluster"
PHASE_NOVEL_SINGLETON = "novel-singleton"
PHASE_FAMILIAR = "familiar"
PHASE_FALLBACK = "fallback"

NOVEL_STREAM = 0
FAMILIAR_STREAM = 1
FALLBACK_STREAM = 2
BASELINE_STREAM = 3
HOLDOUT_STREAM = 4

# absorbs float representation error in alpha*B and beta*size products;
# far below the 20% grid resolution of either parameter
_GRID_EPS = 1e-9


def phase_rng(seed: int, stream: int) -> np.random.Generator:
    """Seeded PCG64 substream; spawn keys keep phases and synthetic motifs independent."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def check_int(value: int, low: int, name: str) -> None:
    """Raise ``InvalidFlagValue`` unless ``value`` is an integer >= ``low``
    (a Python or numpy integer, not a bool): a seed, as ``SeedSequence``
    needs, or a count."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidFlagValue(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidFlagValue(f"{name} must be >= {low}, got {value}")


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5 + _GRID_EPS))


def cluster_cap(beta: float, size: int) -> int:
    """Per-pass depth cap: at least one member even for tiny clusters."""
    return max(1, int(math.floor(beta * size + _GRID_EPS)))


@dataclass(frozen=True)
class SamplingConfig:
    """Parameters of one sampling round.

    ``budget`` is either an integer count (>= 1) or a float fraction in
    (0, 1] of the unlabeled pool, resolved at round start; 1.0 means the
    whole unlabeled pool while the integer 1 means a single sample.
    """

    alpha: float
    beta: float
    budget: int | float
    tau: float = DEFAULT_TAU
    weights: MetricWeights = field(default_factory=MetricWeights)
    seed: int = 0

    def __post_init__(self) -> None:
        if not (is_real(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise InvalidFlagValue(f"alpha must be in [0, 1], got {self.alpha!r}")
        if not (is_real(self.beta) and 0.0 < self.beta <= 1.0):
            raise InvalidFlagValue(f"beta must be in (0, 1], got {self.beta!r}")
        check_budget(self.budget)
        check_tau(self.tau)
        check_int(self.seed, 0, "seed")


def check_budget(budget: int | float, name: str = "budget") -> None:
    """Raise ``InvalidFlagValue`` unless ``budget`` is a count >= 1 or a fraction in (0, 1]."""
    if isinstance(budget, bool) or not isinstance(budget, (int, float)):
        raise InvalidFlagValue(f"{name} must be an int or a float, got {budget!r}")
    if isinstance(budget, int) and budget < 1:
        raise InvalidFlagValue(f"{name} count must be >= 1, got {budget}")
    if isinstance(budget, float) and not 0.0 < budget <= 1.0:
        raise InvalidFlagValue(f"fractional {name} must be in (0, 1], got {budget}")


def resolve_budget(budget: int | float, n_unlabeled: int) -> int:
    """Turn a count-or-fraction budget into a concrete sample count."""
    if isinstance(budget, float):
        return max(1, round_half_up(budget * n_unlabeled))
    return int(budget)


class Selection(NamedTuple):
    """One picked id with its phase tag and flat-cluster label."""

    id: str
    phase: str
    cluster: int


@dataclass(frozen=True)
class SelectionManifest:
    """Audited record of one sampling round."""

    config: SamplingConfig
    budget_resolved: int
    novel_quota: int
    familiar_quota: int
    novel_shortfall: int
    familiar_shortfall: int
    selected: tuple[Selection, ...]

    @property
    def fallback_count(self) -> int:
        return sum(1 for s in self.selected if s.phase == PHASE_FALLBACK)

    def ids(self) -> tuple[str, ...]:
        return tuple(map(itemgetter(0), self.selected))


def pool_partition(
    pool: TrajectoryPool, cfg: SamplingConfig, dendrogram: Dendrogram | None = None
) -> ClusterPartition:
    """Flat clusters of the pool at cfg.tau, split by novelty against its
    labeled set.

    ``dendrogram`` may supply a precomputed linkage of exactly this pool
    under cfg.weights (the linkage does not depend on labels, so experiment
    harnesses reuse one across rounds); when omitted it is computed here.
    """
    tree = dendrogram
    if tree is None:
        tree = upgma_linkage_for_pool(pool, cfg.weights)
    return flat_clusters(tree, cfg.tau, labeled_ids=pool.labeled_ids, leaf_ids=pool.ids)


def sampling_round(partition: ClusterPartition, cfg: SamplingConfig) -> SelectionManifest:
    """Run one full novelty-sensitive sampling round over a cut.

    ``partition`` is the pool's cut at cfg.tau, as ``pool_partition(pool,
    cfg)`` makes it (experiment harnesses reuse one across seeds). Runs the
    novel phase, marks its picks as labeled, runs the familiar phase, then
    fills any shortfall from the remaining unlabeled rows.
    """
    rows = partition.rows
    n_unlabeled = len(rows.ids) - len(partition.labeled_ids)
    if not n_unlabeled:
        raise EmptyUnlabeledPool("no unlabeled trajectory-states to sample")
    if partition.tau != cfg.tau:  # the manifest echoes cfg
        raise ParseError(f"partition was cut at tau {partition.tau}, config has tau {cfg.tau}")
    budget = resolve_budget(cfg.budget, n_unlabeled)
    taken = partition.labeled_rows.copy()

    novel_quota = round_half_up(cfg.alpha * budget)
    familiar_quota = budget - novel_quota

    # novel phase: clusters without a labeled member, then singletons by id;
    # a picked candidate is out of the running for the rest of the round
    candidates = list(partition.novel_candidates)
    rng = phase_rng(cfg.seed, NOVEL_STREAM)
    novel_rows: list[int] = []
    while novel_quota - len(novel_rows) > 0 and candidates:
        members = rows.members[candidates.pop(int(rng.integers(len(candidates))))]
        if len(members) > 1:  # a singleton takes no draw
            take = min(cluster_cap(cfg.beta, len(members)), novel_quota - len(novel_rows))
            members = members[rng.permutation(len(members))[:take]]
        novel_rows += members.tolist()
    taken[novel_rows] = True

    # familiar phase: passes over the clusters that now hold a labeled
    # member and still hold an untaken one
    hits = np.bincount(rows.labels[taken], minlength=len(rows.sizes))
    familiar, free = hits > 0, rows.sizes - hits
    rng = phase_rng(cfg.seed, FAMILIAR_STREAM)
    familiar_rows: list[int] = []
    while familiar_quota - len(familiar_rows) > 0:
        eligible = np.flatnonzero(familiar & (free > 0))
        if not eligible.size:
            break
        for label in eligible[rng.permutation(eligible.size)].tolist():
            members = rows.members[label]
            cap = cluster_cap(cfg.beta, len(members))
            members = members[~taken[members]]
            take = min(cap, familiar_quota - len(familiar_rows), len(members))
            chosen = members[rng.permutation(len(members))[:take]]
            taken[chosen] = True
            free[label] -= take
            familiar_rows += chosen.tolist()
            if familiar_quota - len(familiar_rows) <= 0:
                break

    novel_short = novel_quota - len(novel_rows)
    familiar_short = familiar_quota - len(familiar_rows)
    short = novel_short + familiar_short
    fallback_rows: list[int] = []
    if short:  # with no shortfall the fallback stream is never drawn
        leftovers = np.flatnonzero(~taken)
        rng = phase_rng(cfg.seed, FALLBACK_STREAM)
        fallback_rows = leftovers[rng.permutation(leftovers.size)[:short]].tolist()

    picked = novel_rows + familiar_rows + fallback_rows
    labels = rows.labels[picked]
    single = rows.sizes[labels[: len(novel_rows)]] == 1
    phases = [PHASE_NOVEL_SINGLETON if s else PHASE_NOVEL_CLUSTER for s in single.tolist()]
    phases += repeat(PHASE_FAMILIAR, len(familiar_rows))
    phases += repeat(PHASE_FALLBACK, len(fallback_rows))
    ids = map(rows.ids.__getitem__, picked)
    # tuple.__new__ skips NamedTuple's Python-level __new__
    selected = tuple(map(tuple.__new__, repeat(Selection), zip(ids, phases, labels.tolist())))

    return SelectionManifest(
        config=cfg,
        budget_resolved=budget,
        novel_quota=novel_quota,
        familiar_quota=familiar_quota,
        novel_shortfall=novel_short,
        familiar_shortfall=familiar_short,
        selected=selected,
    )


def upgma_linkage_for_pool(pool: TrajectoryPool, weights: MetricWeights) -> Dendrogram:
    """Convenience: condensed distances then linkage for a pool's items."""
    return upgma_linkage(pairwise_distances(pool, weights), overwrite=True)


def plan_experiment_grid(
    alphas: Sequence[float],
    betas: Sequence[float],
    budgets: Sequence[int | float],
    tau: float = DEFAULT_TAU,
    weights: MetricWeights = DEFAULT_WEIGHTS,
) -> tuple[SamplingConfig, ...]:
    """Cartesian sweep in deterministic budget-major, then alpha, then beta order."""
    return tuple(
        SamplingConfig(alpha=a, beta=b, budget=bud, tau=tau, weights=weights)
        for bud in budgets
        for a in alphas
        for b in betas
    )


DEFAULT_GRID_ALPHAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_GRID_BETAS = (0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_GRID_BUDGETS = (0.1, 0.2, 0.3, 0.4, 0.5)

