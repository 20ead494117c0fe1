from dataclasses import replace

import numpy as np
import pytest

from trajcurate import (
    SamplingConfig,
    TrajectoryPool,
    canonical_pool_spec,
    flat_clusters,
    generate_synthetic_pool,
    plan_experiment_grid,
    sampling_round,
    synthetic_pool,
    upgma_linkage,
)
from trajcurate.errors import EmptyUnlabeledPool, InvalidFlagValue, ParseError
from trajcurate import sampling
from trajcurate.metric import pairwise_distances
from trajcurate.sampling import (
    FALLBACK_STREAM,
    PHASE_FALLBACK,
    PHASE_FAMILIAR,
    PHASE_NOVEL_CLUSTER,
    PHASE_NOVEL_SINGLETON,
    Selection,
    cluster_cap,
    phase_rng,
    pool_partition,
    resolve_budget,
    round_half_up,
)
from trajcurate.synth import CANONICAL_TAU

from helpers import (
    check_round_invariants,
    default_experiment_grid,
    id_space_round,
    pool_round,
    refresh_partition,
    sample_familiar,
    sample_novel,
    stationary_state,
    unlabeled_ids,
)


def cut_pool(pool, tau=10.0):
    tree = upgma_linkage(pairwise_distances(pool.items))
    return flat_clusters(tree, tau, labeled_ids=pool.labeled_ids, leaf_ids=[s.id for s in pool.items])


def group(prefix, n, x, labeled=0):
    items = [stationary_state(f"{prefix}{i}", x=x + 0.03 * i) for i in range(n)]
    labels = {f"{prefix}{i}" for i in range(labeled)}
    return items, labels


def test_config_validation():
    bad = (
        {"alpha": 1.5},
        {"beta": 0.0},
        {"budget": 0},
        {"budget": 1.5},
        {"tau": -1.0},
        {"tau": float("nan")},
        # wrong types, not only wrong ranges
        {"alpha": "0.5"},
        {"beta": None},
        {"tau": "1"},
        {"seed": 1.5},
        {"seed": "1"},
        {"seed": True},
        # a bool is a numbers.Real, but no weight or threshold
        {"alpha": True},
        {"beta": True},
        {"tau": True},
    )
    for fault in bad:
        with pytest.raises(InvalidFlagValue):
            SamplingConfig(**{"alpha": 0.5, "beta": 0.5, "budget": 5, **fault})


def test_config_rejects_a_negative_seed():
    with pytest.raises(InvalidFlagValue, match="seed must be >= 0, got -1"):
        SamplingConfig(alpha=0.5, beta=0.5, budget=5, seed=-1)
    assert SamplingConfig(alpha=0.5, beta=0.5, budget=5, seed=0).seed == 0
    assert SamplingConfig(alpha=0.5, beta=0.5, budget=5, seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("budget", ["0.5", "5", None, [1], True])
def test_config_rejects_a_budget_that_is_not_a_number(budget):
    with pytest.raises(InvalidFlagValue, match="budget"):
        SamplingConfig(alpha=0.5, beta=0.5, budget=budget)


def test_quota_and_cap_arithmetic():
    assert round_half_up(0.2 * 10) == 2
    assert round_half_up(2.5) == 3
    assert cluster_cap(0.2, 5) == 1
    assert cluster_cap(0.2, 10) == 2
    assert cluster_cap(0.3, 10) == 3
    assert cluster_cap(1.0, 5) == 5
    assert resolve_budget(7, 100) == 7
    assert resolve_budget(0.25, 100) == 25
    assert resolve_budget(1.0, 100) == 100
    assert resolve_budget(0.001, 100) == 1  # never resolves to zero


def test_sample_novel_full_depth_cluster():
    items, _ = group("c", 5, x=0.0)
    pool = TrajectoryPool(tuple(items))
    p = cut_pool(pool)
    ids, shortfall = sample_novel(p, unlabeled_ids(pool), 5, 1.0, phase_rng(0, 0))
    assert sorted(ids) == sorted(s.id for s in items)
    assert shortfall == 0


def test_sample_novel_beta_caps_single_cluster():
    items, _ = group("c", 5, x=0.0)
    pool = TrajectoryPool(tuple(items))
    p = cut_pool(pool)
    ids, shortfall = sample_novel(p, unlabeled_ids(pool), 2, 0.2, phase_rng(0, 0))
    assert len(ids) == 1  # cap = max(1, floor(0.2 * 5)) = 1, cluster never revisited
    assert shortfall == 1


def test_sample_novel_singletons_uniform():
    items = [stationary_state(s, x=i * 100.0) for i, s in enumerate("abc")]
    pool = TrajectoryPool(tuple(items))
    p = cut_pool(pool)
    assert p.singletons == {"a", "b", "c"}
    seen = set()
    for seed in range(40):
        ids, shortfall = sample_novel(p, unlabeled_ids(pool), 2, 1.0, phase_rng(seed, 0))
        assert shortfall == 0
        assert len(ids) == 2 and len(set(ids)) == 2
        seen.add(frozenset(ids))
    assert seen == {frozenset(p) for p in (("a", "b"), ("a", "c"), ("b", "c"))}


def test_sample_familiar_empty_supply():
    items, _ = group("c", 4, x=0.0)
    pool = TrajectoryPool(tuple(items))
    p = cut_pool(pool)
    ids, shortfall = sample_familiar(p, unlabeled_ids(pool), 3, 0.5, phase_rng(0, 1))
    assert ids == [] and shortfall == 3


def test_sample_familiar_cap_met_exactly():
    # one labeled member plus 10 unlabeled: cap = floor(0.2 * 11) = 2
    items, labels = group("c", 11, x=0.0, labeled=1)
    pool = TrajectoryPool(tuple(items), frozenset(labels))
    p = cut_pool(pool)
    ids, shortfall = sample_familiar(p, unlabeled_ids(pool), 2, 0.2, phase_rng(0, 1))
    assert len(ids) == 2 and shortfall == 0
    assert set(ids) <= unlabeled_ids(pool)


def test_sample_familiar_multi_pass():
    ia, la = group("p", 5, x=0.0, labeled=1)
    ib, lb = group("q", 5, x=100.0, labeled=1)
    pool = TrajectoryPool(tuple(ia + ib), frozenset(la | lb))
    p = cut_pool(pool)
    log = []
    ids, shortfall = sample_familiar(
        p, unlabeled_ids(pool), 6, 0.5, phase_rng(3, 1), _pass_log=log
    )
    assert len(ids) == 6 and shortfall == 0
    # cap = floor(0.5 * 5) = 2 per cluster per pass; first pass takes 2 + 2
    first_pass = [(lab, cnt) for idx, lab, cnt in log if idx == 0]
    assert sorted(cnt for _, cnt in first_pass) == [2, 2]
    for idx, lab, cnt in log:
        assert cnt <= 2
    per_pass_labels = {}
    for idx, lab, cnt in log:
        per_pass_labels.setdefault(idx, []).append(lab)
    for labs in per_pass_labels.values():
        assert len(labs) == len(set(labs))  # one visit per cluster per pass


def test_round_quota_split():
    items, labels = group("c", 30, x=0.0, labeled=5)
    pool = TrajectoryPool(tuple(items), frozenset(labels))
    m = pool_round(pool, SamplingConfig(alpha=0.2, beta=1.0, budget=10, seed=0))
    assert (m.novel_quota, m.familiar_quota) == (2, 8)


def test_round_small_pool_takes_everything():
    items, labels = group("c", 9, x=0.0, labeled=2)
    pool = TrajectoryPool(tuple(items), frozenset(labels))
    m = pool_round(pool, SamplingConfig(alpha=0.5, beta=0.4, budget=10, seed=1))
    ids = [s.id for s in m.selected]
    assert sorted(ids) == sorted(unlabeled_ids(pool))
    assert len(set(ids)) == 7


def test_round_novel_exhaustion_falls_back():
    novel_items, _ = group("x", 2, x=0.0)
    single = [stationary_state("s1", x=50.0)]
    fam_items, fam_labels = group("y", 5, x=100.0, labeled=2)
    pool = TrajectoryPool(tuple(novel_items + single + fam_items), frozenset(fam_labels))
    m = pool_round(pool, SamplingConfig(alpha=1.0, beta=1.0, budget=5, seed=3))
    phases = [s.phase for s in m.selected]
    assert phases.count(PHASE_NOVEL_CLUSTER) == 2
    assert phases.count(PHASE_NOVEL_SINGLETON) == 1
    assert phases.count(PHASE_FALLBACK) == 2
    assert m.novel_shortfall == 2 and m.familiar_quota == 0
    assert m.fallback_count == 2
    # each pick is a Selection with its named fields
    assert all(type(s) is Selection for s in m.selected)
    assert [s.id for s in m.selected if s.phase == PHASE_NOVEL_SINGLETON] == ["s1"]


def test_round_draws_fallback_stream_only_on_shortfall(monkeypatch):
    streams = []

    def spy(seed, stream):
        streams.append(stream)
        return phase_rng(seed, stream)

    monkeypatch.setattr(sampling, "phase_rng", spy)
    items, labels = group("c", 30, x=0.0, labeled=5)
    pool = TrajectoryPool(tuple(items), frozenset(labels))
    m = pool_round(pool, SamplingConfig(alpha=0.0, beta=1.0, budget=10, seed=0))
    assert m.fallback_count == 0 and FALLBACK_STREAM not in streams
    novel_items, _ = group("x", 2, x=100.0)
    pool = TrajectoryPool(tuple(novel_items + items), frozenset(labels))
    m = pool_round(pool, SamplingConfig(alpha=1.0, beta=1.0, budget=5, seed=3))
    assert m.fallback_count == 3 and streams[-1] == FALLBACK_STREAM


def test_round_alpha_extremes():
    ia, la = group("p", 12, x=0.0, labeled=2)
    ib, _ = group("q", 6, x=100.0)
    pool = TrajectoryPool(tuple(ia + ib), frozenset(la))
    m0 = pool_round(pool, SamplingConfig(alpha=0.0, beta=1.0, budget=6, seed=5))
    assert {s.phase for s in m0.selected} == {PHASE_FAMILIAR}
    m1 = pool_round(pool, SamplingConfig(alpha=1.0, beta=1.0, budget=6, seed=5))
    assert PHASE_FAMILIAR not in {s.phase for s in m1.selected}


def test_cold_canonical_pool_rounds_pick_fallback_or_familiar_in_novel_clusters():
    # on the cold 2k fixture no cluster is familiar, so an alpha 0 round is
    # the fallback's uniform draw; an alpha 0.2 round's familiar phase can
    # only revisit the clusters its novel picks just labeled
    pool = synthetic_pool(canonical_pool_spec())
    cfg = SamplingConfig(alpha=0.0, beta=0.2, budget=0.05, tau=CANONICAL_TAU)
    part = pool_partition(pool, cfg)
    for seed in range(3):
        m0 = sampling_round(part, replace(cfg, seed=seed))
        assert [s.phase for s in m0.selected] == [PHASE_FALLBACK] * 100
        m = sampling_round(part, replace(cfg, alpha=0.2, seed=seed))
        assert [s.phase for s in m.selected] == [PHASE_NOVEL_CLUSTER] * 20 + [PHASE_FAMILIAR] * 80
        touched = {s.cluster for s in m.selected[:20]}
        assert {s.cluster for s in m.selected[20:]} <= touched


def test_round_requires_unlabeled():
    items, _ = group("c", 3, x=0.0)
    pool = TrajectoryPool(tuple(items), frozenset(s.id for s in items))
    with pytest.raises(EmptyUnlabeledPool):
        pool_round(pool, SamplingConfig(alpha=0.5, beta=0.5, budget=1))


def test_round_determinism():
    for fix_seed in (0, 1, 2):
        check_round_invariants(fix_seed, check_determinism=True)


def test_round_fraction_budget():
    items, labels = group("c", 20, x=0.0, labeled=4)
    pool = TrajectoryPool(tuple(items), frozenset(labels))
    m = pool_round(pool, SamplingConfig(alpha=0.0, beta=1.0, budget=0.5, seed=2))
    assert m.budget_resolved == 8  # half of the 16 unlabeled
    assert len(m.selected) == 8


def test_sample_novel_zero_quota():
    items, _ = group("c", 5, x=0.0)
    pool = TrajectoryPool(tuple(items))
    p = cut_pool(pool)
    ids, shortfall = sample_novel(p, unlabeled_ids(pool), 0, 0.5, phase_rng(0, 0))
    assert ids == [] and shortfall == 0


def test_round_with_injected_dendrogram_matches():
    items, labels = group("c", 12, x=0.0, labeled=3)
    pool = TrajectoryPool(tuple(items), frozenset(labels))
    cfg = SamplingConfig(alpha=0.4, beta=0.5, budget=5, seed=8)
    tree = upgma_linkage(pairwise_distances(pool.items, cfg.weights))
    part = pool_partition(pool, cfg, tree)
    assert part == pool_partition(pool, cfg)
    assert sampling_round(part, cfg) == pool_round(pool, cfg)


def test_round_rejects_mismatched_dendrogram():
    items, labels = group("c", 5, x=0.0, labeled=1)
    other, _ = group("d", 4, x=0.0)
    pool = TrajectoryPool(tuple(items), frozenset(labels))
    cfg = SamplingConfig(alpha=0.5, beta=0.5, budget=2)
    with pytest.raises(ParseError):
        pool_partition(pool, cfg, upgma_linkage(pairwise_distances(other)))
    # a partition cut at another tau than the config's
    with pytest.raises(ParseError, match="cut at tau 11.0, config has tau 10.0"):
        sampling_round(pool_partition(pool, replace(cfg, tau=cfg.tau + 1.0)), cfg)


def test_invariant_fixtures_quick():
    for fix_seed in range(60):
        check_round_invariants(fix_seed)


def test_plan_experiment_grid_dimensions():
    grid = plan_experiment_grid(
        alphas=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
        betas=(0.2, 0.4, 0.6, 0.8, 1.0),
        budgets=(0.1, 0.2, 0.3, 0.4, 0.5),
    )
    assert len(grid) == 150
    assert grid == default_experiment_grid()
    # budget-major, then alpha, then beta
    assert [c.budget for c in grid[:30]] == [0.1] * 30
    assert [c.alpha for c in grid[:10]] == [0.0] * 5 + [0.2] * 5
    assert [c.beta for c in grid[:5]] == [0.2, 0.4, 0.6, 0.8, 1.0]


def test_plan_experiment_grid_edges():
    assert len(plan_experiment_grid((0.5,), (0.5,), (10,))) == 1
    assert plan_experiment_grid((0.5,), (0.5,), ()) == ()
    with pytest.raises(InvalidFlagValue):
        plan_experiment_grid((2.0,), (0.5,), (10,))


def _oracle_pool(kind, seed):
    """A canonical pool, or one whose parked duplicates tie at distance 0,
    in shuffled file order (so leaf order is not id order), optionally with
    a labeled subset."""
    rng = np.random.default_rng(seed)
    items = generate_synthetic_pool(canonical_pool_spec(total_count=270, seed=seed))
    if kind.startswith("ties"):
        items += [stationary_state(f"parked-{k:03d}", x=0.0) for k in range(30)]
    items = [items[int(k)] for k in rng.permutation(len(items))]
    frac = 0.2 if kind.endswith("labeled") else 0.0
    labeled = {s.id for s in items if rng.random() < frac}
    return TrajectoryPool(tuple(items), frozenset(labeled))


ORACLE_CONFIGS = (
    # (alpha, beta, budget): whole-pool budgets run out of supply and fall back
    (1.0, 0.2, 1.0),
    (0.0, 0.2, 1.0),
    (0.6, 0.4, 0.5),
    (0.2, 1.0, 0.3),
    (0.8, 0.6, 0.1),
    (0.4, 0.8, 40),
    (1.0, 1.0, 7),
    (0.5, 0.2, 150),
)


@pytest.mark.parametrize("tau", [0.0, 5.0, 10.0, 20.0])
@pytest.mark.parametrize("kind", ["canonical", "canonical-labeled", "ties", "ties-labeled"])
def test_row_round_equals_id_space_oracle(kind, tau):
    pool = _oracle_pool(kind, seed=len(kind))
    part = pool_partition(pool, SamplingConfig(alpha=0.5, beta=0.5, budget=1, tau=tau))
    # the oracle splits novelty itself, over id sets
    id_part = refresh_partition(part, [])
    manifests = []
    for k, (alpha, beta, budget) in enumerate(ORACLE_CONFIGS):
        cfg = SamplingConfig(alpha=alpha, beta=beta, budget=budget, tau=tau, seed=17 * k + 3)
        manifest = sampling_round(part, cfg)
        assert manifest == id_space_round(id_part, cfg)
        manifests.append(manifest)
    assert any(m.fallback_count for m in manifests)
    if tau > 0:  # at tau 0 canonical clusters are singletons, with nothing left to revisit
        assert any(m.familiar_quota > m.familiar_shortfall for m in manifests)
