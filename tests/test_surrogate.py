import errno
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajcurate import (
    ExperimentResult,
    ExperimentRow,
    MetricWeights,
    SamplingConfig,
    TrajectoryPool,
    canonical_pool_spec,
    flat_clusters,
    metric,
    run_al_experiment,
    sampling_round,
    stratified_holdout,
    synthetic_pool,
    upgma_linkage,
)
from trajcurate.errors import EmptyUnlabeledPool, InsufficientPool, InvalidFlagValue, ParseError
from trajcurate.io import load_trajectories, read_labeled_ids
from trajcurate.metric import _distance, pairwise_distances
from trajcurate.sampling import BASELINE_STREAM, phase_rng
from trajcurate.states import TRAJECTORY_LEN
from trajcurate import surrogate
from trajcurate.surrogate import PREFIX_LEN, _score_ranked

from helpers import (
    EmptyTrainingPool,
    NoPredictions,
    ObservedPrefix,
    _score_split,
    ade_oracle,
    experiment_cells,
    id_space_round,
    improvement_over_random,
    knn_predict,
    lattice_pool,
    lattice_records,
    make_state,
    min_ade_k,
    novelty_classes,
    oracle_novelty_classes,
    pool_round,
    pool_row,
    prefix_distance,
    rank_holdout,
    refresh_partition,
    states_of,
    unlabeled_ids,
    with_labeled,
)


def shifted(id_, dx, v=0.0):
    return make_state(id_, offset=(dx, 0.0), v=v)


def test_prefix_distance_by_hand():
    q = ObservedPrefix(points=((0.0, 0.0), (1.0, 0.0)), v=10.0, a=0.0, h=0.0)
    s = make_state("s", offset=(0.0, 2.0), v=12.0)  # prefix points offset by (0, 2)
    w = MetricWeights()
    assert prefix_distance(q, s, w) == 2.0 + 2.0 + w.k_v * 2.0


def test_knn_self_prefix_returns_own_trajectory():
    labeled = [shifted("a", 0.0), shifted("b", 5.0), shifted("c", 11.0)]
    preds = knn_predict(labeled[1], labeled, k_modes=1)
    assert len(preds) == 1
    np.testing.assert_array_equal(preds[0], np.asarray(labeled[1].points))


def test_knn_clamps_modes():
    labeled = [shifted(f"s{i}", float(i)) for i in range(4)]
    preds = knn_predict(labeled[0], labeled, k_modes=10)
    assert len(preds) == 4


def test_knn_nearest_selection():
    query = ObservedPrefix(points=((0.0, 0.0), (1.0, 0.0)), v=0.0, a=0.0, h=0.0)
    near = make_state("near", offset=(0.5, 0.0))  # prefix distance 1.0
    far = make_state("far", offset=(1.0, 0.0))  # prefix distance 2.0
    preds = knn_predict(query, [far, near], k_modes=1)
    np.testing.assert_array_equal(preds[0], np.asarray(near.points))


def test_knn_tie_broken_by_id():
    query = ObservedPrefix(points=((0.0, 0.0), (1.0, 0.0)), v=0.0, a=0.0, h=0.0)
    twin_b = make_state("b-twin", offset=(3.0, 0.0), v=1.0)
    twin_a = make_state("a-twin", offset=(3.0, 0.0), v=1.0)
    preds = knn_predict(query, [twin_b, twin_a], k_modes=1)
    np.testing.assert_array_equal(preds[0], np.asarray(twin_a.points))


def test_knn_all_modes_cover_pool_once():
    labeled = [shifted(f"s{i}", 2.0 * i, v=float(i)) for i in range(6)]
    preds = knn_predict(labeled[3], labeled, k_modes=6)
    got = sorted(tuple(map(tuple, p)) for p in preds)
    expected = sorted(tuple(s.points) for s in labeled)
    assert got == expected


def test_knn_errors():
    with pytest.raises(EmptyTrainingPool):
        knn_predict(shifted("q", 0.0), [], k_modes=1)
    with pytest.raises(ValueError):
        knn_predict(shifted("q", 0.0), [shifted("a", 1.0)], k_modes=0)


def test_min_ade_exact_match():
    truth = [(float(k), 0.0) for k in range(12)]
    assert min_ade_k([np.asarray(truth)], truth, 1) == 0.0


def test_min_ade_constant_offset():
    truth = [(float(k), 0.0) for k in range(12)]
    pred = [(float(k), 2.0) for k in range(12)]
    assert min_ade_k([np.asarray(pred)], truth, 1) == 2.0


def test_min_ade_takes_best_mode():
    truth = [(float(k), 0.0) for k in range(12)]
    off = [(float(k) + 5.0, 0.0) for k in range(12)]
    assert min_ade_k([np.asarray(off), np.asarray(truth)], truth, 2) == 0.0
    # K = 1 only sees the first (most likely) mode
    assert min_ade_k([np.asarray(off), np.asarray(truth)], truth, 1) == 5.0


def test_min_ade_monotone_in_k():
    rng = np.random.default_rng(0)
    truth = rng.uniform(-10, 10, (12, 2))
    preds = [rng.uniform(-10, 10, (12, 2)) for _ in range(8)]
    values = [min_ade_k(preds, truth, k) for k in range(1, 9)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v >= 0 for v in values)
    assert values[-1] > 0  # zero only when a retained mode equals the truth


def test_min_ade_errors():
    truth = [(0.0, 0.0)] * 12
    with pytest.raises(NoPredictions):
        min_ade_k([], truth, 5)
    with pytest.raises(ParseError):
        min_ade_k([np.zeros((3, 2))], truth, 1)


def kernel_ade(modes, truth):
    """The surrogate's ADE: the kernel at zero dynamics and weights, over 12 points."""
    z = surrogate._NO_DYN
    return _distance(modes, z, truth, z, surrogate._POINTS_ONLY) / TRAJECTORY_LEN


def _ade_case(case, rng):
    """Modes and truths at the shapes and magnitudes the surrogate scores."""
    if case == "table-block":  # one _rank_holdout block: 64 queries x 256 ranked rows
        return rng.normal(0.0, 30.0, (64, 256, 12, 2)), rng.normal(0.0, 30.0, (64, 1, 12, 2))
    if case == "far-gather":  # _score_ranked's far columns, gathered flat
        return rng.normal(0.0, 30.0, (700, 12, 2)), rng.normal(0.0, 30.0, (700, 12, 2))
    if case == "magnitudes":  # offsets of either sign, magnitudes from 1e-3 to 1e3
        shape = (40, 25, 12, 2)
        truth = rng.uniform(-1e3, 1e3, (40, 1, 12, 2))
        return truth + rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape), truth
    if case == "zero-offsets":
        truth = rng.normal(0.0, 30.0, (50, 1, 12, 2))
        return np.repeat(truth, 8, axis=1), truth
    return np.empty((0, 12, 2)), np.empty((0, 12, 2))


@pytest.mark.parametrize(
    "case", ["table-block", "far-gather", "magnitudes", "zero-offsets", "empty"]
)
def test_kernel_ade_equals_numpy_mean_oracle_bytes(case):
    modes, truth = _ade_case(case, np.random.default_rng(25))
    got, want = kernel_ade(modes, truth), ade_oracle(modes, truth)
    assert got.shape == want.shape == np.broadcast_shapes(modes.shape, truth.shape)[:-2]
    assert got.tobytes() == want.tobytes()


def test_rank_holdout_ade_table_equals_numpy_mean_oracle_bytes():
    # the 2k sweep's split: 400 queries in 64-row blocks, 256 table columns
    pool = synthetic_pool(canonical_pool_spec(total_count=2000))
    train, held = stratified_holdout(pool.ids, 0.2, 1)
    working = pool.take(train)
    ranked = working.take(sorted(range(len(working)), key=working.ids.__getitem__))
    queries = pool.take(held)
    order, table = rank_holdout(queries, ranked, MetricWeights())
    assert table.shape == (400, surrogate._TABLE_WIDTH)
    want = ade_oracle(ranked.points[order[:, : table.shape[1]]], queries.points[:, None])
    assert table.tobytes() == want.tobytes()


def test_stratified_holdout_counts():
    ids = synthetic_pool(canonical_pool_spec(total_count=500, seed=2)).ids
    train, held = stratified_holdout(ids, fraction=0.2, seed=1)
    assert len(held) == 100
    assert sorted(train + held) == list(range(500))
    assert stratified_holdout(ids, fraction=0.2, seed=1) == (train, held)
    # stratification: every motif group gives up its proportional share (+-1
    # from largest-remainder apportionment of the leftover units)
    import math

    from trajcurate.synth import motif_key

    groups: dict[str, list[int]] = {}
    for i, id_ in enumerate(ids):
        groups.setdefault(motif_key(id_), []).append(i)
    held_set = set(held)
    for members in groups.values():
        got = sum(1 for i in members if i in held_set)
        base = math.floor(0.2 * len(members))
        assert got in (base, base + 1)


@pytest.mark.parametrize("k_modes", [3, 10])
def test_score_split_matches_knn_oracle(k_modes):
    pool = synthetic_pool(canonical_pool_spec(total_count=200, seed=3))
    items = states_of(pool)  # the oracle's records
    train, held = stratified_holdout(pool.ids, fraction=0.2, seed=1)
    rng = np.random.default_rng(0)
    labeled_rows = sorted(rng.choice(train, size=60, replace=False), key=pool.ids.__getitem__)
    w = MetricWeights(k_a=0.1, k_v=0.05, k_h=2.0)

    qp, qd = pool.points[held], pool.dyn[held]
    made5, made10 = _score_split(qp, qd, pool, labeled_rows, k_modes, w)

    labeled = [items[r] for r in labeled_rows]
    queries = [items[i] for i in held]
    preds = [knn_predict(q, labeled, k_modes, w) for q in queries]
    want5 = np.mean([min_ade_k(p, q.points, 5) for p, q in zip(preds, queries)])
    want10 = np.mean([min_ade_k(p, q.points, 10) for p, q in zip(preds, queries)])
    assert made5 == pytest.approx(want5, rel=1e-12)
    assert made10 == pytest.approx(want10, rel=1e-12)


def pool_with_twins(n=300, seed=4, twins=40):
    """A canonical pool plus twins under new ids, half sorting before their
    originals and half after, so exact distance ties across ids occur.

    A twin copies its original's observable prefix and dynamics, so the two
    tie on prefix distance. Every other twin copies the whole trajectory;
    the rest shift the unobserved tail, so the tie order changes which
    future a query is scored against.
    """
    pool = synthetic_pool(canonical_pool_spec(total_count=n, seed=seed))
    half = twins // 2
    rows = [*range(half), *range(n - half, n)]
    ids = [f"a-twin-{id_}" for id_ in pool.ids[:half]] + [f"{id_}-twin" for id_ in pool.ids[n - half :]]
    points = pool.points[rows]
    points[np.arange(twins) % half % 2 == 0, PREFIX_LEN:] += (0.5, -0.25)
    return TrajectoryPool.from_columns(
        pool.ids + tuple(ids),
        np.concatenate([pool.points, points]),
        np.concatenate([pool.dyn, pool.dyn[rows]]),
    )


def test_ranked_scorer_equals_per_score_oracle():
    pool = pool_with_twins()
    train, held = stratified_holdout(pool.ids, fraction=0.2, seed=1)
    train_pool = pool.take(train)
    by_id = sorted(train_pool.ids)
    id_rows = [pool_row(train_pool, i) for i in by_id]
    queries, ranked = pool.take(held), train_pool.take(id_rows)
    w = MetricWeights(k_a=0.1, k_v=0.05, k_h=2.0)
    order, table = rank_holdout(queries, ranked, w)
    assert order.dtype == np.int32
    # with no columns, and with a narrow table, most ADEs are computed directly
    tables = (table[:, :0], table[:, :7])

    rng = np.random.default_rng(11)
    for trial in range(60):
        size = int(rng.integers(1, 12)) if trial % 3 == 0 else int(rng.integers(12, len(by_id) + 1))
        picked = np.sort(rng.choice(len(by_id), size=size, replace=False))
        mask = np.zeros(len(by_id), dtype=bool)
        mask[picked] = True
        labeled_rows = [id_rows[k] for k in picked]
        for k_modes in (1, 5, 10, size + 3):
            want = _score_split(queries.points, queries.dyn, train_pool, labeled_rows, k_modes, w)
            for cut in tables:
                assert _score_ranked(queries, ranked, order, mask, k_modes, cut) == want


@pytest.mark.parametrize("table_width", [1, 10, 100, 1000])
def test_table_scorer_equals_per_score_oracle_at_any_table_width(monkeypatch, table_width):
    # 272 training rows: a 1000-column table holds whole rows
    monkeypatch.setattr(surrogate, "_TABLE_WIDTH", table_width)
    pool = pool_with_twins()
    train, held = stratified_holdout(pool.ids, fraction=0.2, seed=1)
    train_pool = pool.take(train)
    by_id = sorted(train_pool.ids)
    id_rows = [pool_row(train_pool, i) for i in by_id]
    queries, ranked = pool.take(held), train_pool.take(id_rows)
    w = MetricWeights(k_a=0.1, k_v=0.05, k_h=2.0)
    order, table = rank_holdout(queries, ranked, w)
    assert order.shape[1] == 272 and table.shape == (len(held), min(table_width, 272))

    rng = np.random.default_rng(12)
    for trial in range(20):
        size = int(rng.integers(1, 12)) if trial % 3 == 0 else int(rng.integers(12, len(by_id) + 1))
        picked = np.sort(rng.choice(len(by_id), size=size, replace=False))
        mask = np.zeros(len(by_id), dtype=bool)
        mask[picked] = True
        labeled_rows = [id_rows[k] for k in picked]
        for k_modes in (1, 5, 10, size + 3):
            got = _score_ranked(queries, ranked, order, mask, k_modes, table)
            want = _score_split(queries.points, queries.dyn, train_pool, labeled_rows, k_modes, w)
            assert got == want


def oracle_experiment(pool, grid, seeds, k_modes):
    """run_al_experiment written as a plain loop over the per-score oracle."""
    train, held = stratified_holdout(pool.ids, 0.2, 1)
    qp, qd = pool.points[held], pool.dyn[held]
    working = pool.take(train)
    unlabeled0 = sorted(unlabeled_ids(working))
    rows = []
    for cfg in grid:
        budget = cfg.budget if isinstance(cfg.budget, float) else cfg.budget / len(unlabeled0)
        for seed in seeds:
            manifest = pool_round(working, replace(cfg, seed=seed))
            order = phase_rng(seed, BASELINE_STREAM).permutation(len(unlabeled0))
            baseline = [unlabeled0[int(i)] for i in order[: len(manifest.selected)]]
            for strategy, picked in (("active", manifest.ids()), ("random", baseline)):
                labeled = sorted(working.labeled_ids.union(picked))
                made5, made10 = _score_split(
                    qp, qd, working, [pool_row(working, i) for i in labeled], k_modes, cfg.weights
                )
                rows.append(
                    ExperimentRow(budget, cfg.alpha, cfg.beta, seed, strategy, made5, made10)
                )
    return tuple(rows)


def test_experiment_rows_match_oracle_loop_across_weights():
    pool = pool_with_twins(n=160, seed=5, twins=20)
    pool = with_labeled(pool, pool.ids[::9])
    heavy_h = MetricWeights(k_a=0.2, k_v=0.1, k_h=3.0)
    grid = [
        SamplingConfig(alpha=0.4, beta=0.6, budget=0.2, tau=20.0),
        SamplingConfig(alpha=1.0, beta=0.4, budget=0.1, tau=20.0, weights=heavy_h),
        SamplingConfig(alpha=0.0, beta=1.0, budget=0.3, tau=8.0),
        SamplingConfig(alpha=0.6, beta=0.2, budget=0.2, tau=8.0, weights=heavy_h),
        SamplingConfig(alpha=1.0, beta=0.6, budget=0.2, tau=8.0),
    ]
    res = run_al_experiment(pool, grid, seeds=(0, 1), k_modes=4)
    assert res.rows == oracle_experiment(pool, grid, seeds=(0, 1), k_modes=4)


# a config's alpha, beta, budget (a count or a fraction) and a pick of its tau
_lattice_configs = st.lists(
    st.tuples(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0, exclude_min=True),
        st.one_of(st.integers(1, 125), st.floats(0.0, 1.0, exclude_min=True)),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=2,
)


def test_round_and_sweep_equal_oracles_on_lattice_pools():
    swept_ties = []  # the tied merges of every pool the sweep ran on

    # at k_v 2 a speed step ties a grid step in the prefix distance but not
    # in the ADE, so the ranking's tie order shows in the scores
    @given(
        lattice_records,
        _lattice_configs,
        st.sampled_from([MetricWeights(), MetricWeights(k_v=2.0)]),
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
    )
    @settings(max_examples=150)
    def check(records, configs, weights, seed, k_modes):
        pool = lattice_pool(records)
        # a hypothesis test takes no function-scoped monkeypatch fixture
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "cpu_workers", lambda: 1)
            mp.setattr(surrogate, "cpu_workers", lambda: 1)
            tree = upgma_linkage(pairwise_distances(pool, weights))
            heights = [m.height for m in tree.merges]
            grid = [
                SamplingConfig(alpha, beta, budget, heights[pick % len(heights)], weights, seed)
                for alpha, beta, budget, pick in configs
            ]
            for cfg in grid:
                part = flat_clusters(tree, cfg.tau, pool.labeled_ids, pool.ids)
                assert novelty_classes(part) == oracle_novelty_classes(part)
                if len(pool.labeled_ids) == len(pool):
                    with pytest.raises(EmptyUnlabeledPool):
                        sampling_round(part, cfg)
                    continue
                manifest = sampling_round(part, cfg)
                assert manifest == id_space_round(part, cfg)
                novel = [s.id for s in manifest.selected if s.phase.startswith("novel")]
                after = flat_clusters(tree, cfg.tau, pool.labeled_ids.union(novel), pool.ids)
                refreshed = refresh_partition(part, novel)
                assert refreshed == after
                assert novelty_classes(refreshed) == oracle_novelty_classes(after)

            train, held = stratified_holdout(pool.ids)
            n_unlabeled = sum(pool.ids[i] not in pool.labeled_ids for i in train)
            if not (held and n_unlabeled):
                return
            # a count above the unlabeled rows is the sweep's InsufficientPool
            grid = [
                replace(cfg, budget=min(cfg.budget, n_unlabeled))
                if isinstance(cfg.budget, int) else cfg
                for cfg in grid
            ]
            got = run_al_experiment(pool, grid, seeds=(seed,), k_modes=k_modes).rows
            assert got == oracle_experiment(pool, grid, (seed,), k_modes)
        swept_ties.append(sum(a.height == b.height for a, b in zip(tree.merges, tree.merges[1:])))

    check()
    assert max(swept_ties) >= 10


DATA = Path(__file__).parent / "data"


def _pool_400():
    pool = load_trajectories(DATA / "pool-400.jsonl")
    return TrajectoryPool.from_columns(
        pool.ids, pool.points, pool.dyn, read_labeled_ids(DATA / "labeled-400.txt")
    )


def _kth_labeled_column(order, mask, k):
    """Per query row, the column of its k-th labeled neighbor."""
    return np.argmax(np.cumsum(mask[order], axis=1) >= k, axis=1)


def test_ranked_scorer_equals_oracle_on_rows_widened_apart():
    # 320 training rows: the head starts at 64 columns, rows short there
    # widen on their own, and some reach the full row
    pool = _pool_400()
    train, held = stratified_holdout(pool.ids, 0.2, 1)
    working = pool.take(train)
    by_id = working.take(sorted(range(len(working)), key=working.ids.__getitem__))
    queries = pool.take(held)
    w = MetricWeights()
    order, table = rank_holdout(queries, by_id, w)
    n = order.shape[1]
    assert n == 320
    # with no columns, and with a table narrower than most widened heads
    tables = (table[:, :0], table[:, :100])

    rng = np.random.default_rng(5)
    masks = []
    for q in range(3):  # the 64 rows query q ranks last: q needs the full row
        mask = np.zeros(n, dtype=bool)
        mask[order[q, n - 64 :]] = True
        masks.append(mask)
    for size in (50, 60, 80, 120):
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=size, replace=False)] = True
        masks.append(mask)

    kth = np.concatenate([_kth_labeled_column(order, mask, 10) for mask in masks])
    assert (kth < 64).any() and ((64 <= kth) & (kth < 256)).any() and (kth >= 256).any()
    for mask in masks:
        for k_modes in (1, 5, 10):
            want = _score_split(queries.points, queries.dyn, by_id, np.flatnonzero(mask), k_modes, w)
            for cut in tables:
                assert _score_ranked(queries, by_id, order, mask, k_modes, cut) == want


def test_table_scorer_equals_oracle_inside_at_and_past_the_table_width():
    pool = _pool_400()
    train, held = stratified_holdout(pool.ids, 0.2, 1)
    working = pool.take(train)
    by_id = working.take(sorted(range(len(working)), key=working.ids.__getitem__))
    queries = pool.take(held)
    w = MetricWeights()
    order, table = rank_holdout(queries, by_id, w)
    n, width = order.shape[1], table.shape[1]
    assert (n, width) == (320, 256)

    masks = []
    for q, end in enumerate((width, width + 1, width + 20, n)):
        # query q's 10th labeled column is end - 1: the table's last column,
        # the first past it, further past, and the row's last column, which
        # only a head wider than the 320-column row reaches
        mask = np.zeros(n, dtype=bool)
        mask[order[q, end - 10 : end]] = True
        masks.append(mask)
    rng = np.random.default_rng(6)
    for size in (40, 80, 160):
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, size=size, replace=False)] = True
        masks.append(mask)

    kth = [_kth_labeled_column(order, mask, 10) for mask in masks]
    assert [kth[q][q] for q in range(4)] == [width - 1, width, width + 19, n - 1]
    assert (np.concatenate(kth[4:]) < width).any()
    for mask in masks:
        for k_modes in (1, 5, 10, 12):
            want = _score_split(queries.points, queries.dyn, by_id, np.flatnonzero(mask), k_modes, w)
            assert _score_ranked(queries, by_id, order, mask, k_modes, table) == want


def test_experiment_rows_match_oracle_loop_with_repeated_label_sets(monkeypatch):
    # no labeled items: an alpha-0 round picks only fallback rows, which beta
    # can not change, and a whole-pool budget gives active and random one set
    pool = synthetic_pool(canonical_pool_spec(total_count=200, seed=3))
    assert not pool.labeled_ids
    grid = [SamplingConfig(alpha=0.0, beta=b, budget=0.2, tau=8.0) for b in (0.2, 0.6, 1.0)]
    grid += [
        SamplingConfig(alpha=0.6, beta=0.4, budget=0.2, tau=8.0),
        SamplingConfig(alpha=0.6, beta=0.4, budget=1.0, tau=8.0),
    ]
    scored = []
    score = surrogate._score_ranked

    def spy(held, train, order, labeled, k_modes, table):
        scored.append(labeled.tobytes())
        return score(held, train, order, labeled, k_modes, table)

    # one process, so the spy sees every cell; the rows do not depend on it
    monkeypatch.setattr(surrogate, "cpu_workers", lambda: 1)
    monkeypatch.setattr(surrogate, "_score_ranked", spy)
    res = run_al_experiment(pool, grid, seeds=(0, 1))
    assert res.rows == oracle_experiment(pool, grid, seeds=(0, 1), k_modes=10)
    # each distinct labeled set is scored once: per seed, one set for the
    # three alpha-0 cells, the alpha-0.6 cell's and the baseline the
    # budget-0.2 cells share; and the whole pool, for both seeds
    assert len(scored) == len(set(scored)) == 2 * 3 + 1


def test_sweep_scores_the_manifests_picks(monkeypatch):
    pool = _pool_400()
    grid = [
        SamplingConfig(alpha=0.6, beta=0.4, budget=0.05),
        SamplingConfig(alpha=1.0, beta=0.2, budget=12, tau=6.0),
    ]
    manifests, scored = [], set()
    sample, score = surrogate.sampling_round, surrogate._score_ranked

    def sample_spy(*args, **kwargs):
        manifests.append(sample(*args, **kwargs))
        return manifests[-1]

    def score_spy(held, train, order, labeled, k_modes, table):
        scored.add(labeled.tobytes())
        return score(held, train, order, labeled, k_modes, table)

    # one process, so the spies see every cell; the rows do not depend on it
    monkeypatch.setattr(surrogate, "cpu_workers", lambda: 1)
    monkeypatch.setattr(surrogate, "sampling_round", sample_spy)
    monkeypatch.setattr(surrogate, "_score_ranked", score_spy)
    run_al_experiment(pool, grid, seeds=(0, 1))

    train, _ = stratified_holdout(pool.ids)
    ids = sorted(pool.ids[i] for i in train)
    row = {id_: r for r, id_ in enumerate(ids)}
    assert len(manifests) == 4
    for manifest in manifests:
        mask = np.fromiter(map(pool.labeled_ids.__contains__, ids), bool, len(ids))
        mask[[row[id_] for id_ in manifest.ids()]] = True
        assert mask.tobytes() in scored


@pytest.fixture
def deadline():
    """Fails the test if it runs for a minute, as it would waiting on a hung worker."""

    def expire(signum, frame):
        raise TimeoutError("the sweep ran for 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture
def forks(monkeypatch):
    """A list that gets an entry per ``os.fork`` call."""
    calls, fork = [], os.fork

    def counted_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return calls


@pytest.fixture(params=[1, 2, 4], ids=["first", "second", "fourth"])
def forks_until_a_limit(request, monkeypatch):
    """As ``forks``, but from the ``request.param``-th call on ``os.fork``
    raises, as it does when the process limit is reached."""
    calls, fork = [], os.fork

    def limited_fork():
        calls.append(1)
        if len(calls) >= request.param:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", limited_fork)
    return calls


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _two_weight_sweep():
    """A seeded labeled pool, and three cells over two weight settings."""
    pool = synthetic_pool(canonical_pool_spec(total_count=200, seed=9))
    pool = with_labeled(pool, pool.ids[::10])
    heavy_h = MetricWeights(k_a=0.2, k_v=0.1, k_h=3.0)
    grid = [
        SamplingConfig(alpha=0.6, beta=0.4, budget=0.2, tau=20.0),
        SamplingConfig(alpha=1.0, beta=0.2, budget=0.1, tau=8.0, weights=heavy_h),
        SamplingConfig(alpha=0.0, beta=1.0, budget=30, tau=8.0),
    ]
    return pool, grid


@pytest.mark.skipif(sys.platform != "linux", reason="the sweep forks only on Linux")
def test_experiment_rows_do_not_depend_on_the_process_count(monkeypatch, deadline, forks):
    pool, grid = _two_weight_sweep()
    # 3, 2 and 4 cells at 1 to 4 processes: some with fewer cells than processes
    for cells_grid, seeds in ((grid, (0,)), (grid[:2], (0,)), (grid[1:], (0, 1))):
        want = oracle_experiment(pool, cells_grid, seeds=seeds, k_modes=10)
        n_cells = len(cells_grid) * len(seeds)
        n_weights = len({cfg.weights for cfg in cells_grid})
        for n_proc in (1, 2, 3, 4):
            monkeypatch.setattr(surrogate, "cpu_workers", lambda n=n_proc: n)
            forks.clear()
            assert run_al_experiment(pool, cells_grid, seeds=seeds).rows == want, n_proc
            # at two or more, one ranking child per weight setting, then a
            # child for each share of the cells after the caller's
            assert len(forks) == (n_weights + min(n_proc, n_cells) - 1 if n_proc > 1 else 0)
            _no_child_left()
    # off Linux the caller runs every task itself, at any process count
    monkeypatch.setattr(surrogate, "cpu_workers", lambda: 2)
    monkeypatch.setattr(surrogate, "sys", SimpleNamespace(platform="darwin"))
    forks.clear()
    assert run_al_experiment(pool, grid, seeds=(0,)).rows == oracle_experiment(pool, grid, (0,), 10)
    assert not forks
    _no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="the sweep forks only on Linux")
@pytest.mark.parametrize(
    "cells", [(0,), (5,), (2, 4)], ids=["callers-share", "workers-share", "two-workers-shares"]
)
def test_an_error_in_a_cell_reaches_the_caller(monkeypatch, deadline, cells):
    # 6 cells in 3 processes: the caller runs cells 0 and 1, the workers 2
    # and 3, and 4 and 5; the first failing cell's error is the one raised
    pool, grid = _two_weight_sweep()
    sample = surrogate.sampling_round
    failing = {(grid[cell // 2].budget, cell % 2): cell for cell in cells}

    def fail_cells(partition, cfg):
        if (cfg.budget, cfg.seed) in failing:
            raise InsufficientPool(f"no supply for cell {failing[cfg.budget, cfg.seed]}")
        return sample(partition, cfg)

    monkeypatch.setattr(surrogate, "cpu_workers", lambda: 3)
    monkeypatch.setattr(surrogate, "sampling_round", fail_cells)
    with pytest.raises(InsufficientPool, match=f"^no supply for cell {cells[0]}$"):
        run_al_experiment(pool, grid, seeds=(0, 1))
    _no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="the sweep forks only on Linux")
def test_a_worker_that_fails_has_its_share_run_by_the_caller(monkeypatch, deadline):
    pool, grid = _two_weight_sweep()
    monkeypatch.setattr(surrogate, "cpu_workers", lambda: 1)
    want = run_al_experiment(pool, grid, seeds=(0, 1)).rows
    parent, score = os.getpid(), surrogate._score_ranked

    def exit_in_a_worker(*args):
        if os.getpid() != parent:
            os._exit(3)
        return score(*args)

    monkeypatch.setattr(surrogate, "cpu_workers", lambda: 3)
    monkeypatch.setattr(surrogate, "_score_ranked", exit_in_a_worker)
    assert run_al_experiment(pool, grid, seeds=(0, 1)).rows == want
    _no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="the sweep forks only on Linux")
def test_a_failed_fork_has_its_task_run_by_the_caller(monkeypatch, deadline, forks_until_a_limit):
    pool, grid = _two_weight_sweep()
    monkeypatch.setattr(surrogate, "cpu_workers", lambda: 1)
    want = run_al_experiment(pool, grid, seeds=(0, 1)).rows
    # forks 1 and 2 start the two ranking children, 3 and 4 the cells' shares
    monkeypatch.setattr(surrogate, "cpu_workers", lambda: 3)
    assert run_al_experiment(pool, grid, seeds=(0, 1)).rows == want
    assert len(forks_until_a_limit) >= 3
    _no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="the sweep forks only on Linux")
def test_a_ranking_child_that_fails_has_its_ranking_run_by_the_caller(monkeypatch, deadline):
    pool, grid = _two_weight_sweep()
    monkeypatch.setattr(surrogate, "cpu_workers", lambda: 1)
    want = run_al_experiment(pool, grid, seeds=(0, 1)).rows
    parent, rank, ranked = os.getpid(), surrogate._rank_holdout, []

    def exit_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        ranked.append(args[2])
        return rank(*args)

    monkeypatch.setattr(surrogate, "cpu_workers", lambda: 2)
    monkeypatch.setattr(surrogate, "_rank_holdout", exit_in_a_child)
    assert run_al_experiment(pool, grid, seeds=(0, 1)).rows == want
    # the caller ranked once per weight setting, after each child failed
    assert ranked == [grid[0].weights, grid[1].weights]
    _no_child_left()


_SLEEPING_SWEEP = """
import time
from trajcurate import surrogate
surrogate.cpu_workers = lambda: 2
surrogate._fork_each([lambda: time.sleep(60), lambda: time.sleep(60)])
"""


def _running(pid):
    """Whether ``pid`` runs: neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(") ", 1)[1][0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs Linux's /proc children lists",
)
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_a_killed_caller_leaves_no_child(sig):
    caller = subprocess.Popen([sys.executable, "-c", _SLEEPING_SWEEP])
    children, deadline = [], time.monotonic() + 30
    try:
        while not children and caller.poll() is None and time.monotonic() < deadline:
            with open(f"/proc/{caller.pid}/task/{caller.pid}/children") as fh:
                children = fh.read().split()
    finally:
        caller.send_signal(sig)
        caller.wait()
    assert children, "the caller started no child"
    # each child's task sleeps for a minute, so only the death signal ends it now
    deadline = time.monotonic() + 10
    while any(map(_running, children)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(map(_running, children))


@pytest.mark.skipif(sys.platform != "linux", reason="the sweep forks only on Linux")
def test_an_error_in_the_linkage_reaches_the_caller(monkeypatch, deadline, forks):
    pool, grid = _two_weight_sweep()

    def fail_linkage(pool, weights):
        raise InsufficientPool("no linkage")

    monkeypatch.setattr(surrogate, "cpu_workers", lambda: 2)
    monkeypatch.setattr(surrogate, "upgma_linkage_for_pool", fail_linkage)
    with pytest.raises(InsufficientPool, match="^no linkage$"):
        run_al_experiment(pool, grid, seeds=(0, 1))
    assert len(forks) == 1  # the ranking child was running
    _no_child_left()


def test_negative_seeds_are_invalid_flag_values(monkeypatch):
    pool, grid = _small_experiment()
    with pytest.raises(InvalidFlagValue, match="seed must be >= 0, got -1"):
        stratified_holdout(pool.ids, seed=-1)
    with pytest.raises(InvalidFlagValue, match="seed must be >= 0, got -1"):
        run_al_experiment(pool, grid, seeds=(0,), split_seed=-1)
    with pytest.raises(InvalidFlagValue, match="seed must be an integer, got 1.5"):
        stratified_holdout(pool.ids, 0.2, 1.5)

    # the sweep's seeds are checked before the split or any linkage runs
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the seeds were checked")

    monkeypatch.setattr(surrogate, "stratified_holdout", must_not_run)
    monkeypatch.setattr(surrogate, "upgma_linkage_for_pool", must_not_run)
    with pytest.raises(InvalidFlagValue, match="seed must be >= 0, got -2"):
        run_al_experiment(pool, grid, seeds=(0, -2))
    with pytest.raises(InvalidFlagValue, match="seed must be an integer, got 0.5"):
        run_al_experiment(pool, grid, seeds=(0.5,))


def test_experiment_rejects_no_seeds():
    pool, grid = _small_experiment()
    with pytest.raises(InvalidFlagValue, match="number of seeds must be >= 1, got 0"):
        run_al_experiment(pool, grid, seeds=())
    with pytest.raises(InvalidFlagValue, match="number of configs must be >= 1, got 0"):
        run_al_experiment(pool, (), seeds=(0,))


def test_experiment_rows_match_oracle_loop_on_pool_400():
    pool = _pool_400()
    grid = [
        SamplingConfig(alpha=0.6, beta=0.4, budget=0.05),
        SamplingConfig(alpha=0.0, beta=1.0, budget=0.2),
        SamplingConfig(alpha=1.0, beta=0.2, budget=0.1, tau=6.0),
        SamplingConfig(alpha=0.4, beta=0.6, budget=12, tau=6.0),
    ]
    res = run_al_experiment(pool, grid, seeds=(0, 1))
    assert res.rows == oracle_experiment(pool, grid, seeds=(0, 1), k_modes=10)


def test_experiment_empty_holdout_is_insufficient_pool():
    pool = synthetic_pool(canonical_pool_spec(total_count=100, seed=8))
    grid = [SamplingConfig(alpha=0.5, beta=0.5, budget=0.2, tau=30.0)]
    for fraction in (0.0, 0.004):
        with pytest.raises(InsufficientPool):
            run_al_experiment(pool, grid, seeds=(0,), holdout_fraction=fraction)


def _small_experiment():
    pool = synthetic_pool(canonical_pool_spec(total_count=100, seed=8))
    return pool, [SamplingConfig(alpha=0.5, beta=0.5, budget=0.2, tau=30.0)]


def test_experiment_rejects_zero_modes():
    pool, grid = _small_experiment()
    with pytest.raises(InvalidFlagValue, match="k_modes"):
        run_al_experiment(pool, grid, seeds=(0,), k_modes=0)
    with pytest.raises(InvalidFlagValue, match="k_modes must be an integer, got 2.5"):
        run_al_experiment(pool, grid, seeds=(0,), k_modes=2.5)


def test_experiment_rejects_holdout_fraction_above_one():
    pool, grid = _small_experiment()
    with pytest.raises(InvalidFlagValue, match="holdout fraction"):
        run_al_experiment(pool, grid, seeds=(0,), holdout_fraction=1.5)


def test_stratified_holdout_rejects_fraction_above_one():
    with pytest.raises(InvalidFlagValue, match="holdout fraction"):
        stratified_holdout([f"m-{i:04d}" for i in range(10)], fraction=1.5)
    # a bool is a numbers.Real, but no fraction
    with pytest.raises(InvalidFlagValue, match="got False"):
        stratified_holdout([f"m-{i:04d}" for i in range(10)], fraction=False)


def test_experiment_row_accounting_and_pairing():
    pool = synthetic_pool(canonical_pool_spec(total_count=120, seed=6))
    grid = [
        SamplingConfig(alpha=0.0, beta=0.5, budget=0.25, tau=30.0),
        SamplingConfig(alpha=1.0, beta=0.5, budget=0.25, tau=30.0),
    ]
    res = run_al_experiment(pool, grid, seeds=(0, 1), k_modes=10)
    assert len(res.rows) == 8
    active = [r for r in res.rows if r.strategy == "active"]
    rand = [r for r in res.rows if r.strategy == "random"]
    assert len(active) == len(rand) == 4
    assert {(r.budget, r.alpha, r.beta, r.seed) for r in active} == {
        (r.budget, r.alpha, r.beta, r.seed) for r in rand
    }
    # determinism of the whole experiment
    again = run_al_experiment(pool, grid, seeds=(0, 1), k_modes=10)
    assert again == res


def test_experiment_saturation_budget_matches_random():
    pool = synthetic_pool(canonical_pool_spec(total_count=100, seed=8))
    grid = [SamplingConfig(alpha=0.6, beta=0.4, budget=1.0, tau=30.0)]
    res = run_al_experiment(pool, grid, seeds=(0,), k_modes=5)
    active = next(r for r in res.rows if r.strategy == "active")
    rand = next(r for r in res.rows if r.strategy == "random")
    assert active.made5 == rand.made5
    assert active.made10 == rand.made10


def test_experiment_insufficient_pool():
    pool = synthetic_pool(canonical_pool_spec(total_count=50, seed=8))
    grid = [SamplingConfig(alpha=0.5, beta=0.5, budget=10_000, tau=30.0)]
    with pytest.raises(InsufficientPool):
        run_al_experiment(pool, grid, seeds=(0,))


def test_experiment_result_validation_and_helpers():
    rows = (
        ExperimentRow(0.1, 0.0, 0.2, 0, "active", 1.0, 0.9),
        ExperimentRow(0.1, 0.0, 0.2, 0, "random", 1.5, 1.2),
        ExperimentRow(0.1, 0.0, 0.2, 1, "active", 2.0, 1.1),
        ExperimentRow(0.1, 0.0, 0.2, 1, "random", 1.5, 1.4),
    )
    res = ExperimentResult(rows=rows)
    assert experiment_cells(res) == ((0.1, 0.0, 0.2),)
    assert res.mean_made5(0.1, 0.0, 0.2, "active") == 1.5
    ((budget, alpha, beta, d5, d10, n),) = improvement_over_random(res)
    assert (budget, alpha, beta, n) == (0.1, 0.0, 0.2, 2)
    assert d5 == pytest.approx(0.0)  # random 1.5 mean vs active 1.5 mean
    assert d10 == pytest.approx(1.3 - 1.0)


def test_experiment_with_seeded_labeled_pool():
    pool = synthetic_pool(canonical_pool_spec(total_count=200, seed=9))
    pool = with_labeled(pool, pool.ids[:20])
    grid = [SamplingConfig(alpha=0.0, beta=0.5, budget=0.3, tau=30.0)]
    res = run_al_experiment(pool, grid, seeds=(0,))
    # with familiar supply available, alpha=0 actually exercises the familiar phase
    active = next(r for r in res.rows if r.strategy == "active")
    assert np.isfinite(active.made5) and np.isfinite(active.made10)
    assert active.made10 <= active.made5 + 1e-12
