from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from trajcurate import (
    ExperimentResult,
    ExperimentRow,
    MetricWeights,
    SamplingConfig,
    TrajectoryPool,
    canonical_pool_spec,
    generate_synthetic_pool,
    run_al_experiment,
    stratified_holdout,
    synthetic_pool,
)
from trajcurate.errors import InsufficientPool, InvalidFlagValue, ParseError
from trajcurate.io import load_trajectories, read_labeled_ids
from trajcurate.metric import _distance
from trajcurate.sampling import BASELINE_STREAM, phase_rng
from trajcurate.states import TRAJECTORY_LEN
from trajcurate import surrogate
from trajcurate.surrogate import PREFIX_LEN, _rank_holdout, _score_ranked

from helpers import (
    EmptyTrainingPool,
    NoPredictions,
    ObservedPrefix,
    _score_split,
    ade_oracle,
    experiment_cells,
    improvement_over_random,
    knn_predict,
    make_state,
    min_ade_k,
    pool_round,
    pool_row,
    prefix_distance,
    unlabeled_ids,
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
    order, table = _rank_holdout(queries, ranked, MetricWeights())
    assert table.shape == (400, surrogate._TABLE_WIDTH)
    want = ade_oracle(ranked.points[order[:, : table.shape[1]]], queries.points[:, None])
    assert table.tobytes() == want.tobytes()


def test_stratified_holdout_counts():
    pool = generate_synthetic_pool(canonical_pool_spec(total_count=500, seed=2))
    ids = [s.id for s in pool]
    train, held = stratified_holdout(ids, fraction=0.2, seed=1)
    assert len(held) == 100
    assert sorted(train + held) == list(range(500))
    assert stratified_holdout(ids, fraction=0.2, seed=1) == (train, held)
    # stratification: every motif group gives up its proportional share (+-1
    # from largest-remainder apportionment of the leftover units)
    import math

    from trajcurate.synth import motif_key

    groups: dict[str, list[int]] = {}
    for i, s in enumerate(pool):
        groups.setdefault(motif_key(s.id), []).append(i)
    held_set = set(held)
    for members in groups.values():
        got = sum(1 for i in members if i in held_set)
        base = math.floor(0.2 * len(members))
        assert got in (base, base + 1)


@pytest.mark.parametrize("k_modes", [3, 10])
def test_score_split_matches_knn_oracle(k_modes):
    items = generate_synthetic_pool(canonical_pool_spec(total_count=200, seed=3))
    pool = TrajectoryPool(tuple(items))
    train, held = stratified_holdout([s.id for s in items], fraction=0.2, seed=1)
    rng = np.random.default_rng(0)
    labeled_rows = sorted(rng.choice(train, size=60, replace=False), key=lambda r: items[r].id)
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
    items = generate_synthetic_pool(canonical_pool_spec(total_count=n, seed=seed))

    def twin(s, id_, k):
        tail = tuple((x + 0.5, y - 0.25) for x, y in s.points[PREFIX_LEN:])
        return replace(s, id=id_, points=s.points if k % 2 else s.points[:PREFIX_LEN] + tail)

    copies = [twin(s, f"a-twin-{s.id}", k) for k, s in enumerate(items[: twins // 2])]
    copies += [twin(s, f"{s.id}-twin", k) for k, s in enumerate(items[-(twins // 2) :])]
    return items + copies


def test_ranked_scorer_equals_per_score_oracle():
    items = pool_with_twins()
    train, held = stratified_holdout([s.id for s in items], fraction=0.2, seed=1)
    train_pool = TrajectoryPool(tuple(items[i] for i in train))
    by_id = sorted(train_pool.ids)
    id_rows = [pool_row(train_pool, i) for i in by_id]
    queries, ranked = TrajectoryPool(tuple(items)).take(held), train_pool.take(id_rows)
    w = MetricWeights(k_a=0.1, k_v=0.05, k_h=2.0)
    order, table = _rank_holdout(queries, ranked, w)
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
    items = pool_with_twins()
    train, held = stratified_holdout([s.id for s in items], fraction=0.2, seed=1)
    train_pool = TrajectoryPool(tuple(items[i] for i in train))
    by_id = sorted(train_pool.ids)
    id_rows = [pool_row(train_pool, i) for i in by_id]
    queries, ranked = TrajectoryPool(tuple(items)).take(held), train_pool.take(id_rows)
    w = MetricWeights(k_a=0.1, k_v=0.05, k_h=2.0)
    order, table = _rank_holdout(queries, ranked, w)
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
    items = tuple(pool.items[i] for i in train)
    working = TrajectoryPool(items, pool.labeled_ids & {s.id for s in items})
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
    items = pool_with_twins(n=160, seed=5, twins=20)
    pool = TrajectoryPool(tuple(items), frozenset(s.id for s in items[::9]))
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
    order, table = _rank_holdout(queries, by_id, w)
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
    order, table = _rank_holdout(queries, by_id, w)
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
    pool = TrajectoryPool(tuple(generate_synthetic_pool(canonical_pool_spec(total_count=100, seed=8))))
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
    pool = TrajectoryPool(tuple(generate_synthetic_pool(canonical_pool_spec(total_count=120, seed=6))))
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
    pool = TrajectoryPool(tuple(generate_synthetic_pool(canonical_pool_spec(total_count=100, seed=8))))
    grid = [SamplingConfig(alpha=0.6, beta=0.4, budget=1.0, tau=30.0)]
    res = run_al_experiment(pool, grid, seeds=(0,), k_modes=5)
    active = next(r for r in res.rows if r.strategy == "active")
    rand = next(r for r in res.rows if r.strategy == "random")
    assert active.made5 == rand.made5
    assert active.made10 == rand.made10


def test_experiment_insufficient_pool():
    pool = TrajectoryPool(tuple(generate_synthetic_pool(canonical_pool_spec(total_count=50, seed=8))))
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
    items = generate_synthetic_pool(canonical_pool_spec(total_count=200, seed=9))
    labeled = frozenset(s.id for s in items[:20])
    pool = TrajectoryPool(tuple(items), labeled)
    grid = [SamplingConfig(alpha=0.0, beta=0.5, budget=0.3, tau=30.0)]
    res = run_al_experiment(pool, grid, seeds=(0,))
    # with familiar supply available, alpha=0 actually exercises the familiar phase
    active = next(r for r in res.rows if r.strategy == "active")
    assert np.isfinite(active.made5) and np.isfinite(active.made10)
    assert active.made10 <= active.made5 + 1e-12
