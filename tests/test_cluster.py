import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajcurate import (
    CondensedDistanceMatrix,
    Dendrogram,
    Merge,
    TrajectoryPool,
    flat_clusters,
    format_dendrogram,
    generate_synthetic_pool,
    pairwise_distances,
    synthetic_pool,
    upgma_linkage,
)
from trajcurate.errors import DuplicateId, InvalidFlagValue, ParseError, UnknownId
from trajcurate.io import load_trajectories
from trajcurate.synth import CANONICAL_TAU, canonical_pool_spec

from helpers import (
    UnknownLeaf,
    check_dendrogram,
    cluster_members,
    cophenetic_distance,
    cophenetic_matrix,
    cut_oracle,
    members_by_label,
    random_condensed,
    refresh_partition,
    square_upgma_oracle,
    stationary_state,
    to_square,
    upgma_oracle,
    with_parked,
)

DATA = Path(__file__).parent / "data"
THREE_LEAF = CondensedDistanceMatrix(n=3, values=np.array([1.0, 5.0, 7.0]))


def assert_matches_oracle(tree, square, atol=1e-9):
    check_dendrogram(tree)
    expected = upgma_oracle(square)
    assert len(tree.merges) == len(expected)
    for got, (left, right, height, size) in zip(tree.merges, expected):
        assert (got.left, got.right, got.size) == (left, right, size)
        assert got.height == pytest.approx(height, abs=atol)


def test_single_pair():
    m = CondensedDistanceMatrix(n=2, values=np.array([7.0]))
    tree = upgma_linkage(m)
    assert tree.merges == (Merge(0, 1, 7.0, 2),)


def test_single_leaf():
    tree = upgma_linkage(CondensedDistanceMatrix(n=1, values=np.array([])))
    assert tree.n_leaves == 1 and tree.merges == ()


def test_three_leaf_hand_example():
    tree = upgma_linkage(THREE_LEAF)
    assert tree.merges[0] == Merge(0, 1, 1.0, 2)
    assert tree.merges[1].height == pytest.approx(6.0)
    assert (tree.merges[1].left, tree.merges[1].right, tree.merges[1].size) == (3, 2, 3)


def test_ten_leaf_instance_matches_oracle():
    rng = np.random.default_rng(42)
    m = random_condensed(rng, 10)
    assert_matches_oracle(upgma_linkage(m), to_square(m))


def test_tie_break_all_equal_distances():
    # every pair at 5: merges chain up from the smallest leaves
    n = 4
    m = CondensedDistanceMatrix(n=n, values=np.full(n * (n - 1) // 2, 5.0))
    tree = upgma_linkage(m)
    assert tree.merges == (
        Merge(0, 1, 5.0, 2),
        Merge(4, 2, 5.0, 3),
        Merge(5, 3, 5.0, 4),
    )
    assert_matches_oracle(tree, to_square(m))


def test_cophenetic_basics():
    tree = upgma_linkage(THREE_LEAF)
    assert cophenetic_distance(tree, 1, 1) == 0.0
    assert cophenetic_distance(tree, 0, 1) == 1.0
    assert cophenetic_distance(tree, 0, 2) == 6.0
    assert cophenetic_distance(tree, 2, 0) == 6.0
    with pytest.raises(UnknownLeaf):
        cophenetic_distance(tree, 0, 3)
    with pytest.raises(UnknownLeaf):
        cophenetic_distance(tree, -1, 0)


def test_cophenetic_matrix_agrees_with_pointwise():
    rng = np.random.default_rng(7)
    m = random_condensed(rng, 12)
    tree = upgma_linkage(m)
    coph = cophenetic_matrix(tree)
    for i in range(12):
        for j in range(12):
            assert coph[i, j] == cophenetic_distance(tree, i, j)


def test_flat_clusters_extremes():
    tree = upgma_linkage(THREE_LEAF)
    whole = flat_clusters(tree, tau=6.0)
    assert set(whole.assignments.values()) == {0}
    shattered = flat_clusters(tree, tau=0.5)
    assert sorted(shattered.assignments.values()) == [0, 1, 2]
    assert shattered.singletons == {0, 1, 2}
    assert shattered.novel_clusters == frozenset()


@pytest.mark.parametrize("tau", [-1.0, float("nan"), True])
def test_flat_clusters_rejects_bad_tau(tau):
    with pytest.raises(InvalidFlagValue):
        flat_clusters(upgma_linkage(THREE_LEAF), tau)


def test_flat_clusters_rejects_a_leaf_id_count_other_than_the_leaves():
    with pytest.raises(ParseError, match="expected 3 leaf ids, got 2"):
        flat_clusters(upgma_linkage(THREE_LEAF), 2.0, leaf_ids=["A", "B"])


def test_flat_clusters_three_leaf_split():
    tree = upgma_linkage(THREE_LEAF)
    p = flat_clusters(tree, tau=2.0, leaf_ids=["A", "B", "C"])
    assert p.assignments == {"A": 0, "B": 0, "C": 1}
    assert p.novel_clusters == {0}
    assert p.singletons == {"C"}
    assert p.familiar_clusters == frozenset()
    assert cluster_members(p, 0) == ("A", "B")


def test_flat_cluster_boundary_inclusive():
    tree = upgma_linkage(THREE_LEAF)
    p = flat_clusters(tree, tau=1.0)
    assert p.assignments[0] == p.assignments[1]
    assert p.assignments[2] != p.assignments[0]


def test_flat_clusters_labeled_split():
    tree = upgma_linkage(THREE_LEAF)
    p = flat_clusters(tree, tau=2.0, labeled_ids={"A"}, leaf_ids=["A", "B", "C"])
    assert p.familiar_clusters == {0}
    assert p.novel_clusters == frozenset()
    assert p.singletons == {"C"}
    assert [m for m in cluster_members(p, 0) if m not in p.labeled_ids] == ["B"]
    assert p.labeled_rows.tolist() == [True, False, False]


def test_refresh_partition_cases():
    tree = upgma_linkage(THREE_LEAF)
    p = flat_clusters(tree, tau=2.0, leaf_ids=["A", "B", "C"])
    assert refresh_partition(p, []) == p
    # labeling one member of a novel cluster moves it to familiar
    p1 = refresh_partition(p, ["B"])
    assert p1.novel_clusters == frozenset()
    assert p1.familiar_clusters == {0}
    assert p1.singletons == {"C"}
    # labeling a singleton removes it from the novel side entirely
    p2 = refresh_partition(p, ["C"])
    assert p2.singletons == frozenset()
    assert p2.familiar_clusters == {1}
    assert p2.novel_clusters == {0}
    with pytest.raises(UnknownId):
        refresh_partition(p, ["Z"])


def test_refresh_equals_recut_with_grown_labels():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(4, 30))
        m = random_condensed(rng, n)
        tree = upgma_linkage(m)
        tau = float(rng.uniform(1, 10))
        labels0 = {int(i) for i in rng.choice(n, size=n // 4, replace=False)}
        extra = {int(i) for i in rng.choice(n, size=n // 5, replace=False)}
        p = flat_clusters(tree, tau, labeled_ids=labels0)
        merged = flat_clusters(tree, tau, labeled_ids=labels0 | extra)
        refreshed = refresh_partition(p, extra)
        assert refreshed.novel_clusters == merged.novel_clusters
        assert refreshed.singletons == merged.singletons
        assert refreshed.familiar_clusters == merged.familiar_clusters


def test_members_by_label_groups_assignments_once():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        tree = upgma_linkage(random_condensed(rng, n))
        leaf_ids = [f"id{int(k):03d}" for k in rng.permutation(n)]
        p = flat_clusters(tree, float(rng.uniform(1, 10)), leaf_ids=leaf_ids)
        groups: dict[int, list] = {}
        for id_, label in p.assignments.items():
            groups.setdefault(label, []).append(id_)
        want = {label: tuple(sorted(ids)) for label, ids in groups.items()}
        assert dict(members_by_label(p)) == want
        assert list(members_by_label(p)) == list(want)
        # the same cut over rows in id order
        assert p.rows.ids == tuple(sorted(leaf_ids))
        assert p.rows.labels.tolist() == [p.assignments[i] for i in p.rows.ids]
        assert [tuple(p.rows.ids[r] for r in m) for m in p.rows.members] == list(want.values())
        assert p.rows.sizes.tolist() == [len(m) for m in want.values()]
        refreshed = refresh_partition(p, leaf_ids[: n // 3])
        assert refreshed.rows is p.rows
        with pytest.raises(ValueError):
            p.rows.labels[0] = 0


def test_flat_clusters_rejects_repeated_leaf_ids():
    with pytest.raises(DuplicateId):
        flat_clusters(upgma_linkage(THREE_LEAF), 2.0, leaf_ids=["A", "B", "A"])


def test_within_cluster_bound_and_maximality():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        m = random_condensed(rng, n)
        tree = upgma_linkage(m)
        heights = [mg.height for mg in tree.merges]
        tau = float(rng.choice([rng.uniform(0, max(heights)), heights[len(heights) // 2]]))
        p = flat_clusters(tree, tau)
        coph = cophenetic_matrix(tree)
        labels = p.assignments
        for i in range(n):
            for j in range(i + 1, n):
                if labels[i] == labels[j]:
                    assert coph[i, j] <= tau
        # maximality: distinct clusters join above tau
        reps: dict[int, int] = {}
        for leaf, lab in labels.items():
            reps.setdefault(lab, leaf)
        rep_list = sorted(reps.values())
        for x in rep_list:
            for y in rep_list:
                if x < y:
                    assert coph[x, y] > tau


def test_merge_height_monotonicity():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        tree = upgma_linkage(random_condensed(rng, n))
        heights = [m.height for m in tree.merges]
        assert all(a <= b for a, b in zip(heights, heights[1:]))


@given(n=st.integers(2, 12), seed=st.integers(0, 2**16))
@settings(max_examples=40)
def test_linkage_matches_oracle_property(n, seed):
    rng = np.random.default_rng(seed)
    m = random_condensed(rng, n)
    assert_matches_oracle(upgma_linkage(m), to_square(m))


def _tie_plateau_states():
    # duplicate trajectory-states produce exact zero-distance ties
    return [stationary_state(f"d{i}", 0.0) for i in range(4)] + [
        stationary_state(f"e{i}", 50.0) for i in range(2)
    ]


def test_upgma_duplicate_states_tie_plateau():
    # the documented tie-break must still give one reproducible topology
    states = _tie_plateau_states()
    m = pairwise_distances(states)
    tree = upgma_linkage(m)
    assert upgma_linkage(m) == tree
    heights = [mg.height for mg in tree.merges]
    assert heights[:4] == [0.0, 0.0, 0.0, 0.0]
    assert heights[4] == pytest.approx(600.0)
    assert all(a <= b for a, b in zip(heights, heights[1:]))
    assert_matches_oracle(tree, to_square(m))
    # all duplicates land in one flat cluster even at tau = 0
    p = flat_clusters(tree, 0.0, leaf_ids=[s.id for s in states])
    assert p.assignments["d0"] == p.assignments["d3"]
    assert p.assignments["e0"] == p.assignments["e1"]
    assert p.assignments["d0"] != p.assignments["e0"]


def test_condensed_linkage_equals_square_oracle_random():
    # integer and 1/8-step values make ties and tie plateaus common
    rng = np.random.default_rng(2024)
    for trial in range(400):
        n = int(rng.integers(1, 61))
        count = n * (n - 1) // 2
        kind = trial % 3
        if kind == 0:
            values = rng.integers(0, 4, count).astype(np.float64)
        elif kind == 1:
            values = rng.integers(0, 25, count) / 8.0
        else:
            values = rng.uniform(0.0, 10.0, count)
        m = CondensedDistanceMatrix(n=n, values=values)
        assert check_dendrogram(upgma_linkage(m)) == square_upgma_oracle(m), (trial, n, kind)


_ORACLE_POOLS = {
    "canonical-2k": lambda: generate_synthetic_pool(canonical_pool_spec(2000)),
    "tie-plateau": _tie_plateau_states,
    # 200 exact duplicates: the linkage settles their ties from one row,
    # the oracle gathers every tied pair and sorts by the full key
    "tie-heavy": lambda: with_parked(synthetic_pool(canonical_pool_spec(300)), 200),
}


@pytest.mark.parametrize("pool", list(_ORACLE_POOLS))
def test_condensed_linkage_equals_square_oracle_pools(pool):
    m = pairwise_distances(_ORACLE_POOLS[pool]())
    assert check_dendrogram(upgma_linkage(m)) == square_upgma_oracle(m)


@pytest.mark.parametrize("tau", [10.0, CANONICAL_TAU])
def test_linkage_matches_scipy_average_at_2k(tau):
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    states = generate_synthetic_pool(canonical_pool_spec(2000))
    m = pairwise_distances(states)
    assert len(np.unique(m.values)) == len(m.values), "the data must be tie-free"
    tree = upgma_linkage(m)
    z = hierarchy.linkage(m.values, method="average")
    heights = np.array([mg.height for mg in tree.merges])
    np.testing.assert_allclose(heights, z[:, 2], rtol=1e-9, atol=0.0)
    ours = flat_clusters(tree, tau).assignments
    theirs = hierarchy.fcluster(z, t=tau, criterion="distance")
    pairs = {(ours[i], int(theirs[i])) for i in range(m.n)}
    assert len(pairs) == len(set(ours.values())) == len(set(theirs.tolist()))
    assert len(pairs) > 1


def assert_cut_equals_oracle(tree, tau, labeled, ids):
    got = flat_clusters(tree, tau, labeled_ids=labeled, leaf_ids=ids)
    want = cut_oracle(tree, tau, labeled_ids=labeled, leaf_ids=ids)
    assert got == want
    assert list(got.assignments.items()) == list(want.assignments.items())
    assert got.rows.ids == want.rows.ids
    assert got.rows.labels.tolist() == want.rows.labels.tolist()
    assert list(map(list, got.rows.members)) == list(map(list, want.rows.members))
    assert got.rows.sizes.tolist() == want.rows.sizes.tolist()


_CUT_POOLS = {
    "canonical-2k": lambda: synthetic_pool(canonical_pool_spec(2000)),
    "pool-400": lambda: load_trajectories(DATA / "pool-400.jsonl"),
    "tie-heavy": lambda: with_parked(synthetic_pool(canonical_pool_spec(540, seed=0)), 60),
}


@pytest.mark.parametrize("name", sorted(_CUT_POOLS))
def test_cut_equals_union_find_oracle(name):
    pool = _CUT_POOLS[name]()
    tree = upgma_linkage(pairwise_distances(pool), overwrite=True)
    heights = [m.height for m in tree.merges]
    # the cut is inclusive, so exact merge heights are the edge cases
    taus = [0.0, *(heights[k * len(heights) // 4] for k in range(1, 4)), heights[-1], np.inf]
    rng = np.random.default_rng(3)
    labeled = frozenset(rng.choice(pool.ids, len(pool) // 5, replace=False).tolist())
    for tau in taus:
        for lab in ((), labeled):
            assert_cut_equals_oracle(tree, tau, lab, pool.ids)


# a lattice record: stationary at grid point (x, y) with speed v, and
# whether it is labeled; 3 x 3 x 2 records make duplicates and ties common
_LATTICE = list(itertools.product(range(3), range(3), range(2), (False, True)))
_lattice_records = st.integers(2, 120).flatmap(
    lambda n: st.lists(st.sampled_from(_LATTICE), min_size=n, max_size=n)
)


@given(records=_lattice_records, pick=st.integers(0, 2**16))
@settings(max_examples=150)
# found by this test: a Lance-Williams average rounded an ulp below both of
# its terms, under a row's stored bound, so the linkage merged at 12.0125
# before a pair at 12.012499999999998 and the square oracle found no pair
@example(
    records=[(0, 0, 0, False), (0, 0, 1, False), (0, 1, 0, False), (1, 1, 0, False)]
    + [(1, 1, 1, False), (1, 2, 0, False), (1, 2, 0, False), (1, 2, 1, False)],
    pick=0,
)
@example(
    records=[(1, 1, 0, False), (1, 1, 1, False), (1, 0, 0, False), (1, 0, 0, False), (1, 0, 1, False)],
    pick=0,
)
def test_linkage_and_cut_equal_oracles_on_lattice_pools(records, pick):
    grid = np.array(records, dtype=np.float64)
    n = len(grid)
    ids = tuple(f"r{k:03d}" for k in range(n))
    dyn = np.zeros((n, 3))
    dyn[:, 0] = grid[:, 2]
    pool = TrajectoryPool.from_columns(ids, np.repeat(grid[:, None, :2], 12, axis=1), dyn)
    m = pairwise_distances(pool, workers=1)
    tree = check_dendrogram(upgma_linkage(m))
    assert tree == square_upgma_oracle(m)
    labeled = {id_ for id_, record in zip(ids, records) if record[3]}
    heights = [mg.height for mg in tree.merges]
    for tau in (0.0, heights[pick % len(heights)], np.inf):
        assert_cut_equals_oracle(tree, tau, labeled, ids)


def test_cophenetic_single_leaf():
    tree = upgma_linkage(CondensedDistanceMatrix(n=1, values=np.array([])))
    assert cophenetic_distance(tree, 0, 0) == 0.0


def test_dendrogram_validation():
    with pytest.raises(ParseError):  # missing a merge
        check_dendrogram(Dendrogram(3, (Merge(0, 1, 1.0, 2),)))
    with pytest.raises(ParseError):  # heights decrease
        check_dendrogram(Dendrogram(3, (Merge(0, 1, 2.0, 2), Merge(3, 2, 1.0, 3))))
    with pytest.raises(ParseError):  # child reused
        check_dendrogram(Dendrogram(3, (Merge(0, 0, 1.0, 2), Merge(3, 2, 2.0, 3))))
    with pytest.raises(ParseError):  # size wrong
        check_dendrogram(Dendrogram(3, (Merge(0, 1, 1.0, 3), Merge(3, 2, 2.0, 3))))


def test_format_dendrogram():
    tree = upgma_linkage(THREE_LEAF)
    text = format_dendrogram(tree)
    assert text.splitlines() == ["0 1 1 2", "3 2 6 3"]
    third = upgma_linkage(
        CondensedDistanceMatrix(n=2, values=np.array([1.0 / 3.0]))
    )
    assert format_dendrogram(third) == f"0 1 {1.0 / 3.0:.17g} 2\n"
