"""Shared test fixtures and the independent oracles: UPGMA (naive and on the
square matrix), square and cophenetic matrices, distance, k-NN surrogate,
per-score surrogate scoring, and the sampling round over id strings and
sets (novelty refresh, novel and familiar phases); the dendrogram
structure check; plus the pool and dendrogram lookups only tests use."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from trajcurate import (
    DEFAULT_WEIGHTS,
    ClusterPartition,
    CondensedDistanceMatrix,
    Dendrogram,
    ExperimentResult,
    Merge,
    MetricWeights,
    Selection,
    SelectionManifest,
    TrajectoryPool,
    TrajectoryState,
    flat_clusters,
    pairwise_distances,
    plan_experiment_grid,
    sampling_round,
    upgma_linkage,
)
from trajcurate.errors import CurationError, EmptyUnlabeledPool, ParseError, UnknownId
from trajcurate.sampling import (
    DEFAULT_GRID_ALPHAS,
    DEFAULT_GRID_BETAS,
    DEFAULT_GRID_BUDGETS,
    FALLBACK_STREAM,
    FAMILIAR_STREAM,
    NOVEL_STREAM,
    PHASE_FALLBACK,
    PHASE_FAMILIAR,
    PHASE_NOVEL_CLUSTER,
    PHASE_NOVEL_SINGLETON,
    SamplingConfig,
    cluster_cap,
    phase_rng,
    pool_partition,
    resolve_budget,
    round_half_up,
)
from trajcurate.metric import _distance
from trajcurate.surrogate import PREFIX_LEN


class UnknownLeaf(CurationError):
    """Leaf id is outside the dendrogram's leaf range."""


class EmptyTrainingPool(CurationError):
    """The nearest-neighbor surrogate needs a non-empty labeled pool."""


class NoPredictions(CurationError):
    """Displacement scoring needs at least one predicted trajectory."""


BASE_LINE = tuple((float(k), 0.0) for k in range(12))
# block side for mirroring the upper triangle in to_square
_MIRROR_BLOCK = 512


def make_state(id_, offset=(0.0, 0.0), v=0.0, a=0.0, h=0.0, points=BASE_LINE):
    ox, oy = offset
    return TrajectoryState(
        id=id_, points=tuple((x + ox, y + oy) for x, y in points), v=v, a=a, h=h
    )


def stationary_state(id_, x, y=0.0, v=0.0, a=0.0, h=0.0):
    """Constant-position trajectory: pairwise distance is 12x the offset."""
    return TrajectoryState(id=id_, points=tuple((x, y) for _ in range(12)), v=v, a=a, h=h)


def random_states(rng, n, scale=50.0):
    states = []
    for i in range(n):
        pts = rng.uniform(-scale, scale, size=(12, 2))
        v, a, h = rng.uniform(0, 20), rng.uniform(-5, 5), rng.uniform(-0.5, 0.5)
        states.append(
            TrajectoryState(
                id=f"r{i:04d}", points=tuple(map(tuple, pts)), v=v, a=a, h=h
            )
        )
    return states


def random_condensed(rng, n, lo=1.0, hi=10.0):
    values = rng.uniform(lo, hi, size=n * (n - 1) // 2)
    return CondensedDistanceMatrix(n=n, values=values)


def reference_distance(a, b, w=DEFAULT_WEIGHTS, prefix_len=12):
    """Loop-and-math trajectory-state distance over the first ``prefix_len`` points.

    Timestep terms are summed in the kernel's documented order: left to
    right below 8 terms, else the first eight as
    ``((t0+t1)+(t2+t3)) + ((t4+t5)+(t6+t7))`` and the rest left to right.
    """
    terms = [
        math.sqrt((ax - bx) * (ax - bx) + (ay - by) * (ay - by))
        for (ax, ay), (bx, by) in zip(a.points[:prefix_len], b.points[:prefix_len])
    ]
    total = 0.0
    if len(terms) >= 8:
        t = terms
        total = ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]))
        terms = terms[8:]
    for term in terms:
        total += term
    return total + w.k_a * abs(a.a - b.a) + w.k_v * abs(a.v - b.v) + w.k_h * abs(a.h - b.h)


def sum_distance_oracle(pa, da, pb, db, w=DEFAULT_WEIGHTS, prefix_len=12):
    """The distance through numpy's own ``.sum`` reductions, the form that
    made the earlier artifacts; the kernel must equal it bit for bit."""
    d = np.sqrt(((pa[..., :prefix_len, :] - pb[..., :prefix_len, :]) ** 2).sum(axis=-1))
    d = d.sum(axis=-1)
    d += w.k_a * np.abs(da[..., 1] - db[..., 1])
    d += w.k_v * np.abs(da[..., 0] - db[..., 0])
    d += w.k_h * np.abs(da[..., 2] - db[..., 2])
    return d


def pairwise_oracle(pts, dyn, w=DEFAULT_WEIGHTS):
    """Condensed matrix built one row at a time through ``sum_distance_oracle``."""
    n = len(pts)
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        row = sum_distance_oracle(pts[i + 1 :], dyn[i + 1 :], pts[i], dyn[i], w)
        out[pos : pos + n - 1 - i] = row
        pos += n - 1 - i
    return out


@dataclass(frozen=True)
class ObservedPrefix:
    """What the surrogate sees of a query: 2 points plus (v, a, h)."""

    points: tuple[tuple[float, float], ...]
    v: float
    a: float
    h: float

    @classmethod
    def from_state(cls, s: TrajectoryState) -> "ObservedPrefix":
        return cls(points=s.points[:PREFIX_LEN], v=s.v, a=s.a, h=s.h)


def prefix_distance(
    q: ObservedPrefix, s: TrajectoryState, w: MetricWeights = DEFAULT_WEIGHTS
) -> float:
    """The trajectory-state distance restricted to the observable prefix."""
    qp = np.asarray(q.points, dtype=np.float64)
    sp = np.asarray(s.points[:PREFIX_LEN], dtype=np.float64)
    total = np.sqrt(((qp - sp) ** 2).sum(axis=1)).sum()
    total = total + w.k_a * abs(q.a - s.a)
    total = total + w.k_v * abs(q.v - s.v)
    total = total + w.k_h * abs(q.h - s.h)
    return float(total)


def knn_predict(
    query: ObservedPrefix | TrajectoryState,
    labeled: Sequence[TrajectoryState],
    k_modes: int,
    w: MetricWeights = DEFAULT_WEIGHTS,
) -> list[np.ndarray]:
    """Full trajectories of the nearest labeled neighbors, nearest first.

    Returns min(k_modes, len(labeled)) modes; prefix-distance ties are
    broken by id so the mode order is deterministic.
    """
    if isinstance(query, TrajectoryState):
        query = ObservedPrefix.from_state(query)
    if not labeled:
        raise EmptyTrainingPool("knn_predict needs at least one labeled trajectory")
    if k_modes < 1:
        raise ValueError(f"k_modes must be >= 1, got {k_modes}")
    ranked = sorted(labeled, key=lambda s: (prefix_distance(query, s, w), s.id))
    return [np.asarray(s.points, dtype=np.float64) for s in ranked[:k_modes]]


def min_ade_k(
    predictions: Sequence[np.ndarray], truth: Sequence[Sequence[float]], k: int
) -> float:
    """Minimum average displacement error over the first K modes."""
    if len(predictions) == 0:
        raise NoPredictions("min_ade_k needs at least one prediction")
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    truth_arr = np.asarray(truth, dtype=np.float64)
    best = np.inf
    for pred in list(predictions)[:k]:
        pred_arr = np.asarray(pred, dtype=np.float64)
        if pred_arr.shape != truth_arr.shape:
            raise ParseError(
                f"prediction shape {pred_arr.shape} != truth shape {truth_arr.shape}"
            )
        ade = float(np.sqrt(((pred_arr - truth_arr) ** 2).sum(axis=1)).mean())
        best = min(best, ade)
    return best


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
    lp, ld = train.points[labeled_rows], train.dyn[labeled_rows]
    dist = _distance(qp[:, None], qd[:, None], lp[None], ld[None], w, PREFIX_LEN)

    k = min(k_modes, len(labeled_rows))
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    modes = lp[order]  # (nq, k, 12, 2)
    ade = np.sqrt(((modes - qp[:, None, :, :]) ** 2).sum(axis=3)).mean(axis=2)
    made5 = float(ade[:, : min(5, k)].min(axis=1).mean())
    made10 = float(ade[:, : min(10, k)].min(axis=1).mean())
    return made5, made10


def experiment_cells(result: ExperimentResult) -> tuple[tuple[float, float, float], ...]:
    """The (budget, alpha, beta) cells of an experiment, sorted."""
    return tuple(sorted({(r.budget, r.alpha, r.beta) for r in result.rows}))


def improvement_over_random(
    result: ExperimentResult,
) -> tuple[tuple[float, float, float, float, float, int], ...]:
    """Per cell: (budget, alpha, beta, delta5, delta10, n_seeds).

    Deltas are random minus active mean minADE, so positive means the
    strategy beat the baseline.
    """
    groups: dict[tuple, list] = {}
    for r in result.rows:
        groups.setdefault((r.budget, r.alpha, r.beta, r.strategy), []).append(r)
    out = []
    for cell in experiment_cells(result):
        active, random_ = groups[cell + ("active",)], groups[cell + ("random",)]
        delta5 = np.mean([r.made5 for r in random_]) - np.mean([r.made5 for r in active])
        delta10 = np.mean([r.made10 for r in random_]) - np.mean([r.made10 for r in active])
        out.append(cell + (float(delta5), float(delta10), len(active)))
    return tuple(out)


def upgma_oracle(square):
    """Naive average-linkage oracle: recompute every cluster-pair mean each step.

    Independent of the production path: block means come straight from the
    base matrix instead of a Lance-Williams recursion. Tie-break and child
    ordering follow the documented rules (lexicographically smallest
    (min member, max member), then the larger of the two cluster minima;
    left child is the one with the smaller minimum member).
    Returns a list of (left, right, height, size) tuples.
    """
    d0 = np.asarray(square, dtype=np.float64)
    n = d0.shape[0]
    members = {i: [i] for i in range(n)}
    merges = []
    next_node = n
    while len(members) > 1:
        act = sorted(members)
        k = len(act)
        ind = np.zeros((k, n))
        for r, nid in enumerate(act):
            ind[r, members[nid]] = 1.0
        sums = ind @ d0 @ ind.T
        sizes = ind.sum(axis=1)
        means = sums / np.outer(sizes, sizes)
        np.fill_diagonal(means, np.inf)
        h = means.min()
        best = None
        # blas matmuls are not exactly symmetric; treat pairs as unordered
        for r, c in np.argwhere(means == h):
            if r > c:
                r, c = c, r
            ma, mb = members[act[r]], members[act[c]]
            key = (min(ma[0], mb[0]), max(ma[-1], mb[-1]), max(ma[0], mb[0]))
            if best is None or key < best[0]:
                best = (key, act[r], act[c])
        _, a, b = best
        ma, mb = members.pop(a), members.pop(b)
        left, right = (a, b) if ma[0] <= mb[0] else (b, a)
        merges.append((left, right, float(h), len(ma) + len(mb)))
        members[next_node] = sorted(ma + mb)
        next_node += 1
    return merges


def to_square(m: CondensedDistanceMatrix) -> np.ndarray:
    """Materialize the full symmetric matrix (zero diagonal).

    Upper rows are contiguous copies; the lower triangle is mirrored in
    square blocks, so the strided writes stay in cache and no second
    n x n temporary is made.
    """
    n = m.n
    out = np.zeros((n, n))
    pos = 0
    for i in range(n - 1):
        cnt = n - 1 - i
        out[i, i + 1 :] = m.values[pos : pos + cnt]
        pos += cnt
    for i0 in range(0, n, _MIRROR_BLOCK):
        i1 = min(i0 + _MIRROR_BLOCK, n)
        diag = out[i0:i1, i0:i1]
        diag += np.triu(diag, 1).T
        for j0 in range(i1, n, _MIRROR_BLOCK):
            j1 = min(j0 + _MIRROR_BLOCK, n)
            out[j0:j1, i0:i1] = out[i0:i1, j0:j1].T
    return out


def check_dendrogram(t: Dendrogram) -> Dendrogram:
    """Raise ``ParseError`` unless ``t`` is a well-formed UPGMA dendrogram:
    n - 1 merges, each consuming two earlier nodes not yet consumed, with
    finite, non-negative, non-decreasing heights and sizes that add up.
    Returns ``t``."""
    n = t.n_leaves
    merges = t.merges
    if n < 1 or len(merges) != n - 1:
        raise ParseError(f"{n} leaves need {n - 1} merges, got {len(merges)}")
    sizes = {i: 1 for i in range(n)}
    consumed: set[int] = set()
    prev = 0.0
    for k, (left, right, height, size) in enumerate(merges):
        node = n + k
        for child in (left, right):
            if child < 0 or child >= node or child in consumed:
                raise ParseError(f"merge {k} consumes invalid or reused node {child}")
            consumed.add(child)
        if height < prev or not np.isfinite(height) or height < 0.0:
            raise ParseError(f"merge {k} height {height} breaks monotonicity")
        prev = height
        if sizes[left] + sizes[right] != size:
            raise ParseError(f"merge {k} size {size} != {sizes[left]} + {sizes[right]}")
        sizes[node] = size
    return t


def cophenetic_matrix(t: Dendrogram) -> np.ndarray:
    """All-pairs cophenetic distances as a full square matrix."""
    n = t.n_leaves
    out = np.zeros((n, n))
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for k, m in enumerate(t.merges):
        a, b = members.pop(m.left), members.pop(m.right)
        out[np.ix_(a, b)] = m.height
        out[np.ix_(b, a)] = m.height
        members[n + k] = a + b
    return out


def cophenetic_distance(t: Dendrogram, i: int, j: int) -> float:
    """Height of the lowest merge containing both leaves; 0 when i == j."""
    n = t.n_leaves
    for leaf in (i, j):
        if not (isinstance(leaf, (int, np.integer)) and 0 <= leaf < n):
            raise UnknownLeaf(f"leaf {leaf!r} outside 0..{n - 1}")
    if i == j:
        return 0.0
    parents = np.full(2 * n - 1, -1, dtype=np.int64)
    for k, m in enumerate(t.merges):
        parents[m.left] = parents[m.right] = n + k
    ancestors: set[int] = set()
    node = int(i)
    while node != -1:
        ancestors.add(node)
        node = int(parents[node])
    node = int(j)
    while node not in ancestors:
        node = int(parents[node])
    return t.merges[node - n].height


def pool_row(pool: TrajectoryPool, id_: str) -> int:
    """Row of ``id_`` in the pool's columns."""
    try:
        return pool.ids.index(id_)
    except ValueError:
        raise UnknownId(f"no trajectory with id {id_!r}") from None


def by_id(pool: TrajectoryPool, id_: str) -> TrajectoryState:
    return pool.items[pool_row(pool, id_)]


def with_labeled(pool: TrajectoryPool, extra: Iterable[str]) -> TrajectoryPool:
    """A copy of ``pool`` with ``extra`` ids moved into the labeled set."""
    return TrajectoryPool.from_columns(
        pool.ids, pool.points, pool.dyn, pool.labeled_ids | frozenset(extra)
    )


def square_upgma_oracle(d: CondensedDistanceMatrix) -> Dendrogram:
    """UPGMA with the greedy row-minimum search on the full square matrix.

    The linkage as it ran before it moved onto the condensed vector: same
    Lance-Williams update, clamp and tie rule, with whole-row minima as
    lower bounds and every row and column of the merged pair rewritten.
    Merge heights are the same floats, so dendrograms compare with ``==``.
    The tie key is written out here, as in ``upgma_oracle``, rather than
    taken from the package.
    """
    n = d.n
    if n == 1:
        return Dendrogram(1, ())

    D = to_square(d)
    np.fill_diagonal(D, np.inf)
    rowmin = D.min(axis=1)

    size = np.ones(n, dtype=np.int64)
    node = np.arange(n, dtype=np.int64)
    minleaf = np.arange(n, dtype=np.int64)
    maxleaf = np.arange(n, dtype=np.int64)
    merges: list[Merge] = []

    for step in range(n - 1):
        while True:
            i0 = int(np.argmin(rowmin))
            fresh = D[i0].min()
            if fresh == rowmin[i0]:
                h = float(fresh)
                break
            rowmin[i0] = fresh
        pairs: list[tuple[int, int]] = []
        for r in np.where(rowmin <= h)[0]:
            row = D[r]
            fresh = row.min()
            rowmin[r] = fresh
            if fresh == h:
                for c in np.where(row == h)[0]:
                    if c > r:
                        pairs.append((int(r), int(c)))
        A, B = min(
            pairs,
            key=lambda p: (
                min(minleaf[p[0]], minleaf[p[1]]),
                max(maxleaf[p[0]], maxleaf[p[1]]),
                max(minleaf[p[0]], minleaf[p[1]]),
            ),
        )

        if minleaf[A] <= minleaf[B]:
            left, right = int(node[A]), int(node[B])
        else:
            left, right = int(node[B]), int(node[A])
        new_size = int(size[A] + size[B])
        merges.append(Merge(left, right, h, new_size))

        new_row = (size[A] * D[A] + size[B] * D[B]) / new_size
        np.maximum(new_row, h, out=new_row)
        new_row[A] = np.inf
        new_row[B] = np.inf
        D[A] = new_row
        D[:, A] = new_row
        D[B] = np.inf
        D[:, B] = np.inf
        rowmin[A] = new_row.min()
        rowmin[B] = np.inf

        size[A] = new_size
        node[A] = n + step
        minleaf[A] = min(minleaf[A], minleaf[B])
        maxleaf[A] = max(maxleaf[A], maxleaf[B])

    return Dendrogram(n_leaves=n, merges=tuple(merges))


def structured_pool(rng):
    """Pool with far-apart groups so flat clusters at tau=10 are the groups."""
    n_groups = int(rng.integers(2, 7))
    items, group_ids = [], []
    for g in range(n_groups):
        size = int(rng.integers(1, 9))
        ids = []
        for i in range(size):
            sid = f"g{g}i{i}"
            items.append(stationary_state(sid, x=g * 100.0 + 0.05 * i))
            ids.append(sid)
        group_ids.append(ids)
    all_ids = [s.id for s in items]
    labeled = frozenset(i for i in all_ids if rng.random() < 0.25)
    if labeled == set(all_ids):  # keep at least one unlabeled
        labeled = labeled - {sorted(labeled)[0]}
    return TrajectoryPool(tuple(items), labeled)


ALPHA_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
BETA_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)


def check_round_invariants(fix_seed, check_determinism=False):
    """One randomized sampling-round fixture; asserts the invariant suite."""
    rng = np.random.default_rng(fix_seed)
    pool = structured_pool(rng)
    alpha = float(rng.choice(ALPHA_GRID))
    beta = float(rng.choice(BETA_GRID))
    n_unlabeled = len(pool.unlabeled_ids)
    budget = int(rng.integers(1, len(pool.items) + 4))
    cfg = SamplingConfig(
        alpha=alpha, beta=beta, budget=budget, tau=10.0, seed=int(rng.integers(2**32))
    )
    manifest = sampling_round(pool, cfg)

    # budget exactness
    assert len(manifest.selected) == min(budget, n_unlabeled)
    # purity: distinct ids, all unlabeled at round start
    ids = [s.id for s in manifest.selected]
    assert len(set(ids)) == len(ids)
    assert set(ids) <= pool.unlabeled_ids
    # quota arithmetic
    assert manifest.novel_quota == round_half_up(alpha * budget)
    assert manifest.novel_quota + manifest.familiar_quota == budget

    part = flat_clusters(
        upgma_linkage(pairwise_distances(pool.items, cfg.weights)),
        cfg.tau,
        labeled_ids=pool.labeled_ids,
        leaf_ids=[s.id for s in pool.items],
    )
    novel = [s for s in manifest.selected if s.phase.startswith("novel")]
    # novel depth cap, one visit per cluster
    per_cluster: dict[int, int] = {}
    for s in novel:
        per_cluster[s.cluster] = per_cluster.get(s.cluster, 0) + 1
    for label, count in per_cluster.items():
        assert count <= cluster_cap(beta, part.cluster_size(label))
    # novel picks come from the novel side of the start-of-round partition
    for s in novel:
        if s.phase == PHASE_NOVEL_CLUSTER:
            assert s.cluster in part.novel_clusters
        else:
            assert s.phase == PHASE_NOVEL_SINGLETON and s.id in part.singletons
    # novel-fraction accounting when supply sufficed
    if manifest.novel_shortfall == 0:
        assert len(novel) == manifest.novel_quota
    # familiar picks come from familiar clusters of the refreshed partition
    refreshed = refresh_partition(part, [s.id for s in novel])
    for s in manifest.selected:
        if s.phase == PHASE_FAMILIAR:
            assert s.cluster in refreshed.familiar_clusters
    # alpha extremes degenerate to one phase (plus fallback)
    phases = {s.phase for s in manifest.selected}
    if alpha == 0.0:
        assert PHASE_NOVEL_CLUSTER not in phases and PHASE_NOVEL_SINGLETON not in phases
    if alpha == 1.0:
        assert PHASE_FAMILIAR not in phases
    # fallback only fills shortfalls
    n_fallback = sum(1 for s in manifest.selected if s.phase == PHASE_FALLBACK)
    assert n_fallback <= manifest.novel_shortfall + manifest.familiar_shortfall

    if check_determinism:
        assert sampling_round(pool, cfg) == manifest
    return manifest


def members_by_label(p: ClusterPartition) -> Mapping[int, tuple]:
    """Each label's member ids, sorted: the id view of ``p.rows``."""
    labels = range(len(p.rows.sizes))
    return MappingProxyType({label: cluster_members(p, label) for label in labels})


def cluster_members(p: ClusterPartition, label: int) -> tuple:
    return tuple(map(p.rows.ids.__getitem__, p.rows.members[label].tolist()))


def _split_novelty(
    members_by_label: Mapping[int, Sequence], labeled: frozenset
) -> tuple[frozenset, frozenset, frozenset]:
    novel, single, familiar = set(), set(), set()
    for label, members in members_by_label.items():
        has_labeled = any(m in labeled for m in members)
        if has_labeled:
            familiar.add(label)
        elif len(members) >= 2:
            novel.add(label)
        else:
            single.add(members[0])
    return frozenset(novel), frozenset(single), frozenset(familiar)


def refresh_partition(p: ClusterPartition, newly_labeled: Iterable) -> ClusterPartition:
    """Re-split novelty after ids were labeled mid-round, without re-clustering."""
    new = frozenset(newly_labeled)
    unknown = new - set(p.assignments)
    if unknown:
        raise UnknownId(f"ids not in partition: {sorted(unknown)[:5]}")
    labeled = p.labeled_ids | new
    novel, single, familiar = _split_novelty(members_by_label(p), labeled)
    return ClusterPartition(
        assignments=p.assignments,
        novel_clusters=novel,
        singletons=single,
        familiar_clusters=familiar,
        tau=p.tau,
        labeled_ids=labeled,
        rows=p.rows,
    )


def sample_novel(
    p: ClusterPartition,
    unlabeled: Iterable,
    quota: int,
    beta: float,
    rng: np.random.Generator,
) -> tuple[list, int]:
    """Draw up to ``quota`` ids from novel clusters and singletons.

    Candidates (cluster labels and singleton ids) are picked uniformly
    without replacement; a cluster pick contributes up to its beta cap of
    members, chosen uniformly, and is then out of the running for the rest
    of the round. Returns (ids, shortfall).
    """
    unlabeled = set(unlabeled)
    candidates: list[tuple[str, object]] = [
        ("c", label) for label in sorted(p.novel_clusters)
    ] + [("s", sid) for sid in sorted(p.singletons)]
    picked: list = []
    while quota - len(picked) > 0 and candidates:
        k = int(rng.integers(len(candidates)))
        kind, ref = candidates.pop(k)
        if kind == "s":
            if ref in unlabeled:
                picked.append(ref)
            continue
        members = [m for m in cluster_members(p, ref) if m in unlabeled]
        if not members:
            continue
        cap = cluster_cap(beta, p.cluster_size(ref))
        take = min(cap, quota - len(picked), len(members))
        order = rng.permutation(len(members))[:take]
        picked.extend(members[i] for i in order)
    return picked, quota - len(picked)


def sample_familiar(
    p: ClusterPartition,
    unlabeled: Iterable,
    quota: int,
    beta: float,
    rng: np.random.Generator,
    _pass_log: list | None = None,
) -> tuple[list, int]:
    """Draw up to ``quota`` ids from familiar clusters in repeated passes.

    Each pass shuffles the clusters that still hold unlabeled members and
    draws up to the beta cap from each; passes repeat until the quota is
    met or no unlabeled member remains. ``_pass_log`` (tests only) records
    (pass index, label, count) triples.
    """
    remaining = set(unlabeled)
    picked: list = []
    pass_idx = 0
    while quota - len(picked) > 0:
        eligible = [
            label
            for label in sorted(p.familiar_clusters)
            if any(m in remaining for m in cluster_members(p, label))
        ]
        if not eligible:
            break
        order = rng.permutation(len(eligible))
        for k in order:
            label = eligible[int(k)]
            members = [m for m in cluster_members(p, label) if m in remaining]
            if not members:
                continue
            cap = cluster_cap(beta, p.cluster_size(label))
            take = min(cap, quota - len(picked), len(members))
            chosen = rng.permutation(len(members))[:take]
            for i in chosen:
                picked.append(members[int(i)])
                remaining.discard(members[int(i)])
            if _pass_log is not None:
                _pass_log.append((pass_idx, label, take))
            if quota - len(picked) <= 0:
                break
        pass_idx += 1
    return picked, quota - len(picked)


def id_space_round(
    pool: TrajectoryPool,
    cfg: SamplingConfig,
    round_index: int = 0,
    partition: ClusterPartition | None = None,
) -> SelectionManifest:
    """The sampling round over sorted id strings and sets, as it ran before
    the rank-row engine: ``sampling_round`` must give an equal manifest.

    Clusters the whole pool at cfg.tau, runs the novel phase, marks its
    picks as labeled, runs the familiar phase, then fills any shortfall
    from the remaining unlabeled pool. ``partition`` may supply the cut
    ``pool_partition(pool, cfg)`` would make (experiment harnesses reuse
    one across seeds); when omitted it is computed here.
    """
    unlabeled = sorted(pool.unlabeled_ids)
    if not unlabeled:
        raise EmptyUnlabeledPool("no unlabeled trajectory-states to sample")
    budget = resolve_budget(cfg.budget, len(unlabeled))

    part = partition
    if part is None:
        part = pool_partition(pool, cfg)
    elif part.tau != cfg.tau:
        raise ParseError(f"partition was cut at tau {part.tau}, config has tau {cfg.tau}")
    elif part.assignments.keys() != set(pool.ids):
        raise ParseError("partition leaves are not the pool's ids")
    elif part.labeled_ids != pool.labeled_ids:
        raise ParseError("partition labeled set is not the pool's")

    novel_quota = round_half_up(cfg.alpha * budget)
    familiar_quota = budget - novel_quota

    novel_ids, novel_short = sample_novel(
        part, unlabeled, novel_quota, cfg.beta, phase_rng(cfg.seed, NOVEL_STREAM)
    )
    part_after = refresh_partition(part, novel_ids)
    novel_set = set(novel_ids)
    remaining = [i for i in unlabeled if i not in novel_set]
    familiar_ids, familiar_short = sample_familiar(
        part_after,
        remaining,
        familiar_quota,
        cfg.beta,
        phase_rng(cfg.seed, FAMILIAR_STREAM),
    )

    taken = set(novel_ids) | set(familiar_ids)
    leftovers = [i for i in unlabeled if i not in taken]
    need = min(novel_short + familiar_short, len(leftovers))
    rng = phase_rng(cfg.seed, FALLBACK_STREAM)
    fallback_ids = [leftovers[int(i)] for i in rng.permutation(len(leftovers))[:need]]

    selected = []
    for sid in novel_ids:
        label = part.assignments[sid]
        phase = (
            PHASE_NOVEL_SINGLETON if part.cluster_size(label) == 1 else PHASE_NOVEL_CLUSTER
        )
        selected.append(Selection(sid, phase, label))
    selected += [Selection(sid, PHASE_FAMILIAR, part.assignments[sid]) for sid in familiar_ids]
    selected += [Selection(sid, PHASE_FALLBACK, part.assignments[sid]) for sid in fallback_ids]

    return SelectionManifest(
        round_index=round_index,
        config=cfg,
        seed=cfg.seed,
        budget_resolved=budget,
        novel_quota=novel_quota,
        familiar_quota=familiar_quota,
        novel_shortfall=novel_short,
        familiar_shortfall=familiar_short,
        selected=tuple(selected),
    )


def default_experiment_grid(
    tau: float = 10.0,
    weights: MetricWeights = DEFAULT_WEIGHTS,
    seed: int = 0,
) -> tuple[SamplingConfig, ...]:
    """The standard 150-cell sweep: alpha and beta in 20% steps, budgets 10-50%."""
    return plan_experiment_grid(
        DEFAULT_GRID_ALPHAS, DEFAULT_GRID_BETAS, DEFAULT_GRID_BUDGETS, tau, weights, seed
    )
