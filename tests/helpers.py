"""Shared test fixtures and the independent oracles: UPGMA (naive and on the
square matrix), square and cophenetic matrices, distance, k-NN surrogate,
per-score surrogate scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from trajcurate import (
    DEFAULT_WEIGHTS,
    CondensedDistanceMatrix,
    Dendrogram,
    Merge,
    MetricWeights,
    TrajectoryPool,
    TrajectoryState,
    flat_clusters,
    pairwise_distances,
    refresh_partition,
    sampling_round,
    upgma_linkage,
)
from trajcurate.errors import EmptyTrainingPool, NoPredictions, ParseError
from trajcurate.sampling import (
    PHASE_FALLBACK,
    PHASE_FAMILIAR,
    PHASE_NOVEL_CLUSTER,
    PHASE_NOVEL_SINGLETON,
    SamplingConfig,
    cluster_cap,
    round_half_up,
)
from trajcurate.metric import _distance
from trajcurate.surrogate import PREFIX_LEN

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
