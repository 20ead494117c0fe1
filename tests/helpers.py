"""Shared test fixtures and the independent oracles: UPGMA (naive and on the
square matrix), square and cophenetic matrices, distance, ADE, k-NN surrogate,
per-score surrogate scoring, the sampling round over id strings and sets
(novelty refresh, novel and familiar phases), the per-record dynamics
estimate, the per-step stop-then-turn motif and the union-find cut; the
dendrogram structure check; the manifest and result-CSV readers that check
the writers' round trips; plus the pool and dendrogram lookups only tests use,
the holdout ranking in arrays of its own, and the lattice and
parked-duplicates pool builders."""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, fields, replace
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np
from hypothesis import strategies as st

from trajcurate import (
    DEFAULT_WEIGHTS,
    ClusterPartition,
    CondensedDistanceMatrix,
    Dendrogram,
    ExperimentResult,
    ExperimentRow,
    Merge,
    MetricWeights,
    Selection,
    SelectionManifest,
    TrajectoryPool,
    flat_clusters,
    pairwise_distances,
    plan_experiment_grid,
    sampling_round,
    upgma_linkage,
)
from trajcurate.cluster import RankRows
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
from trajcurate.states import _HEADING_EPS, TrajectoryState
from trajcurate import surrogate
from trajcurate.surrogate import PREFIX_LEN
from trajcurate.synth import _DWELL_S, _TURN_RADIUS_M


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


def states_of(pool: TrajectoryPool) -> list[TrajectoryState]:
    """The pool's rows as records, for the oracles that take records."""
    rows = zip(pool.ids, pool.points.tolist(), pool.dyn.tolist())
    return [TrajectoryState(id_, points, *dyn) for id_, points, dyn in rows]


def with_parked(pool: TrajectoryPool, parked: int) -> TrajectoryPool:
    """``pool`` plus ``parked`` records shaped like the benchmark's
    sample-ties pool: a stationary agent in an agent-centred frame, all 12
    points at the origin and zero dynamics, so every pair of them ties at 0."""
    return TrajectoryPool.from_columns(
        pool.ids + tuple(f"parked-{k:04d}" for k in range(parked)),
        np.concatenate([pool.points, np.zeros((parked, 12, 2))]),
        np.concatenate([pool.dyn, np.zeros((parked, 3))]),
    )


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


def ade_oracle(modes: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Mean pointwise displacement of each broadcast ``(12, 2)`` mode from its
    truth, through numpy's own ``.mean``; the kernel's ADE must equal it bit
    for bit."""
    return np.sqrt(((modes - truth) ** 2).sum(axis=-1)).mean(axis=-1)


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
        ade = float(ade_oracle(pred_arr, truth_arr))
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
    ade = ade_oracle(modes, qp[:, None])
    made5 = float(ade[:, : min(5, k)].min(axis=1).mean())
    made10 = float(ade[:, : min(10, k)].min(axis=1).mean())
    return made5, made10


def rank_holdout(
    held: TrajectoryPool, train: TrajectoryPool, w: MetricWeights
) -> tuple[np.ndarray, np.ndarray]:
    """``_rank_holdout``'s ranking and ADE table, in arrays of the shapes the
    sweep gives it."""
    order = np.empty((len(held), len(train)), dtype=np.int32)
    table = np.empty((len(held), min(surrogate._TABLE_WIDTH, len(train))))
    surrogate._rank_holdout(held, train, w, order, table)
    return order, table


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


def cut_oracle(
    t: Dendrogram,
    tau: float,
    labeled_ids: Iterable = (),
    leaf_ids: Sequence | None = None,
) -> ClusterPartition:
    """``flat_clusters`` by union-find: join the two children of every merge
    up to the first one above tau, group the leaves by root, and label the
    groups in order of their first leaf."""
    n = t.n_leaves
    ids = tuple(range(n)) if leaf_ids is None else tuple(leaf_ids)
    parent = list(range(2 * n - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for k, m in enumerate(t.merges):
        if m.height > tau:
            break
        root = n + k
        parent[find(m.left)] = root
        parent[find(m.right)] = root

    groups: dict[int, list[int]] = {}
    for leaf in range(n):
        groups.setdefault(find(leaf), []).append(leaf)
    ordered = sorted(groups.values(), key=lambda leaves: leaves[0])

    assignments: dict = {}
    for label, leaves in enumerate(ordered):
        for leaf in leaves:
            assignments[ids[leaf]] = label

    rank_ids = tuple(sorted(ids))
    labels = np.fromiter(map(assignments.__getitem__, rank_ids), dtype=np.intp, count=n)
    sizes = np.bincount(labels)
    members = tuple(np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1]))
    labeled = frozenset(labeled_ids) & set(ids)
    return ClusterPartition(
        assignments=assignments,
        tau=float(tau),
        labeled_ids=labeled,
        rows=RankRows(rank_ids, labels, members, sizes),
    )


# a lattice record: stationary at grid point (x, y) with speed v, and
# whether it is labeled; 3 x 3 x 2 records make duplicates and ties common
_LATTICE = list(itertools.product(range(3), range(3), range(2), (False, True)))
lattice_records = st.integers(2, 120).flatmap(
    lambda n: st.lists(st.sampled_from(_LATTICE), min_size=n, max_size=n)
)


def lattice_pool(records: Sequence[tuple[int, int, int, bool]]) -> TrajectoryPool:
    """The lattice records as a pool whose ids sort in reverse record order,
    so a tie broken by row and one broken by id differ."""
    grid = np.array(records, dtype=np.float64)
    ids = tuple(f"r{k:03d}" for k in reversed(range(len(grid))))
    dyn = np.zeros((len(grid), 3))
    dyn[:, 0] = grid[:, 2]
    labeled = [id_ for id_, record in zip(ids, records) if record[3]]
    return TrajectoryPool.from_columns(ids, np.repeat(grid[:, None, :2], 12, axis=1), dyn, labeled)


def pool_row(pool: TrajectoryPool, id_: str) -> int:
    """Row of ``id_`` in the pool's columns."""
    try:
        return pool.ids.index(id_)
    except ValueError:
        raise UnknownId(f"no trajectory with id {id_!r}") from None


def unlabeled_ids(pool: TrajectoryPool) -> frozenset[str]:
    """The pool's ids outside its labeled set, the ones a round may pick."""
    return frozenset(pool.ids) - pool.labeled_ids


def with_labeled(pool: TrajectoryPool, extra: Iterable[str]) -> TrajectoryPool:
    """A copy of ``pool`` with ``extra`` ids moved into the labeled set."""
    return TrajectoryPool.from_columns(
        pool.ids, pool.points, pool.dyn, pool.labeled_ids | frozenset(extra)
    )


def dynamics_oracle(past_points, dt: float) -> tuple[float, float, float]:
    """``estimate_dynamics`` one record at a time, with a heading per step.

    v is the speed over the final displacement, a the change between the
    last two segment speeds and h the change between the last two segment
    headings, each divided by dt. A displacement shorter than
    ``_HEADING_EPS`` carries the previous heading forward (0.0 before any).
    """
    pts = np.asarray(past_points, dtype=float)
    disp = np.diff(pts, axis=0)
    norms = np.hypot(disp[:, 0], disp[:, 1])
    speeds = norms / dt
    v = float(speeds[-1])
    a = float((speeds[-1] - speeds[-2]) / dt)

    heading = 0.0
    headings = []
    for (dx, dy), norm in zip(disp, norms):
        if norm >= _HEADING_EPS:
            heading = math.atan2(dy, dx)
        headings.append(heading)
    h = _wrap_angle(headings[-1] - headings[-2]) / dt
    return v, a, h


def _wrap_angle(theta: float) -> float:
    """Map an angle difference into (-pi, pi]."""
    wrapped = math.fmod(theta + math.pi, 2.0 * math.pi)
    if wrapped < 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def stop_then_turn_oracle(t: np.ndarray, v0: float, decel: float, accel: float) -> np.ndarray:
    """The stop-then-turn track for scalar parameters, one time step at a
    time with ``math.sin`` and ``math.cos``."""
    t_stop = v0 / decel
    x_stop = v0 * v0 / (2.0 * decel)
    t_go = t_stop + _DWELL_S
    pts = np.empty((t.shape[0], 2))
    for k, tk in enumerate(t):
        if tk < t_stop:
            pts[k] = (v0 * tk - 0.5 * decel * tk * tk, 0.0)
        elif tk <= t_go:
            pts[k] = (x_stop, 0.0)
        else:
            arc_len = 0.5 * accel * (tk - t_go) ** 2
            phi = arc_len / _TURN_RADIUS_M
            pts[k] = (
                x_stop + _TURN_RADIUS_M * math.sin(phi),
                _TURN_RADIUS_M * (1.0 - math.cos(phi)),
            )
    return pts


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
        # an average can round an ulp below both of its terms
        np.minimum(rowmin, new_row, out=rowmin)
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


def pool_round(pool: TrajectoryPool, cfg: SamplingConfig) -> SelectionManifest:
    """One sampling round on the pool's own cut, as ``trajcurate sample`` runs it."""
    return sampling_round(pool_partition(pool, cfg), cfg)


ALPHA_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
BETA_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)


def check_round_invariants(fix_seed, check_determinism=False):
    """One randomized sampling-round fixture; asserts the invariant suite."""
    rng = np.random.default_rng(fix_seed)
    pool = structured_pool(rng)
    alpha = float(rng.choice(ALPHA_GRID))
    beta = float(rng.choice(BETA_GRID))
    n_unlabeled = len(unlabeled_ids(pool))
    budget = int(rng.integers(1, len(pool) + 4))
    cfg = SamplingConfig(
        alpha=alpha, beta=beta, budget=budget, tau=10.0, seed=int(rng.integers(2**32))
    )
    manifest = pool_round(pool, cfg)

    # budget exactness
    assert len(manifest.selected) == min(budget, n_unlabeled)
    # purity: distinct ids, all unlabeled at round start
    ids = [s.id for s in manifest.selected]
    assert len(set(ids)) == len(ids)
    assert set(ids) <= unlabeled_ids(pool)
    # quota arithmetic
    assert manifest.novel_quota == round_half_up(alpha * budget)
    assert manifest.novel_quota + manifest.familiar_quota == budget

    part = flat_clusters(
        upgma_linkage(pairwise_distances(pool, cfg.weights)),
        cfg.tau,
        labeled_ids=pool.labeled_ids,
        leaf_ids=pool.ids,
    )
    novel = [s for s in manifest.selected if s.phase.startswith("novel")]
    # novel depth cap, one visit per cluster
    per_cluster: dict[int, int] = {}
    for s in novel:
        per_cluster[s.cluster] = per_cluster.get(s.cluster, 0) + 1
    for label, count in per_cluster.items():
        assert count <= cluster_cap(beta, int(part.rows.sizes[label]))
    # novel picks come from the novel side of the start-of-round partition
    novel_labels, singles, _ = novelty_split(part)
    for s in novel:
        if s.phase == PHASE_NOVEL_CLUSTER:
            assert s.cluster in novel_labels
        else:
            assert s.phase == PHASE_NOVEL_SINGLETON and s.id in singles
    # novel-fraction accounting when supply sufficed
    if manifest.novel_shortfall == 0:
        assert len(novel) == manifest.novel_quota
    # familiar picks come from familiar clusters of the refreshed partition
    _, _, familiar = novelty_split(refresh_partition(part, [s.id for s in novel]))
    for s in manifest.selected:
        if s.phase == PHASE_FAMILIAR:
            assert s.cluster in familiar
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
        assert pool_round(pool, cfg) == manifest
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


def novelty_split(p: ClusterPartition) -> tuple[frozenset, frozenset, frozenset]:
    """The cut's novel cluster labels, novel singleton ids and familiar
    cluster labels, split over id sets, independently of the package."""
    return _split_novelty(members_by_label(p), p.labeled_ids)


def novelty_classes(p: ClusterPartition) -> dict:
    """Each id's novelty class, as the package's ``novelty_class`` gives it."""
    return {id_: p.novelty_class(id_) for id_ in p.assignments}


def oracle_novelty_classes(p: ClusterPartition) -> dict:
    """Each id's novelty class, from ``novelty_split``."""
    novel, single, _ = novelty_split(p)

    def novelty(id_, label: int) -> str:
        if label in novel:
            return "novel"
        if id_ in single:
            return "singleton"
        return "labeled-singleton" if p.rows.sizes[label] == 1 else "familiar"

    return {id_: novelty(id_, label) for id_, label in p.assignments.items()}


def refresh_partition(p: ClusterPartition, newly_labeled: Iterable) -> ClusterPartition:
    """The cut with ids labeled mid-round added to its labels, without re-clustering."""
    new = frozenset(newly_labeled)
    unknown = new - set(p.assignments)
    if unknown:
        raise UnknownId(f"ids not in partition: {sorted(unknown)[:5]}")
    return replace(p, labeled_ids=p.labeled_ids | new)


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
    novel, single, _ = novelty_split(p)
    candidates: list[tuple[str, object]] = [
        ("c", label) for label in sorted(novel)
    ] + [("s", sid) for sid in sorted(single)]
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
        cap = cluster_cap(beta, int(p.rows.sizes[ref]))
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
    _, _, familiar = novelty_split(p)
    picked: list = []
    pass_idx = 0
    while quota - len(picked) > 0:
        eligible = [
            label
            for label in sorted(familiar)
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
            cap = cluster_cap(beta, int(p.rows.sizes[label]))
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


def id_space_round(part: ClusterPartition, cfg: SamplingConfig) -> SelectionManifest:
    """The sampling round over sorted id strings and sets, as it ran before
    the rank-row engine: ``sampling_round`` must give an equal manifest on
    the same cut.

    Runs the novel phase on the cut, marks its picks as labeled, runs the
    familiar phase, then fills any shortfall from the remaining unlabeled
    ids.
    """
    unlabeled = sorted(part.assignments.keys() - part.labeled_ids)
    if not unlabeled:
        raise EmptyUnlabeledPool("no unlabeled trajectory-states to sample")
    budget = resolve_budget(cfg.budget, len(unlabeled))

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
            PHASE_NOVEL_SINGLETON if part.rows.sizes[label] == 1 else PHASE_NOVEL_CLUSTER
        )
        selected.append(Selection(sid, phase, label))
    selected += [Selection(sid, PHASE_FAMILIAR, part.assignments[sid]) for sid in familiar_ids]
    selected += [Selection(sid, PHASE_FALLBACK, part.assignments[sid]) for sid in fallback_ids]

    return SelectionManifest(
        config=cfg,
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
) -> tuple[SamplingConfig, ...]:
    """The standard 150-cell sweep: alpha and beta in 20% steps, budgets 10-50%."""
    return plan_experiment_grid(
        DEFAULT_GRID_ALPHAS, DEFAULT_GRID_BETAS, DEFAULT_GRID_BUDGETS, tau, weights
    )


def read_manifest(path) -> SelectionManifest:
    """The selection manifest of a file ``write_manifest`` wrote: the
    writer's round-trip oracle, which also checks the head's seed against
    the config's."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg, weights = doc["config"], doc["config"]["weights"]
    values = {f.name: doc[f.name] for f in fields(SelectionManifest)}
    values["config"] = SamplingConfig(
        **{k: cfg[k] for k in ("alpha", "beta", "budget", "tau", "seed")},
        weights=MetricWeights(**{k: weights[k] for k in ("k_a", "k_v", "k_h")}),
    )
    values["selected"] = tuple(
        Selection(s["id"], s["phase"], s["cluster"]) for s in doc["selected"]
    )
    if doc["seed"] != cfg["seed"]:
        raise ParseError(f"{path}: head seed {doc['seed']!r} is not the config's")
    return SelectionManifest(**values)


def read_experiment_csv(path) -> ExperimentResult:
    """The rows of a file ``write_experiment_csv`` wrote: the writer's round-trip oracle."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header
        rows = tuple(
            ExperimentRow(*map(float, row[:3]), int(row[3]), row[4], *map(float, row[5:]))
            for row in reader
        )
    return ExperimentResult(rows=rows)
