"""Average-linkage (UPGMA) dendrograms and flat clusters.

The dendrogram is built by repeatedly merging the pair of active clusters
with the smallest average inter-member distance; the recorded merge height
is that average. Flat clusters at threshold tau are the maximal subtrees
whose root height is <= tau, which bounds every within-cluster cophenetic
distance by tau. The partition is then split by novelty relative to a
labeled id set, and each id gets the novelty class of its cluster:

  * novel: a cluster of >= 2 members, none labeled
  * singleton: a 1-member cluster whose member is unlabeled
  * familiar: a cluster with at least one labeled member
  * labeled-singleton: a familiar 1-member cluster, whose one member is
    labeled; it is tracked but holds nothing left to sample

Tie-break rule (merges with exactly equal linkage distances): pick the
candidate pair whose merged member set has the lexicographically smallest
(min leaf id, max leaf id); any residual tie is resolved by the larger of
the two clusters' own minimum leaf ids (the smaller one is the merged
set's min leaf id, already equal), which identifies a pair uniquely.
Children of a merge are ordered by minimum member leaf id. These rules make
the topology a pure function of the distance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DuplicateId, ParseError, UnknownId
from .metric import CondensedDistanceMatrix


class Merge(NamedTuple):
    """One agglomeration step: children node ids, height, merged size."""

    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """Sequence of UPGMA merges; leaves are 0..n-1, merge k creates node n+k.

    ``upgma_linkage``, the only builder, guarantees the structure (n - 1
    merges of unused earlier nodes, finite non-decreasing heights, sizes
    that add up) and no file is parsed into one, so it is not checked again
    here; the tests check every linkage they compare against an oracle.
    """

    n_leaves: int
    merges: tuple[Merge, ...]


def upgma_linkage(d: CondensedDistanceMatrix, overwrite: bool = False) -> Dendrogram:
    """Build the UPGMA dendrogram for a condensed distance matrix.

    Distances between merged clusters follow the Lance-Williams average
    update d(A+B, k) = (|A| d(A,k) + |B| d(B,k)) / (|A| + |B|). The update
    runs in place on the condensed vector, where pair (i, j),
    i < j, sits at ``base[i] + j``; no square matrix is built. ``rowmin[i]``
    is a lower bound of the minimum over row i's upper part (j > i), one
    contiguous slice, and every pair is found in the row of its smaller
    index. The merged cluster keeps the lower slot A and slot B dies; the
    new distances are at least min(d(A,x), d(B,x)) and B's become inf, so
    the bounds never need lowering (average linkage is reducible) and are
    repaired lazily. Updated distances are clamped to the current merge
    height: the true average of values >= h cannot drop below h, so the
    clamp only removes sub-ulp rounding and keeps heights monotone.
    ``overwrite=True`` updates ``d.values`` itself instead of a copy, like
    scipy's ``overwrite_a``: ``d`` is consumed, and the buffer under its
    values must be writable, as those of ``pairwise_distances`` and
    ``read_distance_matrix`` are.
    """
    n = d.n
    if n == 1:
        return Dendrogram(1, ())

    vals = d.values if overwrite else d.values.copy()
    vals.flags.writeable = True  # a matrix keeps its values read-only
    idx = np.arange(n, dtype=np.int64)
    first = idx * (2 * n - idx - 1) // 2  # index of pair (i, i + 1)
    base = first - idx - 1
    rowmin = np.full(n, np.inf)
    rowmin[:-1] = np.minimum.reduceat(vals, first[:-1])
    # the merge loop reads these one scalar at a time, which lists do fastest
    start = first.tolist()

    def upper(i: int) -> np.ndarray:
        return vals[start[i] : start[i] + n - 1 - i]

    alive = np.ones(n, dtype=bool)
    size = [1] * n
    node = list(range(n))
    minleaf = np.arange(n, dtype=np.int64)
    maxleaf = np.arange(n, dtype=np.int64)
    merges: list[Merge] = []

    for step in range(n - 1):
        # settle the global minimum; stored row minima are lower bounds
        while True:
            i0 = int(rowmin.argmin())
            fresh = upper(i0).min()
            if fresh == rowmin[i0]:
                h = float(fresh)
                break
            rowmin[i0] = fresh
        # gather every pair at the minimum (rows below h may be stale)
        rows = (rowmin <= h).nonzero()[0]
        if rows.size == 1:  # only row i0, whose minimum is settled
            cs = (upper(i0) == h).nonzero()[0] + (i0 + 1)
            rs = np.full(cs.size, i0)
        else:
            rs, cs = [], []
            for r in rows:
                row = upper(r)
                fresh = row.min()
                rowmin[r] = fresh
                if fresh == h:
                    cs.append(np.flatnonzero(row == h) + (r + 1))
                    rs.append(np.full(cs[-1].size, r))
            rs, cs = np.concatenate(rs), np.concatenate(cs)
        k = 0
        if rs.size > 1:  # the tie rule of the module docstring, as one lexsort
            lo, hi = np.minimum(minleaf[rs], minleaf[cs]), np.maximum(minleaf[rs], minleaf[cs])
            k = np.lexsort((hi, np.maximum(maxleaf[rs], maxleaf[cs]), lo))[0]
        A, B = int(rs[k]), int(cs[k])

        sa, sb = size[A], size[B]
        new_size = sa + sb
        if minleaf[A] <= minleaf[B]:
            merges.append(Merge(node[A], node[B], h, new_size))
        else:
            merges.append(Merge(node[B], node[A], h, new_size))

        # column B over the live x < B (A included): gather, then retire
        alive[B] = False
        xs = alive[:B].nonzero()[0]
        bx = base[xs]
        col_b = bx + B
        d_b = vals[col_b]
        vals[col_b] = np.inf
        # column A over the live x < A: gather, update, scatter back
        k = int(xs.searchsorted(A))
        col_a = bx[:k] + A
        new_col = vals[col_a]
        new_col *= sa
        new_col += sb * d_b[:k]
        new_col /= new_size
        vals[col_a] = np.maximum(new_col, h, out=new_col)
        # row A's upper slice against x > A, in place: d(B, x) from column B
        # below B, then row B; d(A, B) went inf with column B, and dead
        # slots stay inf
        row_a = upper(A)
        row_a *= sa
        row_a[xs[k + 1 :] - A - 1] += sb * d_b[k + 1 :]
        row_b = upper(B)
        row_a[B - A :] += sb * row_b
        row_a /= new_size
        np.maximum(row_a, h, out=row_a)
        row_b[:] = np.inf
        rowmin[A] = row_a.min()
        rowmin[B] = np.inf

        size[A] = new_size
        node[A] = n + step
        minleaf[A] = min(minleaf[A], minleaf[B])
        maxleaf[A] = max(maxleaf[A], maxleaf[B])

    return Dendrogram(n_leaves=n, merges=tuple(merges))


class RankRows(NamedTuple):
    """A cut in rank space: row r is the r-th smallest leaf id, so ascending
    rows give ascending ids."""

    ids: tuple  # id of each row
    labels: np.ndarray  # cluster label of each row
    members: tuple  # each label's rows, ascending
    sizes: np.ndarray  # member count of each label


@dataclass(frozen=True)
class ClusterPartition:
    """Flat clusters at threshold tau, split by novelty against a labeled set.

    Labels are dense integers assigned in order of each cluster's minimum
    leaf index. ``novel_clusters`` and ``familiar_clusters`` hold labels,
    ``singletons`` the ids of the novel singletons.
    """

    assignments: Mapping[Hashable, int]
    novel_clusters: frozenset[int]
    singletons: frozenset
    familiar_clusters: frozenset[int]
    tau: float
    labeled_ids: frozenset
    # the cut over rank rows; derived once by flat_clusters
    rows: RankRows = field(repr=False, compare=False)

    def cluster_size(self, label: int) -> int:
        return int(self.rows.sizes[label])

    @cached_property
    def labeled_rows(self) -> np.ndarray:
        """``labeled_ids`` as a read-only boolean mask over ``rows``."""
        ids = self.rows.ids
        mask = np.fromiter(map(self.labeled_ids.__contains__, ids), dtype=bool, count=len(ids))
        mask.flags.writeable = False
        return mask

    def novelty_class(self, id_) -> str:
        """The novelty class of ``id_``, as named in the module docstring."""
        label = self.assignments[id_]
        if label in self.novel_clusters:
            return "novel"
        if label not in self.familiar_clusters:
            return "singleton"
        # a familiar 1-member cluster's only member is a labeled one
        return "labeled-singleton" if self.cluster_size(label) == 1 else "familiar"


def flat_clusters(
    t: Dendrogram,
    tau: float,
    labeled_ids: Iterable = (),
    leaf_ids: Sequence[Hashable] | None = None,
) -> ClusterPartition:
    """Cut the dendrogram at tau and split the clusters by novelty.

    Clusters are the leaf sets of maximal subtrees with root height <= tau
    (inclusive). ``leaf_ids`` names leaf i; by default leaves are their own
    integer ids. Labeled ids not present among the leaves are ignored.
    """
    if not tau >= 0:  # also rejects NaN
        raise ParseError(f"tau must be >= 0, got {tau}")
    n = t.n_leaves
    ids: Sequence[Hashable] = tuple(range(n)) if leaf_ids is None else tuple(leaf_ids)
    if len(ids) != n:
        raise UnknownId(f"expected {n} leaf ids, got {len(ids)}")

    # union-find over the monotone prefix of merges with height <= tau
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

    assignments: dict[Hashable, int] = {}
    for label, leaves in enumerate(ordered):
        for leaf in leaves:
            assignments[ids[leaf]] = label
    if len(assignments) != n:
        raise DuplicateId(f"leaf ids repeat: {n} leaves, {len(assignments)} distinct ids")

    rank_ids = tuple(sorted(ids))
    labels = np.fromiter(map(assignments.__getitem__, rank_ids), dtype=np.intp, count=n)
    sizes = np.bincount(labels)
    members = tuple(np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1]))
    for a in (labels, sizes, *members):
        a.flags.writeable = False
    rows = RankRows(rank_ids, labels, members, sizes)

    labeled = frozenset(labeled_ids) & set(ids)
    labeled_labels = np.fromiter(map(assignments.__getitem__, labeled), np.intp, len(labeled))
    hits = np.bincount(labeled_labels, minlength=len(sizes))
    free = hits == 0
    single = np.flatnonzero((free & (sizes == 1))[labels])
    return ClusterPartition(
        assignments=assignments,
        novel_clusters=frozenset(np.flatnonzero(free & (sizes >= 2)).tolist()),
        singletons=frozenset(map(rank_ids.__getitem__, single.tolist())),
        familiar_clusters=frozenset(np.flatnonzero(hits).tolist()),
        tau=float(tau),
        labeled_ids=labeled,
        rows=rows,
    )


def format_dendrogram(t: Dendrogram) -> str:
    """Text table, one merge per line: "left right height size"."""
    lines = [f"{m.left} {m.right} {m.height:.17g} {m.size}" for m in t.merges]
    return "\n".join(lines) + ("\n" if lines else "")
