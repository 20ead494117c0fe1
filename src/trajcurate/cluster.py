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

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Real
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DuplicateId, InvalidFlagValue, ParseError
from .metric import CondensedDistanceMatrix, condensed_index

DEFAULT_TAU = 10.0


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
    index. The merged cluster keeps the lower slot A and slot B dies, so
    each live slot's smallest leaf is its own index. B's distances become
    inf and bounds are repaired lazily, but rounding can put a new d(A, x)
    an ulp below both its terms, so row x < A takes it into its bound.
    Updated distances are clamped to the current merge height: the true
    average of values >= h cannot drop below h, so the clamp only removes
    sub-ulp rounding and keeps heights monotone.
    ``overwrite=True`` updates ``d.values`` itself instead of a copy, like
    scipy's ``overwrite_a``: ``d`` is consumed, and the buffer under its
    values must be writable, as those of ``pairwise_distances`` are.
    """
    n = d.n
    if n == 1:
        return Dendrogram(1, ())

    vals = d.values if overwrite else d.values.copy()
    vals.flags.writeable = True  # a matrix keeps its values read-only
    idx = np.arange(n, dtype=np.int64)
    first = condensed_index(n, idx, idx + 1)
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
        # the tie rule in one row: A keeps the lower slot, so a live slot's
        # smallest leaf is its own index; argmin took the first minimum, so
        # rows below i0 have bounds above h and i0 is the least min leaf
        cs = (upper(i0) == h).nonzero()[0] + (i0 + 1)
        A, B = i0, int(cs[np.maximum(maxleaf[cs], maxleaf[i0]).argmin()])

        sa, sb = size[A], size[B]
        new_size = sa + sb
        merges.append(Merge(node[A], node[B], h, new_size))

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
        rowmin[xs[:k]] = np.minimum(new_col, rowmin[xs[:k]], out=new_col)
        # row A's upper slice against x > A, in place: d(B, x) from column B
        # below B, then row B; d(A, B) went inf with column B, and dead
        # columns stay inf. Row B is never read again
        row_a = upper(A)
        row_a *= sa
        row_a[xs[k + 1 :] - A - 1] += sb * d_b[k + 1 :]
        row_b = upper(B)
        row_a[B - A :] += sb * row_b
        row_a /= new_size
        np.maximum(row_a, h, out=row_a)
        rowmin[A] = row_a.min()
        rowmin[B] = np.inf

        size[A] = new_size
        node[A] = n + step
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

    @cached_property
    def labeled_rows(self) -> np.ndarray:
        """``labeled_ids`` as a read-only boolean mask over ``rows``."""
        ids = self.rows.ids
        mask = np.fromiter(map(self.labeled_ids.__contains__, ids), dtype=bool, count=len(ids))
        mask.flags.writeable = False
        return mask

    @cached_property
    def novel_candidates(self) -> tuple[int, ...]:
        """The novel phase's candidates: the novel cluster labels ascending,
        then the labels of the singletons in id order."""
        singles = map(self.assignments.__getitem__, sorted(self.singletons))
        return (*sorted(self.novel_clusters), *singles)

    def novelty_class(self, id_) -> str:
        """The novelty class of ``id_``, as named in the module docstring."""
        label = self.assignments[id_]
        if label in self.novel_clusters:
            return "novel"
        if label not in self.familiar_clusters:
            return "singleton"
        # a familiar 1-member cluster's only member is a labeled one
        return "labeled-singleton" if self.rows.sizes[label] == 1 else "familiar"


def is_real(value) -> bool:
    """A real number that is not a bool, which ``numbers.Real`` admits."""
    return isinstance(value, Real) and not isinstance(value, bool)


def check_tau(tau: float, name: str = "tau") -> None:
    """Raise ``InvalidFlagValue`` unless the cut threshold ``tau`` is >= 0."""
    if not (is_real(tau) and tau >= 0):  # also rejects NaN
        raise InvalidFlagValue(f"{name} must be >= 0, got {tau!r}")


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
    check_tau(tau)
    n = t.n_leaves
    ids: Sequence[Hashable] = tuple(range(n)) if leaf_ids is None else tuple(leaf_ids)
    if len(ids) != n:
        raise ParseError(f"expected {n} leaf ids, got {len(ids)}")

    # heights never decrease, so the merges up to tau are a prefix; walked
    # from its top, each merge hands its cluster root down to its children
    cut = bisect_right([m.height for m in t.merges], tau)
    root = list(range(n + cut))
    for k in range(cut - 1, -1, -1):
        m = t.merges[k]
        root[m.left] = root[m.right] = root[n + k]
    # labels in order of each cluster's first leaf
    label_of: dict[int, int] = {}
    leaf_labels = np.fromiter((label_of.setdefault(r, len(label_of)) for r in root[:n]), np.intp, n)

    # cluster-major, leaves ascending within a cluster
    order = np.argsort(leaf_labels, kind="stable").tolist()
    assignments = dict(zip(map(ids.__getitem__, order), leaf_labels[order].tolist()))
    if len(assignments) != n:
        raise DuplicateId(f"leaf ids repeat: {n} leaves, {len(assignments)} distinct ids")

    rank = sorted(range(n), key=ids.__getitem__)
    rank_ids = tuple(map(ids.__getitem__, rank))
    labels = leaf_labels[rank]
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
