"""Trajectory-state distance and the condensed pairwise matrix.

The distance between two trajectory-states A and B is

    d(A, B) = sum_{k=1..12} ||p_k(A) - p_k(B)||_2
              + k_a |a_A - a_B| + k_v |v_A - v_B| + k_h |h_A - h_B|

a sum of per-timestep point displacements plus weighted dynamic-state
differences. It is a metric (each term is one), and the O(n^2) pairwise
computation over a pool is the performance core of the package.

One kernel, ``_distance``, computes every distance, and its floating-point
reduction order is written out rather than left to numpy: timestep k gives
``sqrt(dx*dx + dy*dy)``; fewer than 8 timesteps are summed left to right,
and 8 to 12 as ``((t0+t1)+(t2+t3)) + ((t4+t5)+(t6+t7))`` and then the
rest left to right; the a, v and h terms are added last. That is the order
numpy's pairwise summation used for the earlier ``.sum`` form of the
kernel, so matrices, dendrograms and surrogate rankings stay byte-identical
to artifacts made with it, and the result does not depend on how a given
numpy version sums internally. Pairs are independent and no pair's sum is
ever split, so the pairwise matrix is computed in row tiles across threads
and stays bitwise deterministic for any tiling and worker count.

Coordinates are used exactly as ingested; no re-centering or rotation
normalization is applied, so the frame of the input data defines the
clustering semantics.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonFiniteValue, ParseError
from .states import TRAJECTORY_LEN, TrajectoryPool, TrajectoryState, pack_states

_MATRIX_MAGIC = b"TSDM"
_MATRIX_VERSION = 1

# pairs per kernel call in pairwise_distances. A tile of rows x n pairs has
# rows x n float64 temporaries, so a tile takes up to 16 rows but about
# this many pairs at most (8 rows, 0.64 MB a temporary, at 10k items);
# much smaller calls lose time to GIL hand-offs between the threads
_TILE_PAIRS = 80_000


@dataclass(frozen=True)
class MetricWeights:
    """Scale factors mapping state differences into meters of path error.

    Defaults reflect typical ranges: heading change rates span roughly
    -0.5..0.5 rad/s (k_h = 1), velocities 0..20 m/s (k_v = 1/40), and
    accelerations -5..5 m/s^2 (k_a = 1/20).
    """

    k_a: float = 1.0 / 20.0
    k_v: float = 1.0 / 40.0
    k_h: float = 1.0

    def __post_init__(self) -> None:
        for name in ("k_a", "k_v", "k_h"):
            w = float(getattr(self, name))
            if not np.isfinite(w) or w < 0.0:
                raise NonFiniteValue(f"weight {name} must be finite and >= 0, got {w}")
            object.__setattr__(self, name, w)


DEFAULT_WEIGHTS = MetricWeights()


@dataclass(frozen=True, eq=False)
class CondensedDistanceMatrix:
    """Upper-triangle pairwise distances in canonical row-major order.

    Entry for pair (i, j), i < j, lives at index
    ``i * (2n - i - 1) // 2 + (j - i - 1)``; storage is exactly
    n(n-1)/2 float64 values, half the square-matrix cost.
    """

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        expected = self.n * (self.n - 1) // 2
        if self.n < 1 or vals.shape != (expected,):
            raise ParseError(
                f"condensed matrix for n={self.n} needs {expected} values, got {vals.shape}"
            )
        check_distances(vals)
        vals = vals.view()  # freeze a view, so a caller's own array stays writable
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def get(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        if i > j:
            i, j = j, i
        return float(self.values[condensed_index(self.n, i, j)])


def check_distances(vals: np.ndarray) -> None:
    """Raise ``NonFiniteValue`` unless every value of ``vals`` is finite and >= 0.

    Both reductions propagate NaN, so the two of them catch NaN, +-inf and
    negative values with no boolean temporary; -0.0 passes. The error's
    ``index`` is the flat index of the first bad value.
    """
    if vals.size and not (vals.min() >= 0.0 and vals.max() < np.inf):
        index = int(np.argmin((vals >= 0.0) & (vals < np.inf)))
        exc = NonFiniteValue(f"distances must be finite and >= 0, got {vals.flat[index]}")
        exc.index = index
        raise exc


def condensed_index(n: int, i: int, j: int) -> int:
    """Canonical condensed index of pair (i, j) with i < j."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _distance(pa, da, pb, db, w: MetricWeights, prefix_len: int = TRAJECTORY_LEN) -> np.ndarray:
    """Distances between broadcastable ``(..., 12, 2)`` points ``pa``/``pb``
    with ``(..., 3)`` ``[v, a, h]`` rows ``da``/``db``, over the first
    ``prefix_len`` timesteps. The broadcast shape must have at least one
    axis: terms are summed in place, which a 0-d scalar cannot take.

    Every distance in the package is computed here, so pointwise and
    batched results agree bit for bit. Timestep k contributes the term
    ``t_k = sqrt(dx*dx + dy*dy)``. Fewer than 8 terms are added left to
    right; 8 to 12 terms as ``((t0+t1)+(t2+t3)) + ((t4+t5)+(t6+t7))``, then
    t8 onwards left to right. The a, v and h terms follow, added in place
    in that order. This is the order numpy's pairwise summation gave the
    earlier ``sqrt((diff**2).sum(-1)).sum(-1)`` form, written out so that
    distances stay byte-identical to artifacts made with that form whatever
    numpy version runs. Terms are added as they are made, so at most three
    term arrays are live at once. Overflow gives inf or NaN without a
    warning, in any thread; the callers' value checks report it.
    """

    def term(k: int) -> np.ndarray:
        dx = pa[..., k, 0] - pb[..., k, 0]
        dy = pa[..., k, 1] - pb[..., k, 1]
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)

    with np.errstate(over="ignore", invalid="ignore"):
        d = term(0)
        if prefix_len < 8:
            for k in range(1, prefix_len):
                d += term(k)
        else:
            d += term(1)
            pair = term(2)
            pair += term(3)
            d += pair
            quad = term(4)
            quad += term(5)
            pair = term(6)
            pair += term(7)
            quad += pair
            d += quad
            for k in range(8, prefix_len):
                d += term(k)
        d += w.k_a * np.abs(da[..., 1] - db[..., 1])
        d += w.k_v * np.abs(da[..., 0] - db[..., 0])
        d += w.k_h * np.abs(da[..., 2] - db[..., 2])
    return d


def trajectory_state_distance(
    a: TrajectoryState, b: TrajectoryState, w: MetricWeights = DEFAULT_WEIGHTS
) -> float:
    """Distance between two trajectory-states."""
    pts, dyn = pack_states((a, b))
    return float(_distance(pts[:1], dyn[:1], pts[1:], dyn[1:], w)[0])


def _row_block(
    pts: np.ndarray,
    dyn: np.ndarray,
    w: MetricWeights,
    out: np.ndarray,
    i0: int,
    i1: int,
    tile: int,
) -> None:
    """Fill condensed entries for rows [i0, i1).

    Rows go through the kernel ``tile`` at a time, against every column
    after the tile's first row; each row then copies its upper part into
    its own disjoint slice of ``out``. A pair's terms are reduced in the
    kernel's fixed order whatever tile it lands in, so results do not
    depend on how rows are assigned to tiles or workers.
    """
    n = pts.shape[0]
    for lo in range(i0, i1, tile):
        hi = min(lo + tile, i1)
        block = _distance(
            pts[lo:hi, None], dyn[lo:hi, None], pts[None, lo + 1 :], dyn[None, lo + 1 :], w
        )
        for i in range(lo, hi):
            start = condensed_index(n, i, i + 1)
            out[start : start + n - 1 - i] = block[i - lo, i - lo :]


def pairwise_distances(
    pool: TrajectoryPool | Sequence[TrajectoryState],
    w: MetricWeights = DEFAULT_WEIGHTS,
    workers: int | None = None,
) -> CondensedDistanceMatrix:
    """Condensed pairwise distance matrix over a pool.

    A plain sequence of states is made a ``TrajectoryPool`` first.
    ``workers`` threads partition the row space; numpy kernels release the
    GIL so this scales on multicore boxes, and the output is byte-identical
    for any worker count.
    """
    if not isinstance(pool, TrajectoryPool):
        pool = TrajectoryPool(pool)
    pts, dyn = pool.points, pool.dyn
    n = len(pts)
    if n < 1:
        raise ParseError("pairwise_distances needs at least one trajectory-state")
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    # item-fastest copies, so each tile reads every column term contiguously
    pts, dyn = np.asfortranarray(pts), np.asfortranarray(dyn)
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    workers = max(1, workers)
    tile = max(1, min(16, _TILE_PAIRS // n))
    # small chunks keep the decreasing row costs balanced across threads
    chunk = tile * max(1, n // (workers * 8 * tile))
    bounds = list(range(0, n, chunk)) + [n]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        futures = [
            ex.submit(_row_block, pts, dyn, w, out, lo, hi, tile)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        for f in futures:
            f.result()
    try:
        return CondensedDistanceMatrix(n=n, values=out)
    except NonFiniteValue as exc:
        rows = np.arange(n)
        i = int(np.searchsorted(condensed_index(n, rows, rows + 1), exc.index, "right")) - 1
        j = exc.index - condensed_index(n, i, i + 1) + i + 1
        raise NonFiniteValue(f"{exc} between {pool.ids[i]!r} and {pool.ids[j]!r}") from None


def write_distance_matrix(m: CondensedDistanceMatrix, path) -> None:
    """Binary dump: magic "TSDM", u32 version, u64 n, little-endian f64 values."""
    with open(path, "wb") as fh:
        fh.write(_MATRIX_MAGIC)
        fh.write(struct.pack("<I", _MATRIX_VERSION))
        fh.write(struct.pack("<Q", m.n))
        fh.write(m.values.astype("<f8", copy=False).data)
