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

import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonFiniteValue, ParseError
from .states import MAX_ABS, TRAJECTORY_LEN, TrajectoryPool, TrajectoryState, pack_states

# pairs per kernel call in pairwise_distances. A tile of rows x n pairs
# computes in five rows x n float64 scratch arrays, so a tile takes up to
# 16 rows but about this many pairs at most (8 rows, 3.2 MB of scratch per
# worker, at 10k items); much smaller calls lose time to GIL hand-offs
# between the threads (10k items, 2 workers on a 2-vCPU VM: 1.68 s at 80k
# pairs a tile, 2.16 s at 40k, 3.30 s at 20k)
_TILE_PAIRS = 80_000


@dataclass(frozen=True)
class MetricWeights:
    """Scale factors mapping state differences into meters of path error.

    Defaults reflect typical ranges: heading change rates span roughly
    -0.5..0.5 rad/s (k_h = 1), velocities 0..20 m/s (k_v = 1/40), and
    accelerations -5..5 m/s^2 (k_a = 1/20). Each is in [0, ``MAX_ABS``].
    """

    k_a: float = 1.0 / 20.0
    k_v: float = 1.0 / 40.0
    k_h: float = 1.0

    def __post_init__(self) -> None:
        for name in ("k_a", "k_v", "k_h"):
            w = float(getattr(self, name))
            if not 0.0 <= w <= MAX_ABS:
                raise NonFiniteValue(f"weight {name} must be in [0, {MAX_ABS:g}], got {w}")
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
        # min and max propagate NaN, so they catch NaN, inf and negatives; -0.0 passes
        if vals.size and not (vals.min() >= 0.0 and vals.max() < np.inf):
            bad = vals.flat[np.argmin((vals >= 0.0) & (vals < np.inf))]
            raise NonFiniteValue(f"distances must be finite and >= 0, got {bad}")
        self._freeze(vals)

    @classmethod
    def _unchecked(cls, n: int, values: np.ndarray) -> CondensedDistanceMatrix:
        """A matrix of n(n-1)/2 float64 ``values`` known to be finite and >= 0."""
        m = cls.__new__(cls)
        object.__setattr__(m, "n", n)
        m._freeze(values)
        return m

    def _freeze(self, vals: np.ndarray) -> None:
        vals = vals.view()  # freeze a view, so a caller's own array stays writable
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def get(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        if i > j:
            i, j = j, i
        return float(self.values[condensed_index(self.n, i, j)])


def condensed_index(n: int, i: int, j: int) -> int:
    """Canonical condensed index of pair (i, j) with i < j."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


@contextmanager
def row_buffer(row: int):
    """Within the block, numpy's ufunc buffer is no longer than ``row``
    elements (a multiple of 16, as numpy requires), and never longer than
    before.

    numpy 2.x runs a broadcast ufunc such as (16, 1) - (1, 1599) about 4x
    slower per element while its buffer (8192 elements by default) is
    longer than the row: 1.06 against 0.24 ns at 1,599 columns, numpy
    2.4.6. The buffer size changes no result. The setting belongs to the
    calling thread, and the block restores it.
    """
    old = np.getbufsize()
    np.setbufsize(max(16, min(old, row - row % 16)))
    try:
        yield
    finally:
        np.setbufsize(old)


def _distance(
    pa, da, pb, db, w: MetricWeights, prefix_len: int = TRAJECTORY_LEN, scratch=None
) -> np.ndarray:
    """Distances between broadcastable ``(..., 12, 2)`` points ``pa``/``pb``
    with ``(..., 3)`` ``[v, a, h]`` rows ``da``/``db``, over the first
    ``prefix_len`` timesteps.

    Every distance in the package is computed here, so pointwise and
    batched results agree bit for bit. Timestep k contributes the term
    ``t_k = sqrt(dx*dx + dy*dy)``. Fewer than 8 terms are added left to
    right; 8 to 12 terms as ``((t0+t1)+(t2+t3)) + ((t4+t5)+(t6+t7))``, then
    t8 onwards left to right. The a, v and h terms follow, added in place
    in that order. This is the order numpy's pairwise summation gave the
    earlier ``sqrt((diff**2).sum(-1)).sum(-1)`` form, written out so that
    distances stay byte-identical to artifacts made with that form whatever
    numpy version runs.

    Everything is computed in place in five float64 arrays of the broadcast
    shape: ``scratch`` if given, else new ones. The distances are returned
    in the first. numpy's buffer is held to one row of them meanwhile.
    """
    if scratch is None:
        shape = np.broadcast_shapes(pa.shape[:-2], pb.shape[:-2])
        scratch = [np.empty(shape) for _ in range(5)]
    d, t, dy, pair, quad = scratch

    def term(k: int, dx: np.ndarray) -> np.ndarray:
        np.subtract(pa[..., k, 0], pb[..., k, 0], out=dx)
        np.subtract(pa[..., k, 1], pb[..., k, 1], out=dy)
        dx *= dx
        np.multiply(dy, dy, out=dy)  # dy is not local here, so not dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)

    with row_buffer(d.shape[-1] if d.ndim else 1):
        term(0, d)
        if prefix_len < 8:
            for k in range(1, prefix_len):
                d += term(k, t)
        else:
            d += term(1, t)
            term(2, pair)
            pair += term(3, t)
            d += pair
            term(4, quad)
            quad += term(5, t)
            term(6, pair)
            pair += term(7, t)
            quad += pair
            d += quad
            for k in range(8, prefix_len):
                d += term(k, t)
        for col, weight in ((1, w.k_a), (0, w.k_v), (2, w.k_h)):
            np.subtract(da[..., col], db[..., col], out=t)
            np.abs(t, out=t)
            t *= weight
            d += t
    return d


def trajectory_state_distance(
    a: TrajectoryState, b: TrajectoryState, w: MetricWeights = DEFAULT_WEIGHTS
) -> float:
    """Distance between two trajectory-states."""
    pts, dyn = pack_states((a, b))
    return float(_distance(pts[:1], dyn[:1], pts[1:], dyn[1:], w)[0])


def cpu_workers() -> int:
    """Threads or processes a parallel stage uses: one per CPU this process
    may run on, at most four."""
    # taskset or a container can narrow the CPUs below os.cpu_count()
    if hasattr(os, "sched_getaffinity"):
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)


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
    # The kernel's scratch is one anonymous map per task, sized for its
    # first tile, the widest. glibc keeps what a worker thread frees in that
    # thread's arena, so per-task np.empty scratch would come from the arena
    # after the first task and stay held through the linkage (about 4 MiB a
    # worker at 10k items); a map goes back to the OS when it is closed.
    n = pts.shape[0]
    mem = mmap.mmap(-1, max(1, 5 * 8 * min(tile, i1 - i0) * (n - 1 - i0)))
    for lo in range(i0, i1, tile):
        hi = min(lo + tile, i1)
        rows, cols = slice(lo, hi), slice(lo + 1, None)
        shape = (5, hi - lo, n - 1 - lo)
        scratch = np.frombuffer(mem, count=shape[0] * shape[1] * shape[2]).reshape(shape)
        block = _distance(
            pts[rows, None],
            dyn[rows, None],
            pts[None, cols],
            dyn[None, cols],
            w,
            scratch=scratch,
        )
        for i in range(lo, hi):
            start = condensed_index(n, i, i + 1)
            out[start : start + n - 1 - i] = block[i - lo, i - lo :]
    del scratch, block  # the map cannot be closed while a view of it lives
    mem.close()


def pairwise_distances(
    pool: TrajectoryPool | Sequence[TrajectoryState],
    w: MetricWeights = DEFAULT_WEIGHTS,
) -> CondensedDistanceMatrix:
    """Condensed pairwise distance matrix over a pool.

    A plain sequence of states is made a ``TrajectoryPool`` first.
    ``cpu_workers()`` threads partition the row space; numpy kernels
    release the GIL so this scales on multicore boxes, and the output is
    byte-identical for any worker count. The kernel's scratch goes back to
    the OS as each task ends, so the result is the only memory the call
    keeps.
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
    workers = cpu_workers()
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
    # a bounded pool (states.MAX_ABS) cannot give a NaN, infinite or negative distance
    return CondensedDistanceMatrix._unchecked(n, out)
