"""Trajectory-state distance and the condensed pairwise matrix.

The distance between two trajectory-states A and B is

    d(A, B) = sum_{k=1..12} ||p_k(A) - p_k(B)||_2
              + k_a |a_A - a_B| + k_v |v_A - v_B| + k_h |h_A - h_B|

a sum of per-timestep point displacements plus weighted dynamic-state
differences. It is a metric (each term is one), and the O(n^2) pairwise
computation over a pool is the performance core of the package: pairs are
independent, so the index space may be partitioned across threads while
staying bitwise deterministic (no pair's sum is ever split).

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
_MATRIX_HEADER_LEN = 16  # magic, u32 version, u64 n


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
        if expected and (not np.all(np.isfinite(vals)) or vals.min() < 0.0):
            raise NonFiniteValue("condensed matrix values must be finite and >= 0")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def get(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        if i > j:
            i, j = j, i
        return float(self.values[condensed_index(self.n, i, j)])

    def to_square(self) -> np.ndarray:
        """Materialize the full symmetric matrix (zero diagonal)."""
        out = np.zeros((self.n, self.n))
        pos = 0
        for i in range(self.n - 1):
            cnt = self.n - 1 - i
            row = self.values[pos : pos + cnt]
            out[i, i + 1 :] = row
            out[i + 1 :, i] = row
            pos += cnt
        return out


def condensed_index(n: int, i: int, j: int) -> int:
    """Canonical condensed index of pair (i, j) with i < j."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def _distance(pa, da, pb, db, w: MetricWeights, prefix_len: int = TRAJECTORY_LEN) -> np.ndarray:
    """Distances between broadcastable ``(..., 12, 2)`` points ``pa``/``pb``
    with ``(..., 3)`` ``[v, a, h]`` rows ``da``/``db``, over the first
    ``prefix_len`` timesteps.

    Every distance in the package is computed here, so pointwise and
    batched results agree bit for bit. The reduction order is fixed: per
    timestep the sqrt of the summed squared x/y differences, the sum over
    timesteps, then the a, v and h terms added in place in that order.
    """
    d = np.sqrt(((pa[..., :prefix_len, :] - pb[..., :prefix_len, :]) ** 2).sum(axis=-1))
    d = d.sum(axis=-1)
    d += w.k_a * np.abs(da[..., 1] - db[..., 1])
    d += w.k_v * np.abs(da[..., 0] - db[..., 0])
    d += w.k_h * np.abs(da[..., 2] - db[..., 2])
    return d


def trajectory_state_distance(
    a: TrajectoryState, b: TrajectoryState, w: MetricWeights = DEFAULT_WEIGHTS
) -> float:
    """Distance between two trajectory-states."""
    pts, dyn = pack_states((a, b))
    return float(_distance(pts[0], dyn[0], pts[1], dyn[1], w))


def _row_block(
    pts: np.ndarray,
    dyn: np.ndarray,
    w: MetricWeights,
    out: np.ndarray,
    i0: int,
    i1: int,
) -> None:
    """Fill condensed entries for rows [i0, i1).

    Each row writes a disjoint slice of ``out`` and every pair's terms are
    reduced in a fixed order, so results do not depend on how rows are
    assigned to workers.
    """
    n = pts.shape[0]
    for i in range(i0, i1):
        start = condensed_index(n, i, i + 1)
        out[start : start + n - 1 - i] = _distance(pts[i + 1 :], dyn[i + 1 :], pts[i], dyn[i], w)


def pairwise_distances(
    pool: TrajectoryPool | Sequence[TrajectoryState],
    w: MetricWeights = DEFAULT_WEIGHTS,
    workers: int | None = None,
) -> CondensedDistanceMatrix:
    """Condensed pairwise distance matrix over a pool.

    A ``TrajectoryPool`` supplies its own columns; a plain sequence of
    states is packed first. ``workers`` threads partition the row space;
    numpy kernels release the GIL so this scales on multicore boxes, and
    the output is byte-identical for any worker count.
    """
    pts, dyn = pool.columns if isinstance(pool, TrajectoryPool) else pack_states(tuple(pool))
    n = len(pts)
    if n < 1:
        raise ParseError("pairwise_distances needs at least one trajectory-state")
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    if workers is None:
        workers = max(1, min(4, os.cpu_count() or 1))
    if workers <= 1 or n < 64:
        _row_block(pts, dyn, w, out, 0, n)
    else:
        # small chunks keep the decreasing row costs balanced across threads
        chunk = max(1, n // (workers * 8))
        bounds = list(range(0, n, chunk)) + [n]
        with ThreadPoolExecutor(max_workers=workers) as ex:
            futures = [
                ex.submit(_row_block, pts, dyn, w, out, lo, hi)
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            for f in futures:
                f.result()
    return CondensedDistanceMatrix(n=n, values=out)


def write_distance_matrix(m: CondensedDistanceMatrix, path) -> None:
    """Binary dump: magic "TSDM", u32 version, u64 n, little-endian f64 values."""
    with open(path, "wb") as fh:
        fh.write(_MATRIX_MAGIC)
        fh.write(struct.pack("<I", _MATRIX_VERSION))
        fh.write(struct.pack("<Q", m.n))
        fh.write(m.values.astype("<f8").tobytes())


def read_distance_matrix(path) -> CondensedDistanceMatrix:
    with open(path, "rb") as fh:
        header = fh.read(_MATRIX_HEADER_LEN)
        payload = fh.read()
    magic = header[:4]
    if magic != _MATRIX_MAGIC:
        raise ParseError(f"bad matrix magic {magic!r}")
    if len(header) < _MATRIX_HEADER_LEN:
        raise ParseError(
            f"{path}: matrix header is {len(header)} bytes, expected {_MATRIX_HEADER_LEN}"
        )
    version, n = struct.unpack("<IQ", header[4:])
    if version != _MATRIX_VERSION:
        raise ParseError(f"unsupported matrix version {version}")
    expected = n * (n - 1) // 2
    if len(payload) != 8 * expected:
        raise ParseError(f"matrix payload has {len(payload)} bytes, expected {8 * expected}")
    values = np.frombuffer(payload, dtype="<f8")
    return CondensedDistanceMatrix(n=int(n), values=values.astype(np.float64))
