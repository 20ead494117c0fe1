"""Trajectory-state records, the columnar pool, and dynamics estimation.

A trajectory-state couples an agent's 12-point future ground-plane path
(2 Hz over 6 s) with its dynamic state at prediction time: velocity v
[m/s], acceleration a [m/s^2], and heading change rate h [rad/s].

``TrajectoryState`` is the single-record type. ``TrajectoryPool`` holds a
whole pool as columns: a tuple of ``ids``, ``points`` of shape (n, 12, 2)
and ``dyn`` of shape (n, 3) holding ``[v, a, h]``. Both arrays are
read-only float64, row r of each is record r, and every stage from the
distance kernel to the surrogate reads them directly; the loaders parse
records straight into them. ``items`` builds ``TrajectoryState``s only
when it is read. Both types are immutable, so they can be shared freely
across threads.

Both types hold every coordinate and every v, a and h to ``MAX_ABS`` =
1e150 in magnitude, and ``MetricWeights`` each weight to [0, 1e150]. Then a
squared offset is at most 4e300 and a weighted state difference 2e300, so a
distance or an ADE is at most about 6e300, and the linkage's size x distance
stays below the largest float, 1.8e308, for any pool under about 3e7 items:
no stage can overflow. NaN and infinities fail the bound too.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateId,
    EmptyId,
    NonFiniteValue,
    TooFewPoints,
    UnknownId,
    WrongPointCount,
    ZeroDt,
)

TRAJECTORY_LEN = 12

MAX_ABS = 1e150  # the bound on every value's magnitude: see the module docstring
_BEYOND = f"NaN or beyond ±{MAX_ABS:g}"

# displacements shorter than this carry no usable heading information
_HEADING_EPS = 1e-6

Point = tuple[float, float]


@dataclass(frozen=True)
class TrajectoryState:
    """One agent's future path plus its dynamic state at prediction time."""

    id: str
    points: tuple[Point, ...]
    v: float
    a: float
    h: float

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise EmptyId("trajectory id must be a non-empty string")
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if len(pts) != TRAJECTORY_LEN:
            raise WrongPointCount(
                f"trajectory {self.id!r} has {len(pts)} points, expected {TRAJECTORY_LEN}"
            )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "v", float(self.v))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "h", float(self.h))
        flat = [c for p in pts for c in p] + [self.v, self.a, self.h]
        if not all(abs(c) <= MAX_ABS for c in flat):  # NaN compares false
            raise NonFiniteValue(f"trajectory {self.id!r} contains a value that is {_BEYOND}")


def estimate_dynamics(
    past_points: Sequence[Sequence[float]], dt: float
) -> tuple[float, float, float]:
    """Estimate (v, a, h) from a position track via finite differences.

    The estimate is anchored at the last observation: v is the speed over
    the final displacement, a the change between the last two segment
    speeds, and h the change between the last two segment headings, each
    divided by dt. Headings of sub-``_HEADING_EPS`` displacements are
    carried forward from the previous step so a standstill contributes
    zero heading change instead of atan2 noise.
    """
    if not (isinstance(dt, (int, float)) and math.isfinite(dt)) or dt <= 0:
        raise ZeroDt(f"dt must be a positive number of seconds, got {dt!r}")
    pts = np.asarray(past_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise TooFewPoints("need at least three (x, y) positions")
    # the check below reports what overflows: a position, or the estimate at a small dt
    with np.errstate(over="ignore", invalid="ignore"):
        dyn = _dynamics(pts[None], dt)[0]
    est = tuple(dyn.tolist())
    if not ((np.abs(pts) <= MAX_ABS).all() and (np.abs(dyn) <= MAX_ABS).all()):
        raise NonFiniteValue(f"positions or their (v, a, h) = {est} hold a value that is {_BEYOND}")
    return est


def _dynamics(past: np.ndarray, dt: float) -> np.ndarray:
    """``(m, 3)`` ``[v, a, h]`` of ``(m, n, 2)`` tracks, n >= 3, as in
    ``estimate_dynamics``. Only the last two carried-forward headings enter
    h; each is a ``math.atan2``, whose bits ``np.arctan2`` may not match."""
    disp = np.diff(past, axis=1)
    norms = np.hypot(disp[..., 0], disp[..., 1])
    speeds = norms / dt
    steps = np.arange(norms.shape[1])
    last = np.maximum.accumulate(np.where(norms >= _HEADING_EPS, steps, -1), axis=1)[:, -2:]
    moved = np.take_along_axis(disp, np.maximum(last, 0)[..., None], axis=1).reshape(-1, 2)
    heading = np.array([math.atan2(dy, dx) for dx, dy in moved.tolist()]).reshape(last.shape)
    heading[last < 0] = 0.0
    # the turn wrapped into (-pi, pi]
    turn = np.fmod(heading[:, 1] - heading[:, 0] + math.pi, 2.0 * math.pi)
    turn[turn < 0.0] += 2.0 * math.pi
    turn -= math.pi
    a = (speeds[:, -1] - speeds[:, -2]) / dt
    return np.stack([speeds[:, -1], a, turn / dt], axis=1)


def pack_states(states: Sequence[TrajectoryState]) -> tuple[np.ndarray, np.ndarray]:
    """``(n, 12, 2)`` points and ``(n, 3)`` ``[v, a, h]`` columns of states."""
    # row by row: numpy converting the whole nested sequence at once holds
    # per-sequence bookkeeping about twice the size of the result
    pts = np.empty((len(states), TRAJECTORY_LEN, 2))
    dyn = np.empty((len(states), 3))
    for row, s in enumerate(states):
        pts[row], dyn[row] = s.points, (s.v, s.a, s.h)
    return pts, dyn


@dataclass(frozen=True, init=False, eq=False)
class TrajectoryPool:
    """An ordered pool of trajectory-states with a labeled subset, held as
    columns: row r of ``ids``, ``points`` and ``dyn`` is one record.

    ``labeled_ids`` is the current training pool; its complement is the
    unlabeled pool available to a sampling round. ``TrajectoryPool(states,
    labeled_ids)`` packs states into columns; ``from_columns`` takes them
    as they are.
    """

    ids: tuple[str, ...]
    points: np.ndarray
    dyn: np.ndarray
    labeled_ids: frozenset[str]

    def __init__(
        self, items: Iterable[TrajectoryState] = (), labeled_ids: Iterable[str] = ()
    ) -> None:
        items = tuple(items)
        self._freeze(tuple(s.id for s in items), *pack_states(items), labeled_ids)

    @classmethod
    def from_columns(cls, ids, points, dyn, labeled_ids: Iterable[str] = ()) -> TrajectoryPool:
        """A pool of ``ids`` with ``(n, 12, 2)`` points and ``(n, 3)`` ``[v, a, h]``.

        Rows are checked in order, and the first bad one raises with its
        index in the error's ``row``: ``EmptyId`` for an empty or non-string
        id, then ``NonFiniteValue``, then ``DuplicateId`` for an earlier id.
        """
        pool = cls.__new__(cls)
        pool._freeze(tuple(ids), points, dyn, labeled_ids)
        return pool

    def _freeze(self, ids: tuple, points, dyn, labeled_ids: Iterable[str]) -> None:
        # views, so freezing them leaves a caller's own arrays writable
        points = np.ascontiguousarray(points, dtype=np.float64).view()
        dyn = np.ascontiguousarray(dyn, dtype=np.float64).view()
        if points.shape != (len(ids), TRAJECTORY_LEN, 2) or dyn.shape != (len(ids), 3):
            raise WrongPointCount(f"{len(ids)} ids, columns {points.shape} and {dyn.shape}")
        # NaN compares false; boolean temporaries only, an eighth of np.abs's
        bounded = ((-MAX_ABS <= points) & (points <= MAX_ABS)).all(axis=(1, 2))
        bounded &= ((-MAX_ABS <= dyn) & (dyn <= MAX_ABS)).all(axis=1)
        seen: set[str] = set()
        for r, (id_, ok) in enumerate(zip(ids, bounded.tolist())):
            if not isinstance(id_, str) or not id_:
                exc = EmptyId("trajectory id must be a non-empty string")
            elif not ok:
                exc = NonFiniteValue(f"trajectory {id_!r} contains a value that is {_BEYOND}")
            elif id_ in seen:
                exc = DuplicateId(f"duplicate trajectory id {id_!r}")
            else:
                seen.add(id_)
                continue
            exc.row = r
            raise exc
        labeled = frozenset(labeled_ids)
        if not labeled <= seen:
            raise UnknownId(f"labeled ids not present in pool: {sorted(labeled - seen)[:5]}")
        points.flags.writeable = dyn.flags.writeable = False
        # set once, past the frozen __setattr__
        self.__dict__.update(ids=ids, points=points, dyn=dyn, labeled_ids=labeled)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrajectoryPool):
            return NotImplemented
        same = self.ids == other.ids and self.labeled_ids == other.labeled_ids
        return same and all(map(np.array_equal, (self.points, self.dyn), (other.points, other.dyn)))

    @property
    def items(self) -> Sequence[TrajectoryState]:
        """The rows as ``TrajectoryState``s, each built when it is read."""
        return _States(self)

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: Sequence[int]) -> TrajectoryPool:
        """The pool of ``rows``, in that order, with the labeled ids among them."""
        ids = tuple(map(self.ids.__getitem__, rows))
        labeled = self.labeled_ids.intersection(ids)
        return TrajectoryPool.from_columns(ids, self.points[rows], self.dyn[rows], labeled)


class _States(Sequence):
    """A pool's rows as a read-only sequence of ``TrajectoryState``s."""

    def __init__(self, pool: TrajectoryPool) -> None:
        self._pool = pool

    def __len__(self) -> int:
        return len(self._pool)

    def __getitem__(self, k: int) -> TrajectoryState:
        p = self._pool
        return TrajectoryState(p.ids[k], p.points[k].tolist(), *p.dyn[k].tolist())
