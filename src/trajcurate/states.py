"""Trajectory-state records and dynamics estimation.

A trajectory-state couples an agent's 12-point future ground-plane path
(2 Hz over 6 s) with its dynamic state at prediction time: velocity v
[m/s], acceleration a [m/s^2], and heading change rate h [rad/s]. These
records are the unit of clustering and sampling everywhere else in the
package; both container types are immutable so they can be shared freely
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

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
        if not all(math.isfinite(c) for c in flat):
            raise NonFiniteValue(f"trajectory {self.id!r} contains a non-finite value")


def validate_trajectory_state(raw: Mapping | TrajectoryState) -> TrajectoryState:
    """Build a validated TrajectoryState from a loose record.

    Accepts an existing TrajectoryState (returned as-is; construction
    already guarantees the invariants) or any mapping carrying ``id``,
    ``points``, ``v``, ``a`` and ``h``.
    """
    if isinstance(raw, TrajectoryState):
        return raw
    return TrajectoryState(id=raw["id"], points=raw["points"], v=raw["v"], a=raw["a"], h=raw["h"])


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
    if not np.all(np.isfinite(pts)):
        raise NonFiniteValue("position track contains a non-finite value")

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


def pack_states(states: Sequence[TrajectoryState]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(n, 12, 2)`` points and ``(n, 3)`` ``[v, a, h]`` columns."""
    pts = np.asarray([s.points for s in states], dtype=np.float64).reshape(-1, TRAJECTORY_LEN, 2)
    dyn = np.asarray([(s.v, s.a, s.h) for s in states], dtype=np.float64).reshape(-1, 3)
    pts.flags.writeable = False
    dyn.flags.writeable = False
    return pts, dyn


@dataclass(frozen=True)
class TrajectoryPool:
    """An ordered pool of trajectory-states with a labeled subset.

    ``labeled_ids`` is the current training pool; its complement within
    ``items`` is the unlabeled pool available to a sampling round.
    """

    items: tuple[TrajectoryState, ...]
    labeled_ids: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        rows: dict[str, int] = {}
        for row, s in enumerate(items):
            if s.id in rows:
                raise DuplicateId(f"duplicate trajectory id {s.id!r} in pool")
            rows[s.id] = row
        labeled = frozenset(self.labeled_ids)
        unknown = labeled.difference(rows)
        if unknown:
            raise UnknownId(f"labeled ids not present in pool: {sorted(unknown)[:5]}")
        object.__setattr__(self, "labeled_ids", labeled)
        object.__setattr__(self, "_rows", rows)

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (n, 12, 2) points and (n, 3) [v, a, h] rows, packed on first use."""
        return pack_states(self.items)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.items)

    @property
    def unlabeled_ids(self) -> frozenset[str]:
        return frozenset(self._rows) - self.labeled_ids

    def __len__(self) -> int:
        return len(self.items)

    def row(self, id_: str) -> int:
        """Index of ``id_`` in ``items`` and in the columns."""
        try:
            return self._rows[id_]
        except KeyError:
            raise UnknownId(f"no trajectory with id {id_!r}") from None

    def by_id(self, id_: str) -> TrajectoryState:
        return self.items[self.row(id_)]

    def with_labeled(self, extra: Iterable[str]) -> "TrajectoryPool":
        """Return a copy with ``extra`` ids moved into the labeled set."""
        return TrajectoryPool(self.items, self.labeled_ids | frozenset(extra))
