"""Synthetic trajectory-state pools built from closed-form motion motifs.

Each motif is an agent-frame maneuver (origin at the prediction instant,
initial heading along +x) evaluated on the 2 Hz grid t = -2.0 .. 6.0 s:
five past positions feed the dynamics estimate, the twelve future
positions become the trajectory. Gaussian position noise of the motif's
sigma is added to the whole track before the dynamics are derived, so the
recorded (v, a, h) are always consistent with the stored points.

Generation is a pure function of the spec: motif counts come from
largest-remainder rounding of the weights and each motif owns an RNG
substream spawned from the pool seed. A motif's tracks are built as one
block, and the pool as columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidSpec
from .sampling import phase_rng
from .states import TRAJECTORY_LEN, TrajectoryPool, TrajectoryState, _dynamics

DT = 0.5
N_PAST = 5  # positions at t = -2.0 .. 0.0 inclusive

KINDS = ("straight", "left-turn", "right-turn", "stop", "stop-then-turn", "u-turn")
_TURNING = {"left-turn", "right-turn", "u-turn", "stop-then-turn"}
_DECELERATING = {"stop", "stop-then-turn"}

# fixed stop-then-turn geometry: dwell before the turn and turn radius
_DWELL_S = 1.0
_TURN_RADIUS_M = 8.0

_T_GRID = np.arange(-(N_PAST - 1), TRAJECTORY_LEN + 1, dtype=np.float64) * DT


@dataclass(frozen=True)
class MotifSpec:
    """One maneuver archetype and the parameter ranges it draws from.

    ``v_range`` bounds the approach speed, ``a_range`` the longitudinal
    acceleration (deceleration magnitude for stopping kinds) and
    ``h_range`` the turn-rate magnitude for turning kinds.
    """

    kind: str
    weight: float
    noise_sigma: float = 0.0
    v_range: tuple[float, float] = (8.0, 8.0)
    a_range: tuple[float, float] = (0.0, 0.0)
    h_range: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown motif kind {self.kind!r}")
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise InvalidSpec(f"motif weight must be >= 0, got {self.weight}")
        if self.noise_sigma < 0.0:
            raise InvalidSpec(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        for name in ("v_range", "a_range", "h_range"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise InvalidSpec(f"{name} must be a finite (lo, hi) with lo <= hi")
        if self.v_range[0] < 0.0:
            raise InvalidSpec("v_range must be non-negative")
        if self.kind in _DECELERATING and self.a_range[0] <= 0.0:
            raise InvalidSpec(f"{self.kind} needs a positive deceleration range")
        if self.kind in _TURNING and self.h_range[0] <= 0.0:
            raise InvalidSpec(f"{self.kind} needs a positive turn-rate range")


@dataclass(frozen=True)
class SyntheticPoolSpec:
    motifs: tuple[MotifSpec, ...]
    total_count: int
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "motifs", tuple(self.motifs))
        if self.total_count < 0:
            raise InvalidSpec(f"total_count must be >= 0, got {self.total_count}")
        if not self.motifs:
            raise InvalidSpec("need at least one motif")
        total = math.fsum(m.weight for m in self.motifs)
        if abs(total - 1.0) > 1e-9:
            raise InvalidSpec(f"motif weights must sum to 1, got {total!r}")


def largest_remainder(weights: Sequence[float], total: int) -> list[int]:
    """Apportion ``total`` into integer counts proportional to ``weights``.

    Floors first, then hands the leftover units to the largest fractional
    remainders (ties to the lower index), so counts always sum to total.
    """
    raw = [w * total for w in weights]
    counts = [int(math.floor(r)) for r in raw]
    leftover = total - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def _straight(t: np.ndarray, v0, accel):
    return v0 * t + 0.5 * accel * t * t, 0.0


def _arc(t: np.ndarray, v0, omega):
    radius = v0 / omega
    return radius * np.sin(omega * t), radius * (1.0 - np.cos(omega * t))


def _stop(t: np.ndarray, v0, decel):
    t_stop = v0 / decel
    moving = v0 * t - 0.5 * decel * t * t
    return np.where(t < t_stop, moving, v0 * v0 / (2.0 * decel)), 0.0


def _stop_then_turn(t: np.ndarray, v0, decel, accel):
    x, y = _stop(t, v0, decel)
    t_go = v0 / decel + _DWELL_S
    # libm pow per element, like a float's ** 2; an array's ** 2 squares, off in rare last bits
    phi = 0.5 * accel * np.float_power(t - t_go, 2.0) / _TURN_RADIUS_M
    turning = t > t_go  # and so past the stop, where x is the resting x
    x = np.where(turning, x + _TURN_RADIUS_M * np.sin(phi), x)
    return x, np.where(turning, _TURN_RADIUS_M * (1.0 - np.cos(phi)), y)


def _motif_track(kind: str, v0, ap, hp) -> np.ndarray:
    """The ``(..., 17, 2)`` track of ``kind`` for parameters that broadcast
    against the time grid, such as ``(count, 1)`` columns."""
    if kind == "straight":
        x, y = _straight(_T_GRID, v0, ap)
    elif kind == "stop":
        x, y = _stop(_T_GRID, v0, ap)
    elif kind == "stop-then-turn":
        x, y = _stop_then_turn(_T_GRID, v0, ap, np.maximum(ap, 1.0))
    else:  # a turn or a u-turn; MotifSpec has checked the kind
        x, y = _arc(_T_GRID, v0, -hp if kind == "right-turn" else hp)
    return np.stack(np.broadcast_arrays(x, y), axis=-1)


def _tracks(spec: SyntheticPoolSpec) -> tuple[list[str], np.ndarray]:
    """The ids and ``(n, 17, 2)`` noisy tracks of a spec, motif by motif."""
    counts = largest_remainder([m.weight for m in spec.motifs], spec.total_count)
    ids: list[str] = []
    tracks = []
    for midx, (motif, count) in enumerate(zip(spec.motifs, counts)):
        rng = phase_rng(spec.seed, midx)
        ranges = (motif.v_range, motif.a_range, motif.h_range)
        params = np.empty((3, count, 1))  # v0, ap and hp as columns
        noise = np.empty((count, _T_GRID.shape[0], 2))
        for i in range(count):
            # fixed draw order per item keeps the stream layout stable
            params[:, i, 0] = [rng.uniform(*r) for r in ranges]
            rng.standard_normal(out=noise[i])
        track = _motif_track(motif.kind, *params)
        if motif.noise_sigma > 0.0:
            track = track + motif.noise_sigma * noise
        ids += [f"{motif.kind}-m{midx:02d}-{i:04d}" for i in range(count)]
        tracks.append(track)
    return ids, np.concatenate(tracks)


def synthetic_pool(spec: SyntheticPoolSpec) -> TrajectoryPool:
    """Deterministically generate ``spec.total_count`` trajectory-states."""
    ids, tracks = _tracks(spec)
    return TrajectoryPool.from_columns(ids, tracks[:, N_PAST:], _dynamics(tracks[:, :N_PAST], DT))


def generate_synthetic_pool(spec: SyntheticPoolSpec) -> list[TrajectoryState]:
    """``synthetic_pool(spec)`` as a list of ``TrajectoryState`` records."""
    return list(synthetic_pool(spec).items)


def motif_key(id_: str) -> str:
    """Group key for stratified splits: the id up to the item counter."""
    return id_.rsplit("-", 1)[0]


# ---------------------------------------------------------------------------
# canonical benchmark fixture: 8 dense maneuver archetypes carry 90% of the
# mass, 40 rare archetypes carry 10%; the cophenetic cut below keeps each
# dense archetype in a handful of large clusters and the rare ones in small
# clusters or singletons.
# ---------------------------------------------------------------------------

CANONICAL_TAU = 30.0
CANONICAL_SEED = 7


def _dense_motifs(sigma: float) -> list[MotifSpec]:
    w = 0.9 / 8
    return [
        MotifSpec("straight", w, sigma, v_range=(12.5, 13.5), a_range=(-0.15, 0.15)),
        MotifSpec("straight", w, sigma, v_range=(7.5, 8.5), a_range=(-0.15, 0.15)),
        MotifSpec("straight", w, sigma, v_range=(2.5, 3.5), a_range=(-0.1, 0.1)),
        MotifSpec("left-turn", w, sigma, v_range=(7.5, 8.5), h_range=(0.18, 0.22)),
        MotifSpec("right-turn", w, sigma, v_range=(7.5, 8.5), h_range=(0.18, 0.22)),
        MotifSpec("stop", w, sigma, v_range=(7.5, 8.5), a_range=(2.0, 2.5)),
        MotifSpec("left-turn", w, sigma, v_range=(12.5, 13.5), h_range=(0.08, 0.10)),
        MotifSpec("right-turn", w, sigma, v_range=(12.5, 13.5), h_range=(0.08, 0.10)),
    ]


def _rare_motifs(sigma: float) -> list[MotifSpec]:
    w = 0.1 / 40
    motifs: list[MotifSpec] = []

    def vr(v: float) -> tuple[float, float]:
        return (v - 0.2, v + 0.2)

    def hr(h: float) -> tuple[float, float]:
        return (h - 0.02, h + 0.02)

    for v in (2.5, 4.5, 6.5, 8.5):
        for om in (0.45, 0.55):
            motifs.append(MotifSpec("u-turn", w, sigma, v_range=vr(v), h_range=hr(om)))
    for kind in ("left-turn", "right-turn"):
        for v in (4.0, 6.0, 10.0):
            for om in (0.35, 0.5):
                motifs.append(MotifSpec(kind, w, sigma, v_range=vr(v), h_range=hr(om)))
    for v in (5.0, 7.0):
        for dec in (2.2, 3.2):
            motifs.append(
                MotifSpec(
                    "stop-then-turn",
                    w,
                    sigma,
                    v_range=vr(v),
                    a_range=(dec - 0.1, dec + 0.1),
                    h_range=hr(0.4),
                )
            )
    for v in (13.0, 16.0):
        motifs.append(MotifSpec("stop", w, sigma, v_range=vr(v), a_range=(3.4, 3.6)))
    for v in (17.5, 19.5, 1.0, 0.5):
        motifs.append(MotifSpec("straight", w, sigma, v_range=(max(0.0, v - 0.2), v + 0.2)))
    for kind in ("left-turn", "right-turn"):
        for v in (2.0, 3.0):
            motifs.append(MotifSpec(kind, w, sigma, v_range=vr(v), h_range=hr(0.6)))
    for v in (5.0, 9.0):
        motifs.append(
            MotifSpec("straight", w, sigma, v_range=vr(v), a_range=(1.4, 1.6))
        )
    motifs.append(MotifSpec("straight", w, sigma, v_range=vr(15.0), a_range=(-1.6, -1.4)))
    motifs.append(MotifSpec("stop", w, sigma, v_range=vr(2.0), a_range=(0.9, 1.1)))
    motifs.append(MotifSpec("u-turn", w, sigma, v_range=vr(10.5), h_range=hr(0.5)))
    motifs.append(
        MotifSpec(
            "stop-then-turn",
            w,
            sigma,
            v_range=vr(9.0),
            a_range=(2.7, 2.9),
            h_range=hr(0.4),
        )
    )
    return motifs


def canonical_pool_spec(total_count: int = 2000, seed: int = CANONICAL_SEED) -> SyntheticPoolSpec:
    """The in-repo benchmark fixture used by the phase-transition check."""
    sigma = 0.15
    return SyntheticPoolSpec(
        motifs=tuple(_dense_motifs(sigma) + _rare_motifs(sigma)),
        total_count=total_count,
        seed=seed,
    )
