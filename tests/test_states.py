import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajcurate import (
    TrajectoryPool,
    TrajectoryState,
    estimate_dynamics,
)
from trajcurate.errors import (
    DuplicateId,
    EmptyId,
    NonFiniteValue,
    TooFewPoints,
    UnknownId,
    WrongPointCount,
    ZeroDt,
)

from trajcurate.states import _HEADING_EPS, MAX_ABS, _dynamics
from trajcurate.synth import DT, N_PAST, _tracks, canonical_pool_spec

from helpers import by_id, dynamics_oracle, with_labeled

VALID = {
    "id": "veh-1",
    "points": [(float(k), 0.5 * k) for k in range(12)],
    "v": 3.0,
    "a": -0.5,
    "h": 0.1,
}


def test_validate_identity_and_idempotence():
    state = TrajectoryState(**VALID)
    assert state.id == "veh-1"
    assert state.points == tuple((float(k), 0.5 * k) for k in range(12))
    assert (state.v, state.a, state.h) == (3.0, -0.5, 0.1)


def test_validate_wrong_point_count():
    with pytest.raises(WrongPointCount):
        TrajectoryState(**{**VALID, "points": VALID["points"][:11]})


def test_validate_nan_value():
    with pytest.raises(NonFiniteValue):
        TrajectoryState(**{**VALID, "v": float("nan")})
    with pytest.raises(NonFiniteValue):
        TrajectoryState(**{**VALID, "points": [(0.0, math.inf)] * 12})
    with pytest.raises(NonFiniteValue, match="beyond"):
        TrajectoryState(**{**VALID, "h": -1e151})
    assert TrajectoryState(**{**VALID, "h": -MAX_ABS}).h == -MAX_ABS


def test_pool_rejects_values_beyond_the_bound():
    points, dyn = np.zeros((2, 12, 2)), np.zeros((2, 3))
    dyn[1] = -MAX_ABS
    TrajectoryPool.from_columns(("p", "q"), points, dyn)
    points[1, 11, 1] = 2 * MAX_ABS
    with pytest.raises(NonFiniteValue, match="'q'.*beyond") as info:
        TrajectoryPool.from_columns(("p", "q"), points, dyn)
    assert info.value.row == 1


def test_validate_empty_id():
    with pytest.raises(EmptyId):
        TrajectoryState(**{**VALID, "id": ""})


def test_estimate_uniform_motion():
    assert estimate_dynamics([(0, 0), (1, 0), (2, 0)], dt=0.5) == (2.0, 0.0, 0.0)


def test_estimate_stationary():
    assert estimate_dynamics([(3.0, 4.0)] * 5, dt=0.5) == (0.0, 0.0, 0.0)


def test_estimate_quarter_circle():
    # radius 10 m at 5 m/s: angular rate 0.5 rad/s, quarter circle in pi s
    radius, speed, dt = 10.0, 5.0, 0.5
    omega = speed / radius
    ts = np.arange(0, 7) * dt
    pts = np.column_stack([radius * np.sin(omega * ts), radius * (1 - np.cos(omega * ts))])
    v, a, h = estimate_dynamics(pts, dt)
    assert abs(v - speed) <= 0.1 * speed
    assert abs(h - omega) <= 0.1 * omega
    assert abs(a) <= 0.1


def test_estimate_errors():
    with pytest.raises(TooFewPoints):
        estimate_dynamics([(0, 0), (1, 0)], dt=0.5)
    with pytest.raises(ZeroDt):
        estimate_dynamics([(0, 0), (1, 0), (2, 0)], dt=0.0)
    with pytest.raises(ZeroDt):
        estimate_dynamics([(0, 0), (1, 0), (2, 0)], dt=-1.0)
    with pytest.raises(NonFiniteValue):
        estimate_dynamics([(0, 0), (1, float("nan")), (2, 0)], dt=0.5)
    # a finite track whose estimate overflows at a tiny dt, or whose
    # positions are beyond the bound, raises with no warning and names the
    # estimate
    with pytest.raises(NonFiniteValue, match=r"\(v, a, h\) = \(inf, nan, 0\.0\)"):
        estimate_dynamics([(0, 0), (1e10, 0), (2e10, 0)], dt=1e-300)
    with pytest.raises(NonFiniteValue, match="positions or their"):
        estimate_dynamics([(0, 0), (1e308, 0), (-1e308, 0)], dt=0.5)
    assert estimate_dynamics([(0, 0), (0, MAX_ABS), (0, 0)], dt=1.0)[0] == MAX_ABS


@given(
    speed=st.floats(0.1, 30.0),
    angle=st.floats(-math.pi, math.pi),
    x0=st.floats(-100.0, 100.0),
    y0=st.floats(-100.0, 100.0),
    n=st.integers(3, 16),
)
def test_collinear_track_has_zero_accel_and_turn(speed, angle, x0, y0, n):
    dt = 0.5
    step = speed * dt
    pts = [(x0 + k * step * math.cos(angle), y0 + k * step * math.sin(angle)) for k in range(n)]
    v, a, h = estimate_dynamics(pts, dt)
    assert abs(a) <= 1e-9
    assert abs(h) <= 1e-9
    assert v == pytest.approx(speed, rel=1e-9)


def test_standstill_heading_carry_forward():
    # move, stop for two steps, move again in the same direction: no turn
    pts = [(0, 0), (1, 0), (1, 0), (1, 0), (2, 0)]
    v, a, h = estimate_dynamics(pts, dt=0.5)
    assert h == 0.0


def test_pool_invariants():
    a = TrajectoryState(**VALID)
    b = TrajectoryState(**{**VALID, "id": "veh-2"})
    pool = TrajectoryPool((a, b), frozenset({"veh-1"}))
    assert pool.unlabeled_ids == {"veh-2"}
    assert len(pool) == 2
    assert by_id(pool, "veh-2") == b
    with pytest.raises(DuplicateId):
        TrajectoryPool((a, a))
    with pytest.raises(UnknownId):
        TrajectoryPool((a, b), frozenset({"ghost"}))
    with pytest.raises(UnknownId):
        by_id(pool, "ghost")


def test_pool_with_labeled():
    a = TrajectoryState(**VALID)
    b = TrajectoryState(**{**VALID, "id": "veh-2"})
    pool = TrajectoryPool((a, b))
    grown = with_labeled(pool, ["veh-2"])
    assert grown.labeled_ids == {"veh-2"}
    assert pool.labeled_ids == frozenset()


def _assert_block_dynamics_match_oracle(past, dt=DT):
    got = _dynamics(np.asarray(past, dtype=float), dt)
    want = np.array([dynamics_oracle(p, dt) for p in past]).reshape(-1, 3)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_block_dynamics_match_oracle_on_canonical_pasts():
    _, tracks = _tracks(canonical_pool_spec(2000, 7))
    _assert_block_dynamics_match_oracle(tracks[:, :N_PAST])


def _hand_built_tracks(n, rng):
    """Tracks of n points whose steps stand still (a zero or a
    sub-``_HEADING_EPS`` displacement) or move 0.1-5 m, heading anywhere or
    just either side of +-pi; and tracks ending in steps of exactly
    ``_HEADING_EPS``, which count as moving."""
    still = [(0.0, 0.0), (0.4 * _HEADING_EPS, -0.3 * _HEADING_EPS)]
    near_pi = [math.pi - 1e-9, -math.pi + 1e-9, math.pi - 0.3, -math.pi + 0.3]

    def step(kind):
        if kind < len(still):
            return still[kind]
        angle = rng.choice(near_pi) if kind % 2 else rng.uniform(-math.pi, math.pi)
        return tuple(rng.uniform(0.1, 5.0) * np.array([math.cos(angle), math.sin(angle)]))

    moving = len(still)
    patterns = [[kind] * (n - 1) for kind in range(moving + 1)]
    for k in range(n - 1):  # one standstill at each step, the first included
        patterns += [[kind if j == k else moving + 1 for j in range(n - 1)] for kind in range(moving)]
    patterns += rng.integers(0, moving + 2, size=(200, n - 1)).tolist()
    tracks = []
    for pattern in patterns:
        disp = np.array([(0.0, 0.0)] + [step(kind) for kind in pattern])
        tracks.append(rng.uniform(-50.0, 50.0, size=2) + np.cumsum(disp, axis=0))
    eps = _HEADING_EPS
    tracks.append([(0.0, 0.0)] * (n - 2) + [(0.0, 1.0), (eps, 1.0)])
    tracks.append([(0.0, 0.0)] * (n - 2) + [(0.0, -eps), (1.0, -eps)])
    # a reversal, and a turn across the branch cut at +-pi
    tracks.append([(0.0, 0.0)] * (n - 2) + [(1.0, 0.0), (0.0, 0.0)])
    tracks.append([(0.0, 0.0)] * (n - 2) + [(-1.0, 0.0), (-2.0, -1e-9)])
    return tracks


@pytest.mark.parametrize("n", [3, 4, 5, 8, 17])
def test_block_dynamics_match_oracle_on_hand_built_tracks(n):
    tracks = _hand_built_tracks(n, np.random.default_rng(n))
    _assert_block_dynamics_match_oracle(tracks)
    _assert_block_dynamics_match_oracle(tracks, dt=1)
