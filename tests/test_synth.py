import math
from collections import Counter

import numpy as np
import pytest

from trajcurate import MotifSpec, SyntheticPoolSpec, canonical_pool_spec, synthetic_pool
from trajcurate.errors import InvalidSpec
from trajcurate.synth import (
    _T_GRID,
    DT,
    N_PAST,
    _stop_then_turn,
    largest_remainder,
    motif_key,
)

from helpers import stop_then_turn_oracle


def test_generator_deterministic():
    spec = canonical_pool_spec(total_count=200, seed=5)
    assert synthetic_pool(spec) == synthetic_pool(spec)


def test_record_adapters_the_benchmark_uses(tmp_path):
    # perfbench/workloads.py builds its pools through records, with these
    # names from these modules
    from trajcurate.io import load_trajectories, write_trajectories
    from trajcurate.metric import pairwise_distances, trajectory_state_distance
    from trajcurate.states import TrajectoryPool, TrajectoryState
    from trajcurate.synth import generate_synthetic_pool

    spec = canonical_pool_spec(total_count=60, seed=5)
    pool = synthetic_pool(spec)
    states = generate_synthetic_pool(spec)
    assert states == list(pool.items)
    assert len(pool.items) == 60 and pool.items[7] == states[7]
    assert isinstance(states[7], TrajectoryState)
    assert TrajectoryPool(tuple(states)) == pool
    matrix = pairwise_distances(states)
    assert matrix.values.tobytes() == pairwise_distances(pool).values.tobytes()
    assert matrix.get(3, 41) == trajectory_state_distance(states[3], states[41])
    write_trajectories(TrajectoryPool(tuple(states)), tmp_path / "pool.jsonl")
    assert load_trajectories(tmp_path / "pool.jsonl") == pool


def test_counts_follow_weights_exactly():
    spec = SyntheticPoolSpec(
        motifs=(
            MotifSpec("straight", 0.9, v_range=(10.0, 10.0)),
            MotifSpec("u-turn", 0.1, v_range=(5.0, 5.0), h_range=(0.5, 0.5)),
        ),
        total_count=100,
        seed=0,
    )
    ids = synthetic_pool(spec).ids
    assert len(ids) == 100
    assert sum(1 for id_ in ids if id_.startswith("straight")) == 90
    assert sum(1 for id_ in ids if id_.startswith("u-turn")) == 10
    assert len(set(ids)) == 100


def test_noise_free_straight_is_exact():
    spec = SyntheticPoolSpec(
        motifs=(MotifSpec("straight", 1.0, noise_sigma=0.0, v_range=(10.0, 10.0)),),
        total_count=3,
        seed=9,
    )
    pool = synthetic_pool(spec)
    assert pool.points.tolist() == [[[0.5 * k * 10.0, 0.0] for k in range(1, 13)]] * 3
    assert pool.dyn.tolist() == [[10.0, 0.0, 0.0]] * 3


def test_noise_free_arc_dynamics_consistent():
    omega, v0 = 0.3, 6.0
    spec = SyntheticPoolSpec(
        motifs=(MotifSpec("left-turn", 1.0, v_range=(v0, v0), h_range=(omega, omega)),),
        total_count=1,
        seed=2,
    )
    ((v, a, h),) = synthetic_pool(spec).dyn.tolist()
    # chord speed of a constant-rate arc: v0 * sin(w dt / 2) / (w dt / 2)
    chord = v0 * math.sin(omega * DT / 2) / (omega * DT / 2)
    assert v == pytest.approx(chord, rel=1e-12)
    assert h == pytest.approx(omega, abs=1e-12)
    assert abs(a) < 1e-9


def test_right_turn_mirrors_left():
    def one(kind):
        spec = SyntheticPoolSpec(
            motifs=(MotifSpec(kind, 1.0, v_range=(8.0, 8.0), h_range=(0.4, 0.4)),),
            total_count=1,
            seed=4,
        )
        return synthetic_pool(spec)

    left, right = one("left-turn"), one("right-turn")
    np.testing.assert_allclose(left.points, right.points * (1.0, -1.0), rtol=0, atol=1e-12)
    assert left.dyn[0, 2] == pytest.approx(-right.dyn[0, 2], abs=1e-12)


def test_stop_motif_comes_to_rest():
    spec = SyntheticPoolSpec(
        motifs=(MotifSpec("stop", 1.0, v_range=(8.0, 8.0), a_range=(2.0, 2.0)),),
        total_count=1,
        seed=1,
    )
    pool = synthetic_pool(spec)
    ((v, a, _),) = pool.dyn.tolist()
    # stops after v0/d = 4 s at x = v0^2 / (2 d) = 16 m; tail points pinned there
    assert pool.points[0, -2:].tolist() == [[16.0, 0.0], [16.0, 0.0]]
    # chord speed of the final past segment of a decelerating track: v0 + d dt / 2
    assert v == pytest.approx(8.5, rel=1e-12)
    assert a == pytest.approx(-2.0, rel=1e-12)


def test_noisy_dynamics_match_reestimation():
    # the recorded state must be what estimate_dynamics sees in the noisy past
    spec = canonical_pool_spec(total_count=100, seed=3)
    pool = synthetic_pool(spec)
    assert np.isfinite(pool.dyn).all()
    v_values = [v for id_, v in zip(pool.ids, pool.dyn[:, 0].tolist()) if id_.startswith("straight-m00")]
    assert v_values and all(10.0 < v < 16.0 for v in v_values)


def test_largest_remainder():
    assert largest_remainder([0.9, 0.1], 100) == [90, 10]
    assert largest_remainder([1 / 3, 1 / 3, 1 / 3], 10) == [4, 3, 3]
    assert largest_remainder([0.5, 0.5], 5) == [3, 2]
    assert largest_remainder([0.0, 1.0], 7) == [0, 7]
    assert sum(largest_remainder([0.21, 0.33, 0.46], 17)) == 17


def test_spec_validation():
    ok = MotifSpec("straight", 1.0, v_range=(5.0, 6.0))
    with pytest.raises(InvalidSpec):
        SyntheticPoolSpec(motifs=(ok,), total_count=-1)
    with pytest.raises(InvalidSpec):
        SyntheticPoolSpec(
            motifs=(MotifSpec("straight", 0.6, v_range=(5.0, 6.0)),), total_count=10
        )
    with pytest.raises(InvalidSpec):
        MotifSpec("zigzag", 1.0)
    with pytest.raises(InvalidSpec):
        MotifSpec("straight", 1.0, v_range=(6.0, 5.0))
    with pytest.raises(InvalidSpec):
        MotifSpec("left-turn", 1.0, h_range=(0.0, 0.0))
    with pytest.raises(InvalidSpec):
        MotifSpec("stop", 1.0, a_range=(0.0, 0.0))
    with pytest.raises(InvalidSpec):
        MotifSpec("straight", 1.0, noise_sigma=-0.1)


def test_canonical_spec_shape():
    spec = canonical_pool_spec()
    assert len(spec.motifs) == 48
    dense = [m for m in spec.motifs if m.weight > 0.01]
    rare = [m for m in spec.motifs if m.weight <= 0.01]
    assert len(dense) == 8 and len(rare) == 40
    assert math.fsum(m.weight for m in spec.motifs) == pytest.approx(1.0, abs=1e-9)
    ids = synthetic_pool(canonical_pool_spec(total_count=2000)).ids
    assert len(ids) == 2000
    counts = Counter(map(motif_key, ids))
    dense_counts = sorted(c for c in counts.values() if c > 20)
    assert dense_counts == [225] * 8
    assert sum(c for c in counts.values() if c <= 20) == 200


def test_motif_key():
    assert motif_key("left-turn-m03-0015") == "left-turn-m03"
    assert motif_key("straight-m00-0001") == "straight-m00"


def test_past_grid_shape():
    # five past points feed the dynamics estimate; check the time origin
    spec = SyntheticPoolSpec(
        motifs=(MotifSpec("straight", 1.0, noise_sigma=0.0, v_range=(4.0, 4.0)),),
        total_count=1,
        seed=0,
    )
    pool = synthetic_pool(spec)
    assert N_PAST == 5
    assert pool.points[0, 0].tolist() == [2.0, 0.0]  # first future point at t = 0.5 s


def test_block_stop_then_turn_matches_per_step_formula():
    # stops from 0.1 s to 40 s in: some tracks turn early, some never do
    params = np.random.default_rng(4).uniform((0.5, 0.5, 0.5), (20.0, 4.0, 4.0), (300, 3))
    got = np.stack(_stop_then_turn(_T_GRID, *params.T[..., None]), axis=-1)
    want = [stop_then_turn_oracle(_T_GRID, *p) for p in params.tolist()]
    np.testing.assert_array_equal(got.view(np.int64), np.array(want).view(np.int64))
