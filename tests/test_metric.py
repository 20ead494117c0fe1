import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajcurate import (
    CondensedDistanceMatrix,
    MetricWeights,
    TrajectoryState,
    metric,
    pairwise_distances,
    trajectory_state_distance,
    write_distance_matrix,
)
from trajcurate.errors import NonFiniteValue, ParseError
from trajcurate.metric import _distance, condensed_index
from trajcurate.states import MAX_ABS, TRAJECTORY_LEN, pack_states
from trajcurate.surrogate import PREFIX_LEN

from helpers import (
    BASE_LINE,
    make_state,
    pairwise_oracle,
    random_condensed,
    random_states,
    reference_distance,
    sum_distance_oracle,
    to_square,
)


def test_default_weights():
    w = MetricWeights()
    assert (w.k_a, w.k_v, w.k_h) == (1 / 20, 1 / 40, 1.0)
    with pytest.raises(NonFiniteValue):
        MetricWeights(k_a=-1.0)
    with pytest.raises(NonFiniteValue, match=r"\[0, 1e\+150\]"):
        MetricWeights(k_h=1e200)
    assert MetricWeights(MAX_ABS, MAX_ABS, MAX_ABS).k_h == MAX_ABS


def test_distance_states_beyond_the_bound_raise():
    # x = +-1e308 would make the distance inf, and a = +-1e308 under k_a = 0
    # NaN: the states themselves are refused
    beyond = ({"offset": (1e308, 0.0)}, {"offset": (-1e308, 0.0)}, {"a": 1e308}, {"a": -1e308})
    for kwargs in beyond:
        with pytest.raises(NonFiniteValue, match="beyond"):
            make_state("a", **kwargs)
    # at the bound, the distance is finite: 12 point terms and three weighted
    # differences of 2e300, with every weight at the bound
    a = make_state("a", offset=(MAX_ABS, MAX_ABS), v=MAX_ABS, a=MAX_ABS, h=MAX_ABS)
    b = make_state("b", offset=(-MAX_ABS, -MAX_ABS), v=-MAX_ABS, a=-MAX_ABS, h=-MAX_ABS)
    d = trajectory_state_distance(a, b, MetricWeights(MAX_ABS, MAX_ABS, MAX_ABS))
    assert d == pytest.approx(6e300)


def test_distance_identity():
    a = make_state("a", v=3.0, a=1.0, h=0.2)
    assert trajectory_state_distance(a, a) == 0.0


def test_distance_pythagorean_offset():
    a = make_state("a")
    b = make_state("b", offset=(3.0, 4.0))
    assert trajectory_state_distance(a, b) == 60.0


def test_distance_state_terms():
    a = make_state("a", v=20.0, h=0.5)
    b = make_state("b", v=0.0, h=-0.5)
    assert trajectory_state_distance(a, b) == 1.5


def test_distance_symmetry_exact():
    rng = np.random.default_rng(0)
    xs = random_states(rng, 20)
    ys = random_states(rng, 20)
    for x, y in zip(xs, ys):
        assert trajectory_state_distance(x, y) == trajectory_state_distance(y, x)


def test_zero_distance_implies_equality():
    a = make_state("a", v=1.0)
    nudged = list(BASE_LINE)
    nudged[7] = (nudged[7][0] + 1e-9, nudged[7][1])
    b = make_state("b", v=1.0, points=tuple(nudged))
    assert trajectory_state_distance(a, b) > 0.0
    c = make_state("c", v=1.0 + 1e-12)
    assert trajectory_state_distance(a, c) > 0.0
    same = make_state("d", v=1.0)
    assert trajectory_state_distance(a, same) == 0.0


@given(c=st.floats(1e-3, 1e3), seed=st.integers(0, 2**16))
def test_positive_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    x, y = random_states(rng, 2)
    w = MetricWeights()
    scaled_w = MetricWeights(k_a=c * w.k_a, k_v=c * w.k_v, k_h=c * w.k_h)
    xs = TrajectoryState("xs", tuple((c * px, c * py) for px, py in x.points), x.v, x.a, x.h)
    ys = TrajectoryState("ys", tuple((c * px, c * py) for px, py in y.points), y.v, y.a, y.h)
    d = trajectory_state_distance(x, y, w)
    ds = trajectory_state_distance(xs, ys, scaled_w)
    assert ds == pytest.approx(c * d, rel=1e-12)


def test_triangle_inequality_sample():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x, y, z = random_states(rng, 3)
        dxy = trajectory_state_distance(x, y)
        dyz = trajectory_state_distance(y, z)
        dxz = trajectory_state_distance(x, z)
        assert dxz <= dxy + dyz + 1e-9


def test_pairwise_shapes():
    rng = np.random.default_rng(2)
    states = random_states(rng, 3)
    m = pairwise_distances(states)
    assert m.n == 3 and m.values.shape == (3,)
    single = pairwise_distances(states[:1])
    assert single.n == 1 and single.values.shape == (0,)


def test_pairwise_matches_pointwise_exactly():
    rng = np.random.default_rng(3)
    states = random_states(rng, 50)
    m = pairwise_distances(states)
    for i in range(50):
        for j in range(i + 1, 50):
            expected = trajectory_state_distance(states[i], states[j])
            assert m.values[condensed_index(50, i, j)] == expected
            assert m.get(i, j) == expected
    assert m.get(4, 4) == 0.0
    assert m.get(7, 2) == m.get(2, 7)


@pytest.mark.parametrize("prefix_len", range(1, 13))
def test_kernel_matches_loop_reference(prefix_len):
    rng = np.random.default_rng(6)
    xs, ys = random_states(rng, 300), random_states(rng, 300)
    w = MetricWeights(k_a=0.3, k_v=0.2, k_h=1.7)
    (px, dx), (py, dy) = pack_states(xs), pack_states(ys)
    got = _distance(px, dx, py, dy, w, prefix_len)
    for d, x, y in zip(got, xs, ys):
        assert d == reference_distance(x, y, w, prefix_len)


@pytest.mark.parametrize("prefix_len", range(1, 13))
def test_kernel_equals_sum_oracle_bitwise(prefix_len):
    rng = np.random.default_rng(7)
    w = MetricWeights(k_a=0.3, k_v=0.2, k_h=1.7)
    (px, dx), (py, dy) = pack_states(random_states(rng, 300)), pack_states(random_states(rng, 40))
    shapes = [
        ((px[:40], dx[:40]), (py, dy)),  # paired rows
        ((px[:, None], dx[:, None]), (py[None], dy[None])),  # (q, 1) x (1, m)
        ((py[:, None], dy[:, None]), (px[None], dx[None])),
    ]
    for (pa, da), (pb, db) in shapes:
        got = _distance(pa, da, pb, db, w, prefix_len)
        want = sum_distance_oracle(pa, da, pb, db, w, prefix_len)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 63, 64, 65, 333])
def test_pairwise_bytes_equal_row_oracle(n, workers, monkeypatch):
    rng = np.random.default_rng(n)
    states = random_states(rng, n)
    pts, dyn = pack_states(states)
    want = pairwise_oracle(pts, dyn).tobytes()
    # the default 16-row tiles, then tiles of 1,000 // n and 100 // n rows (at least 1)
    for tile_pairs in (metric._TILE_PAIRS, 1_000, 100):
        monkeypatch.setattr(metric, "_TILE_PAIRS", tile_pairs)
        assert pairwise_distances(states, workers=workers).values.tobytes() == want, tile_pairs


@pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 1100])
def test_to_square_equals_row_mirror(n):
    m = random_condensed(np.random.default_rng(n), n)
    want = np.zeros((n, n))
    pos = 0
    for i in range(n - 1):
        row = m.values[pos : pos + n - 1 - i]
        want[i, i + 1 :] = row
        want[i + 1 :, i] = row
        pos += n - 1 - i
    assert np.array_equal(to_square(m), want)


def test_pairwise_worker_determinism():
    rng = np.random.default_rng(4)
    states = random_states(rng, 120)
    one = pairwise_distances(states, workers=1)
    many = pairwise_distances(states, workers=4)
    assert one.values.tobytes() == many.values.tobytes()


def _kernel_shapes():
    rng = np.random.default_rng(8)
    pts, dyn = pack_states(random_states(rng, 200))
    return {
        # trajectory_state_distance's (1,) against (1,)
        "pointwise": ((pts[:1], dyn[:1], pts[1:2], dyn[1:2]), TRAJECTORY_LEN),
        # a pairwise tile: 8 rows against every column after the first
        "tile": ((pts[:8, None], dyn[:8, None], pts[None, 1:], dyn[None, 1:]), TRAJECTORY_LEN),
        # a holdout block of _rank_holdout's queries against the training rows
        "holdout": ((pts[:64, None], dyn[:64, None], pts[None, 64:], dyn[None, 64:]), PREFIX_LEN),
    }


@pytest.mark.parametrize("case", ["pointwise", "tile", "holdout"])
def test_kernel_scratch_gives_the_same_bytes(case):
    args, prefix_len = _kernel_shapes()[case]
    w = MetricWeights(k_a=0.3, k_v=0.2, k_h=1.7)
    want = _distance(*args, w, prefix_len)
    shape = np.broadcast_shapes(args[0].shape[:-2], args[2].shape[:-2])
    scratch = [np.full(shape, np.nan) for _ in range(5)]  # every cell is overwritten
    got = _distance(*args, w, prefix_len, scratch=scratch)
    assert got is scratch[0]
    assert got.tobytes() == want.tobytes()


def test_default_workers_follow_the_cpu_affinity(monkeypatch):
    seen = []

    class Recorder(metric.ThreadPoolExecutor):
        def __init__(self, max_workers):
            seen.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(metric, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(metric.os, "cpu_count", lambda: 8)
    states = random_states(np.random.default_rng(4), 40)
    for cpus, workers in (({0}, 1), ({1, 5}, 2), (set(range(8)), 4)):
        monkeypatch.setattr(metric.os, "sched_getaffinity", lambda _, c=cpus: c, raising=False)
        pairwise_distances(states)
        assert seen.pop() == workers
    # without affinity, the CPU count, still at most 4
    monkeypatch.delattr(metric.os, "sched_getaffinity", raising=False)
    pairwise_distances(states)
    assert seen.pop() == 4


def test_pairwise_matrix_is_not_rescanned(monkeypatch):
    # a bounded pool cannot give a NaN, infinite or negative distance, so
    # pairwise_distances builds its matrix without the caller-values check
    def refuse(self):
        raise AssertionError("pairwise_distances ran the value check")

    monkeypatch.setattr(CondensedDistanceMatrix, "__post_init__", refuse)
    states = random_states(np.random.default_rng(9), 30)
    m = pairwise_distances(states)
    assert m.n == 30 and not m.values.flags.writeable
    assert m.values.tobytes() == pairwise_oracle(*pack_states(states)).tobytes()


def test_condensed_validation():
    with pytest.raises(ParseError):
        CondensedDistanceMatrix(n=3, values=np.array([1.0]))
    with pytest.raises(NonFiniteValue):
        CondensedDistanceMatrix(n=3, values=np.array([1.0, -2.0, 1.0]))
    with pytest.raises(NonFiniteValue):
        CondensedDistanceMatrix(n=3, values=np.array([1.0, np.nan, 1.0]))
    assert CondensedDistanceMatrix(n=3, values=np.array([1.0, -0.0, 1.0])).get(0, 2) == 0.0


def test_matrix_dump_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    m = pairwise_distances(random_states(rng, 17))
    path = tmp_path / "pairs.tsdm"
    write_distance_matrix(m, path)
    raw = path.read_bytes()
    assert raw[:4] == b"TSDM"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert int.from_bytes(raw[8:16], "little") == 17
    assert raw[16:] == m.values.astype("<f8").tobytes()

