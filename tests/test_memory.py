"""Memory held by the commands that own a distance matrix.

``cluster``, ``cluster --matrix-out`` and ``stats`` each build one
condensed matrix and hand it to the linkage, which takes over its buffer;
a matrix dump is written from that buffer. So each command's traced peak
stays near one matrix, not the two or three a copy would hold. The
blocked finiteness check in ``CondensedDistanceMatrix`` must still catch a
bad value wherever it sits relative to its blocks.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from trajcurate import CondensedDistanceMatrix, TrajectoryPool, upgma_linkage
from trajcurate.cli import dispatch
from trajcurate.errors import NonFiniteValue
from trajcurate.io import write_trajectories
from trajcurate.metric import _CHECK_BLOCK
from trajcurate.synth import canonical_pool_spec, generate_synthetic_pool

POOL_SIZE = 2000
MATRIX_BYTES = 8 * POOL_SIZE * (POOL_SIZE - 1) // 2


@pytest.fixture(scope="module")
def canonical_2k(tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "pool.jsonl"
    items = generate_synthetic_pool(canonical_pool_spec(total_count=POOL_SIZE, seed=0))
    write_trajectories(TrajectoryPool(tuple(items)), path)
    return path


@pytest.mark.parametrize("command", ["cluster", "cluster-matrix-out", "stats"])
def test_command_peak_is_one_matrix(canonical_2k, tmp_path, command):
    argv = ["stats" if command == "stats" else "cluster", "--input", str(canonical_2k)]
    if command != "stats":
        argv += ["--out", str(tmp_path)]
    if command == "cluster-matrix-out":
        argv += ["--matrix-out", str(tmp_path / "pairs.tsdm")]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = dispatch(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # a copy of the matrix anywhere on the path would add a whole 1.0
    assert peak <= 1.75 * MATRIX_BYTES, peak / MATRIX_BYTES


def _tie_heavy(rng, n):
    return CondensedDistanceMatrix(n=n, values=rng.integers(0, 4, n * (n - 1) // 2) / 2.0)


def test_default_linkage_leaves_matrix_intact():
    m = _tie_heavy(np.random.default_rng(3), 40)
    before = m.values.tobytes()
    upgma_linkage(m)
    assert m.values.tobytes() == before
    assert not m.values.flags.writeable


def test_matrix_freezes_a_view_of_the_callers_array():
    a = np.ones(3)
    m = CondensedDistanceMatrix(n=3, values=a)
    a[0] = 2.0  # the caller's array stays writable
    assert m.values[0] == 2.0  # and is shared, not copied
    assert not m.values.flags.writeable


@pytest.mark.parametrize("seed", range(20))
def test_overwrite_gives_the_default_dendrogram(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    expected = upgma_linkage(_tie_heavy(np.random.default_rng(seed), n))
    assert upgma_linkage(_tie_heavy(np.random.default_rng(seed), n), overwrite=True) == expected


N_CHECK = 1500  # 1,124,250 values: one full block and a partial one
_COUNT = N_CHECK * (N_CHECK - 1) // 2


@pytest.mark.parametrize("bad", [np.inf, np.nan, -1.0])
@pytest.mark.parametrize("index", [0, _CHECK_BLOCK - 1, _CHECK_BLOCK, _COUNT - 1])
def test_blocked_check_finds_bad_value(bad, index):
    assert _CHECK_BLOCK < _COUNT < 2 * _CHECK_BLOCK
    values = np.ones(_COUNT)
    values[index] = bad
    with pytest.raises(NonFiniteValue, match="finite and >= 0"):
        CondensedDistanceMatrix(n=N_CHECK, values=values)
