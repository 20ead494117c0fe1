"""Memory held by the loader and by the commands that own a distance matrix.

The loader parses a record file's numbers into one float64 buffer, not a
list of Python floats, so its traced peak stays a few times the pool's
columns. ``cluster``, ``cluster --matrix-out`` and ``stats`` each build one
condensed matrix and hand it to the linkage, which takes over its buffer;
a matrix dump is written from that buffer. So each command's traced peak
stays near one matrix, not the two or three a copy would hold.

``tracemalloc`` sees numpy's allocations but not the distance kernel's
scratch, which ``pairwise_distances`` takes from anonymous maps, nor what
malloc keeps in its arenas after a free. So the scratch is checked by the
resident set of a fresh process instead.
"""

import contextlib
import io
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from trajcurate import CondensedDistanceMatrix, TrajectoryPool, upgma_linkage
from trajcurate.cli import dispatch
from trajcurate.errors import NonFiniteValue
from trajcurate.io import load_trajectories, write_trajectories
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


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_loader_peak_is_a_few_columns(canonical_2k, tmp_path, suffix):
    path = canonical_2k
    if suffix == ".csv":
        path = tmp_path / "pool.csv"
        write_trajectories(load_trajectories(canonical_2k), path)
    tracemalloc.start()
    try:
        pool = load_trajectories(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = pool.points.nbytes + pool.dyn.nbytes
    # a list of Python floats as the buffer reads 5.5 here
    assert peak <= 4 * columns, peak / columns


_SCRATCH_CHILD = """
from trajcurate.metric import pairwise_distances
from trajcurate.synth import canonical_pool_spec, synthetic_pool

def status(key):
    with open("/proc/self/status") as fh:
        return 1024 * next(int(line.split()[1]) for line in fh if line.startswith(key + ":"))

pool = synthetic_pool(canonical_pool_spec(total_count=3000, seed=0))
before = status("VmRSS")
m = pairwise_distances(pool, workers=2)
print(status("VmHWM") - before - m.values.nbytes)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_distance_scratch_is_not_held():
    # the peak of pairwise_distances above the memory it starts from, less
    # its matrix: kernel scratch that each worker thread's malloc arena
    # kept read about 6 MiB here, anonymous maps about 1 MiB
    child = subprocess.run(
        [sys.executable, "-c", _SCRATCH_CHILD], capture_output=True, text=True, check=True
    )
    excess = int(child.stdout)
    assert excess <= 3 * 2**20, excess / 2**20


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


N_CHECK = 1500
_COUNT = N_CHECK * (N_CHECK - 1) // 2  # 1,124,250 values


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, -1.0])
# first, middle and last; 2**20 - 1 and 2**20 also catch a check that goes
# back to scanning the vector in 2**20-value pieces
@pytest.mark.parametrize("index", [0, (1 << 20) - 1, 1 << 20, _COUNT // 2, _COUNT - 1])
def test_blocked_check_finds_bad_value(bad, index):
    values = np.ones(_COUNT)
    values[index] = bad
    with pytest.raises(NonFiniteValue, match="finite and >= 0"):
        CondensedDistanceMatrix(n=N_CHECK, values=values)
