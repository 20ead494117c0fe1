"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (run with -s to see them)
and pins the tolerance and runtime budget it must meet. Criteria:

  1. metric axioms on 10,000 random triples (1e-9, < 5 s) plus the three
     closed-form distances exactly
  2. linkage vs the naive recompute oracle, 200 instances n <= 40
     (heights 1e-9, identical topology, < 30 s)
  3. flat-cluster soundness on 100 instances n <= 60 (< 10 s)
  4. sampling-round invariant suite on 1,000 randomized fixtures (< 60 s)
  5. typicality-to-novelty phase transition on the canonical fixture,
     10 seeds (< 5 min)
  6. end-to-end cluster command on 10,000 synthetic items, tie-free and
     with 2,000 exact duplicates (< 60 s, < 2 GB each)
  7. published full-scale reference metrics are documented as out of
     desk-scale reach; the property suite above is the substitute
  8. byte-identical CLI reruns
"""

import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from trajcurate import (
    MetricWeights,
    SamplingConfig,
    flat_clusters,
    run_al_experiment,
    synthetic_pool,
    upgma_linkage,
)
from trajcurate.metric import trajectory_state_distance
from trajcurate.surrogate import DEFAULT_SPLIT_SEED
from trajcurate.synth import CANONICAL_TAU, canonical_pool_spec

from helpers import (
    check_round_invariants,
    cophenetic_matrix,
    make_state,
    random_condensed,
    to_square,
    upgma_oracle,
    with_parked,
)


class Budget:
    """Asserts a wall-clock budget and reports the criterion outcome."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"ACCEPTANCE {self.name}: FAIL after {elapsed:.1f}s")
            return False
        assert elapsed < self.seconds, f"{self.name} took {elapsed:.1f}s (budget {self.seconds}s)"
        print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.1f}s)")
        return False


def _random_state_arrays(rng, count):
    pts = rng.uniform(-60.0, 60.0, size=(count, 12, 2))
    dyn = np.column_stack(
        [rng.uniform(0, 20, count), rng.uniform(-5, 5, count), rng.uniform(-0.5, 0.5, count)]
    )
    return pts, dyn


def _batch_distance(pa, da, pb, db, w):
    # independent vectorized transcription of the distance definition
    point_term = np.sqrt(((pa - pb) ** 2).sum(axis=2)).sum(axis=1)
    state_term = (
        w.k_a * np.abs(da[:, 1] - db[:, 1])
        + w.k_v * np.abs(da[:, 0] - db[:, 0])
        + w.k_h * np.abs(da[:, 2] - db[:, 2])
    )
    return point_term + state_term


def test_criterion_metric_axioms():
    with Budget("metric-axioms", 5.0):
        w = MetricWeights()
        rng = np.random.default_rng(2024)
        n = 10_000
        px, dx = _random_state_arrays(rng, n)
        py, dy = _random_state_arrays(rng, n)
        pz, dz = _random_state_arrays(rng, n)
        dxy = _batch_distance(px, dx, py, dy, w)
        dyx = _batch_distance(py, dy, px, dx, w)
        dyz = _batch_distance(py, dy, pz, dz, w)
        dxz = _batch_distance(px, dx, pz, dz, w)
        dxx = _batch_distance(px, dx, px, dx, w)
        assert (dxy >= 0).all(), "non-negativity"
        assert (dxy == dyx).all(), "symmetry must be exact"
        assert (dxx == 0).all(), "identity"
        assert (dxz <= dxy + dyz + 1e-9).all(), "triangle inequality"
        # the batch formula is the production function (spot-check exactly)
        for i in range(0, n, 500):
            a = make_state("a", points=tuple(map(tuple, px[i])), v=dx[i, 0], a=dx[i, 1], h=dx[i, 2])
            b = make_state("b", points=tuple(map(tuple, py[i])), v=dy[i, 0], a=dy[i, 1], h=dy[i, 2])
            assert trajectory_state_distance(a, b, w) == pytest.approx(dxy[i], rel=1e-12)
        # closed-form examples, exact
        base = make_state("base")
        assert trajectory_state_distance(base, base, w) == 0.0
        assert trajectory_state_distance(base, make_state("s", offset=(3.0, 4.0)), w) == 60.0
        fast = make_state("f", v=20.0, h=0.5)
        slow = make_state("g", v=0.0, h=-0.5)
        assert trajectory_state_distance(fast, slow, w) == 1.5


def test_criterion_upgma_oracle_equivalence():
    with Budget("upgma-oracle-equivalence", 30.0):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 41))
            matrix = random_condensed(rng, n)
            tree = upgma_linkage(matrix)
            expected = upgma_oracle(to_square(matrix))
            assert len(tree.merges) == n - 1
            for got, (left, right, height, size) in zip(tree.merges, expected):
                assert (got.left, got.right, got.size) == (left, right, size)
                assert abs(got.height - height) <= 1e-9


def test_criterion_flat_cluster_soundness():
    with Budget("flat-cluster-soundness", 10.0):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 61))
            tree = upgma_linkage(random_condensed(rng, n))
            heights = np.array([m.height for m in tree.merges])
            assert (np.diff(heights) >= 0).all(), "no inversions"
            tau = float(
                rng.choice(
                    [
                        rng.uniform(0.0, heights[-1] * 1.1),
                        heights[int(rng.integers(len(heights)))],
                    ]
                )
            )
            part = flat_clusters(tree, tau)
            coph = cophenetic_matrix(tree)
            labels = np.array([part.assignments[i] for i in range(n)])
            same = labels[:, None] == labels[None, :]
            off_diag = ~np.eye(n, dtype=bool)
            assert (coph[same & off_diag] <= tau).all(), "within-cluster bound"
            if not same.all():
                # maximality: the join of any two distinct clusters is above tau
                assert (coph[~same] > tau).all()


def test_criterion_sampling_invariants():
    with Budget("sampling-round-invariants", 60.0):
        for fix_seed in range(1000):
            check_round_invariants(fix_seed, check_determinism=(fix_seed % 50 == 0))


def test_criterion_phase_transition_direction():
    with Budget("phase-transition-direction", 300.0):
        pool = synthetic_pool(canonical_pool_spec())
        grid = [
            SamplingConfig(alpha=0.0, beta=0.2, budget=0.05, tau=CANONICAL_TAU),
            SamplingConfig(alpha=1.0, beta=0.2, budget=0.05, tau=CANONICAL_TAU),
            SamplingConfig(alpha=0.0, beta=0.2, budget=0.4, tau=CANONICAL_TAU),
            SamplingConfig(alpha=1.0, beta=0.2, budget=0.4, tau=CANONICAL_TAU),
        ]
        result = run_al_experiment(
            pool, grid, seeds=range(10), k_modes=10, split_seed=DEFAULT_SPLIT_SEED
        )
        typical_small = result.mean_made5(0.05, 0.0, 0.2, "active")
        novel_small = result.mean_made5(0.05, 1.0, 0.2, "active")
        typical_large = result.mean_made5(0.4, 0.0, 0.2, "active")
        novel_large = result.mean_made5(0.4, 1.0, 0.2, "active")
        # small budget: sampling typical data overcomes the cold start
        assert typical_small <= novel_small, (typical_small, novel_small)
        # large budget: the roles flip and novelty-seeking wins
        assert novel_large <= typical_large, (novel_large, typical_large)


_SCALE_POOLS = {
    "tie-free": lambda: synthetic_pool(canonical_pool_spec(total_count=10_000, seed=3)),
    # 2,000 exact duplicates, as parked agents fill real pools
    "duplicates": lambda: with_parked(synthetic_pool(canonical_pool_spec(8_000, seed=3)), 2_000),
}


@pytest.mark.parametrize("pool", list(_SCALE_POOLS))
def test_criterion_scale_cluster_10k(tmp_path, pool):
    from trajcurate.io import write_trajectories

    pool_path = tmp_path / "pool10k.jsonl"
    write_trajectories(_SCALE_POOLS[pool](), pool_path)
    out_dir = tmp_path / "out"
    with Budget(f"scale-cluster-10k-{pool}", 60.0):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "trajcurate.cli",
                "cluster",
                "--input",
                str(pool_path),
                "--tau",
                "30",
                "--out",
                str(out_dir),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out_dir / "assignments.csv").exists()
        assert (out_dir / "dendrogram.txt").exists()
        assert len((out_dir / "assignments.csv").read_text().splitlines()) == 10_001
    peak_gb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1048576
    assert peak_gb < 2.0, f"child peak RSS {peak_gb:.2f} GB"
    print(f"ACCEPTANCE scale-cluster-10k-memory: PASS ({peak_gb:.2f} GB)")


def test_criterion_reference_metrics_out_of_scope():
    # Full-dataset displacement errors reported for GPU-trained predictors
    # (e.g. mADE_5 of 1.58 at a 10% pool and 1.29 at 50%) need the real
    # dataset and model training, which this package deliberately excludes.
    # The binding substitutes are the property suite and the
    # phase-transition direction criterion above; this test asserts the
    # substitutes exist and that no code path pretends otherwise.
    import trajcurate

    assert not hasattr(trajcurate, "train_predictor")
    this_module = sys.modules[__name__]
    assert hasattr(this_module, "test_criterion_phase_transition_direction")
    assert hasattr(this_module, "test_criterion_sampling_invariants")
    print("ACCEPTANCE reference-metrics-out-of-scope: PASS (documented substitute)")


def test_criterion_cli_reproducibility(tmp_path):
    from trajcurate.io import write_trajectories

    pool_path = tmp_path / "pool.jsonl"
    write_trajectories(synthetic_pool(canonical_pool_spec(total_count=150, seed=4)), pool_path)
    with Budget("cli-reproducibility", 120.0):
        def run(args):
            from trajcurate.cli import dispatch

            assert dispatch(args) == 0

        for attempt in ("a", "b"):
            out = tmp_path / f"cluster-{attempt}"
            run(["cluster", "--input", str(pool_path), "--tau", "30", "--out", str(out)])
            run(
                [
                    "sample",
                    "--input",
                    str(pool_path),
                    "--tau",
                    "30",
                    "--alpha",
                    "0.6",
                    "--beta",
                    "0.4",
                    "--budget",
                    "0.3",
                    "--seed",
                    "9",
                    "--out",
                    str(tmp_path / f"manifest-{attempt}.json"),
                ]
            )
            run(
                [
                    "simulate",
                    "--input",
                    str(pool_path),
                    "--grid",
                    "custom",
                    "--alphas",
                    "0,1",
                    "--betas",
                    "0.2",
                    "--budgets",
                    "0.2",
                    "--seeds",
                    "2",
                    "--tau",
                    "30",
                    "--out",
                    str(tmp_path / f"results-{attempt}.csv"),
                ]
            )
        for name in ("assignments.csv", "dendrogram.txt"):
            assert (tmp_path / "cluster-a" / name).read_bytes() == (
                tmp_path / "cluster-b" / name
            ).read_bytes()
        assert (tmp_path / "manifest-a.json").read_bytes() == (
            tmp_path / "manifest-b.json"
        ).read_bytes()
        assert (tmp_path / "results-a.csv").read_bytes() == (
            tmp_path / "results-b.csv"
        ).read_bytes()
