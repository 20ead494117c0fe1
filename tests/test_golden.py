"""Pinned sha256 digests of CLI artifacts made from a committed pool.

The CLI digests live in ``data/golden.sha256``, in ``sha256sum`` format,
named by each artifact's path under the output directory; the CI job that
runs the installed CLI checks the same file with ``sha256sum -c``.

``data/pool-400.jsonl`` was written once from ``canonical_pool_spec(400)``
and is read as committed, so the digests do not depend on the platform's
``sin``/``cos``. ``data/labeled-400.txt`` holds every tenth id of the pool,
which sends the ``sample`` round below through the novel, familiar and
fallback phases and gives the labeled cluster export all four novelty
classes. Any change to the distances, the linkage, the cut, the
sampling round or the surrogate scores shows up here as a new digest.
"""

from pathlib import Path

from trajcurate.cli import dispatch
from trajcurate.io import sha256_file, write_trajectories
from trajcurate.synth import canonical_pool_spec, synthetic_pool

DATA = Path(__file__).parent / "data"
POOL = DATA / "pool-400.jsonl"
LABELED = DATA / "labeled-400.txt"
GOLDEN = {
    name: digest
    for digest, name in map(str.split, (DATA / "golden.sha256").read_text().splitlines())
}


def test_cluster_artifacts(tmp_path):
    # nothing reads the matrix dump back, so its bytes are pinned here
    dump = tmp_path / "matrix.tsdm"
    argv = ["cluster", "--input", str(POOL), "--out", str(tmp_path), "--matrix-out", str(dump)]
    assert dispatch(argv) == 0
    assert sha256_file(tmp_path / "assignments.csv") == GOLDEN["assignments.csv"]
    assert sha256_file(tmp_path / "dendrogram.txt") == GOLDEN["dendrogram.txt"]
    assert sha256_file(dump) == GOLDEN["matrix.tsdm"]


def test_labeled_cluster_assignments(tmp_path):
    # the one export here that holds all four novelty classes
    argv = ["cluster", "--input", str(POOL), "--labeled", str(LABELED), "--out", str(tmp_path)]
    assert dispatch(argv) == 0
    assert sha256_file(tmp_path / "assignments.csv") == GOLDEN["labeled/assignments.csv"]


def test_labeled_stats_report(tmp_path):
    out = tmp_path / "stats.txt"
    argv = ["stats", "--input", str(POOL), "--labeled", str(LABELED), "--out", str(out)]
    assert dispatch(argv) == 0
    assert sha256_file(out) == GOLDEN["labeled/stats.txt"]


def test_sample_manifest(tmp_path):
    out = tmp_path / "manifest.json"
    argv = ["sample", "--input", str(POOL), "--labeled", str(LABELED), "--alpha", "0.6",
            "--beta", "0.4", "--budget", "0.5", "--seed", "3", "--out", str(out)]
    assert dispatch(argv) == 0
    assert sha256_file(out) == GOLDEN["manifest.json"]


def test_simulate_rows(tmp_path):
    out = tmp_path / "rows.csv"
    argv = ["simulate", "--input", str(POOL), "--grid", "default", "--seeds", "1",
            "--out", str(out)]
    assert dispatch(argv) == 0
    assert sha256_file(out) == GOLDEN["rows.csv"]


def test_simulate_rows_on_builtin_2k_pool(tmp_path):
    # the built-in 2k pool ranks 1600 training rows, wider than the ADE
    # table, so this pins the table path and the columns computed past it;
    # like the pool file below, it rests on the platform's sin, cos and atan2
    out = tmp_path / "rows.csv"
    assert dispatch(["simulate", "--grid", "default", "--seeds", "1", "--out", str(out)]) == 0
    assert sha256_file(out) == GOLDEN["builtin-2k/rows.csv"]


def test_synthetic_pool_file(tmp_path):
    # unlike the digests above, this one rests on the platform's sin, cos
    # and atan2, through the generated tracks and their dynamics
    path = tmp_path / "pool.jsonl"
    write_trajectories(synthetic_pool(canonical_pool_spec(2000, 7)), path)
    assert sha256_file(path) == "1453fe74b846246e9dcd04bcec8b94abcefe90be992163a015f3a141bd1c85ae"
