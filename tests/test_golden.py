"""Pinned sha256 digests of CLI artifacts made from a committed pool.

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


def test_cluster_artifacts(tmp_path):
    assert dispatch(["cluster", "--input", str(POOL), "--out", str(tmp_path)]) == 0
    assert sha256_file(tmp_path / "assignments.csv") == (
        "af2e01fe87d91146677d8391431b9e5233fa262e7e3726b840d2672c2d430dba"
    )
    assert sha256_file(tmp_path / "dendrogram.txt") == (
        "7aea7fcef336418a6f942fb4d28836d52833c1d1ea27403f829586f0978afd14"
    )


def test_labeled_cluster_assignments(tmp_path):
    # the one export here that holds all four novelty classes
    argv = ["cluster", "--input", str(POOL), "--labeled", str(LABELED), "--out", str(tmp_path)]
    assert dispatch(argv) == 0
    assert sha256_file(tmp_path / "assignments.csv") == (
        "61d60b8651f27371ad03d70e947315001959e5c34a814f79a087f0c3f0690a5d"
    )


def test_labeled_stats_report(tmp_path):
    out = tmp_path / "stats.txt"
    argv = ["stats", "--input", str(POOL), "--labeled", str(LABELED), "--out", str(out)]
    assert dispatch(argv) == 0
    assert sha256_file(out) == "5c2b19c333d3390bf21dafebc2a423e159cb187921ceec27d332ecfc50134a91"


def test_sample_manifest(tmp_path):
    out = tmp_path / "manifest.json"
    argv = ["sample", "--input", str(POOL), "--labeled", str(LABELED), "--alpha", "0.6",
            "--beta", "0.4", "--budget", "0.5", "--seed", "3", "--out", str(out)]
    assert dispatch(argv) == 0
    assert sha256_file(out) == "37397b40598632830041e6b7f1a3509f213ff7a203ed00c98f3e4cf4c23b9e40"


def test_simulate_rows(tmp_path):
    out = tmp_path / "rows.csv"
    argv = ["simulate", "--input", str(POOL), "--grid", "default", "--seeds", "1",
            "--out", str(out)]
    assert dispatch(argv) == 0
    assert sha256_file(out) == "588bbe10b8b7f0cf27f561168e193626ff9fc1b54122de9f60883a7d343afa80"


def test_synthetic_pool_file(tmp_path):
    # unlike the digests above, this one rests on the platform's sin, cos
    # and atan2, through the generated tracks and their dynamics
    path = tmp_path / "pool.jsonl"
    write_trajectories(synthetic_pool(canonical_pool_spec(2000, 7)), path)
    assert sha256_file(path) == "1453fe74b846246e9dcd04bcec8b94abcefe90be992163a015f3a141bd1c85ae"
