"""Smoke tests of the benchmark at tiny sizes.

Run with: python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def tiny_workloads():
    return [
        W.ClusterWorkload("cluster-tiny", n=60),
        W.SimulateWorkload("simulate-tiny", n=100),
        W.SampleTiesWorkload("sample-ties-tiny", n=54, parked=6),
    ]


def _run(w, tmp_path: Path, trace: bool, seconds: float = 0.0) -> dict:
    return run.run_workload(w, SEED, seconds, trace, tmp_path / "work")


def _units(spec_key: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[spec_key]}


def test_workload_names_match_the_spec():
    gated = [w["name"] for w in SPEC["workloads"]]
    assert gated == [name for name in W.WORKLOADS if name not in W.UNGATED]
    assert set(W.UNGATED) <= set(W.WORKLOADS)


@pytest.mark.parametrize("w", tiny_workloads(), ids=lambda w: w.name)
def test_untraced_run_reports_end_to_end_metrics(w, tmp_path):
    result = _run(w, tmp_path, trace=False)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("w", tiny_workloads(), ids=lambda w: w.name)
def test_traced_run_reports_per_layer_metrics_and_same_artifacts(w, tmp_path):
    result = _run(w, tmp_path, trace=True)
    assert (result["correct"], result["failed"], result["attempted"]) == (True, 0, 2)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    work = tmp_path / "work"
    for name in w.artifacts():
        assert (work / "out0" / name).read_bytes() == (work / "out1" / name).read_bytes()
    values = {k: v["value"] for k, v in result["metrics"].items()}
    parts = sum(values[k] for k in tracing.DISPATCH_PARTS)
    assert parts == pytest.approx(values["cli.dispatch_s"], rel=1e-9)


def _move_first_row_to_other_cluster(out: Path) -> None:
    path = out / "assignments.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    first = lines[1].split(",")
    other = next(line.split(",")[1] for line in lines[2:] if line.split(",")[1] != first[1])
    lines[1] = ",".join([first[0], other, first[2]])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _swap_made5_made10(out: Path) -> None:
    path = out / "rows.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    row = lines[1].split(",")
    row[5], row[6] = row[6], row[5]
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _repeat_a_selected_id(out: Path) -> None:
    path = out / "manifest.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["selected"][1]["id"] = doc["selected"][0]["id"]
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize(
    "w, corrupt",
    zip(tiny_workloads(), [_move_first_row_to_other_cluster, _swap_made5_made10, _repeat_a_selected_id]),
    ids=lambda x: getattr(x, "name", None) or x.__name__,
)
def test_corrupted_artifact_counts_as_a_failed_run(w, corrupt, tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    inputs = w.setup(SEED, work, tracing.Tracer("test"))
    children = [run.run_child(w, work, 0), run.run_child(w, work, 1)]
    assert run.judge(w, inputs, children, SEED) == []
    corrupt(children[0].out)
    failures = run.judge(w, inputs, children, SEED)
    assert len(failures) == 1 and "check failed" in failures[0]


class DriftingCluster(W.ClusterWorkload):
    """Changes tau after its first child, so later artifacts differ."""

    def __init__(self) -> None:
        super().__init__("cluster-drift", n=60)
        self.calls = 0

    def argv(self, out: str) -> list[str]:
        self.calls += 1
        return super().argv(out) + ([] if self.calls == 1 else ["--tau", "0.5"])


def test_artifact_differing_from_first_child_counts_as_failed(tmp_path):
    result = _run(DriftingCluster(), tmp_path, trace=False, seconds=3.0)
    assert result["attempted"] >= 2
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] - 1


def test_missing_traced_name_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "WRAP_TARGETS", (("trajcurate.cli", "no_such_stage"),))
    with pytest.raises(RuntimeError, match="no_such_stage"):
        tracing.install(tracing.Tracer("test"))


def test_failing_traced_child_stops_the_traced_run(tmp_path):
    class Broken(W.ClusterWorkload):
        def argv(self, out: str) -> list[str]:
            return super().argv(out) + ["--tau", "-1"]

    with pytest.raises(RuntimeError, match="traced child exited with 2"):
        _run(Broken("cluster-broken", n=60), tmp_path, trace=True)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cluster-10k", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
