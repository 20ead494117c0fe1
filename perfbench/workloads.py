"""The benchmark's workloads: seeded inputs, the CLI command, output checks.

Every pool comes from ``canonical_pool_spec(n, seed)`` with the seed given
to the benchmark, so the same seed always yields the same input files.
Checks run after the timed child has exited and raise ``CheckFailed``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

from trajcurate.io import write_trajectories
from trajcurate.metric import pairwise_distances, trajectory_state_distance
from trajcurate.states import TrajectoryPool, TrajectoryState
from trajcurate.synth import canonical_pool_spec, generate_synthetic_pool


class CheckFailed(Exception):
    """An artifact of the program is wrong."""


@dataclass(frozen=True)
class Inputs:
    dir: Path
    items: list[TrajectoryState]
    labeled: frozenset[str]


def _generate(n: int, seed: int, tracer) -> list[TrajectoryState]:
    with tracer.span("synth.generate_synthetic_pool") as counters:
        items = generate_synthetic_pool(canonical_pool_spec(total_count=n, seed=seed))
    counters["items"] = len(items)
    return items


def _write_pool(items: list[TrajectoryState], path: Path, tracer) -> None:
    with tracer.span("io.write_trajectories"):
        write_trajectories(TrajectoryPool(tuple(items)), path)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows) and rows[0] == header, f"{path.name}: header is not {header}")
    return rows[1:]


def _same_partition(a, b) -> bool:
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))


class ClusterWorkload:
    """``cluster`` on a tie-free canonical pool at the default tau."""

    required_spans = (
        "io.load_trajectories",
        "metric.pairwise_distances",
        "cluster.upgma_linkage",
        "cluster.flat_clusters",
        "io.export_clusters",
    )

    tau = 10.0  # the CLI's default, which the command leaves in place
    spot_checks = 1000

    def __init__(self, name: str, n: int) -> None:
        self.name, self.n = name, n

    def setup(self, seed: int, d: Path, tracer) -> Inputs:
        items = _generate(self.n, seed, tracer)
        _write_pool(items, d / "pool.jsonl", tracer)
        return Inputs(d, items, frozenset())

    def argv(self, out: str) -> list[str]:
        return ["cluster", "--input", "pool.jsonl", "--out", out]

    def artifacts(self) -> tuple[str, ...]:
        return ("assignments.csv", "dendrogram.txt")

    def check(self, inp: Inputs, out: Path, seed: int) -> None:
        ids = [s.id for s in inp.items]
        n = len(ids)
        rows = _read_csv(out / "assignments.csv", ["id", "cluster", "novelty_class"])
        _require(all(len(r) == 3 for r in rows), "assignments.csv: row without 3 fields")
        got = {r[0]: (int(r[1]), r[2]) for r in rows}
        _require(len(rows) == n and got.keys() == set(ids), "assignments.csv: ids differ from the pool")
        ours = [got[i][0] for i in ids]

        first_leaf: dict[int, int] = {}
        for leaf, label in enumerate(ours):
            first_leaf.setdefault(label, leaf)
        _require(
            sorted(first_leaf, key=first_leaf.get) == list(range(len(first_leaf))),
            "assignments.csv: labels are not dense in min-leaf order",
        )
        sizes = Counter(ours)
        has_labeled = {got[i][0] for i in inp.labeled}
        for i in ids:
            label, cls = got[i]
            if label in has_labeled:
                want = "labeled-singleton" if sizes[label] == 1 and i in inp.labeled else "familiar"
            else:
                want = "novel" if sizes[label] >= 2 else "singleton"
            _require(cls == want, f"assignments.csv: {i} is {cls!r}, expected {want!r}")

        with open(out / "dendrogram.txt", encoding="utf-8") as fh:
            lines = [line.split() for line in fh]
        _require(len(lines) == n - 1 and all(len(f) == 4 for f in lines), "dendrogram.txt: bad shape")
        heights = np.array([float(f[2]) for f in lines])
        _require(bool(np.all(np.diff(heights) >= 0)), "dendrogram.txt: heights not monotone")
        _require(int(lines[-1][3]) == n, "dendrogram.txt: last merge is not the root")

        matrix = pairwise_distances(inp.items)
        rng = np.random.default_rng(seed)
        for a, b in rng.integers(0, n, size=(self.spot_checks, 2)):
            a, b = int(a), int(b)
            if a != b:
                want_d = trajectory_state_distance(inp.items[a], inp.items[b])
                _require(matrix.get(a, b) == want_d, f"distance ({a}, {b}) differs from pointwise")
        z = linkage(matrix.values, method="average")
        reference = fcluster(z, t=self.tau, criterion="distance")
        _require(_same_partition(ours, reference), "partition differs from scipy average linkage")
        _require(
            bool(np.allclose(heights, z[:, 2], rtol=1e-9, atol=1e-12)),
            "merge heights differ from scipy average linkage",
        )


DEFAULT_ALPHAS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_BETAS = (0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_BUDGETS = (0.1, 0.2, 0.3, 0.4, 0.5)


class SimulateWorkload:
    """``simulate --grid default --seeds 1`` on a canonical pool."""

    required_spans = (
        "io.load_trajectories",
        "surrogate.run_al_experiment",
        "sampling.sampling_round",
        "sampling.upgma_linkage_for_pool",
        "metric.pairwise_distances",
        "cluster.upgma_linkage",
        "cluster.flat_clusters",
        "io.write_experiment_csv",
    )

    def __init__(self, name: str, n: int) -> None:
        self.name, self.n = name, n

    def setup(self, seed: int, d: Path, tracer) -> Inputs:
        items = _generate(self.n, seed, tracer)
        _write_pool(items, d / "pool.jsonl", tracer)
        return Inputs(d, items, frozenset())

    def argv(self, out: str) -> list[str]:
        return ["simulate", "--input", "pool.jsonl", "--grid", "default", "--seeds", "1",
                "--out", f"{out}/rows.csv"]

    def artifacts(self) -> tuple[str, ...]:
        return ("rows.csv",)

    def check(self, inp: Inputs, out: Path, seed: int) -> None:
        header = ["budget", "alpha", "beta", "seed", "strategy", "made5", "made10"]
        rows = _read_csv(out / "rows.csv", header)
        _require(all(len(r) == 7 for r in rows), "rows.csv: row without 7 fields")
        cells = set(product(DEFAULT_BUDGETS, DEFAULT_ALPHAS, DEFAULT_BETAS, [0]))
        _require(len(rows) == 2 * len(cells), f"rows.csv: {len(rows)} rows, expected {2 * len(cells)}")
        seen: Counter = Counter()
        random_by_budget: dict[float, set] = {}
        for r in rows:
            budget, alpha, beta = float(r[0]), float(r[1]), float(r[2])
            made5, made10 = float(r[5]), float(r[6])
            seen[(budget, alpha, beta, int(r[3]), r[4])] += 1
            _require(math.isfinite(made5) and math.isfinite(made10), "rows.csv: non-finite score")
            _require(made10 <= made5, f"rows.csv: made10 > made5 at {r[:5]}")
            if r[4] == "random":
                random_by_budget.setdefault(budget, set()).add((made5, made10))
        want = Counter({cell + (s,): 1 for cell in cells for s in ("active", "random")})
        _require(seen == want, "rows.csv: cells are not one active and one random row each")
        _require(
            all(len(v) == 1 for v in random_by_budget.values()),
            "rows.csv: random rows differ within a budget",
        )


class SampleTiesWorkload:
    """``sample`` on a CSV pool holding exact-duplicate parked records."""

    required_spans = (
        "io.load_trajectories",
        "io.read_labeled_ids",
        "sampling.sampling_round",
        "sampling.upgma_linkage_for_pool",
        "metric.pairwise_distances",
        "cluster.upgma_linkage",
        "cluster.flat_clusters",
        "io.sha256_file",
        "io.write_manifest",
    )
    alpha, beta, budget = 0.5, 0.4, 0.2

    def __init__(self, name: str, n: int, parked: int, labeled_frac: float = 0.2) -> None:
        self.name, self.n, self.parked, self.labeled_frac = name, n, parked, labeled_frac

    def setup(self, seed: int, d: Path, tracer) -> Inputs:
        items = _generate(self.n, seed, tracer)
        # a stationary agent in an agent-centred frame: all 12 points at the
        # origin and zero dynamics, so every parked record ties with the others
        items += [
            TrajectoryState(f"parked-{k:04d}", ((0.0, 0.0),) * 12, 0.0, 0.0, 0.0)
            for k in range(self.parked)
        ]
        _write_pool(items, d / "pool.csv", tracer)
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(items), size=round(self.labeled_frac * len(items)), replace=False)
        labeled = frozenset(items[int(k)].id for k in picks)
        (d / "ids.txt").write_text("".join(f"{i}\n" for i in sorted(labeled)), encoding="utf-8")
        return Inputs(d, items, labeled)

    def argv(self, out: str) -> list[str]:
        return ["sample", "--input", "pool.csv", "--labeled", "ids.txt",
                "--alpha", str(self.alpha), "--beta", str(self.beta),
                "--budget", str(self.budget), "--seed", "0", "--out", f"{out}/manifest.json"]

    def artifacts(self) -> tuple[str, ...]:
        return ("manifest.json",)

    def check(self, inp: Inputs, out: Path, seed: int) -> None:
        with open(out / "manifest.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        pool_ids = {s.id for s in inp.items}
        n_unlabeled = len(pool_ids - inp.labeled)
        budget = max(1, math.floor(self.budget * n_unlabeled + 0.5))
        novel = math.floor(self.alpha * budget + 0.5)
        selected = [s["id"] for s in doc["selected"]]
        phases = Counter(s["phase"] for s in doc["selected"])
        _require(doc["budget_resolved"] == budget, f"budget_resolved {doc['budget_resolved']} != {budget}")
        _require(len(selected) == budget, f"{len(selected)} selected, budget {budget}")
        _require(len(set(selected)) == len(selected), "selected ids repeat")
        _require(set(selected) <= pool_ids, "selected id not in the pool")
        _require(not set(selected) & inp.labeled, "selected id was already labeled")
        _require(
            (doc["novel_quota"], doc["familiar_quota"]) == (novel, budget - novel),
            f"quotas {doc['novel_quota']}/{doc['familiar_quota']}, expected {novel}/{budget - novel}",
        )
        _require(
            set(phases) <= {"novel-cluster", "novel-singleton", "familiar", "fallback"},
            f"unknown phase in {sorted(phases)}",
        )
        _require(
            phases["fallback"] == doc["novel_shortfall"] + doc["familiar_shortfall"],
            "fallback picks do not fill the shortfall",
        )
        digest = hashlib.sha256((inp.dir / "pool.csv").read_bytes()).hexdigest()
        _require(doc["input_digest"] == digest, "input_digest is not the pool's sha256")


WORKLOADS = {
    w.name: w
    for w in (
        ClusterWorkload("cluster-10k", n=10_000),
        SimulateWorkload("simulate-2k", n=2_000),
        SampleTiesWorkload("sample-ties-3k", n=2_700, parked=300),
    )
}

# Runnable by name but left out of BENCHMARK.json: its tie path is pure
# interpreter work, whose speed on a shared 2-vCPU host swings by more than
# the 25% wall_s bound between runs (see README.md). Compare it in paired runs.
UNGATED = ("sample-ties-3k",)
