"""Spans recorded around calls into the trajcurate modules.

The tracer lives in the benchmark, not in the package: it replaces the
module-level names through which the CLI and the inner modules call each
other with wrappers that open a span, call the original, and attach
counters once the span has closed. Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import resource
from contextlib import contextmanager
from time import perf_counter

# (module whose global name is replaced, name) for every call site traced.
# The CLI imports each stage by name; sampling_round reaches linkage and the
# cut through sampling's own globals; the surrogate sweep reaches sampling
# through surrogate's globals.
WRAP_TARGETS = (
    ("trajcurate.cli", "load_trajectories"),
    ("trajcurate.cli", "read_labeled_ids"),
    ("trajcurate.cli", "pairwise_distances"),
    ("trajcurate.cli", "upgma_linkage"),
    ("trajcurate.cli", "flat_clusters"),
    ("trajcurate.cli", "export_clusters"),
    ("trajcurate.cli", "sampling_round"),
    ("trajcurate.cli", "sha256_file"),
    ("trajcurate.cli", "write_manifest"),
    ("trajcurate.cli", "run_al_experiment"),
    ("trajcurate.cli", "write_experiment_csv"),
    ("trajcurate.surrogate", "sampling_round"),
    ("trajcurate.surrogate", "upgma_linkage_for_pool"),
    ("trajcurate.sampling", "upgma_linkage_for_pool"),
    ("trajcurate.sampling", "pairwise_distances"),
    ("trajcurate.sampling", "upgma_linkage"),
    ("trajcurate.sampling", "flat_clusters"),
)


# layer self times that add up to the traced CLI's dispatch time
DISPATCH_PARTS = (
    "metric.distances_s",
    "cluster.linkage_s",
    "cluster.cut_s",
    "sampling.round_s",
    "surrogate.self_s",
    "io.load_s",
    "io.write_s",
    "cli.self_s",
)


def rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder: name, start, end, parent span and run id."""

    def __init__(self, run_id: str, root_parent: str | None = None) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[str] = [root_parent] if root_parent else []
        self._prefix = f"{os.getpid()}-"

    @contextmanager
    def span(self, name: str):
        """Time the body; yields the span's counter dict for the caller to fill."""
        rec = {
            "id": f"{self._prefix}{len(self.spans)}",
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": perf_counter(),
            "end": None,
            "counters": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counters"]
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _size(path) -> int:
    return os.path.getsize(path)


def _tied_merges(tree) -> int:
    heights = [m.height for m in tree.merges]
    return sum(1 for prev, h in zip(heights, heights[1:]) if h == prev)


def _picks(manifest) -> dict:
    phases = [s.phase for s in manifest.selected]
    return {
        "picks_novel": sum(1 for p in phases if p.startswith("novel")),
        "picks_familiar": phases.count("familiar"),
        "picks_fallback": phases.count("fallback"),
    }


# counters per traced function, from (bound arguments, result); computed after
# the span closes so they never count towards its time
_COUNTERS = {
    "load_trajectories": lambda a, r: {"items": len(r.items), "bytes": _size(a["path"])},
    "read_labeled_ids": lambda a, r: {"bytes": _size(a["path"])},
    "pairwise_distances": lambda a, r: {"pairs": int(r.values.size), "rss_mb": rss_mb()},
    "upgma_linkage": lambda a, r: {
        "merges": len(r.merges),
        "tied_merges": _tied_merges(r),
        "rss_mb": rss_mb(),
    },
    "flat_clusters": lambda a, r: {"clusters": len(set(r.assignments.values()))},
    "export_clusters": lambda a, r: {"bytes": sum(_size(p) for p in r)},
    "write_manifest": lambda a, r: {"bytes": _size(a["out_path"])},
    "write_experiment_csv": lambda a, r: {"bytes": _size(a["path"])},
    "sampling_round": lambda a, r: _picks(r),
    "run_al_experiment": lambda a, r: {"scores": len(r.rows)},
}


def _wrap(tracer: Tracer, fn):
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    signature = inspect.signature(fn)
    count = _COUNTERS.get(fn.__name__)

    def traced(*args, **kwargs):
        with tracer.span(name) as counters:
            result = fn(*args, **kwargs)
        if count is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counters.update(count(bound.arguments, result))
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Replace every name in WRAP_TARGETS; a missing name is an error, not a zero."""
    for module_name, attr in WRAP_TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise RuntimeError(f"cannot trace {module_name}.{attr}: name not found")
        setattr(module, attr, _wrap(tracer, fn))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("bytes", "B"), ("bytes_out", "B")):
        if metric.endswith(suffix):
            return unit
    return "count"


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics named in BENCHMARK.json."""
    own = self_times(spans)

    def self_s(*names: str) -> float:
        return sum(own[s["id"]] for s in spans if s["name"] in names)

    def total(counter: str, *names: str) -> float:
        return sum(s["counters"].get(counter, 0) for s in spans if s["name"] in names)

    def peak(counter: str, *names: str) -> float:
        return max((s["counters"][counter] for s in spans if s["name"] in names), default=0.0)

    def calls(*names: str) -> int:
        return sum(1 for s in spans if s["name"] in names)

    writers = ("io.export_clusters", "io.write_manifest", "io.sha256_file", "io.write_experiment_csv")
    loaders = ("io.load_trajectories", "io.read_labeled_ids")
    pairs = total("pairs", "metric.pairwise_distances")
    return {
        "metric.distances_s": self_s("metric.pairwise_distances"),
        "metric.pairs": pairs,
        "metric.bytes_out": 8 * pairs,
        "metric.rss_mb": peak("rss_mb", "metric.pairwise_distances"),
        "cluster.linkage_s": self_s("cluster.upgma_linkage"),
        "cluster.merges": total("merges", "cluster.upgma_linkage"),
        "cluster.tied_merges": total("tied_merges", "cluster.upgma_linkage"),
        "cluster.rss_mb": peak("rss_mb", "cluster.upgma_linkage"),
        "cluster.cut_s": self_s("cluster.flat_clusters"),
        "cluster.cuts": calls("cluster.flat_clusters"),
        "cluster.clusters": total("clusters", "cluster.flat_clusters"),
        "sampling.round_s": self_s("sampling.sampling_round", "sampling.upgma_linkage_for_pool"),
        "sampling.rounds": calls("sampling.sampling_round"),
        "sampling.picks_novel": total("picks_novel", "sampling.sampling_round"),
        "sampling.picks_familiar": total("picks_familiar", "sampling.sampling_round"),
        "sampling.picks_fallback": total("picks_fallback", "sampling.sampling_round"),
        "surrogate.self_s": self_s("surrogate.run_al_experiment"),
        "surrogate.scores": total("scores", "surrogate.run_al_experiment"),
        "io.load_s": self_s(*loaders),
        "io.load_items": total("items", "io.load_trajectories"),
        "io.load_bytes": total("bytes", *loaders),
        "io.write_s": self_s(*writers),
        "io.write_bytes": total("bytes", *writers),
        "synth.generate_s": self_s("synth.generate_synthetic_pool"),
        "synth.items": total("items", "synth.generate_synthetic_pool"),
        "cli.dispatch_s": sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.dispatch"),
        "cli.self_s": self_s("cli.dispatch"),
    }
