"""File formats: trajectory records, cluster exports, manifests, result CSVs.

Trajectory record schemas (one record per agent):

  JSONL  one object per line with keys ``id`` (string), ``points`` (array
         of 12 [x, y] pairs, meters), ``v``, ``a``, ``h`` (numbers) and an
         optional ``labeled`` boolean (default false).
  CSV    header ``id,x1,y1,...,x12,y12,v,a,h,labeled``.

Floating-point output is exact: CSV and dendrogram files carry 17
significant digits, JSON uses shortest round-trip reprs, so every artifact
reloads bit for bit and reruns are byte-identical. Manifest documents are
versioned JSON wrapping a selection manifest plus the tool version and a
digest of the ingested pool file.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .cluster import ClusterPartition, Dendrogram, format_dendrogram
from .errors import (
    CurationError,
    DuplicateId,
    ParseError,
    SchemaVersionMismatch,
    WrongPointCount,
)
from .metric import MetricWeights
from .sampling import SamplingConfig, Selection, SelectionManifest
from .states import TRAJECTORY_LEN, TrajectoryPool, validate_trajectory_state
from .surrogate import ExperimentResult, ExperimentRow

MANIFEST_SCHEMA_VERSION = 1

_CSV_FIELDS = (
    ["id"]
    + [f"{axis}{k}" for k in range(1, TRAJECTORY_LEN + 1) for axis in ("x", "y")]
    + ["v", "a", "h", "labeled"]
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no", ""):
        return False
    raise ParseError(f"cannot parse boolean {raw!r}")


def detect_format(path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    if suffix == ".csv":
        return "csv"
    raise ParseError(f"cannot infer trajectory format from {path!r}; use .jsonl or .csv")


def load_trajectories(path, fmt: str | None = None) -> TrajectoryPool:
    """Read a trajectory record file into a validated pool."""
    fmt = fmt or detect_format(path)
    if fmt not in ("jsonl", "csv"):
        raise ParseError(f"unknown trajectory format {fmt!r}")
    records = _read_jsonl(path) if fmt == "jsonl" else _read_csv(path)
    if not records:
        raise ParseError(f"{path}: no trajectory records")

    items, labeled, seen = [], set(), set()
    for lineno, rec, is_labeled in records:
        try:
            state = validate_trajectory_state(rec)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: line {lineno}: malformed record ({exc})") from exc
        except CurationError as exc:
            raise type(exc)(f"{path}: line {lineno}: {exc}") from exc
        if state.id in seen:
            raise DuplicateId(f"{path}: duplicate id {state.id!r} (line {lineno})")
        seen.add(state.id)
        items.append(state)
        if is_labeled:
            labeled.add(state.id)
    return TrajectoryPool(tuple(items), frozenset(labeled))


def _utf8_lines(fh, path):
    """Lines of a file opened with errors="surrogateescape"; a non-UTF-8 byte fails with its line."""
    for lineno, line in enumerate(fh, start=1):
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: line {lineno}: not UTF-8 text ({exc.reason})") from None
        yield line


def _read_jsonl(path):
    out = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(_utf8_lines(fh, path), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: line {lineno}, column {exc.colno}: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise ParseError(f"{path}: line {lineno}: expected a JSON object")
            missing = {"id", "points", "v", "a", "h"} - obj.keys()
            if missing:
                raise ParseError(f"{path}: line {lineno}: missing keys {sorted(missing)}")
            points = obj["points"]
            if not isinstance(points, list) or len(points) != TRAJECTORY_LEN:
                raise WrongPointCount(
                    f"{path}: line {lineno}: expected {TRAJECTORY_LEN} points, "
                    f"got {len(points) if isinstance(points, list) else type(points).__name__}"
                )
            # a JSON boolean would pass float() as 0.0 or 1.0
            for key in ("v", "a", "h"):
                if isinstance(obj[key], bool):
                    raise ParseError(f"{path}: line {lineno}: {key} must be a number, got {obj[key]}")
            for k, point in enumerate(points):
                if isinstance(point, list) and any(isinstance(c, bool) for c in point):
                    raise ParseError(
                        f"{path}: line {lineno}: point {k} coordinates must be numbers, got {point}"
                    )
            labeled = obj.get("labeled", False)
            if not isinstance(labeled, bool):
                raise ParseError(f"{path}: line {lineno}: labeled must be true or false")
            out.append((lineno, obj, labeled))
    return out


def _read_csv(path):
    out = []
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            reader = csv.reader(_utf8_lines(fh, path))
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty CSV file") from None
            if header != _CSV_FIELDS and header != _CSV_FIELDS[:-1]:
                raise ParseError(f"{path}: unexpected CSV header {header[:4]}...")
            has_labeled = len(header) == len(_CSV_FIELDS)
            width = len(_CSV_FIELDS) if has_labeled else len(_CSV_FIELDS) - 1
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != width:
                    raise WrongPointCount(
                        f"{path}: row {lineno}: expected {width} fields "
                        f"({TRAJECTORY_LEN} coordinate pairs), got {len(row)}"
                    )
                try:
                    coords = [float(c) for c in row[1 : 1 + 2 * TRAJECTORY_LEN]]
                    v, a, h = (float(c) for c in row[1 + 2 * TRAJECTORY_LEN : 4 + 2 * TRAJECTORY_LEN])
                except ValueError as exc:
                    raise ParseError(f"{path}: row {lineno}: {exc}") from exc
                rec = {
                    "id": row[0],
                    "points": [(coords[2 * k], coords[2 * k + 1]) for k in range(TRAJECTORY_LEN)],
                    "v": v,
                    "a": a,
                    "h": h,
                }
                try:
                    labeled = _parse_bool(row[-1]) if has_labeled else False
                except ParseError as exc:
                    raise ParseError(f"{path}: row {lineno}: {exc}") from None
                out.append((lineno, rec, labeled))
    except csv.Error as exc:  # e.g. a NUL byte before Python 3.11
        raise ParseError(f"{path}: line {reader.line_num}: malformed CSV ({exc})") from None
    return out


def write_trajectories(pool: TrajectoryPool, path, fmt: str | None = None) -> None:
    """Write a pool back out in either record schema (lossless round-trip)."""
    fmt = fmt or detect_format(path)
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for s in pool.items:
                obj = {
                    "id": s.id,
                    "points": [[_raw(x), _raw(y)] for x, y in s.points],
                    "v": _raw(s.v),
                    "a": _raw(s.a),
                    "h": _raw(s.h),
                    "labeled": s.id in pool.labeled_ids,
                }
                fh.write(json.dumps(obj) + "\n")
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_FIELDS)
            for s in pool.items:
                row = [s.id]
                for x, y in s.points:
                    row += [_fmt(x), _fmt(y)]
                row += [_fmt(s.v), _fmt(s.a), _fmt(s.h)]
                row.append("true" if s.id in pool.labeled_ids else "false")
                writer.writerow(row)
    else:
        raise ParseError(f"unknown trajectory format {fmt!r}")


def _raw(x: float) -> float:
    # json emits shortest round-trip repr for floats, which is exact
    return float(x)


def read_labeled_ids(path) -> frozenset[str]:
    """Read an id-list file (one id per line) overriding labeled flags."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return frozenset(line.strip() for line in _utf8_lines(fh, path) if line.strip())


# ---------------------------------------------------------------------------
# cluster exports
# ---------------------------------------------------------------------------


def novelty_class(p: ClusterPartition, id_) -> str:
    label = p.assignments[id_]
    if label in p.familiar_clusters:
        if p.cluster_size(label) == 1:
            # labeled singleton: tracked but never sampleable
            return "labeled-singleton" if id_ in p.labeled_ids else "familiar"
        return "familiar"
    if label in p.novel_clusters:
        return "novel"
    return "singleton"


def export_clusters(p: ClusterPartition, t: Dendrogram, out_dir) -> tuple[Path, Path]:
    """Write ``assignments.csv`` and ``dendrogram.txt`` under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    assignments_path = out / "assignments.csv"
    dendro_path = out / "dendrogram.txt"
    with open(assignments_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "cluster", "novelty_class"])
        for id_ in p.assignments:
            writer.writerow([id_, p.assignments[id_], novelty_class(p, id_)])
    with open(dendro_path, "w", encoding="utf-8") as fh:
        fh.write(format_dendrogram(t))
    return assignments_path, dendro_path


# ---------------------------------------------------------------------------
# selection manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifestDocument:
    """A stored manifest plus provenance: tool version and input digest."""

    manifest: SelectionManifest
    tool_version: str
    input_digest: str
    schema_version: int = MANIFEST_SCHEMA_VERSION


def write_manifest(m: SelectionManifest, out_path, input_digest: str = "") -> None:
    doc = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool_version": __version__,
        "input_digest": input_digest,
        "round_index": m.round_index,
        "seed": m.seed,
        "config": {
            "alpha": m.config.alpha,
            "beta": m.config.beta,
            "budget": m.config.budget,
            "tau": m.config.tau,
            "weights": {
                "k_a": m.config.weights.k_a,
                "k_v": m.config.weights.k_v,
                "k_h": m.config.weights.k_h,
            },
            "seed": m.config.seed,
        },
        "budget_resolved": m.budget_resolved,
        "novel_quota": m.novel_quota,
        "familiar_quota": m.familiar_quota,
        "novel_shortfall": m.novel_shortfall,
        "familiar_shortfall": m.familiar_shortfall,
        "selected": [
            {"id": s.id, "phase": s.phase, "cluster": s.cluster} for s in m.selected
        ],
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_manifest_document(path) -> ManifestDocument:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc.msg} (line {exc.lineno})") from exc
    required = (
        "schema_version",
        "seed",
        "round_index",
        "config",
        "budget_resolved",
        "novel_quota",
        "familiar_quota",
        "novel_shortfall",
        "familiar_shortfall",
        "selected",
    )
    missing = [k for k in required if k not in doc]
    if missing:
        raise SchemaVersionMismatch(f"{path}: manifest missing fields {missing}")
    if doc["schema_version"] != MANIFEST_SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"{path}: schema version {doc['schema_version']}, expected {MANIFEST_SCHEMA_VERSION}"
        )
    cfg_doc = doc["config"]
    for key in ("alpha", "beta", "budget", "tau", "weights", "seed"):
        if key not in cfg_doc:
            raise SchemaVersionMismatch(f"{path}: manifest config missing {key!r}")
    weights = MetricWeights(
        k_a=cfg_doc["weights"]["k_a"],
        k_v=cfg_doc["weights"]["k_v"],
        k_h=cfg_doc["weights"]["k_h"],
    )
    config = SamplingConfig(
        alpha=cfg_doc["alpha"],
        beta=cfg_doc["beta"],
        budget=cfg_doc["budget"],
        tau=cfg_doc["tau"],
        weights=weights,
        seed=cfg_doc["seed"],
    )
    manifest = SelectionManifest(
        round_index=doc["round_index"],
        config=config,
        seed=doc["seed"],
        budget_resolved=doc["budget_resolved"],
        novel_quota=doc["novel_quota"],
        familiar_quota=doc["familiar_quota"],
        novel_shortfall=doc["novel_shortfall"],
        familiar_shortfall=doc["familiar_shortfall"],
        selected=tuple(
            Selection(id=s["id"], phase=s["phase"], cluster=s["cluster"])
            for s in doc["selected"]
        ),
    )
    return ManifestDocument(
        manifest=manifest,
        tool_version=doc.get("tool_version", ""),
        input_digest=doc.get("input_digest", ""),
        schema_version=doc["schema_version"],
    )


def read_manifest(path) -> SelectionManifest:
    return read_manifest_document(path).manifest


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# experiment results
# ---------------------------------------------------------------------------

_RESULT_HEADER = ["budget", "alpha", "beta", "seed", "strategy", "made5", "made10"]


def write_experiment_csv(result: ExperimentResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RESULT_HEADER)
        for r in result.rows:
            writer.writerow(
                [
                    _fmt(r.budget),
                    _fmt(r.alpha),
                    _fmt(r.beta),
                    r.seed,
                    r.strategy,
                    _fmt(r.made5),
                    _fmt(r.made10),
                ]
            )


def read_experiment_csv(path) -> ExperimentResult:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _RESULT_HEADER:
            raise ParseError(f"{path}: unexpected result header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_RESULT_HEADER):
                raise ParseError(f"{path}: row {lineno} has {len(row)} fields")
            rows.append(
                ExperimentRow(
                    budget=float(row[0]),
                    alpha=float(row[1]),
                    beta=float(row[2]),
                    seed=int(row[3]),
                    strategy=row[4],
                    made5=float(row[5]),
                    made10=float(row[6]),
                )
            )
    return ExperimentResult(rows=tuple(rows))
