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
import json
from array import array
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import ClusterPartition, Dendrogram, format_dendrogram
from .errors import CurationError, EmptyId, ParseError, WrongPointCount
from .sampling import SelectionManifest
from .states import TRAJECTORY_LEN, TrajectoryPool
from .surrogate import ExperimentResult

MANIFEST_SCHEMA_VERSION = 1

_CSV_FIELDS = (
    ["id"]
    + [f"{axis}{k}" for k in range(1, TRAJECTORY_LEN + 1) for axis in ("x", "y")]
    + ["v", "a", "h", "labeled"]
)
# numbers per record: the coordinates, then v, a and h
_N_VALUES = 2 * TRAJECTORY_LEN + 3
_NAN_ROW = [float("nan")] * _N_VALUES


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


def load_trajectories(path) -> TrajectoryPool:
    """Read a trajectory record file into a validated pool.

    Records parse straight into the pool's columns. A fault in a file's
    layout (bad JSON or CSV, a missing key, a wrong point or field count)
    raises where the reader meets it; the pool then checks each record's
    id, values and uniqueness in file order, so of those faults the first
    record's is reported, with its line. A value that is not a number is
    such a record fault in either format.
    """
    read = _read_jsonl if detect_format(path) == "jsonl" else _read_csv
    # an array("d"), not a list: a list's float objects would leave their
    # interpreter arenas held after the pool is built
    ids, values, lines, labeled, unconverted = [], array("d"), [], [], {}
    for lineno, id_, raw, is_labeled, number in read(path):
        row = []
        try:
            row.extend(map(number, raw))
        except (TypeError, ValueError, OverflowError) as exc:
            # extend keeps the values before the bad one, so len(row) is its column
            col = len(row)
            # only a JSON integer overflows; its repr may run to any length
            fault = (
                "is beyond the float range"
                if isinstance(exc, OverflowError)
                else f"must be a number, got {raw[col]!r}"
            )
            unconverted[len(ids)] = f"trajectory {id_!r}: column {_CSV_FIELDS[1 + col]} {fault}"
            row = _NAN_ROW
        values.extend(row)
        ids.append(id_)
        lines.append(lineno)
        if is_labeled:
            labeled.append(id_)
    if not ids:
        raise ParseError(f"{path}: no trajectory records")
    values = np.frombuffer(values).reshape(len(ids), _N_VALUES)
    points = values[:, : 2 * TRAJECTORY_LEN].reshape(-1, TRAJECTORY_LEN, 2)
    try:
        return TrajectoryPool.from_columns(ids, points, values[:, 2 * TRAJECTORY_LEN :], labeled)
    except CurationError as exc:
        line = lines[exc.row]
        # a row that did not convert holds NaN, so the pool stops on it;
        # as in TrajectoryState, a bad id outranks the conversion
        if exc.row in unconverted and not isinstance(exc, EmptyId):
            raise ParseError(f"{path}: line {line}: {unconverted[exc.row]}") from None
        raise type(exc)(f"{path}: line {line}: {exc}") from exc


def _utf8_lines(fh, path):
    """Lines of a file opened with errors="surrogateescape"; a non-UTF-8 byte fails with its line."""
    for lineno, line in enumerate(fh, start=1):
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: line {lineno}: not UTF-8 text ({exc.reason})") from None
        yield line


def _json_number(value) -> float:
    """float() of a JSON number only: float() alone would take a boolean or a
    numeric string. Not numpy, which reads a JSON null as NaN."""
    if type(value) is float:
        return value
    if type(value) is int:  # not bool, an int subclass
        return float(value)
    raise TypeError


def _read_jsonl(path):
    """Per record: (line, id, the raw values in ``_CSV_FIELDS`` order, labeled,
    their number converter). Checks the object, its keys, the point count and
    the labeled flag."""
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
            is_labeled = obj.get("labeled", False)
            if not isinstance(is_labeled, bool):
                raise ParseError(f"{path}: line {lineno}: labeled must be true or false")
            # a point that is not an [x, y] pair stands in both its columns as
            # [point], which never converts, not even when the point is a
            # number; unpacking would take a two-character string or a two-key
            # object as a pair
            raw = [c for p in points for c in (p if type(p) is list and len(p) == 2 else [[p]] * 2)]
            raw += (obj["v"], obj["a"], obj["h"])
            yield lineno, obj["id"], raw, is_labeled, _json_number


def _read_csv(path):
    """As ``_read_jsonl``. Checks the header, the field count and the labeled cell."""
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
            end = reader.line_num
            for row in reader:
                # a quoted cell may hold a newline, so a record starts on
                # the line after the last one's end
                lineno, end = end + 1, reader.line_num
                if not row:
                    continue
                if len(row) != len(header):
                    raise WrongPointCount(
                        f"{path}: line {lineno}: expected {len(header)} fields "
                        f"({TRAJECTORY_LEN} coordinate pairs), got {len(row)}"
                    )
                try:
                    is_labeled = has_labeled and _parse_bool(row[-1])
                except ParseError as exc:
                    raise ParseError(
                        f"{path}: line {lineno}: trajectory {row[0]!r}: column labeled: {exc}"
                    ) from None
                yield lineno, row[0], row[1 : 1 + _N_VALUES], is_labeled, float
    except csv.Error as exc:  # e.g. a NUL byte before Python 3.11
        raise ParseError(f"{path}: line {reader.line_num}: malformed CSV ({exc})") from None


def write_trajectories(pool: TrajectoryPool, path) -> None:
    """Write a pool back out in either record schema (lossless round-trip)."""
    # a row at a time: lists of the whole pool would double its memory
    rows = zip(pool.ids, pool.points, pool.dyn)
    records = ((id_, points.tolist(), dyn.tolist()) for id_, points, dyn in rows)
    labeled = pool.labeled_ids
    if detect_format(path) == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            # json writes each float's shortest round-trip repr, which is exact
            for id_, points, (v, a, h) in records:
                obj = {"id": id_, "points": points, "v": v, "a": a, "h": h}
                obj["labeled"] = id_ in labeled
                fh.write(json.dumps(obj) + "\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_FIELDS)
            for id_, points, dyn in records:
                row = [id_, *(_fmt(c) for point in points for c in point), *map(_fmt, dyn)]
                row.append("true" if id_ in labeled else "false")
                writer.writerow(row)


def read_labeled_ids(path) -> frozenset[str]:
    """Read an id-list file (one id per line) overriding labeled flags."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return frozenset(line.strip() for line in _utf8_lines(fh, path) if line.strip())


# ---------------------------------------------------------------------------
# cluster exports
# ---------------------------------------------------------------------------


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
            writer.writerow([id_, p.assignments[id_], p.novelty_class(id_)])
    with open(dendro_path, "w", encoding="utf-8") as fh:
        fh.write(format_dendrogram(t))
    return assignments_path, dendro_path


# ---------------------------------------------------------------------------
# selection manifests
# ---------------------------------------------------------------------------


def write_manifest(m: SelectionManifest, out_path, input_digest: str = "") -> None:
    head = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool_version": __version__,
        "input_digest": input_digest,
        "round_index": 0,
        "seed": m.config.seed,
    }
    # merging keeps the head's keys first; the rest follow in field order
    body = asdict(replace(m, selected=()))
    body["selected"] = [s._asdict() for s in m.selected]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({**head, **body}, fh, indent=2)
        fh.write("\n")


def sha256_file(path) -> str:
    import hashlib  # here, not at the top: it loads OpenSSL, which only sample needs

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
