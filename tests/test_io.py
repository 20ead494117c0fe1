import csv
import json

import numpy as np
import pytest

from trajcurate import (
    SamplingConfig,
    TrajectoryPool,
    flat_clusters,
    pairwise_distances,
    upgma_linkage,
)
from trajcurate.errors import (
    DuplicateId,
    EmptyId,
    NonFiniteValue,
    ParseError,
    WrongPointCount,
)
from trajcurate.io import (
    export_clusters,
    load_trajectories,
    read_labeled_ids,
    sha256_file,
    write_experiment_csv,
    write_manifest,
    write_trajectories,
)
from trajcurate.states import TrajectoryState
from trajcurate.surrogate import ExperimentResult, ExperimentRow

from helpers import (
    pool_round,
    random_states,
    read_experiment_csv,
    read_manifest,
    stationary_state,
)


def fixture_pool():
    rng = np.random.default_rng(0)
    items = random_states(rng, 3)
    return TrajectoryPool(tuple(items), frozenset({items[1].id}))


def test_jsonl_round_trip(tmp_path):
    pool = fixture_pool()
    path = tmp_path / "pool.jsonl"
    write_trajectories(pool, path)
    back = load_trajectories(path)
    assert back == pool
    assert back.labeled_ids == pool.labeled_ids


def test_csv_round_trip(tmp_path):
    pool = fixture_pool()
    path = tmp_path / "pool.csv"
    write_trajectories(pool, path)
    back = load_trajectories(path)
    assert back == pool


def test_load_export_load_idempotent(tmp_path):
    pool = fixture_pool()
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    write_trajectories(pool, first)
    write_trajectories(load_trajectories(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_jsonl_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "points": [[0, 0]], "v": 1, "a": 0, "h": 0}\n')
    with pytest.raises(WrongPointCount):
        load_trajectories(path)
    path.write_text("this is not json\n")
    with pytest.raises(ParseError) as err:
        load_trajectories(path)
    assert "line 1" in str(err.value)
    path.write_text('{"id": "a", "v": 1}\n')
    with pytest.raises(ParseError):
        load_trajectories(path)


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("labeled", "false", ParseError),
        ("points", [[0.0, 0.0, 0.0]] + [[0.0, 0.0]] * 11, ParseError),
        ("points", [[True, 0.0]] + [[0.0, 0.0]] * 11, ParseError),
        ("v", "abc", ParseError),
        ("v", True, ParseError),
        ("v", float("nan"), NonFiniteValue),
        ("id", "", EmptyId),
        ("id", 7, EmptyId),
        # numpy would read a JSON null as NaN; the record is malformed
        ("points", [[0.0, None]] + [[0.0, 0.0]] * 11, ParseError),
        ("points", [None] + [[0.0, 0.0]] * 11, ParseError),
        ("v", None, ParseError),
        ("points", [[[0.0, 0.0], [0.0, 0.0]]] + [[0.0, 0.0]] * 11, ParseError),
        ("h", 10**400, ParseError),
        # float() would read these as 1.5, (1.0, 2.0) and the object's keys
        ("v", "1.5", ParseError),
        ("points", ["12"] + [[0.0, 0.0]] * 11, ParseError),
        ("points", [{"1": 0.0, "2": 0.0}] + [[0.0, 0.0]] * 11, ParseError),
        # a number is not an [x, y] pair, though both of its halves would convert
        ("points", [5.0] + [[0.0, 0.0]] * 11, ParseError),
    ],
    ids=[
        "labeled-string", "point-3d", "point-bool", "v-abc", "v-true", "v-nan", "id-empty",
        "id-int", "point-null", "point-none", "v-null", "point-nested", "h-huge-int",
        "v-string", "point-string", "point-object", "point-number",
    ],
)
def test_jsonl_mistyped_field_names_file_and_line(tmp_path, field, value, error):
    path = tmp_path / "pool.jsonl"
    write_trajectories(fixture_pool(), path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record[field] = value
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error) as err:
        load_trajectories(path)
    assert str(path) in str(err.value) and "line 2" in str(err.value)
    if field == "h":  # the one overflow: the message leaves out its 401 digits
        expected = "trajectory 'r0001': column h is beyond the float range"
        assert str(err.value) == f"{path}: line 2: {expected}"


_FAULTS = {
    # a JSONL record's edit, the same fault as a CSV row's cells, and its error
    "empty-id": (lambda rec: rec.update(id=""), {"id": ""}, EmptyId),
    "v-abc": (lambda rec: rec.update(v="abc"), {"v": "abc"}, ParseError),
    "v-nan": (lambda rec: rec.update(v=float("nan")), {"v": "nan"}, NonFiniteValue),
    "duplicate-id": (lambda rec: rec.update(id="r0000"), {"id": "r0000"}, DuplicateId),
    "coordinate-null": (lambda rec: rec["points"][3].__setitem__(1, None), {"y4": ""}, ParseError),
}


def _edit_csv_rows(path, *edits):
    """Rewrite the CSV at ``path`` with ``edits[r]``'s {column: cell} on its row r."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    for row, cells in zip(rows, edits):
        for col, cell in cells.items():
            row[header.index(col)] = cell
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


@pytest.mark.parametrize("second", sorted(_FAULTS))
@pytest.mark.parametrize("first", sorted(_FAULTS))
def test_jsonl_first_faulty_record_wins(tmp_path, first, second):
    # faults in records 2 and 3: record 2's is reported, with its own type and
    # line, in either format
    path = tmp_path / "pool.jsonl"
    write_trajectories(fixture_pool(), path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0]["id"] == "r0000"
    _FAULTS[first][0](records[1])
    _FAULTS[second][0](records[2])
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    csv_path = tmp_path / "pool.csv"
    write_trajectories(fixture_pool(), csv_path)
    _edit_csv_rows(csv_path, {}, _FAULTS[first][1], _FAULTS[second][1])
    for path, line in ((path, 2), (csv_path, 3)):
        with pytest.raises(_FAULTS[first][2]) as err:
            load_trajectories(path)
        assert str(err.value).startswith(f"{path}: line {line}: ")


@pytest.mark.parametrize(
    "value, cell", [(None, ""), ("abc", "abc"), ([1.0], "[1.0]")], ids=["None", "abc", "value2"]
)
def test_jsonl_bad_id_outranks_values_that_do_not_convert(tmp_path, value, cell):
    path = tmp_path / "pool.jsonl"
    write_trajectories(fixture_pool(), path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[1].update(id="", v=value)
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    csv_path = tmp_path / "pool.csv"
    write_trajectories(fixture_pool(), csv_path)
    _edit_csv_rows(csv_path, {"id": "", "v": cell})
    for path in (path, csv_path):
        with pytest.raises(EmptyId) as err:
            load_trajectories(path)
        assert str(err.value).startswith(f"{path}: line 2: ")


def test_loaded_pool_holds_read_only_columns(tmp_path):
    pool = fixture_pool()
    path = tmp_path / "pool.jsonl"
    write_trajectories(pool, path)
    back = load_trajectories(path)
    assert back.points.shape == (3, 12, 2) and back.dyn.shape == (3, 3)
    assert not back.points.flags.writeable and not back.dyn.flags.writeable
    # no record objects until items is read, and items builds equal states
    held = [v for value in vars(back).values() if isinstance(value, tuple) for v in value]
    assert not any(isinstance(v, TrajectoryState) for v in held)
    assert list(back.items) == list(pool.items)
    with pytest.raises(AttributeError):
        back.ids = ()


def test_take_keeps_rows_and_labels():
    pool = fixture_pool()
    part = pool.take([2, 1])
    assert part.ids == (pool.ids[2], pool.ids[1])
    assert part.labeled_ids == pool.labeled_ids == {pool.ids[1]}
    assert part == TrajectoryPool((pool.items[2], pool.items[1]), pool.labeled_ids)
    assert pool.take([0]).labeled_ids == frozenset()
    with pytest.raises(DuplicateId):
        pool.take([0, 0])


def test_jsonl_duplicate_id(tmp_path):
    pool = fixture_pool()
    path = tmp_path / "dupe.jsonl"
    write_trajectories(pool, path)
    line = path.read_text().splitlines()[0]
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(DuplicateId):
        load_trajectories(path)


def test_csv_wrong_point_count_names_row(tmp_path):
    pool = fixture_pool()
    path = tmp_path / "pool.csv"
    write_trajectories(pool, path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    lines[2] = ",".join(cells[:10] + cells[11:])  # drop one coordinate
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(WrongPointCount) as err:
        load_trajectories(path)
    assert "line 3" in str(err.value)


def test_csv_bad_number(tmp_path):
    pool = fixture_pool()
    path = tmp_path / "pool.csv"
    write_trajectories(pool, path)
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = "not-a-number"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_trajectories(path)
    # the line, the record's id and the column, as the JSONL loader's errors
    want = f"line 2: trajectory {cells[0]!r}: column x2 must be a number, got 'not-a-number'"
    assert str(err.value) == f"{path}: {want}"


def test_csv_bad_labeled_names_file_and_row(tmp_path):
    path = tmp_path / "pool.csv"
    write_trajectories(fixture_pool(), path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",maybe"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        load_trajectories(path)
    assert str(path) in str(err.value) and "line 2" in str(err.value)
    assert "column labeled: cannot parse boolean 'maybe'" in str(err.value)


def test_csv_errors_name_the_line_a_record_starts_on(tmp_path):
    # a quoted id holding a newline spans lines 2 and 3, then a blank line
    path = tmp_path / "pool.csv"
    write_trajectories(fixture_pool(), path)
    header, first, second = path.read_text().splitlines()[:3]
    first = '"a\nb"' + first[first.index(",") :]
    bad = second.split(",")
    bad[-2] = "zz"  # h
    path.write_text("\n".join([header, first, "", ",".join(bad)]) + "\n")
    with pytest.raises(ParseError, match=f"line 5: trajectory {bad[0]!r}: column h must"):
        load_trajectories(path)
    bad[-2] = "nan"  # a number, which the pool then refuses with the same line
    path.write_text("\n".join([header, first, "", ",".join(bad)]) + "\n")
    with pytest.raises(NonFiniteValue, match="line 5: "):
        load_trajectories(path)


@pytest.mark.parametrize("name", ["pool.jsonl", "pool.csv"])
def test_non_utf8_input_names_the_file(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\x80\n")
    with pytest.raises(ParseError, match="not UTF-8") as err:
        load_trajectories(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("name", ["pool.jsonl", "pool.csv"])
def test_non_utf8_byte_names_its_line(tmp_path, name):
    # past the first read-ahead chunk, so the line is the byte's own
    path = tmp_path / name
    write_trajectories(TrajectoryPool(tuple(random_states(np.random.default_rng(1), 40))), path)
    lines = path.read_bytes().split(b"\n")
    lines[36] = lines[36][:9] + b"\xe2\x28" + lines[36][9:]
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ParseError, match="not UTF-8") as err:
        load_trajectories(path)
    assert f"{path}: line 37:" in str(err.value)


def test_malformed_csv_names_its_line(tmp_path):
    path = tmp_path / "pool.csv"
    write_trajectories(fixture_pool(), path)
    lines = path.read_text().splitlines()
    lines[2] = "x" * (csv.field_size_limit() + 1) + lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="malformed CSV") as err:
        load_trajectories(path)
    assert f"{path}: line 3:" in str(err.value)


def test_unknown_format(tmp_path):
    with pytest.raises(ParseError):
        load_trajectories(tmp_path / "pool.parquet")


def test_csv_without_labeled_column(tmp_path):
    pool = fixture_pool()
    path = tmp_path / "pool.csv"
    write_trajectories(pool, path)
    lines = path.read_text().splitlines()
    trimmed = [",".join(line.split(",")[:-1]) for line in lines]
    path.write_text("\n".join(trimmed) + "\n")
    back = load_trajectories(path)
    assert back == TrajectoryPool.from_columns(pool.ids, pool.points, pool.dyn)
    assert back.labeled_ids == frozenset()


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "pool.csv"
    path.write_text("id,x1,y1,extra\n")
    with pytest.raises(ParseError):
        load_trajectories(path)


def test_read_labeled_ids(tmp_path):
    path = tmp_path / "ids.txt"
    path.write_text("a\n\nb\n")
    assert read_labeled_ids(path) == {"a", "b"}


def three_leaf_clustering():
    items = (
        stationary_state("A", 0.0),
        stationary_state("B", 0.1),
        stationary_state("C", 10.0),
    )
    tree = upgma_linkage(pairwise_distances(items))
    part = flat_clusters(tree, tau=5.0, leaf_ids=[s.id for s in items])
    return part, tree


def test_export_clusters(tmp_path):
    part, tree = three_leaf_clustering()
    assignments, dendro = export_clusters(part, tree, tmp_path)
    rows = assignments.read_text().splitlines()
    assert rows[0] == "id,cluster,novelty_class"
    assert len(rows) == 4  # header + 3 items
    assert rows[1:] == ["A,0,novel", "B,0,novel", "C,1,singleton"]
    merges = dendro.read_text().splitlines()
    assert len(merges) == 2
    # no familiar rows without labels
    assert not any("familiar" in r for r in rows)


def test_export_clusters_novelty_classes(tmp_path):
    items = (
        stationary_state("A", 0.0),
        stationary_state("B", 0.1),
        stationary_state("C", 10.0),
        stationary_state("D", 20.0),
    )
    tree = upgma_linkage(pairwise_distances(items))
    part = flat_clusters(tree, tau=5.0, labeled_ids={"A", "D"}, leaf_ids=[s.id for s in items])
    assignments, _ = export_clusters(part, tree, tmp_path)
    rows = dict(line.split(",", 1) for line in assignments.read_text().splitlines()[1:])
    assert rows["A"].endswith("familiar")
    assert rows["B"].endswith("familiar")
    assert rows["C"].endswith("singleton")
    assert rows["D"].endswith("labeled-singleton")


def test_export_clusters_deterministic(tmp_path):
    part, tree = three_leaf_clustering()
    a1, d1 = export_clusters(part, tree, tmp_path / "one")
    a2, d2 = export_clusters(part, tree, tmp_path / "two")
    assert a1.read_bytes() == a2.read_bytes()
    assert d1.read_bytes() == d2.read_bytes()


def sample_manifest():
    items = tuple(
        [stationary_state(f"x{i}", 0.03 * i) for i in range(6)]
        + [stationary_state(f"y{i}", 100.0 + 0.03 * i) for i in range(4)]
    )
    pool = TrajectoryPool(items, frozenset({"y0"}))
    cfg = SamplingConfig(alpha=0.5, beta=0.4, budget=4, tau=10.0, seed=11)
    return pool_round(pool, cfg)


def test_manifest_round_trip(tmp_path):
    manifest = sample_manifest()
    path = tmp_path / "manifest.json"
    write_manifest(manifest, path, input_digest="abc123")
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["input_digest"] == "abc123"
    assert doc["schema_version"] == 1
    assert read_manifest(path) == manifest


def test_manifest_zero_shortfall_explicit(tmp_path):
    manifest = sample_manifest()
    path = tmp_path / "manifest.json"
    write_manifest(manifest, path)
    doc = json.loads(path.read_text())
    assert doc["novel_shortfall"] == 0
    assert doc["familiar_shortfall"] == 0


def test_manifest_fraction_budget_round_trip(tmp_path):
    items = tuple(stationary_state(f"x{i}", 0.03 * i) for i in range(8))
    pool = TrajectoryPool(items)
    manifest = pool_round(pool, SamplingConfig(alpha=1.0, beta=1.0, budget=0.5, seed=2))
    path = tmp_path / "m.json"
    write_manifest(manifest, path)
    back = read_manifest(path)
    assert back == manifest
    assert isinstance(back.config.budget, float)


def test_sha256_file(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"hello")
    assert sha256_file(path) == (
        "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
    )


def test_experiment_csv_round_trip(tmp_path):
    rows = (
        ExperimentRow(0.1, 0.0, 0.2, 0, "active", 1.25, 0.875),
        ExperimentRow(0.1, 0.0, 0.2, 0, "random", 1.5, 1.0),
    )
    result = ExperimentResult(rows=rows)
    path = tmp_path / "results.csv"
    write_experiment_csv(result, path)
    text = path.read_text().splitlines()
    assert text[0] == "budget,alpha,beta,seed,strategy,made5,made10"
    assert read_experiment_csv(path) == result
