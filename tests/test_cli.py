import json

import numpy as np
import pytest

from trajcurate import TrajectoryPool, canonical_pool_spec, generate_synthetic_pool
from trajcurate.cli import dispatch, parse_budget, parse_weights
from trajcurate.errors import InvalidFlagValue
from trajcurate.io import (
    load_trajectories,
    read_experiment_csv,
    read_manifest,
    sha256_file,
    write_trajectories,
)
from trajcurate.metric import read_distance_matrix
from trajcurate.surrogate import stratified_holdout

from helpers import stationary_state


@pytest.fixture
def pool_file(tmp_path):
    items = tuple(
        [stationary_state(f"x{i}", 0.03 * i) for i in range(8)]
        + [stationary_state(f"y{i}", 100.0 + 0.03 * i) for i in range(6)]
        + [stationary_state("lone", 300.0)]
    )
    pool = TrajectoryPool(items, frozenset({"y0", "y1"}))
    path = tmp_path / "pool.jsonl"
    write_trajectories(pool, path)
    return path


@pytest.fixture
def synth_file(tmp_path):
    items = generate_synthetic_pool(canonical_pool_spec(total_count=120, seed=12))
    path = tmp_path / "synth.jsonl"
    write_trajectories(TrajectoryPool(tuple(items)), path)
    return path


def test_parse_weights():
    w = parse_weights("0.05,0.025,1")
    assert (w.k_a, w.k_v, w.k_h) == (0.05, 0.025, 1.0)
    with pytest.raises(InvalidFlagValue):
        parse_weights("1,2")
    with pytest.raises(InvalidFlagValue):
        parse_weights("a,b,c")


def test_parse_budget():
    assert parse_budget("10") == 10
    assert isinstance(parse_budget("10"), int)
    assert parse_budget("0.3") == 0.3
    assert parse_budget("1.0") == 1.0
    assert isinstance(parse_budget("1.0"), float)
    with pytest.raises(InvalidFlagValue):
        parse_budget("0")
    with pytest.raises(InvalidFlagValue):
        parse_budget("1.5")
    with pytest.raises(InvalidFlagValue):
        parse_budget("nope")


def test_cluster_command(pool_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = dispatch(["cluster", "--input", str(pool_file), "--out", str(out)])
    assert code == 0
    assignments = (out / "assignments.csv").read_text().splitlines()
    assert assignments[0] == "id,cluster,novelty_class"
    assert len(assignments) == 16
    assert (out / "dendrogram.txt").read_text().count("\n") == 14


def test_cluster_matrix_dump(pool_file, tmp_path):
    out = tmp_path / "out"
    dump = tmp_path / "pairs.tsdm"
    code = dispatch(
        ["cluster", "--input", str(pool_file), "--out", str(out), "--matrix-out", str(dump)]
    )
    assert code == 0
    assert read_distance_matrix(dump).n == 15


def test_cluster_reproducible(pool_file, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert dispatch(["cluster", "--input", str(pool_file), "--out", str(out1)]) == 0
    assert dispatch(["cluster", "--input", str(pool_file), "--out", str(out2)]) == 0
    assert (out1 / "assignments.csv").read_bytes() == (out2 / "assignments.csv").read_bytes()
    assert (out1 / "dendrogram.txt").read_bytes() == (out2 / "dendrogram.txt").read_bytes()


def test_sample_command(pool_file, tmp_path):
    out = tmp_path / "manifest.json"
    code = dispatch(
        [
            "sample",
            "--input",
            str(pool_file),
            "--alpha",
            "0.5",
            "--beta",
            "0.4",
            "--budget",
            "4",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    manifest = read_manifest(out)
    assert len(manifest.selected) == 4
    assert manifest.seed == 7
    assert json.loads(out.read_text(encoding="utf-8"))["input_digest"] == sha256_file(pool_file)


def test_sample_alpha_out_of_range(pool_file, tmp_path, capsys):
    code = dispatch(
        [
            "sample",
            "--input",
            str(pool_file),
            "--alpha",
            "1.5",
            "--beta",
            "0.4",
            "--budget",
            "4",
            "--out",
            str(tmp_path / "m.json"),
        ]
    )
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_sample_reproducible(pool_file, tmp_path):
    args = [
        "sample",
        "--input",
        str(pool_file),
        "--alpha",
        "1.0",
        "--beta",
        "0.2",
        "--budget",
        "0.5",
        "--seed",
        "3",
    ]
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert dispatch(args + ["--out", str(m1)]) == 0
    assert dispatch(args + ["--out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_unknown_command(capsys):
    assert dispatch(["frobnicate"]) == 2


def test_missing_required_flag(capsys):
    assert dispatch(["cluster"]) == 2


def test_missing_input_file(tmp_path, capsys):
    code = dispatch(["cluster", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_labeled_override(pool_file, tmp_path):
    ids = tmp_path / "ids.txt"
    ids.write_text("x0\nx1\n")
    out = tmp_path / "out"
    code = dispatch(
        ["cluster", "--input", str(pool_file), "--labeled", str(ids), "--out", str(out)]
    )
    assert code == 0
    rows = (out / "assignments.csv").read_text().splitlines()[1:]
    familiar = [r for r in rows if r.startswith("x") and r.endswith("familiar")]
    assert len(familiar) == 8  # the x-cluster is familiar under the override
    bad = tmp_path / "bad.txt"
    bad.write_text("ghost\n")
    assert dispatch(["cluster", "--input", str(pool_file), "--labeled", str(bad), "--out", str(out)]) == 1


@pytest.mark.parametrize(
    "content, message",
    [(b"x0\n\x80y1\n", "line 2: not UTF-8 text"), (b"x0\nghost\n", "not present in pool")],
    ids=["non-utf8", "stray-id"],
)
def test_labeled_file_fault_names_the_file(pool_file, tmp_path, capsys, content, message):
    ids = tmp_path / "ids.txt"
    ids.write_bytes(content)
    assert dispatch(["stats", "--input", str(pool_file), "--labeled", str(ids)]) == 1
    err = capsys.readouterr().err
    assert f"error: {ids}: " in err and message in err


def test_simulate_budgets_read_counts_and_fractions(synth_file, tmp_path, capsys):
    out = tmp_path / "r.csv"
    argv = ["simulate", "--input", str(synth_file), "--grid", "custom", "--alphas", "0.5",
            "--betas", "0.4", "--seeds", "1", "--tau", "30", "--out", str(out), "--budgets"]
    assert dispatch(argv + ["0.1,40"]) == 0
    n_unlabeled = 96  # 120 unlabeled records, 24 of them held out
    assert {r.budget for r in read_experiment_csv(out).rows} == {0.1, 40 / n_unlabeled}
    assert dispatch(argv + [str(n_unlabeled + 1)]) == 1
    assert "exceeds the unlabeled pool (96)" in capsys.readouterr().err
    assert dispatch(argv + ["0.1,0"]) == 2
    assert "--budgets count must be >= 1" in capsys.readouterr().err


def test_simulate_custom_grid(synth_file, tmp_path):
    out = tmp_path / "results.csv"
    code = dispatch(
        [
            "simulate",
            "--input",
            str(synth_file),
            "--grid",
            "custom",
            "--alphas",
            "0,1",
            "--betas",
            "0.2",
            "--budgets",
            "0.25",
            "--seeds",
            "2",
            "--tau",
            "30",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "budget,alpha,beta,seed,strategy,made5,made10"
    assert len(lines) == 1 + 2 * 1 * 1 * 2 * 2  # configs x seeds x strategies


def test_simulate_reproducible(synth_file, tmp_path):
    args = [
        "simulate",
        "--input",
        str(synth_file),
        "--grid",
        "custom",
        "--alphas",
        "0.5",
        "--betas",
        "0.4",
        "--budgets",
        "0.2",
        "--seeds",
        "1",
        "--tau",
        "30",
    ]
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert dispatch(args + ["--out", str(r1)]) == 0
    assert dispatch(args + ["--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_simulate_default_grid_row_count(synth_file, tmp_path):
    out = tmp_path / "results.csv"
    code = dispatch(
        [
            "simulate",
            "--input",
            str(synth_file),
            "--grid",
            "default",
            "--seeds",
            "3",
            "--tau",
            "30",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 900  # 150-config grid x 3 seeds x 2 strategies


def test_simulate_without_input_uses_builtin_fixture(tmp_path):
    out = tmp_path / "results.csv"
    code = dispatch(
        [
            "simulate",
            "--grid",
            "default",
            "--seeds",
            "3",
            "--pool-size",
            "150",
            "--tau",
            "30",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 900


def test_simulate_custom_grid_requires_lists(synth_file, tmp_path, capsys):
    code = dispatch(
        [
            "simulate",
            "--input",
            str(synth_file),
            "--grid",
            "custom",
            "--out",
            str(tmp_path / "r.csv"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [["--tau", "-1"], ["--tau", "nan"], ["--k-modes", "0"], ["--holdout", "1.5"]],
    ids=["tau-negative", "tau-nan", "k-modes-0", "holdout-1.5"],
)
def test_simulate_bad_flag_values_exit_2(synth_file, tmp_path, capsys, flags):
    code = dispatch(
        ["simulate", "--input", str(synth_file), "--seeds", "1", "--out", str(tmp_path / "r.csv")]
        + flags
    )
    assert code == 2
    assert flags[0] in capsys.readouterr().err


def test_simulate_empty_holdout_exits_1(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code = dispatch(
        ["simulate", "--pool-size", "100", "--holdout", "0", "--seeds", "1", "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "holdout" in err and "Traceback" not in err
    assert not out.exists()


_LINE_IDS = tuple(f"m{i % 4}-{i}" for i in range(40))


def _line_pool(tmp_path, edit):
    """40 records on a line in four motif groups, after ``edit(points, dyn)``."""
    points = np.zeros((40, 12, 2))
    points[..., 0] = np.arange(12.0) + 0.5 * np.arange(40)[:, None]
    dyn = np.zeros((40, 3))
    edit(points, dyn)
    path = tmp_path / "pool.jsonl"
    write_trajectories(TrajectoryPool.from_columns(_LINE_IDS, points, dyn), path)
    return path


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("split_seed, in_holdout", [(1, False), (2, True)], ids=["train", "holdout"])
@pytest.mark.parametrize("column", ["x", "x-tail", "a"])
def test_simulate_overflowing_record_exits_1(tmp_path, capsys, column, split_seed, in_holdout):
    # x = 1e308 overflows every distance to record 7: in training the matrix
    # check fails; in the holdout its prefix distances do or, with only its
    # tail overflowing, its minADE score. a = 1e308 against a = -1e308 on
    # the other side of the split overflows only the distances between them
    holdout = stratified_holdout(_LINE_IDS, 0.5, split_seed)[1]
    assert (7 in holdout) == in_holdout
    partner = next(r for r in range(40) if (r in holdout) != in_holdout)

    def edit(points, dyn):
        if column == "a":
            dyn[7, 1], dyn[partner, 1] = 1e308, -1e308
        else:
            points[7, 2 if column == "x-tail" else 0 :, 0] = 1e308

    out = tmp_path / "r.csv"
    code = dispatch(
        ["simulate", "--input", str(_line_pool(tmp_path, edit)), "--holdout", "0.5"]
        + ["--split-seed", str(split_seed), "--seeds", "1", "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "must be finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["cluster", "stats"])
@pytest.mark.parametrize("column", ["x", "a"])
def test_overflowing_distances_exit_1(tmp_path, capsys, command, column):
    # x = +-1e308 overflows the point terms to inf; a = +-1e308 under
    # k_a = 0 makes the acceleration term 0 * inf = NaN
    def edit(points, dyn):
        if column == "x":
            points[3, :, 0], points[4, :, 0] = 1e308, -1e308
        else:
            dyn[3, 1], dyn[4, 1] = 1e308, -1e308

    argv = [command, "--input", str(_line_pool(tmp_path, edit)), "--weights", "0,0.025,1"]
    if command == "cluster":
        argv += ["--out", str(tmp_path / "out")]
    code = dispatch(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert "finite and >= 0" in err and "Traceback" not in err


_HEADER_ONLY_CSV = ",".join(
    ["id"] + [f"{axis}{k}" for k in range(1, 13) for axis in ("x", "y")] + ["v", "a", "h"]
)


@pytest.mark.parametrize("command", ["cluster", "sample", "simulate", "stats"])
@pytest.mark.parametrize(
    "name, text",
    [("empty.jsonl", ""), ("blank.jsonl", "\n  \n\t\n"), ("header.csv", _HEADER_ONLY_CSV + "\n")],
    ids=["jsonl-empty", "jsonl-blank-lines", "csv-header-only"],
)
def test_empty_input_names_the_file(tmp_path, capsys, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    flags = {
        "cluster": ["--out", str(tmp_path / "out")],
        "sample": ["--alpha", "0.5", "--beta", "0.5", "--budget", "1", "--out", str(tmp_path / "m.json")],
        "simulate": ["--seeds", "1", "--out", str(tmp_path / "r.csv")],
        "stats": [],
    }[command]
    code = dispatch([command, "--input", str(path)] + flags)
    err = capsys.readouterr().err
    assert code == 1
    assert str(path) in err and "no trajectory records" in err


def test_stats_command(pool_file, tmp_path, capsys):
    out = tmp_path / "stats.txt"
    code = dispatch(["stats", "--input", str(pool_file), "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "clusters: 3" in captured
    assert "familiar clusters: 1" in captured
    assert "unclustered singletons: 1" in captured
    assert out.read_text() == captured


def test_version_flag(capsys):
    assert dispatch(["--version"]) == 0
