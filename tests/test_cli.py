import json
import warnings

import numpy as np
import pytest

from trajcurate import TrajectoryPool, canonical_pool_spec, generate_synthetic_pool
from trajcurate.cli import dispatch, parse_budget, parse_weights
from trajcurate.errors import InvalidFlagValue
from trajcurate.io import sha256_file, write_trajectories
from trajcurate.states import MAX_ABS
from trajcurate.surrogate import stratified_holdout

from helpers import read_experiment_csv, read_manifest, stationary_state


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


@pytest.mark.parametrize("weights", ["-1,0,0", "nan,0,0", "1e200,0,0"])
def test_cluster_weights_out_of_range_exit_2(pool_file, tmp_path, capsys, weights):
    argv = ["cluster", "--input", str(pool_file), f"--weights={weights}", "--out", str(tmp_path)]
    code = dispatch(argv)
    assert code == 2
    assert "--weights" in capsys.readouterr().err


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
    assert int.from_bytes(dump.read_bytes()[8:16], "little") == 15


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
    assert manifest.config.seed == 7
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
    assert "--alpha" in capsys.readouterr().err


def test_sample_beta_out_of_range_before_the_input_is_read(tmp_path, capsys):
    argv = ["sample", "--input", str(tmp_path / "missing.jsonl"), "--alpha", "0.5"]
    argv += ["--beta", "0", "--budget", "4", "--out", str(tmp_path / "m.json")]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err == "error: --beta must be in (0, 1], got 0.0\n"


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
    [
        ["--tau", "-1"],
        ["--tau", "nan"],
        ["--k-modes", "0"],
        ["--holdout", "1.5"],
        ["--split-seed", "-1"],
        ["--seeds", "0"],
        ["--grid", "custom", "--alphas", ",", "--betas", "0.2", "--budgets", "0.1"],
        ["--betas", "0.4", "--grid", "default"],
        ["--alphas", "0.2,1.5", "--grid", "custom", "--betas", "0.2", "--budgets", "0.1"],
        ["--betas", "0", "--grid", "custom", "--alphas", "0.2", "--budgets", "0.1"],
        ["--pool-size", "5"],
    ],
    ids=[
        "tau-negative",
        "tau-nan",
        "k-modes-0",
        "holdout-1.5",
        "split-seed-negative",
        "seeds-0",
        "custom-grid-empty",
        "list-without-custom-grid",
        "alphas-above-1",
        "betas-0",
        "pool-size-with-input",
    ],
)
def test_simulate_bad_flag_values_exit_2(synth_file, tmp_path, capsys, flags):
    code = dispatch(
        ["simulate", "--input", str(synth_file), "--seeds", "1", "--out", str(tmp_path / "r.csv")]
        + flags
    )
    assert code == 2
    assert flags[0] in capsys.readouterr().err


def test_simulate_zero_seeds_message(synth_file, tmp_path, capsys):
    argv = ["simulate", "--input", str(synth_file), "--seeds", "0", "--out", str(tmp_path / "r.csv")]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err == "error: --seeds must be >= 1, got 0\n"


def test_sample_negative_seed_exits_2(pool_file, tmp_path, capsys):
    out = tmp_path / "m.json"
    argv = ["sample", "--input", str(pool_file), "--alpha", "0.5", "--beta", "0.4",
            "--budget", "4", "--seed", "-1", "--out", str(out)]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


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
_CSV_HEADER = ",".join(
    ["id"] + [f"{axis}{k}" for k in range(1, 13) for axis in ("x", "y")] + ["v", "a", "h"]
)


def _line_columns(edit):
    """40 records on a line in four motif groups, after ``edit(points, dyn)``."""
    points = np.zeros((40, 12, 2))
    points[..., 0] = np.arange(12.0) + 0.5 * np.arange(40)[:, None]
    dyn = np.zeros((40, 3))
    edit(points, dyn)
    return points, dyn


def _line_pool_files(tmp_path, edit):
    """The line pool after ``edit`` as raw JSONL and CSV text, so a value
    beyond the bound reaches the loaders: record r is on line r + 1 of the
    JSONL file and r + 2 of the CSV file, below its header."""
    points, dyn = _line_columns(edit)
    jsonl, csv_ = tmp_path / "pool.jsonl", tmp_path / "pool.csv"
    rows = list(zip(_LINE_IDS, points.tolist(), dyn.tolist()))
    jsonl.write_text(
        "".join(
            json.dumps({"id": id_, "points": pts, "v": v, "a": a, "h": h}) + "\n"
            for id_, pts, (v, a, h) in rows
        )
    )
    csv_lines = [_CSV_HEADER]
    for id_, pts, vah in rows:
        csv_lines.append(",".join([id_, *(repr(c) for pt in pts for c in pt), *map(repr, vah)]))
    csv_.write_text("\n".join(csv_lines) + "\n")
    return {jsonl: 1, csv_: 2}  # path -> the line of record 0


def _dispatch_warning_free(argv):
    """``dispatch(argv)``, asserting that no warning was issued on any thread."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(argv)
    assert [str(w.message) for w in caught] == []
    return code


@pytest.mark.parametrize("split_seed, in_holdout", [(1, False), (2, True)], ids=["train", "holdout"])
@pytest.mark.parametrize("column", ["x", "x-tail", "a"])
def test_simulate_overflowing_record_exits_1(tmp_path, capsys, column, split_seed, in_holdout):
    # a record beyond MAX_ABS fails at load, wherever the split would put
    # it: x = 1e308 on all of record 7's points or only its tail, or
    # a = 1e308 against a = -MAX_ABS, which passes, across the split
    holdout = stratified_holdout(_LINE_IDS, 0.5, split_seed)[1]
    assert (7 in holdout) == in_holdout
    partner = next(r for r in range(40) if (r in holdout) != in_holdout)

    def edit(points, dyn):
        if column == "a":
            dyn[7, 1], dyn[partner, 1] = 1e308, -MAX_ABS
        else:
            points[7, 2 if column == "x-tail" else 0 :, 0] = 1e308

    for pool, first_line in _line_pool_files(tmp_path, edit).items():
        out = tmp_path / "r.csv"
        code = _dispatch_warning_free(
            ["simulate", "--input", str(pool), "--holdout", "0.5"]
            + ["--split-seed", str(split_seed), "--seeds", "1", "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "NaN or beyond ±1e+150" in err and "Traceback" not in err
        assert err.count(str(pool)) == 1 and "'m3-7'" in err
        assert f": line {7 + first_line}:" in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["cluster", "stats", "sample"])
@pytest.mark.parametrize("column", ["x", "a"])
def test_overflowing_distances_exit_1(tmp_path, capsys, command, column):
    # x = +-1e308 would overflow the point terms to inf, and a = +-1e308
    # under k_a = 0 the acceleration term to 0 * inf = NaN; both records
    # fail at load instead, the first in the file reported
    def edit(points, dyn):
        if column == "x":
            points[3, :, 0], points[4, :, 0] = 1e308, -1e308
        else:
            dyn[3, 1], dyn[4, 1] = 1e308, -1e308

    for pool, first_line in _line_pool_files(tmp_path, edit).items():
        out = tmp_path / "out"
        argv = [command, "--input", str(pool), "--weights", "0,0.025,1"]
        if command != "stats":
            argv += ["--out", str(out)]
        if command == "sample":
            argv += ["--alpha", "0.5", "--beta", "0.5", "--budget", "4"]
        code = _dispatch_warning_free(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert "NaN or beyond ±1e+150" in err and "Traceback" not in err
        assert err.count(str(pool)) == 1 and "'m3-3'" in err
        assert f": line {3 + first_line}:" in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["cluster", "stats", "sample", "simulate"])
def test_pool_at_the_bound_runs_warning_free(tmp_path, capsys, command):
    # every value at +-MAX_ABS and every weight at MAX_ABS: distances reach
    # 6e300 and average merge heights above 1e300, and no stage overflows
    # or warns
    def edit(points, dyn):
        rng = np.random.default_rng(0)
        points[:] = MAX_ABS * rng.choice([-1.0, 1.0], points.shape)
        dyn[:] = MAX_ABS * rng.choice([-1.0, 1.0], dyn.shape)

    pool = tmp_path / "pool.jsonl"
    write_trajectories(TrajectoryPool.from_columns(_LINE_IDS, *_line_columns(edit)), pool)
    out = tmp_path / "out"
    argv = [command, "--input", str(pool), "--weights", "1e150,1e150,1e150"]
    argv += {
        "cluster": ["--out", str(out)],
        "stats": [],
        "sample": ["--alpha", "0.5", "--beta", "0.5", "--budget", "4", "--out", str(out)],
        "simulate": ["--holdout", "0.5", "--seeds", "1", "--out", str(out)],
    }[command]
    assert _dispatch_warning_free(argv) == 0
    if command == "cluster":
        heights = [float(line.split()[2]) for line in (out / "dendrogram.txt").open()]
        assert np.isfinite(heights).all() and 1e300 < max(heights) <= 6e300
    if command == "simulate":
        rows = read_experiment_csv(out).rows
        assert rows and np.isfinite([(r.made5, r.made10) for r in rows]).all()


@pytest.mark.parametrize("command", ["cluster", "sample", "simulate", "stats"])
@pytest.mark.parametrize(
    "name, text",
    [("empty.jsonl", ""), ("blank.jsonl", "\n  \n\t\n"), ("header.csv", _CSV_HEADER + "\n")],
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
