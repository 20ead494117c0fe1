"""Fuzzed inputs: mutated trajectory records.

Whatever a mutation does to a valid file, loading it either succeeds or
raises a ``CurationError``, and the CLI exits 0, 1 or 2 without a
traceback; a file it cannot load makes it exit 1 or 2 with an error that
names the file.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from trajcurate import TrajectoryPool
from trajcurate.cli import dispatch
from trajcurate.errors import CurationError
from trajcurate.io import load_trajectories, write_trajectories

from helpers import stationary_state

FUZZ = settings(max_examples=120, deadline=None)

_POOL = TrajectoryPool(
    (stationary_state("a", 0.0), stationary_state("b", 0.5, v=3.0), stationary_state("c", 40.0)),
    frozenset({"b"}),
)


def _valid_bytes(suffix: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pool" + suffix)
        write_trajectories(_POOL, path)
        with open(path, "rb") as fh:
            return fh.read()


_VALID = {suffix: _valid_bytes(suffix) for suffix in (".jsonl", ".csv")}

# small edits to one line: replace, insert or delete a span of text
_line_edit = st.tuples(
    st.integers(0, 10_000),  # line
    st.integers(0, 10_000),  # position
    st.integers(0, 8),  # characters removed
    st.text(max_size=8)
    | st.sampled_from(['"', ",", "[", "]", "{", "}", "true", "null", "1e999", "-", "nan", ":", "\n"]),
)
# raw byte edits anywhere in the file, which may break its UTF-8
_byte_edit = st.tuples(st.integers(0, 10_000), st.binary(min_size=1, max_size=4))


def _edit_line(data: bytes, edit) -> bytes:
    line, pos, cut, text = edit
    lines = data.decode("utf-8").split("\n")
    k = line % len(lines)
    s = lines[k]
    p = pos % (len(s) + 1)
    lines[k] = s[:p] + text + s[p + cut :]
    return "\n".join(lines).encode("utf-8")


def _edit_bytes(data: bytes, edit) -> bytes:
    pos, blob = edit
    p = pos % (len(data) + 1)
    return data[:p] + blob + data[p + len(blob) :]


def _check_trajectory_file(suffix: str, data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pool" + suffix)
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            load_trajectories(path)
            loaded = True
        except CurationError:
            loaded = False
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = dispatch(["stats", "--input", path])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if not loaded:
            assert code in (1, 2)
            assert path in err.getvalue()


@FUZZ
@given(suffix=st.sampled_from([".jsonl", ".csv"]), edits=st.lists(_line_edit, min_size=1, max_size=3))
def test_mutated_record_lines(suffix, edits):
    data = _VALID[suffix]
    for edit in edits:
        data = _edit_line(data, edit)
    _check_trajectory_file(suffix, data)


@FUZZ
@given(suffix=st.sampled_from([".jsonl", ".csv"]), edit=_byte_edit)
def test_mutated_record_bytes(suffix, edit):
    _check_trajectory_file(suffix, _edit_bytes(_VALID[suffix], edit))

