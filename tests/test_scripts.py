import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(script, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True
    )


def test_phase_transition_script_runs(tmp_path):
    out = tmp_path / "rows.csv"
    proc = run(
        "run_phase_transition.py",
        "--pool-size",
        "200",
        "--seeds",
        "2",
        "--alphas",
        "0,1",
        "--budgets",
        "0.1,0.4",
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "best alpha per budget" in proc.stdout
    assert len(out.read_text().splitlines()) == 1 + 2 * 2 * 2 * 2

