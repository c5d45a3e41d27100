import subprocess
import sys
from pathlib import Path

import pytest

RECOVERY = Path(__file__).resolve().parent.parent / "scripts" / "planted_recovery.py"


def run_recovery(*argv):
    return subprocess.run([sys.executable, str(RECOVERY), *argv],
                          capture_output=True, text=True)


@pytest.mark.parametrize("argv", [
    ["--deltas", "0"], ["--deltas", "x"], ["--deltas", "1,,inf"], ["--deltas", "1.5"],
    ["--planted-size", "1"], ["--nodes", "1"], ["--runs", "0"],
    ["--background-weight-cap", "nan"],
], ids=" ".join)
def test_recovery_bad_option_is_usage_error(argv):
    proc = run_recovery("--runs", "1", *argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "usage:" in proc.stderr
    assert proc.stdout == ""


def test_recovery_sweep_runs():
    proc = run_recovery("--runs", "2", "--deltas", "1,INF")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert [row.split()[:2] for row in rows] == [
        ["1", "conceptual"], ["1", "per-hop"], ["inf", "conceptual"], ["inf", "per-hop"]]
