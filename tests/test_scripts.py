"""The scripts under scripts/ run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import matchbook

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(matchbook.__file__).parent.parent)}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_grid_sweep_runs():
    out = run_script("grid_sweep.py", "--pmax", "4", "--qmax", "4")
    assert out.returncode == 0, out.stderr
    assert "failures: 0" in out.stdout


def test_make_figures_runs(tmp_path):
    out = run_script("make_figures.py", "--out", str(tmp_path))
    assert out.returncode == 0, out.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k4_c4.svg", "k5_c3.svg", "k5e_p3.svg", "k6_c3.svg"]
