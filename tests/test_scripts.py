"""The scripts under scripts/, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import eigenreflect
from eigenreflect.cli import EXIT_SWEEP_ROWS_FAILED

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, **env_overrides):
    env = {**os.environ, **env_overrides}
    src = str(Path(eigenreflect.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestRunSweep:
    def test_failed_row_is_reported_and_exits_nonzero(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_script(
            "run_sweep.py", "--deltas", "0.5,1e-6", "--epsilons", "0.1",
            "--dims", "4", "--seeds", "0", "--csv-out", str(out),
        )
        assert proc.returncode == EXIT_SWEEP_ROWS_FAILED
        assert "Traceback" not in proc.stderr
        assert "failed to run: 1" in proc.stdout
        failed = "failed row: delta=9.9999999999999995e-07, epsilon=0.10000000000000001, dim=4"
        assert failed + ", seed=0" in proc.stdout
        assert "worst error/bound ratio" in proc.stdout
        assert out.exists()

    def test_clean_grid_exits_zero(self):
        proc = run_script(
            "run_sweep.py", "--deltas", "1.0", "--epsilons", "0.1",
            "--dims", "4", "--seeds", "0",
        )
        assert proc.returncode == 0, proc.stderr
        assert "rows: 1   failed to run: 0   bound violations: 0" in proc.stdout

    def test_no_temporary_files_left_behind(self, tmp_path):
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        proc = run_script(
            "run_sweep.py", "--deltas", "1.0", "--epsilons", "0.1",
            "--dims", "4", "--seeds", "0", TMPDIR=str(tmpdir),
        )
        assert proc.returncode == 0, proc.stderr
        assert list(tmpdir.iterdir()) == []


class TestDiscrepancyExperiment:
    def test_default_grid_exits_zero(self):
        proc = run_script("discrepancy_experiment.py")
        assert proc.returncode == 0, proc.stderr
        assert "literal formula misses the budget on 12 of 12 grid points" in proc.stdout

    @pytest.mark.parametrize("flag, value, message", [
        ("--deltas", "4", "delta must lie in (0, pi], got 4.0"),
        ("--epsilons", "abc", "--epsilons holds a value that is not a number: 'abc'"),
        ("--deltas", "0.001", "plan degree 16308 exceeds the cap of 4096"),
        # a 302-digit degree; its leading digits name it
        ("--deltas", "1e-300", "plan degree 16309690970754271396"),
        ("--deltas", "1e-320", "delta 1e-320 is too small: the averaging length overflows"),
        # a subnormal budget plans n = 714 without overflowing
        ("--epsilons", "1e-310", "plan degree 4998 exceeds the cap of 4096"),
    ])
    def test_bad_grid_value_exits_two(self, flag, value, message):
        proc = run_script("discrepancy_experiment.py", flag, value)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"error: {message}" in proc.stderr

    def test_empty_grid_exits_two(self):
        proc = run_script("discrepancy_experiment.py", "--deltas", "")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "error: --deltas needs at least one value" in proc.stderr
