"""The scripts under scripts/, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

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
            "run_sweep.py", "--deltas", "0.5,4", "--epsilons", "0.1",
            "--dims", "4", "--seeds", "0", "--csv-out", str(out),
        )
        assert proc.returncode == EXIT_SWEEP_ROWS_FAILED
        assert "Traceback" not in proc.stderr
        assert "failed to run: 1" in proc.stdout
        assert "failed row: delta=4, epsilon=0.10000000000000001, dim=4, seed=0" in proc.stdout
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
