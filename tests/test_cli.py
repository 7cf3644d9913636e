"""Command-line interface: exit codes, file formats, determinism."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigenreflect
from eigenreflect.cli import (
    EXIT_BOUND_VIOLATED,
    EXIT_COMPLETION,
    EXIT_CONFIG,
    EXIT_GAP_VIOLATION,
    EXIT_OK,
    EXIT_SWEEP_ROWS_FAILED,
    EXIT_TARGET_ABSENT,
    _render_json,
    _render_scalar,
    load_matrix,
    main,
    save_matrix,
)

PI_HALF = repr(math.pi / 2)
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_plan(tmp_path, *extra):
    out = tmp_path / "plan.json"
    code = main(["plan", "--out", str(out), *extra])
    return code, (json.loads(out.read_text()) if out.exists() else None)


class TestRendering:
    def test_scalar_forms(self):
        assert _render_scalar(True) == "true"
        assert _render_scalar(False) == "false"
        assert _render_scalar(3) == "3"
        assert _render_scalar(0.1) == "0.10000000000000001"
        assert _render_scalar(float("nan")) == '"nan"'
        assert _render_scalar("x") == '"x"'
        with pytest.raises(TypeError):
            _render_scalar(object())

    def test_float_round_trips_exactly(self):
        for x in (math.pi, 1e-300, -7.25, 0.1 + 0.2):
            assert float(_render_scalar(x)) == x

    def test_nested_structure_is_valid_json(self):
        doc = {"a": [1, 2.5, {"b": []}], "c": {}, "d": "s"}
        assert json.loads(_render_json(doc)) == doc


class TestMatrixIO:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        u = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        path = tmp_path / "m.json"
        save_matrix(str(path), u)
        assert np.array_equal(load_matrix(str(path)), u)
        doc = json.loads(path.read_text())
        assert doc["dim"] == 5
        # row-major nested lists, one inner list per row
        assert len(doc["re"]) == 5 and all(len(row) == 5 for row in doc["re"])
        assert len(doc["im"]) == 5 and all(len(row) == 5 for row in doc["im"])


class TestPlan:
    def test_reference_point(self, tmp_path):
        code, doc = run_plan(tmp_path, "--delta", PI_HALF, "--epsilon", "0.1")
        assert code == EXIT_OK
        assert (doc["t"], doc["n"], doc["degree"]) == (4, 3, 9)
        assert doc["counts"] == {
            "controlled_u": 9,
            "controlled_u_dagger": 9,
            "single_qubit_rotations": 20,
            "total": 38,
        }
        assert doc["t_formula"] == "corrected"

    def test_widest_gap(self, tmp_path):
        code, doc = run_plan(tmp_path, "--delta", "3.14159265", "--epsilon", "0.5")
        assert code == EXIT_OK
        assert (doc["t"], doc["n"], doc["degree"]) == (3, 1, 2)

    def test_published_formula(self, tmp_path):
        code, doc = run_plan(
            tmp_path, "--delta", PI_HALF, "--epsilon", "0.5",
            "--use-paper-t-formula",
        )
        assert code == EXIT_OK
        assert doc["t"] == 1
        assert doc["degree"] == 0
        assert doc["counts"]["total"] == 2
        assert doc["t_formula"] == "paper"

    def test_stdout_default(self, capsys):
        assert main(["plan", "--delta", PI_HALF, "--epsilon", "0.1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["degree"] == 9

    def test_zero_delta_is_config_error(self, tmp_path, capsys):
        code, _ = run_plan(tmp_path, "--delta", "0", "--epsilon", "0.1")
        assert code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_missing_epsilon_is_config_error(self, tmp_path):
        code, _ = run_plan(tmp_path, "--delta", "1.0")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
    def test_non_finite_theta_is_config_error(self, tmp_path, capsys, theta):
        code, doc = run_plan(
            tmp_path, "--delta", "0.5", "--epsilon", "0.1", f"--theta={theta}"
        )
        assert code == EXIT_CONFIG
        assert doc is None
        assert f"error: --theta must be finite, got {float(theta)!r}" in capsys.readouterr().err


class TestSynth:
    def synth(self, tmp_path, *extra):
        c = tmp_path / "circuit.json"
        a = tmp_path / "angles.json"
        code = main(
            ["synth", "--circuit-out", str(c), "--angles-out", str(a), *extra]
        )
        return code, c, a

    def test_reference_circuit(self, tmp_path):
        code, c, a = self.synth(tmp_path, "--delta", PI_HALF, "--epsilon", "0.1")
        assert code == EXIT_OK
        circ = json.loads(c.read_text())
        assert circ["degree"] == 9
        assert circ["ancilla_count"] == 1
        kinds = [g["g"] for g in circ["gates"]]
        assert kinds.count("cu") == 9
        assert kinds.count("cu_dag") == 9
        assert kinds.count("rot") == 20
        angles = json.loads(a.read_text())
        assert angles["degree"] == 9
        assert len(angles["plus"]["thetas"]) == 10
        assert len(angles["minus"]["phis"]) == 10
        assert "convention" in angles

    def test_reruns_are_byte_identical(self, tmp_path):
        _, c, a = self.synth(tmp_path, "--delta", "0.9", "--epsilon", "0.01")
        first = (c.read_bytes(), a.read_bytes())
        _, c, a = self.synth(tmp_path, "--delta", "0.9", "--epsilon", "0.01")
        assert (c.read_bytes(), a.read_bytes()) == first

    def test_degree_zero_circuit_has_two_rotations(self, tmp_path):
        code, c, _ = self.synth(
            tmp_path, "--delta", PI_HALF, "--epsilon", "0.5",
            "--use-paper-t-formula",
        )
        assert code == EXIT_OK
        circ = json.loads(c.read_text())
        assert [g["g"] for g in circ["gates"]] == ["rot", "rot"]

    def test_default_output_names(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--delta", "1.2", "--epsilon", "0.1"]) == EXIT_OK
        assert (tmp_path / "circuit.json").exists()
        assert (tmp_path / "angles.json").exists()

    def test_no_partial_files_left_behind(self, tmp_path):
        self.synth(tmp_path, "--delta", "1.0", "--epsilon", "0.1")
        assert not list(tmp_path.glob("*.part"))


class TestVerify:
    def test_identity_matrix(self, tmp_path):
        m = tmp_path / "u.json"
        save_matrix(str(m), np.eye(8, dtype=complex))
        out = tmp_path / "report.json"
        code = main([
            "verify", "--matrix", str(m), "--delta", PI_HALF,
            "--epsilon", "0.1", "--out", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["measured_error"] <= 1e-10
        assert doc["bound"] == pytest.approx(0.4)
        assert doc["bound_satisfied"] is True
        assert doc["counts"] == doc["predicted_counts"]
        assert doc["target_multiplicity"] == 8

    def test_generated_instance(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "verify", "--dim", "16", "--multiplicity", "3", "--seed", "7",
            "--delta", PI_HALF, "--epsilon", "0.01", "--out", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["bound_satisfied"] is True
        assert doc["counts"] == doc["predicted_counts"]
        assert doc["target_multiplicity"] == 3
        assert doc["completion_residual"] <= 1e-10
        assert doc["params"]["degree"] == 15

    def test_published_formula_violates_bound(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "verify", "--dim", "4", "--seed", "0", "--delta", PI_HALF,
            "--epsilon", "0.001", "--use-paper-t-formula", "--out", str(out),
        ])
        assert code == EXIT_BOUND_VIOLATED
        doc = json.loads(out.read_text())
        assert doc["bound_satisfied"] is False
        cmp = doc["t_formula_comparison"]
        assert cmp["corrected"]["within_epsilon"] is True
        assert cmp["paper"]["within_epsilon"] is False
        assert cmp["paper"]["max_modulus_outside_gap"] == pytest.approx(1.0)
        assert cmp["corrected"]["degree"] > cmp["paper"]["degree"]

    def test_degree_189_block_matches_oracle(self, tmp_path):
        # the plan's kernel top coefficient is 1.9e-12: the partner must
        # keep its full degree for the angles to rebuild the kernel
        out = tmp_path / "report.json"
        code = main([
            "verify", "--delta", repr(math.pi / 16), "--epsilon", "1e-3",
            "--dim", "16", "--seed", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["params"]["degree"] == 189
        assert doc["oracle_block_residual"] <= 1e-8

    def test_unreachable_completion_tolerance(self, tmp_path):
        code = main([
            "verify", "--dim", "4", "--delta", PI_HALF, "--epsilon", "0.01",
            "--completion-tol", "1e-18", "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_COMPLETION

    def test_gap_violation_exit_code(self, tmp_path, capsys):
        m = tmp_path / "u.json"
        save_matrix(str(m), np.diag([1.0, 1.0, np.exp(1j * math.pi / 4)]))
        code = main([
            "verify", "--matrix", str(m), "--delta", PI_HALF,
            "--epsilon", "0.1", "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_GAP_VIOLATION
        assert "gap arc" in capsys.readouterr().err

    def test_target_absent_exit_code(self, tmp_path):
        m = tmp_path / "u.json"
        save_matrix(str(m), np.diag([np.exp(2j), np.exp(-2j)]))
        code = main([
            "verify", "--matrix", str(m), "--delta", "1.0",
            "--epsilon", "0.1", "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_TARGET_ABSENT

    def test_matrix_and_dim_conflict(self, tmp_path):
        m = tmp_path / "u.json"
        save_matrix(str(m), np.eye(2, dtype=complex))
        code = main([
            "verify", "--matrix", str(m), "--dim", "4", "--delta", "1.0",
            "--epsilon", "0.1",
        ])
        assert code == EXIT_CONFIG

    def test_no_input_source(self):
        code = main(["verify", "--delta", "1.0", "--epsilon", "0.1"])
        assert code == EXIT_CONFIG

    def test_missing_matrix_file(self, tmp_path):
        code = main([
            "verify", "--matrix", str(tmp_path / "absent.json"),
            "--delta", "1.0", "--epsilon", "0.1",
        ])
        assert code == EXIT_CONFIG


class TestSweep:
    def run_sweep(self, tmp_path, name="sweep.csv", **grids):
        out = tmp_path / name
        args = ["sweep", "--csv-out", str(out)]
        for flag, value in grids.items():
            args += [f"--{flag}", value]
        code = main(args)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return code, rows, out.read_text()

    def test_small_grid(self, tmp_path):
        code, rows, _ = self.run_sweep(
            tmp_path,
            deltas=f"{math.pi / 2!r},{math.pi / 4!r}",
            epsilons="0.01",
            dims="4,8",
            seeds="3",
        )
        assert code == EXIT_OK
        assert len(rows) == 4
        assert all(r["satisfied"] == "true" for r in rows)
        assert {r["dim"] for r in rows} == {"4", "8"}
        for r in rows:
            assert float(r["measured_error"]) <= float(r["bound"])
            assert float(r["completion_residual"]) <= 1e-10
            assert float(r["wall_time_ms"]) >= 0.0
            assert int(r["degree"]) == (int(r["t"]) - 1) * int(r["n"])

    def test_empty_grid_emits_header_only(self, tmp_path):
        code, rows, text = self.run_sweep(
            tmp_path, deltas="", epsilons="0.1", dims="4", seeds="0"
        )
        assert code == EXIT_OK
        assert rows == []
        assert text.splitlines() == [
            "delta,epsilon,dim,seed,t,n,degree,measured_error,bound,"
            "satisfied,completion_residual,wall_time_ms"
        ]

    def test_failed_row_exit_code(self, tmp_path, capsys):
        code, rows, text = self.run_sweep(
            tmp_path, deltas="0.5,4", epsilons="0.1", dims="4", seeds="0"
        )
        assert code == EXIT_SWEEP_ROWS_FAILED
        assert text.splitlines()[0] == (
            "delta,epsilon,dim,seed,t,n,degree,measured_error,bound,"
            "satisfied,completion_residual,wall_time_ms"
        )
        good, bad = rows
        assert good["satisfied"] == "true"
        assert bad["delta"] == "4"
        assert bad["measured_error"] == "" and bad["satisfied"] == "false"
        err = capsys.readouterr().err
        assert "delta must lie in (0, pi], got 4.0" in err
        assert "1 row(s) failed to run" in err

    def test_bound_violation_exit_code(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--deltas", PI_HALF, "--epsilons", "0.001", "--dims", "4",
            "--seeds", "0", "--use-paper-t-formula", "--csv-out", str(out),
        ])
        assert code == EXIT_BOUND_VIOLATED
        with open(out, newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert row["satisfied"] == "false" and row["measured_error"] != ""

    def test_non_finite_theta_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--deltas", "0.5", "--epsilons", "0.1", "--dims", "4",
            "--seeds", "0", "--theta", "nan", "--csv-out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "error: --theta must be finite, got nan" in capsys.readouterr().err

    def test_theta_reaches_the_rows(self, tmp_path):
        code, (row,), _ = self.run_sweep(
            tmp_path, deltas="1.0", epsilons="0.1", dims="4", seeds="0", theta="0.5"
        )
        assert code == EXIT_OK
        out = tmp_path / "report.json"
        assert main([
            "verify", "--delta", "1.0", "--epsilon", "0.1", "--theta", "0.5",
            "--dim", "4", "--seed", "0", "--out", str(out),
        ]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert row["measured_error"] == format(doc["measured_error"], ".17g")
        assert row["completion_residual"] == format(doc["completion_residual"], ".17g")

    def test_deterministic_apart_from_timing(self, tmp_path):
        grids = {"deltas": "1.0", "epsilons": "0.01,0.1", "dims": "6", "seeds": "1,2"}
        _, rows_a, _ = self.run_sweep(tmp_path, name="a.csv", **grids)
        _, rows_b, _ = self.run_sweep(tmp_path, name="b.csv", **grids)
        for a, b in zip(rows_a, rows_b):
            a.pop("wall_time_ms")
            b.pop("wall_time_ms")
            assert a == b


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": math.pi / 2, "epsilon": 0.5}))
        code, doc = run_plan(tmp_path, "--config", str(cfg))
        assert code == EXIT_OK
        assert (doc["t"], doc["n"]) == (4, 1)

    def test_explicit_flag_wins(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": math.pi / 2, "epsilon": 0.5}))
        code, doc = run_plan(tmp_path, "--config", str(cfg), "--epsilon", "0.1")
        assert code == EXIT_OK
        assert (doc["t"], doc["n"]) == (4, 3)

    def test_non_object_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _ = run_plan(tmp_path, "--config", str(cfg))
        assert code == EXIT_CONFIG

    def test_missing_config_rejected(self, tmp_path):
        code, _ = run_plan(tmp_path, "--config", str(tmp_path / "none.json"))
        assert code == EXIT_CONFIG


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "plan.json"
        proc = subprocess.run(
            [sys.executable, "-m", "eigenreflect", "plan", "--delta", PI_HALF,
             "--epsilon", "0.1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["degree"] == 9

    def test_cli_import_leaves_scipy_unloaded(self):
        # scipy serves only the eigendecomposition; plan and synth never need it
        package_root = str(Path(eigenreflect.__file__).resolve().parents[1])
        pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, eigenreflect.cli; assert 'scipy' not in sys.modules"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_console_script(self, tmp_path):
        # Run the script declared in pyproject.toml through the wrapper an
        # installer would generate for it, so no install is needed.  The
        # child imports the same package this suite imported.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        with PYPROJECT.open("rb") as fh:
            spec = tomllib.load(fh)["project"]["scripts"]["eigenreflect"]
        module, _, func = spec.partition(":")
        script = tmp_path / "eigenreflect"
        script.write_text(
            f"import sys\nfrom {module} import {func}\nsys.exit({func}())\n"
        )
        package_root = str(Path(eigenreflect.__file__).resolve().parents[1])
        pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
        proc = subprocess.run(
            [sys.executable, str(script), "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "plan" in proc.stdout and "sweep" in proc.stdout

    @pytest.mark.skipif(
        shutil.which("eigenreflect") is None,
        reason="eigenreflect is not installed on PATH",
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            ["eigenreflect", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "plan" in proc.stdout and "sweep" in proc.stdout
