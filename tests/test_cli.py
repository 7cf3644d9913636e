"""Command-line interface: exit codes, file formats, determinism."""

import argparse
import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigenreflect
from eigenreflect import circuit, completion
from eigenreflect.circuit import MAX_DEGREE
from eigenreflect import cli
from eigenreflect.cli import (
    EXIT_BOUND_VIOLATED,
    EXIT_COMPLETION,
    EXIT_CONFIG,
    EXIT_GAP_VIOLATION,
    EXIT_OK,
    EXIT_SWEEP_ROWS_FAILED,
    EXIT_TARGET_ABSENT,
    _render_json,
    load_matrix,
    main,
    save_matrix,
)
from eigenreflect.oracle import verify_reflection
from eigenreflect.poly import GapSpec, select_parameters
from eigenreflect.testgen import SpectrumSpec, random_gapped_unitary

PI_HALF = repr(math.pi / 2)
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# a completion residual no plan reaches
UNREACHABLE_TOL = 1e-18


def child_env():
    """The environment, with the imported package's directory on PYTHONPATH."""
    package_root = str(Path(eigenreflect.__file__).resolve().parents[1])
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}


def run_plan(tmp_path, *extra):
    out = tmp_path / "plan.json"
    code = main(["plan", "--out", str(out), *extra])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def reference_render_scalar(v):
    """A plain isinstance renderer: the byte reference for cli._render_json on a scalar."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if math.isnan(f) or math.isinf(f):
            return json.dumps(str(f))
        return format(f, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot render {type(v).__name__} as JSON")


def reference_render_json(v, indent=0):
    """The byte reference for cli._render_json: one json.dumps per key, one call per value."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(v, dict):
        if not v:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {reference_render_json(val, indent + 2)}"
            for k, val in v.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        rows = [f"{inner}{reference_render_json(x, indent + 2)}" for x in v]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    return reference_render_scalar(v)


def circuit_payload(circ):
    """The circuit file as gate dicts, the payload cli._circuit_text must render as _render_json."""
    gates = [
        {"g": "rot", "theta": g.theta, "phi": g.phi, "lambda": g.lam}
        if isinstance(g, circuit.AncillaRotation)
        else {"g": "cu" if g.exponent == 1 else "cu_dag", "phase": g.phase_shift}
        for g in circ.gates
    ]
    return {"degree": circ.declared_degree, "gates": gates, "ancilla_count": 1}


# the (delta, epsilon) ladder of the synth benchmark: degrees 35 to 385
SYNTH_LADDER = [(math.pi / k, eps) for k in (4, 8, 16, 32) for eps in (1e-2, 1e-3)]
# (delta, epsilon, theta, paper formula): the ladder at theta = 0.5; phases 0 and -0 at
# theta = 0, both signs at -pi/2 and pi; the published averaging length; no gates at all
SYNTH_CASES = [
    *(pytest.param(d, e, 0.5, False, id=f"{d}-{e}") for d, e in SYNTH_LADDER),
    *(pytest.param(1.0, 0.1, x, False, id=f"theta={x}") for x in (0.0, -math.pi / 2, math.pi)),
    pytest.param(1.0, 0.1, 0.5, True, id="paper"),
    pytest.param(None, None, None, None, id="no-gates"),
]


class TestRendering:
    def test_scalar_forms(self):
        assert _render_json(True) == "true"
        assert _render_json(False) == "false"
        assert _render_json(3) == "3"
        assert _render_json(0.1) == "0.10000000000000001"
        assert _render_json(float("nan")) == '"nan"'
        assert _render_json("x") == '"x"'
        with pytest.raises(TypeError):
            _render_json(object())

    def test_float_round_trips_exactly(self):
        for x in (math.pi, 1e-300, -7.25, 0.1 + 0.2):
            assert float(_render_json(x)) == x

    def test_nested_structure_is_valid_json(self):
        doc = {"a": [1, 2.5, {"b": []}], "c": {}, "d": "s"}
        assert json.loads(_render_json(doc)) == doc

    @pytest.mark.parametrize("delta, epsilon, theta, paper", SYNTH_CASES)
    def test_synth_payloads_match_reference(self, delta, epsilon, theta, paper):
        if delta is None:
            circ, angles = circuit.CircuitIR((), 0), []
        else:
            gap = GapSpec(delta, theta=theta, epsilon=epsilon)
            syn = circuit.synthesize(gap, use_paper_t_formula=paper)
            circ, angles = syn.circuit, [cli._angles_payload(syn)]
        assert cli._circuit_text(circ) == reference_render_json(circuit_payload(circ))
        for payload in angles:
            assert _render_json(payload) == reference_render_json(payload)

    def test_report_payloads_match_reference(self):
        gap = GapSpec(1.0, theta=0.3, epsilon=0.1)
        syn = circuit.synthesize(gap, use_paper_t_formula=True)
        u = random_gapped_unitary(SpectrumSpec(dim=6, delta=1.0, theta=0.3, seed=2))
        report = cli._report_payload(verify_reflection(u, syn), "paper")
        comparison = {
            "corrected": cli._kernel_summary(gap, False),
            "paper": cli._kernel_summary(gap, True),
        }
        for payload in (report, {**report, "t_formula_comparison": comparison}):
            assert _render_json(payload) == reference_render_json(payload)

    def test_edge_payload_matches_reference(self):
        payload = {
            "empty_dict": {},
            "empty_list": [],
            "empty_tuple": (),
            "nested": [[], [{}], {"a": [1, [2.5, {"b": (True, False)}]]}],
            "specials": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308],
            "numpy": [np.float64(0.1), np.float64(np.nan), np.float32(1.5), np.int64(-7)],
            "numpy_values": {"f": np.float64(-np.inf), "i": np.int64(2**62), "g": np.float64(3.0)},
            "escapes": 'quote " backslash \\ newline \n tab \t nul \x00 e\u0301 \u2028 \U0001f600',
            7: "int key",
            2.5: "float key",
        }
        assert _render_json(payload) == reference_render_json(payload)
        for indent in (0, 2, 6):
            assert _render_json(payload, indent) == reference_render_json(payload, indent)

    @pytest.mark.parametrize(
        "bad", [None, np.bool_(True), object()], ids=["None", "np.bool_", "object"]
    )
    def test_unrenderable_values_raise(self, bad):
        for doc in (bad, [1.0, bad], {"k": bad}, {"k": [bad]}):
            with pytest.raises(TypeError):
                reference_render_json(doc)
            with pytest.raises(TypeError):
                _render_json(doc)


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


class TestFileMode:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_outputs_take_the_mode_open_gives(self, tmp_path, umask):
        gap = ["--delta", "1", "--epsilon", "0.1"]
        runs = [
            ["plan", *gap, "--out", str(tmp_path / "p.json")],
            ["synth", *gap,
             "--circuit-out", str(tmp_path / "c.json"), "--angles-out", str(tmp_path / "a.json")],
            ["verify", *gap, "--dim", "4", "--out", str(tmp_path / "r.json")],
            ["sweep", "--deltas", "1", "--epsilons", "0.1", "--dims", "4", "--seeds", "0",
             "--csv-out", str(tmp_path / "s.csv")],
        ]
        previous = os.umask(umask)
        try:
            codes = [main(args) for args in runs]
            save_matrix(str(tmp_path / "m.json"), np.eye(2))
            assert os.umask(umask) == umask  # the writes left it as they found it
        finally:
            os.umask(previous)
        assert codes == [EXIT_OK] * len(runs)
        for name in ("p.json", "c.json", "a.json", "r.json", "s.csv", "m.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask

    def test_a_write_inside_another_takes_the_umask(self, tmp_path, monkeypatch):
        # a writer that sets the process umask to read it lets a write that runs
        # in between (another thread's, say) create its file under the wrong mask
        real_umask, pending = os.umask, [str(tmp_path / "inner.json")]

        def umask_with_a_write_inside(mask):
            previous = real_umask(mask)
            if pending:
                save_matrix(pending.pop(), np.eye(2))
            return previous

        monkeypatch.setattr(os, "umask", umask_with_a_write_inside)
        previous = real_umask(0o077)
        try:
            save_matrix(str(tmp_path / "outer.json"), np.eye(2))
            if pending:  # the writer never called os.umask: the second write follows
                save_matrix(pending.pop(), np.eye(2))
            assert real_umask(0o077) == 0o077
        finally:
            real_umask(previous)
        for name in ("outer.json", "inner.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o600

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        (tmp_path / "taken").mkdir()
        code = main(["plan", "--delta", "1", "--epsilon", "0.1", "--out", str(tmp_path / "taken")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(tmp_path) == ["taken"] and os.listdir(tmp_path / "taken") == []

    def test_temp_name_taken_is_left_alone(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
        taken = tmp_path / f".eigenreflect-{bytes(8).hex()}.part"
        taken.write_text("someone else's")
        code = main(["plan", "--delta", "1", "--epsilon", "0.1", "--out", str(tmp_path / "p.json")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(tmp_path) == [taken.name]
        assert taken.read_text() == "someone else's"


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

    def test_degree_above_the_synthesis_cap_still_plans(self, tmp_path):
        code, doc = run_plan(tmp_path, "--delta", "1e-6", "--epsilon", "0.01")
        assert code == EXIT_OK
        assert doc["degree"] > MAX_DEGREE

    @pytest.mark.parametrize("epsilon, n", [("1e-310", 714), ("5e-324", 745)])
    def test_subnormal_epsilon(self, tmp_path, epsilon, n):
        # ln(1 / epsilon) would overflow: 1 / epsilon is inf
        code, doc = run_plan(tmp_path, "--delta", "1", "--epsilon", epsilon)
        assert code == EXIT_OK
        assert (doc["t"], doc["n"]) == (6, n)

    @pytest.mark.parametrize("delta", ["1e-320", "5e-324"])
    def test_overflowing_averaging_length_is_config_error(self, tmp_path, capsys, delta):
        code, doc = run_plan(tmp_path, "--delta", delta, "--epsilon", "0.1")
        assert code == EXIT_CONFIG
        assert doc is None
        err = capsys.readouterr().err
        assert f"error: delta {float(delta)!r} is too small: the averaging length overflows" in err


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

    @pytest.mark.parametrize("delta", ["1e-6", "1e-300"])
    def test_degree_above_cap_is_config_error(self, tmp_path, capsys, monkeypatch, delta):
        def refuse(*args):
            raise AssertionError("the kernel was built for a plan over the cap")

        monkeypatch.setattr(circuit, "build_upsilon", refuse)
        code, c, a = self.synth(tmp_path, "--delta", delta, "--epsilon", "0.01")
        assert code == EXIT_CONFIG
        assert not c.exists() and not a.exists()
        degree = select_parameters(GapSpec(float(delta), epsilon=0.01)).degree
        assert degree > MAX_DEGREE
        err = capsys.readouterr().err
        assert f"error: plan degree {degree} exceeds the cap of {MAX_DEGREE}" in err

    def test_degree_1547_synthesizes(self, tmp_path):
        # the kernel's top coefficient 222^-7 = 3.8e-17 keeps its place, so
        # both branches carry the plan's degree
        code, c, a = self.synth(tmp_path, "--delta", repr(math.pi / 128), "--epsilon", "1e-3")
        assert code == EXIT_OK
        assert json.loads(c.read_text())["degree"] == 1547
        angles = json.loads(a.read_text())
        for branch in ("plus", "minus"):
            assert len(angles[branch]["thetas"]) == 1548
            assert angles[branch]["degenerate_steps"] == []

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

    def test_uncapped_comparison_kernel(self, tmp_path):
        # the corrected kernel is built with no degree cap; its peak is read
        # off the circle grid, not sampled point by point
        out = tmp_path / "report.json"
        code = main([
            "verify", "--use-paper-t-formula", "--delta", "0.0021", "--epsilon", "0.1",
            "--dim", "4", "--out", str(out),
        ])
        assert code == EXIT_OK
        cmp = json.loads(out.read_text())["t_formula_comparison"]
        assert cmp["corrected"]["degree"] == 7764
        assert cmp["corrected"]["within_epsilon"] is True
        assert cmp["paper"]["degree"] == 1941
        assert cmp["paper"]["within_epsilon"] is False

    @pytest.mark.parametrize("theta", [7.0, 1e12, 1e17])
    def test_theta_beyond_half_turn_matches_its_reduction(self, tmp_path, theta):
        reduced = math.atan2(math.sin(theta), math.cos(theta))
        flags = ["verify", "--delta", "1", "--epsilon", "0.1", "--dim", "4"]
        raw, wrapped = tmp_path / "raw.json", tmp_path / "wrapped.json"
        assert main([*flags, "--theta", repr(theta), "--out", str(raw)]) == EXIT_OK
        assert main([*flags, "--theta", repr(reduced), "--out", str(wrapped)]) == EXIT_OK
        assert raw.read_bytes() == wrapped.read_bytes()

    @pytest.mark.parametrize("k, degree", [(16, 189), (64, 770)])
    def test_high_degree_block_matches_oracle(self, tmp_path, k, degree):
        # the kernel's top coefficient t^-n is 1.9e-12 at degree 189 and
        # 4.8e-15 at degree 770: the kernel and its partner must keep their
        # full degree for the angles to rebuild the kernel
        out = tmp_path / "report.json"
        code = main([
            "verify", "--delta", repr(math.pi / k), "--epsilon", "1e-3",
            "--dim", "16", "--seed", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["params"]["degree"] == degree
        assert doc["bound_satisfied"] is True
        assert doc["oracle_block_residual"] <= 1e-8

    def test_dim_256(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "verify", "--delta", PI_HALF, "--epsilon", "1e-3",
            "--dim", "256", "--seed", "2", "--out", str(out),
        ])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["params"]["degree"] == 21
        assert doc["bound_satisfied"] is True
        assert doc["oracle_block_residual"] <= 1e-8

    def test_reruns_are_byte_identical(self, tmp_path):
        flags = [
            "--delta", repr(math.pi / 3), "--epsilon", "1e-2", "--theta", "0.8",
            "--dim", "24", "--multiplicity", "3", "--seed", "4",
        ]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["verify", *flags, "--out", str(first)]) == EXIT_OK
        assert main(["verify", *flags, "--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_unreachable_completion_tolerance(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(completion, "DEFAULT_COMPLETION_TOL", UNREACHABLE_TOL)
        out = tmp_path / "r.json"
        code = main([
            "verify", "--dim", "4", "--delta", PI_HALF, "--epsilon", "0.01", "--out", str(out),
        ])
        assert code == EXIT_COMPLETION
        assert capsys.readouterr().err.startswith("error: completion failed: ")
        assert not out.exists()

    def test_gap_violation_exit_code(self, tmp_path, capsys):
        m = tmp_path / "u.json"
        save_matrix(str(m), np.diag([1.0, 1.0, np.exp(1j * math.pi / 4)]))
        code = main([
            "verify", "--matrix", str(m), "--delta", PI_HALF,
            "--epsilon", "0.1", "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_GAP_VIOLATION
        assert "gap arc" in capsys.readouterr().err

    @pytest.mark.parametrize("offset", [math.pi / 4, math.pi / 2 - 1e-6, -math.pi / 2 + 1e-6])
    def test_planted_gap_violation_exit_code(self, tmp_path, capsys, offset):
        # one eigenvalue at the gap pole theta + delta / 2, just inside
        # theta + delta, and just inside theta - delta
        theta = 0.7
        phases = theta + np.array([0.0, offset, math.pi, 2.0, -2.0, 2.6])
        q, _ = np.linalg.qr(np.random.default_rng(4).normal(size=(6, 6)) + 0j)
        m = tmp_path / "u.json"
        save_matrix(str(m), (q * np.exp(1j * phases)) @ q.conj().T)
        code = main([
            "verify", "--matrix", str(m), "--delta", PI_HALF, "--theta", repr(theta),
            "--epsilon", "0.1", "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_GAP_VIOLATION
        assert not (tmp_path / "r.json").exists()
        assert "gap arc" in capsys.readouterr().err

    def test_target_absent_exit_code(self, tmp_path):
        m = tmp_path / "u.json"
        save_matrix(str(m), np.diag([np.exp(2j), np.exp(-2j)]))
        code = main([
            "verify", "--matrix", str(m), "--delta", "1.0",
            "--epsilon", "0.1", "--out", str(tmp_path / "r.json"),
        ])
        assert code == EXIT_TARGET_ABSENT

    def test_degree_above_cap_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "verify", "--dim", "4", "--delta", "1e-6", "--epsilon", "0.01",
            "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"error: plan degree 27182815 exceeds the cap of {MAX_DEGREE}" in err

    def test_dim_above_cap_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "verify", "--delta", "1", "--epsilon", "0.1", "--dim", "100000000000",
            "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: --dim must be at most {cli.MAX_DIM}, got 100000000000\n"

    def test_dim_above_cap_in_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 1.0, "epsilon": 0.1, "dim": 100000000000}))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: --dim must be at most {cli.MAX_DIM}, got 100000000000\n"

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "verify", "--delta", "1", "--epsilon", "0.1", "--dim", "4", "--seed", "-1",
            "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"

    def test_negative_seed_in_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 1.0, "epsilon": 0.1, "dim": 4, "seed": -1}))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"

    def test_zero_dim_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", "--delta", "1", "--epsilon", "0.1", "--dim", "0", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == "error: --dim must be at least 1, got 0\n"

    def test_zero_multiplicity_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "verify", "--delta", "1", "--epsilon", "0.1", "--dim", "4", "--multiplicity", "0",
            "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == "error: --multiplicity must be at least 1, got 0\n"

    def test_multiplicity_above_dim_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "verify", "--delta", "1", "--epsilon", "0.1", "--dim", "4", "--multiplicity", "5",
            "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: --multiplicity must be at most --dim (4), got 5\n"

    def test_dim_at_cap_is_accepted(self):
        args = cli._build_parser().parse_args([
            "verify", "--delta", "1", "--epsilon", "0.1", "--dim", str(cli.MAX_DIM),
        ])
        assert cli._config_from_args(args).dim == cli.MAX_DIM

    def test_matrix_and_dim_conflict(self, tmp_path):
        m = tmp_path / "u.json"
        save_matrix(str(m), np.eye(2, dtype=complex))
        code = main([
            "verify", "--matrix", str(m), "--dim", "4", "--delta", "1.0",
            "--epsilon", "0.1",
        ])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flag, value", [("--multiplicity", "2"), ("--seed", "5")])
    def test_generator_flag_with_matrix_is_config_error(self, tmp_path, capsys, flag, value):
        m = tmp_path / "u.json"
        save_matrix(str(m), np.diag([1.0, -1.0]).astype(complex))
        out = tmp_path / "report.json"
        args = ["verify", "--matrix", str(m), "--delta", "1", "--epsilon", "0.1"]
        args += ["--out", str(out)]
        assert main(args) == EXIT_OK
        out.unlink()
        assert main(args + [flag, value]) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: {flag} applies only to a generated instance (--dim)\n"

    def test_generator_key_with_matrix_in_config_is_config_error(self, tmp_path, capsys):
        m = tmp_path / "u.json"
        save_matrix(str(m), np.diag([1.0, -1.0]).astype(complex))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 1.0, "epsilon": 0.1, "matrix": str(m), "seed": 0}))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: --seed applies only to a generated instance (--dim)\n"

    def test_no_input_source(self):
        code = main(["verify", "--delta", "1.0", "--epsilon", "0.1"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "content, problem",
        [
            ("[1, 2]", "expected a JSON object with an integer 'dim'"),
            ('{"dim": null, "re": [[1]], "im": [[0]]}', "with an integer 'dim'"),
            ('{"re": [[1]], "im": [[0]]}', "with an integer 'dim'"),
            ('{"dim": 1.5, "re": [[1]], "im": [[0]]}', "with an integer 'dim'"),
            ('{"dim": true, "re": [[1]], "im": [[0]]}', "with an integer 'dim'"),
            ('{"dim": 1, "re": [[NaN]], "im": [[0]]}', "entries must be finite"),
            ('{"dim": 1, "re": [[1]], "im": [[Infinity]]}', "entries must be finite"),
            ('{"dim": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}', "must be 2 x 2 numbers"),
            ('{"dim": 1, "re": [[1]]}', "must be 1 x 1 numbers"),
        ],
        ids=["list", "null-dim", "no-dim", "float-dim", "bool-dim", "nan", "inf", "ragged", "no-im"],
    )
    def test_malformed_matrix_file_is_config_error(self, tmp_path, capsys, content, problem):
        m = tmp_path / "u.json"
        m.write_text(content)
        code = main(["verify", "--matrix", str(m), "--delta", "1.0", "--epsilon", "0.1"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: matrix file {str(m)!r}: ")
        assert problem in err

    @pytest.mark.parametrize(
        "content",
        [
            '{"dim": 1, "re": [[true]], "im": [[false]]}',
            '{"dim": 1, "re": [["1"]], "im": [[0]]}',
            '{"dim": 2, "re": [[1, 0], [0, true]], "im": [[0, 0], [0, 0]]}',
        ],
        ids=["bools", "string", "one-bool"],
    )
    def test_matrix_entry_that_is_not_a_number(self, tmp_path, capsys, content):
        # numpy would read each of these as a float
        m, out = tmp_path / "u.json", tmp_path / "r.json"
        m.write_text(content)
        dim = json.loads(content)["dim"]
        code = main([
            "verify", "--matrix", str(m), "--delta", "1.0", "--epsilon", "0.1", "--out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: matrix file {str(m)!r}: 're' and 'im' must be {dim} x {dim} numbers\n"
        )
        assert not out.exists()

    def test_matrix_of_json_integers(self, tmp_path):
        m, out = tmp_path / "u.json", tmp_path / "r.json"
        m.write_text('{"dim": 1, "re": [[1]], "im": [[0]]}')
        code = main([
            "verify", "--matrix", str(m), "--delta", "1.0", "--epsilon", "0.1", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["target_multiplicity"] == 1

    @pytest.mark.parametrize("content", [b"x", b'{"dim": 1,', b"\xff\xfe"])
    def test_matrix_file_that_is_not_json(self, tmp_path, capsys, content):
        m = tmp_path / "bad.json"
        m.write_bytes(content)
        code = main(["verify", "--matrix", str(m), "--delta", "1.0", "--epsilon", "0.1"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: matrix file {str(m)!r} is not valid JSON: ")

    def test_missing_matrix_file(self, tmp_path):
        code = main([
            "verify", "--matrix", str(tmp_path / "absent.json"),
            "--delta", "1.0", "--epsilon", "0.1",
        ])
        assert code == EXIT_CONFIG

    def test_oversample_is_an_unknown_flag(self, tmp_path, capsys):
        # the comparison reads its peaks off the circle grid rule (poly._grid_size)
        out = tmp_path / "report.json"
        args = ["verify", "--dim", "4", "--delta", "1", "--epsilon", "0.1", "--out", str(out)]
        for extra in ([], ["--use-paper-t-formula"]):
            with pytest.raises(SystemExit) as exc:
                main(args + extra + ["--oversample", "64"])
            assert exc.value.code == EXIT_CONFIG
            assert "unrecognized arguments: --oversample 64" in capsys.readouterr().err
        assert not out.exists()

    def test_oversample_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "report.json"
        cfg.write_text(json.dumps({"delta": 1.0, "epsilon": 0.1, "dim": 4, "oversample": 32}))
        for extra in ([], ["--use-paper-t-formula"]):
            assert main(["verify", "--config", str(cfg), "--out", str(out), *extra]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err == f"error: config file {str(cfg)!r} has unknown key 'oversample'\n"
        assert not out.exists()


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

    GRID = {"deltas": "0.5", "epsilons": "0.1", "dims": "4", "seeds": "0"}

    @pytest.mark.parametrize("axis", list(GRID))
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_axis_is_refused(self, tmp_path, capsys, source, axis):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--csv-out", str(out)]
        for flag, value in self.GRID.items():
            if flag != axis:
                args += [f"--{flag}", value]
        if source == "flag":
            args += [f"--{axis}", ""]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({axis: []}))
            args += ["--config", str(cfg)]
        assert main(args) == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == f"error: sweep needs a nonempty --{axis}\n"

    def test_bare_sweep_is_refused(self, capsys):
        assert main(["sweep", "--csv-out", "-"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sweep needs a nonempty --deltas\n"

    def test_theta_beyond_half_turn(self, tmp_path):
        code, rows, _ = self.run_sweep(
            tmp_path, deltas="1", epsilons="0.1", dims="4,16", seeds="0,1", theta="1e12"
        )
        assert code == EXIT_OK
        assert len(rows) == 4
        assert all(r["satisfied"] == "true" for r in rows)

    def test_failed_row_exit_code(self, tmp_path, capsys):
        code, rows, text = self.run_sweep(
            tmp_path, deltas="0.5,1e-6", epsilons="0.1", dims="4", seeds="0"
        )
        assert code == EXIT_SWEEP_ROWS_FAILED
        assert text.splitlines()[0] == (
            "delta,epsilon,dim,seed,t,n,degree,measured_error,bound,"
            "satisfied,completion_residual,wall_time_ms"
        )
        good, bad = rows
        assert good["satisfied"] == "true"
        assert bad["delta"] == "9.9999999999999995e-07"
        assert bad["measured_error"] == "" and bad["satisfied"] == "false"
        err = capsys.readouterr().err
        assert "sweep: delta=1e-06 epsilon=0.1 dim=4 seed=0 failed: plan degree" in err
        assert "1 row(s) failed to run" in err

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"deltas": "0.5,4", "epsilons": "0.1"}, "delta must lie in (0, pi], got 4.0"),
            ({"deltas": "0.5", "epsilons": "0.1,2"}, "epsilon must lie in (0, 1), got 2.0"),
        ],
        ids=["delta", "epsilon"],
    )
    def test_out_of_range_grid_value_is_config_error(self, tmp_path, capsys, grid, message):
        # refused before any row runs, as plan and verify refuse it
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--dims", "4", "--seeds", "0", "--csv-out", str(out)]
        for flag, value in grid.items():
            args += [f"--{flag}", value]
        assert main(args) == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unreachable_completion_tolerance_fails_rows(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(completion, "DEFAULT_COMPLETION_TOL", UNREACHABLE_TOL)
        code, rows, _ = self.run_sweep(tmp_path, deltas="1", epsilons="0.1", dims="4", seeds="0,1")
        assert code == EXIT_SWEEP_ROWS_FAILED
        assert [r["measured_error"] for r in rows] == ["", ""]
        err = capsys.readouterr().err
        assert err.count("failed: residual ") == 2
        assert "2 row(s) failed to run" in err

    def test_degree_above_cap_fails_its_row(self, tmp_path, capsys):
        code, rows, _ = self.run_sweep(
            tmp_path, deltas="0.5,1e-6", epsilons="0.1", dims="4", seeds="0"
        )
        assert code == EXIT_SWEEP_ROWS_FAILED
        good, capped = rows
        assert good["satisfied"] == "true"
        assert capped["degree"] == "" and capped["measured_error"] == ""
        err = capsys.readouterr().err
        assert f"plan degree 16309689 exceeds the cap of {MAX_DEGREE}" in err
        assert "1 row(s) failed to run" in err

    def test_dims_above_cap_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--deltas", "1.0", "--epsilons", "0.1", "--dims", "4,100000000000",
            "--seeds", "0", "--csv-out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"error: --dims must be at most {cli.MAX_DIM}, got 100000000000\n"

    def test_negative_seed_is_config_error_before_any_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--deltas", "1.0", "--epsilons", "0.1", "--dims", "4",
            "--seeds", "0,-1", "--csv-out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == "error: --seeds must be at least 0, got -1\n"

    def test_zero_dims_is_config_error_before_any_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--deltas", "1.0", "--epsilons", "0.1", "--dims", "4,0",
            "--seeds", "0", "--csv-out", str(out),
        ])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err == "error: --dims must be at least 1, got 0\n"

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

    def test_wall_time_is_the_stack_share_in_three_decimals(self, tmp_path):
        _, rows, _ = self.run_sweep(
            tmp_path, deltas="1.0,0.5", epsilons="0.1", dims="4,6", seeds="0,1,2"
        )
        assert all(re.fullmatch(r"\d+\.\d{3}", r["wall_time_ms"]) for r in rows)
        for i in range(0, len(rows), 3):  # the three seeds of a (delta, epsilon, dim), one stack
            assert len({r["wall_time_ms"] for r in rows[i : i + 3]}) == 1

    def test_a_non_unitary_instance_fails_only_its_row(self, tmp_path, capsys, monkeypatch):
        grids = {"deltas": "1.0", "epsilons": "0.1", "dims": "4", "seeds": "0,1,2"}
        _, clean, _ = self.run_sweep(tmp_path, name="clean.csv", **grids)
        capsys.readouterr()
        real = cli.random_gapped_unitary
        monkeypatch.setattr(
            cli, "random_gapped_unitary", lambda spec: real(spec) * (2.0 if spec.seed == 1 else 1.0)
        )
        code, rows, _ = self.run_sweep(tmp_path, **grids)
        assert code == EXIT_SWEEP_ROWS_FAILED
        assert capsys.readouterr().err == (
            "sweep: delta=1 epsilon=0.1 dim=4 seed=1 failed: matrix is not unitary "
            "(defect 3.000e+00)\n"
            "sweep: 1 row(s) failed to run\n"
        )
        for row in clean + rows:
            row.pop("wall_time_ms")
        empty = dict.fromkeys(["measured_error", "bound", "completion_residual"], "")
        assert rows == [clean[0], {**clean[1], **empty, "satisfied": "false"}, clean[2]]

    def test_dims_from_128_verify_one_seed_at_a_time(self, tmp_path, monkeypatch):
        shapes = []
        real = cli.verify_stack
        monkeypatch.setattr(
            cli, "verify_stack", lambda us, syn: shapes.append(us.shape) or real(us, syn)
        )
        code, _, _ = self.run_sweep(
            tmp_path, deltas=repr(math.pi / 2), epsilons="0.1", dims="4,64,128", seeds="0,1,2,3,4"
        )
        assert code == EXIT_OK
        assert shapes == [(5, 4, 4), (4, 64, 64), (1, 64, 64)] + [(1, 128, 128)] * 5

    def test_deterministic_apart_from_timing(self, tmp_path):
        grids = {"deltas": "1.0", "epsilons": "0.01,0.1", "dims": "6", "seeds": "1,2"}
        _, rows_a, _ = self.run_sweep(tmp_path, name="a.csv", **grids)
        _, rows_b, _ = self.run_sweep(tmp_path, name="b.csv", **grids)
        for a, b in zip(rows_a, rows_b):
            a.pop("wall_time_ms")
            b.pop("wall_time_ms")
            assert a == b


class TestNumericBoundary:
    DOCUMENTED = {
        EXIT_OK, EXIT_BOUND_VIOLATED, EXIT_CONFIG, EXIT_COMPLETION,
        EXIT_GAP_VIOLATION, EXIT_TARGET_ABSENT, EXIT_SWEEP_ROWS_FAILED,
    }

    @pytest.mark.parametrize("subcommand", ["plan", "synth", "verify", "sweep"])
    @pytest.mark.parametrize("theta", ["0", "1.7976931348623157e308"])
    @pytest.mark.parametrize("delta", ["1.0", "1e-300"])
    @pytest.mark.parametrize("epsilon", ["5e-324", "1e-310"])
    def test_extreme_inputs_end_in_an_exit_code(self, tmp_path, epsilon, delta, theta, subcommand):
        # subnormal budgets, a vanishing gap and the largest finite phase
        out = str(tmp_path / "out")
        args = {
            "plan": ["--out", out],
            "synth": ["--circuit-out", out, "--angles-out", out + ".angles"],
            "verify": ["--dim", "1", "--out", out],
        }
        if subcommand == "sweep":
            argv = [
                "sweep", "--deltas", delta, "--epsilons", epsilon, "--dims", "1",
                "--seeds", "0", "--theta", theta, "--csv-out", out,
            ]
        else:
            argv = [
                subcommand, "--delta", delta, "--epsilon", epsilon, "--theta", theta,
                *args[subcommand],
            ]
        assert main(argv) in self.DOCUMENTED


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

    def test_non_object_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "arr.json"
        cfg.write_text("[1, 2]")
        code, _ = run_plan(tmp_path, "--config", str(cfg))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: config file {str(cfg)!r} must hold a JSON object\n"

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            ("plan", {"delta": [0.5], "epsilon": 0.1}, "delta"),
            ("plan", {"delta": 0.5, "epsilon": 0.1, "theta": None}, "theta"),
            ("plan", {"delta": 0.5, "epsilon": 0.1, "multiplicity": "many"}, "multiplicity"),
            ("sweep", {"deltas": "0.5", "epsilons": "0.1", "dims": 4, "seeds": "0"}, "dims"),
            ("sweep", {"deltas": "0.5", "epsilons": "0.1", "dims": "4", "seeds": [None]}, "seeds"),
            ("verify", {"delta": 1.0, "epsilon": 0.1, "dim": {"n": 4}}, "dim"),
            ("verify", {"delta": 1.0, "epsilon": 0.1, "dim": 4, "out": ["r.json"]}, "out"),
            ("verify", {"delta": 1.0, "epsilon": 0.1, "dim": 4.9}, "dim"),
            ("verify", {"delta": 1.0, "epsilon": 0.1, "dim": 4, "seed": 1.7}, "seed"),
            ("verify", {"delta": 1.0, "epsilon": 0.1, "dim": 4, "multiplicity": 1.5},
             "multiplicity"),
            ("verify", {"delta": 1.0, "epsilon": 0.1, "dim": True}, "dim"),
            ("verify", {"delta": 1.0, "epsilon": 0.1, "dim": math.inf}, "dim"),
            ("plan", {"delta": 1.0, "epsilon": 0.1, "multiplicity": 32.5}, "multiplicity"),
            ("plan", {"delta": 1.0, "epsilon": 0.1, "multiplicity": False}, "multiplicity"),
            ("sweep", {"deltas": [1.0], "epsilons": [0.1], "dims": [4.9], "seeds": [0]}, "dims"),
            ("sweep", {"deltas": [1.0], "epsilons": [0.1], "dims": [4], "seeds": [True]}, "seeds"),
            ("plan", {"delta": 10**400, "epsilon": 0.1}, "delta"),
        ]
        + [
            ("plan", {"delta": 1.0, "epsilon": 0.1, "use_paper_t_formula": value},
             "use_paper_t_formula")
            for value in ("false", "true", 0, 1, None, [True])
        ]
        + [
            ("plan", {"delta": True, "epsilon": 0.1}, "delta"),
            ("plan", {"delta": 1.0, "epsilon": True}, "epsilon"),
            ("plan", {"delta": 1.0, "epsilon": "small"}, "epsilon"),
            ("plan", {"delta": 1.0, "epsilon": 0.1, "theta": False}, "theta"),
            ("synth", {"delta": 1.0, "epsilon": 0.1, "theta": True}, "theta"),
            ("synth", {"delta": 1.0, "epsilon": 0.1, "theta": [1e-10]}, "theta"),
            ("verify", {"delta": 1.0, "epsilon": 0.1, "matrix": ["u.json"]}, "matrix"),
            ("synth", {"delta": 1.0, "epsilon": 0.1, "circuit_out": ["c.json"]}, "circuit_out"),
            ("synth", {"delta": 1.0, "epsilon": 0.1, "angles_out": 7}, "angles_out"),
            ("sweep", {"deltas": [1.0], "epsilons": [0.1], "dims": [4], "seeds": [0],
                       "csv_out": {"path": "s.csv"}}, "csv_out"),
            ("sweep", {"deltas": [True], "epsilons": [0.1], "dims": [4], "seeds": [0]}, "deltas"),
            ("sweep", {"deltas": 0.5, "epsilons": [0.1], "dims": [4], "seeds": [0]}, "deltas"),
            ("sweep", {"deltas": [1.0], "epsilons": [True], "dims": [4], "seeds": [0]},
             "epsilons"),
            ("sweep", {"deltas": [1.0], "epsilons": "0.1,x", "dims": [4], "seeds": [0]},
             "epsilons"),
        ],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, command, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: invalid value for {key!r}: ")
        assert captured.out == ""

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        # a misspelt key would otherwise leave its option at the default unnoticed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 1.0, "epsilon": 0.1, "oversampel": 64}))
        code, _ = run_plan(tmp_path, "--config", str(cfg))
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: config file {str(cfg)!r} has unknown key 'oversampel'\n"
        assert captured.out == ""

    def test_completion_tol_key_is_unknown(self, tmp_path, capsys):
        # the completion has one tolerance, completion.DEFAULT_COMPLETION_TOL
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 1.0, "epsilon": 0.1, "completion_tol": 1e-8}))
        c, a = tmp_path / "c.json", tmp_path / "a.json"
        code = main([
            "synth", "--config", str(cfg), "--circuit-out", str(c), "--angles-out", str(a),
        ])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: config file {str(cfg)!r} has unknown key 'completion_tol'\n"
        )
        assert not c.exists() and not a.exists()

    def test_key_of_another_subcommand_is_known(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": math.pi / 2, "epsilon": 0.5, "dims": [4]}))
        code, doc = run_plan(tmp_path, "--config", str(cfg))
        assert code == EXIT_OK
        assert (doc["t"], doc["n"]) == (4, 1)

    def test_missing_config_rejected(self, tmp_path):
        code, _ = run_plan(tmp_path, "--config", str(tmp_path / "none.json"))
        assert code == EXIT_CONFIG

    def test_config_file_that_is_not_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("x")
        code, _ = run_plan(tmp_path, "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: config file {str(cfg)!r} is not valid JSON: "
            "Expecting value: line 1 column 1 (char 0)\n"
        )

    @pytest.mark.parametrize("value, formula", [(True, "paper"), (False, "corrected")])
    def test_boolean_formula_switch(self, tmp_path, value, formula):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 1.0, "epsilon": 0.1, "use_paper_t_formula": value}))
        code, doc = run_plan(tmp_path, "--config", str(cfg))
        assert code == EXIT_OK
        assert doc["t_formula"] == formula

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 1.0, "epsilon": 0.1, "dim": 4.0, "seed": 1.0}))
        from_config, from_flags = tmp_path / "config.json", tmp_path / "flags.json"
        assert main(["verify", "--config", str(cfg), "--out", str(from_config)]) == EXIT_OK
        flags = ["--delta", "1.0", "--epsilon", "0.1", "--dim", "4", "--seed", "1"]
        assert main(["verify", *flags, "--out", str(from_flags)]) == EXIT_OK
        assert from_config.read_bytes() == from_flags.read_bytes()


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        assert cli._build_parser() is cli._build_parser()
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--delta", "1.0", "--no-such-flag"])
        assert exc.value.code == 2
        assert "--no-such-flag" in capsys.readouterr().err
        c, a = tmp_path / "c.json", tmp_path / "a.json"
        assert main(["synth", "--delta", PI_HALF, "--epsilon", "0.1",
                     "--circuit-out", str(c), "--angles-out", str(a)]) == EXIT_OK
        code, doc = run_plan(tmp_path, "--delta", PI_HALF, "--epsilon", "0.5")
        assert code == EXIT_OK
        assert (doc["t"], doc["n"], doc["t_formula"]) == (4, 1, "corrected")
        assert json.loads(c.read_text())["degree"] == 9
        assert not (tmp_path / "circuit.json").exists()


    def test_flag_set_of_each_subcommand(self):
        (subcommands,) = [
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        shared = {"--config", "--theta", "--use-paper-t-formula"}
        gap = {"--delta", "--epsilon"}
        flags = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in subcommands.choices.items()
        }
        assert flags == {
            "plan": shared | gap | {"--out"},
            "synth": shared | gap | {"--circuit-out", "--angles-out"},
            "verify": shared | gap | {"--matrix", "--dim", "--multiplicity", "--seed", "--out"},
            "sweep": shared | {"--deltas", "--epsilons", "--dims", "--seeds", "--csv-out"},
        }
        assert sum(map(len, flags.values())) == 31

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--delta", "0.5", "--epsilon", "0.1", "--oversample", "64"],
            ["plan", "--delta", "0.5", "--epsilon", "0.1", "--completion-tol", "1e-8"],
            ["synth", "--delta", "0.5", "--epsilon", "0.1", "--oversample", "64"],
            ["sweep", "--delta", "1", "--epsilon", "0.1", "--dims", "4", "--seeds", "0",
             "--csv-out", "-"],
            ["sweep", "--deltas", "1", "--epsilons", "0.1", "--dims", "4", "--seeds", "0",
             "--oversample", "64", "--csv-out", "-"],
            ["synth", "--delta", "0.5", "--epsilon", "0.1", "--completion-tol", "1e-8"],
            ["verify", "--delta", "0.5", "--epsilon", "0.1", "--dim", "4",
             "--completion-tol", "1e-8", "--out", "-"],
            ["sweep", "--deltas", "1", "--epsilons", "0.1", "--dims", "4", "--seeds", "0",
             "--completion-tol", "1e-8", "--csv-out", "-"],
        ],
        ids=["plan-oversample", "plan-completion-tol", "synth-oversample", "sweep-delta",
             "sweep-oversample", "synth-completion-tol", "verify-completion-tol",
             "sweep-completion-tol"],
    )
    def test_flag_the_subcommand_does_not_read_is_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    def test_malformed_flag_is_config_error(self, capsys):
        assert main(["plan", "--delta", "abc", "--epsilon", "0.1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: invalid value for 'delta': 'abc'\n"


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "plan.json"
        proc = subprocess.run(
            [sys.executable, "-m", "eigenreflect", "plan", "--delta", PI_HALF,
             "--epsilon", "0.1", "--out", str(out)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["degree"] == 9

    def test_cli_import_leaves_scipy_and_numpy_polynomial_unloaded(self, tmp_path):
        # the program runs on numpy alone and samples the circle by FFT:
        # importing the cli, and a verify and a sweep run through it, load
        # no scipy module and no numpy.polynomial one
        script = (
            "import sys\n"
            "from eigenreflect.cli import main\n"
            "assert 'scipy' not in sys.modules\n"
            "flags = ['--delta', '1.0', '--epsilon', '0.1']\n"
            "assert main(['verify', '--dim', '4', '--out', sys.argv[1], *flags]) == 0\n"
            "assert main(['sweep', '--deltas', '1.0', '--epsilons', '0.1', '--dims', '4',\n"
            "             '--seeds', '0', '--csv-out', sys.argv[2]]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('numpy.polynomial'))\n"
            "assert not loaded, loaded\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script,
             str(tmp_path / "report.json"), str(tmp_path / "sweep.csv")],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "report.json").read_text())["bound_satisfied"]

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
        proc = subprocess.run(
            [sys.executable, str(script), "--help"],
            capture_output=True, text=True, env=child_env(),
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
