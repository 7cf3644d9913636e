"""Each output check accepts a genuine output and rejects a corrupted one.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

Genuine outputs come from the program itself (small plans, so the file
runs in a few seconds); the corruptions are the ones a broken program
could plausibly produce: a perturbed angle, a dropped gate, a wrong t, a
shifted error value, a missing or failed sweep row.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import eigenreflect  # noqa: E402
from eigenreflect import cli, completion, gqsp, poly, testgen  # noqa: E402

DELTA, EPSILON, THETA = math.pi / 4, 0.01, 0.5  # t = 8, n = 5, degree 35


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = cli.main([
        "synth", "--delta", repr(DELTA), "--epsilon", repr(EPSILON), "--theta", repr(THETA),
        "--circuit-out", str(out / "c.json"), "--angles-out", str(out / "a.json"),
    ])
    assert code == 0
    return json.loads((out / "c.json").read_text()), json.loads((out / "a.json").read_text())


def _circuit_errors(circuit, delta=DELTA):
    return (checks.check_circuit_structure(circuit, delta, EPSILON)
            + checks.check_circuit_block(circuit, delta, EPSILON, THETA))


class TestCircuit:
    def test_genuine_circuit_passes(self, synth):
        assert _circuit_errors(synth[0]) == []

    def test_perturbed_angle_rejected(self, synth):
        bad = copy.deepcopy(synth[0])
        bad["gates"][20]["theta"] += 1e-6
        assert any("scalar simulation" in e for e in _circuit_errors(bad))

    def test_dropped_gate_rejected(self, synth):
        bad = copy.deepcopy(synth[0])
        index = next(i for i, g in enumerate(bad["gates"]) if g["g"] == "cu")
        del bad["gates"][index]
        errors = _circuit_errors(bad)
        assert any("controlled_u" in e for e in errors)
        assert any("scalar simulation" in e for e in errors)

    def test_wrong_t_rejected(self, synth):
        # the same circuit judged as the pi/3 plan (t = 6) must fail the tally
        assert checks.plan_parameters(math.pi / 3, EPSILON)[0] == 6
        assert _circuit_errors(synth[0], delta=math.pi / 3)

    def test_wrong_phase_rejected(self, synth):
        bad = copy.deepcopy(synth[0])
        for gate in bad["gates"]:
            if gate["g"] == "cu":
                gate["phase"] = 0.0
        assert _circuit_errors(bad)


class TestAngles:
    def test_genuine_angles_pass(self, synth):
        angles = synth[1]
        assert checks.check_angles_structure(angles, DELTA, EPSILON) == []
        assert checks.check_angles_accuracy(angles, DELTA, EPSILON) == []

    def test_perturbed_angle_rejected(self, synth):
        bad = copy.deepcopy(synth[1])
        bad["minus"]["phis"][7] += 1e-6
        assert checks.check_angles_accuracy(bad, DELTA, EPSILON)

    def test_dropped_angle_rejected(self, synth):
        bad = copy.deepcopy(synth[1])
        bad["plus"]["thetas"].pop()
        assert checks.check_angles_structure(bad, DELTA, EPSILON)


@pytest.fixture(scope="module")
def faulty_synth(tmp_path_factory):
    """The smallest ladder plan hit by the partner-trim fault (degree 91)."""
    delta, epsilon = math.pi / 8, 1e-3
    assert (delta, epsilon) in workloads.SYNTH_KNOWN_INACCURATE
    out = tmp_path_factory.mktemp("faulty")
    code = cli.main([
        "synth", "--delta", repr(delta), "--epsilon", repr(epsilon), "--theta", repr(THETA),
        "--circuit-out", str(out / "c.json"), "--angles-out", str(out / "a.json"),
    ])
    assert code == 0
    circuit = json.loads((out / "c.json").read_text())
    angles = json.loads((out / "a.json").read_text())
    return circuit, angles, delta, epsilon


class TestKnownFault:
    def test_fault_is_a_miss_not_an_error(self, faulty_synth):
        circuit, angles, delta, epsilon = faulty_synth
        errors, misses = checks.check_synth(circuit, angles, delta, epsilon, THETA, True)
        assert errors == [] and misses
        # judged as a plan without the fault, the same output is an error
        assert checks.check_synth(circuit, angles, delta, epsilon, THETA, False)[0]

    def test_grossly_wrong_angle_still_an_error(self, faulty_synth):
        circuit, angles, delta, epsilon = copy.deepcopy(faulty_synth)
        circuit["gates"][40]["theta"] += 1e-3
        angles["plus"]["thetas"][20] += 1e-3
        errors, _ = checks.check_synth(circuit, angles, delta, epsilon, THETA, True)
        assert any("scalar simulation" in e for e in errors)
        assert any("rebuilds the kernel" in e for e in errors)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    inst = {"delta": math.pi / 3, "epsilon": 1e-3, "theta": -1.2, "dim": 12,
            "multiplicity": 2, "seed": 5}
    out = tmp_path_factory.mktemp("verify") / "r.json"
    code = cli.main([
        "verify", "--delta", repr(inst["delta"]), "--epsilon", repr(inst["epsilon"]),
        "--theta", repr(inst["theta"]), "--dim", "12", "--multiplicity", "2", "--seed", "5",
        "--out", str(out),
    ])
    assert code == 0
    u = testgen.random_gapped_unitary(testgen.SpectrumSpec(
        dim=12, delta=inst["delta"], theta=inst["theta"], target_multiplicity=2, seed=5))
    predicted, errors = checks.spectral_prediction(
        u, inst["delta"], inst["epsilon"], inst["theta"], 2)
    assert errors == []
    return json.loads(out.read_text()), inst, predicted, u


class TestReport:
    def test_genuine_report_passes(self, report):
        data, inst, predicted, _ = report
        assert checks.check_report(data, inst, predicted) == []

    def test_shifted_error_rejected(self, report):
        data, inst, predicted, _ = report
        bad = copy.deepcopy(data)
        bad["measured_error"] += 1e-8  # 50 times the allowed gap
        assert any("spectral prediction" in e for e in checks.check_report(bad, inst, predicted))

    def test_wrong_t_rejected(self, report):
        data, inst, predicted, _ = report
        bad = copy.deepcopy(data)
        bad["params"]["t"] += 1
        assert checks.check_report(bad, inst, predicted)

    def test_wrong_counts_rejected(self, report):
        data, inst, predicted, _ = report
        bad = copy.deepcopy(data)
        bad["counts"]["controlled_u_dagger"] -= 1
        assert checks.check_report(bad, inst, predicted)

    def test_prediction_rejects_wrong_multiplicity_and_non_unitary(self, report):
        data, inst, _, u = report
        _, errors = checks.spectral_prediction(u, inst["delta"], inst["epsilon"], inst["theta"], 1)
        assert any("target eigenphases" in e for e in errors)
        _, errors = checks.spectral_prediction(
            1.001 * u, inst["delta"], inst["epsilon"], inst["theta"], 2)
        assert any("not unitary" in e for e in errors)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    inputs = {"deltas": [math.pi / 2, math.pi / 4], "epsilons": [0.1], "dims": [4],
              "seeds": [3, 8]}
    out = tmp_path_factory.mktemp("sweep") / "s.csv"
    code = cli.main([
        "sweep", "--deltas", ",".join(repr(d) for d in inputs["deltas"]), "--epsilons", "0.1",
        "--dims", "4", "--seeds", "3,8", "--csv-out", str(out),
    ])
    assert code == 0
    keys = workloads.sweep_keys(inputs)
    predicted = {}
    for delta, eps, dim, seed in keys:
        u = testgen.random_gapped_unitary(testgen.SpectrumSpec(dim=dim, delta=delta, seed=seed))
        predicted[(delta, eps, dim, seed)] = checks.spectral_prediction(u, delta, eps, 0.0, 1)[0]
    return out.read_text(), keys, predicted


def _edit_rows(text: str, edit) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows = edit(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=checks.SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


class TestSweep:
    def test_genuine_sweep_passes(self, sweep):
        text, keys, predicted = sweep
        failed, calls, errors = checks.check_sweep(text, keys, predicted)
        assert (failed, errors) == (0, [])
        assert calls == sum(2 * (checks.plan_parameters(d, e)[0] - 1)
                            * checks.plan_parameters(d, e)[1] for d, e, _, _ in keys)

    def test_missing_row_rejected(self, sweep):
        text, keys, predicted = sweep
        bad = _edit_rows(text, lambda rows: rows[1:])
        assert any("missing" in e for e in checks.check_sweep(bad, keys, predicted)[2])

    def test_unsatisfied_row_rejected(self, sweep):
        text, keys, predicted = sweep

        def unsatisfy(rows):
            rows[2]["satisfied"] = "false"
            return rows

        bad = _edit_rows(text, unsatisfy)
        assert any("not satisfied" in e for e in checks.check_sweep(bad, keys, predicted)[2])

    def test_failed_row_counted(self, sweep):
        text, keys, predicted = sweep

        def fail(rows):
            for col in ("t", "n", "degree", "measured_error", "bound", "completion_residual"):
                rows[0][col] = ""
            rows[0]["satisfied"] = "false"
            return rows

        failed, _, errors = checks.check_sweep(_edit_rows(text, fail), keys, predicted)
        assert (failed, errors) == (1, [])

    def test_wrong_t_rejected(self, sweep):
        text, keys, predicted = sweep

        def wrong_t(rows):
            rows[3]["t"] = str(int(rows[3]["t"]) + 1)
            return rows

        assert checks.check_sweep(_edit_rows(text, wrong_t), keys, predicted)[2]


@pytest.fixture(scope="module")
def pair():
    p = workloads.random_polynomial(np.random.default_rng(4), 24)
    cp = poly.ComplexPolynomial(tuple(p))
    phi = completion.factorize(completion.gram_polynomial(cp)).phi
    seq = gqsp.synthesize_angles(cp, phi)
    p_rec, q_rec = gqsp.reconstruct_polynomials(seq)

    def enc(q):
        return [[c.real, c.imag] for c in q.coeffs]

    return p, {"phi": enc(phi), "thetas": list(seq.thetas), "phis": list(seq.phis),
               "lambda": seq.lambda_final, "p_rec": enc(p_rec), "q_rec": enc(q_rec)}


class TestPair:
    def test_genuine_pair_passes(self, pair):
        assert checks.check_pair(*pair) == []

    def test_perturbed_angle_rejected(self, pair):
        p, record = pair
        bad = copy.deepcopy(record)
        bad["thetas"][5] += 1e-6
        assert any("forward product" in e for e in checks.check_pair(p, bad))

    def test_perturbed_partner_rejected(self, pair):
        p, record = pair
        bad = copy.deepcopy(record)
        bad["phi"][3][0] += 1e-8
        assert any("certified residual" in e for e in checks.check_pair(p, bad))

    def test_dropped_angle_rejected(self, pair):
        p, record = pair
        bad = copy.deepcopy(record)
        bad["thetas"].pop()
        bad["phis"].pop()
        assert checks.check_pair(p, bad)


def test_laurent_defect_is_exact():
    rng = np.random.default_rng(0)
    p = (rng.normal(size=4) + 1j * rng.normal(size=4)) / 4
    q = (rng.normal(size=3) + 1j * rng.normal(size=3)) / 4

    def frac(c):
        return Fraction(c.real), Fraction(c.imag)

    d = 3
    total = 0.0
    for k in range(-d, d + 1):
        re = im = Fraction(0)
        for poly_ in (p, q):
            for j in range(len(poly_)):
                if 0 <= j + k < len(poly_):
                    ar, ai = frac(poly_[j + k])
                    br, bi = frac(poly_[j])
                    re += ar * br + ai * bi
                    im += ai * br - ar * bi
        if k == 0:
            re -= 1
        total += math.hypot(float(re), float(im))
    assert checks.laurent_defect_l1(p, q) == pytest.approx(total, rel=1e-14)


def test_kernel_closed_form_matches_coefficients():
    t, n = 6, 4
    coeffs = checks.kernel_coefficients(t, n)
    assert coeffs.sum() == pytest.approx(1.0, abs=1e-15)
    x = np.linspace(-3.0, 3.0, 41)
    values = np.abs(np.polynomial.polynomial.polyval(np.exp(1j * x), coeffs))
    assert np.max(np.abs(values - checks.kernel_modulus(x, t, n))) < 1e-14


def test_tracer_records_nested_self_time_and_restores():
    original = completion.factorize
    tracer = tracing.Tracer()
    tracer.install(eigenreflect)
    try:
        assert completion.factorize is not original
        upsilon = poly.build_upsilon(4, 3)
        gram = completion.gram_polynomial(upsilon)
        completion.factorize(gram)
        phi = completion.factorize(gram).phi
        gqsp.synthesize_angles(upsilon, phi)
    finally:
        tracer.uninstall()
    assert completion.factorize is original
    assert eigenreflect.factorize is original
    spans = tracer.summary()
    assert spans["completion.factorize"]["calls"] == 2
    assert tracer.counters["completion.factorize.repeat_calls"] == 1
    # synthesize_angles -> completion_residual -> eval_on_circle_grid (twice)
    syn = spans["gqsp.synthesize_angles"]
    res = spans["completion.completion_residual"]
    grid = spans["poly.eval_on_circle_grid"]
    assert (syn["calls"], res["calls"], grid["calls"]) == (1, 1, 2)
    assert res["self_ms"] == pytest.approx(res["total_ms"] - grid["total_ms"])
    assert syn["self_ms"] == pytest.approx(syn["total_ms"] - res["total_ms"])
