"""Synthetic gapped-instance generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenreflect.oracle import decompose, validate_gap
from eigenreflect.poly import GapSpec
from eigenreflect.testgen import GAP_MARGIN_FRACTION, SpectrumSpec, random_gapped_unitary


class TestSpectrumSpec:
    def test_defaults(self):
        spec = SpectrumSpec(dim=4, delta=0.5)
        assert spec.theta == 0.0
        assert spec.target_multiplicity == 1
        assert spec.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0, "delta": 0.5},
            {"dim": 4, "delta": 0.0},
            {"dim": 4, "delta": math.nextafter(math.pi, 4.0)},
            {"dim": 4, "delta": 0.5, "target_multiplicity": 0},
            {"dim": 4, "delta": 0.5, "target_multiplicity": 5},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SpectrumSpec(**kwargs)

    @pytest.mark.parametrize("theta", [7.0, -7.0, 1e17])
    def test_theta_beyond_half_turn_is_reduced(self, theta):
        spec = SpectrumSpec(dim=4, delta=1.0, theta=theta)
        assert spec.theta == math.atan2(math.sin(theta), math.cos(theta))
        assert -math.pi <= spec.theta <= math.pi

    @pytest.mark.parametrize("theta", [0.3, math.pi, -math.pi])
    def test_theta_within_half_turn_is_kept(self, theta):
        assert SpectrumSpec(dim=4, delta=1.0, theta=theta).theta == theta

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError, match=f"theta must be finite, got {theta!r}"):
            SpectrumSpec(dim=4, delta=1.0, theta=theta)

    def test_huge_theta_keeps_the_gap(self):
        # offsets added to an unreduced 1e17 vanish against its ulp of 16
        spec = SpectrumSpec(dim=4, delta=1.0, theta=1e17, seed=0)
        s = decompose(random_gapped_unitary(spec))
        assert validate_gap(s, GapSpec(delta=1.0, theta=1e17)) == 1


class TestRandomGappedUnitary:
    def test_single_phase_instance_is_a_scalar(self):
        u = random_gapped_unitary(SpectrumSpec(dim=1, delta=1.0, theta=0.7))
        assert u.shape == (1, 1)
        assert u[0, 0] == pytest.approx(np.exp(0.7j), abs=1e-15)

    def test_equal_seeds_are_bit_identical(self):
        spec = SpectrumSpec(dim=8, delta=0.9, target_multiplicity=2, seed=42)
        a = random_gapped_unitary(spec)
        b = random_gapped_unitary(spec)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = random_gapped_unitary(SpectrumSpec(dim=8, delta=0.9, seed=1))
        b = random_gapped_unitary(SpectrumSpec(dim=8, delta=0.9, seed=2))
        assert not np.allclose(a, b)

    def test_output_is_unitary(self):
        u = random_gapped_unitary(SpectrumSpec(dim=16, delta=0.4, seed=10))
        assert np.linalg.norm(u.conj().T @ u - np.eye(16), 2) <= 1e-12

    def test_gap_margin_is_honored(self):
        spec = SpectrumSpec(dim=12, delta=1.2, theta=0.3, seed=11)
        s = decompose(random_gapped_unitary(spec))
        dist = np.abs(np.angle(np.exp(1j * (s.eigenphases - spec.theta))))
        bystanders = dist[dist > 1e-9]
        assert bystanders.size == 11
        assert np.min(bystanders) >= (1.0 + GAP_MARGIN_FRACTION) * spec.delta - 1e-12

    def test_validates_at_requested_multiplicity(self):
        spec = SpectrumSpec(dim=8, delta=0.7, target_multiplicity=3, seed=5)
        s = decompose(random_gapped_unitary(spec))
        assert validate_gap(s, GapSpec(0.7, epsilon=0.1)) == 3

    def test_wide_gap_with_bystanders_rejected(self):
        for delta in (3.1, math.pi):
            with pytest.raises(ValueError, match="no room"):
                random_gapped_unitary(SpectrumSpec(dim=4, delta=delta, seed=0))

    def test_wide_gap_without_bystanders_is_fine(self):
        for delta in (3.1, math.pi):
            spec = SpectrumSpec(dim=3, delta=delta, target_multiplicity=3, seed=0)
            u = random_gapped_unitary(spec)
            assert np.linalg.norm(u - np.eye(3), 2) <= 1e-12
        single = random_gapped_unitary(SpectrumSpec(dim=1, delta=math.pi, theta=0.7))
        assert single[0, 0] == pytest.approx(np.exp(0.7j), abs=1e-15)

    @given(
        dim=st.integers(1, 12),
        delta=st.floats(0.1, 2.0),
        seed=st.integers(0, 1000),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_specs_yield_valid_instances(self, dim, delta, seed, data):
        mult = data.draw(st.integers(1, dim))
        spec = SpectrumSpec(
            dim=dim, delta=delta, target_multiplicity=mult, seed=seed
        )
        u = random_gapped_unitary(spec)
        s = decompose(u)
        assert validate_gap(s, GapSpec(delta, epsilon=0.1)) == mult
