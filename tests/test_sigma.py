"""Sigma-point generation, propagation, and recombination tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmm import Gaussian, ProcessNoise, NO_NOISE
from hgmm.errors import DimensionMismatchError
from hgmm.sigma import (
    RecombinationWeights,
    default_lambda,
    generate_sigma_points,
    propagate_points,
    recombine,
)


class TestGeneration:
    def test_unit_case_with_noise(self):
        g = Gaussian(np.zeros(1), np.eye(1))
        noise = ProcessNoise(np.eye(1))
        s = generate_sigma_points(g, noise, lam=1.0)
        assert s.count == 5
        assert s.gamma == pytest.approx(math.sqrt(3.0))
        assert np.allclose(s.state_points[:, 0], [0.0, math.sqrt(3), -math.sqrt(3), 0.0, 0.0])
        assert np.allclose(s.noise_points[:, 0], [0.0, 0.0, 0.0, math.sqrt(3), -math.sqrt(3)])

    def test_two_state_one_noise_offsets(self):
        g = Gaussian(np.array([1.0, 2.0]), np.diag([4.0, 1.0]))
        s = generate_sigma_points(g, ProcessNoise(np.eye(1)), lam=0.0)
        assert s.count == 7
        assert s.gamma == pytest.approx(math.sqrt(3.0))
        # First state axis spreads +/- 2*sqrt(3), second +/- sqrt(3).
        assert np.allclose(s.state_points[1], [1.0 + 2 * math.sqrt(3), 2.0])
        assert np.allclose(s.state_points[3], [1.0 - 2 * math.sqrt(3), 2.0])
        assert np.allclose(s.state_points[2], [1.0, 2.0 + math.sqrt(3)])
        assert np.allclose(s.state_points[4], [1.0, 2.0 - math.sqrt(3)])

    def test_default_lambda(self):
        assert default_lambda(1, 0) == 2.0
        assert default_lambda(4, 2) == -3.0

    def test_central_covariance_weight(self):
        w = RecombinationWeights.for_dims(2, 1, 0.0)
        assert w.cov_weights[0] == pytest.approx(2.0)
        assert w.mean_weights[0] == pytest.approx(0.0)
        assert w.mean_weights[1:] == pytest.approx(np.full(6, 1.0 / 6.0))


class TestPropagation:
    def test_identity_map(self):
        g = Gaussian(np.array([1.0, -1.0]), np.diag([1.0, 2.0]))
        s = generate_sigma_points(g, NO_NOISE)
        out = propagate_points(s, None, lambda a, xs, vs: xs)
        assert np.allclose(out, s.state_points)

    def test_linear_map_columnwise(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 1))
        g = Gaussian(rng.normal(size=2), np.diag([1.0, 0.5]))
        s = generate_sigma_points(g, ProcessNoise(np.array([[0.3]])))
        rowwise = lambda al, xs, vs: np.array([a @ x + b @ v for x, v in zip(xs, vs)])
        out = propagate_points(s, None, rowwise)
        expected = s.state_points @ a.T + s.noise_points @ b.T
        assert np.allclose(out, expected)

    def test_wrong_output_shape_raises(self):
        s = generate_sigma_points(Gaussian(np.zeros(2), np.eye(2)), ProcessNoise(np.eye(1)))
        with pytest.raises(DimensionMismatchError):
            propagate_points(s, None, lambda al, xs, vs: xs[:, :1])
        with pytest.raises(DimensionMismatchError):
            propagate_points(s, None, lambda al, xs, vs: xs[:-1])


class TestRecombination:
    def test_identical_points_give_zero_covariance(self):
        w = RecombinationWeights.for_dims(1, 0, 2.0)
        pts = np.full((3, 1), 4.2)
        g = recombine(pts, w)
        assert g.mean[0] == pytest.approx(4.2)
        assert abs(g.cov[0, 0]) < 1e-15

    def test_unpropagated_roundtrip(self, rng, random_spd):
        g = Gaussian(rng.normal(size=3), random_spd(rng, 3))
        s = generate_sigma_points(g, NO_NOISE)
        back = recombine(s.state_points, s.weights())
        assert np.allclose(back.mean, g.mean, atol=1e-9)
        assert np.allclose(back.cov, g.cov, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000))
    def test_roundtrip_property(self, n, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        cov = q @ np.diag(rng.uniform(0.2, 3.0, n)) @ q.T
        g = Gaussian(rng.normal(size=n), 0.5 * (cov + cov.T))
        s = generate_sigma_points(g, NO_NOISE)
        back = recombine(s.state_points, s.weights())
        assert np.allclose(back.mean, g.mean, atol=1e-9)
        assert np.allclose(back.cov, g.cov, atol=1e-8)

    def test_linear_propagation_matches_analytic(self, rng):
        a = np.array([[0.9, 0.1], [-0.2, 1.1]])
        b = np.array([[0.5], [0.25]])
        cov_v = np.array([[0.09]])
        g = Gaussian(np.array([1.0, 2.0]), np.diag([0.5, 1.5]))
        s = generate_sigma_points(g, ProcessNoise(cov_v))
        out = propagate_points(s, None, lambda al, xs, vs: xs @ a.T + vs @ b.T)
        got = recombine(out, s.weights())
        assert np.allclose(got.mean, a @ g.mean, atol=1e-9)
        assert np.allclose(got.cov, a @ g.cov @ a.T + b @ cov_v @ b.T, atol=1e-8)

    def test_lambda_bound_enforced(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            generate_sigma_points(g, NO_NOISE, lam=-2.0)
