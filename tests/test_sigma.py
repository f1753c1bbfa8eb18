"""Sigma-point generation, propagation, and recombination tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmm import Gaussian, ProcessNoise, NO_NOISE
from hgmm.core import matrix_sqrt, symmetrize
from hgmm.errors import DimensionMismatchError
from hgmm.sigma import (
    _weights,
    default_lambda,
    generate_sigma_points,
    propagate_points,
    recombine,
)


def _weights_at(n_x, n_v, lam):
    """The recombination weights of a 2 (n_x + n_v) + 1 point set at ``lam``, spelled out."""
    n = n_x + n_v
    wm = np.full(1 + 2 * n, 1.0 / (2.0 * (lam + n)))
    wm[0] = lam / (lam + n)
    wc = wm.copy()
    wc[0] = lam / (lam + n) + 2.0
    return wm, wc


class TestGeneration:
    def test_unit_case_with_noise(self):
        g = Gaussian(np.zeros(1), np.eye(1))
        noise = ProcessNoise(np.eye(1))
        s = generate_sigma_points(g, noise)
        assert s.count == 5
        assert np.allclose(s.state_points[:, 0], [0.0, math.sqrt(3), -math.sqrt(3), 0.0, 0.0])
        assert np.allclose(s.noise_points[:, 0], [0.0, 0.0, 0.0, math.sqrt(3), -math.sqrt(3)])

    def test_two_state_one_noise_offsets(self):
        g = Gaussian(np.array([1.0, 2.0]), np.diag([4.0, 1.0]))
        s = generate_sigma_points(g, ProcessNoise(np.eye(1)))
        assert s.count == 7
        # First state axis spreads +/- 2*sqrt(3), second +/- sqrt(3).
        assert np.allclose(s.state_points[1], [1.0 + 2 * math.sqrt(3), 2.0])
        assert np.allclose(s.state_points[3], [1.0 - 2 * math.sqrt(3), 2.0])
        assert np.allclose(s.state_points[2], [1.0, 2.0 + math.sqrt(3)])
        assert np.allclose(s.state_points[4], [1.0, 2.0 - math.sqrt(3)])

    def test_default_lambda(self):
        assert default_lambda(1, 0) == 2.0
        assert default_lambda(4, 2) == -3.0

    def test_central_covariance_weight(self):
        wm, wc = _weights(3)
        assert wc[0] == pytest.approx(2.0)
        assert wm[0] == pytest.approx(0.0)
        assert wm[1:] == pytest.approx(np.full(6, 1.0 / 6.0))

    @pytest.mark.parametrize("n_x, n_v", [(1, 0), (1, 1), (2, 1), (3, 0), (4, 2), (6, 6)])
    def test_weights_are_the_default_lambda_formula(self, n_x, n_v):
        wm, wc = _weights(n_x + n_v)
        want_wm, want_wc = _weights_at(n_x, n_v, default_lambda(n_x, n_v))
        assert np.array_equal(wm, want_wm) and np.array_equal(wc, want_wc)

    def test_weights_are_built_once_and_read_only(self):
        first = _weights(6)
        again = _weights(6)
        assert again is first
        for array in first:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    @pytest.mark.parametrize("n_x, n_v", [(1, 0), (1, 1), (2, 1), (4, 2), (5, 7)])
    def test_points_spread_sqrt_three_factor_columns(self, rng, random_spd, n_x, n_v):
        # lambda = 3 - n for every n, so gamma = sqrt(n + lambda) = sqrt(3) exactly.
        g = Gaussian(rng.normal(size=n_x), random_spd(rng, n_x))
        noise = ProcessNoise(random_spd(rng, n_v)) if n_v else NO_NOISE
        s = generate_sigma_points(g, noise)
        state = np.sqrt(3.0) * matrix_sqrt(g.cov).T
        assert np.array_equal(s.state_points[1 : 1 + n_x], g.mean + state)
        assert np.array_equal(s.state_points[1 + n_x : 1 + 2 * n_x], g.mean - state)
        spread = np.sqrt(3.0) * noise.sqrt.T
        assert np.array_equal(s.noise_points[1 + 2 * n_x :], np.vstack([spread, -spread]))

    def test_state_points_are_one_c_contiguous_array(self, rng, random_spd):
        # recombine and the affine fit round by layout, so the set's is fixed.
        noise = ProcessNoise(np.diag([0.25, 0.01]))
        for m in (1, 3):
            means = rng.normal(size=(m, 4))
            covs = np.stack([random_spd(rng, 4) for _ in range(m)])
            s = generate_sigma_points((means, covs), noise)
            assert s.state_points.flags.c_contiguous and s.state_points.shape == (m, 13, 4)
            for i in range(m):
                one = generate_sigma_points(Gaussian(means[i], covs[i]), noise)
                assert one.state_points.flags.c_contiguous
                assert np.array_equal(one.state_points, s.state_points[i])

    def test_noise_rows_are_built_once_and_read_only(self):
        noise = ProcessNoise(np.diag([0.25, 0.01]))
        g = Gaussian(np.zeros(4), np.eye(4))
        first = generate_sigma_points(g, noise)
        again = generate_sigma_points(g, noise)
        assert np.shares_memory(first.noise_points, again.noise_points)
        assert not again.noise_points.flags.writeable
        spread = np.sqrt(3.0) * noise.sqrt.T
        assert np.array_equal(again.noise_points,
                              np.vstack([np.zeros((9, 2)), spread, -spread]))


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
        pts = np.full((3, 1), 4.2)
        g = recombine(pts)
        assert g.mean[0] == pytest.approx(4.2)
        assert abs(g.cov[0, 0]) < 1e-15

    @pytest.mark.parametrize("count", [2, 4, 8])
    def test_even_point_count_rejected(self, count):
        with pytest.raises(DimensionMismatchError):
            recombine(np.zeros((count, 2)))
        with pytest.raises(DimensionMismatchError):
            recombine(np.zeros((3, count, 2)))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 12), m=st.integers(1, 4), rank=st.integers(0, 12),
           scale=st.sampled_from([1e-6, 1.0, 1e3]), seed=st.integers(0, 10_000))
    def test_standard_weights_give_psd_without_clipping(self, n, m, rank, scale, seed):
        # The center covariance weight is negative from n = 10 on, yet the
        # covariance is PSD in exact arithmetic at every n (see ``recombine``),
        # so nothing is clipped and rounding stays far above -1e-12 of the trace.
        wm, wc = _weights(n)
        assert (wc.min() < 0.0) == (n >= 10)
        rng = np.random.default_rng(seed)
        rank = min(rank, n)     # points in a subspace of this dimension: a singular covariance
        basis = rng.normal(size=(rank, n))
        points = rng.normal(size=(m, 2 * n + 1, rank)) @ basis * scale + rng.normal(size=n)
        means, covs = recombine(points)
        d = points - (wm @ points)[:, None, :]
        unclipped = symmetrize((d * wc[:, None]).swapaxes(1, 2) @ d)
        assert np.array_equal(covs, unclipped)
        assert np.array_equal(covs, covs.swapaxes(1, 2))
        trace = np.trace(covs, axis1=1, axis2=2)
        assert (np.linalg.eigvalsh(covs)[:, 0] >= -1e-12 * trace).all()
        one = recombine(points[0])
        assert np.array_equal(one.cov, covs[0]) and np.array_equal(one.mean, means[0])

    def test_same_values_in_any_layout_give_the_same_bits(self, layouts):
        # A matmul and its sums round in an order set by the operands' layout;
        # recombine takes C order first, so only the values count.
        rng = np.random.default_rng(3)
        points = rng.normal(size=(20, 13, 4)) * [1.0, 0.5, 0.4, 0.1] + [20.0, 0.0, 9.0, 0.0]
        want_means, want_covs = recombine(np.ascontiguousarray(points))
        for name, copy in layouts(points).items():
            means, covs = recombine(copy)
            assert means.tobytes() == want_means.tobytes(), name
            assert covs.tobytes() == want_covs.tobytes(), name
            one = recombine(copy[0])
            assert one.cov.tobytes() == want_covs[0].tobytes(), name

    def test_unpropagated_roundtrip(self, rng, random_spd):
        g = Gaussian(rng.normal(size=3), random_spd(rng, 3))
        s = generate_sigma_points(g, NO_NOISE)
        back = recombine(s.state_points)
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
        back = recombine(s.state_points)
        assert np.allclose(back.mean, g.mean, atol=1e-9)
        assert np.allclose(back.cov, g.cov, atol=1e-8)

    def test_linear_propagation_matches_analytic(self, rng):
        a = np.array([[0.9, 0.1], [-0.2, 1.1]])
        b = np.array([[0.5], [0.25]])
        cov_v = np.array([[0.09]])
        g = Gaussian(np.array([1.0, 2.0]), np.diag([0.5, 1.5]))
        s = generate_sigma_points(g, ProcessNoise(cov_v))
        out = propagate_points(s, None, lambda al, xs, vs: xs @ a.T + vs @ b.T)
        got = recombine(out)
        assert np.allclose(got.mean, a @ g.mean, atol=1e-9)
        assert np.allclose(got.cov, a @ g.cov @ a.T + b @ cov_v @ b.T, atol=1e-8)
