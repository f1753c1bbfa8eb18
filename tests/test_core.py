"""Core container and Gaussian algebra tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmm import (
    Gaussian,
    HybridMixand,
    HybridMixture,
    gaussian_pdf,
    isd_terms,
    matrix_sqrt,
    mixture_moments,
    normalize,
)
from hgmm.errors import (
    DimensionMismatchError,
    EmptyMixtureError,
    NonFiniteValueError,
    NotSymmetricError,
)


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(matrix_sqrt(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        s = matrix_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(s @ s.T, np.diag([4.0, 9.0]))
        assert np.allclose(np.abs(np.diag(s)), [2.0, 3.0])

    def test_random_spd_reconstructs(self, rng, random_spd):
        a = random_spd(rng, 4)
        s = matrix_sqrt(a)
        err = np.linalg.norm(s @ s.T - a) / np.linalg.norm(a)
        assert err < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 10_000))
    def test_reconstruction_property(self, n, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a = q @ np.diag(rng.uniform(0.1, 5.0, n)) @ q.T
        a = 0.5 * (a + a.T)
        s = matrix_sqrt(a)
        assert np.linalg.norm(s @ s.T - a) / np.linalg.norm(a) < 1e-9


class TestGaussianPdf:
    def test_standard_1d_at_zero(self):
        g = Gaussian(np.zeros(1), np.eye(1))
        assert gaussian_pdf(g, np.zeros(1)) == pytest.approx(0.3989422804, abs=1e-9)

    def test_standard_2d_at_zero(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        assert gaussian_pdf(g, np.zeros(2)) == pytest.approx(0.1591549431, abs=1e-9)

    def test_scalar_against_quadrature_normalization(self):
        # Density of N(1, 2) at x=3 checked against the numerically
        # normalized kernel exp(-(x-1)^2 / 4).
        xs = np.linspace(-30.0, 30.0, 400001)
        kernel = np.exp(-0.25 * (xs - 1.0) ** 2)
        norm = np.trapezoid(kernel, xs)
        expected = math.exp(-0.25 * (3.0 - 1.0) ** 2) / norm
        g = Gaussian(np.array([1.0]), np.array([[2.0]]))
        assert gaussian_pdf(g, np.array([3.0])) == pytest.approx(expected, rel=1e-8)

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(NotSymmetricError):
            Gaussian(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_mean(self, bad):
        with pytest.raises(NonFiniteValueError):
            Gaussian(np.array([bad, 0.0]), np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("cell", [(0, 0), (1, 1), (0, 1)])
    def test_rejects_non_finite_covariance(self, bad, cell):
        cov = np.eye(2)
        cov[cell] = cov[cell[::-1]] = bad
        # A NaN on the diagonal leaves eigvalsh's eigenvalues finite, so the
        # check must look at the entries themselves.
        with pytest.raises(NonFiniteValueError):
            Gaussian(np.zeros(2), cov)

    def test_non_finite_is_a_value_error(self):
        with pytest.raises(ValueError):
            Gaussian(np.zeros(2), np.full((2, 2), np.nan))


class TestIsdTerms:
    def test_identical_distributions(self):
        target = Gaussian(np.zeros(1), np.eye(1))
        _, _, _, j = isd_terms(target, [(1.0, target)])
        assert abs(j) < 1e-12

    def test_matches_quadrature(self):
        target = Gaussian(np.zeros(1), np.eye(1))
        other = Gaussian(np.zeros(1), np.array([[1.5]]))
        _, _, _, j = isd_terms(target, [(1.0, other)])
        xs = np.linspace(-10.0, 10.0, 100_000)
        pt = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
        po = np.exp(-0.5 * xs**2 / 1.5) / math.sqrt(2 * math.pi * 1.5)
        j_num = np.trapezoid((pt - po) ** 2, xs)
        assert j == pytest.approx(j_num, abs=1e-8)

    def test_matches_stored_library_objective(self, lib):
        split = lib.get(3, 0.5)
        target = Gaussian(np.zeros(1), np.eye(1))
        mix = [
            (float(w), Gaussian(np.array([mu]), np.array([[split.sigma**2]])))
            for w, mu in zip(split.weights, split.offsets())
        ]
        _, _, _, j = isd_terms(target, mix)
        assert j == pytest.approx(split.isd, abs=1e-10)


class TestMixtureMoments:
    def test_single_mixand(self):
        g = Gaussian(np.array([1.0, -2.0]), np.diag([2.0, 3.0]))
        mix = HybridMixture((HybridMixand(1.0, "a", g),))
        mean, cov = mixture_moments(mix)
        assert np.allclose(mean, g.mean)
        assert np.allclose(cov, g.cov)

    def test_symmetric_pair(self):
        a = Gaussian(np.array([1.0]), np.eye(1))
        b = Gaussian(np.array([-1.0]), np.eye(1))
        mix = HybridMixture((HybridMixand(0.5, 0, a), HybridMixand(0.5, 0, b)))
        mean, cov = mixture_moments(mix)
        assert mean[0] == pytest.approx(0.0, abs=1e-12)
        assert cov[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_against_monte_carlo(self, rng, random_spd):
        mixands = []
        weights = rng.dirichlet(np.ones(5))
        for w in weights:
            mixands.append(
                HybridMixand(float(w), 0, Gaussian(rng.normal(size=2), random_spd(rng, 2)))
            )
        mix = normalize(mixands)
        mean, cov = mixture_moments(mix)
        n = 1_000_000
        counts = rng.multinomial(n, [m.weight for m in mix.mixands])
        draws = np.vstack(
            [
                rng.multivariate_normal(m.gaussian.mean, m.gaussian.cov, size=c)
                for m, c in zip(mix.mixands, counts)
                if c
            ]
        )
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 3 * se_mean + 1e-9)
        # Covariance entries fluctuate at roughly var/sqrt(n) scale.
        assert np.all(np.abs(np.cov(draws.T) - cov) < 0.02 * np.trace(cov))


class TestMixtureValidation:
    def test_weights_must_sum_to_one(self):
        g = Gaussian(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError):
            HybridMixture((HybridMixand(0.5, 0, g),))

    def test_empty_mixture_rejected(self):
        with pytest.raises(EmptyMixtureError):
            HybridMixture(())

    def test_mixed_dimensions_rejected(self):
        a = Gaussian(np.zeros(1), np.eye(1))
        b = Gaussian(np.zeros(2), np.eye(2))
        with pytest.raises(DimensionMismatchError):
            HybridMixture((HybridMixand(0.5, 0, a), HybridMixand(0.5, 0, b)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 10_000))
    def test_normalize_sums_exactly_to_one(self, m, seed):
        rng = np.random.default_rng(seed)
        g = Gaussian(np.zeros(1), np.eye(1))
        raw = [HybridMixand(float(w), 0, g) for w in rng.uniform(0.1, 5.0, m)]
        mix = normalize(raw)
        assert abs(sum(x.weight for x in mix.mixands) - 1.0) < 1e-15

    def test_normalize_drops_below_floor(self):
        g = Gaussian(np.zeros(1), np.eye(1))
        raw = [HybridMixand(1.0, 0, g), HybridMixand(1e-9, 1, g)]
        mix = normalize(raw, weight_floor=1e-6)
        assert len(mix) == 1
