"""Core container and Gaussian algebra tests."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmm import (
    Gaussian,
    HybridMixand,
    HybridMixture,
    ProcessNoise,
    gaussian_pdf,
    isd_terms,
    matrix_sqrt,
    mixture_moments,
    normalize,
)
from hgmm.core import _factor, _whiten, gaussian_logpdf, symmetrize
from hgmm.errors import (
    DimensionMismatchError,
    EmptyMixtureError,
    NonFiniteValueError,
    NotSymmetricError,
)
from hgmm.evaluation import ParticleSet, TrackObservations
from hgmm.models import RoadSegment


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

    def test_unchecked_factor_equals_matrix_sqrt(self, rng, random_spd):
        # The engine's factorization skips the input check; its factor must be
        # matrix_sqrt's bit for bit, on the Cholesky and on the eigen path.
        for n in range(1, 6):
            singular = random_spd(rng, n)
            singular[-1, :] = singular[:, -1] = 0.0     # PSD with a zero pivot: eigen path
            skewed = random_spd(rng, n)
            skewed[0, -1] += 1e-12                      # symmetric only within tolerance
            stack = np.stack([random_spd(rng, n), singular, skewed, random_spd(rng, n)])
            got = _factor(stack)
            assert np.array_equal(got, matrix_sqrt(stack))
            if n > 1:   # the symmetric part is factored, whichever triangle LAPACK reads
                assert np.array_equal(got[2], np.linalg.cholesky(symmetrize(skewed)))
                assert not np.array_equal(got[2], np.linalg.cholesky(skewed))
            for matrix, factor in zip(stack, got):
                assert np.array_equal(_factor(matrix), matrix_sqrt(matrix))
                assert np.array_equal(factor, matrix_sqrt(matrix))

    @pytest.mark.parametrize("bad, error", [
        (np.array([[1.0, 0.5], [0.1, 1.0]]), NotSymmetricError),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), NonFiniteValueError),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), NonFiniteValueError),
    ])
    def test_bad_input_is_rejected(self, bad, error):
        with pytest.raises(error):
            matrix_sqrt(bad)
        with pytest.raises(error):
            matrix_sqrt(np.stack([np.eye(2), bad]))


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

    def test_callers_arrays_stay_writeable(self):
        mean, cov = np.zeros(2), np.eye(2)
        g = Gaussian(mean, cov)
        noise = ProcessNoise(cov)
        assert mean.flags.writeable and cov.flags.writeable
        assert not (g.mean.flags.writeable or g.cov.flags.writeable or noise.cov.flags.writeable)
        mean[0], cov[0, 0] = 5.0, 7.0
        assert g.mean[0] == 0.0 and g.cov[0, 0] == 1.0 and noise.cov[0, 0] == 1.0

    @pytest.mark.parametrize("n", range(1, 10))
    def test_logpdf_sums_squares_in_coordinate_order(self, n):
        # gaussian_logpdf adds the squared whitened coordinates one row of the
        # (n, P) array at a time.  np.sum over that C-ordered array has the
        # same bits for n <= 7; from n = 8 NumPy's pairwise summation reorders
        # it, and the two move apart by up to about 2e-16 relative.  The
        # kernel's own forward substitution is not SciPy's solve_triangular
        # bit for bit (OpenBLAS's trsm orders and fuses its operations
        # differently), only within a few units in the last place of each
        # point's largest whitened coordinate.
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        cov = a @ a.T + 0.5 * np.eye(n)
        mean = rng.normal(size=n)
        xs = mean + 3.0 * rng.normal(size=(2000, n))
        z, chol = _whiten(mean, cov, xs)
        ref = scipy.linalg.solve_triangular(scipy.linalg.cholesky(cov, lower=True),
                                            (xs - mean).T, lower=True)
        assert (np.abs(z - ref) <= 16 * np.spacing(np.abs(ref).max(axis=0))).all()
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        want = -0.5 * np.sum(z * z, axis=0) - 0.5 * (n * math.log(2.0 * math.pi) + logdet)
        got = gaussian_logpdf(mean, cov, xs)
        if n <= 7:
            assert got.tobytes() == want.tobytes()
        else:
            assert (np.abs(got - want) <= 5e-16 * np.abs(want)).all()

    @pytest.mark.parametrize("where", ["xs", "mean", "cov"])
    def test_logpdf_rejects_non_finite_input(self, where):
        args = {"mean": np.zeros(2), "cov": np.eye(2), "xs": np.zeros((3, 2))}
        args[where] = args[where].copy()
        args[where].flat[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            gaussian_logpdf(args["mean"], args["cov"], args["xs"])

    def test_logpdf_of_singular_covariance_takes_the_jitter(self):
        # Not positive definite, so the Cholesky fails and 1e-12 * trace is
        # added to the diagonal, as if the caller had passed cov + 2e-12 I.
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(cov)
        xs = np.array([[0.0, 0.0], [1e-7, 1e-7], [1e-7, -1e-7]])
        got = gaussian_logpdf(np.zeros(2), cov, xs)
        want = gaussian_logpdf(np.zeros(2), cov + 2e-12 * np.eye(2), xs)
        assert np.isfinite(got).all() and got.tobytes() == want.tobytes()

    def test_logpdf_of_indefinite_covariance_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            gaussian_logpdf(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((1, 2)))


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


@pytest.mark.parametrize("make", [
    lambda: ProcessNoise(np.eye(2)),
    lambda: ParticleSet(np.zeros((3, 2)), ("a", "b", "a")),
    lambda: TrackObservations(np.array([0.1, 0.2]), np.zeros((2, 2))),
    lambda: RoadSegment("s", np.array([[0.0, 0.0], [10.0, 0.0]]), 2.0, ()),
], ids=["ProcessNoise", "ParticleSet", "TrackObservations", "RoadSegment"])
def test_array_holding_dataclasses_compare_and_hash_by_identity(make):
    # Field equality would compare arrays, which has no truth value, and
    # field hashing would hash them, which NumPy refuses.
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, b, a}) == 2
