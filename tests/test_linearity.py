"""Affine-fit residual metric tests."""

import numpy as np
import pytest

from hgmm import Gaussian, NO_NOISE, assess_linearity
from hgmm.errors import DimensionMismatchError
from hgmm.models import cubic_step, ungm_step
from hgmm.sigma import generate_sigma_points, propagate_points


def lstsq_residual(pre, post):
    """Independent least-squares oracle: residual of post ~ A*pre + b."""
    design = np.hstack([pre, np.ones((pre.shape[0], 1))])
    _, res, _, _ = np.linalg.lstsq(design, post, rcond=None)
    fit = design @ np.linalg.lstsq(design, post, rcond=None)[0]
    return float(np.linalg.norm(post - fit))


class TestAffineExactness:
    def test_scalar_affine_map(self):
        pre = np.array([[0.0], [1.7], [-1.7]])
        post = 3.0 * pre + 7.0
        rep = assess_linearity(pre, post, normalization="raw")
        assert rep.e_res <= 1e-10
        assert rep.passed

    def test_random_affine_dims(self, rng):
        for n in range(1, 5):
            a = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            g = Gaussian(rng.normal(size=n), np.diag(rng.uniform(0.5, 2.0, n)))
            s = generate_sigma_points(g, NO_NOISE)
            post = s.state_points @ a.T + b
            rep = assess_linearity(s.state_points, post, normalization="raw")
            assert rep.e_res < 1e-9


class TestOracleAgreement:
    def test_ungm_residual_equals_lstsq(self):
        g = Gaussian(np.array([0.5]), np.eye(1))
        s = generate_sigma_points(g, NO_NOISE)
        post = np.asarray(ungm_step(s.state_points, 0))
        rep = assess_linearity(s.state_points, post, normalization="raw")
        assert rep.e_res > 1e-6
        assert rep.e_res == pytest.approx(lstsq_residual(s.state_points, post), abs=1e-10)

    def test_random_nonlinear_sets(self, rng):
        for _ in range(25):
            n = rng.integers(1, 5)
            pre = rng.normal(size=(2 * n + 1, n))
            post = pre**3 + 0.5 * rng.normal(size=pre.shape)
            rep = assess_linearity(pre, post, normalization="raw")
            assert rep.e_res == pytest.approx(lstsq_residual(pre, post), abs=1e-8)

    def test_point_residual_norm_matches_total(self, rng):
        pre = rng.normal(size=(5, 2))
        post = np.sin(pre)
        rep = assess_linearity(pre, post, normalization="raw")
        assert np.linalg.norm(rep.point_residuals) == pytest.approx(rep.e_res, abs=1e-10)


class TestPriorTightening:
    def test_smaller_prior_gives_smaller_residual(self):
        residuals = []
        for var in (0.04, 1.0):
            g = Gaussian(np.zeros(1), np.array([[var]]))
            s = generate_sigma_points(g, NO_NOISE)
            post = np.asarray(cubic_step(s.state_points))
            residuals.append(
                assess_linearity(s.state_points, post, normalization="raw").e_res
            )
        assert residuals[0] < residuals[1]


class TestSplitAxis:
    def test_axis_is_unit_and_sign_fixed(self, rng):
        pre = rng.normal(size=(5, 2))
        post = pre**2
        rep = assess_linearity(pre, post, normalization="raw")
        assert np.linalg.norm(rep.split_axis) == pytest.approx(1.0)
        nz = np.nonzero(np.abs(rep.split_axis) > 1e-14)[0]
        assert rep.split_axis[nz[0]] > 0

    def test_axis_follows_dominant_nonlinearity(self):
        # Nonlinear only in the first coordinate: the axis should be e1.
        pre = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])
        post = np.column_stack([pre[:, 0] ** 3, pre[:, 1]])
        rep = assess_linearity(pre, post, normalization="raw")
        assert abs(rep.split_axis[0]) == pytest.approx(1.0, abs=1e-9)


class TestNormalizationModes:
    def test_scaled_mode_was_removed(self, rng):
        # e_res is the raw residual; "raw" is the only mode left.
        pre = rng.normal(size=(3, 1))
        for mode in ("scaled", "bogus"):
            with pytest.raises(ValueError, match="'scaled' mode was removed"):
                assess_linearity(pre, pre**2, normalization=mode)
        assert assess_linearity(pre, pre**2, normalization="raw").e_res > 0.0

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            assess_linearity(np.zeros((4, 1)), np.zeros((4, 1)), normalization="raw")
