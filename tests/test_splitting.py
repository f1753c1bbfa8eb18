"""Canonical split optimization, weight QP, and runtime application tests."""

import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgmm import Gaussian, HybridMixand, HybridMixture, apply_split, isd_terms
from hgmm.core import symmetrize
from hgmm.errors import InvalidSigmaError, SingularCovarianceError
from hgmm.splitting import (
    CanonicalSplit,
    SplitLibrary,
    build_library,
    optimize_canonical_split,
    qp_kkt_residual,
    qp_matrices,
    simplex_qp,
    solve_weight_qp,
    split_isd,
    split_offsets,
)


def projected_gradient_qp(h, f, iters=200_000, step=None):
    """Independent dense oracle for min w.H.w - 2 f.w on the simplex."""
    n = h.shape[0]
    w = np.full(n, 1.0 / n)
    if step is None:
        step = 0.9 / np.linalg.eigvalsh(2.0 * h).max()

    def project(v):
        # Euclidean projection onto the probability simplex.
        u = np.sort(v)[::-1]
        css = np.cumsum(u) - 1.0
        rho = np.nonzero(u - css / np.arange(1, n + 1) > 0)[0][-1]
        theta = css[rho] / (rho + 1.0)
        return np.clip(v - theta, 0.0, None)

    for _ in range(iters):
        grad = 2.0 * (h @ w - f)
        w_new = project(w - step * grad)
        if np.abs(w_new - w).max() < 1e-14:
            w = w_new
            break
        w = w_new
    return w


def objective(h, f, w):
    return float(w @ h @ w - 2.0 * f @ w)


class TestWeightQp:
    def test_single_component(self):
        assert simplex_qp(np.array([[1.0]]), np.array([0.5])) == pytest.approx([1.0])

    def test_symmetric_three_component(self):
        w = solve_weight_qp(split_offsets(3, 1.0), 0.5)
        assert w[0] == pytest.approx(w[2], abs=1e-10)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_against_projected_gradient(self, rng):
        for _ in range(5):
            means = np.sort(rng.uniform(-2.0, 2.0, 5))
            h, f = qp_matrices(means, 0.4)
            w = simplex_qp(h, f)
            w_ref = projected_gradient_qp(h, f)
            assert objective(h, f, w) <= objective(h, f, w_ref) + 1e-9

    def test_kkt_residual_small(self):
        means = split_offsets(5, 0.7)
        h, f = qp_matrices(means, 0.3)
        w = simplex_qp(h, f)
        assert qp_kkt_residual(h, f, w) < 1e-8


class TestOptimizer:
    def test_identity_split(self):
        split = optimize_canonical_split(1, 1.0)
        assert split.delta_mu == 0.0
        assert split.weights == pytest.approx([1.0])
        assert abs(split.isd) < 1e-12

    def test_three_component_half_sigma(self):
        split = optimize_canonical_split(3, 0.5, grid_step=0.01)
        # Objective against direct quadrature of the squared difference.
        xs = np.linspace(-12.0, 12.0, 200_001)
        target = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
        approx = np.zeros_like(xs)
        for w, mu in zip(split.weights, split.offsets()):
            approx += w * np.exp(-0.5 * (xs - mu) ** 2 / 0.25) / math.sqrt(2 * math.pi * 0.25)
        j_num = float(np.trapezoid((target - approx) ** 2, xs))
        assert split.isd == pytest.approx(j_num, abs=1e-8)
        # Moment-matched mean and partially reduced variance.
        mean = float(np.dot(split.weights, split.offsets()))
        var = float(np.dot(split.weights, split.offsets() ** 2) + 0.25 - mean**2)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert 0.25 <= var <= 1.0

    def test_isd_decreases_with_n_and_sigma(self, lib):
        for sigma in (0.1, 0.3, 0.5):
            isds = [lib.get(n, sigma).isd for n in (3, 5, 7, 9)]
            assert all(a > b for a, b in zip(isds, isds[1:]))
        for n in (3, 5, 7, 9):
            isds = [lib.get(n, s).isd for s in (0.1, 0.2, 0.3, 0.4, 0.5)]
            assert all(a > b for a, b in zip(isds, isds[1:]))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            optimize_canonical_split(4, 0.5)
        with pytest.raises(InvalidSigmaError):
            optimize_canonical_split(3, 1.5)


class TestLibrary:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        lib = build_library((3,), (0.4,), grid_step=0.05)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        lib.save(p1)
        SplitLibrary.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rebuild_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        build_library((3, 5), (0.3,), grid_step=0.05).save(p1)
        build_library((3, 5), (0.3,), grid_step=0.05).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_key(self, lib):
        with pytest.raises(KeyError):
            lib.get(3, 0.123)

    def test_entry_sanity(self, lib):
        for split in lib.entries.values():
            assert split.n % 2 == 1
            assert 0.0 < split.sigma <= 1.0
            assert split.weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.allclose(split.weights, split.weights[::-1], atol=1e-9)

    def test_stored_isd_matches_recomputation(self, lib):
        for split in lib.entries.values():
            j = split_isd(split.n, split.sigma, split.delta_mu, split.weights)
            assert split.isd == pytest.approx(j, abs=1e-12)


def apply_split_reference(weight, g, axis, split):
    """One parent's split with single-matrix kernels: SciPy's Cholesky, 1-D dots and norms."""
    axis = axis / np.linalg.norm(axis)
    d = g.dim
    t = scipy.linalg.cholesky(symmetrize(g.cov), lower=True)
    u = t.T @ axis
    u = u / np.linalg.norm(u)
    e1 = np.eye(d)[0]
    v = u - e1
    nv2 = v @ v
    r = np.eye(d) if nv2 < 1e-24 else np.eye(d) - 2.0 * np.outer(v, v) / nv2
    trt = t @ r.T
    canon_cov = np.eye(d)
    canon_cov[0, 0] = split.sigma ** 2
    child_cov = symmetrize(trt @ canon_cov @ trt.T)
    means = np.outer(split.offsets(), trt[:, 0]) + g.mean
    weights = weight * split.weights
    total = sum(weights.tolist())
    if total != weight:
        weights[int(np.argmax(weights))] += weight - total
    return weights, means, child_cov


class TestApplySplit:
    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(1, 8), dim=st.integers(1, 4), n=st.sampled_from([3, 5, 9]),
           seed=st.integers(0, 10_000))
    @example(k=3, dim=4, n=5, seed=0)
    def test_stack_matches_per_parent_reference(self, k, dim, n, seed, lib):
        rng = np.random.default_rng(seed)
        split = lib.get(n, 0.3)
        weights = rng.dirichlet(np.ones(k))
        means = rng.normal(size=(k, dim))
        covs = np.stack([symmetrize(a @ a.T) + 0.1 * np.eye(dim)
                         for a in rng.normal(size=(k, dim, dim))])
        axes = rng.normal(size=(k, dim))
        # The whitened axis of an identity covariance along e1 is e1 itself.
        covs[0], axes[0] = np.eye(dim), np.eye(dim)[0]
        out = apply_split((weights, means, covs), axes, split)
        assert len(out) == k * n
        for i in range(k):
            w, mu, cov = apply_split_reference(weights[i], Gaussian(means[i], covs[i]), axes[i],
                                               split)
            rows = slice(i * n, (i + 1) * n)
            # Weights exactly, so that each parent's weight is conserved exactly.
            assert out.weights[rows].tobytes() == w.tobytes()
            assert np.allclose(out.means[rows], mu, rtol=1e-12, atol=1e-12)
            assert np.allclose(out.covs[rows], cov, rtol=1e-12, atol=1e-12)
            pair = apply_split((weights[i], Gaussian(means[i], covs[i])), axes[i], split)
            assert [c[0] for c in pair] == w.tolist()
            assert np.allclose(np.stack([c[1].mean for c in pair]), mu, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_symmetric_parents_give_exactly_symmetric_children(self, dim, lib):
        rng = np.random.default_rng(dim)
        k = 25
        a = rng.normal(size=(k, dim, dim))
        covs = symmetrize(a @ a.swapaxes(1, 2) + 1e-3 * np.eye(dim))
        assert np.array_equal(covs, covs.swapaxes(1, 2))
        out = apply_split((np.full(k, 1.0 / k), rng.normal(size=(k, dim)), covs),
                          rng.normal(size=(k, dim)), lib.get(5, 0.3))
        assert np.array_equal(out.covs, out.covs.swapaxes(1, 2))

    def test_identity_split_returns_parent(self):
        parent = HybridMixand(1.0, "s", Gaussian(np.zeros(2), np.eye(2)))
        split = CanonicalSplit(1, 1.0, 0.0, np.array([1.0]), 0.0)
        assert apply_split(parent, np.array([1.0, 0.0]), split) == [parent]

    def test_unit_gaussian_axis_aligned(self, lib):
        split = lib.get(3, 0.5)
        parent = HybridMixand(1.0, "s", Gaussian(np.zeros(2), np.eye(2)))
        children = apply_split(parent, np.array([1.0, 0.0]), split)
        offsets = sorted(c.gaussian.mean[0] for c in children)
        assert offsets == pytest.approx(
            [-split.delta_mu, 0.0, split.delta_mu], abs=1e-12
        )
        for c in children:
            assert c.gaussian.mean[1] == pytest.approx(0.0, abs=1e-12)
            assert np.allclose(c.gaussian.cov, np.diag([0.25, 1.0]), atol=1e-12)

    def test_singular_parent_splits_along_its_range(self, lib):
        split = lib.get(5, 0.3)
        parent = HybridMixand(1.0, "s", Gaussian(np.zeros(2), np.diag([2.0, 0.0])))
        children = HybridMixture(apply_split(parent, np.array([1.0, 0.0]), split))
        assert len(children) == 5 and children.weights.sum() == 1.0
        assert np.array_equal(children.means[:, 0], split.offsets() * math.sqrt(2.0))
        assert not children.means[:, 1].any()
        assert np.allclose(children.covs, np.diag([2.0 * split.sigma**2, 0.0]), rtol=0,
                           atol=1e-15)

    def test_no_variance_along_the_axis_raises(self, lib):
        split = lib.get(5, 0.3)
        parent = HybridMixand(1.0, "s", Gaussian(np.zeros(2), np.diag([2.0, 0.0])))
        with pytest.raises(SingularCovarianceError):
            apply_split(parent, np.array([0.0, 1.0]), split)
        stack = (np.array([0.5, 0.5]), np.zeros((2, 2)), np.stack([np.eye(2), parent.gaussian.cov]))
        with pytest.raises(SingularCovarianceError):    # one such parent in a stack
            apply_split(stack, np.array([[0.0, 1.0], [0.0, 1.0]]), split)

    def test_random_parent_isd_and_invariants(self, rng, random_spd, lib):
        split = lib.get(5, 0.3)
        for _ in range(50):
            cov = random_spd(rng, 2)
            parent = HybridMixand(1.0, "s", Gaussian(rng.normal(size=2), cov))
            axis = rng.normal(size=2)
            axis /= np.linalg.norm(axis)
            children = apply_split(parent, axis, split)
            assert sum(c.weight for c in children) == parent.weight
            # Marginal variance along the axis is reduced by exactly sigma^2.
            va = axis @ cov @ axis
            for c in children:
                assert axis @ c.gaussian.cov @ axis == pytest.approx(
                    split.sigma**2 * va, rel=1e-12
                )
            _, _, _, j = isd_terms(
                parent.gaussian, [(c.weight, c.gaussian) for c in children]
            )
            assert j <= 3.0 * split.isd
