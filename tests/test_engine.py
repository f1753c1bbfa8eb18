"""Anticipation engine tests."""

import logging
import math

import numpy as np
import pytest
import scipy.linalg

import hgmm.core
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgmm import (
    DynamicsModel,
    assess_linearity,
    generate_sigma_points,
    EngineConfig,
    Gaussian,
    HybridMixand,
    HybridMixture,
    NO_NOISE,
    ProcessNoise,
    ReductionConfig,
    anticipate,
    reduce_mixture,
    step_continuous,
    step_discrete,
)
from hgmm.core import matrix_sqrt, normalize, symmetrize
from hgmm.errors import ModelEvaluationFailure, NoSuccessorError
from hgmm.evaluation import default_grid, mixture_pdf_points, numerical_kld
from hgmm.linearity import _normalized, _symmetric_fit
from hgmm.models import (
    BicycleConfig,
    BicycleModel,
    UngmModel,
    builtin_network,
    ungm_truth_density,
)
from hgmm.splitting import apply_split


class LinearModel(DynamicsModel):
    """x' = A x + B v with a fixed routing table for the discrete state."""

    def __init__(self, a, b=None, cov_v=None, routing=None):
        self.a = np.asarray(a, dtype=float)
        self.n_x = self.a.shape[0]
        if b is None:
            self.b = np.zeros((self.n_x, 0))
            self._noise = NO_NOISE
        else:
            self.b = np.asarray(b, dtype=float)
            self._noise = ProcessNoise(np.asarray(cov_v, dtype=float))
        self.n_v = self.b.shape[1]
        self.routing = routing or {}

    @property
    def process_noise(self):
        return self._noise

    def successor_options(self, alpha):
        return self.routing.get(alpha, [(alpha, 1.0)])

    def transition_mask(self, alpha, xs):
        return np.ones(len(xs), dtype=bool)

    def f_c_batch(self, alpha_next, xs, vs):
        return xs @ self.a.T + vs @ self.b.T


def single(gaussian, alpha="s", w=1.0):
    return HybridMixture((HybridMixand(w, alpha, gaussian),))


# -- depth-first reference ----------------------------------------------------
# The step as it was before propagation went level by level: one mixand at a
# time off a stack, with per-mixand kernels (SciPy QR and eigh, whole-array
# norms).  The level-synchronous step must make the same split decisions and
# match its frame to rounding.


def _sigma_points_reference(g, noise, lam):
    n_x, n_v = g.dim, noise.dim
    lam = 3.0 - (n_x + n_v) if lam is None else lam
    n = n_x + n_v
    gamma = np.sqrt(n + lam)
    spread = gamma * matrix_sqrt(g.cov).T
    chi = np.tile(g.mean, (1 + 2 * n, 1))
    chi[1 : 1 + 2 * n_x] = np.vstack([g.mean + spread, g.mean - spread])
    ups = np.zeros((1 + 2 * n, n_v))
    if n_v > 0:
        spread_v = gamma * noise.sqrt.T
        ups[1 + 2 * n_x :] = np.vstack([spread_v, -spread_v])
    wm = np.full(1 + 2 * n, 1.0 / (2.0 * (lam + n)))
    wm[0] = lam / (lam + n)
    wc = wm.copy()
    wc[0] = lam / (lam + n) + 2.0
    return chi, ups, (wm, wc)


def _principal_axis_reference(moment):
    evals, evecs = scipy.linalg.eigh(moment)
    top = evals[-1]
    if top <= 0.0:
        return np.eye(len(evals))[0]
    tied = [i for i in range(len(evals)) if evals[i] >= top - 1e-10 * max(top, 1.0)]
    axis = evecs[:, min(tied, key=lambda i: int(np.argmax(np.abs(evecs[:, i]))))].copy()
    nz = np.nonzero(np.abs(axis) > 1e-14)[0]
    if nz.size and axis[nz[0]] < 0:
        axis = -axis
    return axis / np.linalg.norm(axis)


def _assess_reference(pre, post, prior_cov, normalization, e_res_max):
    """(e_res, passed, split axis) of one mixand's affine fit."""
    m, n_x = pre.shape
    q_t, r_t = scipy.linalg.qr(np.vstack([pre.T, np.ones((1, m))]).T)
    l0_diag = np.abs(np.diag(r_t.T[:, : n_x + 1]))
    rank_deficient = l0_diag.min() <= 1e-12 * max(l0_diag.max(), 1.0)
    chi_res = (post.T @ q_t)[:, n_x + 1:]
    e_res = float(np.linalg.norm(chi_res))
    if normalization == "scaled":
        e_res /= math.sqrt(m) * math.sqrt(max(float(np.trace(prior_cov)), 1e-300))
    point_residuals = np.hstack([np.zeros((n_x, n_x + 1)), chi_res]) @ q_t.T
    centered = pre - pre[0]
    moment = (centered * np.linalg.norm(point_residuals, axis=0)[:, None]).T @ centered
    return (e_res, bool(rank_deficient or e_res <= e_res_max),
            _principal_axis_reference(0.5 * (moment + moment.T)))


def _recombine_reference(points, w):
    wm, wc = w
    mean = wm @ points
    d = points - mean
    cov = symmetrize((d * wc[:, None]).T @ d)
    if np.linalg.eigvalsh(cov).min() < 0.0:
        wv, v = scipy.linalg.eigh(cov)
        cov = symmetrize((v * np.clip(wv, 0.0, None)) @ v.T)
    return mean, cov


def _step_continuous_reference(mix, model, cfg, lib=None):
    assess = lib is not None and math.isfinite(cfg.e_res_max)
    pending = [(w, alpha, Gaussian._unchecked(mean, cov), 0) for w, alpha, mean, cov
               in zip(mix.weights.tolist(), mix.labels, mix.means, mix.covs)][::-1]
    out = []
    while pending:
        weight, alpha, g, depth = pending.pop()
        chi, ups, w = _sigma_points_reference(g, model.process_noise, None)
        propagated = np.asarray(model.f_c_batch(alpha, chi, ups), dtype=float)
        if assess:
            state = slice(0, 1 + 2 * model.n_x)
            _, passed, axis = _assess_reference(chi[state], propagated[state], g.cov,
                                                cfg.normalization, cfg.e_res_max)
            if not passed and depth < cfg.max_split_depth:
                children = apply_split((weight, g), axis, lib.get(cfg.split_n, cfg.split_sigma))
                pending.extend((w, alpha, c, depth + 1) for w, c in children[::-1])
                continue
        mean, cov = _recombine_reference(propagated, w)
        out.append((weight, alpha, mean, cov))
    weights, labels, means, covs = zip(*out)
    return normalize((weights, means, covs, labels), mix.time_index + 1)


def assert_frames_close(got, want, tol=1e-12):
    """Same labels; weights, means and covariances within ``tol`` of their scale.

    A frame is recombined from sigma points up to ``reach`` (the largest
    |mean| plus the largest standard deviation) from the origin, so its
    rounding scales with that: a mean's with ``reach``, a covariance's with
    ``reach`` times the largest standard deviation.
    """
    assert got.labels == want.labels
    sd = np.sqrt(np.abs(want.covs).max())
    reach = np.abs(want.means).max() + sd
    for key, scale in (("weights", np.abs(want.weights).max()), ("means", reach),
                       ("covs", reach * sd)):
        np.testing.assert_allclose(getattr(got, key), getattr(want, key), rtol=0,
                                   atol=tol * scale, err_msg=key)


class CurvedModel(LinearModel):
    """``LinearModel`` plus 0.1 x0^2 on every coordinate: affine where x0 is fixed."""

    def f_c_batch(self, alpha_next, xs, vs):
        return super().f_c_batch(alpha_next, xs, vs) + 0.1 * xs[:, :1] ** 2


BICYCLES = {name: BicycleModel(builtin_network(name))
            for name in ("straight", "turn", "intersection")}
# Noise-free, so its sigma-point sets have no noise block (n_v = 0).  It is
# mildly nonlinear, so an affine fit leaves a residual far above rounding
# and every split decision and split axis is set by the model, not by noise.
NOISE_FREE = CurvedModel([[1.0, 0.1, 0.0], [-0.2, 0.9, 0.1], [0.0, 0.3, 1.1]],
                         routing={"a": [("b", 0.5), ("c", 0.5)]})


def random_prior(rng, m, case):
    """m mixands around the junction of a builtin network, or for the noise-free model.

    Half the noise-free mixands have a singular covariance, with no variance
    in x0: their sigma points are exactly rank deficient, the model is
    affine on them, and their recombined covariance often has a negative
    eigenvalue to clip.
    """
    if case == "noise-free":
        dim, labels = 3, rng.choice(["a", "b"], m)
        means = rng.normal(size=(m, dim))
        scales = rng.uniform(0.05, 2.0, (m, dim))
        scales[rng.random(m) < 0.5, 0] = 0.0
    else:
        dim, labels = 4, ["approach"] * m
        # x from before to past the end of the approach (x = 40), so some fan out.
        means = np.column_stack([rng.uniform(30.0, 46.0, m), rng.uniform(-1.0, 1.0, m),
                                 rng.uniform(7.0, 11.0, m), rng.uniform(-0.2, 0.2, m)])
        scales = rng.uniform(0.05, 2.0, (m, dim)) * [1.0, 1.0, 1.0, 0.05]
    mixands = []
    for w, label, mean, scale in zip(rng.dirichlet(np.ones(m)), labels, means, scales):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        if scale[0] == 0.0:
            q[0], q[:, 0] = 0.0, 0.0      # rotate x1 and x2 only: x0 stays exactly fixed
            q[0, 0] = 1.0
            q[1:, 1:], _ = np.linalg.qr(q[1:, 1:])
        mixands.append(HybridMixand(float(w), str(label), Gaussian(mean, (q * scale) @ q.T)))
    return normalize(mixands)


class TestStepDiscrete:
    def test_single_successor_keeps_moments(self):
        model = LinearModel(np.eye(1), routing={"s": [("t", 1.0)]})
        mix = single(Gaussian(np.array([1.0]), np.eye(1)))
        out = step_discrete(mix, model)
        assert len(out) == 1
        assert out.mixands[0].discrete == "t"
        assert np.allclose(out.mixands[0].gaussian.mean, [1.0])

    def test_three_way_uniform_fanout(self):
        routing = {"s": [("l", 1 / 3), ("c", 1 / 3), ("r", 1 / 3)]}
        model = LinearModel(np.eye(2), routing=routing)
        g = Gaussian(np.zeros(2), np.eye(2))
        out = step_discrete(single(g), model)
        assert len(out) == 3
        for m in out.mixands:
            assert m.weight == pytest.approx(1 / 3)
            assert np.allclose(m.gaussian.mean, g.mean)
            assert np.allclose(m.gaussian.cov, g.cov)

    def test_partial_branching_bookkeeping(self):
        routing = {"a": [("a1", 0.5), ("a2", 0.5)]}
        model = LinearModel(np.eye(1), routing=routing)
        g = Gaussian(np.zeros(1), np.eye(1))
        mix = HybridMixture((HybridMixand(0.4, "a", g), HybridMixand(0.6, "b", g)))
        out = step_discrete(mix, model)
        assert len(out) == 3
        assert sum(m.weight for m in out.mixands) == pytest.approx(1.0)

    def test_no_successor_raises(self):
        model = LinearModel(np.eye(1), routing={"s": []})
        with pytest.raises(NoSuccessorError):
            step_discrete(single(Gaussian(np.zeros(1), np.eye(1))), model)

    @pytest.mark.parametrize("options", [[("b", 1.5), ("c", -0.5)], [("b", 1.0), ("c", np.nan)]])
    def test_negative_successor_probability_raises(self, options):
        # -0.5 would be dropped as "not positive", leaving weights that sum to
        # 1.5; a NaN would pass the sum-to-1 check, since NaN compares false.
        model = LinearModel(np.eye(1), routing={"a": options})
        with pytest.raises(ValueError, match=r"'a' -> 'c'"):
            step_discrete(single(Gaussian(np.zeros(1), np.eye(1)), "a"), model)


class GateCountingBicycle(BicycleModel):
    """``BicycleModel`` that records the label of every ``transition_mask`` call."""

    def __init__(self, network):
        super().__init__(network)
        self.gated = []

    def transition_mask(self, alpha, xs):
        self.gated.append(alpha)
        return super().transition_mask(alpha, xs)


class StayingModel(LinearModel):
    """``LinearModel`` whose mixands never leave their label."""

    def transition_mask(self, alpha, xs):
        return np.zeros(len(xs), dtype=bool)


def _step_discrete_reference(mix, model):
    """The fan-out with every mixand gated on its own mean, stay-only labels too."""
    out = [(w * p, alpha_next, mean, cov)
           for w, alpha, mean, cov in zip(mix.weights.tolist(), mix.labels, mix.means, mix.covs)
           for alpha_next, p in model.discrete_successors(alpha, Gaussian._unchecked(mean, cov))
           if p > 0.0]
    weights, labels, means, covs = zip(*out)
    return np.array(weights), labels, np.stack(means), np.stack(covs)


class TestStayOnlyLabels:
    """A label whose only option is to stay is not gated; the frames do not change."""

    def test_stay_only_labels_are_not_gated(self):
        g = Gaussian(np.array([20.0, 0.0, 9.0, 0.0]), np.diag([2.0, 2.0, 2.0, 0.1]))
        model = GateCountingBicycle(builtin_network("straight"))
        mix = single(g, alpha="main")
        assert step_discrete(mix, model) is mix and model.gated == []
        model = GateCountingBicycle(builtin_network("turn"))
        mix = HybridMixture(tuple(HybridMixand(0.25, label, g)
                                  for label in ("exit", "approach", "exit", "turn")))
        step_discrete(mix, model)
        assert model.gated == ["approach", "turn"]

    @pytest.mark.parametrize("network", ["straight", "turn", "intersection"])
    def test_frames_match_gating_every_label(self, network, lib):
        # Two priors on every segment, 3 m into its first and its last piece,
        # taken through 35 steps: every step's fan-out is compared bit for bit.
        model = BicycleModel(builtin_network(network))
        mixands = []
        for label, seg in model.network.segments.items():
            line = seg.centerline
            for a, b in ((line[0], line[1]), (line[-2], line[-1])):
                d = (b - a) / np.linalg.norm(b - a)
                mean = np.array([*(a + 3.0 * d), 9.0, math.atan2(d[1], d[0])])
                mixands.append(HybridMixand(1.0, label,
                                            Gaussian(mean, np.diag([0.5, 0.3, 0.4, 0.01]))))
        mix = normalize(mixands)
        cfg = EngineConfig(e_res_max=0.1, max_split_depth=1, reduction=ReductionConfig(10))
        for _ in range(cfg.n_steps):
            fanned = step_discrete(mix, model)
            weights, labels, means, covs = _step_discrete_reference(mix, model)
            assert fanned.labels == labels
            for got, want in ((fanned.weights, weights), (fanned.means, means), (fanned.covs, covs)):
                assert np.array_equal(got, want)
            mix = reduce_mixture(step_continuous(fanned, model, cfg, lib), cfg.reduction)
            mix = normalize(mix, mix.time_index, weight_floor=hgmm.core.WEIGHT_FLOOR)

    def test_no_successors_and_no_mover_raises_nothing(self):
        model = StayingModel(np.eye(1), routing={"s": []})
        mix = single(Gaussian(np.zeros(1), np.eye(1)))
        assert step_discrete(mix, model) is mix


class TestStepContinuous:
    def test_linear_model_matches_kalman_prediction(self):
        a = np.array([[0.8, 0.2], [0.0, 1.1]])
        b = np.array([[0.1], [0.3]])
        cov_v = np.array([[0.5]])
        model = LinearModel(a, b, cov_v)
        g = Gaussian(np.array([1.0, -1.0]), np.diag([0.4, 0.9]))
        cfg = EngineConfig(e_res_max=1e-9, dt=1.0, horizon=1.0, normalization="raw")
        out = step_continuous(single(g), model, cfg)
        assert len(out) == 1
        got = out.mixands[0].gaussian
        assert np.allclose(got.mean, a @ g.mean, atol=1e-9)
        assert np.allclose(got.cov, a @ g.cov @ a.T + b @ cov_v @ b.T, atol=1e-8)

    def test_splitting_improves_ungm_accuracy(self, lib):
        model = UngmModel()
        prior = Gaussian(np.array([0.5]), np.eye(1))
        truth = ungm_truth_density(prior, k=0)
        klds = {}
        for e_res_max in (np.inf, 0.01):
            cfg = EngineConfig(
                e_res_max=e_res_max,
                split_n=5,
                split_sigma=0.3,
                max_split_depth=2,
                reduction=ReductionConfig(64),
                dt=1.0,
                horizon=1.0,
                normalization="raw",
            )
            frame = anticipate(single(prior, alpha=0), model, cfg, lib)[0]
            grid = default_grid(frame)
            klds[e_res_max] = numerical_kld(
                lambda x: mixture_pdf_points(frame, x[:, None]), truth, grid
            )
        assert klds[0.01] < klds[np.inf]


def _stacked_sets(mix, model):
    """State blocks of a frame's sigma sets, and their images, one dynamics call per mixand."""
    s = generate_sigma_points((mix.means, mix.covs), model.process_noise)
    post = np.stack([model.f_c_batch(alpha, xs, vs) for alpha, xs, vs
                     in zip(mix.labels, s.state_points, s.noise_points)])
    return s.state_block(), post[:, : 1 + 2 * model.n_x]


class TestLevelSynchronousStep:
    @settings(max_examples=30, deadline=None)
    @given(
        case=st.sampled_from(["turn", "intersection", "noise-free"]),
        m=st.integers(1, 6),
        depth=st.integers(0, 3),
        e_res_max=st.sampled_from([0.0, 0.05, 0.2, math.inf]),
        normalization=st.sampled_from(["raw", "scaled"]),
        with_lib=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    @example(case="intersection", m=6, depth=2, e_res_max=0.05, normalization="scaled",
             with_lib=True, seed=3)
    @example(case="turn", m=4, depth=3, e_res_max=0.0, normalization="raw", with_lib=True, seed=4)
    @example(case="noise-free", m=5, depth=3, e_res_max=0.0, normalization="raw",
             with_lib=True, seed=5)
    def test_matches_depth_first_reference(self, case, m, depth, e_res_max, normalization,
                                           with_lib, seed, lib):
        model = NOISE_FREE if case == "noise-free" else BICYCLES[case]
        # The fan-out leaves several labels in one level.
        mix = step_discrete(random_prior(np.random.default_rng(seed), m, case), model)
        cfg = EngineConfig(e_res_max=e_res_max, max_split_depth=depth,
                           normalization=normalization)
        lib = lib if with_lib else None
        want = _step_continuous_reference(mix, model, cfg, lib)
        assert_frames_close(step_continuous(mix, model, cfg, lib), want)

    @settings(max_examples=20, deadline=None)
    @given(
        case=st.sampled_from(["turn", "intersection", "noise-free"]),
        m=st.integers(1, 6),
        normalization=st.sampled_from(["raw", "scaled"]),
        seed=st.integers(0, 10_000),
    )
    def test_stacked_assessment_matches_per_mixand(self, case, m, normalization, seed):
        model = NOISE_FREE if case == "noise-free" else BICYCLES[case]
        mix = step_discrete(random_prior(np.random.default_rng(seed), m, case), model)
        pre, post = _stacked_sets(mix, model)
        report = assess_linearity(pre, post, prior_cov=mix.covs, normalization=normalization,
                                  e_res_max=0.05)
        for i, cov in enumerate(mix.covs):
            e_res, passed, axis = _assess_reference(pre[i], post[i], cov, normalization, 0.05)
            assert report.e_res[i] == pytest.approx(e_res, rel=1e-12, abs=1e-12)
            assert report.passed[i] == passed
            assert np.allclose(report.split_axis[i], axis, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", ["turn", "noise-free"])
    def test_singular_covariance_takes_the_eigen_path_alone(self, case, lib, monkeypatch,
                                                            random_spd):
        # One PSD but singular covariance makes the stacked Cholesky fail for
        # the whole level; only that mixand may fall back to the eigen path.
        model = NOISE_FREE if case == "noise-free" else BICYCLES[case]
        rng = np.random.default_rng(11)
        mix = random_prior(rng, 4, case)
        covs = np.stack([random_spd(rng, mix.dim) for _ in range(4)])
        covs[2] = np.diag([1.0] * (mix.dim - 1) + [0.0])
        mix = normalize((mix.weights, mix.means, covs, mix.labels))
        cfg = EngineConfig(e_res_max=0.05, max_split_depth=2, normalization="raw")
        want = _step_continuous_reference(mix, model, cfg, lib)
        fallbacks = []
        real_eigh = hgmm.core.eigh
        monkeypatch.setattr(hgmm.core, "eigh", lambda a: fallbacks.append(a) or real_eigh(a))
        assert_frames_close(step_continuous(mix, model, cfg, lib), want)
        assert len(fallbacks) == 1 and np.array_equal(fallbacks[0], covs[2])

    def test_depth_cap_warning_counts_mixands_as_an_int(self, lib, caplog):
        prior = single(Gaussian(np.array([20.0, 0.0, 9.0, 0.0]), np.diag([2.0, 2.0, 2.0, 0.1])),
                       alpha="approach")
        cfg = EngineConfig(e_res_max=0.05, max_split_depth=1, normalization="raw")
        with caplog.at_level(logging.WARNING, logger="hgmm.engine"):
            step_continuous(prior, BICYCLES["turn"], cfg, lib)
        (record,) = [r for r in caplog.records if "depth cap" in r.msg]
        assert type(record.args[1]) is int and record.args[1] == 5


class TestClosedFormFit:
    """The engine's closed-form fit agrees with the QR of ``assess_linearity``."""

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(["turn", "intersection", "noise-free"]),
        m=st.integers(1, 6),
        normalization=st.sampled_from(["raw", "scaled"]),
        seed=st.integers(0, 10_000),
    )
    @example(case="noise-free", m=6, normalization="raw", seed=5)
    def test_matches_assess_linearity(self, case, m, normalization, seed):
        model = NOISE_FREE if case == "noise-free" else BICYCLES[case]
        mix = step_discrete(random_prior(np.random.default_rng(seed), m, case), model)
        pre, post = _stacked_sets(mix, model)
        report = assess_linearity(pre, post, prior_cov=mix.covs, normalization=normalization)
        fit = _symmetric_fit(pre, post, mix.covs, normalization, math.inf)
        # The noise-free model is affine on the singular-x0 mixands: both
        # residuals are rounding there, so they agree to rounding of the images.
        rounding = _normalized(1e-12 * np.abs(post).max(axis=(1, 2)), pre.shape[1], mix.covs,
                               normalization)
        assert np.array_equal(fit.rank_deficient, report.rank_deficient)
        assert (np.abs(fit.e_res - report.e_res) <= 1e-12 * report.e_res + rounding).all()
        for e_res_max in np.quantile(report.e_res, [0.0, 0.5, 1.0]) * [0.5, 1.0, 2.0]:
            off = np.abs(report.e_res - e_res_max) > 1e-9 * e_res_max
            passed = _symmetric_fit(pre, post, mix.covs, normalization, e_res_max).passed
            assert np.array_equal(passed[off], (report.rank_deficient | (report.e_res <= e_res_max))[off])
        # An error eps in the moment turns its top eigenvector by up to
        # eps / gap: the axes agree within 1e-12 of top / gap.
        rows = np.flatnonzero(~report.rank_deficient)
        evals = np.linalg.eigvalsh(report.moment[rows])
        tol = 1e-12 * evals[:, -1] / (evals[:, -1] - evals[:, -2])
        assert (np.abs(fit.split_axes(rows) - report.split_axis[rows]).max(axis=1) <= tol).all()

    @pytest.mark.parametrize("variances, deficient", [
        ([2.0, 2.0, 2.0, 0.0], True),
        ([2.0, 2.0, 2.0, 1e-30], True),
        ([2.0, 2.0, 2.0, 1e-22], False),
        ([2.0, 2.0, 2.0, 1e-20], False),
        ([1e-26] * 4, True),
    ])
    def test_rank_rule(self, variances, deficient, lib):
        # The spread sqrt(3 variance) along the heading against 1e-12 times
        # the largest pivot, sqrt(6): 0 and 1.7e-15 are rank-deficient,
        # 1.7e-11 and 1.7e-10 are not.  The QR of ``assess_linearity`` calls
        # 1e-22 rank-deficient too, as its pivots carry the mean.  Pivots
        # below 1 are held against 1: a set 1.7e-13 wide is rank-deficient.
        prior = single(Gaussian(np.array([20.0, 0.0, 9.0, 0.0]), np.diag(variances)),
                       alpha="approach")
        model = BICYCLES["turn"]
        pre, post = _stacked_sets(prior, model)
        fit = _symmetric_fit(pre, post, prior.covs, "raw", 0.0)
        assert fit.rank_deficient.tolist() == [deficient]
        assert fit.passed.tolist() == [deficient]       # every residual fails e_res_max = 0
        cfg = EngineConfig(e_res_max=0.0, max_split_depth=1, normalization="raw")
        assert len(step_continuous(prior, model, cfg, lib)) == (1 if deficient else cfg.split_n)

    def test_singular_noise_free_covariance_is_rank_deficient(self, lib):
        # No variance in x0, where the model bends: the eigen path's zero
        # eigenvalue gives a zero spread, so the set is rank-deficient.
        cov = np.zeros((3, 3))
        cov[1:, 1:] = [[1.0, 0.4], [0.4, 0.5]]
        prior = single(Gaussian(np.array([0.5, -1.0, 2.0]), cov), alpha="a")
        pre, post = _stacked_sets(prior, NOISE_FREE)
        fit = _symmetric_fit(pre, post, prior.covs, "raw", 0.0)
        assert fit.rank_deficient.tolist() == [True] and fit.passed.tolist() == [True]
        assert assess_linearity(pre[0], post[0], normalization="raw").rank_deficient
        cfg = EngineConfig(e_res_max=0.0, max_split_depth=1, normalization="raw")
        assert len(step_continuous(prior, NOISE_FREE, cfg, lib)) == 1


class TestMomentChecks:
    """Rows are checked where they enter the system, never inside ``anticipate``."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        real = hgmm.core._check_moments
        monkeypatch.setattr(hgmm.core, "_check_moments",
                            lambda mean, cov: calls.append(len(mean)) or real(mean, cov))
        return calls

    def test_no_check_and_one_normalize_per_anticipate_step(self, checks, lib, monkeypatch):
        # Wide prior before the junction, cap 4: every step splits and merges,
        # and some fan out.
        prior = single(Gaussian(np.array([36.0, 0.0, 9.0, 0.0]), np.diag([2.0, 2.0, 2.0, 0.1])),
                       alpha="approach")
        cfg = EngineConfig(e_res_max=0.05, max_split_depth=2, reduction=ReductionConfig(4),
                           normalization="raw", horizon=1.0)
        normalized = []
        real = hgmm.engine.normalize
        monkeypatch.setattr(hgmm.engine, "normalize",
                            lambda *args, **kw: normalized.append(1) or real(*args, **kw))
        checks.clear()
        frames = anticipate(prior, BICYCLES["intersection"], cfg, lib)
        assert len(set(frames[-1].labels)) > 1 and len(frames[-1]) == 4
        assert checks == []
        assert len(normalized) == cfg.n_steps == 10

    def test_rows_of_a_checked_frame_are_not_checked_again(self, checks):
        model = LinearModel(np.eye(1), routing={"a": [("b", 0.5), ("c", 0.5)]})
        mix = HybridMixture(tuple(HybridMixand(w, label, Gaussian(np.array([x]), np.eye(1)))
                                  for w, label, x in ((0.5, "a", 0.0), (0.5 - 1e-8, "a", 1.0),
                                                      (1e-8, "d", 2.0))))
        checks.clear()
        assert len(step_discrete(mix, model)) == 5                    # fan-out
        assert len(normalize(mix, weight_floor=1e-6)) == 2            # weight floor
        assert len(reduce_mixture(mix, ReductionConfig(2))) == 2      # one merge
        assert checks == []
        normalize((mix.weights, mix.means, mix.covs, mix.labels))
        assert checks == [3]


class TestAnticipate:
    def test_zero_noise_linear_two_steps(self):
        a = np.array([[0.9]])
        model = LinearModel(a)
        g = Gaussian(np.array([2.0]), np.array([[1.0]]))
        cfg = EngineConfig(e_res_max=np.inf, dt=0.5, horizon=1.0)
        frames = anticipate(single(g), model, cfg)
        assert len(frames) == 2
        assert frames[1].mixands[0].gaussian.mean[0] == pytest.approx(2.0 * 0.81, abs=1e-9)
        assert frames[1].mixands[0].gaussian.cov[0, 0] == pytest.approx(0.81**2, rel=1e-8)

    def test_frame_count_and_time_index(self):
        model = LinearModel(np.eye(1))
        cfg = EngineConfig(e_res_max=np.inf, dt=0.1, horizon=3.5)
        frames = anticipate(single(Gaussian(np.zeros(1), np.eye(1))), model, cfg)
        assert len(frames) == 35
        assert [f.time_index for f in frames] == list(range(1, 36))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(dt=0.3, horizon=1.0)
        assert EngineConfig(dt=0.1, horizon=4.5).n_steps == 45
        for bad in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                EngineConfig(dt=bad)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                EngineConfig(horizon=bad)
        for bad in (np.nan, -0.1):
            with pytest.raises(ValueError):
                EngineConfig(e_res_max=bad)
        assert EngineConfig(e_res_max=np.inf).e_res_max == np.inf
        assert EngineConfig(e_res_max=0.0).e_res_max == 0.0
        with pytest.raises(ValueError):
            EngineConfig(normalization="bogus")

    @pytest.mark.parametrize("name", ["split_n", "max_split_depth"])
    @pytest.mark.parametrize("bad", [1.5, 2.0, "2"])
    def test_integer_settings_reject_non_integers(self, name, bad):
        with pytest.raises(ValueError, match=name):
            EngineConfig(**{name: bad})
        assert getattr(EngineConfig(**{name: np.int64(3)}), name) == 3

    def test_model_step_must_equal_the_engine_step(self):
        prior = single(Gaussian(np.array([20.0, 0.0, 9.0, 0.0]), np.diag([1.0, 1.0, 1.0, 0.05])),
                       alpha="approach")
        cfg = EngineConfig(e_res_max=np.inf, dt=0.2, horizon=0.4)
        with pytest.raises(ValueError, match="engine steps 0.2"):
            anticipate(prior, BICYCLES["turn"], cfg)       # the default bicycle steps 0.1 s
        model = BicycleModel(builtin_network("turn"), BicycleConfig(dt=0.2))
        assert model.dt == 0.2 and LinearModel(np.eye(1)).dt is None
        assert len(anticipate(prior, model, cfg)) == 2

    def test_threads_other_than_one_rejected(self):
        model = LinearModel(np.eye(1))
        cfg = EngineConfig(e_res_max=np.inf, dt=1.0, horizon=1.0)
        with pytest.raises(ValueError):
            anticipate(single(Gaussian(np.zeros(1), np.eye(1))), model, cfg, threads=2)

    @pytest.mark.parametrize("network", ["turn", "intersection"])
    @pytest.mark.parametrize("e_res_max, cap", [(0.05, 10), (0.05, 4), (0.1, 10)])
    def test_one_ulp_prior_move_keeps_the_frames(self, network, e_res_max, cap, lib):
        # Wide prior: at e_res_max 0.05 every step splits to depth 2 and the
        # reducer meets costs of mirror-image children that tie in exact
        # arithmetic; 0.1 is a control that splits less.  A last-bit change
        # of the prior must not decide which of the tied pairs merges.
        mean, cov = np.array([20.0, 0.0, 9.0, 0.0]), np.diag([2.0, 2.0, 2.0, 0.1])
        cfg = EngineConfig(e_res_max=e_res_max, max_split_depth=2,
                           reduction=ReductionConfig(cap), normalization="raw")
        want = anticipate(single(Gaussian(mean, cov), alpha="approach"), BICYCLES[network],
                          cfg, lib)
        for k in range(len(mean)):
            moved = mean.copy()
            moved[k] = np.nextafter(moved[k], np.inf)
            got = anticipate(single(Gaussian(moved, cov), alpha="approach"), BICYCLES[network],
                             cfg, lib)
            for frame, ref in zip(got, want, strict=True):
                assert frame.labels == ref.labels
                for key in ("weights", "means", "covs"):
                    np.testing.assert_allclose(getattr(frame, key), getattr(ref, key), rtol=0,
                                               atol=1e-9, err_msg=key)

    def test_model_failure_names_the_mixand_label(self):
        class FailingModel(LinearModel):
            def f_c_batch(self, alpha_next, xs, vs):
                raise ModelEvaluationFailure("map undefined here")

        model = FailingModel(np.eye(1))
        cfg = EngineConfig(e_res_max=np.inf, dt=1.0, horizon=1.0)
        with pytest.raises(ModelEvaluationFailure, match="alpha='lane-7'.*map undefined here"):
            anticipate(single(Gaussian(np.zeros(1), np.eye(1)), alpha="lane-7"), model, cfg)

    @pytest.mark.parametrize("network, x, label", [
        pytest.param("turn", 20.0, "approach", id="turn"),
        # Past the junction: one level holds left, straight and right.
        pytest.param("intersection", 41.0, "straight", id="intersection"),
    ])
    @pytest.mark.parametrize("e_res_max", [np.inf, 0.1])
    def test_non_finite_model_output_names_the_mixand_label(self, network, x, label, e_res_max,
                                                            lib):
        class NanModel(BicycleModel):
            def f_c_batch(self, alpha_next, xs, vs):
                out = super().f_c_batch(alpha_next, xs, vs)
                if alpha_next == label:
                    out[3, 1] = np.nan
                return out

        model = NanModel(builtin_network(network))
        prior = Gaussian(np.array([x, 0.0, 9.0, 0.0]), np.diag([1.0, 1.0, 1.0, 0.05]))
        cfg = EngineConfig(e_res_max=e_res_max, dt=0.1, horizon=0.5, normalization="raw")
        with pytest.raises(ModelEvaluationFailure, match=f"alpha='{label}'.*non-finite"):
            anticipate(single(prior, alpha="approach"), model, cfg, lib)

    def test_model_without_batch_dynamics_cannot_be_built(self):
        class NoDynamics(DynamicsModel):
            n_x, n_v = 1, 0
            process_noise = NO_NOISE

            def successor_options(self, alpha):
                return [(alpha, 1.0)]

            def transition_mask(self, alpha, xs):
                return np.zeros(len(xs), dtype=bool)

        with pytest.raises(TypeError):
            NoDynamics()


def fuzz_prior(rng, m, case, squash):
    """``random_prior`` on any network, each covariance's least eigenvalue scaled by ``squash``.

    The straight network reuses the turn prior on its one segment, ``main``.
    """
    mix = random_prior(rng, m, "turn" if case == "straight" else case)
    labels = ["main"] * m if case == "straight" else mix.labels
    covs = mix.covs
    if squash < 1.0:
        w, v = np.linalg.eigh(covs)
        w[:, 0] *= squash
        covs = symmetrize((v * w[:, None, :]) @ v.swapaxes(1, 2))
    return normalize((mix.weights, mix.means, covs, labels))


class PoisonedModel(DynamicsModel):
    """A model whose ``call``-th ``f_c_batch`` call puts ``value`` in one entry of its output.

    ``poisoned`` is the label of that call, or None while it has not happened.
    """

    def __init__(self, model, call, value, seed):
        self.model, self.call, self.value = model, call, value
        self.n_x, self.n_v, self.dt = model.n_x, model.n_v, model.dt
        self.rng = np.random.default_rng(seed)
        self.calls, self.poisoned = 0, None

    @property
    def process_noise(self):
        return self.model.process_noise

    def successor_options(self, alpha):
        return self.model.successor_options(alpha)

    def transition_mask(self, alpha, xs):
        return self.model.transition_mask(alpha, xs)

    def f_c_batch(self, alpha_next, xs, vs):
        out = np.array(self.model.f_c_batch(alpha_next, xs, vs), dtype=float)
        self.calls += 1
        if self.calls == self.call:
            out[self.rng.integers(out.shape[0]), self.rng.integers(out.shape[1])] = self.value
            self.poisoned = alpha_next
        return out


class TestAnticipateInvariants:
    """Every frame ``anticipate`` returns is valid, with no check inside the pipeline.

    A model that emits a non-finite value instead makes ``anticipate`` raise
    ``ModelEvaluationFailure`` naming the label of the failed call.
    """

    @settings(max_examples=250, deadline=None)
    @given(
        case=st.sampled_from(["straight", "turn", "intersection", "noise-free"]),
        m=st.integers(1, 4),
        squash=st.sampled_from([1.0, 1e-6, 1e-12]),
        e_res_max=st.one_of(st.just(math.inf), st.floats(0.0, 0.3)),
        cap=st.integers(1, 12),
        depth=st.integers(0, 2),
        split_n=st.sampled_from([3, 5, 7]),
        normalization=st.sampled_from(["raw", "scaled"]),
        steps=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        poison_call=st.sampled_from([0, 0, 0, 1, 2, 7]),    # 0: a model that behaves
        poison=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    @example(case="intersection", m=4, squash=1e-12, e_res_max=0.0, cap=3, depth=2, split_n=7,
             normalization="raw", steps=5, seed=1, poison_call=0, poison=np.nan)
    @example(case="noise-free", m=4, squash=1.0, e_res_max=0.0, cap=2, depth=2, split_n=5,
             normalization="raw", steps=5, seed=5, poison_call=0, poison=np.nan)
    @example(case="intersection", m=4, squash=1.0, e_res_max=0.0, cap=3, depth=2, split_n=5,
             normalization="raw", steps=5, seed=1, poison_call=7, poison=np.nan)
    def test_frames_are_valid(self, case, m, squash, e_res_max, cap, depth, split_n,
                              normalization, steps, seed, poison_call, poison, lib):
        if case == "noise-free":
            model, network_labels = NOISE_FREE, {"a", "b", "c"}
        else:
            model = BICYCLES[case]
            network_labels = set(model.network.segments)
        prior = fuzz_prior(np.random.default_rng(seed), m, case, squash)
        cfg = EngineConfig(e_res_max=e_res_max, split_n=split_n, max_split_depth=depth,
                           reduction=ReductionConfig(cap), normalization=normalization,
                           horizon=0.1 * steps)
        if poison_call:
            model = PoisonedModel(model, poison_call, poison, seed)
        try:
            frames = anticipate(prior, model, cfg, lib)
        except ModelEvaluationFailure as exc:
            assert poison_call and model.poisoned is not None
            assert f"alpha={model.poisoned!r}" in str(exc) and "non-finite" in str(exc)
            return
        assert not poison_call or model.poisoned is None    # the run ended first
        assert [f.time_index for f in frames] == list(range(1, steps + 1))
        for f in frames:
            assert 1 <= len(f) <= cap and set(f.labels) <= network_labels
            for key in ("weights", "means", "covs"):
                assert np.isfinite(getattr(f, key)).all(), key
            assert (f.weights > 0).all() and abs(math.fsum(f.weights) - 1.0) <= 1e-12
            assert np.array_equal(f.covs, f.covs.swapaxes(1, 2))
            trace = np.trace(f.covs, axis1=1, axis2=2)
            assert (np.linalg.eigvalsh(f.covs)[:, 0] >= -1e-9 * trace).all()
