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
from hgmm.models import BicycleModel, UngmModel, builtin_network, ungm_truth_density
from hgmm.sigma import RecombinationWeights
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
    return chi, ups, RecombinationWeights.for_dims(n_x, n_v, float(lam))


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
    mean = w.mean_weights @ points
    d = points - mean
    cov = symmetrize((d * w.cov_weights[:, None]).T @ d)
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


BICYCLES = {name: BicycleModel(builtin_network(name)) for name in ("turn", "intersection")}
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
        s = generate_sigma_points((mix.means, mix.covs), model.process_noise)
        post = np.stack([model.f_c_batch(alpha, xs, vs) for alpha, xs, vs
                         in zip(mix.labels, s.state_points, s.noise_points)])
        state = slice(0, 1 + 2 * model.n_x)
        report = assess_linearity(s.state_block(), post[:, state], prior_cov=mix.covs,
                                  normalization=normalization, e_res_max=0.05)
        for i, cov in enumerate(mix.covs):
            e_res, passed, axis = _assess_reference(s.state_points[i, state], post[i, state], cov,
                                                    normalization, 0.05)
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


class TestMomentChecks:
    """Rows are checked where they enter a frame, not again downstream."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        real = hgmm.core._check_moments
        monkeypatch.setattr(hgmm.core, "_check_moments",
                            lambda mean, cov: calls.append(len(mean)) or real(mean, cov))
        return calls

    def test_one_check_per_anticipate_step(self, checks, lib):
        # Wide prior before the junction, cap 4: every step splits and merges,
        # some fan out, and step 1 checks its 25 split children once.
        prior = single(Gaussian(np.array([36.0, 0.0, 9.0, 0.0]), np.diag([2.0, 2.0, 2.0, 0.1])),
                       alpha="approach")
        cfg = EngineConfig(e_res_max=0.05, max_split_depth=2, reduction=ReductionConfig(4),
                           normalization="raw", horizon=1.0)
        checks.clear()
        frames = anticipate(prior, BICYCLES["intersection"], cfg, lib)
        assert len(set(frames[-1].labels)) > 1 and len(frames[-1]) == 4
        assert len(checks) == cfg.n_steps and checks[0] == 25

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
