"""Anticipation engine tests."""

import numpy as np
import pytest

from hgmm import (
    DynamicsModel,
    EngineConfig,
    Gaussian,
    HybridMixand,
    HybridMixture,
    NO_NOISE,
    ProcessNoise,
    ReductionConfig,
    anticipate,
    step_continuous,
    step_discrete,
)
from hgmm.errors import ModelEvaluationFailure, NoSuccessorError
from hgmm.evaluation import default_grid, mixture_pdf_points, numerical_kld
from hgmm.models import UngmModel, ungm_truth_density


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

    def test_threads_other_than_one_rejected(self):
        model = LinearModel(np.eye(1))
        cfg = EngineConfig(e_res_max=np.inf, dt=1.0, horizon=1.0)
        with pytest.raises(ValueError):
            anticipate(single(Gaussian(np.zeros(1), np.eye(1))), model, cfg, threads=2)

    def test_model_failure_names_the_mixand_label(self):
        class FailingModel(LinearModel):
            def f_c_batch(self, alpha_next, xs, vs):
                raise ModelEvaluationFailure("map undefined here")

        model = FailingModel(np.eye(1))
        cfg = EngineConfig(e_res_max=np.inf, dt=1.0, horizon=1.0)
        with pytest.raises(ModelEvaluationFailure, match="alpha='lane-7'.*map undefined here"):
            anticipate(single(Gaussian(np.zeros(1), np.eye(1)), alpha="lane-7"), model, cfg)

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
