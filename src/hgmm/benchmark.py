"""Single-step propagation benchmarks on the univariate models.

The protocol: draw random scalar priors (means uniform on [-2, 2],
variances uniform on (0, 2]), propagate each one step through the
nonlinear map both without splitting and with the adaptive splitting
pipeline, and compare against the exact pushforward density with the
numerically integrated divergence.  The no-split arm is one stacked level
of the engine's own layers over all priors, so each ``e_res`` is the raw
residual the engine gates splits on; the split arm runs ``anticipate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Gaussian, HybridMixand, HybridMixture
from .engine import EngineConfig, anticipate
from .evaluation import default_grid, mixture_pdf_points, numerical_kld, pearson
from .linearity import _symmetric_fit
from .models import CubicModel, UngmModel, cubic_truth_density, ungm_truth_density
from .reduction import ReductionConfig
from .sigma import generate_sigma_points, propagate_points, recombine
from .splitting import SplitLibrary

# Benchmark model name -> (model class, exact one-step density of a prior).
BENCHMARK_MODELS = {
    "ungm": (UngmModel, ungm_truth_density),
    "cubic": (CubicModel, cubic_truth_density),
}

# Points of the trapezoid grid each divergence is integrated on.
GRID_POINTS = 20000


def sample_priors(samples: int, seed: int) -> list:
    """Random scalar priors of the benchmark protocol."""
    rng = np.random.default_rng(seed)
    priors = []
    for _ in range(samples):
        mean = rng.uniform(-2.0, 2.0)
        var = rng.uniform(0.0, 2.0)
        var = max(var, 1e-6)
        priors.append(Gaussian(np.array([mean]), np.array([[var]])))
    return priors


def split_config(split_n: int, split_sigma: float, e_res_max: float,
                 max_split_depth: int) -> EngineConfig:
    """The split arm's one-step engine setting; ``ValueError`` names a bad setting."""
    return EngineConfig(e_res_max=e_res_max, split_n=split_n, split_sigma=split_sigma,
                        max_split_depth=max_split_depth, reduction=ReductionConfig(2000),
                        dt=1.0, horizon=1.0)


@dataclass(frozen=True)
class BenchmarkResult:
    model: str
    samples: int
    seed: int
    no_split_kld: np.ndarray
    split_kld: np.ndarray | None
    e_res: np.ndarray

    @property
    def correlation(self) -> float:
        return pearson(self.e_res, self.no_split_kld)


def _kld(mix: HybridMixture, truth) -> float:
    """Divergence of a scalar mixture from the exact density ``truth``."""
    return numerical_kld(lambda x: mixture_pdf_points(mix, x[:, None]), truth,
                         default_grid(mix, GRID_POINTS))


def run_benchmark(
    model_name: str,
    samples: int,
    seed: int,
    lib: SplitLibrary | None = None,
    split_n: int = 5,
    split_sigma: float = 0.3,
    e_res_max: float = 0.01,
    max_split_depth: int = 2,
) -> BenchmarkResult:
    """Run the full protocol; the split arm is skipped when no library is given.

    Split settings that ``EngineConfig`` rejects raise before any prior is propagated.
    The split arm keeps its own (5, 0.3), not ``EngineConfig``'s split
    shape: acceptance criteria 1-4 fix this protocol.  Its cap of 2000
    mixands makes the engine's split budget ``split_n`` x 2000 rows a step;
    at depth 2 one prior makes at most ``split_n``^2, so the budget does not
    bind.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    cfg = split_config(split_n, split_sigma, e_res_max, max_split_depth)
    model_cls, truth_density = BENCHMARK_MODELS[model_name]
    model = model_cls()
    priors = sample_priors(samples, seed)
    truths = [truth_density(prior) for prior in priors]

    sigma_set = generate_sigma_points((np.stack([prior.mean for prior in priors]),
                                       np.stack([prior.cov for prior in priors])),
                                      model.process_noise)
    # Each benchmark model takes its first state to one label whatever the prior: no gate.
    [(label, _)] = model.successor_options(0)
    propagated = propagate_points(sigma_set, label, model.f_c_batch)
    residuals = _symmetric_fit(sigma_set.state_block(), propagated[:, : 1 + 2 * model.n_x],
                               math.inf).e_res
    no_split = np.array([
        _kld(HybridMixture((HybridMixand(1.0, label, Gaussian(mean, cov)),)), truth)
        for mean, cov, truth in zip(*recombine(propagated), truths)
    ])

    with_split = None
    if lib is not None:
        with_split = np.array([
            _kld(anticipate(HybridMixture((HybridMixand(1.0, 0, prior),)), model, cfg, lib)[0],
                 truth)
            for prior, truth in zip(priors, truths)
        ])
    return BenchmarkResult(model_name, samples, seed, no_split, with_split, residuals)
