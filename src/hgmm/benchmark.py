"""Single-step propagation benchmarks on the univariate models.

The protocol: draw random scalar priors (means uniform on [-2, 2],
variances uniform on (0, 2]), propagate each one step through the
nonlinear map both without splitting and with the adaptive splitting
pipeline, and compare against the exact pushforward density with the
numerically integrated divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Gaussian, HybridMixand, HybridMixture
from .engine import EngineConfig, anticipate
from .evaluation import default_grid, mixture_pdf_points, numerical_kld, pearson
from .linearity import assess_linearity
from .models import CubicModel, UngmModel, cubic_truth_density, ungm_truth_density
from .reduction import ReductionConfig
from .sigma import generate_sigma_points, propagate_points, recombine
from .splitting import SplitLibrary

BENCHMARK_MODELS = ("ungm", "cubic")


def make_benchmark_model(name: str):
    if name == "ungm":
        return UngmModel()
    if name == "cubic":
        return CubicModel()
    raise KeyError(f"unknown benchmark model {name!r}; options: {BENCHMARK_MODELS}")


def truth_density_for(name: str, prior: Gaussian, k: int = 0):
    if name == "ungm":
        return ungm_truth_density(prior, k)
    return cubic_truth_density(prior)


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


def propagate_no_split(model, prior: Gaussian, k: int = 0):
    """One unscented step with no splitting; returns (Gaussian, raw residual)."""
    sigma_set = generate_sigma_points(prior, model.process_noise)
    [(alpha_next, _)] = model.discrete_successors(k, prior)
    propagated = propagate_points(sigma_set, alpha_next, model.f_c_batch)
    report = assess_linearity(
        sigma_set.state_block(), propagated[: 1 + 2 * model.n_x], normalization="raw"
    )
    return recombine(propagated, sigma_set.weights()), report.e_res_raw


def propagate_with_splits(
    model,
    prior: Gaussian,
    lib: SplitLibrary,
    split_n: int,
    split_sigma: float,
    e_res_max: float = 0.01,
    max_split_depth: int = 4,
    max_mixands: int = 2000,
) -> HybridMixture:
    """One adaptive step: split mixands whose raw affine residual exceeds the bound."""
    initial = HybridMixture((HybridMixand(1.0, 0, prior),))
    cfg = EngineConfig(
        e_res_max=e_res_max,
        split_n=split_n,
        split_sigma=split_sigma,
        max_split_depth=max_split_depth,
        reduction=ReductionConfig(max_mixands),
        dt=1.0,
        horizon=1.0,
        normalization="raw",
    )
    return anticipate(initial, model, cfg, lib)[0]


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


def run_benchmark(
    model_name: str,
    samples: int,
    seed: int,
    lib: SplitLibrary | None = None,
    split_n: int = 5,
    split_sigma: float = 0.3,
    e_res_max: float = 0.01,
    max_split_depth: int = 2,
    grid_points: int = 20000,
) -> BenchmarkResult:
    """Run the full protocol; the split arm is skipped when no library is given."""
    model = make_benchmark_model(model_name)
    priors = sample_priors(samples, seed)
    no_split = np.empty(samples)
    with_split = np.empty(samples) if lib is not None else None
    residuals = np.empty(samples)
    for i, prior in enumerate(priors):
        truth = truth_density_for(model_name, prior)
        approx, e_res = propagate_no_split(model, prior)
        residuals[i] = e_res
        single = HybridMixture((HybridMixand(1.0, 0, approx),))
        grid = default_grid(single, grid_points)
        no_split[i] = numerical_kld(lambda x: mixture_pdf_points(single, x[:, None]),
                                    truth, grid)
        if lib is not None:
            mix = propagate_with_splits(
                model, prior, lib, split_n, split_sigma, e_res_max, max_split_depth
            )
            grid = default_grid(mix, grid_points)
            with_split[i] = numerical_kld(lambda x: mixture_pdf_points(mix, x[:, None]),
                                          truth, grid)
    return BenchmarkResult(model_name, samples, seed, no_split, with_split, residuals)


def correlation_study(model_name: str, samples: int = 100, seed: int = 0) -> float:
    """Correlation between the affine-fit residual and the no-split divergence."""
    if samples < 30:
        raise ValueError("need at least 30 samples for a stable correlation")
    return run_benchmark(model_name, samples, seed).correlation
