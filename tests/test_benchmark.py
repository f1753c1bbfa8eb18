"""The univariate benchmark runs the engine's own unscented step.

Its no-split arm stacks every prior into one engine level, so each prior's
Gaussian and ``e_res`` must be what the engine itself gives that prior
alone: the Gaussian of ``anticipate`` with no splitting, and the residual
at which ``step_continuous`` starts to split.
"""

import math

import numpy as np
import pytest

from hgmm import (
    EngineConfig,
    HybridMixand,
    HybridMixture,
    anticipate,
    step_continuous,
    step_discrete,
)
from hgmm.benchmark import BENCHMARK_MODELS, GRID_POINTS, run_benchmark, sample_priors
from hgmm.evaluation import default_grid, mixture_pdf_points, numerical_kld

SAMPLES, SEED = 10, 7


@pytest.fixture(scope="module", params=sorted(BENCHMARK_MODELS))
def case(request):
    """(model, exact density of a prior, priors, benchmark result) of one model."""
    model_cls, truth_density = BENCHMARK_MODELS[request.param]
    res = run_benchmark(request.param, SAMPLES, SEED)
    return model_cls(), truth_density, sample_priors(SAMPLES, SEED), res


def single(prior):
    return HybridMixture((HybridMixand(1.0, 0, prior),))


def test_no_split_kld_is_that_of_anticipate_on_each_prior_alone(case):
    model, truth_density, priors, res = case
    cfg = EngineConfig(e_res_max=math.inf, dt=1.0, horizon=1.0)
    for i, prior in enumerate(priors):
        [frame] = anticipate(single(prior), model, cfg)
        kld = numerical_kld(lambda x: mixture_pdf_points(frame, x[:, None]),
                            truth_density(prior), default_grid(frame, GRID_POINTS))
        assert res.no_split_kld[i] == kld, f"prior {i}"


def test_e_res_is_the_engines_split_threshold(case, lib, caplog):
    model, _, priors, res = case
    caplog.set_level("ERROR", logger="hgmm.engine")     # the depth cap is reached on purpose
    for i, prior in enumerate(priors):
        frame = step_discrete(single(prior), model)
        counts = []
        for e_res_max in (res.e_res[i], np.nextafter(res.e_res[i], 0.0)):
            cfg = EngineConfig(e_res_max=float(e_res_max), split_n=5, split_sigma=0.3,
                               max_split_depth=1, dt=1.0, horizon=1.0, normalization="raw")
            counts.append(len(step_continuous(frame, model, cfg, lib)))
        assert counts == [1, 5], f"prior {i}: e_res {res.e_res[i]!r}"


@pytest.mark.parametrize("kwargs, setting", [
    ({"samples": 0}, "samples"),
    ({"samples": 3, "max_split_depth": -1}, "max_split_depth"),
])
def test_bad_setting_raises_value_error_naming_it(kwargs, setting):
    with pytest.raises(ValueError, match=setting):
        run_benchmark("ungm", seed=SEED, **kwargs)
