"""Hybrid Gaussian mixture anticipation of dynamic obstacles.

Propagates hybrid (discrete + Gaussian) mixtures through nonlinear
dynamics with sigma points, detects linearization error through the
affine-fit residual, and adaptively splits mixands using a precomputed
optimal split library.
"""

from .core import (
    Gaussian,
    HybridMixand,
    HybridMixture,
    ProcessNoise,
    NO_NOISE,
    gaussian_pdf,
    isd_terms,
    matrix_sqrt,
    mixture_moments,
    normalize,
)
from .engine import DynamicsModel, EngineConfig, anticipate, step_continuous, step_discrete
from .linearity import LinearityReport, assess_linearity
from .reduction import ReductionConfig, reduce_mixture
from .sigma import (
    SigmaSet,
    default_lambda,
    generate_sigma_points,
    propagate_points,
    recombine,
)
from .splitting import (
    CanonicalSplit,
    SplitLibrary,
    apply_split,
    build_library,
    default_library,
    optimize_canonical_split,
    solve_weight_qp,
)

__version__ = "0.1.0"

__all__ = [
    "Gaussian",
    "HybridMixand",
    "HybridMixture",
    "ProcessNoise",
    "NO_NOISE",
    "gaussian_pdf",
    "isd_terms",
    "matrix_sqrt",
    "mixture_moments",
    "normalize",
    "DynamicsModel",
    "EngineConfig",
    "anticipate",
    "step_continuous",
    "step_discrete",
    "LinearityReport",
    "assess_linearity",
    "ReductionConfig",
    "reduce_mixture",
    "SigmaSet",
    "default_lambda",
    "generate_sigma_points",
    "propagate_points",
    "recombine",
    "CanonicalSplit",
    "SplitLibrary",
    "apply_split",
    "build_library",
    "default_library",
    "optimize_canonical_split",
    "solve_weight_qp",
]
