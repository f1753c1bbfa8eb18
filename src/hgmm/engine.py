"""Hybrid mixture propagation engine.

One anticipation step runs the discrete transition (hypothesis fan-out),
then the continuous sigma-point propagation with linearity-gated
recursive splitting, then mixture reduction.  Frames are immutable
array-backed mixtures, one per time step; within a step each mixand is
passed as its weight, label and a ``Gaussian`` on rows of those arrays.
"""

from __future__ import annotations

import logging
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Gaussian,
    HybridMixture,
    ProcessNoise,
    WEIGHT_FLOOR,
    normalize,
)
from .errors import ModelEvaluationFailure, NoSuccessorError
from .linearity import assess_linearity
from .reduction import ReductionConfig, reduce_mixture
from .sigma import generate_sigma_points, propagate_points, recombine
from .splitting import SplitLibrary, apply_split

log = logging.getLogger(__name__)


class DynamicsModel(ABC):
    """Interface required of every obstacle dynamics model.

    A model defines all four abstract members below; it states its
    continuous dynamics in batch form only, and its discrete transitions as
    a successor map plus a per-state gate.  Implementations must be immutable.
    """

    n_x: int
    n_v: int

    @property
    @abstractmethod
    def process_noise(self) -> ProcessNoise:
        """Additive process noise whose draws ``f_c_batch`` receives."""

    @abstractmethod
    def successor_options(self, alpha) -> list:
        """(alpha_next, probability) pairs taken on leaving ``alpha``; sum to 1."""

    @abstractmethod
    def transition_mask(self, alpha, xs: np.ndarray) -> np.ndarray:
        """One bool per row of ``xs``: that state leaves ``alpha`` this step."""

    @abstractmethod
    def f_c_batch(self, alpha_next, xs: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Map (P, n_x) states and (P, n_v) noise draws to (P, n_x) next states."""

    def discrete_successors(self, alpha, gaussian: Gaussian) -> list:
        """(alpha_next, probability) pairs for a mixand, gated on its mean."""
        if self.transition_mask(alpha, gaussian.mean[None, :])[0]:
            return self.successor_options(alpha)
        return [(alpha, 1.0)]


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for one anticipation run."""

    e_res_max: float = 0.1
    split_n: int = 5
    split_sigma: float = 0.3
    max_split_depth: int = 4
    reduction: ReductionConfig = field(default_factory=ReductionConfig)
    lam: float | None = None          # sigma scaling; None -> 3 - (n_x + n_v)
    dt: float = 0.1
    horizon: float = 3.5
    normalization: str = "scaled"     # residual metric mode: "raw" | "scaled"

    def __post_init__(self):
        for name in ("dt", "horizon"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.e_res_max >= 0.0:
            raise ValueError(f"e_res_max must be non-negative or inf, got {self.e_res_max}")
        if self.normalization not in ("raw", "scaled"):
            raise ValueError(f"normalization must be raw or scaled, got {self.normalization!r}")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def step_discrete(mix: HybridMixture, model: DynamicsModel) -> HybridMixture:
    """Fan each mixand out over its possible next discrete states."""
    out = []
    for i, (w, alpha) in enumerate(zip(mix.weights.tolist(), mix.labels)):
        succ = model.discrete_successors(alpha, Gaussian._unchecked(mix.means[i], mix.covs[i]))
        if not succ:
            raise NoSuccessorError(f"discrete state {alpha!r} has no successors")
        total = sum(p for _, p in succ)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"successor probabilities of {alpha!r} sum to {total}")
        out.extend((i, w * p, alpha_next) for alpha_next, p in succ if p > 0.0)
    rows, weights, labels = map(list, zip(*out))
    if weights == mix.weights.tolist() and labels == list(mix.labels):
        return normalize(mix, mix.time_index)   # no hypothesis moved: keep the checked frame
    return normalize((weights, mix.means[rows], mix.covs[rows], labels), mix.time_index)


def step_continuous(
    mix: HybridMixture,
    model: DynamicsModel,
    cfg: EngineConfig,
    lib: SplitLibrary | None = None,
) -> HybridMixture:
    """Propagate every mixand one time step, splitting where the affine fit fails.

    Split children are propagated depth first, in order, from a stack, so
    the output keeps the order of the input mixands and of their children.
    """
    assess = lib is not None and math.isfinite(cfg.e_res_max)
    pending = [(w, alpha, Gaussian._unchecked(mean, cov), 0) for w, alpha, mean, cov
               in zip(mix.weights.tolist(), mix.labels, mix.means, mix.covs)][::-1]
    out, depth_capped = [], 0
    while pending:
        weight, alpha, g, depth = pending.pop()
        sigma_set = generate_sigma_points(g, model.process_noise, cfg.lam)
        try:
            propagated = propagate_points(sigma_set, alpha, model.f_c_batch)
        except ModelEvaluationFailure as exc:
            raise ModelEvaluationFailure(
                f"dynamics evaluation failed for mixand alpha={alpha!r}: {exc}"
            ) from exc
        if assess:
            report = assess_linearity(
                sigma_set.state_block(),
                propagated[: 1 + 2 * model.n_x],
                prior_cov=g.cov,
                normalization=cfg.normalization,
                e_res_max=cfg.e_res_max,
            )
            if not report.passed and depth < cfg.max_split_depth:
                split = lib.get(cfg.split_n, cfg.split_sigma)
                children = apply_split((weight, g), report.split_axis, split)
                pending.extend((w, alpha, c, depth + 1) for w, c in children[::-1])
                continue
            depth_capped += not report.passed
        g = recombine(propagated, sigma_set.weights())
        out.append((weight, alpha, g.mean, g.cov))
    if depth_capped:
        log.warning(
            "split depth cap %d reached for %d mixand(s) at step %d; recombined anyway",
            cfg.max_split_depth,
            depth_capped,
            mix.time_index + 1,
        )
    weights, labels, means, covs = zip(*out)
    return normalize((weights, means, covs, labels), mix.time_index + 1)


def anticipate(
    initial: HybridMixture,
    model: DynamicsModel,
    cfg: EngineConfig,
    lib: SplitLibrary | None = None,
    threads: int = 1,
) -> list:
    """Run the full pipeline for horizon/dt steps; returns one frame per step.

    Propagation is sequential.  ``threads`` only accepts 1; it remains for
    callers that still pass it (``perfbench/workloads.py``).
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    frames = []
    current = initial
    for _ in range(cfg.n_steps):
        current = step_discrete(current, model)
        current = step_continuous(current, model, cfg, lib)
        current = reduce_mixture(current, cfg.reduction)
        current = normalize(current, current.time_index, weight_floor=WEIGHT_FLOOR)
        frames.append(current)
    return frames
