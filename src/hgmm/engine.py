"""Hybrid mixture propagation engine.

One anticipation step runs the discrete transition (hypothesis fan-out),
then the continuous sigma-point propagation with linearity-gated
splitting, then mixture reduction.  Frames are immutable array-backed
mixtures, one per time step.  Propagation works through a level-synchronous
worklist: all mixands at one split depth are propagated together as
stacked arrays, and the output is ordered by each mixand's path (input
index, then child indices).
"""

from __future__ import annotations

import itertools
import logging
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Gaussian,
    HybridMixture,
    ProcessNoise,
    WEIGHT_FLOOR,
    _frame,
    normalize,
)
from .errors import ModelEvaluationFailure, NoSuccessorError
# The engine takes the closed-form fit of its own symmetric sets and never
# calls ``assess_linearity``; the name stays here because perfbench/spans.py
# wraps the engine's layer functions where the engine looks them up.
from .linearity import _symmetric_fit, assess_linearity  # noqa: F401
from .reduction import ReductionConfig, reduce_mixture
from .sigma import SigmaSet, generate_sigma_points, propagate_points, recombine
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
    # The model's own time step, which ``anticipate`` requires to equal
    # ``EngineConfig.dt``; None when it has none.
    dt: float | None = None

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
        """Map (P, n_x) states and (P, n_v) noise draws to (P, n_x) next states.

        Rows must be independent: the sigma points of all mixands with the
        same label share one call, and each row's result may not depend on
        which other rows are in the batch.
        """

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
        for name in ("split_n", "max_split_depth"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.max_split_depth < 0:
            raise ValueError(f"max_split_depth must be non-negative, got {self.max_split_depth}")
        if self.normalization not in ("raw", "scaled"):
            raise ValueError(f"normalization must be raw or scaled, got {self.normalization!r}")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def step_discrete(mix: HybridMixture, model: DynamicsModel) -> HybridMixture:
    """Fan each mixand out over its possible next discrete states.

    A mixand leaves its state when ``transition_mask`` flags its mean; the
    means of all mixands with one label go through one call.  A label whose
    only option is to stay, ``[(alpha, 1.0)]``, is not gated, since moving
    would keep it and its weight.  The fan-out is not renormalized:
    successor probabilities must be non-negative and sum to 1 within 1e-9,
    else ``ValueError`` names the label; these checks, and
    ``NoSuccessorError`` for a label with no successors, apply once some
    mixand leaves.  ``mix`` itself is returned when no mixand changes.
    """
    moved = np.zeros(len(mix), dtype=bool)
    succ = {}
    for alpha in dict.fromkeys(mix.labels):
        succ[alpha] = model.successor_options(alpha)
        if succ[alpha] == [(alpha, 1.0)]:
            continue
        rows = [i for i, label in enumerate(mix.labels) if label == alpha]
        moved[rows] = model.transition_mask(alpha, mix.means[rows])
        if moved[rows].any():
            if not succ[alpha]:
                raise NoSuccessorError(f"discrete state {alpha!r} has no successors")
            for alpha_next, p in succ[alpha]:
                if not p >= 0.0:
                    raise ValueError(f"successor probability of {alpha!r} -> {alpha_next!r} "
                                     f"is {p}; it must be non-negative")
            total = sum(p for _, p in succ[alpha])
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"successor probabilities of {alpha!r} sum to {total}")
    out = []
    for i, (w, alpha, leaves) in enumerate(zip(mix.weights.tolist(), mix.labels, moved.tolist())):
        if leaves:
            out.extend((i, w * p, alpha_next) for alpha_next, p in succ[alpha] if p > 0.0)
        else:
            out.append((i, w, alpha))
    rows, weights, labels = map(list, zip(*out))
    if weights == mix.weights.tolist() and labels == list(mix.labels):
        return mix      # every move kept its label: keep the frame
    return _frame(np.array(weights), mix.means[rows], mix.covs[rows], labels, mix.time_index)


def step_continuous(
    mix: HybridMixture,
    model: DynamicsModel,
    cfg: EngineConfig,
    lib: SplitLibrary | None = None,
) -> HybridMixture:
    """Propagate every mixand one time step, splitting where the affine fit fails.

    A worklist takes one split depth at a time: the mixands pending at that
    depth are propagated as stacked arrays, with one dynamics call per
    discrete label, and the children of those that split make up the next
    depth.  Each mixand carries its path, its input index followed by its
    child indices; the output is sorted by path, which keeps the order of
    the input mixands and of their children.

    A level's affine fit is the closed form of ``_symmetric_fit``, not the
    QR of ``assess_linearity``: no factorization per level, and rank
    deficiency is read off the sets' own spread (see its docstring).
    Splits conserve weight and ``recombine`` makes valid rows from finite
    points, so the output frame is neither renormalized nor checked.
    """
    assess = lib is not None and math.isfinite(cfg.e_res_max)
    index: dict = {}    # label -> code; ``names`` maps a code back to its label
    code = np.array([index.setdefault(alpha, len(index)) for alpha in mix.labels])
    names = list(index)
    paths = np.arange(len(mix))[:, None]
    weights, means, covs = mix.weights, mix.means, mix.covs
    out, depth_capped = [], 0
    for depth in itertools.count():
        sigma_set = generate_sigma_points((means, covs), model.process_noise)
        propagated = np.empty(sigma_set.state_points.shape)
        level_codes = dict.fromkeys(code.tolist())
        for c in level_codes:
            if len(level_codes) == 1:
                rows, subset = slice(None), sigma_set
            else:
                rows = np.flatnonzero(code == c)
                subset = SigmaSet(sigma_set.state_points[rows], sigma_set.noise_points[rows])
            try:
                propagated[rows] = propagate_points(subset, names[c], model.f_c_batch)
            except ModelEvaluationFailure as exc:
                raise ModelEvaluationFailure(
                    f"dynamics evaluation failed for mixand alpha={names[c]!r}: {exc}"
                ) from exc
        split = np.zeros(len(code), dtype=bool)
        if assess:
            fit = _symmetric_fit(sigma_set.state_block(), propagated[:, : 1 + 2 * model.n_x],
                                 covs, cfg.normalization, cfg.e_res_max)
            if depth < cfg.max_split_depth:
                split = ~fit.passed
            else:
                depth_capped = int(np.count_nonzero(~fit.passed))
        kept = np.flatnonzero(~split)
        if kept.size:
            out.append((paths[kept], weights[kept], code[kept],
                        *recombine(propagated[kept])))
        if not split.any():
            break
        parents = np.flatnonzero(split)
        # Axes for the split parents only; stacked eigh handles each matrix alone.
        children = apply_split((weights[parents], means[parents], covs[parents]),
                               fit.split_axes(parents), lib.get(cfg.split_n, cfg.split_sigma))
        n = len(children) // len(parents)
        paths = np.column_stack([np.repeat(paths[parents], n, axis=0),
                                 np.tile(np.arange(n), len(parents))])
        code = np.repeat(code[parents], n)
        weights, means, covs = children.weights, children.means, children.covs
    if depth_capped:
        log.warning("split depth cap %d reached for %d mixand(s) at step %d; recombined anyway",
                    cfg.max_split_depth, depth_capped, mix.time_index + 1)
    if len(out) == 1:   # the rows of one depth are in path order already
        _, weights, code, means, covs = out[0]
    else:
        # Paths padded with -1 sort as tuples do; np.lexsort takes its primary key last.
        out = [(np.hstack([p, np.full((len(p), depth + 1 - p.shape[1]), -1)]), *rest)
               for p, *rest in out]
        paths, weights, code, means, covs = (np.concatenate(block) for block in zip(*out))
        order = np.lexsort(paths.T[::-1])
        weights, code, means, covs = weights[order], code[order], means[order], covs[order]
    labels = [names[c] for c in code.tolist()]
    return _frame(weights, means, covs, labels, mix.time_index + 1)


def anticipate(
    initial: HybridMixture,
    model: DynamicsModel,
    cfg: EngineConfig,
    lib: SplitLibrary | None = None,
    threads: int = 1,
) -> list:
    """Run the full pipeline for horizon/dt steps; returns one frame per step.

    A model's own ``dt``, if any, must equal ``cfg.dt``.  Each step
    renormalizes with the weight floor, and once more in the reducer when
    it shrinks the frame.  Propagation is sequential.
    ``threads`` only accepts 1; it remains for callers that still pass it
    (``perfbench/workloads.py``).
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    if model.dt is not None and model.dt != cfg.dt:
        raise ValueError(f"model steps {model.dt} s but the engine steps {cfg.dt} s; "
                         "build the model with the engine's dt")
    frames = []
    current = initial
    for _ in range(cfg.n_steps):
        current = step_discrete(current, model)
        current = step_continuous(current, model, cfg, lib)
        current = reduce_mixture(current, cfg.reduction)
        current = normalize(current, current.time_index, weight_floor=WEIGHT_FLOOR)
        frames.append(current)
    return frames
