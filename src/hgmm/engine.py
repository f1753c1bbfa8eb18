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
    _decode,
    _encode,
    _frame,
    normalize,
)
from .errors import ModelEvaluationFailure, NoSuccessorError
# The engine takes the closed-form fit of its own symmetric sets and never
# calls ``assess_linearity``; the name stays here because perfbench/spans.py
# wraps the engine's layer functions where the engine looks them up.
from .linearity import _check_normalization, _symmetric_fit, assess_linearity  # noqa: F401
from .reduction import _TIE_RTOL, ReductionConfig, reduce_mixture
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
    """Tuning knobs for one anticipation run.

    The defaults are the measured configuration: a mixand splits when the
    raw Frobenius residual of its sigma points' affine fit exceeds
    ``e_res_max=0.1``, up to depth 2, into ``split_n=5`` children whose
    spread along the split axis is ``split_sigma=0.4`` times the parent's,
    and each step reduces to 10 mixands.  A step holds at most ``split_n``
    x ``reduction.max_mixands`` mixands after splitting, the split budget
    of ``step_continuous``.  The spread goes with the budget: over a grid
    of turn and intersection, wide and narrow priors, ``e_res_max`` 0.2 to
    0.01 and caps 4, 10 and 40, (5, 0.4) with the budget scored a mean NLL
    no worse than (5, 0.3) without it on any cell, where 0.3 with the
    budget was worse on six (intersection 0.05 / cap 10 by 0.31 nats).
    Spread 0.5 or 7 children score better still on many cells, but make
    more children fail the fit again: 0.5 took about 1.2 times as long as
    0.4 on the wide prior at 0.05 and cap 4, 7 children 1.7 times over
    the grid.
    ``normalization`` accepts only ``"raw"``, the one residual metric.
    """

    e_res_max: float = 0.1
    split_n: int = 5
    split_sigma: float = 0.4
    max_split_depth: int = 2
    reduction: ReductionConfig = field(default_factory=ReductionConfig)
    dt: float = 0.1
    horizon: float = 3.5
    normalization: str = "raw"

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
        _check_normalization(self.normalization)
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("horizon must be an integer multiple of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def _check_successor_options(alpha, succ: list) -> None:
    """Check the successor options of a label that some mixand or particle leaves.

    ``NoSuccessorError`` when there are none; ``ValueError`` naming the label
    when a probability is negative or they sum more than 1e-9 from 1.
    """
    if not succ:
        raise NoSuccessorError(f"discrete state {alpha!r} has no successors")
    for alpha_next, p in succ:
        if not p >= 0.0:
            raise ValueError(f"successor probability of {alpha!r} -> {alpha_next!r} "
                             f"is {p}; it must be non-negative")
    total = sum(p for _, p in succ)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"successor probabilities of {alpha!r} sum to {total}")


def step_discrete(mix: HybridMixture, model: DynamicsModel) -> HybridMixture:
    """Fan each mixand out over its possible next discrete states.

    A mixand leaves its state when ``transition_mask`` flags its mean; the
    means of all mixands with one label code go through one call, and a
    frame of one label passes its whole ``means``, with no row index.  A
    label whose only option is to stay, ``[(alpha, 1.0)]``, is not gated,
    since moving would keep it and its weight.  The fan-out is not
    renormalized: ``_check_successor_options`` checks the options of each
    label once some mixand leaves it.  ``mix`` itself is returned when no
    mixand leaves.
    Otherwise the successors of each label that some mixand leaves are
    coded into the input's table, extended by the labels it lacks, and the
    output frame's table is rebuilt from the labels its rows use.
    """
    moved = np.zeros(len(mix), dtype=bool)
    table, fanout = mix.table, {}       # code left -> (successor code, probability) pairs
    for c, alpha in enumerate(mix.table):
        succ = model.successor_options(alpha)
        if succ == [(alpha, 1.0)]:
            continue
        if len(mix.table) == 1:
            moved[:] = model.transition_mask(alpha, mix.means)
            leaving = moved
        else:
            rows = np.flatnonzero(mix.codes == c)
            moved[rows] = model.transition_mask(alpha, mix.means[rows])
            leaving = moved[rows]
        if leaving.any():
            _check_successor_options(alpha, succ)
            table, successors = _encode([alpha_next for alpha_next, _ in succ], table)
            fanout[c] = [(s, p) for s, (_, p) in zip(successors.tolist(), succ) if p > 0.0]
    if not moved.any():
        return mix
    out = []
    for i, (w, c, leaves) in enumerate(zip(mix.weights.tolist(), mix.codes.tolist(),
                                           moved.tolist())):
        if leaves:
            out.extend((i, w * p, s) for s, p in fanout[c])
        else:
            out.append((i, w, c))
    rows, weights, codes = map(list, zip(*out))
    return _frame(np.array(weights), mix.means[rows], mix.covs[rows],
                  *_encode(_decode(table, codes)), mix.time_index)


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
    A level of one label keeps its dynamics output as it is, and a level
    where nothing splits recombines it whole, with no gathers; when that is
    the first level, the output keeps the input's rows in order, and so its
    ``codes`` array.  Label codes travel with their rows, children take
    their parent's, and the input's ``table`` passes through: every input
    mixand leaves at least one row and the path order keeps the input's,
    so the labels in use and their order of first use do not change.
    Splits conserve weight and ``recombine`` makes valid rows from finite
    points, so the output frame is neither renormalized nor checked.

    Split budget: a step ends with at most B = ``split_n`` x
    ``reduction.max_mixands`` rows, the children the reducer can use.  At
    each level the rows that fail the fit split in descending order of
    weight x ``e_res`` (the lower path first among ties; see
    ``_within_budget``) while the rows recombined at earlier levels, the
    level's own rows and n - 1 more rows per split fit in B.  The rest are
    recombined as depth-capped rows are, without a warning of their own.
    On the wide README prior the budget binds at ``e_res_max=0.05`` (250
    rows become 50 at cap 10, 100 become 20 at cap 4) and at depth 4 (625
    rows become 50 at 0.1); at the defaults that prior peaks at 34 of 50.
    A one-child split (``split_n`` 1) would give back its parent, so with
    it no level is assessed and the step is the step without splitting.
    """
    assess = lib is not None and math.isfinite(cfg.e_res_max) and cfg.split_n > 1
    code = mix.codes
    paths = np.arange(len(mix))[:, None]
    weights, means, covs = mix.weights, mix.means, mix.covs
    out, depth_capped = [], 0
    budget, done = cfg.split_n * cfg.reduction.max_mixands, 0   # done: rows recombined
    for depth in itertools.count():
        sigma_set = generate_sigma_points((means, covs), model.process_noise)
        level_codes = dict.fromkeys(code.tolist())
        propagated = None if len(level_codes) == 1 else np.empty(sigma_set.state_points.shape)
        for c in level_codes:
            rows, subset = slice(None), sigma_set
            if propagated is not None:
                rows = np.flatnonzero(code == c)
                subset = SigmaSet(sigma_set.state_points[rows], sigma_set.noise_points[rows])
            try:
                points = propagate_points(subset, mix.table[c], model.f_c_batch)
            except ModelEvaluationFailure as exc:
                raise ModelEvaluationFailure(
                    f"dynamics evaluation failed for mixand alpha={mix.table[c]!r}: {exc}"
                ) from exc
            if propagated is None:      # one label: its output is the level's
                propagated = points
            else:
                propagated[rows] = points
        split = None
        if assess:
            fit = _symmetric_fit(sigma_set.state_block(), propagated[:, : 1 + 2 * model.n_x],
                                 cfg.e_res_max)
            if depth == cfg.max_split_depth:
                depth_capped = int(np.count_nonzero(~fit.passed))
            elif not fit.passed.all():
                split = _within_budget(~fit.passed, weights * fit.e_res,
                                       budget - done - len(weights), cfg.split_n - 1)
        if split is None:
            out.append((paths, weights, code, *recombine(propagated)))
            break
        kept = np.flatnonzero(~split)
        if kept.size:
            out.append((paths[kept], weights[kept], code[kept],
                        *recombine(propagated[kept])))
            done += kept.size
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
    return _frame(weights, means, covs, mix.table, code, mix.time_index + 1)


def _within_budget(failed: np.ndarray, key: np.ndarray, room: int, growth: int):
    """The rows of a level that split, as a mask, or None when none may.

    The ``failed`` rows split in descending order of ``key``, while each
    split's ``growth`` extra rows fit in ``room``.  Keys within the
    reducer's relative tie band of the largest one left are tied, and the
    lower row, the lower path, goes first: mirror-image children have keys
    equal in exact arithmetic, and rounding must not choose between them.
    """
    if room < 0:
        return None
    failing = np.count_nonzero(failed)
    splits = room // growth
    if splits >= failing:
        return failed
    if splits <= 0:
        return None
    split, key = np.zeros_like(failed), np.where(failed, key, -np.inf)
    for _ in range(splits):
        top = key.max()
        row = np.flatnonzero(key >= top - _TIE_RTOL * top)[0]
        split[row], key[row] = True, -np.inf
    return split


def anticipate(
    initial: HybridMixture,
    model: DynamicsModel,
    cfg: EngineConfig,
    lib: SplitLibrary | None = None,
    threads: int = 1,
) -> list:
    """Run the full pipeline for horizon/dt steps; returns one frame per step.

    A model's own ``dt``, if any, must equal ``cfg.dt``.  With ``lib`` and a
    finite ``e_res_max``, a missing split entry raises ``KeyError`` at once.
    Each step renormalizes with the weight floor, and once more in the
    reducer when it shrinks the frame.  Propagation is sequential.
    ``threads`` only accepts 1; it remains for callers that still pass it
    (``perfbench/workloads.py``).

    Cost bound: whatever the prior, each step propagates at most
    ``max_split_depth`` + 1 levels and holds at most B = ``split_n`` x
    ``reduction.max_mixands`` rows after splitting (``step_continuous``'s
    budget), unless the fan-out alone left F > B rows, when nothing
    splits.  So ``reduce_mixture`` gets at most max(B, F) rows.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    if model.dt is not None and model.dt != cfg.dt:
        raise ValueError(f"model steps {model.dt} s but the engine steps {cfg.dt} s; "
                         "build the model with the engine's dt")
    if lib is not None and math.isfinite(cfg.e_res_max):
        lib.get(cfg.split_n, cfg.split_sigma)
    frames = []
    current = initial
    for _ in range(cfg.n_steps):
        current = step_discrete(current, model)
        current = step_continuous(current, model, cfg, lib)
        current = reduce_mixture(current, cfg.reduction)
        current = normalize(current, current.time_index, weight_floor=WEIGHT_FLOOR)
        frames.append(current)
    return frames
