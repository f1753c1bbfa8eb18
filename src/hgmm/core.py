"""Core distribution types and closed-form Gaussian utilities.

The continuous part of every hypothesis is a plain Gaussian; a hybrid
mixand attaches a weight and an opaque discrete label to it; a mixture
frame holds its mixands as stacked arrays.  All types are immutable after
construction.  The public constructors validate what they are given;
frames built inside the engine get one vectorised check per frame, with
the same tolerances and error classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import cholesky, eigh, solve_triangular

from .errors import (
    DimensionMismatchError,
    EmptyMixtureError,
    IndefiniteMatrixError,
    NonFiniteValueError,
    NotSymmetricError,
)

# Mixands lighter than this (after normalization) are dropped.
WEIGHT_FLOOR = 1e-6

_SYM_RTOL = 1e-9
_EIG_RTOL = 1e-9


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return the symmetric part (m + m.T) / 2 of a matrix or of each matrix in a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def _as_matrix(cov) -> np.ndarray:
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if cov.shape[-2] != cov.shape[-1]:
        raise DimensionMismatchError(f"covariance must be square, got {cov.shape}")
    return cov


def _check_symmetric(cov: np.ndarray) -> None:
    """Finite and symmetric within tolerance: one matrix, or each of a stack."""
    scale = np.abs(cov).max(axis=(-2, -1))
    if not np.isfinite(scale).all():
        raise NonFiniteValueError("matrix has a non-finite entry")
    asym = np.abs(cov - cov.swapaxes(-1, -2)).max(axis=(-2, -1))
    if (asym > _SYM_RTOL * np.maximum(scale, 1.0)).any():
        raise NotSymmetricError("matrix is not symmetric within tolerance")


def _check_moments(mean: np.ndarray, cov: np.ndarray) -> None:
    """Finite mean, finite symmetric covariance, no eigenvalue below -1e-9 * trace.

    Checks one Gaussian, or every row of a frame's stacked means and covariances.
    """
    if not np.isfinite(mean).all():
        raise NonFiniteValueError("mean has a non-finite entry")
    _check_symmetric(cov)
    low = np.linalg.eigvalsh(symmetrize(cov))[..., 0]
    if (low < -_EIG_RTOL * np.maximum(cov.trace(axis1=-2, axis2=-1), 1e-300)).any():
        raise IndefiniteMatrixError(f"covariance has eigenvalue {np.min(low):.3e} below tolerance")


@dataclass(frozen=True)
class Gaussian:
    """Multivariate normal with mean vector and symmetric PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = _as_matrix(self.cov)
        if cov.shape[0] != mean.shape[0]:
            raise DimensionMismatchError(
                f"mean dim {mean.shape[0]} != cov dim {cov.shape[0]}"
            )
        _check_moments(mean, cov)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def _unchecked(cls, mean: np.ndarray, cov: np.ndarray) -> Gaussian:
        """A Gaussian on moments already checked as part of a frame, or valid by construction."""
        mean.setflags(write=False)
        cov.setflags(write=False)
        g = object.__new__(cls)
        g.__dict__.update(mean=mean, cov=cov)
        return g


@dataclass(frozen=True)
class HybridMixand:
    """One weighted hypothesis: a discrete label plus a Gaussian."""

    weight: float
    discrete: object
    gaussian: Gaussian

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError(f"mixand weight must be positive, got {self.weight}")


def _stack(mixands: Sequence[HybridMixand]) -> tuple:
    """The (weights, means, covs, labels) arrays of a sequence of mixands."""
    return (
        np.array([m.weight for m in mixands], dtype=float),
        np.stack([m.gaussian.mean for m in mixands]),
        np.stack([m.gaussian.cov for m in mixands]),
        tuple(m.discrete for m in mixands),
    )


def _frame(weights, means, covs, labels, time_index, check=True) -> HybridMixture:
    """Frame on arrays whose weights sum to one, its moments checked once as a whole."""
    if not (weights > 0).all():
        raise ValueError("mixand weights must be positive")
    if check:
        _check_moments(means, covs)
    for array in (weights, means, covs):
        array.setflags(write=False)
    frame = object.__new__(HybridMixture)
    frame.__dict__.update(weights=weights, means=means, covs=covs, labels=tuple(labels),
                          time_index=time_index)
    return frame


@dataclass(frozen=True, init=False, eq=False)
class HybridMixture:
    """Normalized weighted set of hybrid mixands at one time index.

    A frame of M mixands in n dimensions is held as read-only arrays,
    ``weights`` (M,), ``means`` (M, n) and ``covs`` (M, n, n), plus the
    ``labels`` tuple.  ``mixands`` views them as ``HybridMixand`` objects.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    labels: tuple
    time_index: int = 0

    def __init__(self, mixands: Sequence[HybridMixand], time_index: int = 0):
        mixands = tuple(mixands)
        if not mixands:
            raise EmptyMixtureError("mixture must contain at least one mixand")
        if len({m.gaussian.dim for m in mixands}) > 1:
            raise DimensionMismatchError("mixands have differing state dimension")
        total = sum(m.weight for m in mixands)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixand weights sum to {total}, expected 1")
        self.__dict__.update(_frame(*_stack(mixands), time_index).__dict__, mixands=mixands)

    @cached_property
    def mixands(self) -> tuple:
        gaussians = map(Gaussian._unchecked, self.means, self.covs)
        return tuple(map(HybridMixand, self.weights.tolist(), self.labels, gaussians))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def __len__(self) -> int:
        return len(self.labels)


def normalize(
    mixands,
    time_index: int = 0,
    weight_floor: float = 0.0,
    *,
    check: bool = True,
) -> HybridMixture:
    """Rescale weights to sum to one, optionally dropping negligible mixands.

    ``mixands`` is a ``HybridMixture``, an iterable of ``HybridMixand``, or
    a ``(weights, means, covs, labels)`` tuple, whose arrays are copied.
    With a positive ``weight_floor``, mixands lighter than the floor after
    the first normalization pass are removed and weights renormalized.  A
    frame that this leaves unchanged is returned as it is.

    The means and covariances of a tuple are checked like ``Gaussian``'s;
    ``check=False`` skips that for rows taken from, or moment-matched
    within, a frame that was checked already.  A frame's rows are never
    checked again.
    """
    frame = mixands if isinstance(mixands, HybridMixture) else None
    if frame is not None:
        weights, means, covs, labels = frame.weights, frame.means, frame.covs, frame.labels
    else:
        mixands = tuple(mixands)
        if mixands and isinstance(mixands[0], HybridMixand):
            mixands = _stack(mixands)
        if not mixands or not len(mixands[0]):
            raise EmptyMixtureError("cannot normalize an empty mixand list")
        weights, means, covs = (np.array(a, dtype=float) for a in mixands[:3])
        labels = mixands[3]
    # Totals are summed left to right, as Python's sum does, so no weight
    # depends on NumPy's pairwise summation order.
    total = sum(weights.tolist())
    if total <= 0:
        raise ValueError("total weight must be positive")
    weights = weights / total
    if weight_floor > 0.0:
        kept = weights >= weight_floor
        if kept.any():
            if not kept.all():
                weights, means, covs = weights[kept], means[kept], covs[kept]
                labels = tuple(label for label, keep in zip(labels, kept) if keep)
            weights = weights / sum(weights.tolist())
    # Nudge the largest weight so the sum is exactly representable as 1;
    # a second pass absorbs any last-bit rounding from the first.
    for _ in range(3):
        s = sum(weights.tolist())
        if s == 1.0:
            break
        weights[int(np.argmax(weights))] += 1.0 - s
    if (frame is not None and time_index == frame.time_index
            and len(weights) == len(frame) and (weights == frame.weights).all()):
        return frame
    return _frame(weights, means, covs, labels, time_index, check=check and frame is None)


@dataclass(frozen=True)
class ProcessNoise:
    """Time-invariant zero-mean Gaussian process noise."""

    cov: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    # matrix_sqrt(cov), computed once for every sigma-point set that uses it.
    sqrt: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        cov = np.atleast_2d(cov) if cov.size else cov.reshape(0, 0)
        if cov.shape[0] != cov.shape[1]:
            raise DimensionMismatchError("process noise covariance must be square")
        if cov.shape[0] > 0:
            _check_symmetric(cov)
            try:
                cholesky(cov, lower=True)
            except np.linalg.LinAlgError as exc:
                raise IndefiniteMatrixError("process noise must be positive definite") from exc
        sqrt = matrix_sqrt(cov)
        for array in (cov, sqrt):
            array.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "sqrt", sqrt)

    @property
    def dim(self) -> int:
        return self.cov.shape[0]


def matrix_sqrt(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular-preferred square root S with S @ S.T == cov.

    Cholesky when the matrix is positive definite; otherwise an
    eigen-decomposition with small negative eigenvalues clamped to zero.
    A stack (M, n, n) gets one symmetry check and one Cholesky for all
    matrices; if that fails, each matrix is taken on its own, so only the
    ones that are not positive definite use the eigen path.
    """
    cov = _as_matrix(cov)
    if cov.shape[-1] == 0:
        return cov.copy()
    _check_symmetric(cov)
    sym = symmetrize(cov)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        if sym.ndim > 2:
            return np.stack([matrix_sqrt(m) for m in sym])
    w, v = eigh(sym)
    tr = max(np.trace(sym), 0.0)
    if w.min() < -_EIG_RTOL * max(tr, 1e-300):
        raise IndefiniteMatrixError(
            f"matrix eigenvalue {w.min():.3e} below tolerance; not PSD"
        )
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


NO_NOISE = ProcessNoise(np.zeros((0, 0)))


def gaussian_logpdf(mean: np.ndarray, cov: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Log density of N(mean, cov) at each row of ``xs``.

    One Cholesky factorization serves every row.  A covariance that is not
    numerically positive definite gets a 1e-12 * trace jitter first.
    """
    n = mean.shape[0]
    sym = symmetrize(cov)
    try:
        chol = cholesky(sym, lower=True)
    except np.linalg.LinAlgError:
        sym = sym + (1e-12 * max(np.trace(sym), 1e-300)) * np.eye(n)
        chol = cholesky(sym, lower=True)
    z = solve_triangular(chol, (np.atleast_2d(xs) - mean).T, lower=True)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * np.sum(z * z, axis=0) - 0.5 * (n * math.log(2.0 * math.pi) + logdet)


def gaussian_pdf(g: Gaussian, x: np.ndarray) -> float:
    """Evaluate the multivariate normal density of ``g`` at ``x``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != g.dim:
        raise DimensionMismatchError(f"x dim {x.shape[0]} != gaussian dim {g.dim}")
    return float(np.exp(gaussian_logpdf(g.mean, g.cov, x)[0]))


def isd_terms(target: Gaussian, mix: Sequence[tuple]) -> tuple:
    """Closed-form integral-squared-difference terms between a Gaussian and a mixture.

    ``mix`` is a sequence of ``(weight, Gaussian)`` pairs.  Returns
    ``(J11, J12, J22, J)`` where ``J = J11 - 2*J12 + J22`` is the ISD.
    All terms use the product-of-Gaussians identity, no quadrature.
    """

    def overlap(a: Gaussian, b: Gaussian) -> float:
        # Integral of N(x; a) N(x; b) dx = N(a.mean; b.mean, a.cov + b.cov).
        return float(np.exp(gaussian_logpdf(b.mean, a.cov + b.cov, a.mean)[0]))

    n = target.dim
    for _, g in mix:
        if g.dim != n:
            raise DimensionMismatchError("mixture component dimension mismatch")
    j11 = overlap(target, target)
    j12 = sum(w * overlap(target, g) for w, g in mix)
    j22 = sum(wi * wj * overlap(gi, gj) for wi, gi in mix for wj, gj in mix)
    j = j11 - 2.0 * j12 + j22
    return j11, j12, j22, j


def mixture_moments(mix: HybridMixture) -> tuple:
    """Mean and covariance of the continuous marginal of a mixture.

    Terms are summed in mixand order (``np.cumsum``), not pairwise.
    """
    w, means = mix.weights, mix.means
    mean = np.cumsum(w[:, None] * means, axis=0)[-1]
    d = means - mean
    terms = w[:, None, None] * (mix.covs + d[:, :, None] * d[:, None, :])
    return mean, symmetrize(np.cumsum(terms, axis=0)[-1])
