"""Core distribution types and closed-form Gaussian utilities.

The continuous part of every hypothesis is a plain Gaussian; a hybrid
mixand attaches a weight and an opaque discrete label to it.  All types
are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """Return the symmetric part (m + m.T) / 2."""
    return 0.5 * (m + m.T)


def _as_matrix(cov) -> np.ndarray:
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if cov.shape[0] != cov.shape[1]:
        raise DimensionMismatchError(f"covariance must be square, got {cov.shape}")
    return cov


def _check_symmetric(cov: np.ndarray) -> None:
    scale = np.abs(cov).max()
    if not np.isfinite(scale):
        raise NonFiniteValueError("matrix has a non-finite entry")
    scale = max(scale, 1.0)
    if np.abs(cov - cov.T).max() > _SYM_RTOL * scale:
        raise NotSymmetricError("matrix is not symmetric within tolerance")


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
        if not np.isfinite(mean).all():
            raise NonFiniteValueError("mean has a non-finite entry")
        _check_symmetric(cov)
        tr = max(np.trace(cov), 0.0)
        w = np.linalg.eigvalsh(symmetrize(cov))
        if w.min() < -_EIG_RTOL * max(tr, 1e-300):
            raise IndefiniteMatrixError(
                f"covariance has eigenvalue {w.min():.3e} below tolerance"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class HybridMixand:
    """One weighted hypothesis: a discrete label plus a Gaussian."""

    weight: float
    discrete: object
    gaussian: Gaussian

    def __post_init__(self):
        if not self.weight > 0:
            raise ValueError(f"mixand weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class HybridMixture:
    """Normalized weighted set of hybrid mixands at one time index."""

    mixands: tuple
    time_index: int = 0

    def __post_init__(self):
        mixands = tuple(self.mixands)
        if not mixands:
            raise EmptyMixtureError("mixture must contain at least one mixand")
        dim = mixands[0].gaussian.dim
        for m in mixands:
            if m.gaussian.dim != dim:
                raise DimensionMismatchError("mixands have differing state dimension")
        total = sum(m.weight for m in mixands)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixand weights sum to {total}, expected 1")
        object.__setattr__(self, "mixands", mixands)

    @property
    def dim(self) -> int:
        return self.mixands[0].gaussian.dim

    def __len__(self) -> int:
        return len(self.mixands)


def normalize(
    mixands: Sequence[HybridMixand],
    time_index: int = 0,
    weight_floor: float = 0.0,
) -> HybridMixture:
    """Rescale weights to sum to one, optionally dropping negligible mixands.

    With a positive ``weight_floor``, mixands lighter than the floor after
    the first normalization pass are removed and weights renormalized.
    """
    mixands = list(mixands)
    if not mixands:
        raise EmptyMixtureError("cannot normalize an empty mixand list")
    total = sum(m.weight for m in mixands)
    if total <= 0:
        raise ValueError("total weight must be positive")
    scaled = [(m.weight / total, m) for m in mixands]
    if weight_floor > 0.0:
        kept = [(w, m) for w, m in scaled if w >= weight_floor]
        if kept:
            scaled = kept
            total2 = sum(w for w, _ in scaled)
            scaled = [(w / total2, m) for w, m in scaled]
    out = [HybridMixand(w, m.discrete, m.gaussian) for w, m in scaled]
    # Nudge the largest weight so the sum is exactly representable as 1;
    # a second pass absorbs any last-bit rounding from the first.
    for _ in range(3):
        s = sum(m.weight for m in out)
        if s == 1.0:
            break
        i = max(range(len(out)), key=lambda j: out[j].weight)
        w_fix = out[i].weight + (1.0 - s)
        out[i] = HybridMixand(w_fix, out[i].discrete, out[i].gaussian)
    return HybridMixture(tuple(out), time_index)


@dataclass(frozen=True)
class ProcessNoise:
    """Time-invariant zero-mean Gaussian process noise."""

    cov: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        if cov.size == 0:
            cov = cov.reshape(0, 0)
        cov = np.atleast_2d(cov) if cov.size else cov
        if cov.shape[0] != cov.shape[1]:
            raise DimensionMismatchError("process noise covariance must be square")
        if cov.shape[0] > 0:
            _check_symmetric(cov)
            try:
                cholesky(cov, lower=True)
            except np.linalg.LinAlgError as exc:
                raise IndefiniteMatrixError("process noise must be positive definite") from exc
        cov.setflags(write=False)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.cov.shape[0]


NO_NOISE = ProcessNoise(np.zeros((0, 0)))


def matrix_sqrt(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular-preferred square root S with S @ S.T == cov.

    Cholesky when the matrix is positive definite; otherwise an
    eigen-decomposition with small negative eigenvalues clamped to zero.
    """
    cov = _as_matrix(cov)
    if cov.shape[0] == 0:
        return cov.copy()
    _check_symmetric(cov)
    sym = symmetrize(cov)
    try:
        return cholesky(sym, lower=True)
    except np.linalg.LinAlgError:
        pass
    w, v = eigh(sym)
    tr = max(np.trace(sym), 0.0)
    if w.min() < -_EIG_RTOL * max(tr, 1e-300):
        raise IndefiniteMatrixError(
            f"matrix eigenvalue {w.min():.3e} below tolerance; not PSD"
        )
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


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
    """Mean and covariance of the continuous marginal of a mixture."""
    mean = np.zeros(mix.dim)
    for m in mix.mixands:
        mean += m.weight * m.gaussian.mean
    cov = np.zeros((mix.dim, mix.dim))
    for m in mix.mixands:
        d = m.gaussian.mean - mean
        cov += m.weight * (m.gaussian.cov + np.outer(d, d))
    return mean, symmetrize(cov)
