"""Sigma-point generation, propagation, and recombination.

The point set jointly covers state and process-noise uncertainty: one
center point, a +/- pair per state axis, and a +/- pair per noise axis.
Noise-free models (n_v = 0) simply get no noise block.

Every function also takes a stack of mixands along a leading axis: one
set of points per mixand, built, propagated and recombined together.

Nothing that is fixed for a run is rebuilt per step: the recombination
weights are cached per (n_x, n_v, lambda), and the noise block of a set
per (noise, n_x, gamma) on the ``ProcessNoise``.  Nothing that the engine
made valid is checked again: covariances are factored without a symmetry
check, and recombined ones are clipped only when a weight calls for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh

from .core import Gaussian, ProcessNoise, _factor, symmetrize
from .errors import DimensionMismatchError, ModelEvaluationFailure, NonFiniteValueError


def default_lambda(n_x: int, n_v: int = 0) -> float:
    """Kurtosis-matching heuristic: lambda = 3 - (n_x + n_v)."""
    return 3.0 - (n_x + n_v)


@dataclass(frozen=True)
class RecombinationWeights:
    """Mean and covariance recombination weights for a sigma-point set."""

    mean_weights: np.ndarray
    cov_weights: np.ndarray

    @staticmethod
    @lru_cache(maxsize=64)
    def for_dims(n_x: int, n_v: int, lam: float) -> "RecombinationWeights":
        """The standard weights, built once per (n_x, n_v, lam); the arrays are read-only."""
        n = n_x + n_v
        if lam <= -n:
            raise ValueError(f"lambda must exceed -(n_x + n_v) = {-n}")
        count = 1 + 2 * n
        wm = np.full(count, 1.0 / (2.0 * (lam + n)))
        wm[0] = lam / (lam + n)
        wc = wm.copy()
        wc[0] = lam / (lam + n) + 2.0
        wm.setflags(write=False)
        wc.setflags(write=False)
        return RecombinationWeights(wm, wc)


@dataclass(frozen=True)
class SigmaSet:
    """Deterministic point set encoding a Gaussian plus process noise.

    ``state_points`` has shape (1 + 2*n_x + 2*n_v, n_x) and
    ``noise_points`` shape (1 + 2*n_x + 2*n_v, n_v).  Index 0 is the
    mean; noise entries are zero for all state-block indices.  A set for
    a stack of M mixands has a leading axis of length M on both arrays.
    """

    state_points: np.ndarray
    noise_points: np.ndarray
    lam: float
    gamma: float

    @property
    def n_x(self) -> int:
        return self.state_points.shape[-1]

    @property
    def n_v(self) -> int:
        return self.noise_points.shape[-1]

    @property
    def count(self) -> int:
        return self.state_points.shape[-2]

    def weights(self) -> RecombinationWeights:
        return RecombinationWeights.for_dims(self.n_x, self.n_v, self.lam)

    def state_block(self) -> np.ndarray:
        """The 1 + 2*n_x points that carry state (not noise) spread."""
        return self.state_points[..., : 1 + 2 * self.n_x, :]


def generate_sigma_points(
    g, noise: ProcessNoise, lam: Optional[float] = None
) -> SigmaSet:
    """Build the augmented sigma-point set for a Gaussian and process noise.

    ``g`` is a ``Gaussian``, or a ``(means, covs)`` pair of stacked (M, n_x)
    and (M, n_x, n_x) arrays, which gets one set per mixand from a single
    batched square root.  The covariances are not checked for symmetry or
    finiteness, as ``matrix_sqrt`` would: a ``Gaussian`` or a frame was
    checked where it entered, and every covariance the engine makes is
    symmetric by construction.  The symmetric part is factored, so one that
    is symmetric only within tolerance gives ``matrix_sqrt``'s factor.
    """
    mean, cov = (g.mean, g.cov) if isinstance(g, Gaussian) else g
    n_x, n_v = mean.shape[-1], noise.dim
    if lam is None:
        lam = default_lambda(n_x, n_v)
    n = n_x + n_v
    if lam <= -n:
        raise ValueError(f"lambda must exceed -(n_x + n_v) = {-n}")
    gamma = np.sqrt(n + lam)
    # Row 1 + j is the mean plus gamma times column j of the square root.
    spread = gamma * _factor(cov).swapaxes(-1, -2)
    mean = mean[..., None, :]
    chi = np.repeat(mean, 1 + 2 * n, axis=-2)
    chi[..., 1 : 1 + 2 * n_x, :] = np.concatenate([mean + spread, mean - spread], axis=-2)
    chi.setflags(write=False)
    ups = noise.sigma_rows(n_x, gamma)
    return SigmaSet(chi, np.broadcast_to(ups, chi.shape[:-1] + (n_v,)), float(lam), float(gamma))


def propagate_points(s: SigmaSet, alpha_next: object, f_c_batch: Callable) -> np.ndarray:
    """Push every (state, noise) point pair through the continuous dynamics.

    ``f_c_batch(alpha_next, xs, vs)`` gets all (P, n_x) state points and
    (P, n_v) noise points in one call, P = count, or M * count for a stack
    of M sets, and must return the (P, n_x) propagated states; any other
    shape raises ``DimensionMismatchError``, and a NaN or infinite entry
    raises ``ModelEvaluationFailure``.  The result has the shape of
    ``s.state_points``.
    """
    xs = s.state_points.reshape(-1, s.n_x)
    vs = s.noise_points.reshape(len(xs), s.n_v)
    out = np.asarray(f_c_batch(alpha_next, xs, vs), dtype=float)
    if out.shape != xs.shape:
        raise DimensionMismatchError(
            f"propagated points have shape {out.shape}, expected {xs.shape}"
        )
    if not np.isfinite(out).all():
        raise ModelEvaluationFailure("dynamics returned a non-finite state")
    return out.reshape(s.state_points.shape)


def recombine(points: np.ndarray, w: RecombinationWeights):
    """Weighted moment recombination of propagated points into a Gaussian.

    A stack of M point sets (M, count, n) gives a ``(means, covs)`` pair of
    (M, n) and (M, n, n) arrays instead.  Each covariance is symmetrized.
    With nonnegative covariance weights, as ``for_dims`` gives at the
    default lambda for n_x + n_v <= 9, it is a nonnegative sum of rank-1
    terms, PSD in exact arithmetic, and is not clipped: in fuzzed frames
    rounding left no eigenvalue below -1e-17 times the trace.  When some
    covariance weight is negative, each covariance's negative eigenvalues
    are clipped.  The result is valid by construction: neither the
    ``Gaussian`` nor a frame built from it is checked again.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[-2] != w.mean_weights.shape[0]:
        raise DimensionMismatchError("point count does not match weight count")
    mean = w.mean_weights @ points
    d = points - mean[..., None, :]
    cov = symmetrize((d * w.cov_weights[:, None]).swapaxes(-1, -2) @ d)
    if not np.isfinite(cov).all():
        raise NonFiniteValueError("recombined covariance has a non-finite entry")
    if w.cov_weights.min() < 0.0:
        # A negative weight can make the sum indefinite: keep its PSD part.
        stack = cov.reshape((-1,) + cov.shape[-2:])
        for i in np.flatnonzero(np.linalg.eigvalsh(stack)[:, 0] < 0.0):
            wv, v = eigh(stack[i])
            stack[i] = symmetrize((v * np.clip(wv, 0.0, None)) @ v.T)
    if points.ndim > 2:
        return mean, cov
    return Gaussian._unchecked(mean, cov)
