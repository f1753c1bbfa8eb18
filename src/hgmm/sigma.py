"""Sigma-point generation, propagation, and recombination.

The point set jointly covers state and process-noise uncertainty: one
center point, a +/- pair per state axis, and a +/- pair per noise axis.
Noise-free models (n_v = 0) simply get no noise block.  Every set uses
the kurtosis-matching lambda = 3 - n of Julier and Uhlmann, n = n_x + n_v,
so its points lie sqrt(n + lambda) = sqrt(3) standard deviations out.

Every function also takes a stack of mixands along a leading axis: one
set of points per mixand, built, propagated and recombined together.

Nothing that is fixed for a run is rebuilt per step: the recombination
weights are cached per n, and the noise block of a set per n_x on the
``ProcessNoise``.  Nothing that the engine made valid is checked again:
covariances are factored without a symmetry check, and recombined ones
are PSD by construction, so they are not clipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import Gaussian, ProcessNoise, _factor, symmetrize
from .errors import DimensionMismatchError, ModelEvaluationFailure, NonFiniteValueError


def default_lambda(n_x: int, n_v: int = 0) -> float:
    """Kurtosis-matching heuristic: lambda = 3 - (n_x + n_v), the one lambda every set uses."""
    return 3.0 - (n_x + n_v)


# sqrt(n + lambda) at lambda = 3 - n, for every n.
_GAMMA = np.sqrt(3.0)


@lru_cache(maxsize=None)
def _weights(n: int) -> tuple:
    """Read-only (mean, covariance) weights of a 2n + 1 point set, built once per n."""
    lam = default_lambda(n)
    wm = np.full(1 + 2 * n, 1.0 / (2.0 * (lam + n)))
    wm[0] = lam / (lam + n)
    wc = wm.copy()
    wc[0] = lam / (lam + n) + 2.0
    wm.setflags(write=False)
    wc.setflags(write=False)
    return wm, wc


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

    @property
    def n_x(self) -> int:
        return self.state_points.shape[-1]

    @property
    def n_v(self) -> int:
        return self.noise_points.shape[-1]

    @property
    def count(self) -> int:
        return self.state_points.shape[-2]

    def state_block(self) -> np.ndarray:
        """The 1 + 2*n_x points that carry state (not noise) spread."""
        return self.state_points[..., : 1 + 2 * self.n_x, :]


def generate_sigma_points(g, noise: ProcessNoise) -> SigmaSet:
    """Build the augmented sigma-point set for a Gaussian and process noise.

    ``g`` is a ``Gaussian``, or a ``(means, covs)`` pair of stacked (M, n_x)
    and (M, n_x, n_x) arrays, which gets one set per mixand from a single
    batched square root.  The covariances are not checked for symmetry or
    finiteness, as ``matrix_sqrt`` would: a ``Gaussian`` or a frame was
    checked where it entered, and every covariance the engine makes is
    symmetric by construction.  The symmetric part is factored, so one that
    is symmetric only within tolerance gives ``matrix_sqrt``'s factor.

    ``state_points`` is one new C-contiguous array, written in place: the
    mean on every row, then mean + spread and mean - spread over the state
    rows.  The order matters beyond speed: ``recombine`` and the affine fit
    sum and multiply in an order set by their input's layout, so the same
    points in another layout give results that differ in the last bits.
    """
    mean, cov = (g.mean, g.cov) if isinstance(g, Gaussian) else g
    n_x, n_v = mean.shape[-1], noise.dim
    # Row 1 + j is the mean plus sqrt(3) times column j of the square root.
    spread = _factor(cov).swapaxes(-1, -2)
    spread *= _GAMMA
    mean = mean[..., None, :]
    chi = np.empty(mean.shape[:-2] + (1 + 2 * (n_x + n_v), n_x))
    chi[...] = mean
    np.add(mean, spread, out=chi[..., 1 : 1 + n_x, :])
    np.subtract(mean, spread, out=chi[..., 1 + n_x : 1 + 2 * n_x, :])
    chi.setflags(write=False)
    # np.broadcast_to's read-only view of the shared noise block, one per
    # mixand, without its Python-level cost (about 5 us a call on a 2-core
    # x86 host).  The block is a C-contiguous array of its own.
    ups = noise.sigma_rows(n_x, _GAMMA)
    lead = chi.shape[:-2]
    return SigmaSet(chi, np.ndarray(lead + ups.shape, float, ups, 0, (0,) * len(lead) + ups.strides))


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


def recombine(points: np.ndarray):
    """Weighted moment recombination of a propagated sigma-point set into a Gaussian.

    ``points`` is a (2n + 1, d) set, n = n_x + n_v, weighted as
    ``generate_sigma_points`` spreads it; an even point count raises
    ``DimensionMismatchError``.  A stack of M sets (M, 2n + 1, d) gives a
    ``(means, covs)`` pair of (M, d) and (M, d, d) arrays instead.  Each
    covariance is symmetrized.  It is PSD in exact arithmetic, so it is not
    clipped: for n <= 9 no weight is negative, and for n >= 10, where the
    center covariance weight is, the variance along any direction is still
    at least (3n + 9) / (6 (n - 3)^2) times the sum of the squared
    deviations of the other points from the mean.  The result is valid by
    construction: neither the ``Gaussian`` nor a frame built from it is
    checked again.  Points in any memory layout are taken in C order first,
    since the order of the products and sums, and with it their rounding,
    follows the layout; the same values give the same bits.
    """
    points = np.ascontiguousarray(points, dtype=float)
    count = points.shape[-2]
    if count % 2 == 0:
        raise DimensionMismatchError(f"a sigma-point set has 2n + 1 points, got {count}")
    wm, wc = _weights(count // 2)
    mean = wm @ points
    d = points - mean[..., None, :]
    cov = symmetrize((d * wc[:, None]).swapaxes(-1, -2) @ d)
    if not np.isfinite(cov).all():
        raise NonFiniteValueError("recombined covariance has a non-finite entry")
    if points.ndim > 2:
        return mean, cov
    return Gaussian._unchecked(mean, cov)
