"""Sigma-point generation, propagation, and recombination.

The point set jointly covers state and process-noise uncertainty: one
center point, a +/- pair per state axis, and a +/- pair per noise axis.
Noise-free models (n_v = 0) simply get no noise block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh

from .core import Gaussian, ProcessNoise, matrix_sqrt, symmetrize
from .errors import DimensionMismatchError


def default_lambda(n_x: int, n_v: int = 0) -> float:
    """Kurtosis-matching heuristic: lambda = 3 - (n_x + n_v)."""
    return 3.0 - (n_x + n_v)


@dataclass(frozen=True)
class RecombinationWeights:
    """Mean and covariance recombination weights for a sigma-point set."""

    mean_weights: np.ndarray
    cov_weights: np.ndarray

    @staticmethod
    def for_dims(n_x: int, n_v: int, lam: float) -> "RecombinationWeights":
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
    mean; noise entries are zero for all state-block indices.
    """

    state_points: np.ndarray
    noise_points: np.ndarray
    lam: float
    gamma: float

    @property
    def n_x(self) -> int:
        return self.state_points.shape[1]

    @property
    def n_v(self) -> int:
        return self.noise_points.shape[1]

    @property
    def count(self) -> int:
        return self.state_points.shape[0]

    def weights(self) -> RecombinationWeights:
        return RecombinationWeights.for_dims(self.n_x, self.n_v, self.lam)

    def state_block(self) -> np.ndarray:
        """The 1 + 2*n_x points that carry state (not noise) spread."""
        return self.state_points[: 1 + 2 * self.n_x]


def generate_sigma_points(
    g: Gaussian, noise: ProcessNoise, lam: Optional[float] = None
) -> SigmaSet:
    """Build the augmented sigma-point set for a Gaussian and process noise."""
    n_x, n_v = g.dim, noise.dim
    if lam is None:
        lam = default_lambda(n_x, n_v)
    n = n_x + n_v
    if lam <= -n:
        raise ValueError(f"lambda must exceed -(n_x + n_v) = {-n}")
    gamma = np.sqrt(n + lam)
    s_x = matrix_sqrt(g.cov)
    count = 1 + 2 * n
    chi = np.tile(g.mean, (count, 1))
    ups = np.zeros((count, n_v))
    for j in range(n_x):
        chi[1 + j] = g.mean + gamma * s_x[:, j]
        chi[1 + n_x + j] = g.mean - gamma * s_x[:, j]
    if n_v > 0:
        s_v = matrix_sqrt(noise.cov)
        for j in range(n_v):
            ups[1 + 2 * n_x + j] = gamma * s_v[:, j]
            ups[1 + 2 * n_x + n_v + j] = -gamma * s_v[:, j]
    chi.setflags(write=False)
    ups.setflags(write=False)
    return SigmaSet(chi, ups, float(lam), float(gamma))


def propagate_points(s: SigmaSet, alpha_next: object, f_c_batch: Callable) -> np.ndarray:
    """Push every (state, noise) point pair through the continuous dynamics.

    ``f_c_batch(alpha_next, xs, vs)`` gets all (count, n_x) state points and
    (count, n_v) noise points in one call and must return the (count, n_x)
    propagated states; any other shape raises ``DimensionMismatchError``.
    """
    out = np.asarray(f_c_batch(alpha_next, s.state_points, s.noise_points), dtype=float)
    if out.shape != (s.count, s.n_x):
        raise DimensionMismatchError(
            f"propagated points have shape {out.shape}, expected {(s.count, s.n_x)}"
        )
    return out


def recombine(points: np.ndarray, w: RecombinationWeights) -> Gaussian:
    """Weighted moment recombination of propagated points into a Gaussian."""
    points = np.asarray(points, dtype=float)
    if points.shape[0] != w.mean_weights.shape[0]:
        raise DimensionMismatchError("point count does not match weight count")
    mean = w.mean_weights @ points
    d = points - mean
    cov = symmetrize((d * w.cov_weights[:, None]).T @ d)
    # Clip tiny negative eigenvalues so the result is a valid covariance.
    evals = np.linalg.eigvalsh(cov)
    if evals.min() < 0.0:
        wv, v = eigh(cov)
        cov = symmetrize((v * np.clip(wv, 0.0, None)) @ v.T)
    return Gaussian(mean, cov)
