"""Affine-fit residual metric for sigma-point propagation.

How well a propagated point set is explained by the best affine model
x' = A x + b is measured by the least-squares residual.  The direction of
worst fit becomes the splitting axis.

Two paths compute it:

* ``assess_linearity``, the generic public path, takes any raw point set
  and projects it through an LQ factorization of the augmented pre-point
  matrix, so that neither A nor b is ever materialized.  No module of the
  package calls it.
* ``_symmetric_fit``, the path of the engine and of the univariate
  benchmark, takes the symmetric sets of ``generate_sigma_points`` and
  needs no factorization: for a set x0, x0 + s_j, x0 - s_j the vectors
  e_{+j} + e_{-j} - 2 e_0 span the null space of the augmented points, so
  the residual has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError

_TIE_TOL = 1e-10
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class LinearityReport:
    """Result of the affine-fit assessment for one mixand, or for a stack.

    ``split_axis`` is computed when first read, so an assessment that
    leads to no split costs no eigen-decomposition.
    """

    e_res: float                 # Frobenius norm of the affine fit's residual
    point_residuals: np.ndarray  # n_x x (2 n_x + 1), column j = residual of point j
    passed: bool
    rank_deficient: bool
    moment: np.ndarray           # residual-weighted second moment of the pre-points

    @cached_property
    def split_axis(self) -> np.ndarray:
        """Unit vector, direction of worst affine fit (one row per mixand of a stack)."""
        if self.moment.ndim == 2:
            return _principal_axes(self.moment[None])[0]
        return _principal_axes(self.moment)


def _principal_axes(moments: np.ndarray) -> np.ndarray:
    """Top eigenvector of each symmetric moment matrix of a stack, deterministically signed."""
    evals, evecs = np.linalg.eigh(moments)
    rows = np.arange(len(moments))
    top = evals[:, -1]
    # Candidates within tie tolerance of the top eigenvalue; prefer the one
    # loading most heavily on the lowest coordinate index, then the first.
    tied = evals >= (top - _TIE_TOL * np.maximum(top, 1.0))[:, None]
    load = np.abs(evecs).argmax(axis=1)
    axis = evecs[rows, :, np.where(tied, load, evals.shape[1]).argmin(axis=1)]
    nz = np.abs(axis) > 1e-14
    first = nz.argmax(axis=1)
    flip = nz[rows, first] & (axis[rows, first] < 0)
    axis[flip] = -axis[flip]
    axis = axis / np.linalg.norm(axis, axis=1)[:, None]
    axis[top <= 0.0] = np.eye(moments.shape[1])[0]
    return axis


def assess_linearity(
    pre_points: np.ndarray,
    post_points: np.ndarray,
    *,
    normalization: str = "raw",
    e_res_max: float = math.inf,
) -> LinearityReport:
    """Assess how well an affine model explains the point propagation.

    ``pre_points`` and ``post_points`` are the 2*n_x + 1 state sigma
    points (rows) before and after propagation; noise-block points do not
    participate.  ``e_res`` is the plain Frobenius norm of the residual, in
    the units of the propagated state; ``normalization`` names that metric
    and accepts only ``"raw"``.

    A stack of M point sets (M, 2 n_x + 1, n_x) is assessed in one pass;
    every field of its report then has a leading axis of length M.
    """
    _check_normalization(normalization)
    pre = np.asarray(pre_points, dtype=float)
    post = np.asarray(post_points, dtype=float)
    if pre.shape != post.shape or pre.ndim not in (2, 3):
        raise DimensionMismatchError(
            f"pre/post point shapes differ: {pre.shape} vs {post.shape}"
        )
    m, n_x = pre.shape[-2:]
    if m != 2 * n_x + 1:
        raise DimensionMismatchError(
            f"expected {2 * n_x + 1} state points for dim {n_x}, got {m}"
        )
    single = pre.ndim == 2
    if single:
        pre, post = pre[None], post[None]

    # Augmented pre-point matrix: state rows less the first point, plus a
    # row of ones.  The ones row absorbs the shift, so the residual is that
    # of the points themselves, and the rank test sees only their spread,
    # wherever the set lies.  Its LQ factors come from the QR factorization
    # of the transpose: c_aug = r_t.T @ q_t.T, with L = r_t.T (n_x + 1, m)
    # and Q = q_t.T (m, m).
    centred = pre - pre[:, :1]
    c_aug = np.concatenate([centred.swapaxes(1, 2), np.ones((len(pre), 1, m))], axis=1)
    q_t, r_t = np.linalg.qr(c_aug.swapaxes(1, 2), mode="complete")
    l0_diag = np.abs(np.diagonal(r_t, axis1=1, axis2=2))
    rank_deficient = l0_diag.min(axis=1) <= _RANK_TOL * np.maximum(l0_diag.max(axis=1), 1.0)

    rotated = post.swapaxes(1, 2) @ q_t                  # (M, n_x, m)
    chi_res = rotated[:, :, n_x + 1:]                    # unexplained block
    e_res = np.linalg.norm(chi_res, axis=(1, 2))
    padded = np.concatenate([np.zeros((len(pre), n_x, n_x + 1)), chi_res], axis=2)
    point_residuals = padded @ q_t.swapaxes(1, 2)        # (M, n_x, m)

    moment = _residual_moment(centred, np.linalg.norm(point_residuals, axis=1))

    passed = rank_deficient | (e_res <= e_res_max)
    if single:
        return LinearityReport(float(e_res[0]), point_residuals[0], bool(passed[0]),
                               bool(rank_deficient[0]), moment[0])
    return LinearityReport(e_res, point_residuals, passed, rank_deficient, moment)


def _residual_moment(centred: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Second moment of pre-points centred on the prior mean, each weighted by its residual norm.

    Its principal eigenvector is the splitting axis.
    """
    moment = (centred * norms[:, :, None]).swapaxes(1, 2) @ centred
    return 0.5 * (moment + moment.swapaxes(1, 2))


def _check_normalization(normalization: str) -> None:
    """``ValueError`` unless ``normalization`` is ``"raw"``, the one residual metric."""
    if normalization != "raw":
        raise ValueError(f"normalization must be 'raw', got {normalization!r}; "
                         "the 'scaled' mode was removed")


class _SymmetricFit(NamedTuple):
    """Affine fit of a stack of M symmetric sigma sets, as ``_symmetric_fit`` returns it."""

    e_res: np.ndarray           # (M,) Frobenius norm of the residual
    passed: np.ndarray          # (M,) rank-deficient, or e_res within e_res_max
    rank_deficient: np.ndarray  # (M,) the set spans less than its state space
    centred: np.ndarray         # (M, 2 n_x, n_x) points +j then -j, less the center
    residuals: np.ndarray       # (M, n_x, n_x) row j: residual of points +j and -j

    def split_axes(self, rows: np.ndarray) -> np.ndarray:
        """Unit axis of worst fit of each set in ``rows``, as ``split_axis`` gives it."""
        norms = np.linalg.norm(self.residuals[rows], axis=2)
        return _principal_axes(_residual_moment(self.centred[rows], np.hstack([norms, norms])))


def _symmetric_fit(pre: np.ndarray, post: np.ndarray, e_res_max: float) -> _SymmetricFit:
    """``assess_linearity`` in closed form for the sets ``generate_sigma_points`` makes.

    ``pre`` is a stack (M, 2 n_x + 1, n_x) of state blocks x0, x0 + s_j,
    x0 - s_j, and ``post`` their images.  The residual lies in the span of
    r_j = e_{+j} + e_{-j} - 2 e_0, whose Gram matrix G = 2 I + 4 11^T has
    the inverse I/2 - 11^T / (2 n_x + 1).  With B_j = y_{+j} + y_{-j} - 2 y_0
    the raw residual is sqrt(tr(B^T G^-1 B)), and row j of G^-1 B is the
    residual of points +j and -j; the center's adds nothing to the moment,
    which is centred on x0.  Nothing is factored, so the result does not
    depend on how well the set is conditioned.  ``pre`` and ``post`` are
    taken in C order first: the sums round in an order set by the layout,
    so the same values in any layout give the same bits.

    Rank rule: a set is rank-deficient when its smallest |s_jj| is at most
    1e-12 times the largest, or than 1 if the largest is below 1.  For a
    positive definite covariance, with L its Cholesky factor, |s_jj| =
    sqrt(3) L_jj are the pivots of the centred set: the QR's test of
    ``assess_linearity`` on the spread alone.  For one that is not, factored
    by its clipped eigen-decomposition, s_j is sqrt(3 w_j) times eigenvector
    j, so a zero eigenvalue makes the set rank-deficient.  Neither rule
    depends on x0.  They differ only near the tolerance: the QR's pivots
    are sqrt(2) |s_jj| and, for the ones row, sqrt(2 n_x + 1), which sets
    its scale when the spread is small.
    """
    pre, post = np.ascontiguousarray(pre), np.ascontiguousarray(post)
    n_x = pre.shape[-1]
    centred = pre[:, 1:] - pre[:, :1]
    b = post[:, 1 : 1 + n_x] + post[:, 1 + n_x :] - 2.0 * post[:, :1]
    residuals = 0.5 * b - b.sum(axis=1, keepdims=True) / (2 * n_x + 1)
    e_res = np.sqrt((b * residuals).sum(axis=(1, 2)))
    pivots = np.abs(centred.diagonal(axis1=1, axis2=2))
    rank_deficient = pivots.min(axis=1) <= _RANK_TOL * pivots.max(axis=1, initial=1.0)
    return _SymmetricFit(e_res, rank_deficient | (e_res <= e_res_max), rank_deficient,
                         centred, residuals)
