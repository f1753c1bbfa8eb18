"""Affine-fit residual metric for sigma-point propagation.

How well a propagated point set is explained by the best affine model
x' = A x + b is measured by the least-squares residual, computed through
an LQ factorization of the augmented pre-point matrix so that neither A
nor b is ever materialized.  The direction of worst fit becomes the
splitting axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .core import row_dots
from .errors import DimensionMismatchError

_TIE_TOL = 1e-10
_RANK_TOL = 1e-12


@dataclass(frozen=True)
class LinearityReport:
    """Result of the affine-fit assessment for one mixand, or for a stack.

    ``split_axis`` is computed when first read, so an assessment that
    leads to no split costs no eigen-decomposition.
    """

    e_res: float                 # threshold-comparable residual (per normalization mode)
    e_res_raw: float             # raw Frobenius-norm residual
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
    evals, evecs = scipy.linalg.eigh(moments)
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
    axis = axis / np.sqrt(row_dots(axis))[:, None]
    axis[top <= 0.0] = np.eye(moments.shape[1])[0]
    return axis


def assess_linearity(
    pre_points: np.ndarray,
    post_points: np.ndarray,
    *,
    prior_cov: np.ndarray | None = None,
    normalization: str = "scaled",
    e_res_max: float = math.inf,
) -> LinearityReport:
    """Assess how well an affine model explains the point propagation.

    ``pre_points`` and ``post_points`` are the 2*n_x + 1 state sigma
    points (rows) before and after propagation; noise-block points do not
    participate.  ``normalization``:

    * ``"raw"`` -- the plain Frobenius residual (unit-dependent),
    * ``"scaled"`` -- raw divided by sqrt(2 n_x + 1) and by
      sqrt(trace(prior covariance)), comparable across state scales
      (requires ``prior_cov``).

    A stack of M point sets (M, 2 n_x + 1, n_x), with M prior covariances,
    is assessed in one pass; every field of its report then has a leading
    axis of length M.
    """
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

    # Augmented pre-point matrix: state rows plus a row of ones.  Its LQ
    # factors come from the QR factorization of the transpose:
    # c_aug = r_t.T @ q_t.T, with L = r_t.T (n_x + 1, m) and Q = q_t.T (m, m).
    c_aug = np.concatenate([pre.swapaxes(1, 2), np.ones((len(pre), 1, m))], axis=1)
    q_t, r_t = np.linalg.qr(c_aug.swapaxes(1, 2), mode="complete")
    l0_diag = np.abs(np.diagonal(r_t, axis1=1, axis2=2))
    rank_deficient = l0_diag.min(axis=1) <= _RANK_TOL * np.maximum(l0_diag.max(axis=1), 1.0)

    rotated = post.swapaxes(1, 2) @ q_t                  # (M, n_x, m)
    chi_res = rotated[:, :, n_x + 1:]                    # unexplained block
    # The norm of a whole array is one dot product, which rounds
    # differently from a norm along an axis.
    e_raw = np.sqrt(row_dots(chi_res.reshape(len(pre), -1)))
    padded = np.concatenate([np.zeros((len(pre), n_x, n_x + 1)), chi_res], axis=2)
    point_residuals = padded @ q_t.swapaxes(1, 2)        # (M, n_x, m)

    # Splitting axis: principal eigenvector of the residual-norm-weighted
    # second moment of the pre-points, centered on the prior mean.
    res_norms = np.linalg.norm(point_residuals, axis=1)
    centered = pre - pre[:, :1]
    moment = (centered * res_norms[:, :, None]).swapaxes(1, 2) @ centered
    moment = 0.5 * (moment + moment.swapaxes(1, 2))

    if normalization == "raw":
        e_res = e_raw
    elif normalization == "scaled":
        if prior_cov is None:
            raise ValueError("scaled normalization requires prior_cov")
        tr = np.maximum(np.trace(np.atleast_2d(prior_cov), axis1=-2, axis2=-1), 1e-300)
        e_res = e_raw / (math.sqrt(m) * np.sqrt(tr))
    else:
        raise ValueError(f"unknown normalization mode {normalization!r}")

    passed = rank_deficient | (e_res <= e_res_max)
    if single:
        return LinearityReport(float(e_res[0]), float(e_raw[0]), point_residuals[0],
                               bool(passed[0]), bool(rank_deficient[0]), moment[0])
    return LinearityReport(e_res, e_raw, point_residuals, passed, rank_deficient, moment)
