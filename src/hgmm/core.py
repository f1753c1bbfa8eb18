"""Core distribution types and closed-form Gaussian utilities.

The continuous part of every hypothesis is a plain Gaussian; a hybrid
mixand attaches a weight and an opaque discrete label to it; a mixture
frame holds its mixands as stacked arrays, and their labels as a table of
the distinct labels in use plus one unsigned code per mixand.  That label
encoding (``_code_dtype``, ``_encode``, ``_decode``) is defined here
alone: the engine, the reducer and the particle oracle work on codes.  All
types are immutable after construction.  The public constructors, and
``normalize`` given anything but a frame, validate what they are given,
one vectorised check per frame; frames built inside the engine hold rows
that are valid by construction and are not checked again.

The package runs on NumPy alone: the density kernel ``gaussian_logpdf``
and ``matrix_sqrt``, whose eigen fallback for a covariance that is not
positive definite is NumPy's stacked ``eigh``, taken only for the
matrices of a stack whose Cholesky fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

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
        # Copies, so freezing them leaves the caller's arrays writeable.
        mean = np.atleast_1d(np.array(self.mean, dtype=float))
        cov = _as_matrix(np.array(self.cov, dtype=float))
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


def _code_dtype(n_labels: int) -> np.dtype:
    """The smallest unsigned dtype that holds codes 0 .. n_labels - 1."""
    return np.min_scalar_type(max(n_labels - 1, 0))


def _encode(labels, table: tuple = ()) -> tuple:
    """``(table, codes)``: one code per label, into ``table`` extended by the labels it lacks.

    Labels are dict keys, so equal labels share a code.  New labels join
    the table in order of first use, so ``_encode(labels)`` is the encoding
    a frame holds: the labels in use, in order of first use.  The codes
    take ``_code_dtype`` of the extended table's length.
    """
    index = {label: c for c, label in enumerate(table)}
    codes = [index.setdefault(label, len(index)) for label in labels]
    return tuple(index), np.array(codes, dtype=_code_dtype(len(index)))


def _decode(table: tuple, codes) -> tuple:
    """The label that each code names in ``table``, in order.

    ``_encode(_decode(table, codes))`` re-encodes a subset of a frame's
    rows to the labels they use.
    """
    return tuple(np.fromiter(table, dtype=object, count=len(table))[codes].tolist())


def _frame(weights, means, covs, table, codes, time_index) -> HybridMixture:
    """Frame on arrays taken as they are.

    The caller vouches for its rows, its weight sum, and for ``(table, codes)``
    being ``_encode`` of its labels.
    """
    if not weights.min(initial=math.inf) > 0:     # NaN fails too; an empty frame passes
        raise ValueError("mixand weights must be positive")
    for array in (weights, means, covs, codes):
        array.setflags(write=False)
    frame = object.__new__(HybridMixture)
    frame.__dict__.update(weights=weights, means=means, covs=covs, table=table, codes=codes,
                          time_index=time_index)
    return frame


@dataclass(frozen=True, init=False, eq=False)
class HybridMixture:
    """Normalized weighted set of hybrid mixands at one time index.

    A frame of M mixands in n dimensions is held as read-only arrays,
    ``weights`` (M,), ``means`` (M, n) and ``covs`` (M, n, n), and its
    labels as ``table``, the distinct labels in use in order of first use,
    plus ``codes`` (M,), one unsigned index into ``table`` per mixand in
    ``_code_dtype(len(table))``.  ``labels`` decodes them on first read;
    ``mixands`` views the rows as ``HybridMixand`` objects.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    table: tuple
    codes: np.ndarray
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
        weights, means, covs, labels = _stack(mixands)
        _check_moments(means, covs)
        self.__dict__.update(_frame(weights, means, covs, *_encode(labels), time_index).__dict__,
                             mixands=mixands)

    @cached_property
    def labels(self) -> tuple:
        """The label of each mixand, in order."""
        return _decode(self.table, self.codes)

    @cached_property
    def mixands(self) -> tuple:
        gaussians = map(Gaussian._unchecked, self.means, self.covs)
        return tuple(map(HybridMixand, self.weights.tolist(), self.labels, gaussians))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def __len__(self) -> int:
        return len(self.weights)


def normalize(mixands, time_index: int = 0, weight_floor: float = 0.0) -> HybridMixture:
    """Rescale weights to sum to one, optionally dropping negligible mixands.

    ``mixands`` is a ``HybridMixture``, an iterable of ``HybridMixand``, or
    a ``(weights, means, covs, labels)`` tuple, whose arrays are copied.
    With a positive ``weight_floor``, mixands lighter than the floor after
    the first normalization pass are removed and weights renormalized.  A
    frame at ``time_index`` summing to exactly 1, none under the floor, is returned as is.

    Mixands and tuples enter here, so their means and covariances are
    checked like ``Gaussian``'s, once for the whole frame.  A frame's rows
    are not checked again.
    """
    frame = mixands if isinstance(mixands, HybridMixture) else None
    if frame is not None:
        weights, means, covs, table, codes = (frame.weights, frame.means, frame.covs,
                                              frame.table, frame.codes)
    else:
        mixands = tuple(mixands)
        if mixands and isinstance(mixands[0], HybridMixand):
            mixands = _stack(mixands)
        if not mixands or not len(mixands[0]):
            raise EmptyMixtureError("cannot normalize an empty mixand list")
        weights, means, covs = (np.array(a, dtype=float) for a in mixands[:3])
        table, codes = _encode(mixands[3])
        _check_moments(means, covs)
    # Totals are summed left to right, as Python's sum does, so no weight
    # depends on NumPy's pairwise summation order.
    listed = weights.tolist()
    total = sum(listed)
    if (frame is not None and total == 1.0 and time_index == frame.time_index
            and min(listed) >= weight_floor):
        return frame    # the bits every pass below would give
    if total <= 0:
        raise ValueError("total weight must be positive")
    weights = weights / total
    if weight_floor > 0.0:
        kept = weights >= weight_floor
        if kept.any():
            if not kept.all():
                weights, means, covs = weights[kept], means[kept], covs[kept]
                table, codes = _encode(_decode(table, codes[kept]))
            weights = weights / sum(weights.tolist())
    # Nudge the largest weight so the sum is exactly representable as 1;
    # a second pass absorbs any last-bit rounding from the first.
    for _ in range(3):
        s = sum(weights.tolist())
        if s == 1.0:
            break
        weights[int(np.argmax(weights))] += 1.0 - s
    return _frame(weights, means, covs, table, codes, time_index)


@dataclass(frozen=True, eq=False)
class ProcessNoise:
    """Time-invariant zero-mean Gaussian process noise."""

    cov: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    # matrix_sqrt(cov), computed once for every sigma-point set that uses it.
    sqrt: np.ndarray = field(init=False, repr=False)
    # Sigma-set noise blocks by (n_x, gamma), each built once by ``sigma_rows``.
    _sigma_rows: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        cov = np.array(self.cov, dtype=float)   # a copy: the caller's array stays writeable
        cov = np.atleast_2d(cov) if cov.size else cov.reshape(0, 0)
        if cov.shape[0] != cov.shape[1]:
            raise DimensionMismatchError("process noise covariance must be square")
        if cov.shape[0] > 0:
            _check_symmetric(cov)
            try:
                np.linalg.cholesky(cov)
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

    def sigma_rows(self, n_x: int, gamma: float) -> np.ndarray:
        """Read-only noise block, (1 + 2 (n_x + dim), dim), of a sigma-point set.

        Zero on the center row and the 2 n_x state rows, then +gamma and
        -gamma times the columns of ``sqrt``.  Each block is built once and
        kept: ``generate_sigma_points`` always passes gamma = sqrt(3), so
        there is one block per state dimension.
        """
        rows = self._sigma_rows.get((n_x, gamma))
        if rows is None:
            rows = np.zeros((1 + 2 * (n_x + self.dim), self.dim))
            if self.dim > 0:
                spread = gamma * self.sqrt.T
                rows[1 + 2 * n_x :] = np.vstack([spread, -spread])
            rows.setflags(write=False)
            self._sigma_rows[n_x, gamma] = rows
        return rows


def matrix_sqrt(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular-preferred square root S with S @ S.T == cov.

    Cholesky when the matrix is positive definite; otherwise an
    eigen-decomposition with small negative eigenvalues clamped to zero.
    The input is checked first: a non-finite entry raises
    ``NonFiniteValueError`` and an asymmetry beyond tolerance
    ``NotSymmetricError``.  A stack (M, n, n) gets one check and one
    Cholesky for all matrices; if that fails, each matrix is tried on its
    own, and only the ones that are not positive definite take the eigen
    path, all in one stacked decomposition.
    """
    cov = _as_matrix(cov)
    if cov.shape[-1] == 0:
        return cov.copy()
    _check_symmetric(cov)
    return _factor(cov)


def _factor(cov: np.ndarray) -> np.ndarray:
    """``matrix_sqrt`` of a finite, symmetric-within-tolerance matrix or stack, unchecked.

    The engine factors its own covariances here: they were checked where
    they entered, or made symmetric by the step that built them.  The
    symmetric part is factored, so the result is ``matrix_sqrt``'s bit for bit.
    """
    sym = symmetrize(cov)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        pass
    stack = sym.reshape(-1, *sym.shape[-2:])
    out = np.empty_like(stack)
    failed = []
    for i, matrix in enumerate(stack):
        try:
            out[i] = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            failed.append(i)
    out[failed] = _eigen_sqrt(stack[failed])
    return out.reshape(sym.shape)


def _eigen_sqrt(stack: np.ndarray) -> np.ndarray:
    """``v sqrt(w)`` of each matrix of a stack, from one ``np.linalg.eigh`` call.

    Eigenvalues above -1e-9 times the trace are clipped to zero; a lower
    one raises ``IndefiniteMatrixError``.
    """
    w, v = np.linalg.eigh(stack)
    tr = np.maximum(np.trace(stack, axis1=1, axis2=2), 1e-300)
    low = w[:, 0] < -_EIG_RTOL * tr
    if low.any():
        raise IndefiniteMatrixError(
            f"matrix eigenvalue {w[low, 0].min():.3e} below tolerance; not PSD"
        )
    return v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]


NO_NOISE = ProcessNoise(np.zeros((0, 0)))


def _whiten(mean: np.ndarray, cov: np.ndarray, xs: np.ndarray) -> tuple:
    """``(z, chol)``: the points whitened, ``chol^-1 (xs - mean)^T``, as an (n, P) array.

    ``chol`` is the ``np.linalg.cholesky`` factor of the symmetric part of
    ``cov``.  ``z`` starts as one C-ordered copy of ``xs - mean`` (row i:
    coordinate i of every point) and is solved by forward substitution in
    place, one row at a time; each row is multiplied by the reciprocal of its
    diagonal entry, as OpenBLAS's triangular solve does, so that for n = 1
    ``z`` is SciPy's ``solve_triangular`` bit for bit (for larger n it is
    within a few units in the last place).
    """
    n = mean.shape[0]
    sym = symmetrize(cov)
    xs = np.atleast_2d(xs)
    z = np.empty((n, xs.shape[0]))
    np.subtract(xs.T, mean[:, None], out=z)
    if not (np.isfinite(sym).all() and np.isfinite(z).all()):
        raise ValueError("mean, covariance and points must be finite")
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        sym = sym + (1e-12 * max(np.trace(sym), 1e-300)) * np.eye(n)
        chol = np.linalg.cholesky(sym)
    for i, row in enumerate(z):
        for j in range(i):
            row -= chol[i, j] * z[j]
        row *= 1.0 / chol[i, i]
    return z, chol


def gaussian_logpdf(mean: np.ndarray, cov: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Log density of N(mean, cov) at each row of ``xs``.

    One Cholesky factor serves every row (``_whiten``).
    A covariance that is not numerically positive definite gets a
    1e-12 * trace jitter first; one that still fails raises
    ``np.linalg.LinAlgError``.  A non-finite mean, covariance or point
    raises ``ValueError``.  The squared whitened coordinates are summed one
    coordinate at a time, left to right, along the rows of the (n, P)
    whitened array: each pass runs over the batch, and no (n, P) square is
    made.  For n <= 7 this is ``np.sum(z * z, axis=0)`` bit for bit; from
    n = 8 NumPy's pairwise summation reorders that sum, and the two differ
    by up to about 2e-16 relative.
    """
    z, chol = _whiten(mean, cov, xs)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    sq = np.zeros(z.shape[1])
    for row in z:
        sq += row * row
    return -0.5 * sq - 0.5 * (mean.shape[0] * math.log(2.0 * math.pi) + logdet)


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
