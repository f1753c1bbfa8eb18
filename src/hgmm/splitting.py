"""Offline split optimization and runtime split application.

A "canonical split" approximates the zero-mean unit Gaussian by an
N-component mixture whose means lie evenly spaced on the first axis and
whose components share the covariance diag(sigma^2, 1, ..., 1).  For a
given spacing the optimal weights come from a small quadratic program on
the probability simplex; the spacing itself is found by exhaustive grid
search.  Results are cached in a library file and applied at runtime to
arbitrary mixands along arbitrary axes via an affine change of variables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Gaussian, HybridMixand, matrix_sqrt, symmetrize
from .errors import (
    InvalidSigmaError,
    MaxIterationsError,
    QpInfeasibleError,
    SingularCovarianceError,
)
from .serialize import to_json

DEFAULT_N_VALUES = (3, 5, 7, 9, 11, 13, 15)
DEFAULT_SIGMA_VALUES = (0.1, 0.2, 0.3, 0.4, 0.5)
DEFAULT_GRID_STEP = 1e-3
DEFAULT_GRID_MAX = 4.0

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _norm_pdf_1d(x: np.ndarray, var) -> np.ndarray:
    return _INV_SQRT_2PI / np.sqrt(var) * np.exp(-0.5 * x * x / var)


def split_offsets(n: int, delta_mu: float) -> np.ndarray:
    """Axis-1 mean offsets (i - (N-1)/2) * delta_mu for i = 0..N-1."""
    return (np.arange(n) - (n - 1) / 2.0) * delta_mu


def qp_matrices(means: np.ndarray, sigma: float) -> tuple:
    """Assemble (H, f) of the simplex weight QP for 1-D component means.

    H[l, k] is the cross-correlation of components l and k; f[l] the
    correlation of component l with the unit-Gaussian target.  The split
    objective is J11 - 2 f.w + w.H.w with J11 independent of the weights.
    """
    means = np.asarray(means, dtype=float)
    var = sigma * sigma
    h = _norm_pdf_1d(means[:, None] - means[None, :], 2.0 * var)
    f = _norm_pdf_1d(means, 1.0 + var)
    return h, f


def solve_weight_qp(means: np.ndarray, sigma: float) -> np.ndarray:
    """Optimal simplex weights for fixed component means and spread."""
    h, f = qp_matrices(means, sigma)
    return simplex_qp(h, f)


def simplex_qp(h: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Minimize w.H.w - 2 f.w subject to w >= 0, sum(w) = 1.

    H must be symmetric positive definite.  Uses a primal active-set
    method over the nonnegativity constraints with the equality handled
    through its multiplier; Bland's lowest-index rule keeps the iteration
    deterministic and cycle-free; it gives up after 100 n iterations.
    """
    n = h.shape[0]
    if n == 1:
        return np.array([1.0])

    def eq_solve(free):
        # KKT system for min over the free coordinates with sum = 1.
        k = len(free)
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = 2.0 * h[np.ix_(free, free)]
        kkt[:k, k] = -1.0
        kkt[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[:k] = 2.0 * f[free]
        rhs[k] = 1.0
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            # Coincident means make H rank deficient; take the min-norm solution.
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        return sol[:k], sol[k]

    # Fast path: interior solution.
    free = list(range(n))
    w_free, lam = eq_solve(free)
    if w_free.min() >= 0.0:
        w = np.clip(w_free, 0.0, None)
        return w / w.sum()

    # Primal active-set from the uniform feasible point.
    w = np.full(n, 1.0 / n)
    active = set()
    tol = 1e-12
    for _ in range(100 * n):
        free = [i for i in range(n) if i not in active]
        if not free:
            raise QpInfeasibleError("all coordinates active; simplex empty")
        target, lam = eq_solve(free)
        w_target = np.zeros(n)
        w_target[free] = target
        step = w_target - w
        if np.abs(step).max() <= tol:
            # Check duals of the active bounds; release the lowest-index violator.
            grad = 2.0 * (h @ w - f)
            violators = [i for i in sorted(active) if grad[i] - lam < -1e-11]
            if not violators:
                w = np.clip(w, 0.0, None)
                return w / w.sum()
            active.remove(violators[0])
            continue
        # Largest feasible step toward the target.
        alpha = 1.0
        blocker = None
        for i in free:
            if step[i] < -tol and w[i] > 0.0:
                a = w[i] / (-step[i])
                if a < alpha - 1e-15:
                    alpha, blocker = a, i
                elif abs(a - alpha) <= 1e-15 and (blocker is None or i < blocker):
                    blocker = i
        w = w + alpha * step
        if blocker is not None:
            w[blocker] = 0.0
            active.add(blocker)
    raise MaxIterationsError("active-set weight QP failed to converge")


def qp_kkt_residual(h: np.ndarray, f: np.ndarray, w: np.ndarray) -> float:
    """Max violation of the simplex-QP KKT conditions at ``w``."""
    grad = 2.0 * (h @ w - f)
    free = w > 1e-10
    if free.any():
        lam = float(np.mean(grad[free]))
    else:
        lam = float(grad.min())
    res = abs(w.sum() - 1.0)
    res = max(res, float(-w.min()) if w.min() < 0 else 0.0)
    res = max(res, float(np.abs(grad[free] - lam).max()) if free.any() else 0.0)
    bound = ~free
    if bound.any():
        res = max(res, float(np.clip(lam - grad[bound], 0.0, None).max()))
    return res


def split_isd(n: int, sigma: float, delta_mu: float, weights: np.ndarray) -> float:
    """ISD between the unit 1-D Gaussian and the canonical split mixture."""
    means = split_offsets(n, delta_mu)
    h, f = qp_matrices(means, sigma)
    j11 = _norm_pdf_1d(np.zeros(1), 2.0)[0]
    w = np.asarray(weights, dtype=float)
    return float(j11 - 2.0 * (f @ w) + w @ h @ w)


@dataclass(frozen=True)
class CanonicalSplit:
    """Cached optimal split of the unit Gaussian along the first axis."""

    n: int
    sigma: float
    delta_mu: float
    weights: np.ndarray
    isd: float

    def __post_init__(self):
        if self.n < 1 or self.n % 2 == 0:
            raise ValueError(f"component count must be odd and positive, got {self.n}")
        if not 0.0 < self.sigma <= 1.0:
            raise InvalidSigmaError(f"sigma must lie in (0, 1], got {self.sigma}")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.n,):
            raise ValueError("weight count must equal component count")
        if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        if np.abs(w - w[::-1]).max() > 1e-8:
            raise ValueError("weights must be symmetric about the center component")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def offsets(self) -> np.ndarray:
        return split_offsets(self.n, self.delta_mu)


def optimize_canonical_split(
    n: int,
    sigma: float,
    grid_step: float = DEFAULT_GRID_STEP,
    grid_max: float = DEFAULT_GRID_MAX,
) -> CanonicalSplit:
    """Exhaustive spread search with QP-optimal weights at every grid point."""
    if n % 2 == 0 or n < 1:
        raise ValueError(f"component count must be odd, got {n}")
    if not 0.0 < sigma <= 1.0:
        raise InvalidSigmaError(f"sigma must lie in (0, 1], got {sigma}")
    if n == 1:
        return CanonicalSplit(1, sigma, 0.0, np.array([1.0]), split_isd(1, sigma, 0.0, np.array([1.0])))

    best = None
    steps = int(round(grid_max / grid_step))
    j11 = _norm_pdf_1d(np.zeros(1), 2.0)[0]
    for i in range(steps + 1):
        delta = i * grid_step
        means = split_offsets(n, delta)
        h, f = qp_matrices(means, sigma)
        w = simplex_qp(h, f)
        j = float(j11 - 2.0 * (f @ w) + w @ h @ w)
        if best is None or j < best[0]:
            best = (j, delta, w)
    j, delta, w = best
    # Symmetry of the problem implies symmetric weights; average out the
    # last-bit asymmetry from the solver so library invariants hold exactly.
    w = 0.5 * (w + w[::-1])
    w = w / w.sum()
    return CanonicalSplit(n, sigma, delta, w, split_isd(n, sigma, delta, w))


@dataclass(frozen=True)
class SplitLibrary:
    """Immutable map of precomputed canonical splits keyed by (N, sigma)."""

    entries: dict
    grid_step: float = DEFAULT_GRID_STEP

    def get(self, n: int, sigma: float) -> CanonicalSplit:
        key = (int(n), float(sigma))
        if key not in self.entries:
            raise KeyError(
                f"split library has no entry for N={n}, sigma={sigma}; "
                "rebuild the cache with these parameters"
            )
        return self.entries[key]

    def to_dict(self) -> dict:
        ordered = sorted(self.entries.values(), key=lambda s: (s.n, s.sigma))
        return {
            "grid_step": float(self.grid_step),
            "entries": [
                {
                    "n": s.n,
                    "sigma": s.sigma,
                    "delta_mu": s.delta_mu,
                    "weights": [float(w) for w in s.weights],
                    "isd": s.isd,
                }
                for s in ordered
            ],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_json(self.to_dict()))
            fh.write("\n")

    @staticmethod
    def from_dict(doc: dict) -> "SplitLibrary":
        splits = [
            CanonicalSplit(int(e["n"]), float(e["sigma"]), float(e["delta_mu"]),
                           np.asarray(e["weights"], dtype=float), float(e["isd"]))
            for e in doc["entries"]
        ]
        return SplitLibrary({(s.n, s.sigma): s for s in splits},
                            float(doc.get("grid_step", DEFAULT_GRID_STEP)))

    @staticmethod
    def load(path) -> "SplitLibrary":
        with open(path, "r", encoding="utf-8") as fh:
            return SplitLibrary.from_dict(json.load(fh))


def default_library() -> SplitLibrary:
    """The split library shipped with the package (full default grid)."""
    from importlib.resources import files

    path = files("hgmm.data").joinpath("split_library.json")
    return SplitLibrary.from_dict(json.loads(path.read_text(encoding="utf-8")))


def build_library(
    n_values=DEFAULT_N_VALUES,
    sigma_values=DEFAULT_SIGMA_VALUES,
    grid_step: float = DEFAULT_GRID_STEP,
    grid_max: float = DEFAULT_GRID_MAX,
) -> SplitLibrary:
    splits = [optimize_canonical_split(n, sigma, grid_step, grid_max)
              for n in n_values for sigma in sigma_values]
    return SplitLibrary({(s.n, s.sigma): s for s in splits}, grid_step)


def _householder_to_e1(u: np.ndarray) -> np.ndarray:
    """Orthogonal matrices (reflections) mapping each unit row of ``u`` to e1."""
    d = u.shape[1]
    e1 = np.zeros(d)
    e1[0] = 1.0
    v = u - e1
    nv2 = np.einsum("ki,ki->k", v, v)
    tiny = nv2 < 1e-24
    r = np.eye(d) - 2.0 * (v[:, :, None] * v[:, None, :]) / np.where(tiny, 1.0, nv2)[:, None, None]
    r[tiny] = np.eye(d)
    return r


@dataclass(frozen=True)
class SplitChildren:
    """The children of a stack of split parents, parent by parent.

    ``weights`` (K N,), ``means`` (K N, d) and ``covs`` (K N, d, d) for K
    parents of N children each; ``len`` counts the children.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __len__(self) -> int:
        return len(self.weights)


def apply_split(m, axis: np.ndarray, split: CanonicalSplit):
    """Replace a mixand by the cached split applied along ``axis``.

    ``m`` is a ``HybridMixand`` or a ``(weight, Gaussian)`` pair, and the
    children come back as a list in the same form.  A stack of K parents,
    ``(weights (K,), means (K, d), covs (K, d, d))`` with one axis per row
    of ``axis`` (K, d), is split in one pass and comes back as
    ``SplitChildren``.

    The parent covariance factor T and an orthogonal alignment R map the
    canonical frame onto the parent.  The whitened-frame direction is
    T.T @ axis, which makes the marginal variance along ``axis`` of every
    child exactly sigma^2 times the parent's:

        axis.T @ cov_child @ axis = sigma^2 * axis.T @ cov_parent @ axis

    since cov_child = cov - (1 - sigma^2) (cov @ axis)(cov @ axis).T
    / (axis.T @ cov @ axis).  The child means fan out along cov @ axis.
    """
    if isinstance(m, HybridMixand):
        children = apply_split((m.weight, m.gaussian), axis, split)
        return [HybridMixand(w, m.discrete, g) for w, g in children]
    axis = np.asarray(axis, dtype=float)
    if axis.ndim == 1:
        weight, g = m
        out = apply_split((np.array([weight]), g.mean[None], g.cov[None]), axis[None], split)
        if split.n == 1:
            return [m]
        return [(w, Gaussian._unchecked(mu, cov))
                for w, mu, cov in zip(out.weights.tolist(), out.means, out.covs)]
    weights, means, covs = (np.asarray(a, dtype=float) for a in m)
    axis = axis / np.linalg.norm(axis, axis=1)[:, None]
    t = matrix_sqrt(covs)
    sv = np.linalg.svd(t, compute_uv=False)
    if (sv.min(axis=1) <= 1e-12 * np.maximum(sv.max(axis=1), 1e-300)).any():
        raise SingularCovarianceError("parent covariance is singular; regularize first")
    if split.n == 1:
        return SplitChildren(weights, means, covs)
    # Direction of the split axis in the whitened frame.
    u = np.einsum("kji,kj->ki", t, axis)
    u = u / np.linalg.norm(u, axis=1)[:, None]
    trt = t @ _householder_to_e1(u).swapaxes(1, 2)    # canonical frame -> parent frame
    d = means.shape[1]
    canon_cov = np.eye(d)
    canon_cov[0, 0] = split.sigma ** 2
    child_cov = symmetrize(trt @ canon_cov @ trt.swapaxes(1, 2))
    child_means = split.offsets()[:, None] * trt[:, None, :, 0] + means[:, None, :]
    child_weights = weights[:, None] * split.weights
    # Weight conservation must be exact; absorb rounding into each parent's
    # heaviest child.  Totals are summed left to right, as Python's sum does.
    total = np.cumsum(child_weights, axis=1)[:, -1]
    off = np.flatnonzero(total != weights)
    child_weights[off, child_weights[off].argmax(axis=1)] += weights[off] - total[off]
    return SplitChildren(child_weights.ravel(), child_means.reshape(-1, d),
                         np.repeat(child_cov, split.n, axis=0))
