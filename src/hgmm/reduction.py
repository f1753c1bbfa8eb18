"""Mixture size control by moment-preserving pairwise merging.

Pairs sharing the same discrete label are merged greedily, always taking
the pair with the smallest KLD-upper-bound dissimilarity (Runnalls 2007).
Merging is moment-matched, so the mixture's global mean and covariance are
exact invariants of any merge sequence.  Hypotheses with different discrete
labels are never merged; if the number of distinct labels alone exceeds
the cap, the lightest hypotheses are dropped with a warning.

The reducer keeps the mixands in index-keyed slots and their pair costs in
an upper-triangular matrix over the slots, built once per call from
batched moment-matched covariances and batched log-determinants.  A
merge writes its product into the lower slot ``i`` and retires slot ``j``,
so the alive slots keep the input order.  Only row and column ``i`` are
then recomputed: slot i's new moments are broadcast against its alive
same-label partners in one batched call.  Each row's minimum is cached, so
finding the next merge scans M values rather than M^2 cells; a merge
rescans only the rows whose minimum it may have moved.  Costs within a
relative band of the least one are tied, and ties go to the lowest
``(i, j)``: mirror-image split children give costs that are equal in exact
arithmetic, and the result depends neither on object identity nor on how
their last bit rounds.  The matrix takes 8 M^2 bytes: 80 KB at the 100
mixands of a split-heavy step, 115 MB at 3800.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import Gaussian, HybridMixand, HybridMixture, normalize

log = logging.getLogger(__name__)

# Costs of +inf or NaN (singular covariances, log-det -inf) are clamped
# here, so such pairs merge after every finite pair instead of passing for
# cells that hold no pair, which stay at +inf.
_COST_MAX = np.finfo(float).max
# Pair costs computed per batched call.  Bounds the memory held by the
# stacked candidate covariances; at 1024 pairs (128 KiB per stacked array)
# it was also faster than larger batches on 4x4 covariances.
_CHUNK = 1024
# Cost-matrix cells handled per block when filling or rescanning rows, so
# the temporaries stay small next to the M x M matrix itself.
_BLOCK_CELLS = 1 << 16
# Costs within this relative distance of the least one are tied.  A cost is
# a difference of weighted log-determinants, so rounding moves it by a few
# ulps of its terms, some orders of magnitude below the band; a pair
# cheaper by more than the band is cheaper in exact arithmetic too.
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class ReductionConfig:
    """Mixture size cap; merging only ever occurs within a discrete state."""

    max_mixands: int = 10

    def __post_init__(self):
        if self.max_mixands < 1:
            raise ValueError("max_mixands must be at least 1")


def _merged_moments(wa, ma, ca, wb, mb, cb):
    """Moment-matched merge of components: weights (...), means (..., n), covs (..., n, n).

    Either side may be one component broadcast against a stack of the other.
    The merge is symmetric in its two sides, bit for bit.
    """
    w = wa + wb
    fa, fb = (wa / w)[..., None], (wb / w)[..., None]
    mean = fa * ma + fb * mb
    da, db = ma - mean, mb - mean
    cov = fa[..., None] * (ca + da[..., :, None] * da[..., None, :]) + fb[..., None] * (
        cb + db[..., :, None] * db[..., None, :]
    )
    return w, mean, 0.5 * (cov + cov.swapaxes(-1, -2))


def merge_pair(a: HybridMixand, b: HybridMixand) -> HybridMixand:
    """Moment-matched merge of two mixands sharing a discrete label."""
    w, mean, cov = _merged_moments(
        np.array([a.weight]), a.gaussian.mean[None], a.gaussian.cov[None],
        np.array([b.weight]), b.gaussian.mean[None], b.gaussian.cov[None],
    )
    return HybridMixand(float(w[0]), a.discrete, Gaussian(mean[0], cov[0]))


def merge_cost(a: HybridMixand, b: HybridMixand) -> float:
    """KLD upper bound on the divergence increase caused by merging a and b."""
    merged = merge_pair(a, b)
    _, ld_ab = np.linalg.slogdet(merged.gaussian.cov)
    _, ld_a = np.linalg.slogdet(a.gaussian.cov)
    _, ld_b = np.linalg.slogdet(b.gaussian.cov)
    return 0.5 * ((a.weight + b.weight) * ld_ab - a.weight * ld_a - b.weight * ld_b)


def _pair_costs(w, mean, cov, logdet, ia, ib) -> np.ndarray:
    """``merge_cost`` of slot pairs ``(ia[k], ib[k])``, batched over k; ``ia`` may be one slot."""
    out = np.empty(len(ib))
    for s in range(0, len(ib), _CHUNK):
        a, b = ia[s : s + _CHUNK] if np.ndim(ia) else ia, ib[s : s + _CHUNK]
        wm, _, cm = _merged_moments(w[a], mean[a], cov[a], w[b], mean[b], cov[b])
        with np.errstate(invalid="ignore"):  # singular covariances: -inf + inf
            out[s : s + _CHUNK] = 0.5 * (
                wm * np.linalg.slogdet(cm)[1] - w[a] * logdet[a] - w[b] * logdet[b]
            )
    return _clamp(out)


def _clamp(costs: np.ndarray) -> np.ndarray:
    """Costs with NaN and +inf replaced by ``_COST_MAX``; finite costs pass untouched."""
    if np.isfinite(costs).all():
        return costs
    return np.nan_to_num(costs, nan=_COST_MAX, posinf=_COST_MAX)


def reduce_mixture(mix: HybridMixture, cfg: ReductionConfig) -> HybridMixture:
    """Merge mixands until the total count is at most the configured cap."""
    if len(mix) <= cfg.max_mixands:
        return mix
    m = len(mix)
    w, mean, cov = mix.weights.copy(), mix.means.copy(), mix.covs.copy()
    logdet = np.linalg.slogdet(cov)[1]
    codes: dict = {}
    label = np.array([codes.setdefault(alpha, len(codes)) for alpha in mix.labels])
    alive = np.ones(m, dtype=bool)

    # costs[i, j] (i < j, same label) is the cost of merging slots i and j;
    # every other cell is +inf.
    costs = np.full((m, m), np.inf)
    idx = np.arange(m)
    block = max(1, _BLOCK_CELLS // m)
    for r0 in range(0, m, block):
        rows = idx[r0 : r0 + block, None]
        ia, ib = np.nonzero((label[rows] == label) & (rows < idx))
        ia += r0
        costs[ia, ib] = _pair_costs(w, mean, cov, logdet, ia, ib)
    # Each row's cheapest cell, so a step scans M row minima, not M^2 cells.
    best = costs.argmin(axis=1)
    row_min = costs[idx, best]

    for _ in range(m - cfg.max_mixands):
        least = float(row_min.min())
        if least == np.inf:
            # Only distinct discrete hypotheses remain; drop the lightest.
            drop = min(np.flatnonzero(alive), key=lambda k: (w[k], k))
            log.warning(
                "mixand cap %d below distinct discrete hypothesis count; "
                "dropping hypothesis %r with weight %.3e",
                cfg.max_mixands,
                mix.labels[drop],
                w[drop],
            )
            alive[drop] = False
            continue
        # The lowest (i, j) within the tie band; clamped costs tie only
        # with equal ones, so the band cannot overflow to the empty cells.
        band = least if least == _COST_MAX else least + _TIE_RTOL * abs(least)
        i = int(np.argmax(row_min <= band))
        j = int(np.argmax(costs[i] <= band))
        w[i], mean[i], cov[i] = _merged_moments(w[i], mean[i], cov[i], w[j], mean[j], cov[j])
        logdet[i] = np.linalg.slogdet(cov[i])[1]
        alive[j] = False
        costs[j] = np.inf
        costs[:, j] = np.inf
        same = alive & (label == label[i])
        same[i] = False
        partners = np.flatnonzero(same)
        k = int(np.searchsorted(partners, i))
        lo, hi = partners[:k], partners[k:]
        cost = _pair_costs(w, mean, cov, logdet, i, partners)
        costs[lo, i] = cost[:k]
        costs[i, hi] = cost[k:]
        # Rescan rows i and j, the rows whose minimum sat on slot i or j, and
        # the rows above i whose new cell may be their minimum.
        stale = (best == i) | (best == j)
        stale[i] = stale[j] = True
        stale[lo] |= cost[:k] <= row_min[lo]
        stale = np.flatnonzero(stale)
        for r0 in range(0, len(stale), block):
            rows = stale[r0 : r0 + block]
            scan = costs[rows]
            best[rows] = scan.argmin(axis=1)
            row_min[rows] = scan.min(axis=1)
    labels = tuple(alpha for alpha, keep in zip(mix.labels, alive) if keep)
    return normalize((w[alive], mean[alive], cov[alive], labels), mix.time_index, check=False)
