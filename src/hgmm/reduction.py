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
so the alive slots keep the input order; only row and column ``i`` are then
recomputed, again in one batched call.  Each row's minimum is cached, so
finding the next merge scans M values rather than M^2 cells.  Ties go to
the lowest ``(i, j)``.  The result depends only on the input values, never
on object identity.  The matrix takes 8 M^2 bytes: 80 KB at the 100
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


@dataclass(frozen=True)
class ReductionConfig:
    """Mixture size cap; merging only ever occurs within a discrete state."""

    max_mixands: int = 10

    def __post_init__(self):
        if self.max_mixands < 1:
            raise ValueError("max_mixands must be at least 1")


def _merged_moments(wa, ma, ca, wb, mb, cb):
    """Moment-matched merge of stacked components: weights (k,), means (k, n), covs (k, n, n)."""
    w = wa + wb
    fa, fb = (wa / w)[:, None], (wb / w)[:, None]
    mean = fa * ma + fb * mb
    da, db = ma - mean, mb - mean
    cov = fa[:, :, None] * (ca + da[:, :, None] * da[:, None, :]) + fb[:, :, None] * (
        cb + db[:, :, None] * db[:, None, :]
    )
    return w, mean, 0.5 * (cov + cov.swapaxes(1, 2))


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
    """``merge_cost`` of slot pairs ``(ia[k], ib[k])``, batched over k."""
    out = np.empty(len(ia))
    for s in range(0, len(ia), _CHUNK):
        a, b = ia[s : s + _CHUNK], ib[s : s + _CHUNK]
        wm, _, cm = _merged_moments(w[a], mean[a], cov[a], w[b], mean[b], cov[b])
        with np.errstate(invalid="ignore"):  # singular covariances: -inf + inf
            out[s : s + _CHUNK] = 0.5 * (
                wm * np.linalg.slogdet(cm)[1] - w[a] * logdet[a] - w[b] * logdet[b]
            )
    return np.nan_to_num(out, nan=_COST_MAX, posinf=_COST_MAX)


def reduce_mixture(mix: HybridMixture, cfg: ReductionConfig) -> HybridMixture:
    """Merge mixands until the total count is at most the configured cap."""
    if len(mix) <= cfg.max_mixands:
        return mix
    slots = list(mix.mixands)
    m = len(slots)
    w = np.array([s.weight for s in slots])
    mean = np.stack([s.gaussian.mean for s in slots])
    cov = np.stack([s.gaussian.cov for s in slots])
    logdet = np.linalg.slogdet(cov)[1]
    codes: dict = {}
    label = np.array([codes.setdefault(s.discrete, len(codes)) for s in slots])
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
    # np.argmin keeps the first of equal values: ties go to the lowest (i, j).
    best = costs.argmin(axis=1)
    row_min = costs[idx, best]

    for _ in range(m - cfg.max_mixands):
        i = int(np.argmin(row_min))
        j = int(best[i])
        if row_min[i] == np.inf:
            # Only distinct discrete hypotheses remain; drop the lightest.
            drop = min(np.flatnonzero(alive), key=lambda k: (slots[k].weight, k))
            log.warning(
                "mixand cap %d below distinct discrete hypothesis count; "
                "dropping hypothesis %r with weight %.3e",
                cfg.max_mixands,
                slots[drop].discrete,
                slots[drop].weight,
            )
            alive[drop] = False
            continue
        merged = merge_pair(slots[i], slots[j])
        slots[i] = merged
        alive[j] = False
        costs[j, :] = np.inf
        costs[:, j] = np.inf
        w[i], mean[i], cov[i] = merged.weight, merged.gaussian.mean, merged.gaussian.cov
        logdet[i] = np.linalg.slogdet(merged.gaussian.cov)[1]
        partners = np.flatnonzero(alive & (label == label[i]))
        lo, hi = partners[partners < i], partners[partners > i]
        ia = np.concatenate([lo, np.full(len(hi), i)])
        ib = np.concatenate([np.full(len(lo), i), hi])
        costs[ia, ib] = _pair_costs(w, mean, cov, logdet, ia, ib)
        # Rows whose minimum sat on slot i or j are rescanned; rows above i
        # that kept their minimum only need comparing with their new cell.
        stale = (best == i) | (best == j)
        stale[[i, j]] = True
        lo = lo[~stale[lo]]
        new = costs[lo, i]
        won = (new < row_min[lo]) | ((new == row_min[lo]) & (i < best[lo]))
        best[lo[won]] = i
        row_min[lo[won]] = new[won]
        stale = np.flatnonzero(stale)
        for r0 in range(0, len(stale), block):
            rows = stale[r0 : r0 + block]
            best[rows] = costs[rows].argmin(axis=1)
            row_min[rows] = costs[rows, best[rows]]
    return normalize([s for s, keep in zip(slots, alive) if keep], mix.time_index)
