"""Mixture size control by moment-preserving pairwise merging.

Pairs sharing the same discrete label are merged greedily, always taking
the pair with the smallest KLD-upper-bound dissimilarity (Runnalls 2007).
Merging is moment-matched, so the mixture's global mean and covariance are
exact invariants of any merge sequence.  Hypotheses with different discrete
labels are never merged; if the number of distinct labels alone exceeds
the cap, the lightest hypotheses are dropped with a warning.

The reducer keeps the mixands in index-keyed slots and their pair costs in
a symmetric matrix over the slots.  Every merged covariance, costed or
stored, comes from one expression, ``_merged_cov``: the uncentred form
``f_i P_i + f_k P_k + f_i f_k d d^T`` (``f_i + f_k = 1``, ``d = mu_i -
mu_k``) of the moment-matched covariance, which needs neither the merged
mean nor a symmetrize.  One kernel, ``_pair_costs``, computes every cost,
with the log-determinants of a whole batch of pairs in one ``slogdet``
call.  The matrix is filled once per call.  A merge writes its product,
``_merged_moments``' arithmetic on Python floats, into the lower slot
``i`` and retires slot ``j``, so the alive slots keep the input order.
One kernel call then costs slot i against its alive same-label partners,
and its ``slogdet`` call also takes slot i's new covariance, stacked with
the merged ones in a buffer allocated once per reduction.  Each row's
minimum is cached, so finding the next merge scans M values rather than
M^2 cells; a merge rescans only the rows whose minimum sat on slot i or j
and those whose new cell is at most their cached minimum.  Costs within a
relative band of the least one are tied, and ties go to the lowest
``(i, j)``: mirror-image split children give costs that are equal in exact
arithmetic, and the result depends neither on object identity nor on how
their last bit rounds.  The matrix takes 8 M^2 bytes: 80 KB at the 100
mixands of a split-heavy step, 115 MB at 3800.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass

import numpy as np

from .core import Gaussian, HybridMixand, HybridMixture, _decode, _encode, _frame, normalize

log = logging.getLogger(__name__)

# Costs of +inf or NaN (singular covariances, log-det -inf) are clamped
# here, so such pairs merge after every finite pair instead of passing for
# cells that hold no pair, which stay at +inf.
_COST_MAX = np.finfo(float).max
# Pair costs computed per batched call when filling the matrix.  Bounds the
# memory held by the stacked covariances: 64 KiB per 4x4 stack at 512.  At
# 1024 a stack is 128 KiB, exactly glibc malloc's default mmap threshold,
# and unless an earlier large allocation has raised that threshold (SciPy's
# import did) the fill's temporaries cost about 1,165 page faults and
# 2.8 ms of system time per split_heavy call; at 512, about 0.5 faults.
# Filling 100 mixands of one label with 4x4 covariances took a median
# 2.4-2.7 ms at 256, 512 and 1024 pairs per call, equal within the
# run-to-run spread, and 3.2-3.3 ms at 2048 and 4096 (2-core host).  Every
# pair cost is elementwise in its pair, so the chunk size changes no bit.
_CHUNK = 512
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
        if not isinstance(self.max_mixands, numbers.Integral):
            raise ValueError(f"max_mixands must be an integer, got {self.max_mixands!r}")
        if self.max_mixands < 1:
            raise ValueError("max_mixands must be at least 1")


def _merged_cov(fa, ca, fb, cb, d, out=None):
    """Moment-matched covariance ``f_a P_a + f_b P_b + f_a f_b d d^T``, written to ``out`` if given.

    ``f = w / (w_a + w_b)`` are floats or arrays (..., 1, 1) that broadcast
    against the covariances, and ``d = mu_a - mu_b``.  Swapping the sides
    changes no bit, and symmetric ``P_a``, ``P_b`` give an exactly symmetric sum.
    """
    return np.add(fa * ca + fb * cb, (fa * fb) * (d[..., :, None] * d[..., None, :]), out=out)


def _merged_moments(wa, ma, ca, wb, mb, cb):
    """Moment-matched merge of components: weights (...), means (..., n), covs (..., n, n).

    Either side may be one component broadcast against a stack of the other.
    The merge is symmetric in its two sides, bit for bit.
    """
    w = wa + wb
    fa, fb = wa / w, wb / w
    cov = _merged_cov(fa[..., None, None], ca, fb[..., None, None], cb, ma - mb)
    return w, fa[..., None] * ma + fb[..., None] * mb, cov


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


def _pair_costs(wa, ma, ca, lda, wb, mb, cb, ldb, out=None):
    """``merge_cost`` of pairs ``(a_k, b_k)``, batched over k.

    Each side gives weights (K,), means (K, n), covariances (K, n, n) and
    log-determinants (K,); side a may be one mixand, broadcast.  The
    merged covariance is ``_merged_cov``'s, the one ``_merged_moments``
    stores, and the cost is symmetric in its two sides, bit for bit.
    Returns the costs and ``lda``; with ``lda`` None, side a is one slot
    whose log-det is taken in the same ``slogdet`` call and returned.  That
    call takes the slot's covariance and the K merged ones stacked in the
    first K + 1 rows of ``out``, or of a new array if ``out`` is None.
    """
    w = wa + wb
    fa, fb = (wa / w)[:, None, None], (wb / w)[:, None, None]
    if lda is None:
        stack = np.empty((len(w) + 1, *ca.shape)) if out is None else out[: len(w) + 1]
        stack[0] = ca
        _merged_cov(fa, ca, fb, cb, ma - mb, out=stack[1:])
        logdet = np.linalg.slogdet(stack)[1]
        lda, logdet = logdet[0], logdet[1:]
    else:
        logdet = np.linalg.slogdet(_merged_cov(fa, ca, fb, cb, ma - mb))[1]
    with np.errstate(invalid="ignore"):  # singular covariances: -inf + inf
        costs = 0.5 * (w * logdet - (wa * lda + wb * ldb))
    return _clamp(costs), lda


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
    code = mix.codes
    alive = np.ones(m, dtype=bool)
    # A merge's slogdet stack: the new slot's covariance, then its merges
    # with its partners, of which there are at most m - 1.
    stack = np.empty_like(cov)

    # costs[i, j] = costs[j, i] is the cost of merging slots i and j of one
    # label; every other cell, the diagonal too, is +inf.
    costs = np.full((m, m), np.inf)
    idx = np.arange(m)
    block = max(1, _BLOCK_CELLS // m)
    for r0 in range(0, m, block):
        rows = idx[r0 : r0 + block, None]
        ia, ib = np.nonzero((code[rows] == code) & (rows < idx))
        ia += r0
        for s in range(0, len(ia), _CHUNK):
            a, b = ia[s : s + _CHUNK], ib[s : s + _CHUNK]
            costs[a, b] = costs[b, a] = _pair_costs(
                w.take(a), mean.take(a, axis=0), cov.take(a, axis=0), logdet.take(a),
                w.take(b), mean.take(b, axis=0), cov.take(b, axis=0), logdet.take(b))[0]
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
                mix.table[code[drop]],
                w[drop],
            )
            alive[drop] = False
            continue
        # The lowest (i, j) within the tie band: i is the lowest slot in a
        # tied pair, the first row whose minimum is in the band, and j its
        # first cell in the band.  Clamped costs tie only with equal ones,
        # so the band cannot overflow to the empty cells.
        band = least if least == _COST_MAX else least + _TIE_RTOL * abs(least)
        i = int((row_min <= band).argmax())
        row = costs[i]
        j = int((row <= band).argmax())
        # _merged_moments' arithmetic on Python floats, written into slot i.
        wi, wj = w.item(i), w.item(j)
        wt = wi + wj
        fi, fj = wi / wt, wj / wt
        mi, mj = mean[i], mean[j]
        _merged_cov(fi, cov[i], fj, cov[j], mi - mj, out=cov[i])
        mean[i] = fi * mi + fj * mj
        w[i] = wt
        alive[j] = False
        costs[j] = costs[:, j] = np.inf
        # Row i's finite cells (costs are clamped below +inf) are its alive
        # same-label partners.
        partners = (row < np.inf).nonzero()[0]
        cost, logdet[i] = _pair_costs(wt, mean[i], cov[i], None, w.take(partners),
                                      mean.take(partners, axis=0), cov.take(partners, axis=0),
                                      logdet.take(partners), stack)
        costs[i, partners] = costs[partners, i] = cost
        # Rescan rows i and j, the rows whose minimum sat on slot i or j, and
        # the rows whose new cell may be their minimum.
        stale = (best == i) | (best == j)
        stale[i] = stale[j] = True
        stale[partners[cost <= row_min[partners]]] = True
        stale = stale.nonzero()[0]
        for r0 in range(0, len(stale), block):
            rows = stale[r0 : r0 + block]
            scan = costs[rows]
            best[rows] = scan.argmin(axis=1)
            row_min[rows] = scan.min(axis=1)
    table, codes = mix.table, code[alive]
    # Merges keep every label.  Drops come once each alive slot holds a label
    # of its own, so a drop that empties a label leaves fewer rows than labels.
    if len(codes) < len(table):
        table, codes = _encode(_decode(table, codes))
    # Merges keep the total weight; dropped hypotheses do not.
    return normalize(_frame(w[alive], mean[alive], cov[alive], table, codes, mix.time_index),
                     mix.time_index)
