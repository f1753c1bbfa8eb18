"""Mixture reduction tests."""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hgmm import (
    Gaussian,
    apply_split,
    default_library,
    HybridMixand,
    HybridMixture,
    ReductionConfig,
    mixture_moments,
    normalize,
    reduce_mixture,
)
from hgmm.core import gaussian_logpdf
from hgmm.reduction import _pair_costs, _slot_costs, merge_cost, merge_pair


def random_mixture(rng, random_spd, m, dim=2, alphas=("a",)):
    mixands = []
    weights = rng.dirichlet(np.ones(m))
    for w in weights:
        mixands.append(
            HybridMixand(
                float(w),
                alphas[rng.integers(len(alphas))],
                Gaussian(rng.normal(size=dim), random_spd(rng, dim)),
            )
        )
    return normalize(mixands)


def reference_reduce(mix: HybridMixture, cap: int) -> HybridMixture:
    """Plain O(M^3) greedy reducer that ``reduce_mixture`` must match.

    Scans pairs in ``(i, j)`` order and keeps the first strictly cheaper
    one, merges into position ``i`` and removes ``j``; when no two mixands
    share a label it drops the lightest, lowest-index one.  ``merge_cost``
    is a pure function of its two mixands, so each pair is costed once; the
    memo holds the mixands, so their ids stay unique.
    """
    mixands = list(mix.mixands)
    memo = {}

    def pair_cost(a, b):
        key = (id(a), id(b))
        if key not in memo:
            memo[key] = (a, b, merge_cost(a, b))
        return memo[key][2]

    while len(mixands) > cap:
        best = None
        for i in range(len(mixands)):
            for j in range(i + 1, len(mixands)):
                if mixands[i].discrete == mixands[j].discrete:
                    cost = pair_cost(mixands[i], mixands[j])
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
        if best is None:
            mixands.pop(min(range(len(mixands)), key=lambda k: (mixands[k].weight, k)))
            continue
        _, i, j = best
        merged = merge_pair(mixands[i], mixands[j])
        mixands = mixands[:i] + [merged] + mixands[i + 1 : j] + mixands[j + 1 :]
    return normalize(mixands, mix.time_index)


def mixture_bytes(mix: HybridMixture) -> list:
    return [
        (m.discrete, np.float64(m.weight).tobytes(), m.gaussian.mean.tobytes(),
         m.gaussian.cov.tobytes())
        for m in mix.mixands
    ]


def mixture_isd(a: HybridMixture, b: HybridMixture) -> float:
    """Symmetric ISD between two mixtures (quadrature-free closed form)."""

    def cross(p, q):
        # Sum of w_i w_j N(mu_i; mu_j, S_i + S_j) over all component pairs.
        return sum(
            mp.weight * mq.weight * np.exp(gaussian_logpdf(
                mq.gaussian.mean, mp.gaussian.cov + mq.gaussian.cov, mp.gaussian.mean)[0])
            for mp in p.mixands
            for mq in q.mixands
        )

    return cross(a, a) - 2.0 * cross(a, b) + cross(b, b)


class TestMergePair:
    def test_moment_match(self, rng, random_spd):
        a = HybridMixand(0.3, "s", Gaussian(rng.normal(size=2), random_spd(rng, 2)))
        b = HybridMixand(0.7, "s", Gaussian(rng.normal(size=2), random_spd(rng, 2)))
        merged = merge_pair(a, b)
        pair = normalize([a, b])
        mean, cov = mixture_moments(pair)
        assert np.allclose(merged.gaussian.mean, mean, atol=1e-12)
        assert np.allclose(merged.gaussian.cov, cov, atol=1e-12)

    def test_identical_mixands_cost_zero(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        a = HybridMixand(0.5, "s", g)
        assert merge_cost(a, a) == pytest.approx(0.0, abs=1e-12)


class TestSlotCosts:
    @pytest.mark.parametrize("singular", [False, True])
    def test_match_pair_costs_bit_for_bit(self, singular, rng, random_spd):
        # A merged slot's costs must round as the initial fill's do: a
        # last-bit difference can break an exact tie the other way.
        m, i = 40, 17
        w = rng.dirichlet(np.ones(m))
        mean = rng.normal(size=(m, 3))
        cov = np.stack([random_spd(rng, 3) for _ in range(m)])
        if singular:
            cov[::3] = 0.0
        with np.errstate(divide="ignore"):
            logdet = np.linalg.slogdet(cov)[1]
        partners = np.flatnonzero(rng.random(m) < 0.7)
        partners = partners[partners != i]
        k = int(np.searchsorted(partners, i))
        got = _slot_costs(w, mean, cov, logdet, i, partners, k)
        want = _pair_costs(w, mean, cov, logdet, np.minimum(partners, i), np.maximum(partners, i))
        assert got.tobytes() == want.tobytes()


class TestReduce:
    def test_under_cap_unchanged(self, rng, random_spd):
        mix = random_mixture(rng, random_spd, 5)
        assert reduce_mixture(mix, ReductionConfig(10)) is mix

    def test_identical_pair_cap_one(self):
        g = Gaussian(np.array([1.0, 2.0]), np.diag([1.0, 2.0]))
        mix = HybridMixture((HybridMixand(0.5, "s", g), HybridMixand(0.5, "s", g)))
        out = reduce_mixture(mix, ReductionConfig(1))
        assert len(out) == 1
        assert out.mixands[0].weight == pytest.approx(1.0)
        assert np.allclose(out.mixands[0].gaussian.mean, g.mean)
        assert np.allclose(out.mixands[0].gaussian.cov, g.cov, atol=1e-12)

    def test_moments_preserved(self, rng, random_spd):
        mix = random_mixture(rng, random_spd, 20)
        out = reduce_mixture(mix, ReductionConfig(10))
        m0, c0 = mixture_moments(mix)
        m1, c1 = mixture_moments(out)
        assert len(out) == 10
        assert np.allclose(m0, m1, atol=1e-9)
        assert np.allclose(c0, c1, atol=1e-9)

    def test_beats_random_merge_sequences(self, rng, random_spd):
        mix = random_mixture(rng, random_spd, 20)
        out = reduce_mixture(mix, ReductionConfig(10))
        greedy_isd = mixture_isd(mix, out)
        alternatives = []
        for _ in range(20):
            mixands = list(mix.mixands)
            while len(mixands) > 10:
                i, j = sorted(rng.choice(len(mixands), size=2, replace=False))
                merged = merge_pair(mixands[i], mixands[j])
                mixands = mixands[:i] + [merged] + mixands[i + 1 : j] + mixands[j + 1 :]
            alternatives.append(mixture_isd(mix, normalize(mixands)))
        assert greedy_isd <= np.median(alternatives)

    def test_never_merges_across_discrete_labels(self, rng, random_spd):
        mix = random_mixture(rng, random_spd, 12, alphas=("a", "b", "c"))
        out = reduce_mixture(mix, ReductionConfig(6))
        for alpha in ("a", "b", "c"):
            w_in = sum(m.weight for m in mix.mixands if m.discrete == alpha)
            w_out = sum(m.weight for m in out.mixands if m.discrete == alpha)
            if w_in > 0:
                assert w_out == pytest.approx(w_in, abs=1e-9)

    def test_singular_covariances_still_merge(self):
        # Point masses have log-det -inf, so their pair costs are not finite;
        # they must still be merged rather than taken for distinct labels.
        mix = HybridMixture(tuple(
            HybridMixand(w, "a", Gaussian(np.array([x, 0.0]), np.zeros((2, 2))))
            for w, x in ((0.2, 0.0), (0.3, 1.0), (0.5, 3.0))
        ))
        out = reduce_mixture(mix, ReductionConfig(1))
        m0, c0 = mixture_moments(mix)
        m1, c1 = mixture_moments(out)
        assert len(out) == 1
        assert np.allclose(m0, m1, atol=1e-12) and np.allclose(c0, c1, atol=1e-12)

    def test_drops_lightest_hypothesis_when_cap_below_label_count(self, caplog):
        g = Gaussian(np.zeros(1), np.eye(1))
        mix = HybridMixture(
            (
                HybridMixand(0.5, "a", g),
                HybridMixand(0.3, "b", g),
                HybridMixand(0.2, "c", g),
            )
        )
        with caplog.at_level("WARNING"):
            out = reduce_mixture(mix, ReductionConfig(2))
        labels = {m.discrete for m in out.mixands}
        assert labels == {"a", "b"}
        assert sum(m.weight for m in out.mixands) == pytest.approx(1.0)
        assert any("dropping hypothesis" in r.message for r in caplog.records)


class TestAgainstReference:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        m_cap=st.integers(2, 60).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m - 1))),
        dim=st.integers(2, 4),
        n_labels=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    # Cap below the label count while labels still hold several mixands:
    # merges run until every label is a singleton, then the drop path.
    @example(m_cap=(24, 2), dim=3, n_labels=4, seed=1)
    @example(m_cap=(60, 1), dim=4, n_labels=3, seed=2)
    def test_matches_reference_greedy(self, m_cap, dim, n_labels, seed, random_spd):
        m, cap = m_cap
        rng = np.random.default_rng(seed)
        alphas = tuple("abcd"[:n_labels])
        mix = random_mixture(rng, random_spd, m, dim=dim, alphas=alphas)
        out = reduce_mixture(mix, ReductionConfig(cap))
        ref = reference_reduce(mix, cap)
        assert len(out) == len(ref) <= cap
        for a, b in zip(out.mixands, ref.mixands):
            assert a.discrete == b.discrete
            assert a.weight == pytest.approx(b.weight, abs=1e-10)
            assert np.allclose(a.gaussian.mean, b.gaussian.mean, rtol=0, atol=1e-10)
            assert np.allclose(a.gaussian.cov, b.gaussian.cov, rtol=0, atol=1e-10)
        if cap >= len({mm.discrete for mm in mix.mixands}):
            m0, c0 = mixture_moments(mix)
            m1, c1 = mixture_moments(out)
            assert np.allclose(m0, m1, rtol=0, atol=1e-9)
            assert np.allclose(c0, c1, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("cap", range(1, 12))
    def test_exact_ties_match_reference(self, cap, rng, random_spd):
        # Three copies of four mixands: many pair costs are bit-equal, so
        # the lowest-(i, j) tie-break decides which pair merges.
        base = [Gaussian(rng.normal(size=2), random_spd(rng, 2)) for _ in range(4)]
        mix = HybridMixture(tuple(
            HybridMixand(1.0 / 12, "ab"[k % 2], base[k % 4]) for k in range(12)
        ))
        out = reduce_mixture(mix, ReductionConfig(cap))
        assert mixture_bytes(out) == mixture_bytes(reference_reduce(mix, cap))

    def test_repeat_from_deepcopy_is_byte_identical(self, rng, random_spd):
        mix = random_mixture(rng, random_spd, 60, dim=4, alphas=("a", "b", "c"))
        first = reduce_mixture(mix, ReductionConfig(8))
        expected = mixture_bytes(first)
        # Free the first result (and its merge products) before reducing again.
        del first
        second = reduce_mixture(copy.deepcopy(mix), ReductionConfig(8))
        assert mixture_bytes(second) == expected

    def test_split_heavy_size_matches_reference(self, rng, random_spd):
        # 100 mixands of one label, the children of four parents split twice
        # along two axes: mirror-image children share covariances and give
        # many bit-equal pair costs, and the cap of 4 takes 96 merges.
        split = default_library().get(5, 0.3)
        mixands = []
        for _ in range(4):
            parent = HybridMixand(0.25, "a", Gaussian(rng.normal(size=4), random_spd(rng, 4)))
            for child in apply_split(parent, np.eye(4)[0], split):
                mixands.extend(apply_split(child, np.eye(4)[1], split))
        mix = normalize(mixands)
        assert len(mix) == 100
        out = reduce_mixture(mix, ReductionConfig(4))
        assert mixture_bytes(out) == mixture_bytes(reference_reduce(mix, 4))
