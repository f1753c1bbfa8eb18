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
from hgmm.reduction import _TIE_RTOL, _pair_costs, merge_cost, merge_pair


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

    Costs every same-label pair, takes the lowest ``(i, j)`` among the pairs
    within the relative tie band of the least cost, merges into position
    ``i`` and removes ``j``; when no two mixands share a label it drops the
    lightest, lowest-index one.  ``merge_cost`` is a pure function of its two
    mixands, so each pair is costed once; the memo holds the mixands, so
    their ids stay unique.  Costs are taken to be finite.
    """
    mixands = list(mix.mixands)
    memo = {}

    def pair_cost(a, b):
        key = (id(a), id(b))
        if key not in memo:
            memo[key] = (a, b, merge_cost(a, b))
        return memo[key][2]

    while len(mixands) > cap:
        costs = {
            (i, j): pair_cost(mixands[i], mixands[j])
            for i in range(len(mixands))
            for j in range(i + 1, len(mixands))
            if mixands[i].discrete == mixands[j].discrete
        }
        if not costs:
            mixands.pop(min(range(len(mixands)), key=lambda k: (mixands[k].weight, k)))
            continue
        least = min(costs.values())
        i, j = min(pair for pair, cost in costs.items()
                   if cost <= least + _TIE_RTOL * abs(least))
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


class TestPairCosts:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_merge_cost(self, dim, seed, random_spd):
        # The kernel takes the merged covariance in the uncentred form; it
        # must agree with the scalar reference to within rounding of the
        # cost's terms, also for near-copies, whose costs are about zero.
        rng = np.random.default_rng(seed)
        mixands = list(random_mixture(rng, random_spd, 12, dim, ("a", "b", "c")).mixands)
        for m in mixands[:4]:
            shifted = m.gaussian.mean + 1e-7 * rng.normal(size=dim)
            mixands.append(HybridMixand(m.weight, m.discrete, Gaussian(shifted, m.gaussian.cov)))
        mix = normalize(mixands)
        w, mean, cov, labels = mix.weights, mix.means, mix.covs, np.array(mix.labels)
        logdet = np.linalg.slogdet(cov)[1]

        def assert_close(cost, a, b):
            ma, mb = mix.mixands[a], mix.mixands[b]
            ld_ab = np.linalg.slogdet(merge_pair(ma, mb).gaussian.cov)[1]
            terms = (w[a] + w[b]) * abs(ld_ab) + w[a] * abs(logdet[a]) + w[b] * abs(logdet[b])
            assert abs(cost - merge_cost(ma, mb)) <= 1e-12 * terms

        # The fill: a batch of slot pairs.
        ia, ib = np.nonzero((labels[:, None] == labels) & ~np.tri(len(mix), dtype=bool))
        costs, _ = _pair_costs(w[ia], mean[ia], cov[ia], logdet[ia],
                               w[ib], mean[ib], cov[ib], logdet[ib])
        for cost, a, b in zip(costs, ia, ib):
            assert_close(cost, a, b)
        # A merge: one slot against its partners, its log-det from the same call.
        for a in range(len(mix)):
            p = np.flatnonzero((labels == labels[a]) & (np.arange(len(mix)) != a))
            costs, ld_a = _pair_costs(w[a], mean[a], cov[a], None, w[p], mean[p], cov[p], logdet[p])
            assert ld_a == logdet[a]
            for cost, b in zip(costs, p):
                assert_close(cost, a, b)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_point_mass_slot_merged_into_then_costed(self):
        # Slots 0 and 1 are point masses: every pair cost involving one is
        # +inf or NaN and clamps, so the finite pair (2, 3) merges first.
        # Then slot 0 takes slot 1 and keeps a singular covariance (log-det
        # -inf), and the fused row kernel costs it against slot 2.
        def mixand(w, x, y, cov):
            return HybridMixand(w, "a", Gaussian(np.array([x, y]), cov))

        a, b = mixand(0.2, 0.0, 0.0, np.zeros((2, 2))), mixand(0.2, 1.0, 0.0, np.zeros((2, 2)))
        c, d = mixand(0.3, 5.0, 5.0, np.eye(2)), mixand(0.3, 6.0, 5.0, np.eye(2))
        out = reduce_mixture(HybridMixture((a, b, c, d)), ReductionConfig(1))
        expected = normalize([merge_pair(merge_pair(a, b), merge_pair(c, d))])
        assert mixture_bytes(out) == mixture_bytes(expected)

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

    @pytest.mark.parametrize("cheaper, merged", [
        (1e-6, "b"),    # outside the tie band: the cheaper, higher pair wins
        (1e-13, "a"),   # inside it: the costs tie and the lower pair wins
    ])
    def test_tie_band_edges(self, cheaper, merged):
        # Two pairs of equal geometry, (0, 1) with label a and (2, 3) with
        # label b; a pair's cost scales with its weight, so the b pair is
        # cheaper by the relative amount ``cheaper``.
        g0, g1 = Gaussian(np.zeros(1), np.eye(1)), Gaussian(np.ones(1), np.eye(1))
        wb = 0.25 * (1.0 - cheaper)
        mix = normalize([HybridMixand(0.25, "a", g0), HybridMixand(0.25, "a", g1),
                         HybridMixand(wb, "b", g0), HybridMixand(wb, "b", g1)])
        costs = [merge_cost(*mix.mixands[:2]), merge_cost(*mix.mixands[2:])]
        assert costs[1] / costs[0] == pytest.approx(1.0 - cheaper, rel=1e-15)
        out = reduce_mixture(mix, ReductionConfig(3))
        assert out.labels.count(merged) == 1 and len(out) == 3
        assert mixture_bytes(out) == mixture_bytes(reference_reduce(mix, 3))

    def test_new_cell_below_a_lower_rows_minimum(self):
        # Merging (2, 3) into slot 2 gives cell (0, 2) a cost of 0.285, below
        # row 0's cached minimum of 0.316 (cell (0, 1)), and it is the next
        # merge.  Unless row 0 is rescanned, the pair is found through row 2
        # alone and merges into slot 2 instead of slot 0.
        rows = [
            (0.1785, [-0.765, 1.182], [[1.542, 1.134], [1.134, 1.145]]),
            (0.257, [-1.931, 0.764], [[0.109, -0.035], [-0.035, 0.227]]),
            (0.06, [0.496, -2.537], [[0.582, 0.036], [0.036, 0.309]]),
            (0.1554, [0.885, 0.411], [[1.596, -2.305], [-2.305, 3.872]]),
            (0.3492, [3.865, 2.167], [[0.899, 0.957], [0.957, 1.489]]),
        ]
        mix = normalize([HybridMixand(w, "a", Gaussian(np.array(m), np.array(c)))
                         for w, m, c in rows])
        out = reduce_mixture(mix, ReductionConfig(3))
        assert mixture_bytes(out) == mixture_bytes(reference_reduce(mix, 3))

    def test_split_heavy_three_labels_then_drop_matches_reference(self, rng, random_spd):
        # The split-heavy shape over three labels (parents a, b, c, a): at cap
        # 2 merges run until each label holds one mixand, then the drop path
        # removes the lightest.
        split = default_library().get(5, 0.3)
        mixands = []
        for alpha in "abca":
            parent = HybridMixand(0.25, alpha, Gaussian(rng.normal(size=4), random_spd(rng, 4)))
            for child in apply_split(parent, np.eye(4)[0], split):
                mixands.extend(apply_split(child, np.eye(4)[1], split))
        mix = normalize(mixands)
        out = reduce_mixture(mix, ReductionConfig(2))
        assert len(out) == 2 and len(set(out.labels)) == 2
        assert mixture_bytes(out) == mixture_bytes(reference_reduce(mix, 2))

    @pytest.mark.parametrize("cheaper, kept", [
        (1e-6, 1.0),    # outside the band: the cheaper, later cell (0, 2) wins
        (1e-13, -1.0),  # inside it: the cells tie and the first, (0, 1), wins
    ])
    def test_tie_band_edges_within_a_row(self, cheaper, kept):
        # Slot 0 has mirror-image partners, slot 1 at +1 and slot 2 at -1;
        # slot 2 is lighter, so its pair with slot 0 is the cheaper.
        def mixand(w, x):
            return HybridMixand(w, "a", Gaussian(np.array([x]), np.eye(1)))

        mix = normalize([mixand(0.4, 0.0), mixand(0.3, 1.0), mixand(0.3 * (1.0 - cheaper), -1.0)])
        a, b, c = mix.mixands
        assert 1.0 - merge_cost(a, c) / merge_cost(a, b) == pytest.approx(cheaper, rel=0.5)
        out = reduce_mixture(mix, ReductionConfig(2))
        assert out.means[1, 0] == kept
        assert mixture_bytes(out) == mixture_bytes(reference_reduce(mix, 2))

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
