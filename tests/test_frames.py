"""Array-backed frames: the frame check, array normalize and the mixands view.

Frames built inside the engine come from ``normalize`` on stacked arrays
and are checked once per frame.  These property tests hold that path to
the per-mixand ``Gaussian`` checks and to the object-based ``normalize``
it replaced.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgmm import Gaussian, HybridMixand, HybridMixture, normalize
from hgmm.errors import (
    EmptyMixtureError,
    IndefiniteMatrixError,
    NonFiniteValueError,
    NotSymmetricError,
)

DEFECTS = ("none", "nan_mean", "nan_cov", "inf_cov", "asym_small", "asym_large",
           "neg_eig_small", "neg_eig_large", "zero_cov")


def random_frame_arrays(rng, m, n):
    weights = rng.dirichlet(np.ones(m))
    means = rng.normal(size=(m, n))
    covs = np.empty((m, n, n))
    for i in range(m):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        covs[i] = q @ np.diag(rng.uniform(0.1, 3.0, n)) @ q.T
        covs[i] = 0.5 * (covs[i] + covs[i].T)
    labels = tuple("ab"[k] for k in rng.integers(2, size=m))
    return weights, means, covs, labels


def inject(rng, means, covs, defect):
    """Put one defect into one mixand; returns its index."""
    i = int(rng.integers(len(covs)))
    n = covs.shape[1]
    a, b = (0, 1) if n > 1 else (0, 0)
    scale = max(np.abs(covs[i]).max(), 1.0)
    if defect == "nan_mean":
        means[i, -1] = np.nan
    elif defect == "nan_cov":
        covs[i, a, b] = np.nan
    elif defect == "inf_cov":
        covs[i, b, a] = np.inf
    elif defect.startswith("asym"):
        # Half and three times the 1e-9 relative tolerance.
        covs[i, a, b] += (0.5 if defect == "asym_small" else 3.0) * 1e-9 * scale
    elif defect.startswith("neg_eig"):
        # Half and a thousand times the 1e-9 * trace tolerance (any negative
        # eigenvalue of a 1 x 1 matrix is out of tolerance).
        evals, evecs = np.linalg.eigh(covs[i])
        factor = 0.5 if defect == "neg_eig_small" else 1e3
        evals[0] = -factor * 1e-9 * max(evals[1:].sum(), 1.0)
        c = (evecs * evals) @ evecs.T
        covs[i] = 0.5 * (c + c.T)
    elif defect == "zero_cov":
        covs[i] = 0.0
    return i


def first_error(fn):
    try:
        fn()
    except (NonFiniteValueError, NotSymmetricError, IndefiniteMatrixError) as exc:
        return type(exc)
    return None


def gaussian_checks(means, covs):
    for mean, cov in zip(means, covs):
        Gaussian(mean, cov)


def reference_normalize(mixands, time_index=0, weight_floor=0.0):
    """The object-based ``normalize`` that the array path replaced."""
    mixands = list(mixands)
    total = sum(m.weight for m in mixands)
    scaled = [(m.weight / total, m) for m in mixands]
    if weight_floor > 0.0:
        kept = [(w, m) for w, m in scaled if w >= weight_floor]
        if kept:
            scaled = kept
            total2 = sum(w for w, _ in scaled)
            scaled = [(w / total2, m) for w, m in scaled]
    out = [HybridMixand(w, m.discrete, m.gaussian) for w, m in scaled]
    for _ in range(3):
        s = sum(m.weight for m in out)
        if s == 1.0:
            break
        i = max(range(len(out)), key=lambda j: out[j].weight)
        out[i] = HybridMixand(out[i].weight + (1.0 - s), out[i].discrete, out[i].gaussian)
    return HybridMixture(tuple(out), time_index)


def frame_bytes(mix):
    return [(m.discrete, np.float64(m.weight).tobytes(), m.gaussian.mean.tobytes(),
             m.gaussian.cov.tobytes()) for m in mix.mixands]


class TestFrameCheck:
    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 40), n=st.integers(1, 4), defect=st.sampled_from(DEFECTS),
           seed=st.integers(0, 10_000))
    @example(m=40, n=4, defect="neg_eig_small", seed=3)
    @example(m=1, n=1, defect="asym_large", seed=0)
    def test_accepts_and_rejects_as_gaussian_does(self, m, n, defect, seed):
        rng = np.random.default_rng(seed)
        weights, means, covs, labels = random_frame_arrays(rng, m, n)
        inject(rng, means, covs, defect)
        expected = first_error(lambda: gaussian_checks(means, covs))
        got = first_error(lambda: normalize((weights, means, covs, labels)))
        assert got is expected
        # A 1 x 1 covariance cannot be asymmetric.
        if defect in ("nan_mean", "nan_cov", "inf_cov", "neg_eig_large") or (
                defect == "asym_large" and n > 1):
            assert got is not None

    @pytest.mark.parametrize("mixands", [[], (np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2, 2)), ())])
    def test_empty_input_rejected(self, mixands):
        with pytest.raises(EmptyMixtureError):
            normalize(mixands)


class TestArrayNormalize:
    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 40), n=st.integers(1, 4),
           floor=st.sampled_from([0.0, 1e-6, 1e-3, 0.05, 0.9]), seed=st.integers(0, 10_000))
    def test_bit_identical_to_object_normalize(self, m, n, floor, seed):
        rng = np.random.default_rng(seed)
        _, means, covs, labels = random_frame_arrays(rng, m, n)
        # Weights over nine decades, so the floor drops some and the sums round.
        weights = rng.uniform(0.1, 5.0, m) * 10.0 ** rng.uniform(-9, 0, m)
        mixands = [HybridMixand(float(w), a, Gaussian(mu, c))
                   for w, a, mu, c in zip(weights, labels, means, covs)]
        want = frame_bytes(reference_normalize(mixands, 7, floor))
        assert frame_bytes(normalize((weights, means, covs, labels), 7, floor)) == want
        assert frame_bytes(normalize(mixands, 7, floor)) == want

    def test_copies_caller_arrays_and_takes_any_iterable(self, rng):
        weights, means, covs, labels = random_frame_arrays(rng, 4, 2)
        frame = normalize((weights, means, covs, labels))
        assert weights.flags.writeable and means.flags.writeable and covs.flags.writeable
        assert not (frame.means.flags.writeable or frame.covs.flags.writeable)
        assert frame_bytes(normalize(m for m in frame.mixands)) == frame_bytes(frame)

    def test_normalized_frame_is_returned_unchanged(self, rng):
        weights, means, covs, labels = random_frame_arrays(rng, 6, 3)
        frame = normalize((weights, means, covs, labels), 4)
        assert sum(frame.weights.tolist()) == 1.0
        assert normalize(frame, 4) is frame
        assert normalize(frame, 4, weight_floor=1e-6) is frame
        assert normalize(frame, 4, weight_floor=float(frame.weights.min())) is frame
        moved = normalize(frame, 5)
        assert moved is not frame and moved.time_index == 5
        assert frame_bytes(moved) == frame_bytes(frame)

    def test_exact_sum_still_drops_a_weight_under_the_floor(self, rng):
        # Sums to exactly 1 left to right; only the last weight is under the floor.
        weights = np.array([0.5, 0.25, 0.125, 0.125 - 2.0**-20, 2.0**-20])
        _, means, covs, labels = random_frame_arrays(rng, 5, 2)
        frame = normalize((weights, means, covs, labels), 4)
        assert frame.weights.tolist() == weights.tolist()
        got = normalize(frame, 4, weight_floor=1e-3)
        assert got is not frame and len(got) == 4
        assert frame_bytes(got) == frame_bytes(reference_normalize(frame.mixands, 4, 1e-3))


class TestMixandsView:
    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 40), n=st.integers(1, 4), seed=st.integers(0, 10_000))
    def test_view_of_internal_frame_equals_arrays(self, m, n, seed):
        rng = np.random.default_rng(seed)
        frame = normalize(random_frame_arrays(rng, m, n), 3)
        assert len(frame.mixands) == len(frame) == m and frame.dim == n
        for i, mixand in enumerate(frame.mixands):
            assert mixand.weight == frame.weights[i]
            assert mixand.discrete == frame.labels[i]
            assert mixand.gaussian.mean.tobytes() == frame.means[i].tobytes()
            assert mixand.gaussian.cov.tobytes() == frame.covs[i].tobytes()

    def test_public_constructor_keeps_its_mixands(self, rng):
        weights, means, covs, labels = random_frame_arrays(rng, 5, 2)
        mixands = tuple(HybridMixand(float(w), a, Gaussian(mu, c))
                        for w, a, mu, c in zip(weights, labels, means, covs))
        frame = HybridMixture(mixands, time_index=2)
        assert frame.mixands is mixands
        assert frame.labels == labels and frame.time_index == 2
        assert np.array_equal(frame.means, means) and np.array_equal(frame.covs, covs)
        assert not frame.covs.flags.writeable
