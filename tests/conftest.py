import numpy as np
import pytest

from hgmm import default_library


@pytest.fixture(scope="session")
def lib():
    """The split library shipped with the package."""
    return default_library()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def random_spd():
    """Factory for random symmetric positive definite matrices."""

    def make(rng, n, lo=0.5, hi=2.0):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return q @ np.diag(rng.uniform(lo, hi, n)) @ q.T

    return make


@pytest.fixture
def layouts():
    """Factory for copies of an array in C order, in F order and as a strided view."""

    def make(a):
        spaced = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
        spaced[..., ::2] = a
        return {"C": np.ascontiguousarray(a), "F": np.asfortranarray(a), "strided": spaced[..., ::2]}

    return make
