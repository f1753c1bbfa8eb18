"""Output checks and digests for the frames an ``anticipate`` call returns.

The checker reads frames only through attributes (``mixands``, ``weight``,
``discrete``, ``gaussian.mean``, ``gaussian.cov``), so it can be tested
on hand-made frames that the library's own constructors would refuse.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

import numpy as np

WEIGHT_TOL = 1e-9
SYM_RTOL = 1e-9
EIG_RTOL = 1e-9


def check_frames(frames, n_steps: int, labels, cap: int) -> list:
    """Problems found in one call's frames; an empty list means the output is valid.

    Checks: one frame per step, weights positive and summing to 1 within
    1e-9, finite means and covariances, symmetric PSD covariances, labels
    that are segments of the network, and at most ``cap`` mixands a frame.
    """
    problems = []
    if len(frames) != n_steps:
        problems.append(f"{len(frames)} frames for {n_steps} steps")
    for k, frame in enumerate(frames):
        mixands = list(frame.mixands)
        if not mixands:
            problems.append(f"frame {k}: empty")
            continue
        if len(mixands) > cap:
            problems.append(f"frame {k}: {len(mixands)} mixands above cap {cap}")
        weights = np.array([m.weight for m in mixands], dtype=float)
        if not (np.isfinite(weights).all() and (weights > 0).all()):
            problems.append(f"frame {k}: non-finite or non-positive weight")
        elif abs(weights.sum() - 1.0) > WEIGHT_TOL:
            problems.append(f"frame {k}: weights sum to {weights.sum()!r}")
        unknown = {m.discrete for m in mixands} - set(labels)
        if unknown:
            problems.append(f"frame {k}: labels {sorted(map(repr, unknown))} not in network")
        means = np.array([np.asarray(m.gaussian.mean, dtype=float) for m in mixands])
        covs = np.array([np.asarray(m.gaussian.cov, dtype=float) for m in mixands])
        if not (np.isfinite(means).all() and np.isfinite(covs).all()):
            problems.append(f"frame {k}: non-finite mean or covariance")
            continue
        scale = np.maximum(np.abs(covs).max(axis=(1, 2)), 1.0)
        asym = np.abs(covs - covs.transpose(0, 2, 1)).max(axis=(1, 2))
        if (asym > SYM_RTOL * scale).any():
            problems.append(f"frame {k}: covariance not symmetric")
            continue
        low = np.linalg.eigvalsh(covs).min(axis=1)
        trace = np.maximum(np.trace(covs, axis1=1, axis2=2), 1e-300)
        if (low < -EIG_RTOL * trace).any():
            problems.append(f"frame {k}: covariance not PSD (eigenvalue {low.min():.3e})")
    return problems


def digest_frames(frames) -> str:
    """Hash of every weight, label, mean and covariance, in output order."""
    h = hashlib.blake2b(digest_size=8)
    for frame in frames:
        for m in frame.mixands:
            h.update(repr(m.discrete).encode())
            h.update(np.float64(m.weight).tobytes())
            h.update(np.ascontiguousarray(m.gaussian.mean, dtype=float).tobytes())
            h.update(np.ascontiguousarray(m.gaussian.cov, dtype=float).tobytes())
        h.update(b"|")
    return h.hexdigest()


def digest_array(values) -> str:
    return hashlib.blake2b(np.ascontiguousarray(values, dtype=float).tobytes(),
                           digest_size=8).hexdigest()


def _fake_frame(weights, means, covs, label="a"):
    return SimpleNamespace(mixands=tuple(
        SimpleNamespace(weight=w, discrete=label,
                        gaussian=SimpleNamespace(mean=np.asarray(mu, float), cov=np.asarray(c, float)))
        for w, mu, c in zip(weights, means, covs)))


def self_test() -> list:
    """Run the checker on a valid frame and on hand-made bad ones.

    The bad frames hold a NaN mean, weights summing to 0.95, an indefinite
    covariance, and a wrong step count, label or size.  Returns the
    checker's own failures; empty means it passed the valid frame and
    caught every bad one.
    """
    eye = np.eye(2)
    good = _fake_frame([0.25, 0.75], [[0.0, 0.0], [1.0, 2.0]], [eye, 2 * eye])
    nan = _fake_frame([0.25, 0.75], [[0.0, np.nan], [1.0, 2.0]], [eye, 2 * eye])
    bad_weight = _fake_frame([0.25, 0.7], [[0.0, 0.0], [1.0, 2.0]], [eye, 2 * eye])
    indefinite = _fake_frame([0.25, 0.75], [[0.0, 0.0], [1.0, 2.0]], [np.diag([1.0, -0.5]), eye])
    failures = []
    if check_frames([good], 1, {"a"}, 2):
        failures.append(f"valid frame rejected: {check_frames([good], 1, {'a'}, 2)}")
    if not any("non-finite" in p for p in check_frames([nan], 1, {"a"}, 2)):
        failures.append("NaN frame accepted")
    if not any("weights sum" in p for p in check_frames([bad_weight], 1, {"a"}, 2)):
        failures.append("frame with weights summing to 0.95 accepted")
    if not any("not PSD" in p for p in check_frames([indefinite], 1, {"a"}, 2)):
        failures.append("indefinite covariance accepted")
    if not check_frames([good], 2, {"a"}, 2) or not check_frames([good], 1, {"b"}, 2) \
            or not check_frames([good], 1, {"a"}, 1):
        failures.append("step count, label or cap violation accepted")
    return failures


if __name__ == "__main__":
    import sys

    broken = self_test()
    print("checker self-test: " + ("; ".join(broken) if broken else "ok"))
    sys.exit(1 if broken else 0)
