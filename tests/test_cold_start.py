"""Importing the package, running the engine and the particle oracle load NumPy, not SciPy.

SciPy's import takes about 0.3 s, most of a cold start, and about 21 MB
of resident memory.  Only the eigen fallback of ``matrix_sqrt``, for a
covariance that is not positive definite, loads it, on first use.  Each
check runs in a fresh interpreter, so no earlier test has imported SciPy
already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hgmm

SRC = str(Path(hgmm.__file__).resolve().parents[1])

# The split_heavy prior on the turn: every mixand splits to depth 2 and the
# reducer merges 100 mixands down to 4 at each step.
SCRIPT = """
import hashlib
import sys
if {blocked}:
    sys.modules["scipy"] = None      # any import of SciPy now raises ImportError
import numpy as np
import hgmm, hgmm.evaluation, hgmm.models, hgmm.cli
from hgmm import (EngineConfig, Gaussian, HybridMixand, HybridMixture, ReductionConfig,
                  anticipate, default_library)
from hgmm.models import BicycleModel, builtin_network

prior = HybridMixture((HybridMixand(1.0, "approach", Gaussian(
    np.array([20.0, 0.0, 9.0, 0.0]), np.diag([2.0, 2.0, 2.0, 0.1]))),))
cfg = EngineConfig(e_res_max=0.05, reduction=ReductionConfig(4), max_split_depth=2,
                   normalization="raw", horizon=3.5)
model = BicycleModel(builtin_network("turn"))
frames = anticipate(prior, model, cfg, default_library())
assert max(map(len, frames)) == 4
h = hashlib.sha256()
for f in frames:
    for a in (f.weights, f.means, f.covs):
        h.update(a.tobytes())
    h.update(repr(f.labels).encode())
print(sys.modules.get("scipy") is not None, h.hexdigest())    # loaded, frames

# The particle oracle and the density metrics on the same frames.
ps = hgmm.evaluation.sample_particles(prior, 2000, seed=1)
truth = hgmm.evaluation.propagate_particles(ps, model, len(frames), seed=1)
values = hgmm.evaluation.nll(frames, truth)
isd = hgmm.isd_terms(frames[-1].mixands[0].gaussian,
                     [(m.weight, m.gaussian) for m in frames[-1].mixands])
assert np.isfinite(values).all() and np.isfinite(isd).all()
print(sys.modules.get("scipy") is not None,                     # loaded, oracle outputs
      hashlib.sha256(values.tobytes() + np.array(isd).tobytes()).hexdigest())
"""


def _run(blocked: bool) -> list:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", SCRIPT.format(blocked=blocked)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.fixture(scope="module")
def runs():
    return {blocked: _run(blocked) for blocked in (True, False)}


def test_package_and_engine_run_with_scipy_unimportable(runs):
    # The fixture asserts that the script ran; the frames are the usual ones.
    assert runs[True][1] == runs[False][1]


def test_package_and_engine_leave_scipy_unloaded(runs):
    assert runs[False][0] == "False"


def test_oracle_and_metrics_run_with_scipy_unimportable(runs):
    # Particles, NLL values and ISD terms are the usual ones, bit for bit.
    assert runs[True][3] == runs[False][3]


def test_oracle_and_metrics_leave_scipy_unloaded(runs):
    assert runs[False][2] == "False"
