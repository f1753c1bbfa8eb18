"""Seeded inputs for the three benchmark workloads.

Every workload is a closed loop with one caller: the next call starts
when the previous one returns.  The inputs are made from the workload
seed; the library receives only the generated priors (and, for the
oracle, the frames computed from them during set-up and the particle
seed).

* ``fleet_light``: one planning cycle over a fleet of tracked obstacles
  on the ``straight``, ``turn`` and ``intersection`` networks, with
  narrow-to-moderate priors.  Pure propagation: nothing splits or merges.
* ``split_heavy``: the wide prior on ``turn`` and ``intersection`` at
  ``e_res_max=0.05`` and cap 4, where splitting fills the mixture to 100
  mixands a step and reduction dominates.
* ``truth_oracle``: the particle oracle (sample, propagate, score) at
  10k particles against fixed frames of fixed priors; the seed sets the
  particles' random stream.  It uses the ``models`` layer on large
  batches and bypasses the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import hgmm
import hgmm.evaluation as ev
from hgmm import EngineConfig, Gaussian, HybridMixand, HybridMixture, ReductionConfig
from hgmm.models import BicycleModel, builtin_network

import checker

START_LABEL = {"straight": "main", "turn": "approach", "intersection": "approach"}
# The truth particles of the accuracy check use this seed whatever the
# workload seed is, so the check itself adds no run-to-run variation.
TRUTH_SEED = 20130903
DENSITY_FLOOR = 1e-300            # the floor evaluation.nll applies to densities


def _config(e_res_max, cap=10):
    return EngineConfig(e_res_max=e_res_max, reduction=ReductionConfig(cap),
                        max_split_depth=2, normalization="raw", horizon=3.5)


def _prior(label, mean, cov):
    return HybridMixture((HybridMixand(1.0, label, Gaussian(np.asarray(mean), np.asarray(cov))),))


def _stratified(rng, n, lo, hi):
    """n draws from [lo, hi], one in each of n equal strata, in random order.

    Stratifying keeps the spread of a pool nearly the same from seed to
    seed, so pool averages (median call time, mean NLL) stay steady.
    """
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


@dataclass
class Case:
    """One input of a workload: a prior on one network."""

    key: str
    model: BicycleModel
    prior: HybridMixture
    frames: list | None = None        # oracle only: the frames scored


class AnticipateWorkload:
    """Timed unit: one ``anticipate`` call on one case."""

    request_name = "engine.anticipate"

    def __init__(self, cases, cfg, lib, truth_particles):
        self.cases = cases
        self.cfg = cfg
        self.lib = lib
        self.truth_particles = truth_particles
        self.models = list({id(c.model): c.model for c in cases}.values())

    def call(self, case):
        return hgmm.anticipate(case.prior, case.model, self.cfg, self.lib, threads=1)

    def check(self, case, frames):
        return checker.check_frames(frames, self.cfg.n_steps, case.model.network.segments,
                                    self.cfg.reduction.max_mixands)

    def digest(self, frames):
        return checker.digest_frames(frames)

    def accuracy(self, outputs):
        """NLL of fixed-seed truth particles under the frames of every call.

        ``outputs`` maps each case key to its distinct outputs and their call
        counts.  Returns (mean NLL over calls, Monte-Carlo s.e., description).
        """
        scored = []
        for case in self.cases:
            ps = ev.sample_particles(case.prior, self.truth_particles, seed=TRUTH_SEED)
            truth = ev.propagate_particles(ps, case.model, self.cfg.n_steps, seed=TRUTH_SEED)
            scored.append([(score(frames, truth), calls) for frames, calls in outputs[case.key]])
        return (*combine(scored), f"{len(self.cases)} priors x {self.truth_particles} particles, "
                                  f"truth seed {TRUTH_SEED}")


class OracleWorkload:
    """Timed unit: sample, propagate and score particles for one case."""

    request_name = "evaluation.oracle"

    def __init__(self, cases, n_steps, particles, particle_seed):
        self.cases = cases
        self.n_steps = n_steps
        self.particles = particles
        self.particle_seed = particle_seed
        self.models = list({id(c.model): c.model for c in cases}.values())

    def call(self, case):
        ps = ev.sample_particles(case.prior, self.particles, seed=self.particle_seed)
        truth = ev.propagate_particles(ps, case.model, self.n_steps, seed=self.particle_seed)
        return truth, ev.nll(case.frames, truth)

    def check(self, case, output):
        truth, values = output
        problems = []
        if len(truth) != self.n_steps or values.shape != (self.n_steps,):
            problems.append(f"{len(truth)} particle frames, {values.shape} NLL values "
                            f"for {self.n_steps} steps")
        if not np.isfinite(values).all():
            problems.append("non-finite NLL")
        if not all(np.isfinite(p.states).all() and p.count == self.particles for p in truth):
            problems.append("particle states non-finite or count changed")
        if not set(truth[-1].alphas) <= set(case.model.network.segments):
            problems.append("particle labels not in network")
        return problems

    def digest(self, output):
        return checker.digest_array(output[1])

    def accuracy(self, outputs):
        """Recompute each oracle NLL independently; it must equal ``evaluation.nll``'s."""
        scored = []
        for case in self.cases:
            scored.append([])
            for (truth, values), calls in outputs[case.key]:
                value, se = score(case.frames, truth)
                if abs(value - float(np.mean(values))) > 1e-9 * max(abs(value), 1.0):
                    raise RuntimeError(f"oracle NLL {np.mean(values)!r} for {case.key} differs "
                                       f"from the recomputed {value!r}")
                scored[-1].append(((value, se), calls))
        return (*combine(scored), f"{len(self.cases)} priors x {self.particles} particles, "
                                  f"particle seed {self.particle_seed}")


def score(frames, truth):
    """(mean per-step NLL, its Monte-Carlo standard error) of truth under frames.

    The value is the mean over steps of ``evaluation.nll`` (same density
    floor); the standard error treats each particle's trajectory-mean log
    density as one independent draw.
    """
    logs = np.array([np.log(np.clip(ev.mixture_pdf_points(f, p.states), DENSITY_FLOOR, None))
                     for f, p in zip(frames, truth)])
    per_particle = logs.mean(axis=0)
    return -float(per_particle.mean()), float(per_particle.std(ddof=1) / np.sqrt(per_particle.size))


def combine(scored):
    """Mean NLL over all calls, and the s.e. of the mean over cases.

    ``scored`` holds, per case, ((nll, se), calls) for each distinct output.
    Outputs of one case share their truth particles, so their errors are
    averaged, not pooled.
    """
    calls = sum(n for case in scored for _, n in case)
    value = sum(v * n for case in scored for (v, _), n in case) / calls
    case_se = [sum(se * n for (_, se), n in case) / sum(n for _, n in case) for case in scored]
    return value, float(np.sqrt(np.sum(np.square(case_se))) / len(scored))


# ---------------------------------------------------------------------------
# set-up functions: each makes one workload's inputs from the seed
# ---------------------------------------------------------------------------

FLEET_PER_NETWORK = 10
FLEET_TRUTH_PARTICLES = 500
SPLIT_TRUTH_PARTICLES = 16000
# 10k particles keep the oracle's largest batches at 10^4 rows while a 30 s
# run still holds about ten calls; at 20k it held four, too few for a steady
# median.
ORACLE_PARTICLES = 10000
# At cap 10 one call takes 8-18 s and the same input varies by about 15%
# from process to process (the id-keyed reduction cache), so a 30 s run
# holds two samples and no steady median.  Cap 4 keeps the shape: every
# mixand splits to depth 2 (100 mixands a step), reduction dominates, and
# the four labels of the intersection still fit without dropping any.
SPLIT_CAP = 4


def build_fleet_light(seed):
    lib = hgmm.default_library()
    rng = np.random.default_rng(seed)
    cases = []
    for network in ("straight", "turn", "intersection"):
        model = BicycleModel(builtin_network(network))
        n = FLEET_PER_NETWORK
        factor = _stratified(rng, n, 0.3, 1.0)
        means = np.column_stack([
            _stratified(rng, n, 10.0, 30.0),     # x: on the approach, before any junction
            _stratified(rng, n, -0.5, 0.5),      # y: within the lane
            _stratified(rng, n, 7.0, 11.0),      # speed around the 10 m/s target
            _stratified(rng, n, -0.05, 0.05),    # heading
        ])
        for i in range(n):
            cov = np.diag([0.5, 0.3, 0.4, 0.01]) * factor[i]
            cases.append(Case(f"{network}-{i}", model,
                              _prior(START_LABEL[network], means[i], cov)))
    # Interleave networks so every stretch of calls has the same mix.
    cases = [cases[j * FLEET_PER_NETWORK + i] for i in range(FLEET_PER_NETWORK) for j in range(3)]
    return AnticipateWorkload(cases, _config(0.1), lib, FLEET_TRUTH_PARTICLES)


def _wide_cases(cov, rng=None):
    """One prior on ``turn`` and one on ``intersection``, 20 m before the junction.

    ``rng`` jitters the mean by a few percent of a standard deviation: the
    inputs differ from seed to seed, but the split pattern stays the same.
    """
    jitter = (lambda half: rng.uniform(-half, half)) if rng is not None else (lambda half: 0.0)
    cases = []
    for network in ("turn", "intersection"):
        mean = [20.0 + jitter(0.1), jitter(0.05), 9.0 + jitter(0.05), jitter(0.005)]
        cases.append(Case(network, BicycleModel(builtin_network(network)),
                          _prior("approach", mean, cov)))
    return cases


def build_split_heavy(seed):
    lib = hgmm.default_library()
    cases = _wide_cases(np.diag([2.0, 2.0, 2.0, 0.1]), np.random.default_rng(seed))
    return AnticipateWorkload(cases, _config(0.05, SPLIT_CAP), lib, SPLIT_TRUTH_PARTICLES)


def build_truth_oracle(seed):
    lib = hgmm.default_library()
    cfg = _config(math.inf)           # unsplit frames: cheap, and the same every run
    # The priors are fixed and the seed sets the particles' random stream.
    # The frames switch segment when their mean crosses a segment end, so a
    # jittered mean moved the NLL by half a nat between seeds.
    cases = _wide_cases(np.diag([1.0, 1.0, 1.0, 0.05]))
    for case in cases:
        case.frames = hgmm.anticipate(case.prior, case.model, cfg, lib, threads=1)
        problems = checker.check_frames(case.frames, cfg.n_steps, case.model.network.segments,
                                        cfg.reduction.max_mixands)
        if problems:
            raise RuntimeError(f"oracle frames for {case.key} invalid: {problems[0]}")
    particle_seed = int(np.random.default_rng(seed).integers(2**32))
    return OracleWorkload(cases, cfg.n_steps, ORACLE_PARTICLES, particle_seed)


SETUPS = {
    "fleet_light": build_fleet_light,
    "split_heavy": build_split_heavy,
    "truth_oracle": build_truth_oracle,
}
