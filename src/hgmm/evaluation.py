"""Truth oracles and accuracy metrics.

Particle sets provide the Monte-Carlo truth for scenario runs; density
comparisons are done with a numerically integrated divergence, and
scenario quality with particle log-likelihood, observation likelihood,
expected off-track distance, and a sampled collision probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HybridMixture, gaussian_logpdf, mixture_moments
from .engine import DynamicsModel
from .errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    NoFrameMatchError,
    NonFiniteDensityError,
)
from .models import Polyline, RoadNetwork

_DENSITY_FLOOR = 1e-300


# ---------------------------------------------------------------------------
# vectorized mixture density helpers
# ---------------------------------------------------------------------------

def mixture_pdf_points(mix: HybridMixture, xs: np.ndarray, dims=None) -> np.ndarray:
    """Continuous-marginal density of a mixture at many points (rows).

    ``dims`` selects a marginal over a subset of state coordinates.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    out = np.zeros(xs.shape[0])
    for m in mix.mixands:
        mean, cov = m.gaussian.mean, m.gaussian.cov
        if dims is not None:
            mean = mean[list(dims)]
            cov = cov[np.ix_(list(dims), list(dims))]
        if xs.shape[1] != mean.shape[0]:
            raise DimensionMismatchError("point dimension does not match marginal")
        out += m.weight * np.exp(gaussian_logpdf(mean, cov, xs))
    return out


# ---------------------------------------------------------------------------
# particle truth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParticleSet:
    """Weighted-equal particle approximation of the true hybrid state."""

    states: np.ndarray            # (P, n_x)
    alphas: tuple                 # length P
    seed: int = 0

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if states.shape[0] != len(self.alphas):
            raise DimensionMismatchError("one discrete label required per particle")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphas", tuple(self.alphas))

    @property
    def count(self) -> int:
        return self.states.shape[0]


def sample_particles(mix: HybridMixture, count: int, seed: int = 0) -> ParticleSet:
    """Draw an initial particle set from a hybrid mixture."""
    rng = np.random.default_rng(seed)
    weights = np.array([m.weight for m in mix.mixands])
    choice = rng.choice(len(weights), size=count, p=weights / weights.sum())
    states = np.empty((count, mix.dim))
    alphas = []
    for i, c in enumerate(choice):
        m = mix.mixands[c]
        states[i] = rng.multivariate_normal(m.gaussian.mean, m.gaussian.cov)
        alphas.append(m.discrete)
    return ParticleSet(states, tuple(alphas), seed)


def propagate_particles(ps: ParticleSet, model: DynamicsModel, steps: int,
                        seed: int | None = None) -> list:
    """Step a particle set through the hybrid dynamics, exactly.

    Each particle draws its own process noise and samples its discrete
    transition by probability.  Returns one ParticleSet per step.
    """
    rng = np.random.default_rng(ps.seed if seed is None else seed)
    states = np.array(ps.states)
    alphas = np.array(ps.alphas, dtype=object)
    noise_cov = model.process_noise.cov
    frames = []
    for _ in range(steps):
        # Discrete transition, grouped by current label.
        new_alphas = alphas.copy()
        for alpha in sorted(set(alphas.tolist()), key=repr):
            idx = np.nonzero(alphas == alpha)[0]
            mask = model.transition_mask(alpha, states[idx])
            crossed = idx[mask]
            if crossed.size:
                options = model.successor_options(alpha)
                labels = [o[0] for o in options]
                probs = np.array([o[1] for o in options])
                pick = rng.choice(len(labels), size=crossed.size, p=probs / probs.sum())
                for j, c in zip(crossed, pick):
                    new_alphas[j] = labels[c]
        alphas = new_alphas
        # Continuous propagation with per-particle noise draws.
        if noise_cov.shape[0] > 0:
            noise = rng.multivariate_normal(np.zeros(noise_cov.shape[0]), noise_cov,
                                            size=states.shape[0])
        else:
            noise = np.zeros((states.shape[0], 0))
        new_states = np.empty_like(states)
        for alpha in sorted(set(alphas.tolist()), key=repr):
            idx = np.nonzero(alphas == alpha)[0]
            new_states[idx] = model.f_c_batch(alpha, states[idx], noise[idx])
        states = new_states
        frames.append(ParticleSet(states.copy(), tuple(alphas.tolist()), ps.seed))
    return frames


# ---------------------------------------------------------------------------
# density comparison
# ---------------------------------------------------------------------------

def default_grid(mix: HybridMixture, n_points: int = 20000, width: float = 8.0) -> np.ndarray:
    """Integration grid centered on the mixture's scalar moments."""
    mean, cov = mixture_moments(mix)
    sd = math.sqrt(max(float(cov[0, 0]), 1e-12))
    return np.linspace(float(mean[0]) - width * sd, float(mean[0]) + width * sd, n_points)


def numerical_kld(approx_density, truth_density, grid: np.ndarray,
                  direction: str = "printed") -> float:
    """Trapezoid-rule divergence between two scalar densities on a grid.

    ``direction="printed"`` integrates log(approx/truth) against the
    approximation (the benchmark form); ``"conventional"`` integrates
    log(truth/approx) against the truth.
    """
    p_hat = np.clip(np.asarray(approx_density(grid), dtype=float), _DENSITY_FLOOR, None)
    p = np.clip(np.asarray(truth_density(grid), dtype=float), _DENSITY_FLOOR, None)
    if not (np.isfinite(p_hat).all() and np.isfinite(p).all()):
        raise NonFiniteDensityError("density not finite on the integration grid")
    if direction == "printed":
        integrand = np.log(p_hat / p) * p_hat
    elif direction == "conventional":
        integrand = np.log(p / p_hat) * p
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return float(np.trapezoid(integrand, grid))


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.size < 3:
        raise DimensionMismatchError("need equal-length samples of size >= 3")
    sx, sy = xs.std(), ys.std()
    if sx <= 0 or sy <= 0:
        raise DegenerateVarianceError("correlation undefined for zero-variance sample")
    return float(np.mean((xs - xs.mean()) * (ys - ys.mean())) / (sx * sy))


# ---------------------------------------------------------------------------
# scenario metrics
# ---------------------------------------------------------------------------

def nll(frames, particle_frames) -> np.ndarray:
    """Per-step negative mean log-density of truth particles under the mixture.

    The discrete state is marginalized by summing mixand densities.
    """
    if len(frames) != len(particle_frames):
        raise DimensionMismatchError("frame and particle sequences must align")
    out = np.empty(len(frames))
    for i, (mix, ps) in enumerate(zip(frames, particle_frames)):
        dens = np.clip(mixture_pdf_points(mix, ps.states), _DENSITY_FLOOR, None)
        out[i] = -float(np.mean(np.log(dens)))
    return out


@dataclass(frozen=True)
class TrackObservations:
    """Timestamped partial-state measurements of one tracked vehicle."""

    times: np.ndarray
    values: np.ndarray            # (T, 2..4): x, y[, v, theta]
    source_id: str = ""

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        v = np.atleast_2d(np.asarray(self.values, dtype=float)) if np.size(self.values) else np.zeros((0, 2))
        if t.shape[0] != v.shape[0]:
            raise DimensionMismatchError("one value row per timestamp required")
        if t.size > 1 and not (np.diff(t) > 0).all():
            raise ValueError("observation timestamps must be strictly increasing")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


def log_likelihood(frames, obs: TrackObservations, dt: float, t0: float = 0.0) -> float:
    """Summed log-density of observations under the nearest-in-time frames.

    Frame i covers time t0 + (i + 1) * dt.  Observations are matched to
    the nearest frame; a gap above dt/2 is an error.
    """
    if obs.times.size == 0:
        return 0.0
    total = 0.0
    frame_times = t0 + dt * (1 + np.arange(len(frames)))
    for t, row in zip(obs.times, obs.values):
        i = int(np.argmin(np.abs(frame_times - t)))
        if abs(frame_times[i] - t) > dt / 2 + 1e-9:
            raise NoFrameMatchError(f"no frame within dt/2 of observation at t={t}")
        dims = tuple(range(row.shape[0]))
        dens = mixture_pdf_points(frames[i], row[None, :], dims=dims)[0]
        total += math.log(max(dens, _DENSITY_FLOOR))
    return total


def eote(frames, network: RoadNetwork, route, samples: int = 10000, seed: int = 0) -> float:
    """Expected distance of predicted position from the route centerline,
    summed over the horizon, by Monte-Carlo sampling of each frame."""
    rng = np.random.default_rng(seed)
    points = [network.segments[route[0]].centerline]
    for seg_id in route[1:]:
        points.append(network.segments[seg_id].centerline[1:])
    line = Polyline(np.vstack(points))
    total = 0.0
    for mix in frames:
        weights = np.array([m.weight for m in mix.mixands])
        counts = rng.multinomial(samples, weights / weights.sum())
        draws = []
        for m, c in zip(mix.mixands, counts):
            if c == 0:
                continue
            mean = m.gaussian.mean[:2]
            cov = m.gaussian.cov[:2, :2]
            draws.append(rng.multivariate_normal(mean, cov, size=c))
        xy = np.vstack(draws)
        _, d = line.project(xy)
        total += float(np.mean(d))
    return total


def _rect_corners(cx, cy, heading, length, width):
    c, s = np.cos(heading), np.sin(heading)
    dx = np.array([length / 2, length / 2, -length / 2, -length / 2])
    dy = np.array([width / 2, -width / 2, -width / 2, width / 2])
    xs = cx[..., None] + c[..., None] * dx - s[..., None] * dy
    ys = cy[..., None] + s[..., None] * dx + c[..., None] * dy
    return np.stack([xs, ys], axis=-1)          # (..., 4, 2)


def _rects_overlap(a_corners, b_corners):
    """Separating-axis test between one rectangle b and many rectangles a."""
    overlap = np.ones(a_corners.shape[0], dtype=bool)
    a_edges = np.roll(a_corners, -1, axis=1) - a_corners          # (P, 4, 2)
    a_axes = np.stack([-a_edges[..., 1], a_edges[..., 0]], axis=-1)
    for k in range(4):
        axis = a_axes[:, k, :]                                    # (P, 2)
        pa = np.einsum("pck,pk->pc", a_corners, axis)
        pb = np.einsum("ck,pk->pc", b_corners, axis)
        sep = (pa.max(axis=1) < pb.min(axis=1)) | (pb.max(axis=1) < pa.min(axis=1))
        overlap &= ~sep
    b_edges = np.roll(b_corners, -1, axis=0) - b_corners          # (4, 2)
    b_axes = np.stack([-b_edges[:, 1], b_edges[:, 0]], axis=-1)
    for k in range(4):
        axis = b_axes[k]
        pa = a_corners @ axis                                     # (P, 4)
        pb = b_corners @ axis                                     # (4,)
        sep = (pa.max(axis=1) < pb.min()) | (pb.max() < pa.min(axis=1))
        overlap &= ~sep
    return overlap


def collision_probability(frames, ego_poses, ego_footprint=(4.5, 2.0),
                          obstacle_footprint=(4.5, 2.0), samples: int = 2000,
                          seed: int = 0):
    """Per-step sampled probability that the obstacle overlaps the ego footprint.

    ``ego_poses`` is an (K, 3) array of (x, y, heading), one row per frame.
    Returns (probabilities, lower, upper) with a binomial 95% interval.
    """
    ego_poses = np.atleast_2d(np.asarray(ego_poses, dtype=float))
    if ego_poses.shape[0] != len(frames):
        raise DimensionMismatchError("one ego pose required per frame")
    rng = np.random.default_rng(seed)
    probs = np.empty(len(frames))
    for i, mix in enumerate(frames):
        weights = np.array([m.weight for m in mix.mixands])
        counts = rng.multinomial(samples, weights / weights.sum())
        draws = []
        for m, c in zip(mix.mixands, counts):
            if c == 0:
                continue
            draws.append(rng.multivariate_normal(m.gaussian.mean, m.gaussian.cov, size=c))
        states = np.vstack(draws)
        heading = states[:, 3] if states.shape[1] >= 4 else np.zeros(states.shape[0])
        obs_corners = _rect_corners(states[:, 0], states[:, 1], heading, *obstacle_footprint)
        ex, ey, eth = ego_poses[i]
        ego_corners = _rect_corners(np.array(ex), np.array(ey), np.array(eth), *ego_footprint)
        hits = _rects_overlap(obs_corners, ego_corners)
        probs[i] = hits.mean()
    se = np.sqrt(probs * (1.0 - probs) / samples)
    lower = np.clip(probs - 1.96 * se, 0.0, 1.0)
    upper = np.clip(probs + 1.96 * se, 0.0, 1.0)
    return probs, lower, upper
