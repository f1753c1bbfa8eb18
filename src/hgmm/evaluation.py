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

from .core import HybridMixture, _decode, _encode, gaussian_logpdf, mixture_moments
from .engine import DynamicsModel, _check_successor_options
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
    means, covs = mix.means, mix.covs
    if dims is not None:
        dims = list(dims)
        means, covs = means[:, dims], covs[:, dims][:, :, dims]
    if xs.shape[1] != means.shape[1]:
        raise DimensionMismatchError("point dimension does not match marginal")
    out = np.zeros(xs.shape[0])
    for w, mean, cov in zip(mix.weights, means, covs):
        out += w * np.exp(gaussian_logpdf(mean, cov, xs))
    return out


# ---------------------------------------------------------------------------
# particle truth
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False, eq=False)
class ParticleSet:
    """Weighted-equal particle approximation of the true hybrid state.

    The discrete labels are held as frames hold theirs (``core._encode``):
    a ``table`` of distinct labels plus one unsigned code per particle, in
    the smallest dtype that fits (one byte up to 256 labels); ``alphas``
    decodes them on each read.
    """

    states: np.ndarray            # (P, n_x), read-only
    table: tuple                  # distinct labels; a table entry may be unused
    codes: np.ndarray             # (P,) index into ``table``, read-only
    seed: int = 0

    def __init__(self, states, alphas, seed: int = 0):
        # A copy, so freezing it leaves the caller's array writeable.
        states = np.atleast_2d(np.array(states, dtype=float))
        table, codes = _encode(alphas)
        if states.shape[0] != codes.shape[0]:
            raise DimensionMismatchError("one discrete label required per particle")
        self._freeze(states, table, codes, seed)

    @classmethod
    def from_codes(cls, states: np.ndarray, table, codes: np.ndarray, seed: int = 0):
        """A set whose particle i has label ``table[codes[i]]``.

        ``table`` must be distinct.  ``states`` (float) and ``codes``
        (unsigned) are kept as given, not copied, and are made read-only.
        """
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or codes.shape != states.shape[:1]:
            raise DimensionMismatchError("one discrete label required per particle")
        ps = cls.__new__(cls)
        ps._freeze(states, tuple(table), codes, seed)
        return ps

    def _freeze(self, states, table, codes, seed):
        states.setflags(write=False)
        codes.setflags(write=False)
        for name, value in (("states", states), ("table", table), ("codes", codes),
                            ("seed", seed)):
            object.__setattr__(self, name, value)

    @property
    def alphas(self) -> tuple:
        """The label of each particle, in order."""
        return _decode(self.table, self.codes)

    @property
    def count(self) -> int:
        return self.states.shape[0]


def _draw_mixture(rng, mix: HybridMixture, labels: np.ndarray,
                  dims: slice = slice(None)) -> np.ndarray:
    """One row per entry of ``labels``, drawn from the mixand it indexes.

    Each mixand draws all of its rows in one ``multivariate_normal`` call,
    in mixand order.  ``dims`` selects a marginal over the coordinates.
    """
    out = np.empty((labels.shape[0], len(range(mix.dim)[dims])))
    for c, (mean, cov) in enumerate(zip(mix.means, mix.covs)):
        rows = np.nonzero(labels == c)[0]
        if rows.size:
            out[rows] = rng.multivariate_normal(mean[dims], cov[dims, dims], size=rows.size)
    return out


def sample_particles(mix: HybridMixture, count: int, seed: int = 0) -> ParticleSet:
    """Draw an initial particle set from a hybrid mixture.

    Draws are grouped per mixand, so for a mixture of more than one mixand
    the states follow a different random stream than one draw per particle.
    """
    rng = np.random.default_rng(seed)
    choice = rng.choice(len(mix), size=count, p=mix.weights / mix.weights.sum())
    states = _draw_mixture(rng, mix, choice)
    return ParticleSet.from_codes(states, mix.table, mix.codes[choice], seed)


def propagate_particles(ps: ParticleSet, model: DynamicsModel, steps: int,
                        seed: int | None = None) -> list:
    """Step a particle set through the hybrid dynamics, exactly.

    Each particle draws its own process noise and samples its discrete
    transition by probability, from successor options checked as the
    engine checks them (``_check_successor_options``), and renormalized
    only to absorb rounding.  Every label in use is gated, also one whose
    only option is to stay: its crossings draw from the random stream like
    any other, so skipping them would change every later draw.  When one
    label holds every particle, ``transition_mask`` and ``f_c_batch`` get
    the state and noise arrays whole; otherwise each label's rows are
    gathered with ``take``.  The noise draws are
    ``Generator.multivariate_normal``'s (NumPy 2.4, SVD method) to the bit,
    and use the same random numbers, with the covariance factored once per
    call instead of once per step: ``ProcessNoise`` has already checked it.
    Returns one ParticleSet per step, which holds that step's state array
    and label codes as they were made, not copies.
    """
    rng = np.random.default_rng(ps.seed if seed is None else seed)
    # Labels are held as codes into ``table``, which grows as labels appear.
    states, table, codes = ps.states, ps.table, ps.codes

    def groups() -> list:
        """(code, rows) per label in use, in ``repr`` order of the labels.

        ``rows`` is ``slice(None)`` when one label holds every particle.
        """
        used = sorted(np.flatnonzero(np.bincount(codes)).tolist(), key=lambda c: repr(table[c]))
        if len(used) == 1:
            return [(used[0], slice(None))]
        return [(c, np.flatnonzero(codes == c)) for c in used]

    def take(array, rows):
        return array if isinstance(rows, slice) else array.take(rows, axis=0)

    n_v = model.process_noise.dim
    # multivariate_normal's factor and mean; the factor's transpose stays a view, as
    # there, so the product takes the same BLAS call and rounds the same way.
    u, s, _ = np.linalg.svd(model.process_noise.cov)
    noise_factor_t = (u * np.sqrt(s)).T
    noise_mean = np.zeros(n_v)
    frames = []
    for _ in range(steps):
        # Discrete transition, grouped by current label.
        new_codes = codes.copy()
        for c, rows in groups():
            mask = model.transition_mask(table[c], take(states, rows))
            crossed = np.flatnonzero(mask) if isinstance(rows, slice) else rows[mask]
            if crossed.size:
                succ = model.successor_options(table[c])
                _check_successor_options(table[c], succ)
                labels, probs = zip(*succ)
                probs = np.array(probs)
                pick = rng.choice(len(labels), size=crossed.size, p=probs / probs.sum())
                table, successors = _encode(labels, table)
                # A new label may outgrow the codes' dtype.
                new_codes = new_codes.astype(successors.dtype, copy=False)
                new_codes[crossed] = successors[pick]
        codes = new_codes
        # Continuous propagation with per-particle noise draws; adding the
        # zero mean turns -0.0 into 0.0, as multivariate_normal does.
        noise = rng.standard_normal((states.shape[0], n_v)) @ noise_factor_t
        noise += noise_mean
        new_states = np.empty_like(states)
        for c, rows in groups():
            new_states[rows] = model.f_c_batch(table[c], take(states, rows), take(noise, rows))
        states = new_states
        frames.append(ParticleSet.from_codes(states, table, codes, ps.seed))
    return frames


# ---------------------------------------------------------------------------
# density comparison
# ---------------------------------------------------------------------------

def default_grid(mix: HybridMixture, n_points: int = 20000, width: float = 8.0) -> np.ndarray:
    """Integration grid centered on the mixture's scalar moments."""
    mean, cov = mixture_moments(mix)
    sd = math.sqrt(max(float(cov[0, 0]), 1e-12))
    return np.linspace(float(mean[0]) - width * sd, float(mean[0]) + width * sd, n_points)


def numerical_kld(approx_density, truth_density, grid: np.ndarray) -> float:
    """Trapezoid-rule divergence between two scalar densities on a grid.

    Integrates log(approx/truth) against the approximation (the benchmark
    form).
    """
    p_hat = np.clip(np.asarray(approx_density(grid), dtype=float), _DENSITY_FLOOR, None)
    p = np.clip(np.asarray(truth_density(grid), dtype=float), _DENSITY_FLOOR, None)
    if not (np.isfinite(p_hat).all() and np.isfinite(p).all()):
        raise NonFiniteDensityError("density not finite on the integration grid")
    return float(np.trapezoid(np.log(p_hat / p) * p_hat, grid))


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


@dataclass(frozen=True, eq=False)
class TrackObservations:
    """Timestamped partial-state measurements of one tracked vehicle."""

    times: np.ndarray
    values: np.ndarray            # (T, 2..4): x, y[, v, theta]
    source_id: str = ""

    def __post_init__(self):
        # Copies, so freezing them leaves the caller's arrays writeable.
        t = np.atleast_1d(np.array(self.times, dtype=float))
        v = np.atleast_2d(np.array(self.values, dtype=float)) if np.size(self.values) else np.zeros((0, 2))
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
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    rng = np.random.default_rng(seed)
    points = [network.segments[route[0]].centerline]
    for seg_id in route[1:]:
        points.append(network.segments[seg_id].centerline[1:])
    line = Polyline(np.vstack(points))
    total = 0.0
    for mix in frames:
        counts = rng.multinomial(samples, mix.weights / mix.weights.sum())
        xy = _draw_mixture(rng, mix, np.repeat(np.arange(len(counts)), counts), slice(2))
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
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    ego_poses = np.atleast_2d(np.asarray(ego_poses, dtype=float))
    if ego_poses.shape[0] != len(frames):
        raise DimensionMismatchError("one ego pose required per frame")
    rng = np.random.default_rng(seed)
    probs = np.empty(len(frames))
    for i, mix in enumerate(frames):
        counts = rng.multinomial(samples, mix.weights / mix.weights.sum())
        states = _draw_mixture(rng, mix, np.repeat(np.arange(len(counts)), counts))
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
