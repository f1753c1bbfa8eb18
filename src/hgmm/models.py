"""Bundled dynamics models.

Two univariate benchmark maps with exact pushforward truth densities,
and a 4-state bicycle robot following routes on a directed lane-segment
road network with a pure-pursuit speed/steering controller.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Gaussian, ProcessNoise, NO_NOISE
from .engine import DynamicsModel
from .serialize import to_json

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# univariate benchmark maps
# ---------------------------------------------------------------------------

UNGM_ALPHA, UNGM_BETA, UNGM_GAMMA = 0.3, 1.0, 1.0
CUBIC_A, CUBIC_B, CUBIC_C, CUBIC_D = 6.0, 1.0, 1.0, 1.0


def ungm_step(x, k: int):
    """Nonstationary growth map with the standard constants."""
    x = np.asarray(x, dtype=float)
    return UNGM_ALPHA * x + UNGM_BETA * x / (1.0 + x * x) + UNGM_GAMMA * math.cos(1.2 * k)


def ungm_derivative(x):
    x = np.asarray(x, dtype=float)
    return UNGM_ALPHA + UNGM_BETA * (1.0 - x * x) / (1.0 + x * x) ** 2


def cubic_step(x):
    x = np.asarray(x, dtype=float)
    return CUBIC_A * x**3 + CUBIC_B * x**2 + CUBIC_C * x + CUBIC_D


def cubic_derivative(x):
    x = np.asarray(x, dtype=float)
    return 3.0 * CUBIC_A * x**2 + 2.0 * CUBIC_B * x + CUBIC_C


class UngmModel(DynamicsModel):
    """Noise-free scalar growth model; the discrete state is the step index."""

    n_x = 1
    n_v = 0

    @property
    def process_noise(self) -> ProcessNoise:
        return NO_NOISE

    def successor_options(self, alpha):
        return [(int(alpha) + 1, 1.0)]

    def transition_mask(self, alpha, xs):
        return np.ones(len(xs), dtype=bool)

    def f_c_batch(self, alpha_next, xs, vs):
        k = int(alpha_next) - 1
        return ungm_step(xs[:, :1], k)


class CubicModel(DynamicsModel):
    """Noise-free scalar cubic map; the discrete state never changes."""

    n_x = 1
    n_v = 0

    @property
    def process_noise(self) -> ProcessNoise:
        return NO_NOISE

    def successor_options(self, alpha):
        return [(alpha, 1.0)]

    def transition_mask(self, alpha, xs):
        return np.zeros(len(xs), dtype=bool)

    def f_c_batch(self, alpha_next, xs, vs):
        return cubic_step(xs[:, :1])


def pushforward_density(f, f_prime, critical_points, prior: Gaussian, span: float = 12.0):
    """Exact density of f(X) for scalar X ~ prior, by change of variables.

    The domain is partitioned at the map's critical points into monotone
    branches; each branch is inverted by dense monotone interpolation and
    contributes prior(x) / |f'(x)| at the preimage.  Returns a vectorized
    density function of the output variable.
    """
    mu = float(prior.mean[0])
    sd = math.sqrt(float(prior.cov[0, 0]))
    sd = max(sd, 1e-9)
    lo, hi = mu - span * sd, mu + span * sd
    edges = [lo] + sorted(c for c in critical_points if lo < c < hi) + [hi]
    branches = []
    for a, b in zip(edges[:-1], edges[1:]):
        xs = np.linspace(a, b, 20001)
        ys = np.asarray(f(xs), dtype=float)
        increasing = ys[-1] >= ys[0]
        if not increasing:
            xs, ys = xs[::-1], ys[::-1]
        branches.append((xs, ys))

    norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))

    def density(y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.zeros_like(y)
        for xs, ys in branches:
            inside = (y >= ys[0]) & (y <= ys[-1])
            if not inside.any():
                continue
            x_inv = np.interp(y[inside], ys, xs)
            slope = np.abs(np.asarray(f_prime(x_inv), dtype=float))
            slope = np.maximum(slope, 1e-12)
            pdf = norm * np.exp(-0.5 * ((x_inv - mu) / sd) ** 2)
            out[inside] += pdf / slope
        return out

    return density


def ungm_truth_density(prior: Gaussian, k: int = 0):
    """Exact one-step propagated density of the growth map (it is monotone)."""
    return pushforward_density(lambda x: ungm_step(x, k), ungm_derivative, [], prior)


def cubic_truth_density(prior: Gaussian):
    """Exact one-step propagated density of the cubic map (monotone: no real critical points)."""
    return pushforward_density(cubic_step, cubic_derivative, [], prior)


# ---------------------------------------------------------------------------
# road network
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoadSegment:
    """Directed lane segment with a polyline centerline in meters."""

    seg_id: str
    centerline: np.ndarray          # (P, 2)
    half_width: float
    successors: tuple

    def __post_init__(self):
        line = np.asarray(self.centerline, dtype=float)
        if line.ndim != 2 or line.shape[1] != 2 or line.shape[0] < 2:
            raise ValueError(f"segment {self.seg_id}: centerline must be (P, 2), P >= 2")
        line.setflags(write=False)
        object.__setattr__(self, "centerline", line)
        object.__setattr__(self, "successors", tuple(self.successors))


class RoadNetwork:
    """Directed graph of lane segments; G0-continuous across successors."""

    def __init__(self, segments):
        self.segments = {s.seg_id: s for s in segments}
        for s in segments:
            for succ in s.successors:
                if succ not in self.segments:
                    raise ValueError(f"segment {s.seg_id} references unknown successor {succ}")
                gap = np.linalg.norm(self.segments[succ].centerline[0] - s.centerline[-1])
                if gap > 0.01:
                    raise ValueError(
                        f"centerline gap {gap:.3f} m between {s.seg_id} and {succ}"
                    )

    def to_dict(self) -> dict:
        return {
            "segments": [
                {
                    "id": s.seg_id,
                    "centerline": [[float(x), float(y)] for x, y in s.centerline],
                    "half_width": float(s.half_width),
                    "successors": list(s.successors),
                }
                for s in self.segments.values()
            ]
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_json(self.to_dict()))
            fh.write("\n")

    @staticmethod
    def from_dict(doc: dict) -> "RoadNetwork":
        return RoadNetwork(
            [
                RoadSegment(
                    e["id"],
                    np.asarray(e["centerline"], dtype=float),
                    float(e["half_width"]),
                    tuple(e["successors"]),
                )
                for e in doc["segments"]
            ]
        )

    @staticmethod
    def load(path) -> "RoadNetwork":
        with open(path, "r", encoding="utf-8") as fh:
            return RoadNetwork.from_dict(json.load(fh))


class Polyline:
    """Arclength-parameterized polyline with vectorized projection."""

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=float)
        d = np.diff(self.points, axis=0)
        self.seg_len = np.linalg.norm(d, axis=1)
        keep = self.seg_len > 1e-12
        if not keep.all():
            self.points = np.vstack([self.points[:-1][keep], self.points[-1:]])
            d = np.diff(self.points, axis=0)
            self.seg_len = np.linalg.norm(d, axis=1)
        self.dirs = d / self.seg_len[:, None]
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.length = float(self.cum[-1])

    def point_at(self, s):
        s = np.clip(np.atleast_1d(np.asarray(s, dtype=float)), 0.0, self.length)
        idx = np.clip(np.searchsorted(self.cum, s, side="right") - 1, 0, len(self.seg_len) - 1)
        local = s - self.cum[idx]
        return self.points[idx] + self.dirs[idx] * local[:, None]

    def project(self, xy: np.ndarray):
        """Closest-point projection: returns (arclength s, distance) per row."""
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        rel = xy[:, None, :] - self.points[None, :-1, :]      # (P, S, 2)
        t = np.einsum("psk,sk->ps", rel, self.dirs)
        t = np.clip(t, 0.0, self.seg_len[None, :])
        foot = self.points[None, :-1, :] + t[:, :, None] * self.dirs[None, :, :]
        dist = np.linalg.norm(xy[:, None, :] - foot, axis=2)
        best = np.argmin(dist, axis=1)
        rows = np.arange(xy.shape[0])
        s = self.cum[best] + t[rows, best]
        return s, dist[rows, best]


# ---------------------------------------------------------------------------
# bicycle model with path-following controller
# ---------------------------------------------------------------------------

# Extension of each route polyline past its last segment, so lookahead
# targets exist near the end of the mapped road.
_ROUTE_TAIL = 60.0


@dataclass(frozen=True)
class BicycleConfig:
    dt: float = 0.1
    wheel_gain: float = 0.35          # heading-rate gain multiplying v * u2
    v_target: float = 10.0
    k_v: float = 1.0                  # speed-tracking gain (1/s)
    lookahead: float = 5.0            # pure-pursuit lookahead (m)
    a_max: float = 3.0                # throttle saturation (m/s^2)
    u2_max: float = 0.5               # steering saturation
    noise_cov: tuple = ((0.25, 0.0), (0.0, 0.01))
    off_network_factor: float = 3.0   # lateral distance cutoff in half-widths


class BicycleModel(DynamicsModel):
    """4-state rear-axle bicycle (x, y, v, heading) driving a road network.

    The discrete state is the current segment id.  The controller tracks
    the target speed proportionally and steers by pure pursuit toward a
    lookahead point on the segment's route centerline; both commands
    saturate.  Points projecting far outside the lane propagate
    ballistically with zero command.
    """

    n_x = 4
    n_v = 2

    def __init__(self, network: RoadNetwork, config: BicycleConfig = BicycleConfig()):
        self.network = network
        self.config = config
        self._noise = ProcessNoise(np.asarray(config.noise_cov, dtype=float))
        self._routes = {}
        self._seg_lines = {}
        for seg_id in network.segments:
            self._seg_lines[seg_id] = Polyline(network.segments[seg_id].centerline)
            self._routes[seg_id] = Polyline(self._route_points(seg_id))

    def _route_points(self, seg_id: str) -> np.ndarray:
        """Segment centerline chained through first successors, plus a straight tail."""
        pts = [self.network.segments[seg_id].centerline]
        total = self._polyline_len(pts[0])
        current = seg_id
        while total < self._polyline_len(pts[0]) + _ROUTE_TAIL:
            succ = self.network.segments[current].successors
            if not succ:
                break
            current = succ[0]
            nxt = self.network.segments[current].centerline
            pts.append(nxt[1:])
            total += self._polyline_len(nxt)
        line = np.vstack(pts)
        tail_dir = line[-1] - line[-2]
        tail_dir = tail_dir / np.linalg.norm(tail_dir)
        line = np.vstack([line, line[-1] + tail_dir * _ROUTE_TAIL])
        return line

    @staticmethod
    def _polyline_len(points: np.ndarray) -> float:
        return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())

    @property
    def process_noise(self) -> ProcessNoise:
        return self._noise

    # -- discrete dynamics ---------------------------------------------------

    def successor_options(self, alpha):
        succ = self.network.segments[alpha].successors
        if not succ:
            return [(alpha, 1.0)]
        p = 1.0 / len(succ)
        return [(s, p) for s in succ]

    def transition_mask(self, alpha, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        s, _ = self._seg_lines[alpha].project(xs[:, :2])
        return s >= self._seg_lines[alpha].length - 1e-6

    # -- continuous dynamics -------------------------------------------------

    def control(self, alpha, xs: np.ndarray) -> np.ndarray:
        """Throttle and steering commands for a batch of states (rows)."""
        cfg = self.config
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        route = self._routes[alpha]
        s, d = route.project(xs[:, :2])
        target = route.point_at(s + cfg.lookahead)
        dxy = target - xs[:, :2]
        dist = np.maximum(np.linalg.norm(dxy, axis=1), 1e-6)
        bearing = np.arctan2(dxy[:, 1], dxy[:, 0])
        err = np.arctan2(np.sin(bearing - xs[:, 3]), np.cos(bearing - xs[:, 3]))
        curvature = 2.0 * np.sin(err) / dist
        u1 = np.clip(cfg.k_v * (cfg.v_target - xs[:, 2]), -cfg.a_max, cfg.a_max)
        u2 = np.clip(curvature / cfg.wheel_gain, -cfg.u2_max, cfg.u2_max)
        half_w = self.network.segments[alpha].half_width
        off = d > cfg.off_network_factor * half_w
        if off.any():
            log.debug("%d point(s) off network near segment %s; coasting", off.sum(), alpha)
            u1 = np.where(off, 0.0, u1)
            u2 = np.where(off, 0.0, u2)
        return np.column_stack([u1, u2])

    def f_c_batch(self, alpha_next, xs, vs):
        cfg = self.config
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        vs = np.atleast_2d(np.asarray(vs, dtype=float))
        u = self.control(alpha_next, xs)
        x, y, v, th = xs[:, 0], xs[:, 1], xs[:, 2], xs[:, 3]
        out = np.empty_like(xs)
        out[:, 0] = x + cfg.dt * np.cos(th) * v
        out[:, 1] = y + cfg.dt * np.sin(th) * v
        out[:, 2] = v + cfg.dt * (u[:, 0] + vs[:, 0])
        out[:, 3] = th + cfg.dt * cfg.wheel_gain * v * (u[:, 1] + vs[:, 1])
        return out


# ---------------------------------------------------------------------------
# builtin scenario networks
# ---------------------------------------------------------------------------

def _arc(center, radius, start_angle, end_angle, n=33) -> np.ndarray:
    ang = np.linspace(start_angle, end_angle, n)
    return np.column_stack([center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)])


def straight_road_network(length: float = 200.0, half_width: float = 2.0) -> RoadNetwork:
    seg = RoadSegment("main", np.array([[0.0, 0.0], [length, 0.0]]), half_width, ())
    return RoadNetwork([seg])


def turn_network(approach: float = 40.0, radius: float = 6.0, exit_len: float = 100.0,
                 half_width: float = 2.0) -> RoadNetwork:
    # Eastbound approach, 90-degree left turn, northbound exit.
    appr = RoadSegment("approach", np.array([[0.0, 0.0], [approach, 0.0]]), half_width, ("turn",))
    arc = _arc((approach, radius), radius, -np.pi / 2, 0.0)
    turn = RoadSegment("turn", arc, half_width, ("exit",))
    exit_seg = RoadSegment(
        "exit",
        np.array([[approach + radius, radius], [approach + radius, radius + exit_len]]),
        half_width,
        (),
    )
    return RoadNetwork([appr, turn, exit_seg])


def intersection_network(approach: float = 40.0, radius: float = 6.0, exit_len: float = 80.0,
                         half_width: float = 2.0) -> RoadNetwork:
    """Eastbound approach with three options: left turn, straight, right turn."""
    a = approach
    appr = RoadSegment("approach", np.array([[0.0, 0.0], [a, 0.0]]), half_width,
                       ("left", "straight", "right"))
    left_arc = _arc((a, radius), radius, -np.pi / 2, 0.0)
    left_line = np.vstack([left_arc, [[a + radius, radius + exit_len]]])
    left = RoadSegment("left", left_line, half_width, ())
    straight = RoadSegment(
        "straight", np.array([[a, 0.0], [a + 2 * radius + exit_len, 0.0]]), half_width, ()
    )
    right_arc = _arc((a, -radius), radius, np.pi / 2, 0.0)
    right_line = np.vstack([right_arc, [[a + radius, -radius - exit_len]]])
    right = RoadSegment("right", right_line, half_width, ())
    return RoadNetwork([appr, left, straight, right])


def builtin_network(name: str) -> RoadNetwork:
    builders = {
        "straight": straight_road_network,
        "turn": turn_network,
        "intersection": intersection_network,
    }
    if name not in builders:
        raise KeyError(f"unknown builtin network {name!r}; options: {sorted(builders)}")
    return builders[name]()
