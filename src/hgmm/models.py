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


def pushforward_density(f, f_prime, prior: Gaussian):
    """Exact density of f(X) for scalar X ~ prior and a monotone map f.

    f is inverted by dense interpolation over the prior mean +- 12 sd, and
    the density at y is prior(x) / |f'(x)| at its preimage x.  Returns a
    vectorized density function of the output variable.
    """
    mu = float(prior.mean[0])
    sd = math.sqrt(float(prior.cov[0, 0]))
    sd = max(sd, 1e-9)
    xs = np.linspace(mu - 12.0 * sd, mu + 12.0 * sd, 20001)
    ys = np.asarray(f(xs), dtype=float)
    if ys[-1] < ys[0]:
        xs, ys = xs[::-1], ys[::-1]
    norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))

    def density(y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.zeros_like(y)
        inside = (y >= ys[0]) & (y <= ys[-1])
        x_inv = np.interp(y[inside], ys, xs)
        slope = np.maximum(np.abs(np.asarray(f_prime(x_inv), dtype=float)), 1e-12)
        out[inside] = norm * np.exp(-0.5 * ((x_inv - mu) / sd) ** 2) / slope
        return out

    return density


def ungm_truth_density(prior: Gaussian, k: int = 0):
    """Exact one-step propagated density of the growth map (it is monotone)."""
    return pushforward_density(lambda x: ungm_step(x, k), ungm_derivative, prior)


def cubic_truth_density(prior: Gaussian):
    """Exact one-step propagated density of the cubic map (monotone: no real critical points)."""
    return pushforward_density(cubic_step, cubic_derivative, prior)


# ---------------------------------------------------------------------------
# road network
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RoadSegment:
    """Directed lane segment with a polyline centerline in meters."""

    seg_id: str
    centerline: np.ndarray          # (P, 2)
    half_width: float
    successors: tuple

    def __post_init__(self):
        line = np.array(self.centerline, dtype=float)   # a copy: the caller's array stays writeable
        if line.ndim != 2 or line.shape[1] != 2 or line.shape[0] < 2:
            raise ValueError(f"segment {self.seg_id}: centerline must be (P, 2), P >= 2")
        finite = np.isfinite(line).all()
        if not (finite and np.linalg.norm(np.diff(line, axis=0), axis=1).max() > 1e-12):
            raise ValueError(f"segment {self.seg_id}: centerline must be finite, non-zero length")
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError(f"segment {self.seg_id}: half_width must be finite and positive, "
                             f"got {self.half_width}")
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


# Batches of fewer rows take the dense projection: below this the grid
# path's fixed cost outweighs the cells it skips.  On the 32-35-segment
# builtin polylines the grid took 37 us against 34 dense at 52 rows, and
# 43 us against 66 at 128 rows (sweep in CHANGES.md).
_GRID_MIN_ROWS = 128
# Polylines of fewer segments always project densely, at a few cells a row.
_GRID_MIN_SEGMENTS = 5
# Side of a grid cell and the band around the polyline whose cells hold
# short candidate lists (m).  On the particle oracle's batches a row in the
# band has 2.9 candidate segments on average (p50 1, p99 12) against 32-35
# in the dense pass, and 0.2% of its rows fall outside the band.
_GRID_CELL = 0.5
_GRID_BAND = 3.0
# Most cells of one grid: a larger polyline gets larger cells and band.
_GRID_MAX_CELLS = 1 << 18
# About this many (cell or row, segment) pairs are costed at once, by the
# build and by the projection.  Each temporary then stays at or below
# 160 kB; at 8192 and 16384 pairs the particle oracle ran 17% and 8%
# slower, unchunked it raised the oracle's peak RSS by 5 MB (CHANGES.md).
_GRID_CHUNK = 1 << 12


def _cells(x, y, px, py, dx, dy, seg_len):
    """Foot parameter t and distance from points (x, y) to segments, elementwise.

    The segments start at (px, py), run along the unit vectors (dx, dy) and
    have length seg_len; the arguments broadcast.  Both projection paths
    compute every cell here, so each cell is rounded the same way whatever
    the batch shape.
    """
    t = x - px
    t *= dx
    ty = y - py
    ty *= dy
    t += ty
    # np.clip(t, 0.0, seg_len) without its dispatch cost.  Where the two
    # could differ, in the sign of a zero t, no result does: every use of t
    # adds it to a coordinate or to an arclength.
    np.maximum(t, 0.0, out=t)
    np.minimum(t, seg_len, out=t)
    ex = t * dx
    ex += px
    ex -= x
    ey = np.multiply(t, dy, out=ty)
    ey += py
    ey -= y
    ex *= ex
    ex += np.square(ey, out=ey)
    return t, np.sqrt(ex, out=ex)


@dataclass(frozen=True, eq=False)
class _Grid:
    """Candidate segments of each cell of a uniform grid over a polyline.

    Cell (ix, iy) spans [lo + (ix, iy) / inv_cell, lo + (ix + 1, iy + 1) / inv_cell)
    and is entry c = iy * nx + ix of the CSR lists: its segments are
    ``segs[starts[c]:starts[c] + counts[c]]``, ascending.  A cell outside
    the band lists every segment.
    """

    lo: np.ndarray          # (2,) lower corner
    inv_cell: float         # 1 / cell side
    top: np.ndarray         # (2,) largest cell index per axis, as floats
    nx: int
    starts: np.ndarray      # per cell; each array of the least unsigned type that fits
    counts: np.ndarray      # per cell
    segs: np.ndarray        # per listed (cell, segment) pair


def _as_rows(a) -> np.ndarray:
    """``a`` as a float array of at least two dimensions; a 2-D float array is ``a`` itself."""
    a = np.asarray(a, dtype=float)
    return a if a.ndim == 2 else np.atleast_2d(a)


class Polyline:
    """Arclength-parameterized polyline; exact projection, ties to the lowest segment index."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        # Drop the start point of every zero-length piece.
        keep = np.linalg.norm(np.diff(points, axis=0), axis=1) > 1e-12
        self.points = np.vstack([points[:-1][keep], points[-1:]])
        d = np.diff(self.points, axis=0)
        self.seg_len = np.linalg.norm(d, axis=1)
        self.dirs = d / self.seg_len[:, None]
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.length = float(self.cum[-1])
        # `reaches`' operands as floats: cum[-2], then the last segment's start and direction.
        self._last_piece = (float(self.cum[-2]), *self.points[-2].tolist(), *self.dirs[-1].tolist())
        # _cells' segment arguments, one row each.
        self._seg_table = np.stack([*self.points[:-1].T, *self.dirs.T, self.seg_len])
        # Bounds every magnitude in a cell (|x| + |y| added per row); see `project`.
        self._extent = float(np.abs(self.points).max() + self.seg_len.max())
        self._grid = self._build_grid() if len(self.seg_len) >= _GRID_MIN_SEGMENTS else None

    def _build_grid(self) -> _Grid:
        """Each cell's list of the segments that may hold a closest point; see `project`.

        Only pairs of a cell and a segment whose bounding box, widened by
        the farthest a listed segment can be, holds the cell's centre are
        costed, about `_GRID_CHUNK` pairs at a time.
        """
        span = np.ptp(self.points, axis=0) + 2.0 * (_GRID_BAND + _GRID_CELL)
        scale = max(1.0, math.sqrt(span.prod() / _GRID_CELL**2 / _GRID_MAX_CELLS))
        h, band = _GRID_CELL * scale, _GRID_BAND * scale
        # A whole cell past the band on every side: the edge cells lie outside it.
        lo = self.points.min(axis=0) - (band + h)
        shape = np.ceil((self.points.max(axis=0) + (band + h) - lo) / h).astype(np.intp) + 1
        margin = 1e-9 * (float(np.abs([lo, lo + shape * h]).max()) + self._extent)
        reach = math.sqrt(2.0) * h + margin         # twice the half-diagonal, plus the margin
        # Each segment's box widened by more than band + reach, as a
        # rectangle of cells; one entry per row of cells of each rectangle.
        start, end = self.points[:-1], self.points[1:]
        pad = band + reach + margin
        first = np.floor((np.minimum(start, end) - pad - lo) / h).astype(np.intp)
        last = np.floor((np.maximum(start, end) + pad - lo) / h).astype(np.intp)
        np.maximum(first, 0, out=first)
        np.minimum(last, shape - 1, out=last)
        wide, high = (last - first + 1).T
        row_seg = np.repeat(np.arange(len(high)), high)
        row_iy = first[row_seg, 1] + np.arange(len(row_seg)) - np.repeat(np.cumsum(high) - high, high)
        row_ix, row_wide = first[row_seg, 0], wide[row_seg]
        breaks = np.searchsorted(np.cumsum(row_wide),
                                 np.arange(_GRID_CHUNK, row_wide.sum(), _GRID_CHUNK))
        cells, segs, dists = [], [], []
        for rows in np.split(np.arange(len(row_seg)), breaks):
            n = row_wide[rows]
            ix = np.repeat(row_ix[rows], n) + np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
            iy = np.repeat(row_iy[rows], n)
            seg = np.repeat(row_seg[rows], n)
            _, dist = _cells(lo[0] + (ix + 0.5) * h, lo[1] + (iy + 0.5) * h,
                             *self._seg_table.take(seg, axis=1))
            # Rounding is monotone, so every pair listed below passes this.
            near = dist <= band + reach
            cells.append((iy * shape[0] + ix)[near])
            segs.append(seg[near])
            dists.append(dist[near])
        cell, seg, dist = (np.concatenate(v) for v in (cells, segs, dists))
        # Group the pairs by cell, each cell's segments ascending.
        order = np.argsort(cell, kind="stable")
        cell, seg, dist = cell.take(order), seg.take(order), dist.take(order)
        head = np.flatnonzero(np.diff(cell, prepend=-1))    # each cell's first pair
        least = np.repeat(np.minimum.reduceat(dist, head), np.diff(head, append=len(cell)))
        listed = (least <= band) & (dist <= least + reach)
        cell, seg = cell[listed], seg[listed]
        head = np.flatnonzero(np.diff(cell, prepend=-1))
        # A cell without a list gets every segment, appended once after the lists.
        n_seg = len(self.seg_len)
        starts = np.full(int(shape.prod()), len(seg), dtype=np.min_scalar_type(len(seg)))
        counts = np.full(len(starts), n_seg, dtype=np.min_scalar_type(n_seg))
        starts[cell.take(head)] = head
        counts[cell.take(head)] = np.diff(head, append=len(cell))
        return _Grid(lo, 1.0 / h, (shape - 1).astype(float), int(shape[0]), starts, counts,
                     np.concatenate([seg, np.arange(n_seg)]).astype(np.min_scalar_type(n_seg - 1)))

    def point_at(self, s):
        s = np.asarray(s, dtype=float)
        if s.ndim == 0:
            s = s.reshape(1)
        # np.clip's result bit for bit, signed zeros included, without its
        # dispatch cost on small batches.
        s = np.minimum(self.length, np.maximum(0.0, s))
        idx = np.minimum(len(self.seg_len) - 1,
                         np.maximum(0, np.searchsorted(self.cum, s, side="right") - 1))
        local = s - self.cum[idx]
        # ``take`` gathers rows on NumPy's fast path; fancy indexing does not.
        return self.points.take(idx, axis=0) + self.dirs.take(idx, axis=0) * local[:, None]

    def project(self, xy: np.ndarray):
        """Closest-point projection: returns (arclength s, distance) per row.

        The closest point is on the first segment that attains the row's
        least rounded distance.  Batches of `_GRID_MIN_ROWS` rows or more
        compute only the segments listed for the row's cell of a uniform
        grid, built with the polyline.  For a cell whose centre c is within
        the band of the polyline (least distance d(c) <= band), the list
        holds, in ascending order, every segment whose distance from c is
        at most d(c) + 2r + margin, where r is the cell's half-diagonal and
        the margin is 1e-9 of the grid's largest coordinate plus extent (the
        largest point coordinate plus the longest segment).  A row p in the
        cell is within r of c, and distance to a set is 1-Lipschitz, so the
        segment closest to p is within d(p) + r <= d(c) + 2r of c.  Rounding
        moves every computed distance, and a row that floors into the cell
        from just outside it, by a few units of 2^-53 times those magnitudes
        at most, far less than the margin: every segment whose rounded
        distance from p ties the least one is listed.  The first-index
        minimum over the listed cells therefore equals the dense one, ties
        included.  A cell outside the band lists every segment, and so do
        the grid's edge cells, into which rows outside the grid are clipped.
        A batch holding an entry that is not finite or too large to square
        takes the dense projection whole.  The cell side is `_GRID_CELL`
        and the band `_GRID_BAND`, both scaled up for a polyline whose grid
        would have more than `_GRID_MAX_CELLS` cells.
        """
        xy = _as_rows(xy)
        # The magnitude test keeps every square finite; NaN and inf fail it too.
        if (len(xy) < _GRID_MIN_ROWS or self._grid is None
                or not np.abs(xy).max() + self._extent < 1e150):
            return self._project_dense(xy)
        return self._project_grid(xy)

    def reaches(self, xy: np.ndarray, s_min: float) -> np.ndarray:
        """``project(xy)[0] >= s_min`` for every row, projecting only rows that may pass.

        A row's arclength is cum[k] + clip(t_k) for its closest segment k.
        Below the last segment that is at most cum[k + 1] <= cum[-2], as
        rounding is monotone and ``cum`` is a running sum.  On the last
        segment it is cum[-2] + clip(t), where t is the foot parameter on
        that segment's line, computed here in ``_cells``' order and so to
        the same bits: it is cum[-2] for t < 0 and at most the rounded
        cum[-2] + t otherwise.  So when cum[-2] < s_min, a row whose rounded
        cum[-2] + t is below s_min falls short whichever segment is closest,
        and is not projected; no margin is needed.  Every other row is,
        NaN and inf rows included, so a row's result does not depend on the
        rest of the batch.
        """
        xy = _as_rows(xy)
        base, px, py, dx, dy = self._last_piece
        if not s_min > base:
            return self.project(xy)[0] >= s_min
        s = xy[:, 0] - px
        s *= dx
        ty = xy[:, 1] - py
        ty *= dy
        s += ty
        s += base
        near = (~(s < s_min)).nonzero()[0]
        out = np.zeros(len(xy), dtype=bool)
        if near.size:
            out[near] = self.project(xy.take(near, axis=0))[0] >= s_min
        return out

    def _project_dense(self, xy):
        """Every (row, segment) cell, in (P, S) arrays."""
        t, dist = _cells(xy[:, :1], xy[:, 1:2], *self._seg_table)
        best = dist.argmin(axis=1)      # on rounded distances: ties go to the lowest index
        # Each row's winning cell, as a flat index into the C-ordered (P, S) arrays.
        flat = np.arange(0, dist.size, dist.shape[1]) + best
        return self.cum[best] + t.take(flat), dist.take(flat)

    def _project_grid(self, xy):
        """Each row by the segments listed for its cell, about `_GRID_CHUNK` (row, segment)
        pairs at a time."""
        grid = self._grid
        at = xy[:, :2] - grid.lo
        at *= grid.inv_cell
        np.floor(at, out=at)
        np.maximum(at, 0.0, out=at)         # rows outside the grid land in its edge cells
        np.minimum(at, grid.top, out=at)
        at = at.astype(np.intp)
        cell = at[:, 1] * grid.nx
        cell += at[:, 0]
        count = grid.counts.take(cell).astype(np.intp)
        ends = np.cumsum(count)
        bounds = [0, *np.searchsorted(ends, np.arange(_GRID_CHUNK, ends[-1], _GRID_CHUNK)), len(xy)]
        s, dist = np.empty(len(xy)), np.empty(len(xy))
        for a, b in zip(bounds[:-1], bounds[1:]):
            if a < b:
                s[a:b], dist[a:b] = self._project_listed(xy[a:b], cell[a:b], count[a:b])
        return s, dist

    def _project_listed(self, xy, cell, count):
        """The cells of each row's listed segments, flat over (row, segment) pairs."""
        ends = np.cumsum(count)
        first = ends - count
        pos = np.arange(ends[-1])
        # Each pair's slot in the candidate lists.
        slot = np.repeat(self._grid.starts.take(cell) - first, count)
        slot += pos
        seg = self._grid.segs.take(slot)
        t, dist = _cells(np.repeat(xy[:, 0], count), np.repeat(xy[:, 1], count),
                         *self._seg_table.take(seg, axis=1))
        # NumPy orders complex numbers lexicographically, so this is each row's
        # least distance and then its first pair attaining it: the lowest segment.
        key = np.empty(len(pos), dtype=complex)
        key.real, key.imag = dist, pos
        best = np.minimum.reduceat(key, first)
        win = best.imag.astype(np.intp)
        return self.cum.take(seg.take(win)) + t.take(win), best.real


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
        self._seg_lines = {s: Polyline(seg.centerline) for s, seg in network.segments.items()}
        self._routes = {s: Polyline(self._route_points(s)) for s in network.segments}

    @property
    def dt(self) -> float:
        """The integration step, ``config.dt``."""
        return self.config.dt

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
        # The tail continues the last piece of non-zero length.
        steps = np.diff(line, axis=0)
        tail_dir = steps[np.linalg.norm(steps, axis=1) > 1e-12][-1]
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
        """Rows whose closest point on segment ``alpha`` is within 1e-6 m of its end.

        ``Polyline.reaches`` projects only the rows that may be that far along.
        """
        line = self._seg_lines[alpha]
        return line.reaches(np.asarray(xs, dtype=float)[..., :2], line.length - 1e-6)

    # -- continuous dynamics -------------------------------------------------

    def control(self, alpha, xs: np.ndarray) -> np.ndarray:
        """Throttle and steering commands for a batch of states (rows)."""
        return np.column_stack(self._commands(alpha, _as_rows(xs)))

    def _commands(self, alpha, xs: np.ndarray):
        """``control``'s two columns as arrays, for a 2-D float array of states."""
        cfg = self.config
        route = self._routes[alpha]
        x, y, v, heading = xs.T
        s, d = route.project(xs[:, :2])
        target = route.point_at(s + cfg.lookahead)
        dx = target[:, 0] - x
        dy = target[:, 1] - y
        # np.linalg.norm's and np.clip's results bit for bit (as in `Polyline.point_at`):
        # a sum of two terms has one rounding whatever its order.
        dist = np.maximum(np.sqrt(dx * dx + dy * dy), 1e-6)
        off_course = np.arctan2(dy, dx) - heading
        err = np.arctan2(np.sin(off_course), np.cos(off_course))
        curvature = 2.0 * np.sin(err) / dist
        u1 = np.minimum(cfg.a_max, np.maximum(-cfg.a_max, cfg.k_v * (cfg.v_target - v)))
        u2 = np.minimum(cfg.u2_max, np.maximum(-cfg.u2_max, curvature / cfg.wheel_gain))
        half_w = self.network.segments[alpha].half_width
        off = d > cfg.off_network_factor * half_w
        if off.any():
            log.debug("%d point(s) off network near segment %s; coasting", off.sum(), alpha)
            u1 = np.where(off, 0.0, u1)
            u2 = np.where(off, 0.0, u2)
        return u1, u2

    def f_c_batch(self, alpha_next, xs, vs):
        """One Euler step of every state row under its commands and noise row.

        2-D float arrays, as the engine and the oracle pass, are used as
        they are, with no conversion; anything else is converted first.
        """
        cfg = self.config
        xs, vs = _as_rows(xs), _as_rows(vs)
        u1, u2 = self._commands(alpha_next, xs)
        x, y, v, th = xs.T
        out = np.empty(xs.shape)
        np.add(x, cfg.dt * np.cos(th) * v, out=out[:, 0])
        np.add(y, cfg.dt * np.sin(th) * v, out=out[:, 1])
        np.add(v, cfg.dt * (u1 + vs[:, 0]), out=out[:, 2])
        np.add(th, cfg.dt * cfg.wheel_gain * v * (u2 + vs[:, 1]), out=out[:, 3])
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
