"""Bundled model tests: univariate maps, road networks, bicycle dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmm import Gaussian
from hgmm.models import (
    _GRID_BAND,
    _GRID_CELL,
    _GRID_MAX_CELLS,
    _GRID_MIN_ROWS,
    _GRID_MIN_SEGMENTS,
    BicycleConfig,
    BicycleModel,
    Polyline,
    RoadNetwork,
    RoadSegment,
    builtin_network,
    cubic_step,
    cubic_truth_density,
    intersection_network,
    pushforward_density,
    straight_road_network,
    turn_network,
    ungm_step,
    ungm_truth_density,
)


class TestUnivariateMaps:
    def test_ungm_values(self):
        assert ungm_step(0.0, 0) == pytest.approx(1.0)
        assert ungm_step(1.0, 0) == pytest.approx(1.8)
        assert ungm_step(2.0, 1) == pytest.approx(1.362357754, abs=1e-9)

    def test_cubic_values(self):
        assert cubic_step(0.0) == pytest.approx(1.0)
        assert cubic_step(1.0) == pytest.approx(9.0)
        assert cubic_step(-0.5) == pytest.approx(0.0, abs=1e-12)


class TestPushforward:
    def test_linear_subcase(self):
        # A purely linear scalar map sends N(0,1) to N(0, 0.09).
        prior = Gaussian(np.zeros(1), np.eye(1))
        dens = pushforward_density(lambda x: 0.3 * np.asarray(x), lambda x: 0.3 + 0 * np.asarray(x), prior)
        xs = np.linspace(-2.0, 2.0, 2001)
        expected = np.exp(-0.5 * xs**2 / 0.09) / math.sqrt(2 * math.pi * 0.09)
        assert np.max(np.abs(dens(xs) - expected)) < 1e-6

    def test_tight_prior_local_linearization(self):
        # A tight prior sees the map as affine with slope 0.3 + 1 at x=0.
        prior = Gaussian(np.zeros(1), np.array([[0.01]]))
        dens = ungm_truth_density(prior, k=0)
        xs = np.linspace(0.0, 2.0, 40001)
        p = dens(xs)
        mean = np.trapezoid(xs * p, xs)
        var = np.trapezoid((xs - mean) ** 2 * p, xs)
        assert mean == pytest.approx(1.0, abs=0.01)
        assert var == pytest.approx(0.0169, rel=0.05)

    def test_cubic_against_sampling_histogram(self):
        prior = Gaussian(np.zeros(1), np.eye(1))
        dens = cubic_truth_density(prior)
        rng = np.random.default_rng(5)
        ys = cubic_step(rng.normal(0.0, 1.0, 10_000_000))
        edges = np.linspace(-30.0, 40.0, 701)
        counts, _ = np.histogram(ys, bins=edges)
        # Normalize by the full sample count: a sizeable fraction of the
        # samples lands outside the plotted range.
        hist = counts / (ys.size * np.diff(edges))
        centers = 0.5 * (edges[:-1] + edges[1:])
        assert np.max(np.abs(dens(centers) - hist)) < 0.01

    def test_density_normalizes(self):
        prior = Gaussian(np.array([1.0]), np.array([[2.0]]))
        dens = cubic_truth_density(prior)
        # Grade the quadrature nodes through the map itself so the sharp
        # peak of the output density is resolved.
        xs = cubic_step(np.linspace(1.0 - 12 * math.sqrt(2.0), 1.0 + 12 * math.sqrt(2.0), 400_000))
        assert np.trapezoid(dens(xs), xs) == pytest.approx(1.0, abs=1e-4)


class TestRoadNetwork:
    def test_builtins_validate(self):
        for name in ("straight", "turn", "intersection"):
            net = builtin_network(name)
            assert len(net.segments) >= 1

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin_network("roundabout")

    def test_continuity_enforced(self):
        a = RoadSegment("a", np.array([[0.0, 0.0], [10.0, 0.0]]), 2.0, ("b",))
        b = RoadSegment("b", np.array([[10.5, 0.0], [20.0, 0.0]]), 2.0, ())
        with pytest.raises(ValueError):
            RoadNetwork([a, b])

    def test_callers_centerline_stays_writeable(self):
        line = np.array([[0.0, 0.0], [10.0, 0.0]])
        seg = RoadSegment("a", line, 2.0, ())
        assert line.flags.writeable and not seg.centerline.flags.writeable
        line[1, 0] = 20.0
        assert seg.centerline[1, 0] == 10.0

    def test_save_load_roundtrip(self, tmp_path):
        net = turn_network()
        p = tmp_path / "net.json"
        net.save(p)
        loaded = RoadNetwork.load(p)
        assert set(loaded.segments) == set(net.segments)
        p2 = tmp_path / "net2.json"
        loaded.save(p2)
        assert p.read_bytes() == p2.read_bytes()


class TestPolyline:
    def test_project_on_straight_line(self):
        line = Polyline(np.array([[0.0, 0.0], [10.0, 0.0]]))
        s, d = line.project(np.array([[3.0, 2.0], [12.0, 0.0]]))
        assert s == pytest.approx([3.0, 10.0])
        assert d == pytest.approx([2.0, 2.0])

    def test_point_at_clamps(self):
        line = Polyline(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0]]))
        assert line.length == pytest.approx(8.0)
        assert line.point_at(6.0)[0] == pytest.approx([4.0, 2.0])
        assert line.point_at(99.0)[0] == pytest.approx([4.0, 4.0])

    def test_point_at_clamps_as_np_clip(self):
        # The clamp is written without np.clip; its results, signed zeros
        # included, must be np.clip's bit for bit.
        line = Polyline(np.array([[-0.0, 0.0], [4.0, -0.0], [4.0, 4.0]]))
        s = np.array([-0.0, 0.0, -1e-300, 1e-300, -3.0, 2.0, 4.0, 8.0, 8.0 + 1e-15, 99.0,
                      np.inf, -np.inf])
        c = np.clip(s, 0.0, line.length)
        i = np.clip(np.searchsorted(line.cum, c, side="right") - 1, 0, len(line.seg_len) - 1)
        want = line.points[i] + line.dirs[i] * (c - line.cum[i])[:, None]
        assert line.point_at(s).tobytes() == want.tobytes()


def _project_dense(self, xy):
    """Dense (P, S, 2) projection: `Polyline.project` must match it bit for bit."""
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


def _builtin_polylines():
    """Every segment and route polyline of the builtin networks, by name."""
    lines = {}
    for name in ("straight", "turn", "intersection"):
        model = BicycleModel(builtin_network(name))
        lines.update({f"{name}-segment-{k}": v for k, v in model._seg_lines.items()})
        lines.update({f"{name}-route-{k}": v for k, v in model._routes.items()})
    return lines


BUILTIN_POLYLINES = _builtin_polylines()


def assert_projects_like_dense(line, xy):
    s, d = line.project(xy)
    s_ref, d_ref = _project_dense(line, xy)
    assert np.array_equal(s, s_ref) and np.array_equal(d, d_ref)


def _grid_polylines():
    """Every polyline that builds a grid: the builtin ones and four shapes of their own."""
    chords = np.arange(21)[:, None] * np.array([0.3, 0.0])
    corner = chords[-1] + 40.0 / math.sqrt(2.0)
    arm = _GRID_MIN_SEGMENTS
    lines = {
        # One 40 m diagonal among 0.3 m chords.
        "long-among-chords": Polyline(np.vstack([chords, corner + np.arange(21)[:, None] * [0.0, 0.3]])),
        # A V of several segments an arm: rows on its axis tie between the arms.
        "v-arms": Polyline(np.vstack([np.linspace([-1.0, 1.0], [0.0, 0.0], arm),
                                      np.linspace([0.0, 0.0], [1.0, 1.0], arm)[1:]])),
        # Collinear pieces: a bounding box of zero width, and ties at every vertex.
        "zero-width": Polyline(np.column_stack([np.full(7, 5.0), [0.0, 1.0, 2.5, 3.0, 7.0, 10.0, 20.0]])),
        # 3 km zigzags: at 0.5 m the grid would have 36M cells, so its cells are larger.
        "wide": Polyline(np.column_stack([np.linspace(0.0, 3000.0, 11), 3000.0 * (np.arange(11) % 2)])),
    }
    lines.update({k: v for k, v in BUILTIN_POLYLINES.items() if len(v.seg_len) >= _GRID_MIN_SEGMENTS})
    return lines


GRID_POLYLINES = _grid_polylines()


def ulp_box(points, k=4):
    """Every point within k ulps, per coordinate, of each of ``points``."""
    steps = np.arange(-k, k + 1.0)
    steps = np.column_stack([np.repeat(steps, steps.size), np.tile(steps, steps.size)])
    return (points[:, None, :] + steps * np.spacing(np.abs(points))[:, None, :]).reshape(-1, 2)


def grid_rows(line, rng):
    """Rows for the grid projection, in one batch: within 4 ulps of cell
    corners near the polyline; on normals at the band's edge and past it;
    around the arc centre (40, 6); and outside the grid, with rows near the
    polyline among them."""
    grid = line._grid
    side = 1.0 / grid.inv_cell
    near = line.point_at(rng.uniform(0.0, line.length, 40)) + rng.normal(0.0, 1.0, (40, 2))
    corners = grid.lo + np.round((near - grid.lo) * grid.inv_cell) * side
    seg = rng.integers(len(line.seg_len), size=60)
    foot = line.points[seg] + line.dirs[seg] * rng.uniform(0.0, line.seg_len[seg])[:, None]
    normal = line.dirs[seg] @ np.array([[0.0, 1.0], [-1.0, 0.0]]) * rng.choice([-1.0, 1.0], (60, 1))
    offsets = _GRID_BAND + np.array([-side, -1e-9, 0.0, 1e-9, 0.5 * side, side, 2.0 * side])
    band = (foot[:, None, :] + offsets[:, None] * normal[:, None, :]).reshape(-1, 2)
    top = grid.lo + (grid.top + 1.0) * side
    outside = np.array([grid.lo - 1e-9, grid.lo - side, top, top + 1e-9, [grid.lo[0], top[1]],
                        [1e100, 0.0], [-1e100, 1e100], [0.0, -1e100]])
    return np.vstack([ulp_box(corners), near, band, ulp_box(np.array([[40.0, 6.0]])), outside,
                      line.points])


# Batches this large take the grid projection on polylines of `_GRID_MIN_SEGMENTS` or more segments.
LARGE = 2 * _GRID_MIN_ROWS


class TestProjectAgainstDense:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(BUILTIN_POLYLINES)),
        fractions=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=40),
    )
    def test_random_points_near_polyline(self, name, fractions):
        # Points anywhere within 20 m of the polyline's bounding box.
        line = BUILTIN_POLYLINES[name]
        lo, hi = line.points.min(axis=0) - 20.0, line.points.max(axis=0) + 20.0
        xy = lo + np.array(fractions).reshape(-1, 2) * (hi - lo)
        assert_projects_like_dense(line, xy)

    @pytest.mark.parametrize("name", sorted(BUILTIN_POLYLINES))
    def test_vertices_arc_centre_and_small_batches(self, name):
        # (40, 6) is the turn arc's centre, nearly equidistant from its 32 chords.
        line = BUILTIN_POLYLINES[name]
        assert_projects_like_dense(line, np.vstack([line.points, [[40.0, 6.0]]]))
        assert_projects_like_dense(line, np.array([40.0, 6.0]))
        s, d = line.project(np.zeros((0, 2)))
        assert s.shape == d.shape == (0,)
        assert_projects_like_dense(line, np.zeros((0, 2)))

    def test_exact_tie_goes_to_lowest_segment(self):
        # Points on the V's axis are equally far from both pieces.  For some,
        # the rounded squared distances differ but their square roots tie.
        line = Polyline(np.array([[-1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]))
        assert line.project(np.array([[0.0, 1.0]]))[0][0] == 1.0 / math.sqrt(2.0)
        xy = np.column_stack([np.zeros(2001), np.linspace(0.5, 3.0, 2001)])
        assert_projects_like_dense(line, xy)

    @pytest.mark.parametrize("name", sorted(BUILTIN_POLYLINES))
    def test_large_batches(self, name):
        line = BUILTIN_POLYLINES[name]
        rng = np.random.default_rng(sorted(BUILTIN_POLYLINES).index(name))
        lo, hi = line.points.min(axis=0) - 20.0, line.points.max(axis=0) + 20.0
        assert_projects_like_dense(line, lo + rng.random((LARGE, 2)) * (hi - lo))
        for spread in (0.3, 3.0, 30.0):
            near = line.points[rng.integers(len(line.points), size=LARGE)]
            assert_projects_like_dense(line, near + rng.normal(0.0, spread, near.shape))
        assert_projects_like_dense(line, np.resize(line.points, (LARGE, 2)))
        assert_projects_like_dense(line, np.tile([40.0, 6.0], (LARGE, 1)))
        angle = rng.uniform(0.0, 2.0 * np.pi, LARGE)
        far = line.points.mean(axis=0) + 1000.0 * np.column_stack([np.cos(angle), np.sin(angle)])
        assert_projects_like_dense(line, far)

    def test_large_batch_ties_between_arms(self):
        # The V's arms of several segments each, so the grid projects: points
        # on its axis tie between the arms, as in the 2-segment V above.
        arm = _GRID_MIN_SEGMENTS
        line = Polyline(np.vstack([np.linspace([-1.0, 1.0], [0.0, 0.0], arm),
                                   np.linspace([0.0, 0.0], [1.0, 1.0], arm)[1:]]))
        xy = np.column_stack([np.zeros(20001), np.linspace(0.5, 3.0, 20001)])
        assert_projects_like_dense(line, xy)

    @pytest.mark.parametrize("name", sorted(GRID_POLYLINES))
    def test_grid_edges_band_and_outside(self, name):
        line = GRID_POLYLINES[name]
        xy = grid_rows(line, np.random.default_rng(sorted(GRID_POLYLINES).index(name)))
        assert len(xy) >= _GRID_MIN_ROWS
        assert_projects_like_dense(line, xy)
        for rows in np.array_split(xy, 7):
            assert_projects_like_dense(line, rows)
        # Some rows fall in cells outside the band, whose list holds every segment.
        grid = line._grid
        at = np.clip(np.floor((xy - grid.lo) * grid.inv_cell), 0.0, grid.top).astype(int)
        unlisted = grid.starts[at[:, 1] * grid.nx + at[:, 0]] == len(grid.segs) - len(line.seg_len)
        assert 0 < unlisted.sum() < len(xy) // 2

    def test_wide_polyline_gets_larger_cells(self):
        line = GRID_POLYLINES["wide"]
        assert 1.0 / line._grid.inv_cell > 10 * _GRID_CELL
        assert len(line._grid.starts) <= 1.1 * _GRID_MAX_CELLS
        rng = np.random.default_rng(8)
        near = line.point_at(rng.uniform(0.0, line.length, LARGE)) + rng.normal(0.0, 30.0, (LARGE, 2))
        assert_projects_like_dense(line, near)

    def test_large_batch_long_segment_among_short_chords(self):
        # One 40 m diagonal among 0.3 m chords: cells near the corner list
        # both the diagonal and several chords.
        chords = np.arange(21)[:, None] * np.array([0.3, 0.0])
        turn = chords[-1] + 40.0 / math.sqrt(2.0)
        line = Polyline(np.vstack([chords, turn + np.arange(21)[:, None] * np.array([0.0, 0.3])]))
        rng = np.random.default_rng(5)
        lo, hi = line.points.min(axis=0) - 5.0, line.points.max(axis=0) + 5.0
        assert_projects_like_dense(line, lo + rng.random((LARGE, 2)) * (hi - lo))


def assert_reaches_like_project(line, xy, s_min):
    with np.errstate(invalid="ignore"):         # inf rows make inf - inf and 0 * inf
        got = line.reaches(xy, s_min)
        want = line.project(xy)[0] >= s_min
    assert got.dtype == bool and np.array_equal(got, want)


def gate_feet(line):
    """Points within 8 ulps, per coordinate, of the foot 1e-6 m before the line's end."""
    k = np.arange(-8.0, 9.0)
    steps = np.column_stack([np.repeat(k, k.size), np.tile(k, k.size)])
    return line.points[-1] - 1e-6 * line.dirs[-1] + steps * np.spacing(np.abs(line.points[-1]))


def end_batch(line, rng):
    """Feet from 1e-5 m before the end of the last segment to 5 m past it, off the line
    by up to 30 m either side, `gate_feet`, vertices, random points; then special rows."""
    end, d = line.points[-1], line.dirs[-1]
    normal = np.array([-d[1], d[0]])
    back = np.concatenate([np.linspace(1e-5, 0.0, 101), np.geomspace(1e-5, 1e-15, 41),
                           -np.geomspace(1e-15, 5.0, 41)])
    lateral = np.array([0.0, 1e-9, -0.5, 0.5, -3.0, 3.0, 30.0])
    feet = (end - back[:, None] * d)[:, None, :] + lateral[None, :, None] * normal
    lo, hi = line.points.min(axis=0) - 20.0, line.points.max(axis=0) + 20.0
    rows = [feet.reshape(-1, 2), gate_feet(line), line.points, lo + rng.random((400, 2)) * (hi - lo),
            [[np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan], [np.inf, 0.0], [-np.inf, 0.0],
             [0.0, np.inf], [np.inf, -np.inf], [1e150, 0.0], [-1e150, 1e150], [0.0, 1e150],
             end + 1e150 * d, end - 1e150 * d]]
    return np.vstack(rows)


class TestReaches:
    """``Polyline.reaches`` returns ``project(xy)[0] >= s_min`` exactly."""

    @staticmethod
    def thresholds(line):
        base = line.cum[-2]
        return [line.length - 1e-6, line.length, np.nextafter(line.length, 0.0),
                np.nextafter(line.length, np.inf), line.length + 1.0, 0.5 * (base + line.length),
                np.nextafter(base, np.inf), base, base - 1.0, 0.0, -np.inf, np.inf, np.nan]

    @pytest.mark.parametrize("name", sorted(BUILTIN_POLYLINES))
    def test_matches_project_on_builtin_lines(self, name):
        line = BUILTIN_POLYLINES[name]
        xy = end_batch(line, np.random.default_rng(sorted(BUILTIN_POLYLINES).index(name)))
        assert len(xy) >= _GRID_MIN_ROWS      # the whole batch takes the grid projection
        for s_min in self.thresholds(line):
            assert_reaches_like_project(line, xy, s_min)
            assert_reaches_like_project(line, np.tile(xy, (2, 1)), s_min)
        assert_reaches_like_project(line, np.zeros((0, 2)), line.length - 1e-6)
        # The gate's threshold splits the points around it.
        gate = line.length - 1e-6
        assert 0 < line.reaches(gate_feet(line), gate).sum() < len(gate_feet(line))
        # Each row alone, as the engine gates a mean, gives the batch's result.
        with np.errstate(invalid="ignore"):
            batch = line.reaches(xy, gate)
            assert batch.any() and not batch.all()
            assert all(line.reaches(row, gate)[0] == want for row, want in zip(xy[::7], batch[::7]))

    def test_last_segment_shorter_than_the_gate_margin(self):
        # The gate's threshold lies before the last segment: every row is projected.
        line = Polyline(np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 5.0], [10.0 + 4e-7, 5.0]]))
        assert line.length - 1e-6 < line.cum[-2]
        xy = end_batch(line, np.random.default_rng(3))
        for s_min in self.thresholds(line):
            assert_reaches_like_project(line, xy, s_min)

    def test_projects_only_rows_near_the_end(self, monkeypatch):
        # Points scattered along the 32-chord arc, as particles driving it are.
        line = BUILTIN_POLYLINES["turn-segment-turn"]
        rng = np.random.default_rng(0)
        xy = line.point_at(rng.uniform(0.0, line.length, LARGE)) + rng.normal(0.0, 0.5, (LARGE, 2))
        projected = []
        real = Polyline.project
        monkeypatch.setattr(Polyline, "project",
                            lambda self, p: projected.append(len(p)) or real(self, p))
        line.reaches(xy, line.length - 1e-6)
        assert len(projected) == 1 and 0 < projected[0] < len(xy) // 8


class TestBicycle:
    def test_equilibrium_straight_drive(self):
        model = BicycleModel(straight_road_network())
        x = np.array([[50.0, 0.0, 10.0, 0.0]])
        u = model.control("main", x)
        assert np.abs(u).max() < 1e-6
        nxt = model.f_c_batch("main", x, np.zeros((1, 2)))
        assert nxt[0] == pytest.approx([51.0, 0.0, 10.0, 0.0], abs=1e-9)

    def test_zero_speed_keeps_heading(self):
        model = BicycleModel(straight_road_network())
        x = np.array([[50.0, 1.5, 0.0, 0.7]])
        nxt = model.f_c_batch("main", x, np.zeros((1, 2)))
        assert nxt[0, 3] == pytest.approx(0.7)

    def test_lateral_offset_decays(self):
        model = BicycleModel(straight_road_network())
        x = np.array([[20.0, 1.0, 10.0, 0.0]])
        u = model.control("main", x)
        assert u[0, 1] < 0.0   # steer back toward the centerline
        offsets = []
        for _ in range(35):
            x = model.f_c_batch("main", x, np.zeros((1, 2)))
            offsets.append(abs(x[0, 1]))
        assert offsets[-1] < 0.2
        assert offsets[-1] < offsets[0]

    def test_off_network_coasts(self):
        model = BicycleModel(straight_road_network())
        x = np.array([[50.0, 30.0, 7.0, 0.3]])
        u = model.control("main", x)
        assert np.allclose(u, 0.0)

    def test_transition_and_successors(self):
        model = BicycleModel(intersection_network())
        assert sorted(a for a, _ in model.successor_options("approach")) == [
            "left",
            "right",
            "straight",
        ]
        for _, p in model.successor_options("approach"):
            assert p == pytest.approx(1 / 3)
        # Terminal segments self-loop.
        assert model.successor_options("straight") == [("straight", 1.0)]
        near_end = np.array([[39.999999, 0.0, 9.0, 0.0]])
        assert model.transition_mask("approach", near_end)[0]
        early = np.array([[5.0, 0.0, 9.0, 0.0]])
        assert not model.transition_mask("approach", early)[0]

    def test_discrete_successors_gate_on_mean(self):
        model = BicycleModel(intersection_network())
        g_early = Gaussian(np.array([5.0, 0.0, 9.0, 0.0]), np.eye(4))
        assert model.discrete_successors("approach", g_early) == [("approach", 1.0)]
        g_end = Gaussian(np.array([40.0, 0.0, 9.0, 0.0]), np.eye(4))
        assert len(model.discrete_successors("approach", g_end)) == 3

    def test_turn_tracking_stays_in_lane(self):
        # Closed-loop drive through the turn network without noise.
        model = BicycleModel(turn_network())
        x = np.array([[5.0, 0.0, 10.0, 0.0]])
        alpha = "approach"
        for _ in range(80):
            x = model.f_c_batch(alpha, x, np.zeros((1, 2)))
            if model.transition_mask(alpha, x)[0]:
                alpha = model.successor_options(alpha)[0][0]
        # After 8 s the vehicle is on the northbound exit, near its centerline.
        assert alpha == "exit"
        assert abs(x[0, 0] - 46.0) < 2.0
        assert x[0, 1] > 10.0

    def test_config_defaults(self):
        cfg = BicycleConfig()
        assert cfg.dt == 0.1
        assert cfg.wheel_gain == 0.35
        assert np.allclose(cfg.noise_cov, np.diag([0.25, 0.01]))
