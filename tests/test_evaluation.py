"""Truth-particle, divergence, and scenario metric tests."""

import math
import tracemalloc

import numpy as np
import pytest

from hgmm import Gaussian, HybridMixand, HybridMixture
from hgmm.errors import (
    DegenerateVarianceError,
    DimensionMismatchError,
    NoFrameMatchError,
)
from hgmm.evaluation import (
    ParticleSet,
    TrackObservations,
    _rect_corners,
    _rects_overlap,
    collision_probability,
    eote,
    log_likelihood,
    mixture_pdf_points,
    nll,
    numerical_kld,
    pearson,
    propagate_particles,
    sample_particles,
)
from hgmm.models import (
    BicycleConfig,
    BicycleModel,
    Polyline,
    intersection_network,
    straight_road_network,
)

from test_engine import LinearModel, single


def gaussian_density(mu, var):
    return lambda x: np.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2 * math.pi * var)


def per_particle_samples(mix, count, seed):
    """Reference: one multivariate_normal call per particle."""
    rng = np.random.default_rng(seed)
    weights = np.array([m.weight for m in mix.mixands])
    choice = rng.choice(len(weights), size=count, p=weights / weights.sum())
    states = np.empty((count, mix.dim))
    alphas = []
    for i, c in enumerate(choice):
        m = mix.mixands[c]
        states[i] = rng.multivariate_normal(m.gaussian.mean, m.gaussian.cov)
        alphas.append(m.discrete)
    return states, tuple(alphas)


def multinomial_draws(rng, mix, samples, dims=slice(None)):
    """Reference: multinomial counts, then one stacked draw per nonempty mixand."""
    weights = np.array([m.weight for m in mix.mixands])
    counts = rng.multinomial(samples, weights / weights.sum())
    draws = []
    for m, c in zip(mix.mixands, counts):
        if c == 0:
            continue
        draws.append(rng.multivariate_normal(m.gaussian.mean[dims], m.gaussian.cov[dims, dims],
                                             size=c))
    return np.vstack(draws)


def reference_eote(frames, network, route, samples, seed):
    rng = np.random.default_rng(seed)
    points = [network.segments[route[0]].centerline]
    for seg_id in route[1:]:
        points.append(network.segments[seg_id].centerline[1:])
    line = Polyline(np.vstack(points))
    total = 0.0
    for mix in frames:
        _, d = line.project(multinomial_draws(rng, mix, samples, slice(2)))
        total += float(np.mean(d))
    return total


def reference_collision(frames, ego_poses, samples, seed, footprint=(4.5, 2.0)):
    rng = np.random.default_rng(seed)
    probs = np.empty(len(frames))
    for i, mix in enumerate(frames):
        states = multinomial_draws(rng, mix, samples)
        ex, ey, eth = ego_poses[i]
        obs = _rect_corners(states[:, 0], states[:, 1], states[:, 3], *footprint)
        ego = _rect_corners(np.array(ex), np.array(ey), np.array(eth), *footprint)
        probs[i] = _rects_overlap(obs, ego).mean()
    return probs


def reference_propagate(ps, model, steps, seed=None):
    """The particle step on an object array of labels, one assignment per crossing particle."""
    rng = np.random.default_rng(ps.seed if seed is None else seed)
    states = np.array(ps.states)
    alphas = np.array(ps.alphas, dtype=object)
    noise_cov = model.process_noise.cov
    frames = []
    for _ in range(steps):
        new_alphas = alphas.copy()
        for alpha in sorted(set(alphas.tolist()), key=repr):
            idx = np.nonzero(alphas == alpha)[0]
            crossed = idx[model.transition_mask(alpha, states[idx])]
            if crossed.size:
                labels, probs = zip(*model.successor_options(alpha))
                probs = np.array(probs)
                pick = rng.choice(len(labels), size=crossed.size, p=probs / probs.sum())
                for j, c in zip(crossed, pick):
                    new_alphas[j] = labels[c]
        alphas = new_alphas
        noise = rng.multivariate_normal(np.zeros(noise_cov.shape[0]), noise_cov,
                                        size=states.shape[0])
        new_states = np.empty_like(states)
        for alpha in sorted(set(alphas.tolist()), key=repr):
            idx = np.nonzero(alphas == alpha)[0]
            new_states[idx] = model.f_c_batch(alpha, states[idx], noise[idx])
        states = new_states
        frames.append(ParticleSet(states.copy(), tuple(alphas.tolist()), ps.seed))
    return frames


def three_mixand_frame(x0, weights=(0.6, 1e-9, 0.4 - 1e-9)):
    """By default the middle mixand is too light to draw any of 2000 samples."""
    gaussians = (
        Gaussian(np.array([x0, 0.5, 9.0, 0.0]), np.diag([4.0, 1.0, 0.5, 0.05])),
        Gaussian(np.array([x0, 3.0, 9.0, 0.2]), np.eye(4)),
        Gaussian(np.array([x0 + 1.0, -1.0, 8.0, -0.1]), np.diag([2.0, 0.5, 0.5, 0.02])),
    )
    return HybridMixture(tuple(
        HybridMixand(w, label, g) for w, label, g in zip(weights, "abc", gaussians)
    ))


def three_mixand_frames():
    return [three_mixand_frame(40.0 + i) for i in range(3)]


class TestParticles:
    def test_single_mixand_matches_per_particle_draws(self):
        g = Gaussian(np.array([3.0, -1.0, 9.0, 0.1]), np.diag([2.0, 0.5, 1.0, 0.01]))
        for seed, count in ((3, 1), (4, 257), (11, 5000)):
            states, alphas = per_particle_samples(single(g), count, seed)
            ps = sample_particles(single(g), count, seed)
            assert np.array_equal(ps.states, states)
            assert ps.alphas == alphas
        g2 = Gaussian(np.array([1.0, -2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        states, _ = per_particle_samples(single(g2), 2000, 3)
        assert np.allclose(sample_particles(single(g2), 2000, 3).states, states,
                           rtol=0, atol=1e-12)

    def test_mixture_labels_and_moments(self):
        mix = three_mixand_frame(40.0, weights=(0.5, 0.2, 0.3))
        count = 20_000
        ps = sample_particles(mix, count, seed=5)
        alphas = np.array(ps.alphas, dtype=object)
        for m in mix.mixands:
            rows = ps.states[alphas == m.discrete]
            frac = rows.shape[0] / count
            assert abs(frac - m.weight) < 3 * math.sqrt(m.weight * (1 - m.weight) / count)
            se = np.sqrt(np.diag(m.gaussian.cov) / rows.shape[0])
            assert np.all(np.abs(rows.mean(axis=0) - m.gaussian.mean) < 3 * se)

    def test_sampling_matches_moments(self):
        g = Gaussian(np.array([1.0, -2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        ps = sample_particles(single(g), 200_000, seed=3)
        se = np.sqrt(np.diag(g.cov) / ps.count)
        assert np.all(np.abs(ps.states.mean(axis=0) - g.mean) < 3 * se)
        assert np.allclose(np.cov(ps.states.T), g.cov, rtol=0.05)

    def test_zero_noise_propagation_is_exact_and_deterministic(self):
        a = np.array([[0.9, 0.1], [0.0, 1.05]])
        model = LinearModel(a)
        states = np.random.default_rng(0).normal(size=(50, 2))
        ps = sample_particles(single(Gaussian(np.zeros(2), np.eye(2))), 50, seed=1)
        ps = type(ps)(states, ps.alphas, seed=1)
        frames1 = propagate_particles(ps, model, 3)
        frames2 = propagate_particles(ps, model, 3)
        expected = states @ (a @ a @ a).T
        assert np.allclose(frames1[-1].states, expected, atol=1e-12)
        assert np.array_equal(frames1[-1].states, frames2[-1].states)

    def test_intersection_branch_fractions(self):
        model = BicycleModel(intersection_network())
        count = 2000
        states = np.tile([40.0, 0.0, 9.0, 0.0], (count, 1))
        ps = sample_particles(
            single(Gaussian(np.zeros(4), np.eye(4)), alpha="approach"), count, seed=2
        )
        ps = type(ps)(states, ps.alphas, seed=2)
        frame = propagate_particles(ps, model, 1)[0]
        labels, counts = np.unique(np.array(frame.alphas, dtype=object), return_counts=True)
        assert set(labels) == {"left", "right", "straight"}
        sigma = math.sqrt((1 / 3) * (2 / 3) / count)
        for c in counts:
            assert abs(c / count - 1 / 3) < 3 * sigma

    def test_label_codes_match_reference_loop(self):
        # A wide prior short of the junction: particles cross into all three
        # branches at different steps, so label groups split and regroup.
        model = BicycleModel(intersection_network())
        prior = single(Gaussian(np.array([34.0, 0.0, 9.0, 0.0]), np.diag([4.0, 1.0, 2.0, 0.05])),
                       alpha="approach")
        ps = sample_particles(prior, 3000, seed=9)
        got = propagate_particles(ps, model, 12)
        want = reference_propagate(ps, model, 12)
        assert len(set(want[-1].alphas)) == 4
        assert_same_frames(got, want)

    def test_one_label_holding_every_particle_matches_reference_loop(self):
        # A narrow prior well short of the junction: one label holds every
        # particle for the first steps, then they spread over the branches.
        model = BicycleModel(intersection_network())
        prior = single(Gaussian(np.array([32.0, 0.0, 9.0, 0.0]), np.diag([0.5, 0.2, 0.5, 0.01])),
                       alpha="approach")
        ps = sample_particles(prior, 2000, seed=4)
        got = propagate_particles(ps, model, 12)
        want = reference_propagate(ps, model, 12)
        labels = [len(set(frame.alphas)) for frame in want]
        assert labels[:7] == [1] * 7 and labels[-1] == 4
        assert_same_frames(got, want)

    def test_correlated_noise_matches_reference_loop(self):
        # The noise draws must be multivariate_normal's to the bit.  A
        # diagonal covariance cannot tell its factor u * sqrt(s) from
        # sqrt(s)[:, None] * vh; a correlated one can.
        model = BicycleModel(intersection_network(),
                             BicycleConfig(noise_cov=((0.25, 0.02), (0.02, 0.01))))
        prior = single(Gaussian(np.array([34.0, 0.0, 9.0, 0.0]), np.diag([4.0, 1.0, 2.0, 0.05])),
                       alpha="approach")
        ps = sample_particles(prior, 2000, seed=8)
        got = propagate_particles(ps, model, 12)
        want = reference_propagate(ps, model, 12)
        assert len(set(want[-1].alphas)) == 4
        assert_same_frames(got, want)

    def test_callers_arrays_stay_writeable(self):
        states, times, values = np.zeros((3, 2)), np.array([0.1, 0.2]), np.ones((2, 2))
        ps = ParticleSet(states, ("a",) * 3)
        obs = TrackObservations(times, values)
        frozen = (ps.states, ps.codes, obs.times, obs.values)
        assert all(a.flags.writeable for a in (states, times, values))
        assert not any(a.flags.writeable for a in frozen)
        states[0, 0], times[0], values[0, 0] = 5.0, 0.0, 5.0
        assert ps.states[0, 0] == 0.0 and obs.times[0] == 0.1 and obs.values[0, 0] == 1.0

    def test_stay_only_label_is_gated_and_draws(self):
        # The only label of a 20 m road can only stay, yet the particles that
        # pass its end draw their (single) option from the random stream.
        model = BicycleModel(straight_road_network(length=20.0))
        prior = single(Gaussian(np.array([12.0, 0.0, 9.0, 0.0]), np.diag([1.0, 0.2, 0.5, 0.01])),
                       alpha="main")
        ps = sample_particles(prior, 2000, seed=6)
        got = propagate_particles(ps, model, 15)
        want = reference_propagate(ps, model, 15)
        crossed = [model.transition_mask("main", frame.states).sum() for frame in want]
        assert crossed[0] == 0 and 0 < crossed[5] < 2000 and crossed[-1] == 2000
        assert_same_frames(got, want)


class TestParticleSet:
    def test_alphas_round_trip_mixed_labels_in_order(self):
        alphas = ("b", 3, "a", "b", 0, 3, ("a", 1), 0)
        ps = ParticleSet(np.zeros((8, 2)), alphas, seed=4)
        assert ps.alphas == alphas
        assert ps.table == ("b", 3, "a", 0, ("a", 1))
        assert ps.codes.tolist() == [0, 1, 2, 0, 3, 1, 4, 3]
        assert ps.seed == 4 and ps.count == 8

    @pytest.mark.parametrize("n_labels, dtype", [(1, np.uint8), (256, np.uint8),
                                                 (257, np.uint16)])
    def test_codes_take_the_smallest_unsigned_dtype(self, n_labels, dtype):
        alphas = tuple(range(n_labels))[::-1]
        ps = ParticleSet(np.zeros((n_labels, 1)), alphas)
        assert ps.codes.dtype == dtype
        assert ps.alphas == alphas

    def test_sampled_and_propagated_codes_are_one_byte(self):
        prior = single(Gaussian(np.array([40.0, 0.0, 9.0, 0.0]), np.eye(4)), alpha="approach")
        ps = sample_particles(prior, 100, seed=1)
        assert ps.codes.dtype == np.uint8 and ps.table == ("approach",)
        frame = propagate_particles(ps, BicycleModel(intersection_network()), 1)[0]
        assert frame.codes.dtype == np.uint8 and len(frame.table) == 4

    def test_codes_widen_when_new_labels_outgrow_a_byte(self):
        # Every particle moves on each step to label k + 1 or k + 2, so the
        # label table passes 256 entries partway through a step.
        routing = {k: [(k + 1, 0.5), (k + 2, 0.5)] for k in range(400)}
        model = LinearModel(np.eye(2), np.eye(2), 0.01 * np.eye(2), routing)
        ps = sample_particles(single(Gaussian(np.zeros(2), np.eye(2)), alpha=0), 20, seed=5)
        got = propagate_particles(ps, model, 180)
        assert_same_frames(got, reference_propagate(ps, model, 180))
        assert got[0].codes.dtype == np.uint8 and got[-1].codes.dtype == np.uint16
        assert len(got[-1].table) > 256

    def test_labels_shared_by_mixands_share_a_code(self):
        g = Gaussian(np.zeros(2), np.eye(2))
        mix = HybridMixture(tuple(HybridMixand(w, label, g)
                                  for w, label in ((0.3, "a"), (0.3, "b"), (0.4, "a"))))
        ps = sample_particles(mix, 500, seed=2)
        assert ps.table == ("a", "b")
        assert set(ps.alphas) == {"a", "b"}

    @pytest.mark.parametrize("states, alphas", [
        (np.zeros((3, 2)), ("a", "b")),
        (np.zeros((2, 2)), ("a", "b", "c")),
    ])
    def test_length_mismatch_raises(self, states, alphas):
        with pytest.raises(DimensionMismatchError):
            ParticleSet(states, alphas)
        with pytest.raises(DimensionMismatchError):
            ParticleSet.from_codes(states, ("a", "b", "c"), np.zeros(len(alphas), dtype=np.uint8))

    def test_propagated_frames_hold_states_and_one_byte_per_label(self):
        # 10k particles over 35 steps: the frames may keep their states, one
        # code byte per particle and step, and a small fixed slack, but no
        # per-particle Python objects (a tuple of labels is 8 bytes a particle).
        count, steps, slack = 10_000, 35, 64 * 1024
        model = BicycleModel(intersection_network())
        prior = single(Gaussian(np.array([20.0, 0.0, 9.0, 0.0]), np.diag([1.0, 1.0, 1.0, 0.05])),
                       alpha="approach")
        ps = sample_particles(prior, count, seed=3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            frames = propagate_particles(ps, model, steps)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(set(frames[-1].alphas)) > 1
        states_bytes = sum(frame.states.nbytes for frame in frames)
        assert retained <= states_bytes + count * steps + slack, retained


def assert_same_frames(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.states.tobytes() == w.states.tobytes()
        assert g.alphas == w.alphas


class TestNumericalKld:
    def test_zero_for_identical_densities(self):
        grid = np.linspace(-8.0, 8.0, 20001)
        d = gaussian_density(0.0, 1.0)
        assert abs(numerical_kld(d, d, grid)) < 1e-6

    def test_shifted_gaussian_closed_form(self):
        # KLD(N(0.5,1) || N(0,1)) = 0.5^2 / 2 = 0.125.
        grid = np.linspace(-9.0, 9.0, 40001)
        p_hat = gaussian_density(0.5, 1.0)
        p = gaussian_density(0.0, 1.0)
        assert numerical_kld(p_hat, p, grid) == pytest.approx(0.125, abs=1e-4)


class TestNll:
    def test_matches_gaussian_cross_entropy(self):
        g = Gaussian(np.zeros(1), np.eye(1))
        mix = single(g)
        ps = sample_particles(mix, 400_000, seed=4)
        got = nll([mix], [ps])[0]
        # Entropy of N(0,1): 0.5 * log(2*pi*e) ~ 1.4189.
        assert got == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=0.01)

    def test_frame_alignment_required(self):
        mix = single(Gaussian(np.zeros(1), np.eye(1)))
        ps = sample_particles(mix, 10, seed=0)
        with pytest.raises(DimensionMismatchError):
            nll([mix, mix], [ps])


class TestLogLikelihood:
    def frames(self):
        g1 = Gaussian(np.array([1.0, 0.0]), np.eye(2))
        g2 = Gaussian(np.array([2.0, 0.0]), np.eye(2))
        return [single(g1), single(g2)]

    def test_centered_beats_offset_observations(self):
        frames = self.frames()
        on = TrackObservations([0.1, 0.2], [[1.0, 0.0], [2.0, 0.0]])
        off = TrackObservations([0.1, 0.2], [[4.0, 3.0], [5.0, 3.0]])
        assert log_likelihood(frames, on, dt=0.1) > log_likelihood(frames, off, dt=0.1)

    def test_empty_observations(self):
        assert log_likelihood(self.frames(), TrackObservations([], []), dt=0.1) == 0.0

    def test_unmatched_timestamp(self):
        with pytest.raises(NoFrameMatchError):
            log_likelihood(
                self.frames(), TrackObservations([0.9], [[1.0, 0.0]]), dt=0.1
            )


class TestEote:
    def test_centerline_point_mass_is_zero(self):
        net = straight_road_network()
        seg = net.segments["main"]
        mid = 0.5 * (seg.centerline[0] + seg.centerline[-1])
        g = Gaussian(np.array([mid[0], mid[1], 9.0, 0.0]), 1e-12 * np.eye(4))
        assert eote([single(g)], net, ["main"]) == pytest.approx(0.0, abs=1e-4)

    def test_offset_point_mass(self):
        net = straight_road_network()
        seg = net.segments["main"]
        mid = 0.5 * (seg.centerline[0] + seg.centerline[-1])
        g = Gaussian(np.array([mid[0], mid[1] + 2.0, 9.0, 0.0]), 1e-12 * np.eye(4))
        assert eote([single(g)], net, ["main"]) == pytest.approx(2.0, abs=1e-4)


    def test_matches_multinomial_reference(self):
        net = straight_road_network()
        frames = three_mixand_frames()
        for seed in (0, 6):
            assert eote(frames, net, ["main"], 2000, seed) == reference_eote(
                frames, net, ["main"], 2000, seed)

    def test_nonpositive_samples(self):
        net = straight_road_network()
        for bad in (0, -5):
            with pytest.raises(ValueError):
                eote(three_mixand_frames(), net, ["main"], samples=bad)


class TestCollision:
    def frame_at(self, xy, cov_scale=1e-6, w=1.0, extra=None):
        mixands = [
            HybridMixand(
                w, "s", Gaussian(np.array([xy[0], xy[1], 9.0, 0.0]), cov_scale * np.eye(4))
            )
        ]
        if extra is not None:
            mixands.append(extra)
        return HybridMixture(tuple(mixands))

    def test_far_apart_is_zero(self):
        frame = self.frame_at((0.0, 0.0))
        probs, lo, hi = collision_probability([frame], [[100.0, 100.0, 0.0]])
        assert probs[0] == 0.0 and hi[0] < 0.05

    def test_coincident_is_one(self):
        frame = self.frame_at((5.0, 5.0))
        probs, _, _ = collision_probability([frame], [[5.0, 5.0, 0.0]])
        assert probs[0] == pytest.approx(1.0)

    def test_half_mass_bimodal(self):
        far = HybridMixand(
            0.5, "s", Gaussian(np.array([500.0, 500.0, 9.0, 0.0]), 1e-6 * np.eye(4))
        )
        frame = self.frame_at((5.0, 5.0), w=0.5, extra=far)
        samples = 2000
        probs, _, _ = collision_probability([frame], [[5.0, 5.0, 0.0]], samples=samples)
        assert abs(probs[0] - 0.5) < 3 * math.sqrt(0.25 / samples)

    def test_pose_count_mismatch(self):
        frame = self.frame_at((0.0, 0.0))
        with pytest.raises(DimensionMismatchError):
            collision_probability([frame], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


    def test_matches_multinomial_reference(self):
        frames = three_mixand_frames()
        poses = np.array([[40.0 + i, 1.0, 0.1] for i in range(len(frames))])
        for seed in (0, 6):
            probs, _, _ = collision_probability(frames, poses, samples=2000, seed=seed)
            assert np.array_equal(probs, reference_collision(frames, poses, 2000, seed))

    def test_nonpositive_samples(self):
        frame = self.frame_at((0.0, 0.0))
        for bad in (0, -5):
            with pytest.raises(ValueError):
                collision_probability([frame], [[0.0, 0.0, 0.0]], samples=bad)


class TestPearson:
    def test_perfect_linear_relation(self):
        xs = np.linspace(-3.0, 3.0, 25)
        assert pearson(xs, 2.0 * xs + 1.0) == pytest.approx(1.0, abs=1e-12)
        assert pearson(xs, -0.5 * xs) == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVarianceError):
            pearson(np.ones(5), np.arange(5.0))

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatchError):
            pearson(np.arange(4.0), np.arange(5.0))


class TestMarginalDensity:
    def test_position_marginal(self):
        mean = np.array([1.0, 2.0, 9.0, 0.1])
        cov = np.diag([1.0, 2.0, 0.5, 0.01])
        mix = single(Gaussian(mean, cov))
        got = mixture_pdf_points(mix, np.array([[1.0, 2.0]]), dims=(0, 1))[0]
        expected = 1.0 / (2 * math.pi * math.sqrt(2.0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_dimension_check(self):
        mix = single(Gaussian(np.zeros(3), np.eye(3)))
        with pytest.raises(DimensionMismatchError):
            mixture_pdf_points(mix, np.zeros((2, 2)))
