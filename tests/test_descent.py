import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import saddlescape as ss
from saddlescape import (GdConfig, Landscape, LandscapeParams, NoiseConfig,
                         Outcome, RegionKind)
from saddlescape.descent import KICK_BLOCK, _kicks
from test_landscape import GRID, _edge_and_corner_points


@pytest.fixture(scope="module")
def lc():
    return Landscape(LandscapeParams(n_saddles=5))


# --- initialization ---------------------------------------------------------------

def test_init_sample_band(lc):
    cap = lc.params.tau / (2 * math.e**2)
    rng = np.random.default_rng(0)
    for _ in range(500):
        p = ss.init_sample(lc, rng)
        rid = lc.classify(p)
        assert rid.kind is RegionKind.ODD_BLOCK and rid.index == 1
        d1 = abs(p[0] - 0.5)
        assert 0.0 < d1 <= cap
        assert 0.0 <= p[1] <= 1.0


def test_init_sample_reproducible(lc):
    a = ss.init_sample(lc, np.random.default_rng(99))
    b = ss.init_sample(lc, np.random.default_rng(99))
    assert a == b


# --- single steps ------------------------------------------------------------------

def _one_step(lc, p, eta=0.25, noise=None):
    """The iterate after p: a run with a budget of one step."""
    traj = ss.run(lc, GdConfig(eta=eta, max_iter=1), p, noise=noise)
    assert traj.total_steps == 1
    return traj.iterates[-1].position


def test_gd_step_escape_growth_factor(lc):
    # dyadic offset: (1 + 2*eta*gamma) = 1.25 applies exactly
    d = 2.0 ** -4
    p = (0.5 + d, 0.25)
    q = _one_step(lc, p)
    assert q[0] - 0.5 == 1.25 * d


def test_gd_step_cross_contraction(lc):
    d = 2.0 ** -3
    p = (0.75, 0.5 + d)
    q = _one_step(lc, p)
    assert q[1] - 0.5 == 0.5 * d


def test_gd_step_wrong_side_reflection_example(lc):
    q = _one_step(lc, (0.25, 0.5))
    assert q == (0.75, 0.5)


def test_reflection_preserves_distance_bitwise_in_one_binade():
    # block 3 spans [2,3]^2, inside the binade [2,4): the mirror value is
    # always representable, so one wrong-side step is an exact reflection
    lc9 = Landscape(LandscapeParams(n_saddles=9))
    rng = np.random.default_rng(5)
    for _ in range(500):
        x1 = 2.0 + 0.5 * rng.random()
        if x1 == 2.5:
            continue
        x2 = 2.5 + 0.02 * (rng.random() - 0.5)
        q = _one_step(lc9, (x1, x2))
        assert abs(q[0] - 2.5) == abs(x1 - 2.5)
        assert q[0] > 2.5


def test_gd_step_outside_raises(lc):
    with pytest.raises(ss.OutsideDomainError):
        _one_step(lc, (-1.0, 0.0))


# --- projection ------------------------------------------------------------------------

def test_project_identity_on_domain(lc, rng):
    for p in lc.sample_points(200, rng):
        assert ss.project_to_domain(lc, tuple(p)) == tuple(p)


def test_project_examples(lc):
    assert ss.project_to_domain(lc, (-0.3, 0.5)) == (0.0, 0.5)
    assert ss.project_to_domain(lc, (1.5, -0.2)) == (1.5, 0.0)


def test_project_is_nearest_point(lc, rng):
    # oracle: no sampled point of D may be closer than the projection
    samples = lc.sample_points(20_000, rng)
    span = (lc.params.n_saddles + 2) * lc.params.tau
    for _ in range(50):
        p = (rng.uniform(-2, span), rng.uniform(-2, span))
        q = ss.project_to_domain(lc, p)
        assert lc.classify(q) is not None
        dq = math.hypot(q[0] - p[0], q[1] - p[1])
        dist = np.hypot(samples[:, 0] - p[0], samples[:, 1] - p[1])
        assert dq <= dist.min() + 1e-12


def _clipped(reg, p):
    a, b, c, d = reg.bounds
    return min(max(p[0], a), b), min(max(p[1], c), d)


def _float_scan(lc, p):
    """The projection scan in float arithmetic, squares by ``** 2``, ties to the earlier region."""
    best_d, best = math.inf, p
    for q in (_clipped(reg, p) for reg in lc.regions):
        dd = (q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2
        if dd < best_d:
            best_d, best = dd, q
    return best


def _exact_scan(lc, p):
    """The projection scan with exact squared distances, ties to the earlier region."""
    best_d, best = None, None
    for q in (_clipped(reg, p) for reg in lc.regions):
        dd = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(q, p))
        if best_d is None or dd < best_d:
            best_d, best = dd, q
    return best


@pytest.mark.parametrize("p, nearest", [
    ((1e200, 1e200), (3.0, 3.0)),
    ((1.2e154, 1.2e154), (3.0, 3.0)),     # each square finite, their sum not
    ((-1e200, 5.0), (0.0, 1.0)),
    ((1.7e308, -1.7e308), (3.0, 0.0)),
])
def test_project_huge_points_to_the_exact_nearest(p, nearest):
    lc2 = Landscape(LandscapeParams(n_saddles=2))
    assert ss.project_to_domain(lc2, p) == _exact_scan(lc2, p) == nearest


@pytest.mark.parametrize("params", GRID)
def test_project_keeps_the_float_scan_where_distances_are_finite(params):
    lc = Landscape(params)
    rng = np.random.default_rng(4)
    edges = _edge_and_corner_points(lc)
    kicked = edges[rng.integers(0, len(edges), 2000)] + rng.normal(0, params.tau, (2000, 2))
    for p in map(tuple, np.concatenate([edges, kicked]).tolist()):
        assert ss.project_to_domain(lc, p) == _float_scan(lc, p)


# --- noisy steps -------------------------------------------------------------------------

def test_sgd_step_zero_variance_is_gd():
    # noise of variance 0 is plain descent: no kicks, no projection and the
    # plain stop norm, so the run is the noise-free one iterate for iterate
    lc2 = Landscape(LandscapeParams(n_saddles=2))
    for seed in range(3):
        start = ss.init_sample(lc2, np.random.default_rng([seed, 0]))
        plain = ss.run(lc2, GdConfig(), start)
        zero = ss.run(lc2, GdConfig(), start, noise=NoiseConfig(variance=0.0, seed=seed))
        assert zero.iterates == plain.iterates and zero.outcome is plain.outcome
        assert plain.outcome is Outcome.REACHED_MINIMUM and not ss.replay(zero).noisy


def test_sgd_noise_statistics():
    # the raw kicks, before projection clips anything
    noise = NoiseConfig(variance=0.1, seed=11)
    n = 10_000
    kicks = np.array(list(itertools.islice(_kicks(noise), n)))
    sigma = math.sqrt(0.1)
    assert np.all(np.abs(kicks.mean(axis=0)) <= 3 * sigma / math.sqrt(n))
    assert np.all(np.abs(kicks.var(axis=0) - 0.1) <= 0.05 * 0.1)


def test_sgd_step_is_projected_perturbed_gd(lc):
    # replaying the first kick of the seed shows a noisy step is
    # project(gd step + kick)
    p = (2.6, 2.4)
    base = _one_step(lc, p)
    for seed in range(50):
        noise = NoiseConfig(variance=0.1, seed=seed)
        q = _one_step(lc, p, noise=noise)
        k1, k2 = next(_kicks(noise))
        assert q == ss.project_to_domain(lc, (base[0] + k1, base[1] + k2))


@pytest.mark.parametrize("variance", [0.1, 0.37, 2.0])
def test_perturb_returns_floats_with_numpy_bits(variance):
    # kicks drawn in blocks and added in Python floats against one
    # standard_normal(2) per kick and the same arithmetic on float64 arrays;
    # 500 kicks cross several block boundaries
    kicks, ref = _kicks(NoiseConfig(variance=variance, seed=5)), np.random.default_rng(5)
    for q in np.random.default_rng(6).uniform(-20.0, 20.0, size=(500, 2)).tolist():
        k = next(kicks)
        assert type(k) is tuple and all(type(v) is float for v in k)
        got = (q[0] + k[0], q[1] + k[1])
        z = math.sqrt(variance) * ref.standard_normal(2)
        assert np.array(got).tobytes() == (np.array(q) + z).tobytes()


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(variance=-0.1)


@pytest.mark.parametrize("variance", [math.nan, math.inf])
def test_noise_config_rejects_non_finite_variance(variance):
    with pytest.raises(ValueError):
        NoiseConfig(variance=variance)


@pytest.mark.parametrize("eta", [math.nan, math.inf])
def test_config_rejects_non_finite_eta(eta):
    with pytest.raises(ValueError):
        GdConfig(eta=eta)


@pytest.mark.parametrize("stop", [math.nan, -1.0, -1e-300, -math.inf])
def test_config_rejects_bad_stop_grad_norm(stop):
    with pytest.raises(ValueError, match="stop_grad_norm"):
        GdConfig(stop_grad_norm=stop)


def test_default_stop_grad_norm_by_noise(lc):
    # None resolves to 1e-10 for plain descent and to L*tau/2 under noise
    lc1 = Landscape(LandscapeParams(n_saddles=1))
    start = ss.init_sample(lc1, np.random.default_rng(0))
    plain = ss.run(lc1, GdConfig(), start)
    assert plain.outcome is Outcome.REACHED_MINIMUM
    assert plain.iterates == ss.run(lc1, GdConfig(stop_grad_norm=1e-10), start).iterates
    start = ss.init_sample(lc, np.random.default_rng([0, 0]))
    noise = NoiseConfig(0.1, seed=0)
    stop = lc.params.L * lc.params.tau / 2.0
    explicit = ss.run(lc, GdConfig(stop_grad_norm=stop), start, noise=noise)
    traj = ss.run(lc, GdConfig(), start, noise=noise)
    assert traj.iterates == explicit.iterates and traj.outcome == explicit.outcome
    assert traj.outcome is Outcome.REACHED_MINIMUM
    assert traj.total_steps <= 10_000


# --- full runs ------------------------------------------------------------------------------

def test_run_from_saddle_center_stalls_immediately(lc):
    traj = ss.run(lc, GdConfig(), (0.5, 0.5))
    assert traj.outcome is Outcome.STALLED
    assert traj.total_steps == 0
    assert traj.iterates[-1].event is ss.Event.STALLED
    assert traj.iterates[-1].grad_norm == 0.0


def test_run_single_saddle_reaches_minimum():
    lc1 = Landscape(LandscapeParams(n_saddles=1))
    start = ss.init_sample(lc1, np.random.default_rng(0))
    traj = ss.run(lc1, GdConfig(), start)
    assert traj.outcome is Outcome.REACHED_MINIMUM
    assert traj.total_steps < 300
    assert traj.iterates[-1].region.kind is RegionKind.FINAL_BLOCK
    assert traj.iterates[-1].event is ss.Event.CONVERGED


def test_run_matches_bruteforce_loop():
    # oracle: drive the same start by hand with raw gradient steps
    lc1 = Landscape(LandscapeParams(n_saddles=1))
    start = ss.init_sample(lc1, np.random.default_rng(1))
    traj = ss.run(lc1, GdConfig(), start)

    x = start
    for _ in range(10_000):
        g = lc1.gradient(x)
        if (lc1.classify(x).kind is RegionKind.FINAL_BLOCK
                and math.hypot(*g) <= 1e-10):
            break
        x = (x[0] - 0.25 * g[0], x[1] - 0.25 * g[1])
    assert traj.iterates[-1].position == x


def test_run_budget_outcome(lc):
    start = ss.init_sample(lc, np.random.default_rng(0))
    traj = ss.run(lc, GdConfig(max_iter=5), start)
    assert traj.outcome is Outcome.BUDGET
    assert traj.total_steps == 5


def test_run_locates_a_step_onto_an_edge_shared_with_an_earlier_region(lc):
    # from B2's outer edge, eta = 1/L mirrors x1 about B2's center onto the
    # edge B2 shares with the buffer B1', and a shared edge belongs to the
    # earlier region, so the step must not keep B2
    traj = ss.run(lc, GdConfig(eta=1.0, max_iter=1), (3.0, 0.5))
    assert [it.position for it in traj.iterates] == [(3.0, 0.5), (2.0, 0.5)]
    assert [it.region.order for it in traj.iterates] == [2, 1]


def test_run_start_outside_raises(lc):
    with pytest.raises(ss.OutsideDomainError):
        ss.run(lc, GdConfig(), (-5.0, 0.0))


def test_run_escaping_domain_raises(lc):
    # absurd step size breaks containment and must be reported, not hidden
    start = ss.init_sample(lc, np.random.default_rng(0))
    with pytest.raises(ss.OutsideDomainError):
        ss.run(lc, GdConfig(eta=50.0), start)


def test_observer_sees_everything_thinning_keeps_events(lc):
    start = ss.init_sample(lc, np.random.default_rng(2))
    seen = []
    traj = ss.run(lc, GdConfig(record_every=7), start, observer=seen.append)
    assert len(seen) == traj.total_steps + 1
    assert [it.t for it in seen] == list(range(traj.total_steps + 1))
    kept = {it.t for it in traj.iterates}
    for it in seen:
        if it.event is not None or it.t % 7 == 0 or it.t == traj.total_steps:
            assert it.t in kept
    # recorded iterates are exactly the kept subset, in order
    assert [it.t for it in traj.iterates] == sorted(kept)


def test_run_deterministic(lc):
    start = ss.init_sample(lc, np.random.default_rng(3))
    # a short budget bounds the run whatever the stop norm
    a = ss.run(lc, GdConfig(max_iter=5000), start, noise=NoiseConfig(variance=0.1, seed=4))
    b = ss.run(lc, GdConfig(max_iter=5000), start, noise=NoiseConfig(variance=0.1, seed=4))
    assert a.iterates == b.iterates and a.outcome == b.outcome


def test_gd_invariants_over_seeds(lc):
    # containment, monotone chain progress, and weak descent on valid inits
    for seed in range(10):
        start = ss.init_sample(lc, np.random.default_rng(seed))
        traj = ss.run(lc, GdConfig(), start)
        prev = None
        for it in traj.iterates:
            assert lc.locate(it.position).rid == it.region
            assert it.event is not ss.Event.PROJECTED
            if prev is not None:
                assert it.region.order >= prev.region.order
                if it.t == prev.t + 1:
                    assert it.region.order - prev.region.order <= 1
                    assert it.f_value <= prev.f_value
            prev = it


def test_sgd_run_reaches_final_block():
    lc9 = Landscape(LandscapeParams(n_saddles=9))
    start = ss.init_sample(lc9, np.random.default_rng(0))
    traj = ss.run(lc9, GdConfig(stop_grad_norm=0.5, max_iter=100_000), start,
                  noise=NoiseConfig(variance=0.1, seed=0))
    assert traj.outcome is Outcome.REACHED_MINIMUM
    assert traj.iterates[-1].region.kind is RegionKind.FINAL_BLOCK


def test_config_validation():
    with pytest.raises(ValueError):
        GdConfig(eta=-0.1)
    with pytest.raises(ValueError):
        GdConfig(max_iter=0)
    with pytest.raises(ValueError):
        GdConfig(record_every=0)


def test_noisy_repeat_at_a_corner_is_not_a_stall():
    # two kicks in a row project onto the corner (11, 9) at t = 3416; the
    # next kick moves on, so the run must go on to its budget
    lc9 = Landscape(LandscapeParams(n_saddles=9))
    start = ss.init_sample(lc9, np.random.default_rng([0, 0]))
    config, noise = GdConfig(stop_grad_norm=0.0, max_iter=3500), NoiseConfig(variance=0.1, seed=0)
    obs = ss.StreamObserver(lc9, config, noise)
    traj = ss.run(lc9, config, start, noise=noise, observer=obs)
    positions = [it.position for it in traj.iterates]
    assert any(p == q for p, q in zip(positions, positions[1:]))
    assert traj.outcome is Outcome.BUDGET
    assert ss.replay(traj).stall is None
    assert obs.stall is None


def _noisy_oracle(lc, config, start, noise):
    """Every iterate of a noisy run as (t, x1, x2, f, grad_norm) in float hex
    and the region id, stepping the way runs did before kicks were drawn in
    blocks: one standard_normal(2) per step, scaled and added as float64
    arrays.  With variance 0 the run is noise-free: it stalls and stops
    as plain descent does."""
    rng = np.random.default_rng(noise.seed)
    noisy = noise.variance > 0
    stop = config.stop_grad_norm
    if stop is None:
        stop = lc.params.L * lc.params.tau / 2.0 if noisy else 1e-10
    eta = lc.derived.eta_default
    x, out = start, []
    for t in itertools.count():
        f, g = lc.value_and_gradient(x)
        rid = lc.classify(x)
        gnorm = math.hypot(g[0], g[1])
        out.append((t, x[0].hex(), x[1].hex(), f.hex(), gnorm.hex(), rid))
        in_final = rid.kind is RegionKind.FINAL_BLOCK
        if ((in_final and gnorm <= stop) or (gnorm == 0.0 and not in_final and not noisy)
                or t >= config.max_iter):
            return out
        q = np.array([x[0] - eta * g[0], x[1] - eta * g[1]])
        q = q + math.sqrt(noise.variance) * rng.standard_normal(2)
        nxt = ss.project_to_domain(lc, tuple(q.tolist()))
        if nxt == x and not noisy:
            return out
        x = nxt


@pytest.mark.parametrize("variance", [0.0, 0.1])
@pytest.mark.parametrize("n", [1, 5, 12])
def test_noisy_run_matches_per_step_draw_oracle(n, variance):
    # budgets around the kick block size, and a stop norm of 0 so that noisy
    # runs spend them all: every iterate, bit for bit
    lc = Landscape(LandscapeParams(n_saddles=n))
    for seed in (0, 1, 7):
        start = ss.init_sample(lc, np.random.default_rng([seed, 0]))
        noise = NoiseConfig(variance=variance, seed=seed)
        for max_iter in (KICK_BLOCK - 1, KICK_BLOCK, KICK_BLOCK + 1, 3 * KICK_BLOCK):
            for stop in (None, 0.0):
                config = GdConfig(max_iter=max_iter, stop_grad_norm=stop)
                seen = []
                traj = ss.run(lc, config, start, noise=noise, observer=seen.append)
                assert traj.iterates == tuple(seen)
                got = [(it.t, it.position[0].hex(), it.position[1].hex(), it.f_value.hex(),
                        it.grad_norm.hex(), it.region) for it in seen]
                assert got == _noisy_oracle(lc, config, start, noise)
                if variance and stop == 0.0:
                    assert traj.outcome is Outcome.BUDGET and traj.total_steps == max_iter


def test_iterate_is_immutable(lc):
    it = ss.Iterate(0, (0.6, 0.4), 1.0, 0.5, lc.classify((0.6, 0.4)))
    assert it.event is None
    for field in ss.Iterate._fields:
        with pytest.raises(AttributeError):
            setattr(it, field, None)
    assert it == ss.Iterate(0, (0.6, 0.4), 1.0, 0.5, lc.classify((0.6, 0.4)), None)
