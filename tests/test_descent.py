import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import saddlescape as ss
from saddlescape import (GdConfig, Landscape, LandscapeParams, NoiseConfig,
                         Outcome, RegionKind)
from saddlescape.descent import INIT_BAND, KICK_BLOCK, _kicks
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


def test_init_band_bits():
    # 1/(2*e*e) by float * and /, which round alike on every IEEE 754 platform,
    # where e**2 would go through the platform's pow
    assert INIT_BAND.hex() == "0x1.152aaa3bf81ccp-4"


def test_init_sample_reproducible(lc):
    a = ss.init_sample(lc, np.random.default_rng(99))
    b = ss.init_sample(lc, np.random.default_rng(99))
    assert a == b


@pytest.mark.parametrize("tau", [1.0, 0.7, 3e-5])
def test_init_sample_depends_on_tau_only(tau):
    # sweep draws one start per (tau, seed) and shares it across L, gamma and n_saddles
    for seed in range(5):
        starts = {tuple(v.hex() for v in ss.init_sample(
                      Landscape(LandscapeParams(L=L, gamma=gamma, tau=tau, n_saddles=n)),
                      np.random.default_rng([seed, 0])))
                  for (L, gamma), n in itertools.product(
                      ((1.0, 0.5), (1.5, 0.5), (1.0, 0.3), (2.0, 2.0), (1e3, 1e-3)), (1, 9, 100))}
        assert len(starts) == 1


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


def _scaled(v):
    """v times 2^1074, exactly: an int for a float, whose ulp is at least 2^-1074;
    an mpf, its mantissa times 2^exponent, may give a Fraction."""
    if hasattr(v, "man_exp"):
        m, e = v.man_exp
        return Fraction(m) * Fraction(2) ** (e + 1074)
    n, d = v.as_integer_ratio()   # d is a power of 2
    return n << (1075 - d.bit_length())


def _exact_scan(lc, p):
    """The projection scan with exact squared distances, ties to the earlier region."""
    best_d, best = None, None
    x = [_scaled(v) for v in p]
    for q in (_clipped(reg, p) for reg in lc.regions):
        u, v = (_scaled(a) - b for a, b in zip(q, x))
        dd = u * u + v * v
        if best_d is None or dd < best_d:
            best_d, best = dd, q
    return best


def _float_scan(lc, pts):
    """The projection scan of each row of pts in float64, squares by ``*``, ties to the
    earlier region, and whether another square's squared distance lies within a factor
    1 + 2^-40, plus 2^-900, of the least: an (N, 2) array and an (N,) mask."""
    bounds = np.array([reg.bounds for reg in lc.regions])
    q1 = np.minimum(np.maximum(pts[:, :1], bounds[:, 0]), bounds[:, 1])   # (N, regions)
    q2 = np.minimum(np.maximum(pts[:, 1:], bounds[:, 2]), bounds[:, 3])
    u, v = q1 - pts[:, :1], q2 - pts[:, 1:]
    dd = u * u + v * v
    rows, k = np.arange(len(pts)), dd.argmin(axis=1)
    least = dd[rows, k][:, None]
    near = (dd <= least * (1 + 2.0 ** -40) + 2.0 ** -900).sum(axis=1) > 1
    return np.stack([q1[rows, k], q2[rows, k]], axis=1), near


@pytest.mark.parametrize("p, nearest", [
    ((1e200, 1e200), (3.0, 3.0)),
    ((1.2e154, 1.2e154), (3.0, 3.0)),     # each square finite, their sum not
    ((-1e200, 5.0), (0.0, 1.0)),
    ((1.7e308, -1.7e308), (3.0, 0.0)),
])
def test_project_huge_points_to_the_exact_nearest(p, nearest):
    lc2 = Landscape(LandscapeParams(n_saddles=2))
    assert ss.project_to_domain(lc2, p) == _exact_scan(lc2, p) == nearest


@pytest.mark.parametrize("n", [1, 2, 5])
def test_project_huge_diagonal_and_axis_points_to_the_exact_nearest(n):
    # squared distances of 1e32 and up: a whole square's size is below their rounding,
    # so every square's candidate ties in float and the exact comparison decides
    lc = Landscape(LandscapeParams(n_saddles=n))
    mid = (lc.params.n_saddles + 1) * lc.params.tau / 2
    for big, s1, s2 in itertools.product((1e16, 1e17, 1e150, 1e200), (1, -1), (1, -1)):
        for p in ((s1 * big, s2 * big), (s1 * big, mid), (mid, s2 * big)):
            assert ss.project_to_domain(lc, p) == _exact_scan(lc, p)


@pytest.mark.parametrize("p", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5),
                               (0.5, -math.inf), (-math.inf, math.nan), (math.inf, math.inf)])
def test_project_returns_non_finite_points_unchanged(p):
    assert ss.project_to_domain(Landscape(LandscapeParams(n_saddles=2)), p) is p


@pytest.mark.parametrize("tau", [1.0, 1e-150, 1e-161])
def test_project_breaks_a_rounded_tie_by_the_exact_distance(tau):
    # from (nextafter(tau), 1.5 tau) both squared distances round to tau^2/4, and the
    # second square's is smaller.  Points beyond the corners (0, tau) and (2 tau, 3 tau)
    # of squares 0 and 4, a few ulps or a few 2^-12 tau off their bisector
    # x1 + x2 = 3 tau, are near ties; at tau = 1e-161 their squared distances are a
    # few dozen subnormal ulps, so the absolute margin decides there.
    lc2 = Landscape(LandscapeParams(tau=tau, n_saddles=2))
    x1 = math.nextafter(tau, math.inf)
    assert ss.project_to_domain(lc2, (x1, 1.5 * tau)) == (x1, tau)
    for a in np.random.default_rng(7).uniform(0.01, 2.0, 300).tolist():
        x1, x2 = -a * tau, (3 + a) * tau
        for k in range(-3, 4):
            for p in ((x1, x2 + k * math.ulp(x2)), (x1, x2 + k * tau / 4096)):
                assert ss.project_to_domain(lc2, p) == _exact_scan(lc2, p)


def _edges_and_kicks(lc, rng, sd=1.0, count=2000):
    """Every grid line, edge midpoint and center line of the chain crossed with
    each other, each with its float neighbours, then ``count`` of them kicked by
    normals of sd ``sd * tau``: an (N, 2) array."""
    edges = _edge_and_corner_points(lc)
    kicked = edges[rng.integers(0, len(edges), count)] + rng.normal(0, sd * lc.params.tau,
                                                                    (count, 2))
    return np.concatenate([edges, kicked])


@pytest.mark.parametrize("params", GRID)
def test_project_keeps_the_float_scan_where_distances_are_finite(params):
    # the exact nearest point of D, which is the float64 scan's point wherever no two
    # squared distances lie within rounding of each other: only rounded ties move
    lc = Landscape(params)
    rng = np.random.default_rng(4)
    for sd in (0.3, 3.0, 30.0):
        pts = _edges_and_kicks(lc, rng, sd=sd)
        scanned, near = _float_scan(lc, pts)
        for p, q, tie in zip(map(tuple, pts.tolist()), map(tuple, scanned.tolist()), near):
            got = ss.project_to_domain(lc, p)
            assert got == _exact_scan(lc, p)
            assert tie or got == q


@pytest.mark.parametrize("params", GRID)
def test_project_keeps_points_strictly_inside_a_square(params):
    # what lets descent.run skip the projection: a point strictly inside one
    # square lies in no other closed square and is its own nearest point of D
    # (its coordinates are positive, so == compares bits)
    lc = Landscape(params)
    pts = _edges_and_kicks(lc, np.random.default_rng(5))
    bounds = np.array([reg.bounds for reg in lc.regions])[:, None, :]
    x1, x2 = pts[:, 0], pts[:, 1]
    strict = ((bounds[..., 0] < x1) & (x1 < bounds[..., 1])
              & (bounds[..., 2] < x2) & (x2 < bounds[..., 3])).any(axis=0)
    closed = ((bounds[..., 0] <= x1) & (x1 <= bounds[..., 1])
              & (bounds[..., 2] <= x2) & (x2 <= bounds[..., 3])).sum(axis=0)
    assert strict.sum() > 500 and np.all(closed[strict] == 1)
    for p in map(tuple, pts[strict].tolist()):
        assert ss.project_to_domain(lc, p) == p


@pytest.mark.parametrize("tau", [1e-150, 1e-160, 2.0 ** -480, 2.0 ** -479.5],
                         ids=["1e-150", "1e-160", "2^-480", "2^-479.5"])
def test_project_compares_exactly_where_a_squared_distance_underflows(tau):
    # at these tau the squared distances of near points fall below 2^-1022, where
    # float64 rounds them in absolute terms and can round a nonzero one to 0, and
    # around 2^-960 they straddle the scan's absolute margin: the projection must
    # still be the exact nearest point, and must not move a point of D
    lc2 = Landscape(LandscapeParams(tau=tau, n_saddles=2))
    rng = np.random.default_rng(6)
    pts = [(math.nextafter(tau, math.inf), tau / 2), *map(tuple, lc2.sample_points(200, rng).tolist()),
           *map(tuple, _edges_and_kicks(lc2, rng, sd=0.3, count=500).tolist())]
    underflows = 0
    for p in pts:
        got = ss.project_to_domain(lc2, p)
        assert got == _exact_scan(lc2, p)
        assert got == p or lc2.classify(p) is None
        gaps = [(q[0] - p[0], q[1] - p[1]) for q in (_clipped(reg, p) for reg in lc2.regions)]
        underflows += any((u or v) and u * u + v * v < 2.0 ** -1022 for u, v in gaps)
    assert underflows > 100


def _exact_calls(monkeypatch) -> list:
    """The candidate points of every later ``_exact_sq`` call, in call order."""
    calls = []

    def exact_sq(q, p, _exact_sq=ss.descent._exact_sq):
        calls.append(q)
        return _exact_sq(q, p)

    monkeypatch.setattr(ss.descent, "_exact_sq", exact_sq)
    return calls


def test_project_stops_at_the_first_square_whose_far_edges_reach_the_point(monkeypatch):
    # no edge of the squares decreases along the chain, so once a square's right and top
    # edges are at or beyond p, no later square is nearer.  Both a and b grow by 1 within
    # three orders, so a point within one tau of square k is decided after at most k + 4
    # squares, on either side of the band; a point below and left of D after the first.
    lc = Landscape(LandscapeParams(n_saddles=100))
    visits, exact = [], _exact_calls(monkeypatch)

    class Counted(tuple):
        def __iter__(self):
            for reg in tuple.__iter__(self):
                visits.append(reg)
                yield reg

    monkeypatch.setattr(lc, "regions", Counted(lc.regions))

    def visited(p):
        visits.clear()
        got, count = ss.project_to_domain(lc, p), len(visits)
        assert got == _exact_scan(lc, p)
        return count

    tau, rng = lc.params.tau, np.random.default_rng(8)
    for k in (10, 100, 190):
        a, b, c, d = lc.regions[k].bounds
        (s1, s2), sides = lc.regions[k].center, {True: 0, False: 0}
        for x1, x2 in rng.uniform((a - tau, c - tau), (b + tau, d + tau), (400, 2)).tolist():
            if lc.locate((x1, x2)) is None:
                assert visited((x1, x2)) <= k + 4
                sides[x2 - x1 > s2 - s1] += 1
        assert min(sides.values()) >= 20
    exact.clear()
    assert visited((-1e200, -1e200)) == 1 and not exact


@pytest.mark.parametrize("params", GRID)
def test_project_keeps_a_shared_corner_with_no_exact_comparison(monkeypatch, params):
    # off D, on a grid line through a corner of two squares, both squares clamp p to that
    # corner: the float distances tie, and the same point from a later square keeps the
    # earlier one with no Fraction arithmetic
    lc, exact = Landscape(params), _exact_calls(monkeypatch)
    corners = [(x, y) for a, b, c, d in (reg.bounds for reg in lc.regions)
               for x in (a, b) for y in (c, d)]
    shared = {q for q in corners if corners.count(q) >= 2}
    tau, seen = lc.params.tau, 0
    for (x, y), s, (e1, e2) in itertools.product(
            sorted(shared), (tau / 8, tau / 3, tau / 2), ((1, 0), (-1, 0), (0, 1), (0, -1))):
        p = (x + s * e1, y + s * e2)
        if lc.locate(p) is None and _exact_scan(lc, p) == (x, y):
            assert ss.project_to_domain(lc, p) == (x, y)
            seen += 1
    assert not exact and seen >= 3 * params.n_saddles


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


def test_run_projects_only_candidates_that_leave_their_square(monkeypatch):
    # a noisy step is projected exactly when it is located, and most steps
    # stay strictly inside their square; a plain step is never projected
    lc9 = Landscape(LandscapeParams(n_saddles=9))
    calls = {"project": 0, "locate": 0}

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(ss.descent, "project_to_domain",
                        counted("project", ss.descent.project_to_domain))
    monkeypatch.setattr(lc9, "locate", counted("locate", lc9.locate))
    for seed in range(10):
        start = ss.init_sample(lc9, np.random.default_rng([seed, 0]))
        for noise in (NoiseConfig(variance=0.1, seed=seed), None):
            calls.update(project=0, locate=0)
            traj = ss.run(lc9, GdConfig(), start, noise=noise)
            assert calls["locate"] >= 1 and traj.total_steps > 0
            if noise is None:
                assert calls["project"] == 0
            else:
                assert calls["project"] == calls["locate"] - 1 < traj.total_steps


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


def test_config_rejects_bool_eta():
    with pytest.raises(ValueError, match="eta must be finite and positive, got True"):
        GdConfig(eta=True)


@pytest.mark.parametrize("eta", [Fraction(1, 4), np.float64(0.25), np.int64(1)])
def test_config_takes_any_non_bool_positive_number_as_eta(eta):
    assert GdConfig(eta=eta).eta == eta


@pytest.mark.parametrize("stop", [math.nan, -1.0, -1e-300, -math.inf])
def test_config_rejects_bad_stop_grad_norm(stop):
    with pytest.raises(ValueError, match="stop_grad_norm"):
        GdConfig(stop_grad_norm=stop)


def test_default_stop_grad_norm_by_noise(lc):
    # None resolves to 1e-10*L*tau for plain descent and to L*tau/2 under noise
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


@pytest.mark.parametrize("seed", range(3))
def test_plain_stop_rule_is_free_of_units(seed):
    # the default stop 1e-10*L*tau scales with the gradient, so runs from the same
    # [seed, 0] draw at tau = 2^-8, 1 and 2^8 take the same steps at scaled points
    runs = {}
    for k in (-8, 0, 8):
        lc1 = Landscape(LandscapeParams(tau=2.0 ** k, n_saddles=1))
        runs[k] = ss.run(lc1, GdConfig(), ss.init_sample(lc1, np.random.default_rng([seed, 0])))
    ref = runs[0]
    assert ref.outcome is Outcome.REACHED_MINIMUM
    for k, traj in runs.items():
        s = 2.0 ** k
        assert traj.outcome is ref.outcome and traj.total_steps == ref.total_steps
        assert [(it.t, it.position, it.f_value, it.grad_norm, it.region, it.event)
                for it in traj.iterates] == [
            (it.t, (it.position[0] * s, it.position[1] * s), it.f_value * s * s,
             it.grad_norm * s, it.region, it.event) for it in ref.iterates]


# --- full runs ------------------------------------------------------------------------------

def test_run_from_saddle_center_stalls_immediately(lc):
    traj = ss.run(lc, GdConfig(), (0.5, 0.5))
    assert traj.outcome is Outcome.STALLED
    assert traj.total_steps == 0
    assert traj.iterates[-1].event is ss.Event.STALLED
    assert traj.iterates[-1].grad_norm == 0.0


@pytest.mark.parametrize("max_iter, outcome", [(1, Outcome.BUDGET), (2, Outcome.STALLED)])
def test_run_stalls_at_a_zero_gradient_as_at_any_fixed_point(max_iter, outcome):
    # the step from a zero gradient leaves the point unchanged, so it stalls by the
    # one fixed-point rule, when a step is due: at t = max_iter the budget ends it.
    # Either way the observer's stall is the exact pin of x2 on the centre line.
    lc1 = Landscape(LandscapeParams(n_saddles=1))
    config = GdConfig(eta=0.5, max_iter=max_iter)
    obs = ss.StreamObserver(lc1, config)
    traj = ss.run(lc1, config, (0.5, 0.75), observer=obs)
    last = traj.iterates[-1]
    assert (traj.outcome, last.t, last.position, last.grad_norm) == (outcome, 1, (0.5, 0.5), 0.0)
    assert last.event is (ss.Event.STALLED if outcome is Outcome.STALLED else None)
    assert (obs.stall.t, obs.stall.reason) == (1, "cross_pinned")


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


class _SteeperEscape(Landscape):
    """Escape-side curvature of the saddle blocks times 1.1: a wrong closed form."""

    def _form(self, code, x1, x2, s1, s2, base, u_base, c, want_grad=True):
        if not code & 1 and c < 0:   # the escape side of a saddle block
            c = c * 1.1
        return super()._form(code, x1, x2, s1, s2, base, u_base, c, want_grad)


@pytest.mark.parametrize("variance", [None, 0.1])
def test_run_evaluates_the_closed_form_of_the_instance(variance):
    # run looks _form up on the landscape it is given, so a subclass that
    # changes the closed form changes the iterates, step for step as its
    # own value_and_gradient says
    params = LandscapeParams(n_saddles=3)
    good, bad = Landscape(params), _SteeperEscape(params)
    start = ss.init_sample(good, np.random.default_rng([1, 0]))
    noise = None if variance is None else NoiseConfig(variance=variance, seed=1)
    config = GdConfig(max_iter=400)
    ref, got = ss.run(good, config, start, noise=noise), ss.run(bad, config, start, noise=noise)
    assert [it.position for it in got.iterates] != [it.position for it in ref.iterates]
    for it in got.iterates:
        f, g = bad.value_and_gradient(it.position)
        assert (it.f_value, it.grad_norm) == (f, math.hypot(*g))


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
    traj = ss.run(lc, GdConfig(record_every=7), start,
                  observer=lambda *fields: seen.append(ss.Iterate(*fields)))
    assert len(seen) == traj.total_steps + 1
    assert [it.t for it in seen] == list(range(traj.total_steps + 1))
    kept = {it.t for it in traj.iterates}
    for it in seen:
        if it.event is not None or it.t % 7 == 0 or it.t == traj.total_steps:
            assert it.t in kept
    # recorded iterates are exactly the kept subset, in order
    assert [it.t for it in traj.iterates] == sorted(kept)


def _count_iterates(monkeypatch, module) -> list:
    """The t of every Iterate that ``module`` builds from now on, in order."""
    built = []

    def counted(*fields):
        built.append(fields[0])
        return ss.Iterate(*fields)

    monkeypatch.setattr(module, "Iterate", counted)
    return built


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("variance", [None, 0.1])
def test_run_builds_an_iterate_only_for_what_it_stores(lc, monkeypatch, variance, record_every):
    # the observer takes the six fields of every step; only a stored iterate is an object
    built = _count_iterates(monkeypatch, ss.descent)
    start = ss.init_sample(lc, np.random.default_rng([3, 0]))
    noise = None if variance is None else NoiseConfig(variance=variance, seed=3)
    seen = []
    traj = ss.run(lc, GdConfig(record_every=record_every), start, noise=noise,
                  observer=lambda *fields: seen.append(fields))
    assert built == [it.t for it in traj.iterates]
    assert [f[0] for f in seen] == list(range(traj.total_steps + 1))
    assert all(len(f) == 6 for f in seen)
    stored = set(built)
    assert [ss.Iterate(*f) for f in seen if f[0] in stored] == list(traj.iterates)
    if record_every > 1:
        assert len(built) < len(seen)


@pytest.mark.parametrize("seed", range(6))
def test_stream_observer_builds_only_the_iterates_it_records(monkeypatch, seed):
    # a noisy run revisits; the observer keeps an Iterate for the first revisit
    # only, and none for the steps in between
    built = _count_iterates(monkeypatch, ss.analysis)
    lc = Landscape(LandscapeParams(n_saddles=5))
    start = ss.init_sample(lc, np.random.default_rng([seed, 0]))
    config, noise = GdConfig(max_iter=3000), NoiseConfig(variance=0.1, seed=seed)
    obs = ss.StreamObserver(lc, config, noise)
    ss.run(lc, config, start, noise=noise, observer=obs)
    recorded = [it for it in (obs.gap, obs.revisit) if it is not None]
    assert obs.gap is None and recorded
    assert sorted(built) == sorted(it.t for it in recorded)


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
    """Every iterate of a noisy run as (t, x1, x2, f, grad_norm) in float hex,
    the region id and the event, stepping the way runs did before kicks were
    drawn in blocks: one standard_normal(2) per step, scaled and added as
    float64 arrays, and every step projected.  An iterate's event is the
    terminal one, else PROJECTED if projection moved it, else the entry into
    a new region.  With variance 0 the run is noise-free: it stalls and stops
    as plain descent does."""
    rng = np.random.default_rng(noise.seed)
    noisy = noise.variance > 0
    stop = config.stop_grad_norm
    if stop is None:
        stop = lc.params.L * lc.params.tau / 2.0 if noisy else 1e-10 * lc.params.L * lc.params.tau
    eta = lc.derived.eta_default
    buffers = (RegionKind.ODD_EVEN_BUFFER, RegionKind.EVEN_ODD_BUFFER)
    x, out, prev, projected = start, [], None, False
    for t in itertools.count():
        f, g = lc.value_and_gradient(x)
        rid = lc.classify(x)
        gnorm = math.hypot(g[0], g[1])
        event = None
        if projected:
            event = ss.Event.PROJECTED
        elif prev is not None and rid != prev:
            event = ss.Event.BUFFER_ENTRY if rid.kind in buffers else ss.Event.BLOCK_ENTRY
        in_final = rid.kind is RegionKind.FINAL_BLOCK
        done = True
        if in_final and gnorm <= stop:
            event = ss.Event.CONVERGED
        elif t < config.max_iter:
            q = np.array([x[0] - eta * g[0], x[1] - eta * g[1]])
            q = tuple((q + math.sqrt(noise.variance) * rng.standard_normal(2)).tolist())
            nxt = ss.project_to_domain(lc, q)
            if nxt == x and not noisy:
                event = ss.Event.STALLED
            else:
                done = False
        out.append((t, x[0].hex(), x[1].hex(), f.hex(), gnorm.hex(), rid, event))
        if done:
            return out
        x, prev, projected = nxt, rid, nxt != q


@pytest.mark.parametrize("variance", [0.0, 0.1])
@pytest.mark.parametrize("n", [1, 5, 12, 100])
def test_noisy_run_matches_per_step_draw_oracle(n, variance):
    # budgets around the kick block size, and a stop norm of 0 so that noisy
    # runs spend them all: every iterate and its event, bit for bit, against an
    # oracle that projects every step, at three (L, gamma, tau); at record_every 7 the run
    # stores exactly the observed iterates at multiples of 7, with an event, or last
    for L, gamma, tau in ((1.0, 0.5, 1.0), (1.5, 0.5, 1.0), (1.0, 0.3, 0.7)):
        lc = Landscape(LandscapeParams(L=L, gamma=gamma, tau=tau, n_saddles=n))
        for seed, max_iter, stop in itertools.product(
                (0, 1, 7), (KICK_BLOCK - 1, KICK_BLOCK, KICK_BLOCK + 1, 3 * KICK_BLOCK),
                (None, 0.0)):
            start = ss.init_sample(lc, np.random.default_rng([seed, 0]))
            noise = NoiseConfig(variance=variance, seed=seed)
            oracle = _noisy_oracle(lc, GdConfig(max_iter=max_iter, stop_grad_norm=stop),
                                   start, noise)
            for record_every in (1, 7):
                config = GdConfig(max_iter=max_iter, stop_grad_norm=stop,
                                  record_every=record_every)
                seen = []
                traj = ss.run(lc, config, start, noise=noise,
                              observer=lambda *fields: seen.append(ss.Iterate(*fields)))
                assert traj.iterates == tuple(
                    it for it in seen
                    if it.t % record_every == 0 or it.event is not None or it is seen[-1])
                got = [(it.t, it.position[0].hex(), it.position[1].hex(), it.f_value.hex(),
                        it.grad_norm.hex(), it.region, it.event) for it in seen]
                assert got == oracle
                if variance and stop == 0.0:
                    assert traj.outcome is Outcome.BUDGET and traj.total_steps == max_iter


def test_iterate_is_immutable(lc):
    it = ss.Iterate(0, (0.6, 0.4), 1.0, 0.5, lc.classify((0.6, 0.4)))
    assert it.event is None
    for field in ss.Iterate._fields:
        with pytest.raises(AttributeError):
            setattr(it, field, None)
    assert it == ss.Iterate(0, (0.6, 0.4), 1.0, 0.5, lc.classify((0.6, 0.4)), None)
