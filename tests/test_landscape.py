import ast
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

import saddlescape as ss
from saddlescape import Landscape, LandscapeParams, RegionKind
from saddlescape.landscape import _blend_slope, _blend_value


# --- parameters and derived constants -------------------------------------------

def test_derived_constants_defaults():
    d = ss.derive_constants(LandscapeParams(L=1.0, gamma=0.5, tau=1.0, n_saddles=8))
    assert d.L2 == 4.0
    assert d.eta_default == 0.25
    assert d.eta_default * d.L2 == 1.0
    assert d.nu == 1.125
    assert d.lower_bound_base == 2.0


@pytest.mark.parametrize("L,gamma,tau", [(1.0, 0.5, 1.0), (1.5, 0.5, 2.0),
                                         (1.0, 1.0 / 3.0, 0.5), (2.0, 0.7, 1.3)])
def test_nu_matches_exact_rational_evaluation(L, gamma, tau):
    # independent oracle: evaluate nu = L*tau^2/4 - g1(2*tau) in exact rationals
    Lf, gf, tf = (Fraction(repr(v)) for v in (L, gamma, tau))

    def p(x):
        return Fraction(1, 2) * (gf - Lf) * x * x + (Lf - 2 * gf) * tf * x

    g1_2tau = p(2 * tf) - p(tf) - Fraction(1, 4) * gf * tf * tf
    nu_exact = Fraction(1, 4) * Lf * tf * tf - g1_2tau
    d = ss.derive_constants(LandscapeParams(L=L, gamma=gamma, tau=tau, n_saddles=1))
    assert d.nu == pytest.approx(float(nu_exact), rel=1e-15)
    assert float(nu_exact) == pytest.approx(0.75 * (L + gamma) * tau * tau, rel=1e-15)


@pytest.mark.parametrize("kwargs", [
    {"L": 1.0, "gamma": 1.5},          # L < gamma
    {"L": -1.0}, {"gamma": 0.0}, {"tau": 0.0},
    {"n_saddles": 0}, {"n_saddles": -3},
    {"L": math.inf}, {"L": math.inf, "gamma": math.inf}, {"gamma": math.nan},
    {"tau": math.inf}, {"tau": math.nan}, {"n_saddles": 2.0}, {"n_saddles": True},
    # each overflows or zeroes one derived value
    {"L": 1e308},                                   # L2
    {"tau": 1e160, "n_saddles": 2},                 # nu and the Lipschitz bound
    {"tau": 1e-300},                                # nu == 0
    {"L": 1e-320, "gamma": 1e-320},                 # eta_default
    {"L": 1e300, "gamma": 1e-300},                  # lower_bound_base
    {"L": 1e-300, "gamma": 1e-300, "tau": 1e200},   # Lipschitz bound only
    {"gamma": 1.0, "tau": 8e152, "n_saddles": 1000},  # final block offset only
    {"L": True}, {"gamma": True}, {"tau": True},    # a bool is not a length or a curvature
])
def test_parameter_validation(kwargs):
    with pytest.raises(ValueError):
        LandscapeParams(**kwargs)


def test_numpy_integer_n_saddles_accepted():
    assert Landscape(LandscapeParams(n_saddles=np.int64(3))).regions[-1].rid.order == 6


@pytest.mark.parametrize("L, gamma, tau", [(np.float64(2.0), np.float64(0.5), np.int64(2)),
                                           (Fraction(3, 2), Fraction(1, 2), 1)])
def test_numeric_non_bool_parameters_accepted(L, gamma, tau):
    assert LandscapeParams(L=L, gamma=gamma, tau=tau, n_saddles=2).derived.L2 == 4 * L


# Every integer setting: its name, its least value, and a call that checks it.
INTEGER_SETTINGS = [
    ("n_saddles", 1, lambda lc, v: LandscapeParams(n_saddles=v)),
    ("max_iter", 1, lambda lc, v: ss.GdConfig(max_iter=v)),
    ("record_every", 1, lambda lc, v: ss.GdConfig(record_every=v)),
    ("seed", 0, lambda lc, v: ss.NoiseConfig(seed=v)),
    ("n_samples", 0, lambda lc, v: ss.gradient_check(lc, v)),
    ("samples_per_seam", 0, lambda lc, v: ss.seam_scan(lc, v)),
    ("n_points", 0, lambda lc, v: ss.global_minimum_check(lc, v)),
    ("n_pairs", 1, lambda lc, v: ss.lipschitz_report(lc, v)),
]


@pytest.mark.parametrize("name, least, call", INTEGER_SETTINGS,
                         ids=[name for name, _, _ in INTEGER_SETTINGS])
def test_integer_setting_rejects_bool_float_and_too_small(landscape, name, least, call):
    """A bool, a float and an int below the least value are each a ValueError
    naming the setting, raised where the setting is built or first read."""
    for value in (True, 2.5, 1e4, least - 1):
        with pytest.raises(ValueError) as e:
            call(landscape, value)
        assert str(e.value) == (f"{name} must be >= {least}, got {value!r}" if type(value) is int
                                else f"{name} must be an integer, got {value!r}")


# Every real-valued setting: its name, whether it must be above 0 (else at least 0), and a call
# that checks it.
REAL_SETTINGS = [
    ("L", True, lambda v: LandscapeParams(L=v)),
    ("gamma", True, lambda v: LandscapeParams(gamma=v)),
    ("tau", True, lambda v: LandscapeParams(tau=v)),
    ("eta", True, lambda v: ss.GdConfig(eta=v)),
    ("stop_grad_norm", False, lambda v: ss.GdConfig(stop_grad_norm=v)),
    ("variance", False, lambda v: ss.NoiseConfig(variance=v)),
]


@pytest.mark.parametrize("name, positive, call", REAL_SETTINGS,
                         ids=[name for name, _, _ in REAL_SETTINGS])
def test_real_setting_rejects_bool_non_number_non_finite_and_out_of_range(name, positive, call):
    """A bool, a numpy bool, a string, a non-finite number, a real beyond the floats and the
    value just out of range are each a ValueError with the one message of ``check_real``."""
    bound = "positive" if positive else ">= 0"
    for value in (True, np.True_, "1", math.nan, math.inf, -math.inf, 10**400,
                  Fraction(10**400, 3), 0 if positive else -1e-300):
        with pytest.raises(ValueError) as e:
            call(value)
        assert str(e.value) == f"{name} must be finite and {bound}, got {value!r}"


@pytest.mark.parametrize("name, positive, call", REAL_SETTINGS,
                         ids=[name for name, _, _ in REAL_SETTINGS])
def test_real_setting_takes_any_real_number_in_range(name, positive, call):
    for value in (Fraction(1, 2), np.float64(0.5), np.int64(1), *([] if positive else [0, 0.0])):
        assert getattr(call(value), name) == value


# --- geometry --------------------------------------------------------------------

def test_block_geometry_examples(landscape):
    g1 = landscape.regions[0]
    assert g1.rid == ss.RegionId(RegionKind.ODD_BLOCK, 1, 0)
    assert g1.bounds == (0.0, 1.0, 0.0, 1.0)
    assert g1.center == (0.5, 0.5)
    g2 = landscape.regions[2]
    assert g2.rid == ss.RegionId(RegionKind.EVEN_BLOCK, 2, 2)
    assert g2.bounds == (2.0, 3.0, 0.0, 1.0)
    assert g2.center == (2.5, 0.5)
    b1 = landscape.regions[1]
    assert b1.rid == ss.RegionId(RegionKind.ODD_EVEN_BUFFER, 1, 1)
    assert b1.bounds == (1.0, 2.0, 0.0, 1.0)
    assert b1.center[1] == 0.5


def test_translation_rule():
    params = LandscapeParams(tau=0.5, n_saddles=7)
    lc = Landscape(params)
    regs = lc.regions
    for reg in regs:
        if reg.rid.order >= 4:
            prev = regs[reg.rid.order - 4]
            shift = 2 * params.tau
            assert reg.bounds == tuple(b + shift for b in prev.bounds)


def test_region_order_and_final_kind(landscape):
    for reg in landscape.regions:
        i, o = reg.rid.index, reg.rid.order
        assert o == 2 * (i - 1) + o % 2
        assert reg.rid.kind.value.endswith("_block") == (o % 2 == 0)
    last = landscape.regions[-1]
    assert last.rid.kind is RegionKind.FINAL_BLOCK
    assert last.rid.index == landscape.params.n_blocks


def test_buffer_center_on_shared_axis(landscape):
    regs = landscape.regions
    for reg in regs:
        if reg.rid.kind is RegionKind.ODD_EVEN_BUFFER:
            blk = regs[reg.rid.order - 1]
            nxt = regs[reg.rid.order + 1]
            assert reg.center[1] == blk.center[1] == nxt.center[1]
        elif reg.rid.kind is RegionKind.EVEN_ODD_BUFFER:
            blk = regs[reg.rid.order - 1]
            nxt = regs[reg.rid.order + 1]
            assert reg.center[0] == blk.center[0] == nxt.center[0]


def test_every_region_is_a_tau_square():
    params = LandscapeParams(tau=2.0, n_saddles=5)
    for reg in Landscape(params).regions:
        a, b, c, d = reg.bounds
        assert b - a == params.tau
        assert d - c == params.tau


# --- classification ---------------------------------------------------------------

def test_classify_examples():
    lc = Landscape(LandscapeParams(n_saddles=8))
    assert lc.classify((0.5, 0.5)) == ss.RegionId(RegionKind.ODD_BLOCK, 1, 0)
    assert lc.classify((2.5, 1.5)) == ss.RegionId(RegionKind.EVEN_ODD_BUFFER, 2, 3)
    assert lc.classify((-0.1, 0.5)) is None


def test_every_region_id_names_a_square_of_d():
    # no kind, index or order stands for "outside": None does, from locate and classify
    assert len(RegionKind) == 5
    with pytest.raises(TypeError):
        ss.RegionId(RegionKind.ODD_BLOCK)
    with pytest.raises(TypeError):
        ss.RegionId(RegionKind.ODD_BLOCK, 1)


def test_classify_shared_edges_go_to_earlier_region(landscape):
    # B1 | buffer1 edge at x1 = 1
    assert landscape.classify((1.0, 0.5)).order == 0
    # buffer1 | B2 edge at x1 = 2
    assert landscape.classify((2.0, 0.5)).order == 1
    # B2 | buffer2 edge at x2 = 1
    assert landscape.classify((2.5, 1.0)).order == 2
    # corner shared by buffer1 and buffer2 belongs to buffer1
    assert landscape.classify((2.0, 1.0)).order == 1


def test_classify_matches_vectorized(landscape, rng):
    span = (landscape.params.n_saddles + 2) * landscape.params.tau
    pts = rng.uniform(-1.0, span, size=(5000, 2))
    orders = landscape.classify_many(pts)
    for p, o in zip(pts, orders):
        rid = landscape.classify(tuple(p))
        assert (-1 if rid is None else rid.order) == o


# --- evaluation -------------------------------------------------------------------

def test_value_examples(landscape):
    assert landscape.value((0.5, 0.5)) == -1.125
    assert landscape.value((0.75, 0.5)) == -1.15625
    n = landscape.params.n_blocks
    final_center = landscape.regions[-1].center
    assert landscape.value(final_center) == -n * 1.125


def test_value_outside_raises(landscape):
    with pytest.raises(ss.OutsideDomainError):
        landscape.value((-0.1, 0.5))
    with pytest.raises(ss.OutsideDomainError):
        landscape.gradient((1.5, 2.5))


def test_gradient_examples(landscape):
    assert landscape.gradient((0.75, 0.5)) == (-0.25, 0.0)
    g = landscape.gradient((1.0, 0.6))
    assert g[0] == -0.5
    assert g[1] == pytest.approx(0.2, abs=1e-15)


def test_gradient_zero_at_every_center(landscape):
    for reg in landscape.regions[::2]:
        assert landscape.gradient(reg.center) == (0.0, 0.0)


def test_gradient_matches_finite_differences(landscape, rng):
    h = 1e-6
    checked = 0
    while checked < 300:
        p = landscape.sample_points(1, rng)[0]
        if _near_seam(landscape, p, 10 * h):
            continue
        checked += 1
        g = landscape.gradient(tuple(p))
        fd1 = (landscape.value((p[0] + h, p[1])) - landscape.value((p[0] - h, p[1]))) / (2 * h)
        fd2 = (landscape.value((p[0], p[1] + h)) - landscape.value((p[0], p[1] - h))) / (2 * h)
        assert g[0] == pytest.approx(fd1, rel=1e-6, abs=1e-8)
        assert g[1] == pytest.approx(fd2, rel=1e-6, abs=1e-8)


def _near_seam(landscape, p, dist):
    half = landscape.params.tau / 2
    r = np.mod(np.asarray(p), half)
    return bool(np.minimum(r, half - r).min() < dist)


# --- buffer profile and blend ------------------------------------------------------

def test_ramp_profile_endpoints():
    # the buffer after B1 spans x1 in [1, 2] (u = x1) and x2 in [0, 1]; at
    # w = 0 the blend drops out, leaving the ramp's value and slope along x1
    lc = Landscape(LandscapeParams(L=1.0, gamma=0.5, tau=1.0, n_saddles=1))
    buf = lc.regions[1]
    assert buf.rid.kind is RegionKind.ODD_EVEN_BUFFER and buf.u_base == 0.0
    v, g = lc.value_and_gradient_in(buf, (1.0, 0.5))   # u = tau
    assert v - buf.base == -0.25 * 0.5                 # -gamma*tau^2/4
    assert g == (-0.5, 0.0)                             # -gamma*tau
    v, g = lc.value_and_gradient_in(buf, (2.0, 0.5))   # u = 2*tau
    assert g == (-1.0, 0.0)                             # -L*tau
    assert v - buf.base == 0.25 - 1.125                 # L*tau^2/4 - nu


def _ramp_reference(u, L, g, tau):
    """The buffer ramp and its slope in the operand order that fixes their bits."""
    p_u = (g - L) / 2 * u * u + (L - 2 * g) * tau * u
    p_tau = (g - L) / 2 * tau * tau + (L - 2 * g) * tau * tau
    return p_u - p_tau - g / 4 * tau * tau, (g - L) * u + (L - 2 * g) * tau


def test_ramp_bits_match_the_reference_over_wide_parameters():
    # at w = 0 the blend term adds a zero, so value - base and du are the ramp's
    rng = np.random.default_rng(17)
    for _ in range(40):
        L, tau = math.exp(rng.uniform(-20, 20)), math.exp(rng.uniform(-20, 20))
        g = L * rng.uniform(0.01, 1.0)
        lc = Landscape(LandscapeParams(L=L, gamma=g, tau=tau, n_saddles=2))
        for buf in lc.regions[1:4:2]:   # one buffer along x1, one along x2
            along = 0 if buf.code == 1 else 1
            for x in buf.bounds[2 * along] + tau * rng.random(20):
                p = (x, buf.center[1]) if along == 0 else (buf.center[0], x)
                v, grad = lc.value_and_gradient_in(buf, p)
                ramp, slope = _ramp_reference(x - buf.u_base, L, g, tau)
                assert (v, grad[along]) == (buf.base + ramp, slope)


def test_quintic_blend_endpoints_and_midpoint():
    # c1 = 1 at u = tau, c2 = -0.5 at u = 2*tau, tau = 1
    assert (_blend_value(1.0, 1.0, -0.5, 1.0), _blend_slope(1.0, 1.0, -0.5, 1.0)) == (1.0, 0.0)
    assert (_blend_value(2.0, 1.0, -0.5, 1.0), _blend_slope(2.0, 1.0, -0.5, 1.0)) == (-0.5, 0.0)
    assert _blend_value(1.5, 1.0, -0.5, 1.0) == 0.25  # (c1+c2)/2


def test_quintic_blend_constant_branch():
    for u in np.linspace(1.0, 2.0, 11):
        assert _blend_value(float(u), 1.0, 1.0, 1.0) == 1.0
        assert _blend_slope(float(u), 1.0, 1.0, 1.0) == 0.0


def test_quintic_blend_derivative_matches_fd(rng):
    h = 1e-7
    for u in rng.uniform(1.0 + 2 * h, 2.0 - 2 * h, size=50):
        s = _blend_slope(float(u), 1.0, 4.0, 1.0)
        vp = _blend_value(float(u) + h, 1.0, 4.0, 1.0)
        vm = _blend_value(float(u) - h, 1.0, 4.0, 1.0)
        assert s == pytest.approx((vp - vm) / (2 * h), rel=1e-5, abs=1e-6)


EXACT_FORM = ("derive_constants", "_build_regions", "Landscape.__init__",
              "Landscape.value_and_gradient_in", "Landscape._form", "_blend_value", "_blend_slope")


def test_closed_form_holds_no_float_literal():
    # a float literal such as 0.5 * ... turns a Fraction landscape's values into floats
    tree = ast.parse(inspect.getsource(ss.landscape))
    found = {}
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for fn in defs:
            if isinstance(fn, ast.FunctionDef) and prefix + fn.name in EXACT_FORM:
                found[prefix + fn.name] = [(c.lineno, c.value) for c in ast.walk(fn)
                                           if isinstance(c, ast.Constant)
                                           and isinstance(c.value, float)]
    assert set(found) == set(EXACT_FORM)
    assert all(not floats for floats in found.values()), found


# --- structural invariants ------------------------------------------------------------

GRID = [LandscapeParams(L=L, gamma=L / div, tau=tau, n_saddles=n)
        for L in (1.0, 1.5) for div in (2.0, 3.0)
        for tau in (0.5, 1.0, 2.0) for n in (1, 2, 5)]


@pytest.mark.parametrize("params", [*GRID, LandscapeParams(n_saddles=100)])
def test_no_square_edge_decreases_along_the_chain(params):
    # the precondition of project_to_domain's stop rule: once a square's right and top
    # edges are at or beyond p, every later square is at least as far from p
    bounds = np.array([reg.bounds for reg in Landscape(params).regions])
    assert np.all(np.diff(bounds, axis=0) >= 0)


@pytest.mark.parametrize("params", GRID)
def test_branch_values_agree_on_chain_seams(params):
    lc = Landscape(params)
    rng = np.random.default_rng(7)
    for a, b in zip(lc.regions, lc.regions[1:]):
        if b.bounds[0] == a.bounds[1]:
            axis, level = 0, a.bounds[1]
            lo, hi = max(a.bounds[2], b.bounds[2]), min(a.bounds[3], b.bounds[3])
        else:
            axis, level = 1, a.bounds[3]
            lo, hi = max(a.bounds[0], b.bounds[0]), min(a.bounds[1], b.bounds[1])
        ts = lo + (hi - lo) * rng.random(50)
        xy = np.empty((50, 2))
        xy[:, axis] = level
        xy[:, 1 - axis] = ts
        va, ga = lc.eval_region_many(a, xy)
        vb, gb = lc.eval_region_many(b, xy)
        scale = np.maximum(1.0, np.abs(va))
        assert np.all(np.abs(va - vb) <= 1e-12 * scale)
        assert np.all(np.abs(ga - gb) <= 1e-12 * np.maximum(1.0, np.abs(ga)))


def test_saddle_signature_on_probe_circles(landscape):
    r = 1e-3 * landscape.params.tau
    theta = np.linspace(0, 2 * np.pi, 128, endpoint=False)
    for reg in landscape.regions[::2]:
        center = np.asarray(reg.center)
        vals = landscape.value_many(center + r * np.stack([np.cos(theta), np.sin(theta)], 1))
        fc = landscape.value(reg.center)
        if reg.rid.kind is RegionKind.FINAL_BLOCK:
            assert np.all(vals > fc)
        else:
            assert np.any(vals > fc) and np.any(vals < fc)


def test_sampled_global_minimum(landscape, rng):
    pts = landscape.sample_points(100_000, rng)
    fc = landscape.value(landscape.regions[-1].center)
    assert np.all(landscape.value_many(pts) > fc)


def test_gradient_lipschitz_probe_within_bound(landscape):
    est = ss.lipschitz_report(landscape, n_pairs=20_000, seed=3).worst_error
    assert est <= landscape.gradient_lipschitz_bound()


def test_scalar_and_vectorized_paths_bitwise_equal(landscape, rng):
    pts = landscape.sample_points(5000, rng)
    assert np.array_equal(landscape.value_many(pts),
                          np.array([landscape.value(tuple(p)) for p in pts]))
    assert np.array_equal(landscape.gradient_many(pts),
                          np.array([landscape.gradient(tuple(p)) for p in pts]))


def _scan_locate(lc, p):
    """The oracle: a linear scan for the first region in chain order whose
    closed square holds p."""
    x1, x2 = p
    for reg in lc.regions:
        a, b, c, d = reg.bounds
        if a <= x1 <= b and c <= x2 <= d:
            return reg
    return None


def _scan_order(lc, p):
    reg = _scan_locate(lc, p)
    return -1 if reg is None else reg.rid.order


def _edge_and_corner_points(lc):
    """Every grid line, edge midpoint and center line of the chain, crossed
    with each other, each also with both float neighbours: an (N, 2) array."""
    lines = [set(), set()]
    for reg in lc.regions:
        a, b, c, d = reg.bounds
        lines[0].update((a, b, reg.center[0]))
        lines[1].update((c, d, reg.center[1]))
    near = [np.array(sorted(v)) for v in lines]
    near = [np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]) for v in near]
    x1, x2 = np.meshgrid(*near)
    return np.stack([x1.ravel(), x2.ravel()], axis=1)


def _with_float_neighbours(pts):
    """An (N, 2) array of points, then each with x1 and then x2 also moved
    one float down and up: (9N, 2)."""
    out = np.asarray(pts, dtype=float)
    for k in (0, 1):
        lo, hi = out.copy(), out.copy()
        lo[:, k] = np.nextafter(out[:, k], -np.inf)
        hi[:, k] = np.nextafter(out[:, k], np.inf)
        out = np.concatenate([out, lo, hi])
    return out


def _keep_or_locate(lc, prev, p):
    """``run``'s rule for the next iterate's region: prev while p lies
    strictly inside prev's square, else ``locate``."""
    a, b, c, d = prev.bounds
    return prev if a < p[0] < b and c < p[1] < d else lc.locate(p)


def _non_finite_points(inside):
    """NaN and infinite coordinates next to a point inside D, and finite
    points whose quotient by tau can overflow."""
    bad = [(x, inside[1]) for x in (math.nan, math.inf, -math.inf)]
    bad += [(inside[0], x) for x in (math.nan, math.inf, -math.inf)]
    return bad + [(math.inf, -math.inf), (math.nan, math.nan), (1e308, 1e308), (-1e308, 0.5)]


@pytest.mark.parametrize("params", GRID)
def test_classify_many_matches_scan_on_edges_and_corners(params):
    lc = Landscape(params)
    pts = _edge_and_corner_points(lc)
    orders = lc.classify_many(pts)
    assert np.array_equal(orders, [_scan_order(lc, tuple(p)) for p in pts.tolist()])
    assert (orders >= 0).any() and (orders < 0).any()
    assert set(orders.tolist()) == set(range(-1, len(lc.regions)))


@pytest.mark.parametrize("params", GRID)
def test_locate_matches_scan_on_edges_corners_and_non_finite_points(params):
    lc = Landscape(params)
    top = max(reg.bounds[3] for reg in lc.regions) + params.tau
    box = np.random.default_rng(3).uniform(-params.tau, top, size=(2000, 2))
    bad = _non_finite_points(lc.regions[0].center)
    pts = _edge_and_corner_points(lc).tolist() + box.tolist() + bad
    found = [lc.locate(tuple(p)) for p in pts]
    assert all(reg is _scan_locate(lc, p) for reg, p in zip(found, pts))
    assert {reg.rid.order for reg in found if reg is not None} == set(range(len(lc.regions)))
    # classify is None exactly where locate is: outside D, and at every non-finite point
    assert [lc.classify(tuple(p)) for p in pts] == [None if reg is None else reg.rid for reg in found]
    assert None in found
    for p in bad:
        assert lc.locate(p) is None
        with pytest.raises(ss.OutsideDomainError):
            lc.value_and_gradient(p)
    # the same-square rule, from every square whose closed bounds hold the point
    near = _with_float_neighbours(pts)
    x1, x2 = near.T
    near = [tuple(p) for p in near.tolist()]
    located = [lc.locate(p) for p in near]
    kept = 0
    for prev in lc.regions:
        a, b, c, d = prev.bounds
        held = np.flatnonzero((a <= x1) & (x1 <= b) & (c <= x2) & (x2 <= d))
        assert all(_keep_or_locate(lc, prev, near[i]) is located[i] for i in held)
        kept += sum(a < x1[i] < b and c < x2[i] < d for i in held)
    assert kept   # some points lie strictly inside a square


@pytest.mark.parametrize("params", GRID)
def test_non_finite_points_are_outside(params):
    lc = Landscape(params)
    inside = lc.regions[0].center
    for p in _non_finite_points(inside):
        xy = np.array([inside, p])
        assert lc.classify_many(xy).tolist() == [0, -1]
        with pytest.raises(ss.OutsideDomainError):
            lc.value_many(xy)
        with pytest.raises(ss.OutsideDomainError):
            lc.gradient_many(xy)


@pytest.mark.parametrize("params", GRID[::9])
def test_classify_many_hands_points_to_locate_on_both_sides_of_a_chunk_seam(params):
    # edge, corner, outside and non-finite points on both sides of index CHUNK,
    # after interior points: the second chunk's hand-offs must land at their own index
    lc = Landscape(params)
    chunk = ss.landscape.CHUNK
    rng = np.random.default_rng(5)
    special = np.concatenate([_edge_and_corner_points(lc),
                              _non_finite_points(lc.regions[0].center)])
    special = special[rng.permutation(len(special))]
    k = len(special) // 2
    pts = lc.sample_points(chunk + k, rng)
    pts[chunk - k:] = special[:2 * k]
    orders = lc.classify_many(pts)
    assert np.array_equal(orders, [_scan_order(lc, p) for p in pts.tolist()])
    for side in (orders[chunk - k:chunk], orders[chunk:]):
        assert (side < 0).any() and (side >= 0).any()


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32])
def test_vectorized_paths_give_float64_for_any_input_dtype(dtype):
    lc = Landscape(LandscapeParams(L=1.0, gamma=0.3, tau=1.0, n_saddles=2))
    corners = np.array([[1, 0], [2, 1], [2, 2], [3, 3]])
    pts = np.concatenate([corners, lc.sample_points(200, np.random.default_rng(2))])
    xy = pts.astype(dtype)
    ref = xy.astype(np.float64)
    assert np.array_equal(lc.classify_many(xy), lc.classify_many(ref))
    for many in (lc.value_many, lc.gradient_many):
        got = many(xy)
        assert got.dtype == np.float64 and np.array_equal(got, many(ref))
    assert lc.gradient_many(xy)[:2].tolist() == [[-0.3, -1.0], [-0.9999999999999999, -0.3]]


@pytest.mark.parametrize("params", GRID)
def test_scalar_and_vectorized_paths_bitwise_equal_on_grid(params):
    lc = Landscape(params)
    n = ss.landscape.CHUNK + 17
    pts = lc.sample_points(n, np.random.default_rng(11))
    orders = lc.classify_many(pts)
    values = lc.value_many(pts)
    grads = lc.gradient_many(pts)
    assert np.array_equal(lc.value_many(pts, orders), values)
    assert np.array_equal(lc.gradient_many(pts, orders), grads)
    # the scalar oracle on a stride of points and on every point around the chunk seam
    idx = np.unique(np.r_[0:n:97, ss.landscape.CHUNK - 500:n])
    sub = [tuple(p) for p in pts[idx].tolist()]
    assert np.array_equal(orders[idx], [_scan_order(lc, p) for p in sub])
    assert np.array_equal(values[idx], [lc.value(p) for p in sub])
    assert np.array_equal(grads[idx], [lc.gradient(p) for p in sub])
    # every grid line, centre line and corner in D, and their float neighbours
    pts = _edge_and_corner_points(lc)
    pts = pts[lc.classify_many(pts) >= 0]
    sub = [tuple(p) for p in pts.tolist()]
    assert np.array_equal(lc.value_many(pts), [lc.value(p) for p in sub])
    assert np.array_equal(lc.gradient_many(pts), [lc.gradient(p) for p in sub])


@pytest.mark.parametrize("L,gamma,tau,n", [(1, Fraction(1, 2), 1, 3),
                                           (Fraction(3, 2), Fraction(1, 2), Fraction(1, 4), 4),
                                           (2, Fraction(1, 4), 2, 3)])
def test_scalar_form_on_fractions_equals_float64_at_dyadic_points(L, gamma, tau, n):
    # the closed form holds no float literal, so Fraction parameters give the
    # exact rational value; at these dyadic points float64 rounds nowhere
    exact = Landscape(LandscapeParams(Fraction(L), Fraction(gamma), Fraction(tau), n))
    lc = Landscape(LandscapeParams(float(L), float(gamma), float(tau), n))
    steps = [Fraction(i, 16) * exact.params.tau for i in range(16)]
    for reg in exact.regions:
        for p in ((reg.bounds[0] + s1, reg.bounds[2] + s2) for s1 in steps for s2 in steps):
            v, g = exact.value_and_gradient(p)
            assert all(type(x) is Fraction for x in (v, *g))
            fv, fg = lc.value_and_gradient((float(p[0]), float(p[1])))
            assert (v, *g) == tuple(map(Fraction, (fv, *fg)))
