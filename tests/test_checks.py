import dataclasses
import tracemalloc

import numpy as np
import pytest

import saddlescape as ss
from saddlescape import Landscape, LandscapeParams, RegionKind
from saddlescape.cli import main
from saddlescape.landscape import CHUNK, FINAL_CODE, _build_regions
from test_landscape import GRID


def _without_offset(params):
    """A landscape whose regions were all built with nu = 0, which kills the
    telescoping offset: block->buffer seams now jump."""
    lc = Landscape(params)
    lc.regions = _build_regions(params, dataclasses.replace(lc.derived, nu=0.0))
    return lc


@pytest.fixture(scope="module")
def lc8():
    return Landscape(LandscapeParams(n_saddles=8))


# --- central differences ---------------------------------------------------------

def _fd_gradient(lc, p, h):
    """Central-difference gradient from the landscape's values, as gradient_check takes it."""
    (x1, x2), f = p, lc.value
    return ((f((x1 + h, x2)) - f((x1 - h, x2))) / (2.0 * h),
            (f((x1, x2 + h)) - f((x1, x2 - h))) / (2.0 * h))


def test_fd_gradient_at_final_center(lc8):
    # the final bowl is symmetric about its center on both axes
    g = _fd_gradient(lc8, lc8.regions[-1].center, h=1e-5)
    assert abs(g[0]) <= 1e-8 and abs(g[1]) <= 1e-8


def test_fd_gradient_at_saddle_center(lc8):
    # symmetric along the cross axis; along the branch axis the two
    # half-quadratics differ, so the kink contributes -(gamma+L2)*h/2
    g = _fd_gradient(lc8, (0.5, 0.5), h=1e-5)
    assert abs(g[1]) <= 1e-8
    assert g[0] == pytest.approx(-(0.5 + 4.0) * 1e-5 / 2, rel=1e-3)


def test_fd_gradient_matches_analytic_example(lc8):
    g = _fd_gradient(lc8, (0.75, 0.5), h=1e-5)
    assert g[0] == pytest.approx(-0.25, rel=1e-6)
    assert g[1] == pytest.approx(0.0, abs=1e-8)


# --- gradient_check -----------------------------------------------------------------

def test_gradient_check_passes_on_defaults(lc8):
    rep = ss.gradient_check(lc8, n_samples=10_000, seed=0)
    assert rep.passed
    assert rep.samples == 10_000
    assert rep.worst_error <= 1e-6


def test_gradient_check_zero_samples_vacuous(lc8):
    rep = ss.gradient_check(lc8, n_samples=0)
    assert rep.passed and rep.samples == 0


def test_gradient_check_rejects_negative_samples(lc8):
    with pytest.raises(ValueError):
        ss.gradient_check(lc8, n_samples=-1)


class _CorruptedGradient(Landscape):
    """Negates the analytic gradient on the escape half of odd blocks."""

    def _form(self, code, x1, x2, s1, s2, base, u_base, c, want_grad=True):
        value, grad = super()._form(code, x1, x2, s1, s2, base, u_base, c, want_grad)
        if want_grad and code == 0:
            sign = np.where(x1 - s1 > 0, -1.0, 1.0)
            grad = (sign * grad[0], sign * grad[1])
        return value, grad


def test_gradient_check_catches_corruption():
    bad = _CorruptedGradient(LandscapeParams(n_saddles=8))
    rep = ss.gradient_check(bad, n_samples=4000, seed=0)
    assert not rep.passed
    assert rep.witnesses
    p = rep.witnesses[0]["point"]
    rid = bad.classify(tuple(p))
    assert rid.kind is RegionKind.ODD_BLOCK
    assert p[0] > bad.regions[rid.order].center[0]


def test_gradient_check_deterministic(lc8):
    a = ss.gradient_check(lc8, n_samples=2000, seed=42)
    b = ss.gradient_check(lc8, n_samples=2000, seed=42)
    assert a.worst_error == b.worst_error


# --- seam_scan ------------------------------------------------------------------------

def test_seam_scan_passes_on_defaults(lc8):
    rep = ss.seam_scan(lc8, samples_per_seam=300, seed=0)
    assert rep.passed
    assert rep.details["worst_value_jump"] <= 1e-9
    assert rep.details["worst_gradient_jump"] <= 1e-5
    assert rep.details["worst_fd_mismatch"] <= 1e-5


def test_seam_scan_zero_samples_vacuous(lc8):
    rep = ss.seam_scan(lc8, samples_per_seam=0)
    assert rep.passed and rep.samples == 0


def test_seam_scan_rejects_negative_samples(lc8):
    with pytest.raises(ValueError, match="samples_per_seam must be >= 0"):
        ss.seam_scan(lc8, samples_per_seam=-2)


def test_seam_scan_detects_missing_offset():
    lc = _without_offset(LandscapeParams(n_saddles=4))
    rep = ss.seam_scan(lc, samples_per_seam=50, seed=0)
    assert not rep.passed
    assert any(w["kind"] == "value" and "edge" in w["seam"] for w in rep.witnesses)


def test_seam_scan_counts_every_seam(lc8):
    rep = ss.seam_scan(lc8, samples_per_seam=10, seed=0)
    n_regions = len(lc8.regions)               # 17 for n_saddles=8
    n_edges = n_regions - 1
    n_branch = n_regions - 1                   # every region except the final block
    assert rep.samples == 10 * (n_edges + n_branch)


# --- stationary_check ---------------------------------------------------------------

def test_stationary_check_counts(lc8):
    rep = ss.stationary_check(lc8)
    assert rep.passed
    assert rep.details["saddles"] == 8
    assert rep.details["minima"] == 1


def test_stationary_check_smallest_instance():
    rep = ss.stationary_check(Landscape(LandscapeParams(n_saddles=1)))
    assert rep.passed
    assert rep.details["saddles"] == 1
    assert rep.details["minima"] == 1


# --- global minimum / lipschitz ------------------------------------------------------

def test_global_minimum_check(lc8):
    rep = ss.global_minimum_check(lc8, n_points=100_000, seed=0)
    assert rep.passed
    assert rep.details["sampled_min"] > rep.details["center_value"]


def test_global_minimum_check_rejects_negative_points(lc8):
    with pytest.raises(ValueError, match="n_points must be >= 0"):
        ss.global_minimum_check(lc8, n_points=-5)


class _NanOddBlocks(Landscape):
    """NaN values throughout the odd blocks."""

    def _form(self, code, x1, x2, s1, s2, base, u_base, c, want_grad=True):
        value, grad = super()._form(code, x1, x2, s1, s2, base, u_base, c, want_grad)
        return (value * np.nan if code == 0 else value), grad


def test_nan_values_fail_global_minimum_and_seam_scan():
    bad = _NanOddBlocks(LandscapeParams(n_saddles=5))
    rep = ss.global_minimum_check(bad, n_points=10_000, seed=0)
    assert not rep.passed and rep.worst_error > 0
    assert len(rep.witnesses) == 3
    assert all(np.isnan(w["value"]) for w in rep.witnesses)
    rep = ss.seam_scan(bad, samples_per_seam=50, seed=0)
    assert not rep.passed and np.isnan(rep.worst_error)
    assert np.isnan(rep.details["worst_value_jump"])
    assert {w["kind"] for w in rep.witnesses} >= {"value", "fd"}


def test_lipschitz_probe_single_pair(lc8):
    est = ss.lipschitz_report(lc8, n_pairs=1, seed=0).worst_error
    assert np.isfinite(est) and est >= 0


def test_lipschitz_probe_within_documented_bound(lc8):
    rep = ss.lipschitz_report(lc8, n_pairs=50_000, seed=0)
    assert rep.passed
    assert rep.threshold == lc8.gradient_lipschitz_bound()


@pytest.mark.xfail(strict=True, reason="at small tau the blend's cross term exceeds the bound: "
                   "the probe reads 8.3727 against 8.3675")
def test_lipschitz_probe_within_documented_bound_at_small_tau():
    rep = ss.lipschitz_report(Landscape(LandscapeParams(gamma=0.9, tau=0.01)), 100_000, seed=0)
    assert rep.passed


@pytest.mark.xfail(strict=True, reason="at the probe radius 1e-3*tau the escape-side drop "
                   "gamma*r^2 rounds away against the centre value: every saddle reads not_saddle")
def test_check_passes_at_tiny_gamma(tmp_path):
    assert main(["check", "--gamma", "1e-10", "--n-saddles", "9", "--out", str(tmp_path)]) == 0


def test_lipschitz_probe_rejects_zero_pairs(lc8):
    with pytest.raises(ValueError):
        ss.lipschitz_report(lc8, n_pairs=0)


def test_run_all_checks_deterministic(lc8):
    a = ss.run_all_checks(lc8, n_grad_samples=500, samples_per_seam=20,
                          n_min_points=5000, n_pairs=1000, seed=9)
    b = ss.run_all_checks(lc8, n_grad_samples=500, samples_per_seam=20,
                          n_min_points=5000, n_pairs=1000, seed=9)
    assert a == b


class _NoClassify(Landscape):
    """Refuses to look regions up: a check must evaluate each point in the
    region of the order it drew or built the point in."""

    def classify_many(self, xy):
        raise AssertionError("a check classified points")


def test_run_all_checks_classifies_no_point():
    params = LandscapeParams(n_saddles=9)
    reports = ss.run_all_checks(_NoClassify(params))
    assert all(rep.passed for rep in reports)
    assert reports == ss.run_all_checks(Landscape(params))


# --- the checks' verdicts do not depend on the units of L and tau -----------------

@pytest.mark.parametrize("flag", ["--L", "--tau"])
def test_check_passes_at_large_L_and_tau(flag, tmp_path):
    """The normal difference across a branch line is off by about
    (4L+gamma)*off/2, which an absolute error floor of 1 failed at 60."""
    assert main(["check", flag, "60", "--n-saddles", "2", "--out", str(tmp_path)]) == 0


def _blend_z5_is_7(u, c1, c2, tau):
    """_blend_value with the z^5 coefficient 7 instead of 6: off by d at u = tau."""
    z = (u - 2 * tau) / tau
    z2 = z * z
    return c2 - (c1 - c2) * z2 * z * (10 + 15 * z + 7 * z2)


@pytest.mark.parametrize("L", [1e-12, 1.0, 1e12])
def test_checks_catch_a_wrong_blend_at_any_scale(L, monkeypatch):
    lc = Landscape(LandscapeParams(L=L, gamma=L / 2, tau=1.0, n_saddles=3))
    assert ss.gradient_check(lc, 2000).passed and ss.seam_scan(lc, 200).passed
    monkeypatch.setattr(ss.landscape, "_blend_value", _blend_z5_is_7)
    assert not ss.gradient_check(lc, 2000).passed
    assert not ss.seam_scan(lc, 200).passed


# --- batched checks against the per-seam and per-block loops ------------------------

def _seam_scan_loop(landscape, samples_per_seam, tol_value=1e-9, tol_grad=1e-5, seed=0):
    """seam_scan as one pass per seam, each side through eval_region_many."""
    rng = np.random.default_rng(seed)
    L, tau = landscape.params.L, landscape.params.tau
    off = 1e-7 * tau
    regs = landscape.regions
    seams = []
    for a, b in zip(regs, regs[1:]):
        label = f"edge[{a.rid.order}|{b.rid.order}]"
        if b.bounds[0] == a.bounds[1]:
            seams.append((label, 0, a.bounds[1], max(a.bounds[2], b.bounds[2]),
                          min(a.bounds[3], b.bounds[3]), (a, 0), (b, 0)))
        else:
            seams.append((label, 1, a.bounds[3], max(a.bounds[0], b.bounds[0]),
                          min(a.bounds[1], b.bounds[1]), (a, 0), (b, 0)))
    for reg in regs:
        kind = reg.rid.kind
        if kind is RegionKind.FINAL_BLOCK:
            continue
        on_x1 = kind in (RegionKind.ODD_BLOCK, RegionKind.EVEN_ODD_BUFFER)
        axis = 0 if on_x1 else 1
        lo, hi = (reg.bounds[2], reg.bounds[3]) if on_x1 else (reg.bounds[0], reg.bounds[1])
        seams.append((f"branch[{reg.rid.order}]", axis, reg.center[axis], lo, hi,
                      (reg, +1), (reg, -1)))
    worst = {"value": 0.0, "gradient": 0.0, "fd": 0.0}
    tols = {"value": tol_value, "gradient": tol_grad, "fd": tol_grad}
    witnesses = []
    for label, axis, level, lo, hi, (ra, ba), (rb, bb) in seams:
        t = lo + (hi - lo) * rng.random(samples_per_seam)
        xy = np.empty((samples_per_seam, 2))
        xy[:, axis] = level
        xy[:, 1 - axis] = t
        va, ga = landscape.eval_region_many(ra, xy, branch=ba)
        vb, gb = landscape.eval_region_many(rb, xy, branch=bb)
        step = np.zeros(2)
        step[axis] = off
        fd = (landscape.value_many(xy + step) - landscape.value_many(xy - step)) / (2 * off)
        gn = ga[:, axis]
        errs = {"value": np.abs(va - vb) / np.maximum(L * tau * tau, np.abs(va)),
                "gradient": (np.abs(ga - gb).max(axis=1)
                             / np.maximum(L * tau, np.abs(ga).max(axis=1))),
                "fd": np.abs(fd - gn) / np.maximum(L * tau, np.abs(gn))}
        for tag, err in errs.items():
            w = float(err.max())
            worst[tag] = max(worst[tag], w)
            if w > tols[tag]:
                i = int(np.argmax(err))
                witnesses.append({"seam": label, "kind": tag,
                                  "point": [float(xy[i, 0]), float(xy[i, 1])], "error": w})
    return len(seams) * samples_per_seam, worst, witnesses


def _assert_seam_scan_matches_loop(landscape, samples_per_seam, seed=0):
    rep = ss.seam_scan(landscape, samples_per_seam, seed=seed)
    samples, worst, witnesses = _seam_scan_loop(landscape, samples_per_seam, seed=seed)
    assert rep.samples == samples
    assert rep.details["worst_value_jump"] == worst["value"]
    assert rep.details["worst_gradient_jump"] == worst["gradient"]
    assert rep.details["worst_fd_mismatch"] == worst["fd"]
    assert rep.witnesses == witnesses
    return rep


def _stationary_loop(landscape):
    """stationary_check as one scalar probe and one ring of 256 per block."""
    n_angles, r = 256, 1e-3 * landscape.params.tau
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    ring = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    violations, samples = [], 0
    for reg in landscape.regions[::2]:
        g = landscape.gradient(reg.center)
        if not (g[0] == 0.0 and g[1] == 0.0):
            violations.append({"region": reg.rid.order, "kind": "nonzero_gradient",
                               "gradient": [g[0], g[1]]})
        fc = landscape.value(reg.center)
        vals = landscape.value_many(np.asarray(reg.center) + ring)
        samples += 1 + n_angles
        if reg.rid.kind is RegionKind.FINAL_BLOCK:
            if not np.all(vals > fc):
                violations.append({"region": reg.rid.order, "kind": "not_local_minimum"})
        elif not (np.any(vals > fc) and np.any(vals < fc)):
            violations.append({"region": reg.rid.order, "kind": "not_saddle"})
    return samples, violations


def _assert_stationary_matches_loop(landscape):
    rep = ss.stationary_check(landscape)
    samples, violations = _stationary_loop(landscape)
    assert rep.samples == samples
    assert rep.witnesses == violations
    assert rep.worst_error == float(len(violations))
    return rep


# 1 and 13 leave every seam in one pass; 5000 makes passes of CHUNK // 5000
# = 3 seams, so n_saddles = 5 (10 edges, 10 branch lines) ends each family
# with a pass of 1 seam
@pytest.mark.parametrize("params", GRID)
def test_seam_scan_matches_per_seam_loop(params):
    lc = Landscape(params)
    for samples_per_seam in (1, 13, 5000):
        rep = _assert_seam_scan_matches_loop(lc, samples_per_seam, seed=3)
        assert rep.passed


def test_seam_scan_matches_per_seam_loop_above_chunk():
    lc = Landscape(LandscapeParams(n_saddles=1))
    _assert_seam_scan_matches_loop(lc, ss.landscape.CHUNK + 5, seed=1)


def test_seam_scan_matches_per_seam_loop_on_corrupted_landscapes():
    lc = _without_offset(LandscapeParams(n_saddles=5))
    bad = _CorruptedGradient(LandscapeParams(n_saddles=5, tau=0.7))
    for landscape in (lc, bad):
        for samples_per_seam in (13, 5000):
            rep = _assert_seam_scan_matches_loop(landscape, samples_per_seam, seed=2)
            assert not rep.passed and rep.witnesses
    assert {w["kind"] for w in rep.witnesses} == {"gradient", "fd"}


@pytest.mark.parametrize("params", GRID)
def test_stationary_check_matches_per_block_loop(params):
    assert _assert_stationary_matches_loop(Landscape(params)).passed


class _BrokenStationary(Landscape):
    """Tilts odd blocks along x1, turns even blocks into bowls and the final
    bowl into a saddle, in the closed form the scalar and vectorized paths share."""

    def _form(self, code, x1, x2, s1, s2, base, u_base, c, want_grad=True):
        value, grad = super()._form(code, x1, x2, s1, s2, base, u_base, c, want_grad)
        g, L = self.params.gamma, self.params.L
        d1, d2 = x1 - s1, x2 - s2
        if code == 0:
            dv, dg = 0.1 * d1, (0.1, 0.0)
        elif code == 2:
            dv, dg = 2.0 * g * d2 * d2, (0.0, 4.0 * g * d2)
        elif code == FINAL_CODE:
            dv, dg = -2.0 * L * d1 * d1, (-4.0 * L * d1, 0.0)
        else:
            return value, grad
        if want_grad:
            grad = (grad[0] + dg[0], grad[1] + dg[1])
        return value + dv, grad


def test_stationary_check_matches_per_block_loop_on_corrupted_landscapes():
    lc = _without_offset(LandscapeParams(n_saddles=5))
    assert _assert_stationary_matches_loop(lc).passed
    bad = _BrokenStationary(LandscapeParams(n_saddles=5, tau=0.7))
    rep = _assert_stationary_matches_loop(bad)
    assert not rep.passed
    assert {w["kind"] for w in rep.witnesses} == {"nonzero_gradient", "not_saddle",
                                                  "not_local_minimum"}


# --- pass loops against the whole-array checks ----------------------------------------

def _global_minimum_whole(landscape, n_points, seed=0):
    """global_minimum_check over one whole array of sample_points."""
    rng = np.random.default_rng(seed)
    pts = landscape.sample_points(n_points, rng)
    vals = landscape.value_many(pts)
    center = landscape.regions[-1].center
    fc = landscape.value(center)
    at_or_below = vals <= fc
    witnesses = [{"point": [float(pts[i, 0]), float(pts[i, 1])],
                  "value": float(vals[i]), "center_value": fc}
                 for i in np.nonzero(at_or_below)[0][:3]]
    return ss.checks._report("global_minimum", n_points, float(at_or_below.sum()), 0.0,
                             witnesses, {"center": list(center), "center_value": fc,
                                         "sampled_min": float(vals.min()), "seed": seed})


def _lipschitz_whole(landscape, n_pairs, seed=0):
    """lipschitz_report with the gradients of all pairs in one array."""
    rng = np.random.default_rng(seed)
    orders = rng.integers(0, len(landscape.regions), size=n_pairs)
    a = landscape.place_in_regions(orders, rng.random((n_pairs, 2)))
    b = landscape.place_in_regions(orders, rng.random((n_pairs, 2)))
    ga = landscape.gradient_many(a, orders)
    gb = landscape.gradient_many(b, orders)
    dist = np.linalg.norm(a - b, axis=1)
    keep = dist > 0
    ratios = np.linalg.norm(ga[keep] - gb[keep], axis=1) / dist[keep]
    return ss.checks._report("gradient_lipschitz", n_pairs, float(ratios.max()),
                             landscape.gradient_lipschitz_bound(), details={"seed": seed})


def _gradient_check_whole(landscape, n_samples, seed=0):
    """gradient_check with all its candidates, points and errors in whole arrays."""
    h, tol = 1e-5 * landscape.params.tau, 1e-6
    rng = np.random.default_rng(seed)
    pts = np.empty((0, 2))
    while len(pts) < n_samples:
        cand = landscape.sample_points(2 * n_samples, rng)
        cand = cand[ss.checks._seam_distance(landscape, cand) > 10.0 * h]
        pts = np.vstack([pts, cand])
    pts = pts[:n_samples]
    grad = landscape.gradient_many(pts)
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    fd = np.empty_like(grad)
    fd[:, 0] = (landscape.value_many(pts + e1) - landscape.value_many(pts - e1)) / (2 * h)
    fd[:, 1] = (landscape.value_many(pts + e2) - landscape.value_many(pts - e2)) / (2 * h)
    unit = landscape.params.L * landscape.params.tau
    err = np.abs(fd - grad).max(axis=1) / np.maximum(unit, np.abs(grad).max(axis=1))
    worst = float(err.max())
    witnesses = []
    if worst > tol:
        witnesses = [{"point": [float(pts[i, 0]), float(pts[i, 1])],
                      "analytic": [float(g) for g in grad[i]],
                      "fd": [float(g) for g in fd[i]], "rel_error": float(err[i])}
                     for i in np.argsort(err)[-3:][::-1]]
    return ss.checks._report("gradient_check", n_samples, worst, tol, witnesses,
                             {"h": h, "seed": seed})


def _stationary_whole(landscape):
    """stationary_check with every block's ring of 256 probed in one array."""
    n_angles, r = 256, 1e-3 * landscape.params.tau
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    ring = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    blocks = [reg for reg in landscape.regions if reg.rid.order % 2 == 0]
    orders = np.array([reg.rid.order for reg in blocks])
    centers = np.array([reg.center for reg in blocks])
    g = landscape.gradient_many(centers, orders)
    fc = landscape.value_many(centers, orders)[:, None]
    vals = landscape.value_many((centers[:, None, :] + ring).reshape(-1, 2))
    vals = vals.reshape(len(blocks), n_angles)
    higher = (vals > fc).all(axis=1)
    mixed = (vals > fc).any(axis=1) & (vals < fc).any(axis=1)
    violations = []
    for j, reg in enumerate(blocks):
        o = reg.rid.order
        if not (g[j, 0] == 0.0 and g[j, 1] == 0.0):
            violations.append({"region": o, "kind": "nonzero_gradient",
                               "gradient": [float(g[j, 0]), float(g[j, 1])]})
        if reg.rid.kind is RegionKind.FINAL_BLOCK:
            if not higher[j]:
                violations.append({"region": o, "kind": "not_local_minimum"})
        elif not mixed[j]:
            violations.append({"region": o, "kind": "not_saddle"})
    n_minima = sum(reg.rid.kind is RegionKind.FINAL_BLOCK for reg in blocks)
    return ss.checks._report("stationary_check", len(blocks) * (1 + n_angles),
                             float(len(violations)), 0.0, violations,
                             {"saddles": len(blocks) - n_minima, "minima": n_minima,
                              "probe_radius": r})


class _RareDips(Landscape):
    """Sinks about two sampled points in CHUNK far below the minimum, so the
    first three global-minimum witnesses lie in different passes."""

    def eval_many(self, xy, orders=None, branch=0, want_grad=True):
        values, grads = super().eval_many(xy, orders, branch, want_grad)
        values[np.modf(xy[:, 0] * 1e5)[0] < 2.0 / CHUNK] = -1e9
        return values, grads


PASS_COUNTS = (1, CHUNK - 1, CHUNK + 17, 3 * CHUNK + 5)


@pytest.mark.parametrize("params", GRID)
def test_pass_loops_match_whole_array_checks(params):
    flat = _without_offset(params)     # fails the global-minimum check, with witnesses
    for lc in (Landscape(params), flat):
        for n in PASS_COUNTS:
            assert ss.global_minimum_check(lc, n, seed=5) == _global_minimum_whole(lc, n, 5)
            assert ss.lipschitz_report(lc, n, seed=5) == _lipschitz_whole(lc, n, 5)
    assert ss.global_minimum_check(flat, CHUNK + 17).witnesses


def test_global_minimum_witnesses_keep_sample_order_across_passes():
    lc = _RareDips(LandscapeParams(n_saddles=5))
    n = PASS_COUNTS[-1]
    rep = ss.global_minimum_check(lc, n, seed=1)
    assert rep == _global_minimum_whole(lc, n, seed=1)
    rng = np.random.default_rng(1)
    dips = np.flatnonzero(lc.value_many(lc.sample_points(n, rng)) == -1e9)
    assert len(rep.witnesses) == 3 and rep.worst_error == len(dips)
    assert len(set(dips[:3] // CHUNK)) > 1      # the first three span passes


STREAM_COUNTS = (CHUNK - 1, CHUNK + 1, 2 * CHUNK + 5)


@pytest.mark.parametrize("params", GRID[::5])
def test_gradient_check_matches_whole_array_check(params):
    for lc in (Landscape(params), _CorruptedGradient(params)):
        for n in (1, 7, *STREAM_COUNTS):
            assert ss.gradient_check(lc, n, seed=4) == _gradient_check_whole(lc, n, seed=4)
    assert not ss.gradient_check(lc, CHUNK + 1, seed=4).passed


def test_gradient_check_second_candidate_batch_matches_whole_array_check(monkeypatch):
    """With 3 in 10 candidates kept, 2 * n_samples draws fall short and a
    second batch is drawn from where the first left the generator."""
    seen, seam_distance = [], ss.checks._seam_distance

    def sparse(landscape, xy):
        seen.append(len(xy))
        return np.where(np.modf(xy[:, 0] * 1e3)[0] < 0.3, seam_distance(landscape, xy), 0.0)

    monkeypatch.setattr(ss.checks, "_seam_distance", sparse)
    for lc in (Landscape(LandscapeParams(n_saddles=5)),
               _CorruptedGradient(LandscapeParams(n_saddles=5))):
        for n in (5, *STREAM_COUNTS):
            seen.clear()
            rep = _gradient_check_whole(lc, n, seed=6)
            assert len(seen) >= 2           # one call per batch of 2 * n candidates
            assert ss.gradient_check(lc, n, seed=6) == rep
    assert rep.witnesses and not rep.passed


class _FlatOddBlocks(Landscape):
    """Flat odd blocks whose analytic gradient is the constant (1, 0), so
    every sample there has a relative gradient error of exactly 1."""

    def _form(self, code, x1, x2, s1, s2, base, u_base, c, want_grad=True):
        if code == 0:
            return 0.0 * x1, (0.0 * x1 + 1.0, 0.0 * x2)
        return super()._form(code, x1, x2, s1, s2, base, u_base, c, want_grad)


class _NanFinalBlock(Landscape):
    """A NaN analytic gradient throughout the final block."""

    def _form(self, code, x1, x2, s1, s2, base, u_base, c, want_grad=True):
        value, grad = super()._form(code, x1, x2, s1, s2, base, u_base, c, want_grad)
        if want_grad and code == FINAL_CODE:
            grad = (grad[0] * np.nan, grad[1])
        return value, grad


def _stable_top_points(landscape, n_samples, seed):
    """The points of _gradient_check_whole's three largest errors, largest
    first, ranked by a stable sort: NaN first, ties to the later sample."""
    h = 1e-5 * landscape.params.tau
    rng = np.random.default_rng(seed)
    pts = np.empty((0, 2))
    while len(pts) < n_samples:
        cand = landscape.sample_points(2 * n_samples, rng)
        pts = np.vstack([pts, cand[ss.checks._seam_distance(landscape, cand) > 10.0 * h]])
    pts = pts[:n_samples]
    grad = landscape.gradient_many(pts)
    fd = np.stack([(landscape.value_many(pts + e) - landscape.value_many(pts - e)) / (2 * h)
                   for e in np.diag([h, h])], axis=1)
    unit = landscape.params.L * landscape.params.tau
    err = np.abs(fd - grad).max(axis=1) / np.maximum(unit, np.abs(grad).max(axis=1))
    return [[float(x) for x in pts[i]] for i in np.argsort(err, kind="stable")[-3:][::-1]]


def test_gradient_check_witness_ties_go_to_the_later_sample():
    lc = _FlatOddBlocks(LandscapeParams(n_saddles=5))
    n = CHUNK + 17                          # two passes of candidates
    rep = ss.gradient_check(lc, n, seed=3)
    assert rep.worst_error == 1.0 and not rep.passed
    assert [w["rel_error"] for w in rep.witnesses] == [1.0, 1.0, 1.0]
    assert [w["point"] for w in rep.witnesses] == _stable_top_points(lc, n, seed=3)


def test_gradient_check_fails_on_nan_with_nan_witnesses_first():
    lc = _NanFinalBlock(LandscapeParams(n_saddles=5))
    n = CHUNK + 17
    rep = ss.gradient_check(lc, n, seed=3)
    assert np.isnan(rep.worst_error) and not rep.passed
    assert all(np.isnan(w["rel_error"]) for w in rep.witnesses)
    assert [w["point"] for w in rep.witnesses] == _stable_top_points(lc, n, seed=3)
    assert all(lc.classify(tuple(w["point"])).kind is RegionKind.FINAL_BLOCK
               for w in rep.witnesses)


def test_gradient_check_evaluates_each_pass_once():
    """A failing check at n=100 with 40k samples takes three passes of
    CHUNK candidates and one gradient_many call in each."""
    bad = _CorruptedGradient(LandscapeParams(n_saddles=100))
    calls, gradient_many = [], bad.gradient_many
    bad.gradient_many = lambda xy, *args: calls.append(len(xy)) or gradient_many(xy, *args)
    rep = ss.gradient_check(bad, 40_000, seed=0)
    assert not rep.passed and len(rep.witnesses) == 3
    assert len(calls) == 3 and sum(calls) == 40_000


# n_saddles=100: 101 blocks make two passes of CHUNK // N_ANGLES = 64 rings
@pytest.mark.parametrize("params", [*GRID[::5], LandscapeParams(n_saddles=100)])
def test_stationary_check_matches_whole_array_check(params):
    for lc in (Landscape(params), _BrokenStationary(params)):
        assert ss.stationary_check(lc) == _stationary_whole(lc)
    assert not ss.stationary_check(lc).passed


@pytest.mark.parametrize("n_regions", [3, 201, 2001])
@pytest.mark.parametrize("n_offsets", [1, 2])
def test_sample_passes_match_whole_draws(n_regions, n_offsets):
    lc = Landscape(LandscapeParams(n_saddles=(n_regions - 1) // 2))
    assert len(lc.regions) == n_regions
    n = CHUNK + 17
    rng = np.random.default_rng(5)
    orders = rng.integers(0, len(lc.regions), size=n)
    whole = [orders] + [lc.place_in_regions(orders, rng.random((n, 2)))
                        for _ in range(n_offsets)]
    passes = list(ss.checks._sample_passes(lc, 5, n, n_offsets))
    assert [len(p[0]) for p in passes] == [CHUNK, 17]
    for stream, drawn in zip(zip(*passes), whole):
        assert np.array_equal(np.concatenate(stream), drawn)
    # a generator passed in is left past all the draws
    gen = np.random.default_rng(5)
    assert len(list(ss.checks._sample_passes(lc, gen, n, n_offsets))) == 2
    assert gen.bit_generator.state == rng.bit_generator.state


# --- memory -----------------------------------------------------------------------------

# Peak traced MiB of any check at n=100 at the counts below.  The seam scan
# exceeds it at larger seam counts: a pass of 16384 points in one region kind
# peaks at 3.93 MiB at n=2, and a pass holds at least one whole seam, so at
# n=100 it peaks at 5.72 MiB at 32768 samples and 11.43 MiB at 100000.
PEAK_MIB = 3


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check, count", [
    (ss.gradient_check, 10_000),
    (ss.gradient_check, 40_000),
    (ss.seam_scan, 1000),
    (ss.seam_scan, 4000),
    (ss.stationary_check, 256),
    (ss.stationary_check, 1024),
    (ss.global_minimum_check, 1_000_000),
    (ss.global_minimum_check, 4_000_000),
    (ss.lipschitz_report, 100_000),
    (ss.lipschitz_report, 400_000),
])
def test_check_peak_memory_at_n100(check, count, monkeypatch):
    """The peak does not grow with the sample count: 4x the default counts
    stay under the same bound."""
    lc = Landscape(LandscapeParams(n_saddles=100))
    warm, counts = (10,), (count,)
    if check is ss.stationary_check:    # its count is the module's ring size
        monkeypatch.setattr(ss.checks, "N_ANGLES", count)
        warm = counts = ()
    check(lc, *warm)
    assert _traced_peak(check, lc, *counts) <= PEAK_MIB * 2**20


@pytest.mark.xfail(strict=True, reason="one pass of 16384 seam points in one region kind "
                   "peaks at 3.93 MiB")
def test_seam_scan_peak_memory_at_many_samples():
    lc = Landscape(LandscapeParams(n_saddles=2))
    ss.seam_scan(lc, 10)
    assert _traced_peak(ss.seam_scan, lc, 16384) <= PEAK_MIB * 2**20


@pytest.mark.parametrize("count", [40_000, 640_000])
def test_failing_gradient_check_peak_memory_at_n100(count):
    """A failing check ranks its witnesses in the passes that measure them."""
    bad = _CorruptedGradient(LandscapeParams(n_saddles=100))
    assert not ss.gradient_check(bad, 10).passed
    assert _traced_peak(ss.gradient_check, bad, count) <= PEAK_MIB * 2**20


def test_stationary_check_peak_memory_at_n400():
    """Nor with the length of the chain: the rings are probed in passes."""
    lc = Landscape(LandscapeParams(n_saddles=400))
    ss.stationary_check(lc)
    assert _traced_peak(ss.stationary_check, lc) <= PEAK_MIB * 2**20


def test_run_all_checks_peak_memory_at_n100():
    lc = Landscape(LandscapeParams(n_saddles=100))
    ss.run_all_checks(lc, 10, 10, 10, 10)
    assert _traced_peak(ss.run_all_checks, lc) <= PEAK_MIB * 2**20
