import numpy as np
import pytest

import saddlescape as ss
from saddlescape import Landscape, LandscapeParams, RegionKind
from saddlescape.landscape import FINAL_CODE, _build_regions
from test_landscape import GRID


def _without_offset(params):
    """A landscape whose regions were all built with nu = 0, which kills the
    telescoping offset: block->buffer seams now jump."""
    lc = Landscape(params)
    lc.regions = _build_regions(params, 0.0)
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
    rep = ss.gradient_check(lc8, n_samples=10_000, h=1e-5, tol=1e-6, seed=0)
    assert rep.passed
    assert rep.samples == 10_000
    assert rep.worst_error <= 1e-6


def test_gradient_check_zero_samples_vacuous(lc8):
    rep = ss.gradient_check(lc8, n_samples=0)
    assert rep.passed and rep.samples == 0


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


def test_lipschitz_probe_single_pair(lc8):
    est = ss.lipschitz_probe(lc8, n_pairs=1, seed=0)
    assert np.isfinite(est) and est >= 0


def test_lipschitz_probe_within_documented_bound(lc8):
    rep = ss.lipschitz_report(lc8, n_pairs=50_000, seed=0)
    assert rep.passed
    assert rep.threshold == lc8.gradient_lipschitz_bound()


def test_lipschitz_probe_rejects_zero_pairs(lc8):
    with pytest.raises(ValueError):
        ss.lipschitz_probe(lc8, n_pairs=0)


def test_run_all_checks_deterministic(lc8):
    a = ss.run_all_checks(lc8, n_grad_samples=500, samples_per_seam=20,
                          n_min_points=5000, n_pairs=1000, seed=9)
    b = ss.run_all_checks(lc8, n_grad_samples=500, samples_per_seam=20,
                          n_min_points=5000, n_pairs=1000, seed=9)
    assert a == b


# --- batched checks against the per-seam and per-block loops ------------------------

def _seam_scan_loop(landscape, samples_per_seam, tol_value=1e-9, tol_grad=1e-5, seed=0):
    """seam_scan as one pass per seam, each side through eval_region_many."""
    rng = np.random.default_rng(seed)
    off = 1e-7 * landscape.params.tau
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
        errs = {"value": np.abs(va - vb) / np.maximum(1.0, np.abs(va)),
                "gradient": (np.abs(ga - gb).max(axis=1)
                             / np.maximum(1.0, np.abs(ga).max(axis=1))),
                "fd": np.abs(fd - gn) / np.maximum(1.0, np.abs(gn))}
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


def _stationary_loop(landscape, n_angles=256):
    """stationary_check as one scalar probe and one ring per block."""
    r = 1e-3 * landscape.params.tau
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    ring = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    violations, samples = [], 0
    for reg in landscape.regions:
        if not reg.rid.kind.is_block:
            continue
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


def _assert_stationary_matches_loop(landscape, n_angles=256):
    rep = ss.stationary_check(landscape, n_angles)
    samples, violations = _stationary_loop(landscape, n_angles)
    assert rep.samples == samples
    assert rep.witnesses == violations
    assert rep.worst_error == float(len(violations))
    return rep


# 1 and 13 leave every seam in one pass; 7000 makes passes of 9 seams with a
# shorter last one at n_saddles = 5
@pytest.mark.parametrize("params", GRID)
def test_seam_scan_matches_per_seam_loop(params):
    lc = Landscape(params)
    for samples_per_seam in (1, 13, 7000):
        rep = _assert_seam_scan_matches_loop(lc, samples_per_seam, seed=3)
        assert rep.passed


def test_seam_scan_matches_per_seam_loop_above_chunk():
    lc = Landscape(LandscapeParams(n_saddles=1))
    _assert_seam_scan_matches_loop(lc, ss.landscape.CHUNK + 5, seed=1)


def test_seam_scan_matches_per_seam_loop_on_corrupted_landscapes():
    lc = _without_offset(LandscapeParams(n_saddles=5))
    bad = _CorruptedGradient(LandscapeParams(n_saddles=5, tau=0.7))
    for landscape in (lc, bad):
        for samples_per_seam in (13, 7000):
            rep = _assert_seam_scan_matches_loop(landscape, samples_per_seam, seed=2)
            assert not rep.passed and rep.witnesses
    assert {w["kind"] for w in rep.witnesses} == {"gradient", "fd"}


@pytest.mark.parametrize("params", GRID)
def test_stationary_check_matches_per_block_loop(params):
    lc = Landscape(params)
    for n_angles in (0, 3, 256):
        _assert_stationary_matches_loop(lc, n_angles)
    assert _assert_stationary_matches_loop(lc).passed


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
    for n_angles in (3, 256):
        rep = _assert_stationary_matches_loop(bad, n_angles)
    assert not rep.passed
    assert {w["kind"] for w in rep.witnesses} == {"nonzero_gradient", "not_saddle",
                                                  "not_local_minimum"}
