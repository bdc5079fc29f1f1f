import numpy as np
import pytest

import saddlescape as ss
from saddlescape import Landscape, LandscapeParams, RegionKind


@pytest.fixture(scope="module")
def lc8():
    return Landscape(LandscapeParams(n_saddles=8))


# --- fd_gradient -----------------------------------------------------------------

def test_fd_gradient_at_final_center(lc8):
    # the final bowl is symmetric about its center on both axes
    g = ss.fd_gradient(lc8, lc8.regions[-1].center, h=1e-5)
    assert abs(g[0]) <= 1e-8 and abs(g[1]) <= 1e-8


def test_fd_gradient_at_saddle_center(lc8):
    # symmetric along the cross axis; along the branch axis the two
    # half-quadratics differ, so the kink contributes -(gamma+L2)*h/2
    g = ss.fd_gradient(lc8, (0.5, 0.5), h=1e-5)
    assert abs(g[1]) <= 1e-8
    assert g[0] == pytest.approx(-(0.5 + 4.0) * 1e-5 / 2, rel=1e-3)


def test_fd_gradient_matches_analytic_example(lc8):
    g = ss.fd_gradient(lc8, (0.75, 0.5), h=1e-5)
    assert g[0] == pytest.approx(-0.25, rel=1e-6)
    assert g[1] == pytest.approx(0.0, abs=1e-8)


def test_fd_gradient_degenerate_step(lc8):
    with pytest.raises(ValueError):
        ss.fd_gradient(lc8, (0.5, 0.5), h=0.0)


def test_fd_gradient_neighbor_outside(lc8):
    with pytest.raises(ss.OutsideDomainError):
        ss.fd_gradient(lc8, (0.5, 1e-9), h=1e-5)


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

    def _eval_kernel(self, kind, xy, center, index, u_base, into_final, branch=0,
                     want_grad=True):
        vals, grads = super()._eval_kernel(kind, xy, center, index, u_base, into_final,
                                           branch, want_grad)
        if want_grad and kind is RegionKind.ODD_BLOCK:
            esc = xy[:, 0] - center[0] > 0
            grads[esc] = -grads[esc]
        return vals, grads


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
    lc = Landscape(LandscapeParams(n_saddles=4))
    lc.nu = 0.0  # kills the telescoping offset; block->buffer seams now jump
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
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
