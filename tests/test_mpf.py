"""The exact-scale oracle: ``run`` on a landscape of ``mpmath.mpf`` parameters.

At 53 bits mpf rounds like float64 to nearest-even, and it has no subnormals
or overflow, so wherever no value leaves float64's normal range an mpf run
is the float64 run, iterate by iterate.  At a few thousand bits the same
``run`` goes on past the saddle blocks where float64 sticks.
"""

import numpy as np
import pytest

import saddlescape as ss
from saddlescape import GdConfig, Landscape, LandscapeParams, NoiseConfig, Outcome

mpmath = pytest.importorskip("mpmath")


def _mpf_landscape(L, gamma, tau, n):
    """The landscape of the parameters as mpf numbers at the working precision."""
    return Landscape(LandscapeParams(mpmath.mpf(L), mpmath.mpf(gamma), mpmath.mpf(tau), n))


@pytest.mark.parametrize("L, gamma, tau", [(1.0, 0.5, 1.0), (1.5, 0.5, 1.0), (1.0, 0.3, 0.7)])
def test_mpf_run_at_53_bits_is_the_float64_run(L, gamma, tau):
    lc = Landscape(LandscapeParams(L, gamma, tau, 9))
    with mpmath.workprec(53):
        lcm = _mpf_landscape(L, gamma, tau, 9)
        for seed in range(3):
            start = ss.init_sample(lc, np.random.default_rng([seed, 0]))
            for noise in (None, NoiseConfig(variance=0.1, seed=seed)):
                ref = ss.run(lc, GdConfig(), start, noise=noise)
                got = ss.run(lcm, GdConfig(), start, noise=noise)
                assert all(type(v) is mpmath.mpf for it in got.iterates for v in it.position)
                assert got.iterates == ref.iterates and got.outcome is ref.outcome


@pytest.mark.parametrize("bits", [3000, 4000])
def test_mpf_run_escapes_every_saddle_where_float64_sticks(bits):
    # float64 pins the cross coordinate in block 3; at these precisions the run
    # reaches the minimum, its cross gradient going far below float64's range
    # on the way, and the escape times agree at both precisions
    lc = Landscape(LandscapeParams(n_saddles=6))
    start = ss.init_sample(lc, np.random.default_rng([0, 0]))
    obs = ss.StreamObserver(lc, GdConfig())
    assert ss.run(lc, GdConfig(), start, observer=obs).outcome is Outcome.STALLED
    assert [r.t for r in obs.records() if r.complete] == [11, 60]
    with mpmath.workprec(bits):
        lcm = _mpf_landscape(1.0, 0.5, 1.0, 6)
        obs = ss.StreamObserver(lcm, GdConfig())
        traj = ss.run(lcm, GdConfig(), start, observer=obs)
    assert traj.outcome is Outcome.REACHED_MINIMUM and traj.total_steps == 9911
    assert [r.t for r in obs.records()[:6]] == [11, 60, 214, 686, 2156, 6717]


def test_mpf_projection_breaks_a_rounded_tie_by_the_exact_distance():
    # at 200 bits both squared distances round to 1/4; the second square's is smaller
    with mpmath.workprec(200):
        lcm = _mpf_landscape(1.0, 0.5, 1.0, 2)
        x1 = 1 + mpmath.ldexp(1, -199)
        got = ss.project_to_domain(lcm, (x1, mpmath.mpf(1.5)))
        assert (x1 - 1) ** 2 + mpmath.mpf(0.25) == 0.25
    assert got == (x1, 1) and all(type(v) is mpmath.mpf for v in got)
