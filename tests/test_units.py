"""Units are a symmetry of descent.

The staircase has two scales: tau for lengths, and L (with gamma) for
curvature.  Scaling either by a power of two is exact in float64, away from
underflow and overflow, so a run scaled by tau*2^k or (L, gamma)*2^j must be
the same run in every bit: the same steps, regions, events and outcome, every
position times 2^k (or unmoved), every value times 4^k*2^j and every gradient
norm times 2^k*2^j; and the same escape records and theory report, with the
stall's position scaled back, and the same sweep.csv row but for its scaled L,
gamma and tau columns.  A noisy run's variance scales by 4^k with tau.
Each check's worst error is unit-free, but the Lipschitz ratio's, which scales
by 2^j; so is each threshold, but the Lipschitz bound's, which also grows with
tau (ROADMAP direction 19).
The parameters are ``ldexp`` of integer draws, so no libm call sets them.
"""

import dataclasses
import math

import numpy as np
import pytest

import saddlescape as ss
from saddlescape import GdConfig, Landscape, LandscapeParams, NoiseConfig, checks, cli

RATIOS = (0.1, 0.3, 0.5, 0.9, 1.0)   # gamma / L
SHIFTS = (-8, 8)                     # the powers of two each scale is moved by
N_SETS = 20
CONFIG = GdConfig(max_iter=2000)


def _scale(rng) -> float:
    """A float in [2^-4, 2^4): a 21-bit mantissa times a power of two."""
    return math.ldexp(int(rng.integers(1 << 20, 1 << 21)), int(rng.integers(-4, 4)) - 20)


def _sets() -> list[LandscapeParams]:
    rng = np.random.default_rng(17)
    sets = []
    for _ in range(N_SETS):
        L, tau = _scale(rng), _scale(rng)
        ratio = RATIOS[int(rng.integers(len(RATIOS)))]
        sets.append(LandscapeParams(L=L, gamma=L * ratio, tau=tau,
                                    n_saddles=int(rng.integers(1, 12))))
    return sets


SETS = _sets()


def _run(params: LandscapeParams, seed: int, variance: float | None):
    """The run seeded ``seed`` from its ``[seed, 0]`` start, noisy if ``variance``
    is given, with its observer's records and report."""
    lc = Landscape(params)
    start = ss.init_sample(lc, np.random.default_rng([seed, 0]))
    noise = None if variance is None else NoiseConfig(variance=variance, seed=seed)
    obs = ss.StreamObserver(lc, CONFIG, noise)
    traj = ss.run(lc, CONFIG, start, noise=noise, observer=obs)
    return traj, obs.records(), obs.report()


def _scaled(report: ss.TheoryReport, s: float) -> ss.TheoryReport:
    """``report`` with its stall's position multiplied by ``s``."""
    stall = report.stall
    if stall is not None:
        stall = dataclasses.replace(stall, position=(stall.position[0] * s,
                                                     stall.position[1] * s))
    return dataclasses.replace(report, stall=stall)


def _scalings(params: LandscapeParams):
    """(length, curvature, params) for each of tau*2^k and (L, gamma)*2^j, k and j in SHIFTS."""
    for k, j in [(k, 0) for k in SHIFTS] + [(0, j) for j in SHIFTS]:
        length, curvature = math.ldexp(1.0, k), math.ldexp(1.0, j)
        yield length, curvature, LandscapeParams(
            L=params.L * curvature, gamma=params.gamma * curvature, tau=params.tau * length,
            n_saddles=params.n_saddles)


@pytest.mark.parametrize("algo", ["gd", "sgd"])
@pytest.mark.parametrize("index", range(N_SETS))
def test_a_run_scales_exactly_with_tau_and_with_curvature(index, algo):
    params = SETS[index]
    variance = 0.1 * params.tau * params.tau if algo == "sgd" else None
    traj, records, report = _run(params, index, variance)
    for length, curvature, scaled in _scalings(params):
        var = None if variance is None else variance * length * length
        traj2, records2, report2 = _run(scaled, index, var)
        assert traj2.outcome == traj.outcome
        assert len(traj2.iterates) == len(traj.iterates)
        value, grad = length * length * curvature, length * curvature
        for a, b in zip(traj.iterates, traj2.iterates):
            assert (b.t, b.region, b.event) == (a.t, a.region, a.event)
            assert b.position == (a.position[0] * length, a.position[1] * length)
            assert (b.f_value, b.grad_norm) == (a.f_value * value, a.grad_norm * grad)
        assert records2 == records
        assert report2 == _scaled(report, length)


def _sweep_row(params: LandscapeParams, algo: str, seed: int, variance: float) -> list[str]:
    """The sweep.csv row of the run seeded ``seed``, split into its columns."""
    start = cli._start(Landscape(params), seed)
    config = dataclasses.replace(CONFIG, record_every=CONFIG.max_iter)   # as cmd_sweep stores
    task = (params, algo, seed, start, config, NoiseConfig(variance=variance))
    return cli._sweep_task(task).split(",")


@pytest.mark.parametrize("algo", ["gd", "sgd"])
@pytest.mark.parametrize("index", range(N_SETS))
def test_a_sweep_row_scales_exactly_with_tau_and_with_curvature(index, algo):
    # outcome, total_iters and growth_ratio are unit-free; the L, gamma and tau columns scale
    params = SETS[index]
    variance = 0.1 * params.tau * params.tau
    row = _sweep_row(params, algo, index, variance)
    for length, curvature, scaled in _scalings(params):
        row2 = _sweep_row(scaled, algo, index, variance * length * length)
        assert row2[3:] == row[3:]
        assert [float(v) for v in row2[:3]] == [float(row[0]) * curvature,
                                                float(row[1]) * curvature,
                                                float(row[2]) * length]


def _checks(params: LandscapeParams, seed: int) -> list[ss.CheckReport]:
    """Every check of ``params`` at small sample counts."""
    return checks.run_all_checks(Landscape(params), n_grad_samples=300, samples_per_seam=20,
                                 n_min_points=3000, n_pairs=3000, seed=seed)


@pytest.mark.parametrize("index", range(N_SETS))
def test_each_check_scales_exactly_with_tau_and_with_curvature(index):
    # every worst error is free of units but the Lipschitz ratio's, a curvature; so is
    # every threshold, but the Lipschitz bound's tau scaling (below)
    params = SETS[index]
    reports = _checks(params, index)
    for length, curvature, scaled in _scalings(params):
        for a, b in zip(reports, _checks(scaled, index), strict=True):
            unit = curvature if a.name == "gradient_lipschitz" else 1.0
            assert (b.name, b.samples) == (a.name, a.samples)
            assert b.worst_error == a.worst_error * unit
            if a.name != "gradient_lipschitz" or length == 1.0:
                assert (b.threshold, b.passed) == (a.threshold * unit, a.passed)


@pytest.mark.xfail(strict=True, reason="ROADMAP direction 19: gradient_lipschitz_bound() "
                                       "grows with tau, while the ratio it bounds does not")
def test_the_lipschitz_threshold_is_free_of_tau():
    for params in SETS:
        bound = Landscape(params).gradient_lipschitz_bound()
        for length, curvature, scaled in _scalings(params):
            if curvature == 1.0:
                assert Landscape(scaled).gradient_lipschitz_bound() == bound
