"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

import saddlescape as ss
from saddlescape import GdConfig, Landscape, LandscapeParams, NoiseConfig, Outcome
from saddlescape.cli import main as cli_main

ETA = 0.25
GD_GRID_SEEDS = 100


def conclude(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\nCRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _gd_run(params: LandscapeParams, seed: int, max_iter: int = 1_000_000):
    lc = Landscape(params)
    start = ss.init_sample(lc, np.random.default_rng([seed, 0]))
    traj = ss.run(lc, GdConfig(max_iter=max_iter), start)
    return lc, traj


@pytest.fixture(scope="module")
def grid_runs():
    """100 seeded plain-descent runs: L=1, gamma=0.5, tau=1, n_saddles in 3..9."""
    runs = []
    for seed in range(GD_GRID_SEEDS):
        n = 3 + seed % 7
        params = LandscapeParams(L=1.0, gamma=0.5, tau=1.0, n_saddles=n)
        lc, traj = _gd_run(params, seed)
        runs.append((params, seed, traj, ss.replay(traj).records()))
    return runs


@pytest.fixture(scope="module")
def growth_runs():
    """20 seeds x L in {1, 1.5} at gamma=0.5, n_saddles=9, with timings."""
    out = {}
    for L in (1.0, 1.5):
        params = LandscapeParams(L=L, gamma=0.5, tau=1.0, n_saddles=9)
        per_seed = []
        for seed in range(20):
            t0 = time.perf_counter()
            lc, traj = _gd_run(params, seed)
            elapsed = time.perf_counter() - t0
            growth = ss.growth_summary(ss.replay(traj).records(), params)
            per_seed.append((seed, traj, growth, elapsed))
        out[L] = per_seed
    return out


def test_criterion_1_smoothness_suite():
    t0 = time.perf_counter()
    worst_grad = worst_vjump = worst_gjump = 0.0
    cases = 0
    for L in (1.0, 1.5):
        for gamma in (L / 2.0, L / 3.0):
            for tau in (0.5, 1.0, 2.0):
                for n in (1, 5, 9):
                    lc = Landscape(LandscapeParams(L=L, gamma=gamma, tau=tau,
                                                   n_saddles=n))
                    gc = ss.gradient_check(lc, n_samples=10_000, seed=0)
                    sc = ss.seam_scan(lc, samples_per_seam=1000, seed=0)
                    cases += 1
                    worst_grad = max(worst_grad, gc.worst_error)
                    worst_vjump = max(worst_vjump, sc.details["worst_value_jump"])
                    worst_gjump = max(worst_gjump, sc.details["worst_gradient_jump"])
                    assert gc.passed, (L, gamma, tau, n, gc.worst_error)
                    assert sc.passed, (L, gamma, tau, n, sc.details)
    elapsed = time.perf_counter() - t0
    ok = worst_grad <= 1e-6 and worst_vjump <= 1e-9 and worst_gjump <= 1e-5 \
        and elapsed < 30.0
    conclude(1, "smoothness suite", ok,
             f"{cases} parameter sets, worst fd-grad err {worst_grad:.2e}, "
             f"worst seam value jump {worst_vjump:.2e}, worst seam grad jump "
             f"{worst_gjump:.2e}, {elapsed:.1f}s")


def test_criterion_2_stationary_suite():
    t0 = time.perf_counter()
    lc = Landscape(LandscapeParams(L=1.0, gamma=0.5, tau=1.0, n_saddles=9))
    stat = ss.stationary_check(lc)
    gmin = ss.global_minimum_check(lc, n_points=1_000_000, seed=0)
    for reg in lc.regions[::2]:
        assert lc.gradient(reg.center) == (0.0, 0.0)
    elapsed = time.perf_counter() - t0
    ok = stat.passed and gmin.passed and elapsed < 10.0
    conclude(2, "stationary points", ok,
             f"{stat.details['saddles']} saddles + {stat.details['minima']} minimum "
             f"confirmed, global min over 1e6 points, {elapsed:.1f}s")


def test_criterion_3_buffer_residence_bound(grid_runs):
    worst = 0
    for params, seed, traj, records in grid_runs:
        res = ss.check_buffer_bound(records, params, ETA)
        assert res.passed, (seed, res.witnesses)
        assert res.details["bound"] == 8
        worst = max(worst, max((m["t_prime"] for m in res.details["margins"]),
                               default=0))
    conclude(3, "buffer residence bound", worst <= 8,
             f"{len(grid_runs)} runs, max buffer residence {worst} <= 8")


def test_criterion_4_containment(grid_runs):
    n_outside = n_projected = 0
    for params, seed, traj, records in grid_runs:
        lc = Landscape(params)
        for it in traj.iterates:
            if lc.locate(it.position) is None:
                n_outside += 1
            if it.event is ss.Event.PROJECTED:
                n_projected += 1
    ok = n_outside == 0 and n_projected == 0
    conclude(4, "containment", ok,
             f"{len(grid_runs)} runs, {n_outside} outside iterates, "
             f"{n_projected} projection events")


def test_criterion_5_escape_recurrence(grid_runs):
    n_pairs = 0
    min_t1 = 10**9
    for params, seed, traj, records in grid_runs:
        res = ss.check_escape_recurrence(records, params, ETA)
        assert res.passed, (seed, res.witnesses)
        for pair in res.details["pairs"]:
            ta, tb = pair["t"]
            assert tb > 2 * ta - 8       # L/gamma = 2, 1/(eta*gamma) = 8
            assert (tb - 8) > 2 * (ta - 8)
            n_pairs += 1
        if "t1" in res.details:
            assert res.details["t1"] > 8
            min_t1 = min(min_t1, res.details["t1"])
    conclude(5, "escape-time recurrence", True,
             f"{n_pairs} saddle pairs checked, min t1 = {min_t1} > 8")


def test_criterion_6_exponential_growth(growth_runs):
    slowest = 0.0
    min_ratio = math.inf
    min_gap = math.inf
    for L, per_seed in growth_runs.items():
        for seed, traj, growth, elapsed in per_seed:
            slowest = max(slowest, elapsed)
            min_ratio = min(min_ratio, growth.ratio)
            assert growth.ratio >= 1.8, (L, seed, growth.ratio)
            assert growth.total_iterations > growth.floor, (L, seed, growth)
            assert elapsed < 1.0, (L, seed, elapsed)
    for (s1, _, g1, _), (s15, _, g15, _) in zip(growth_runs[1.0], growth_runs[1.5]):
        assert s1 == s15
        assert g15.ratio > g1.ratio, (s1, g1.ratio, g15.ratio)
        min_gap = min(min_gap, g15.ratio - g1.ratio)
    conclude(6, "exponential escape-time growth", True,
             f"min fitted ratio {min_ratio:.2f} >= 1.8, ratio(L=1.5) exceeds "
             f"ratio(L=1) on all 20 seeds (min gap {min_gap:.2f}), "
             f"slowest run {slowest * 1000:.0f}ms")


def test_criterion_7_noisy_descent_efficiency(growth_runs):
    params = LandscapeParams(L=1.0, gamma=0.5, tau=1.0, n_saddles=9)
    lc = Landscape(params)
    sgd_entries = []
    for seed in range(20):
        start = ss.init_sample(lc, np.random.default_rng([seed, 0]))
        config = GdConfig(max_iter=100_000, stop_grad_norm=params.L * params.tau / 2)
        noise = NoiseConfig(variance=0.1, seed=seed)
        obs = ss.StreamObserver(lc, config, noise)
        ss.run(lc, config, start, noise=noise, observer=obs)
        sgd_entries.append(obs.first_final)
    gd_entries = [ss.replay(traj).first_final for _, traj, _, _ in growth_runs[1.0]]

    reached = [e for e in sgd_entries if e is not None and e <= 100_000]
    frac = len(reached) / len(sgd_entries)
    med_sgd = statistics.median(e if e is not None else math.inf for e in sgd_entries)
    med_gd = statistics.median(e if e is not None else math.inf for e in gd_entries)
    ok = frac >= 0.8 and med_sgd < med_gd
    conclude(7, "noisy descent efficiency", ok,
             f"{len(reached)}/20 noisy runs reached the final block "
             f"(median entry {med_sgd:.0f} iterations) while plain descent's "
             f"median is {med_gd}")


def test_criterion_8_numerical_sticking():
    params = LandscapeParams(L=1.0, gamma=0.5, tau=1.0, n_saddles=12)
    final_order = 2 * (params.n_blocks - 1)
    stalled = 0
    pinned = 0
    for seed in range(20):
        lc, traj = _gd_run(params, seed, max_iter=1_000_000)
        if traj.outcome is not Outcome.STALLED:
            continue
        if traj.iterates[-1].region.order >= final_order:
            continue
        stalled += 1
        info = ss.replay(traj).stall
        if info is not None and info.reason == "cross_pinned":
            pinned += 1
    ok = stalled >= 1 and pinned >= 1
    conclude(8, "numerical sticking", ok,
             f"{stalled}/20 runs stalled before the final block, "
             f"{pinned} with the cross coordinate exactly pinned")


def test_criterion_9_determinism(grid_runs, tmp_path):
    # library level: identical seeds give identical trajectories
    for params, seed, traj, _ in grid_runs[:5]:
        _, again = _gd_run(params, seed)
        assert again.iterates == traj.iterates
        assert again.outcome == traj.outcome
    # file level: reruns are byte-identical
    a, b = tmp_path / "a", tmp_path / "b"
    run_args = ["run", "--n-saddles", "4", "--seeds", "3"]
    assert cli_main(run_args + ["--out", str(a)]) == 0
    assert cli_main(run_args + ["--out", str(b)]) == 0
    names = ["run_seed0.csv", "run_seed1.csv", "run_seed2.csv", "summary.json"]
    same_runs = all((a / n).read_bytes() == (b / n).read_bytes() for n in names)

    ca, cb = tmp_path / "ca", tmp_path / "cb"
    chk_args = ["check", "--n-saddles", "3", "--grad-samples", "2000",
                "--seam-samples", "100", "--min-points", "20000", "--pairs", "5000"]
    assert cli_main(chk_args + ["--out", str(ca)]) == 0
    assert cli_main(chk_args + ["--out", str(cb)]) == 0
    same_check = ((ca / "check_report.json").read_bytes()
                  == (cb / "check_report.json").read_bytes())

    sa, sb = tmp_path / "sa", tmp_path / "sb"
    sweep_args = ["sweep", "--L", "1", "1.5", "--seeds", "2", "--n-saddles", "3"]
    assert cli_main(sweep_args + ["--out", str(sa)]) == 0
    assert cli_main(sweep_args + ["--out", str(sb)]) == 0
    same_sweep = (sa / "sweep.csv").read_bytes() == (sb / "sweep.csv").read_bytes()

    ok = same_runs and same_check and same_sweep
    conclude(9, "determinism", ok,
             "library trajectories, run CSV/JSON, check JSON, and sweep CSV "
             "are bit-for-bit reproducible")
