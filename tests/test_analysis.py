import dataclasses
import itertools
import json

import numpy as np
import pytest

import saddlescape as ss
from saddlescape import (EscapeRecord, GdConfig, Landscape, LandscapeParams,
                         NoiseConfig, Outcome, RegionKind)
from saddlescape.descent import Iterate, Trajectory


@pytest.fixture(scope="module")
def params5():
    return LandscapeParams(n_saddles=5)


@pytest.fixture(scope="module")
def lc5(params5):
    return Landscape(params5)


def make_trajectory(lc, orders, noise=None, positions=None, events=None):
    """Synthetic trajectory visiting the given chain orders."""
    its = []
    for t, o in enumerate(orders):
        reg = lc.regions[o]
        rid = reg.rid
        # off-center so nothing looks pinned
        pos = (reg.center[0] + 0.11, reg.center[1] + 0.07)
        if positions is not None and positions[t] is not None:
            pos = positions[t]
        ev = events[t] if events is not None else None
        its.append(Iterate(t, pos, 0.0, 1.0, rid, ev))
    return Trajectory(lc.params, GdConfig(), noise, tuple(its), Outcome.BUDGET)


def gd_run(n_saddles, seed):
    lc = Landscape(LandscapeParams(n_saddles=n_saddles))
    start = ss.init_sample(lc, np.random.default_rng(seed))
    return lc, ss.run(lc, GdConfig(), start)


# --- segmentation ----------------------------------------------------------------

def test_segment_synthetic_counts(lc5):
    traj = make_trajectory(lc5, [0] * 5 + [1] * 3 + [2] * 7)
    recs = ss.replay(traj).records()
    assert [(r.index, r.t, r.t_prime, r.complete) for r in recs] == [
        (1, 5, 3, True), (2, 7, 0, False)]
    assert recs[0].T == 8
    assert recs[1].T == 15


def test_segment_single_region(lc5):
    traj = make_trajectory(lc5, [0] * 9)
    recs = ss.replay(traj).records()
    assert [(r.index, r.t, r.t_prime, r.T, r.complete) for r in recs] == [
        (1, 9, 0, 9, False)]


def test_segment_t_recurrence_and_conservation():
    for seed in range(5):
        _, traj = gd_run(5, seed)
        recs = ss.replay(traj).records()
        prev_T = 0
        for rec in recs:
            assert rec.T == prev_T + rec.t + rec.t_prime
            prev_T = rec.T
        assert sum(r.t + r.t_prime for r in recs) == len(traj.iterates)


def test_segment_rejects_thinned(lc5):
    # a thinned plain run's records are exact; its stall and report raise,
    # carrying the first iterate after the first gap
    start = ss.init_sample(lc5, np.random.default_rng(0))
    traj = ss.run(lc5, GdConfig(record_every=10), start)
    replayed = ss.replay(traj)
    assert replayed.records() == ss.replay(ss.run(lc5, GdConfig(), start)).records()
    for analysis in (lambda: replayed.stall, replayed.report):
        with pytest.raises(ss.SegmentationError) as err:
            analysis()
        assert err.value.iterate is traj.iterates[1] and traj.iterates[1].t == 10


def test_segment_rejects_gd_revisit(lc5):
    traj = make_trajectory(lc5, [0, 1, 0, 1, 2])
    with pytest.raises(ss.SegmentationError) as err:
        ss.replay(traj).records()
    assert err.value.iterate.t == 2


def test_segment_sgd_first_passage(lc5):
    traj = make_trajectory(lc5, [0, 1, 0, 1, 2], noise=NoiseConfig(variance=0.1))
    recs = ss.replay(traj).records()
    assert [(r.index, r.t, r.t_prime, r.T, r.complete) for r in recs] == [
        (1, 1, 3, 4, True), (2, 1, 0, 5, False)]


def test_segment_empty_raises(lc5):
    with pytest.raises(ss.SegmentationError):
        ss.replay(Trajectory(lc5.params, GdConfig(), None, (), Outcome.BUDGET)).records()


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n", [1, 5, 12])
@pytest.mark.parametrize("algo", ["gd", "sgd"])
def test_stream_observer_matches_segment(algo, n, seed, record_every):
    # what run streams through the observer equals a replay of the dense trajectory
    lc = Landscape(LandscapeParams(n_saddles=n))
    start = ss.init_sample(lc, np.random.default_rng(seed))
    noise = NoiseConfig(variance=0.1, seed=seed) if algo == "sgd" else None
    config = GdConfig(record_every=record_every)
    obs = ss.StreamObserver(lc, config, noise)
    traj = ss.run(lc, config, start, noise=noise, observer=obs)
    dense = traj
    if record_every > 1:
        dense = ss.run(lc, GdConfig(), start, noise=noise)
        assert len(traj.iterates) < len(dense.iterates)
        with pytest.raises(ss.SegmentationError):
            ss.replay(traj).stall
    replayed = ss.replay(dense)
    assert obs.gap is None and replayed.gap is None
    assert obs.records() == replayed.records() == ss.replay(traj).records()
    report = obs.report()
    assert report.to_dict() == replayed.report().to_dict()
    assert report.records == replayed.records()
    assert obs.stall == replayed.stall
    assert obs.first_final == replayed.first_final == ss.replay(traj).first_final
    assert len(obs.first_exceed) <= 2 * n + 2


# --- buffer residence bound ---------------------------------------------------------

def test_buffer_bound_value(params5):
    assert ss.analysis.buffer_residence_bound(params5, 0.25) == 8


def test_buffer_bound_rejects_a_step_whose_bound_overflows(params5):
    with pytest.raises(ValueError, match="eta=1e-320 too small"):
        ss.analysis.buffer_residence_bound(params5, 1e-320)


def test_buffer_bound_on_real_runs(params5):
    for seed in range(5):
        _, traj = gd_run(5, seed)
        records = ss.replay(traj).records()
        res = ss.check_buffer_bound(records, params5, 0.25)
        assert res.passed
        assert all(m["t_prime"] <= 8 for m in res.details["margins"])


def test_buffer_bound_vacuous_on_empty(params5):
    assert ss.check_buffer_bound([], params5, 0.25).passed


def test_buffer_bound_synthetic_violation(params5):
    recs = [EscapeRecord(1, 10, 9, 19, True)]
    res = ss.check_buffer_bound(recs, params5, 0.25)
    assert not res.passed
    assert res.witnesses[0]["index"] == 1
    assert res.witnesses[0]["t_prime"] == 9


# --- containment ----------------------------------------------------------------------

def test_containment_on_real_run(params5):
    _, traj = gd_run(5, 1)
    assert ss.replay(traj).containment().passed


def test_containment_skipped_for_sgd(lc5):
    traj = make_trajectory(lc5, [0, 1], noise=NoiseConfig(variance=0.1))
    res = ss.replay(traj).containment()
    assert res.passed and res.skipped


def test_containment_fails_on_projection(lc5):
    traj = make_trajectory(lc5, [0, 1, 1],
                           events=[None, ss.Event.PROJECTED, ss.Event.PROJECTED])
    res = ss.replay(traj).containment()
    assert not res.passed
    assert res.witnesses == [{"t": 1, "kind": "projected",
                              "position": list(traj.iterates[1].position)}]


# --- escape recurrence ------------------------------------------------------------------

def test_recurrence_rejects_small_ratio():
    params = LandscapeParams(L=1.0, gamma=0.6)
    with pytest.raises(ValueError):
        ss.check_escape_recurrence([], params, 0.25)


def test_recurrence_on_real_runs(params5):
    for seed in range(5):
        _, traj = gd_run(5, seed)
        records = ss.replay(traj).records()
        res = ss.check_escape_recurrence(records, params5, 0.25)
        assert res.passed
        assert res.details["t1"] > 8  # 4L/gamma


def test_recurrence_synthetic_violation(params5):
    recs = [EscapeRecord(1, 10, 5, 15, True), EscapeRecord(2, 11, 5, 31, True)]
    res = ss.check_escape_recurrence(recs, params5, 0.25)
    assert not res.passed  # 11 <= 2*10 - 8


@pytest.mark.parametrize("t1", [3, 8])
def test_recurrence_fails_on_a_first_escape_at_or_below_its_floor(params5, t1):
    res = ss.check_escape_recurrence([EscapeRecord(1, t1, 5, t1 + 5, True)], params5, 0.25)
    assert not res.passed
    assert res.witnesses == [{"t1": t1, "floor": 8.0}]     # 4L/gamma


def test_recurrence_ignores_incomplete_records(params5):
    recs = [EscapeRecord(1, 10, 5, 15, True), EscapeRecord(2, 3, 0, 18, False)]
    res = ss.check_escape_recurrence(recs, params5, 0.25)
    assert res.passed
    assert res.details["pairs"] == []


# --- growth summary ------------------------------------------------------------------------

def test_growth_needs_three_records(params5):
    recs = [EscapeRecord(1, 10, 5, 15, True), EscapeRecord(2, 25, 5, 45, True)]
    with pytest.raises(ss.InsufficientDataError):
        ss.growth_summary(recs, params5)


def test_growth_constant_sequence_ratio_one(params5):
    recs = [EscapeRecord(i, 7, 4, 11 * i, True) for i in range(1, 5)]
    assert ss.growth_summary(recs, params5).ratio == pytest.approx(1.0)


def test_growth_geometric_sequence(params5):
    recs = [EscapeRecord(i, 10 * 3**(i - 1), 4, 0, True) for i in range(1, 5)]
    s = ss.growth_summary(recs, params5)
    assert s.ratio == pytest.approx(3.0, rel=1e-12)
    assert s.n_fit == 4


def test_growth_permutation_stable(params5):
    recs = [EscapeRecord(i, 9 * 2**(i - 1), 4, 0, True) for i in range(1, 5)]
    shuffled = [recs[2], recs[0], recs[3], recs[1]]
    assert ss.growth_summary(recs, params5) == ss.growth_summary(shuffled, params5)


def test_growth_floor_at_equal_curvatures_is_flat():
    """At L == gamma the recurrence has no shift: the floor is t0 per block."""
    params = LandscapeParams(L=0.5, gamma=0.5, n_saddles=5)
    recs = [EscapeRecord(i, 7 + i, 4, 11 * i, True) for i in range(1, 5)]
    s = ss.growth_summary(recs, params)
    assert s.floor == 8 * 4 and isinstance(s.floor, float)


def test_growth_skips_incomplete_tail(params5):
    recs = [EscapeRecord(1, 10, 5, 15, True),
            EscapeRecord(2, 30, 5, 50, True),
            EscapeRecord(3, 12, 0, 62, False)]   # partial residence, not an escape
    s = ss.growth_summary(recs, params5)
    assert s.n_fit == 2
    assert s.fitted_t == (10, 30)
    assert s.ratio == pytest.approx(3.0)
    assert s.total_iterations == 62


def test_growth_on_real_run(params5):
    _, traj = gd_run(5, 0)
    s = ss.growth_summary(ss.replay(traj).records(), params5)
    assert s.ratio > 1.8
    assert s.exceeds_floor
    assert s.total_iterations == len(traj.iterates)


# --- stall detection ------------------------------------------------------------------------

def test_detect_stall_on_long_chain():
    lc, traj = gd_run(9, 0)
    info = ss.replay(traj).stall
    assert info is not None
    assert info.reason == "cross_pinned"
    # pinned strictly before the final block
    assert info.region_order < lc.regions[-1].rid.order
    # and indeed the cross coordinate sits exactly on the center line
    reg = lc.regions[info.region_order]
    axis = 1 if reg.rid.kind is RegionKind.ODD_BLOCK else 0
    assert info.position[axis] == reg.center[axis]


def test_detect_stall_none_for_short_run():
    _, traj = gd_run(1, 0)
    assert ss.replay(traj).stall is None


def test_detect_stall_pinned_center(lc5):
    center = lc5.regions[2].center  # block 2
    traj = make_trajectory(lc5, [2], positions=[center])
    info = ss.replay(traj).stall
    assert info is not None and info.t == 0


# --- report assembly ---------------------------------------------------------------------------

def _first_in_final(traj):
    return next(it.t for it in traj.iterates if it.region.kind is RegionKind.FINAL_BLOCK)


def test_first_final_entry():
    lc, traj = gd_run(1, 0)
    assert ss.replay(traj).first_final == _first_in_final(traj) > 0
    _, stuck = gd_run(9, 0)
    assert ss.replay(stuck).first_final is None


def test_first_final_entry_of_a_noisy_run():
    # a stop norm of 0 keeps the run going after it arrives; it leaves the
    # final block and comes back, and the first entry counts
    lc = Landscape(LandscapeParams(n_saddles=2))
    start = ss.init_sample(lc, np.random.default_rng([0, 0]))
    config, noise = GdConfig(max_iter=3000, stop_grad_norm=0.0), NoiseConfig(variance=0.1, seed=0)
    obs = ss.StreamObserver(lc, config, noise)
    traj = ss.run(lc, config, start, noise=noise, observer=obs)
    kinds = [it.region.kind is RegionKind.FINAL_BLOCK for it in traj.iterates]
    assert kinds[-1] and not all(kinds[kinds.index(True):])
    assert obs.first_final == ss.replay(traj).first_final == _first_in_final(traj)


def test_first_final_entry_is_the_first_of_several(lc5):
    last = len(lc5.regions) - 1
    traj = make_trajectory(lc5, [0, 1, 2, last - 1, last, last, last - 1, 3, last, last])
    assert ss.replay(traj).first_final == 4
    assert ss.replay(make_trajectory(lc5, [last, last - 1, last])).first_final == 0


def test_theory_report_real_run_serializes(params5):
    _, traj = gd_run(5, 2)
    rep = ss.replay(traj).report()
    assert rep.passed
    payload = json.dumps(rep.to_dict(), sort_keys=True)
    assert "buffer_bound" in payload
    # the bytes of asdict of the whole report less its records, with and without
    # a stall and a growth summary
    lc = Landscape(params5)
    short = ss.run(lc, GdConfig(max_iter=5), traj.iterates[0].position, NoiseConfig(0.1, 0))
    noisy = ss.replay(short).report()
    assert rep.stall is not None and rep.growth is not None
    assert noisy.stall is None and noisy.growth is None
    for report in (rep, noisy):
        whole = dataclasses.asdict(report)
        del whole["records"]
        assert json.dumps(report.to_dict()) == json.dumps({**whole, "passed": report.passed})


def test_theory_checks_pass_on_default_grid():
    # gamma = L/2 makes L=1.5 dynamics algebraically equal to L=1, but the
    # float rounding differs (eta = 1/6 is inexact), so both are exercised
    for L in (1.0, 1.5):
        eta = 1.0 / (4 * L)
        for n in (3, 5, 7, 9):
            params = LandscapeParams(L=L, gamma=L / 2, tau=1.0, n_saddles=n)
            lc = Landscape(params)
            for seed in range(20):
                start = ss.init_sample(lc, np.random.default_rng([seed, 0]))
                traj = ss.run(lc, GdConfig(), start)
                records = ss.replay(traj).records()
                assert ss.check_buffer_bound(records, params, eta).passed
                assert ss.replay(traj).containment().passed
                assert ss.check_escape_recurrence(records, params, eta).passed


def test_theory_report_skips_for_sgd():
    lc9 = Landscape(LandscapeParams(n_saddles=9))
    start = ss.init_sample(lc9, np.random.default_rng(0))
    traj = ss.run(lc9, GdConfig(stop_grad_norm=0.5, max_iter=50_000), start,
                  noise=NoiseConfig(variance=0.1, seed=0))
    rep = ss.replay(traj).report()
    assert rep.buffer_bound.skipped
    assert rep.containment.skipped
    assert rep.recurrence.skipped
    assert rep.passed


def test_detect_stall_rejects_thinned():
    # the first pinned iterate, t=68, is thinned away at record_every=7; the
    # first kept pinned one is t=70
    lc = Landscape(LandscapeParams(n_saddles=9))
    start = ss.init_sample(lc, np.random.default_rng([0, 0]))
    config = GdConfig(record_every=7)
    obs = ss.StreamObserver(lc, config)
    traj = ss.run(lc, config, start, observer=obs)
    assert obs.stall.t == 68
    with pytest.raises(ss.SegmentationError) as err:
        ss.replay(traj).stall
    assert err.value.iterate is traj.iterates[1] and traj.iterates[1].t == 7
    assert ss.replay(ss.run(lc, GdConfig(), start)).stall == obs.stall


# --- thinned replays --------------------------------------------------------------------------

@pytest.mark.parametrize("record_every", [2, 7, 50])
@pytest.mark.parametrize("algo", ["gd", "sgd"])
def test_thinned_replay_matches_dense_replay(algo, record_every):
    # a run keeps every region entry and projection, so every analysis but
    # the stall is exact on a thinned trajectory: a plain run's stall and
    # report raise there, and a noisy run's report, which has no stall, holds
    for n, seed in itertools.product((3, 5, 9), range(4)):
        lc = Landscape(LandscapeParams(n_saddles=n))
        start = ss.init_sample(lc, np.random.default_rng([seed, 0]))
        noise = NoiseConfig(variance=0.1, seed=seed) if algo == "sgd" else None
        thinned = ss.run(lc, GdConfig(record_every=record_every), start, noise=noise)
        a, b = ss.replay(thinned), ss.replay(ss.run(lc, GdConfig(), start, noise=noise))
        its = thinned.iterates
        assert a.gap is next(y for x, y in zip(its, its[1:]) if y.t != x.t + 1)
        assert b.gap is None
        assert a.records() == b.records()
        assert a.containment() == b.containment()
        assert (a.first_final, a.revisit, a.projected) == (b.first_final, b.revisit, b.projected)
        if algo == "sgd":
            assert a.report() == b.report()
            continue
        for analysis in (lambda: a.stall, a.report):
            with pytest.raises(ss.SegmentationError) as err:
                analysis()
            assert err.value.iterate is a.gap
