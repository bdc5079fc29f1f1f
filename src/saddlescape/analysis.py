"""Trajectory segmentation and theory-validation checks.

Residence counting is first-exit based: block i owns every iterate from the
first entry into its neighborhood until the first entry into anything later
in the chain.  For plain descent this coincides with direct label counts
(the chain order never decreases); for noisy descent, which can move
backward, it yields first-passage residence times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .landscape import Landscape, LandscapeParams, Point, RegionKind, derive_constants
from .descent import Event, Iterate, Trajectory


class SegmentationError(ValueError):
    def __init__(self, message: str, iterate: Iterate | None = None):
        super().__init__(message)
        self.iterate = iterate


class InsufficientDataError(ValueError):
    pass


@dataclass(frozen=True)
class EscapeRecord:
    """Residence of one block neighborhood.

    t counts iterates in block i, t_prime in its trailing buffer (0 for the
    final block), T is the first-exit iterate count of the neighborhood.
    ``complete`` is False when the trajectory ended inside the neighborhood,
    so t/t_prime are then partial residences, not escape times.
    """

    index: int
    t: int
    t_prime: int
    T: int
    complete: bool

    def to_dict(self) -> dict:
        return {"index": self.index, "t": self.t, "t_prime": self.t_prime,
                "T": self.T, "complete": self.complete}


def segment_from_orders(orders: list[int], params: LandscapeParams) -> list[EscapeRecord]:
    """EscapeRecords from a dense sequence of chain orders (one per iterate)."""
    if not orders:
        raise SegmentationError("empty trajectory")
    total = len(orders)
    first_exceed: dict[int, int] = {}
    hi = -1
    for t, o in enumerate(orders):
        if o > hi:
            for oo in range(hi, o):
                first_exceed[oo] = t
            hi = o
    n = params.n_blocks
    records = []
    for i in range(1, n + 1):
        block_order = 2 * (i - 1)
        start = 0 if i == 1 else first_exceed.get(block_order - 1)
        if start is None:
            break
        mid = first_exceed.get(block_order)
        end = first_exceed.get(block_order + 1) if i < n else None
        t_block = (mid if mid is not None else total) - start
        if i == n:
            t_buf = 0
            T = total
            complete = False
        else:
            t_buf = (end if end is not None else total) - (mid if mid is not None else total)
            T = end if end is not None else total
            complete = end is not None
        records.append(EscapeRecord(i, t_block, t_buf, T, complete))
        if not complete:
            break
    return records


def segment(trajectory: Trajectory) -> list[EscapeRecord]:
    """Segment a dense (record_every == 1) trajectory into escape records.

    Plain-descent trajectories must never revisit an earlier region; noisy
    ones may, and are counted on a first-passage basis.
    """
    its = trajectory.iterates
    if not its:
        raise SegmentationError("empty trajectory")
    for a, b in zip(its, its[1:]):
        if b.t != a.t + 1:
            raise SegmentationError(
                f"trajectory is thinned (gap {a.t} -> {b.t}); segmentation needs "
                "record_every == 1 or a streaming observer", b)
    orders = []
    for it in its:
        if it.region.is_outside:
            raise SegmentationError(f"iterate {it.t} is outside D", it)
        orders.append(it.region.order)
    if not trajectory.is_noisy:
        for prev, cur in zip(its, its[1:]):
            if cur.region.order < prev.region.order:
                raise SegmentationError(
                    f"plain descent revisited region order {cur.region.order} at t={cur.t}", cur)
    return segment_from_orders(orders, trajectory.params)


@dataclass
class TheoryCheck:
    name: str
    passed: bool
    skipped: bool = False
    details: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "skipped": self.skipped,
                "details": self.details, "witnesses": self.witnesses}


def buffer_residence_bound(params: LandscapeParams, eta: float) -> int:
    """Upper bound on iterates spent inside any buffer: ceil(1/(eta*gamma))."""
    return math.ceil(1.0 / (eta * params.gamma))


def check_buffer_bound(records: list[EscapeRecord], params: LandscapeParams,
                       eta: float) -> TheoryCheck:
    """Every measured buffer residence stays within ceil(1/(eta*gamma))."""
    bound = buffer_residence_bound(params, eta)
    margins = []
    witnesses = []
    for rec in records:
        if rec.index > params.n_saddles:
            continue
        margins.append({"index": rec.index, "t_prime": rec.t_prime,
                        "margin": bound - rec.t_prime})
        if rec.t_prime > bound:
            witnesses.append({"index": rec.index, "t_prime": rec.t_prime, "bound": bound})
    return TheoryCheck("buffer_residence_bound", passed=not witnesses,
                       details={"bound": bound, "margins": margins},
                       witnesses=witnesses)


def check_containment(trajectory: Trajectory) -> TheoryCheck:
    """Plain descent from the valid start band never leaves D and is never
    projected.  Skipped for noisy descent, where no such claim holds."""
    if trajectory.is_noisy:
        return TheoryCheck("containment", passed=True, skipped=True,
                           details={"reason": "no containment claim for noisy descent"})
    witnesses = []
    for it in trajectory.iterates:
        if it.region.is_outside:
            witnesses.append({"t": it.t, "kind": "outside", "position": list(it.position)})
        elif it.event is Event.PROJECTED:
            witnesses.append({"t": it.t, "kind": "projected", "position": list(it.position)})
    return TheoryCheck("containment", passed=not witnesses, witnesses=witnesses)


def check_escape_recurrence(records: list[EscapeRecord], params: LandscapeParams,
                            eta: float) -> TheoryCheck:
    """Escape times of consecutive completed saddle blocks grow by at least
    the curvature ratio, up to the buffer slack; first escape exceeds its
    floor.  Requires L >= 2*gamma."""
    L, g = params.L, params.gamma
    if L < 2.0 * g:
        raise ValueError(f"recurrence check requires L >= 2*gamma, got L={L} gamma={g}")
    ratio = L / g
    slack = 1.0 / (eta * g)
    shift = 4.0 * L / (L - g)
    first_floor = 4.0 * L / g

    saddles = {rec.index: rec for rec in records
               if rec.index <= params.n_saddles and rec.complete}
    pairs = []
    witnesses = []
    for i in sorted(saddles):
        if i + 1 not in saddles:
            continue
        ta, tb = saddles[i].t, saddles[i + 1].t
        ok_slack = tb > ratio * ta - slack
        ok_shift = (tb - shift) > ratio * (ta - shift)
        pairs.append({"pair": [i, i + 1], "t": [ta, tb],
                      "slack_bound": ratio * ta - slack, "ok_slack": ok_slack,
                      "shift_bound": ratio * (ta - shift) + shift, "ok_shift": ok_shift})
        if not (ok_slack and ok_shift):
            witnesses.append(pairs[-1])
    details = {"ratio": ratio, "slack": slack, "shift": shift, "pairs": pairs}
    if 1 in saddles:
        t1_ok = saddles[1].t > first_floor
        details["t1"] = saddles[1].t
        details["t1_floor"] = first_floor
        if not t1_ok:
            witnesses.append({"t1": saddles[1].t, "floor": first_floor})
    return TheoryCheck("escape_recurrence", passed=not witnesses,
                       details=details, witnesses=witnesses)


@dataclass(frozen=True)
class GrowthSummary:
    ratio: float              # fitted per-block multiplicative factor
    n_fit: int                # completed saddle escapes used in the fit
    fitted_t: tuple[int, ...]
    floor: float              # recurrence floor on the summed escape times
    total_iterations: int     # all residences, complete or not
    exceeds_floor: bool

    def to_dict(self) -> dict:
        return {"ratio": self.ratio, "n_fit": self.n_fit,
                "fitted_t": list(self.fitted_t), "floor": self.floor,
                "total_iterations": self.total_iterations,
                "exceeds_floor": self.exceeds_floor}


def growth_summary(records: list[EscapeRecord], params: LandscapeParams) -> GrowthSummary:
    """Fit the geometric growth of completed escape times and compare the
    measured total against the recurrence floor unrolled from the first one."""
    if len(records) < 3:
        raise InsufficientDataError(f"need >= 3 records, got {len(records)}")
    recs = sorted(records, key=lambda r: r.index)
    fit = [(r.index, r.t) for r in recs
           if r.index <= params.n_saddles and r.complete and r.t > 0]
    if len(fit) < 2:
        raise InsufficientDataError(
            f"need >= 2 completed saddle escapes to fit a ratio, got {len(fit)}")
    ks = [k for k, _ in fit]
    ys = [math.log(t) for _, t in fit]
    kbar = sum(ks) / len(ks)
    ybar = sum(ys) / len(ys)
    slope = (sum((k - kbar) * (y - ybar) for k, y in zip(ks, ys))
             / sum((k - kbar) ** 2 for k in ks))
    ratio = math.exp(slope)

    L, g = params.L, params.gamma
    r = L / g
    t0 = fit[0][1]
    span = fit[-1][0] - fit[0][0] + 1
    if L > g:
        c = 4.0 * L / (L - g)
        floor = sum((t0 - c) * r**j + c for j in range(span))
    else:
        floor = float(t0 * span)
    total = sum(rec.t + rec.t_prime for rec in recs)
    return GrowthSummary(ratio=ratio, n_fit=len(fit),
                         fitted_t=tuple(t for _, t in fit), floor=floor,
                         total_iterations=total, exceeds_floor=total > floor)


@dataclass(frozen=True)
class StallInfo:
    t: int
    position: Point
    region_order: int
    reason: str   # cross_pinned | fixed_point | zero_gradient

    def to_dict(self) -> dict:
        return {"t": self.t, "position": list(self.position),
                "region_order": self.region_order, "reason": self.reason}


def _cross_distance(landscape: Landscape, it: Iterate) -> float | None:
    """Distance of the converging (cross) coordinate to the block center;
    None outside non-final blocks."""
    kind = it.region.kind
    if kind is RegionKind.ODD_BLOCK:
        axis = 1
    elif kind is RegionKind.EVEN_BLOCK:
        axis = 0
    else:
        return None
    center = landscape.regions[it.region.order].center
    return it.position[axis] - center[axis]


def detect_stall(trajectory: Trajectory) -> StallInfo | None:
    """First iterate where descent is numerically doomed: the cross
    coordinate sits exactly on a non-final block's center line, or ``run``
    stopped the run as stalled (zero gradient or a noise-free fixed point)."""
    landscape = Landscape(trajectory.params)
    for it in trajectory.iterates:
        if not it.region.is_outside:
            d = _cross_distance(landscape, it)
            if d is not None and d == 0.0:
                return StallInfo(it.t, it.position, it.region.order, "cross_pinned")
        if it.event is Event.STALLED:
            reason = "zero_gradient" if it.grad_norm == 0.0 else "fixed_point"
            return StallInfo(it.t, it.position, it.region.order, reason)
    return None


def first_final_entry(trajectory: Trajectory) -> int | None:
    """Iteration index of the first recorded iterate inside the final block.

    Region-entry iterates always carry an event and survive thinning, so
    this is exact for any record_every.
    """
    for it in trajectory.iterates:
        if it.region.kind is RegionKind.FINAL_BLOCK:
            return it.t
    return None


@dataclass
class TheoryReport:
    buffer_bound: TheoryCheck
    containment: TheoryCheck
    recurrence: TheoryCheck
    growth: GrowthSummary | None
    stall: StallInfo | None

    @property
    def passed(self) -> bool:
        return (self.buffer_bound.passed and self.containment.passed
                and self.recurrence.passed)

    def to_dict(self) -> dict:
        return {
            "buffer_bound": self.buffer_bound.to_dict(),
            "containment": self.containment.to_dict(),
            "recurrence": self.recurrence.to_dict(),
            "growth": self.growth.to_dict() if self.growth else None,
            "stall": self.stall.to_dict() if self.stall else None,
            "passed": self.passed,
        }


def _assemble_theory(records, params, eta, noisy, containment, stall) -> TheoryReport:
    if noisy:
        buffer_bound = TheoryCheck("buffer_residence_bound", passed=True, skipped=True,
                                   details={"reason": "bound claimed for plain descent only"})
    else:
        buffer_bound = check_buffer_bound(records, params, eta)
    if noisy or params.L < 2.0 * params.gamma:
        reason = ("claimed for plain descent only" if noisy
                  else "requires L >= 2*gamma")
        recurrence = TheoryCheck("escape_recurrence", passed=True, skipped=True,
                                 details={"reason": reason})
    else:
        recurrence = check_escape_recurrence(records, params, eta)
    try:
        growth = growth_summary(records, params)
    except InsufficientDataError:
        growth = None
    return TheoryReport(buffer_bound=buffer_bound, containment=containment,
                        recurrence=recurrence, growth=growth, stall=stall)


def theory_report(trajectory: Trajectory, eta: float | None = None) -> TheoryReport:
    """Run every theory check that applies to this trajectory."""
    params = trajectory.params
    if eta is None:
        eta = (trajectory.config.eta if trajectory.config.eta is not None
               else derive_constants(params).eta_default)
    return _assemble_theory(segment(trajectory), params, eta, trajectory.is_noisy,
                            check_containment(trajectory), detect_stall(trajectory))


class StreamObserver:
    """Per-iterate collector giving exact segmentation for any record_every.

    Feed it to ``run`` as the observer; it keeps only chain orders and a few
    first-occurrence markers, never whole iterates.
    """

    def __init__(self, landscape: Landscape):
        self.landscape = landscape
        self.orders: list[int] = []
        self.projected_at: int | None = None
        self.first_final: int | None = None
        self.revisit_at: int | None = None
        self.stall: StallInfo | None = None
        self._prev_order: int | None = None

    def __call__(self, it: Iterate) -> None:
        order = it.region.order
        self.orders.append(order)
        if it.event is Event.PROJECTED and self.projected_at is None:
            self.projected_at = it.t
        if self.first_final is None and it.region.kind is RegionKind.FINAL_BLOCK:
            self.first_final = it.t
        prev = self._prev_order
        if prev is not None and order < prev and self.revisit_at is None:
            self.revisit_at = it.t
        if self.stall is None:
            d = _cross_distance(self.landscape, it)
            if d is not None and d == 0.0:
                self.stall = StallInfo(it.t, it.position, order, "cross_pinned")
            elif it.event is Event.STALLED:
                reason = "zero_gradient" if it.grad_norm == 0.0 else "fixed_point"
                self.stall = StallInfo(it.t, it.position, order, reason)
        self._prev_order = order

    def records(self, params: LandscapeParams, noisy: bool) -> list[EscapeRecord]:
        if not noisy and self.revisit_at is not None:
            raise SegmentationError(
                f"plain descent revisited an earlier region at t={self.revisit_at}")
        return segment_from_orders(self.orders, params)

    def report(self, params: LandscapeParams, eta: float, noisy: bool) -> TheoryReport:
        records = self.records(params, noisy)
        if noisy:
            containment = TheoryCheck("containment", passed=True, skipped=True,
                                      details={"reason":
                                               "no containment claim for noisy descent"})
        else:
            witnesses = []
            if self.projected_at is not None:
                witnesses.append({"t": self.projected_at, "kind": "projected"})
            containment = TheoryCheck("containment", passed=not witnesses,
                                      witnesses=witnesses)
        return _assemble_theory(records, params, eta, noisy, containment, self.stall)
