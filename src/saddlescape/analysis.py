"""Trajectory segmentation and theory-validation checks.

Residence counting is first-exit based: block i owns every iterate from the
first entry into its neighborhood until the first entry into anything later
in the chain.  For plain descent this coincides with direct label counts
(the chain order never decreases); for noisy descent, which can move
backward, it yields first-passage residence times.

Every analysis is a pass of ``StreamObserver`` over the iterates: ``run``
feeds it while descending, and the functions taking a ``Trajectory`` replay
the stored iterates through one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .landscape import Landscape, LandscapeParams, Point, RegionKind
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


def _replay(trajectory: Trajectory, dense: bool = False) -> "StreamObserver":
    """A fresh observer fed every stored iterate; ``dense`` first requires
    that none were thinned away, as exact residences need them all."""
    its = trajectory.iterates
    if dense:
        for a, b in zip(its, its[1:]):
            if b.t != a.t + 1:
                raise SegmentationError(
                    f"trajectory is thinned (gap {a.t} -> {b.t}); segmentation needs "
                    "record_every == 1 or a streaming observer", b)
    observer = StreamObserver(Landscape(trajectory.params))
    for it in its:
        observer(it)
    return observer


def segment(trajectory: Trajectory) -> list[EscapeRecord]:
    """Segment a dense (record_every == 1) trajectory into escape records.

    Plain-descent trajectories must never revisit an earlier region; noisy
    ones may, and are counted on a first-passage basis.
    """
    return _replay(trajectory, dense=True).records(trajectory.is_noisy)


@dataclass
class TheoryCheck:
    name: str
    passed: bool
    skipped: bool = False
    details: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)


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
    """``StreamObserver.containment`` over the stored iterates."""
    return _replay(trajectory).containment(trajectory.is_noisy)


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


def detect_stall(trajectory: Trajectory) -> StallInfo | None:
    """First iterate where descent is numerically doomed (see
    ``StreamObserver.__call__``), or None; for a noisy run, the first pin,
    which a later kick may free (its report then has no stall).  Raises
    SegmentationError on a thinned trajectory, whose first kept pinned
    iterate need not be the first pinned one."""
    return _replay(trajectory, dense=True).stall


def first_final_entry(trajectory: Trajectory) -> int | None:
    """Iteration index of the first recorded iterate inside the final block.

    Region-entry iterates always carry an event and survive thinning, so
    this is exact for any record_every.
    """
    return _replay(trajectory).first_final


@dataclass
class TheoryReport:
    records: list[EscapeRecord]     # the segmentation the checks ran on
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
        """The checks, growth, stall and verdict; ``records`` is left out."""
        d = asdict(self)
        del d["records"]
        d["passed"] = self.passed
        return d


def theory_report(trajectory: Trajectory) -> TheoryReport:
    """Run every theory check that applies to this dense trajectory."""
    return _replay(trajectory, dense=True).report(trajectory.eta, trajectory.is_noisy)


_CROSS_AXIS = {RegionKind.ODD_BLOCK: 1, RegionKind.EVEN_BLOCK: 0}


class StreamObserver:
    """The one pass from iterates to residences, stall, containment and the
    first entry into the final block; exact for any record_every.

    Feed it to ``run`` as the observer; it keeps the first step past each
    chain order and a few first-occurrence markers, never every iterate.
    """

    def __init__(self, landscape: Landscape):
        self.landscape = landscape
        self.first_exceed: dict[int, int] = {}   # chain order -> first t beyond it
        self.end = 0                    # one past the last t seen
        self.first_final: int | None = None
        self.projected: Iterate | None = None
        self.outside: Iterate | None = None
        self.revisit: Iterate | None = None  # first step back to an earlier order
        self.stall: StallInfo | None = None
        self._hi = -1                   # highest chain order seen
        # (axis, center) of the converging coordinate of each non-final
        # block; the key None is the order of an outside iterate
        self._cross: dict[int | None, tuple[int, float] | None] = {None: None}
        for reg in landscape.regions:
            axis = _CROSS_AXIS.get(reg.rid.kind)
            self._cross[reg.rid.order] = None if axis is None else (axis, reg.center[axis])

    def __call__(self, it: Iterate) -> None:
        order = it.region.order
        t = it.t
        self.end = t + 1
        if order is None:
            if self.outside is None:
                self.outside = it
        elif order > self._hi:
            for o in range(self._hi, order):
                self.first_exceed[o] = t
            self._hi = order
            if it.region.kind is RegionKind.FINAL_BLOCK:
                self.first_final = t
        elif order < self._hi and self.revisit is None:
            self.revisit = it
        event = it.event
        if self.stall is None:
            # numerically doomed: the cross coordinate sits exactly on a
            # non-final block's center line, or run stopped as stalled
            # (zero gradient or a noise-free fixed point)
            cross = self._cross[order]
            if cross is not None and it.position[cross[0]] == cross[1]:
                self.stall = StallInfo(t, it.position, order, "cross_pinned")
            elif event is Event.STALLED:
                reason = "zero_gradient" if it.grad_norm == 0.0 else "fixed_point"
                self.stall = StallInfo(t, it.position, order, reason)
        if event is Event.PROJECTED and self.projected is None:
            self.projected = it

    def records(self, noisy: bool) -> list[EscapeRecord]:
        """Escape records of every block reached; raises SegmentationError,
        carrying the iterate, on an outside iterate or a plain-descent revisit."""
        if not self.end:
            raise SegmentationError("empty trajectory")
        if self.outside is not None:
            raise SegmentationError(f"iterate {self.outside.t} is outside D", self.outside)
        if not noisy and self.revisit is not None:
            it = self.revisit
            raise SegmentationError(
                f"plain descent revisited region order {it.region.order} at t={it.t}", it)
        total, first_exceed = self.end, self.first_exceed
        n = self.landscape.params.n_blocks
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

    def containment(self, noisy: bool) -> TheoryCheck:
        """Plain descent from the valid start band never leaves D and is never
        projected; witnesses are the first projected and the first outside
        iterate.  Skipped for noisy descent, where no such claim holds."""
        if noisy:
            return TheoryCheck("containment", passed=True, skipped=True,
                               details={"reason": "no containment claim for noisy descent"})
        witnesses = [{"t": it.t, "kind": kind, "position": list(it.position)}
                     for kind, it in (("projected", self.projected), ("outside", self.outside))
                     if it is not None]
        return TheoryCheck("containment", passed=not witnesses, witnesses=witnesses)

    def report(self, eta: float, noisy: bool) -> TheoryReport:
        """Every theory check that applies, on one segmentation.  A noisy
        run reports no stall: a later kick frees any pin it met."""
        params = self.landscape.params
        records = self.records(noisy)
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
        return TheoryReport(records=records, buffer_bound=buffer_bound,
                            containment=self.containment(noisy), recurrence=recurrence,
                            growth=growth, stall=None if noisy else self.stall)
