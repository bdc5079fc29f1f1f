"""Trajectory segmentation and theory-validation checks.

Residence counting is first-exit based: block i owns every iterate from the
first entry into its neighborhood until the first entry into anything later
in the chain.  For plain descent this coincides with direct label counts
(the chain order never decreases); for noisy descent, which can move
backward, it yields first-passage residence times.

Every analysis is a pass of ``StreamObserver`` over the iterates: ``run``
feeds it while descending, and ``replay`` feeds it the stored iterates of a
``Trajectory``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from .landscape import Landscape, LandscapeParams, Point, RegionId
from .descent import Event, GdConfig, Iterate, NoiseConfig, Trajectory, step_settings


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


def replay(trajectory: Trajectory) -> "StreamObserver":
    """A fresh observer of the trajectory's run, fed every stored iterate."""
    observer = StreamObserver(Landscape(trajectory.params), trajectory.config, trajectory.noise)
    for it in trajectory.iterates:
        observer(*it)
    return observer


@dataclass
class TheoryCheck:
    name: str
    passed: bool
    skipped: bool = False
    details: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)


def _skipped(name: str, reason: str) -> TheoryCheck:
    return TheoryCheck(name, passed=True, skipped=True, details={"reason": reason})


def buffer_residence_bound(params: LandscapeParams, eta: float) -> int:
    """Upper bound on iterates spent inside any buffer: ceil(1/(eta*gamma))."""
    bound = 1.0 / (eta * params.gamma) if eta * params.gamma else math.inf   # 0: underflow
    if math.isinf(bound):
        raise ValueError(f"eta={eta!r} too small: 1/(eta*gamma) overflows, gamma={params.gamma!r}")
    return math.ceil(bound)


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


def _recurrence_constants(params: LandscapeParams) -> tuple[float, float | None]:
    """L/gamma and, where L > gamma, the shift 4L/(L - gamma) of the escape-time recurrence."""
    L, g = params.L, params.gamma
    return params.derived.lower_bound_base, (4.0 * L / (L - g) if L > g else None)


def check_escape_recurrence(records: list[EscapeRecord], params: LandscapeParams,
                            eta: float) -> TheoryCheck:
    """Escape times of consecutive completed saddle blocks grow by at least
    the curvature ratio, up to the buffer slack; first escape exceeds its
    floor.  Requires L >= 2*gamma."""
    L, g = params.L, params.gamma
    if L < 2.0 * g:
        raise ValueError(f"recurrence check requires L >= 2*gamma, got L={L} gamma={g}")
    ratio, shift = _recurrence_constants(params)
    slack = 1.0 / (eta * g)
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
    ks, ys = [k for k, _ in fit], [math.log(t) for _, t in fit]
    kbar, ybar = sum(ks) / len(ks), sum(ys) / len(ys)
    slope = (sum((k - kbar) * (y - ybar) for k, y in zip(ks, ys))
             / sum((k - kbar) ** 2 for k in ks))
    ratio = math.exp(slope)

    r, c = _recurrence_constants(params)
    t0 = fit[0][1]
    span = fit[-1][0] - fit[0][0] + 1
    if c is not None:
        try:
            floor = sum((t0 - c) * r**j + c for j in range(span))
        except OverflowError:   # r**j exceeds the floats: the floor is unbounded
            floor = math.copysign(math.inf, t0 - c) if t0 != c else c * span
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
    reason: str   # cross_pinned | fixed_point


@dataclass
class TheoryReport:
    records: list[EscapeRecord]     # the segmentation the checks ran on
    buffer_bound: TheoryCheck
    containment: TheoryCheck        # always skipped: run raises where an iterate leaves D
    recurrence: TheoryCheck
    growth: GrowthSummary | None
    stall: StallInfo | None

    @property
    def passed(self) -> bool:
        return self.buffer_bound.passed and self.recurrence.passed

    def to_dict(self) -> dict:
        """The checks, growth, stall and verdict; ``records`` is left out."""
        d = {f.name: None if (v := getattr(self, f.name)) is None else asdict(v)
             for f in fields(self) if f.name != "records"}
        return {**d, "passed": self.passed}


class StreamObserver:
    """The one pass from iterates to residences, stall and the first entry
    into the final block of one run, whose step size and noisiness it holds;
    every analysis but ``stall`` is exact on a thinned stream.  It checks no
    containment: ``run`` raises where an iterate leaves D.

    Feed it to ``run`` as the observer; it takes each iterate's six fields,
    keeps the first step past each chain order, and builds an ``Iterate``
    only for the first gap and revisit, which it records.
    """

    def __init__(self, landscape: Landscape, config: GdConfig, noise: NoiseConfig | None = None):
        self.landscape = landscape
        self.eta, self.noisy = step_settings(landscape.params, config, noise)
        self.first_exceed: dict[int, int] = {}   # chain order -> first t beyond it
        self.end = 0                    # one past the last t seen
        self.gap: Iterate | None = None  # first iterate whose t is not one past the last
        self.revisit: Iterate | None = None  # first step back to an earlier order
        self._stall: StallInfo | None = None
        self._hi = -1                   # highest chain order seen
        # by chain order, (axis, center) of the converging coordinate of
        # each saddle block, None elsewhere
        self._cross: list[tuple[int, float] | None] = [None] * len(landscape.regions)
        for reg in landscape.regions[:-1:2]:    # the saddle blocks
            self._cross[reg.rid.order] = (1 - reg.axis, reg.center[1 - reg.axis])

    def __call__(self, t: int, position: Point, f_value: float, grad_norm: float,
                 region: RegionId, event: Event | None = None) -> None:
        if t != self.end and self.gap is None:
            self.gap = Iterate(t, position, f_value, grad_norm, region, event)
        self.end = t + 1
        order = region.order
        if order > self._hi:
            for o in range(self._hi, order):
                self.first_exceed[o] = t
            self._hi = order
        elif order < self._hi and self.revisit is None:
            self.revisit = Iterate(t, position, f_value, grad_norm, region, event)
        if self._stall is None:
            # numerically doomed: the cross coordinate sits exactly on a non-final
            # block's center line, or run stopped as stalled, at a fixed point (a zero
            # gradient off the final block lies on a saddle centre, pinned here first);
            # most events are None, and an Event member lookup costs ~0.1 us on Python 3.11
            cross = self._cross[order]
            if cross is not None and position[cross[0]] == cross[1]:
                self._stall = StallInfo(t, position, order, "cross_pinned")
            elif event is not None and event is Event.STALLED:
                self._stall = StallInfo(t, position, order, "fixed_point")

    @property
    def stall(self) -> StallInfo | None:
        """The first exact pin or stalled iterate; on a thinned stream, which
        may hide it, raises SegmentationError carrying the first iterate after a gap."""
        if self.gap is not None:
            raise SegmentationError(f"stream is thinned at t={self.gap.t}; the stall needs "
                                    "every iterate: record_every == 1 or a streaming observer",
                                    self.gap)
        return self._stall

    @property
    def first_final(self) -> int | None:
        """The t of the first iterate in the final block (the first t beyond the last buffer)."""
        return self.first_exceed.get(2 * self.landscape.params.n_blocks - 3)

    def records(self) -> list[EscapeRecord]:
        """Escape records of every block reached; raises SegmentationError,
        carrying the iterate, on a plain-descent revisit."""
        if not self.end:
            raise SegmentationError("empty trajectory")
        if not self.noisy and self.revisit is not None:
            it = self.revisit
            raise SegmentationError(
                f"plain descent revisited region order {it.region.order} at t={it.t}", it)
        total, first_exceed = self.end, self.first_exceed
        n = self.landscape.params.n_blocks

        def at(o):      # first t beyond chain order o; the first iterate sets at(-1) = 0
            return first_exceed.get(o, total)

        records = []
        for o in range(0, 2 * n - 1, 2):        # the blocks' chain orders
            complete = o + 1 in first_exceed
            records.append(EscapeRecord(o // 2 + 1, at(o) - at(o - 1), at(o + 1) - at(o),
                                        at(o + 1), complete))
            if not complete:
                break
        return records

    def report(self) -> TheoryReport:
        """Every theory check that applies, on one segmentation.  The stall is a
        plain run's first pin or fixed point, if it never entered the final block:
        the next block holds the minimum.  A noisy run reports no stall, since a later
        kick frees any pin it met, so only a plain run's report needs every iterate."""
        params, eta, noisy = self.landscape.params, self.eta, self.noisy
        records = self.records()
        stall = None if noisy else self.stall   # raises on a thinned plain stream
        buffer_bound = (_skipped("buffer_residence_bound", "bound claimed for plain descent only")
                        if noisy else check_buffer_bound(records, params, eta))
        if noisy or params.L < 2.0 * params.gamma:
            recurrence = _skipped("escape_recurrence", "claimed for plain descent only" if noisy
                                  else "requires L >= 2*gamma")
        else:
            recurrence = check_escape_recurrence(records, params, eta)
        containment = _skipped("containment", "no containment claim for noisy descent" if noisy
                               else "decided by run, which raises where an iterate leaves D")
        try:
            growth = growth_summary(records, params)
        except InsufficientDataError:
            growth = None
        return TheoryReport(records=records, buffer_bound=buffer_bound,
                            containment=containment, recurrence=recurrence,
                            growth=growth, stall=stall if self.first_final is None else None)
