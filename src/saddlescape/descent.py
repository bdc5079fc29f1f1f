"""Gradient descent and noisy gradient descent on the staircase landscape.

A run is a strictly sequential loop; several runs (seed sweeps) can execute
concurrently since the landscape itself is immutable.  Noisy descent kicks
the iterate after the gradient step and projects it back onto D if it left
its region's square; plain descent never projects from the valid start band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .landscape import (FINAL_CODE, Landscape, LandscapeParams, OutsideDomainError, Point,
                        RegionId, check_count, check_real)

if TYPE_CHECKING:
    import numpy as np

INIT_BAND = 1.0 / (2.0 * math.e * math.e)   # max |x1 - s1| at the start, in units of tau
KICK_BLOCK = 128   # kicks a noisy run draws per call of its generator
NEAR, TINY = 1.0 + math.ldexp(1.0, -46), math.ldexp(1.0, -960)   # see project_to_domain


class Event(Enum):
    BLOCK_ENTRY = "block_entry"
    BUFFER_ENTRY = "buffer_entry"
    PROJECTED = "projected"
    STALLED = "stalled"
    CONVERGED = "converged"


class Outcome(Enum):
    REACHED_MINIMUM = "reached_minimum"
    BUDGET = "budget"
    STALLED = "stalled"


@dataclass(frozen=True)
class GdConfig:
    eta: float | None = None          # None: use the landscape default 1/(4L)
    max_iter: int = 1_000_000
    stop_grad_norm: float | None = None   # None: 1e-10*L*tau, or L*tau/2 under noise above 0
    record_every: int = 1

    def __post_init__(self):
        if self.eta is not None:
            check_real("eta", self.eta)
        check_count("max_iter", self.max_iter, 1)
        if self.stop_grad_norm is not None:
            check_real("stop_grad_norm", self.stop_grad_norm, positive=False)
        check_count("record_every", self.record_every, 1)


@dataclass(frozen=True)
class NoiseConfig:
    variance: float = 0.1     # per-coordinate Gaussian variance of each kick
    seed: int = 0

    def __post_init__(self):
        check_real("variance", self.variance, positive=False)
        check_count("seed", self.seed, 0)


def step_settings(params: LandscapeParams, config: GdConfig,
                  noise: NoiseConfig | None) -> tuple[float, bool]:
    """The step size a run takes, config.eta or the default 1/(4L), and
    whether it is noisy: given noise of positive variance."""
    eta = config.eta if config.eta is not None else params.derived.eta_default
    return eta, noise is not None and noise.variance > 0


class Iterate(NamedTuple):
    t: int
    position: Point
    f_value: float
    grad_norm: float
    region: RegionId
    event: Event | None = None


@dataclass(frozen=True)
class Trajectory:
    params: LandscapeParams
    config: GdConfig
    noise: NoiseConfig | None
    iterates: tuple[Iterate, ...]
    outcome: Outcome

    @property
    def total_steps(self) -> int:
        return self.iterates[-1].t


def init_sample(landscape: Landscape, rng: np.random.Generator) -> Point:
    """Start point in the first block: x1 within the narrow band around the
    center (never exactly on it), x2 uniform over the block."""
    b1 = landscape.regions[0]
    tau = landscape.params.tau
    s1 = b1.center[0]
    cap = tau * INIT_BAND
    u = rng.uniform(0.0, cap)
    while u == 0.0:
        u = rng.uniform(0.0, cap)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    x2 = rng.uniform(b1.bounds[2], b1.bounds[3])
    return (s1 + sign * u, x2)


# Kept public: perfbench's tracer and probes wrap it by name, and test oracles call it.
def project_to_domain(landscape: Landscape, p: Point) -> Point:
    """The exact nearest point of D to p, of equally near ones the one in the earliest square;
    p itself if a coordinate is NaN or infinite.  The scan stops at the first square whose right
    and top edges are at or beyond p: no edge decreases along the chain, so no later square is
    nearer.  A squared distance in float64 (or in mpf of 53 bits and up) is within a factor
    (1 + 2^-53)^4 of the exact one, or about 2^-1073 off if it underflows: candidates within a
    factor NEAR plus TINY of each other compare exactly, unless they are the same point."""
    x1, x2 = p
    if x1 - x1 or x2 - x2:   # NaN, not 0, for a NaN or infinite coordinate
        return p
    best, best_d = None, math.inf
    for reg in landscape.regions:
        a, b, c, d = reg.bounds
        px, py = min(max(x1, a), b), min(max(x2, c), d)
        u, v = px - x1, py - x2
        dd = u * u + v * v
        if dd <= best_d * NEAR + TINY and (dd * NEAR + TINY < best_d or best is None or (
                (px, py) != best and _exact_sq((px, py), p) < _exact_sq(best, p))):
            best, best_d = (px, py), dd
        if u >= 0 and v >= 0:   # x1 <= b and x2 <= d: the stop rule above
            break
    return best


def _exact_sq(q: Point, p: Point):
    """|q - p|^2 as a Fraction; an mpf is read exactly, as its mantissa m times 2^e."""
    from fractions import Fraction   # imported here, off the startup path
    f = [Fraction(m) * Fraction(1 << max(e, 0), 1 << max(-e, 0))
         for m, e in (getattr(v, "man_exp", (v, 0)) for v in (*q, *p))]
    return (f[0] - f[2]) * (f[0] - f[2]) + (f[1] - f[3]) * (f[1] - f[3])


def _kicks(noise: NoiseConfig) -> Iterator[Point]:
    """Endless Gaussian kicks of per-coordinate variance noise.variance,
    from a generator of their own seeded by noise.seed.

    Each ``KICK_BLOCK`` kicks are one ``standard_normal(2 * KICK_BLOCK)``
    draw, taken in pairs: the same values as ``KICK_BLOCK`` draws of
    ``standard_normal(2)``.  The scale is applied to the float64 array,
    which gives the same bits as in Python floats, and the kicks come out
    as Python floats, which keeps every later operation on the iterate fast.
    """
    import numpy as np   # imported here, off the plain-descent path
    rng = np.random.default_rng(noise.seed)
    s = math.sqrt(noise.variance)
    while True:
        z = (s * rng.standard_normal(2 * KICK_BLOCK)).tolist()
        yield from zip(z[0::2], z[1::2])


def run(landscape: Landscape, config: GdConfig, start: Point,
        noise: NoiseConfig | None = None,
        observer: Callable[..., None] | None = None) -> Trajectory:
    """Descend from ``start`` until convergence, stall, or budget.

    Terminal conditions, checked in order at each iterate:
      - inside the final block with grad norm <= stop_grad_norm (converged);
        by default 1e-10*L*tau, which scales with the gradient's units, or
        L*tau/2 for a noisy run (``noise`` of variance above 0), since
        persistent noise keeps the gradient above any tiny threshold and a
        noisy run stops on solid entry into the bowl instead;
      - the iteration budget is exhausted;
      - a noise-free step leaves the position bitwise unchanged, as at a zero gradient (stalled).
    A noisy run never stalls: a kick can still move a point of zero
    gradient, and two kicks can project onto the same corner of D before
    the next kick moves on.  Noise of variance 0 is plain descent: no kicks,
    no projection, the same iterates as ``noise=None``.
    The run steps in the number type of the landscape's parameters: float
    for float or int parameters, and, say, ``mpmath.mpf`` for ``mpf`` ones,
    with the start cast to it; the kicks stay float64 draws.
    ``observer(t, position, f_value, grad_norm, region, event)`` sees every iterate,
    through its ``__call__`` bound once per run;
    an ``Iterate`` is stored only for every record_every-th, event-tagged and last one.
    The outer loop runs once per region visited and reads what the region fixes
    once: its square, identity, whether it is final, and the arguments of its
    closed form (kind code, center, value and buffer offsets, branch axis and
    line, the curvatures on the two sides).  Each pass of the inner loop is one
    step: one call of ``landscape._form``, looked up on the instance, and the
    step of the iterate's two coordinates.  A candidate (the step, plus the kick
    if noisy) strictly inside the open square of the current region lies in D
    and in no other closed square: it keeps that region, neither projected nor
    located.  Any other is projected, if the run is noisy, to the exact nearest point
    of D, on a tie the earliest square's, then located.  ``project_to_domain`` scans the
    squares in chain order and stops at the first whose right and top edges reach the
    candidate, since no edge decreases along the chain.  The kicks come from a generator
    private to the run, ``KICK_BLOCK`` per draw.
    """
    reg = landscape.locate(start)
    if reg is None:
        raise OutsideDomainError(f"start {start} is outside D")
    params = landscape.params
    eta, noisy = step_settings(params, config, noise)
    kicks = _kicks(noise) if noisy else None
    stop = config.stop_grad_norm
    if stop is None:
        stop = params.L * params.tau / 2.0 if noisy else 1e-10 * params.L * params.tau
    max_iter, record_every = config.max_iter, config.record_every
    locate, form, project, hypot = landscape.locate, landscape._form, project_to_domain, math.hypot
    num = type(landscape.derived.nu)   # the parameters' number type (nu / 4 makes ints float)
    # the bound __call__: calling a StreamObserver instance looks __call__ up on every step
    observe = None if observer is None else observer.__call__

    x1, x2 = num(start[0]), num(start[1])
    kept: list[Iterate] = []
    t, event = 0, None   # event: set on arrival
    while True:    # one pass per region visited
        a, b, c, d = reg.bounds
        rid, code, in_final = reg.rid, reg.code, reg.code == FINAL_CODE
        (s1, s2), base, u_base, (wrong, escape) = reg.center, reg.base, reg.u_base, reg.sides
        axis, line = reg.axis, reg.center[reg.axis]
        while True:    # one pass per step inside reg
            x = (x1, x2)
            val, (g1, g2) = form(code, x1, x2, s1, s2, base, u_base,
                                 escape if x[axis] > line else wrong)
            gnorm = hypot(g1, g2)
            terminal = None
            if in_final and gnorm <= stop:
                event, terminal = Event.CONVERGED, Outcome.REACHED_MINIMUM
            elif t >= max_iter:
                terminal = Outcome.BUDGET
            else:
                n1, n2 = x1 - eta * g1, x2 - eta * g2
                if noisy:
                    k1, k2 = next(kicks)
                    n1, n2 = n1 + k1, n2 + k2
                elif n1 == x1 and n2 == x2:
                    event, terminal = Event.STALLED, Outcome.STALLED
            if observe is not None:
                observe(t, x, val, gnorm, rid, event)
            if event is not None or terminal is not None or not t % record_every:
                kept.append(Iterate(t, x, val, gnorm, rid, event))
            if terminal is not None:
                return Trajectory(params, config, noise, tuple(kept), terminal)
            t += 1
            x1, x2 = n1, n2
            event = None
            if a < n1 < b and c < n2 < d:
                continue
            if noisy and (moved := project(landscape, (n1, n2))) != (n1, n2):
                (x1, x2), event = moved, Event.PROJECTED
            new = locate((x1, x2))
            if new is None:
                raise OutsideDomainError(f"iterate left D at t={t}: {(x1, x2)}")
            if new is not reg:
                if event is None:
                    event = Event.BUFFER_ENTRY if new.code & 1 else Event.BLOCK_ENTRY
                reg = new
                break
