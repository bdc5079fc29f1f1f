"""Gradient descent and noisy gradient descent on the staircase landscape.

A run is a strictly sequential loop; several runs (seed sweeps) can execute
concurrently since the landscape itself is immutable.  Noisy descent
perturbs the iterate after the gradient step and projects back onto the
domain; plain descent never needs projection from the valid start band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .landscape import (FINAL_CODE, Landscape, LandscapeParams, OutsideDomainError, Point,
                        RegionId, derive_constants)

INIT_BAND = 1.0 / (2.0 * math.e**2)   # max |x1 - s1| at the start, in units of tau
KICK_BLOCK = 128   # kicks a noisy run draws per call of its generator


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
    stop_grad_norm: float | None = None   # None: 1e-10, or L*tau/2 under noise of variance above 0
    record_every: int = 1

    def __post_init__(self):
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and positive, got {self.eta}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.stop_grad_norm is not None and not self.stop_grad_norm >= 0:
            raise ValueError(f"stop_grad_norm must be >= 0, got {self.stop_grad_norm}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


@dataclass(frozen=True)
class NoiseConfig:
    variance: float = 0.1     # per-coordinate Gaussian variance of each kick
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.variance) and self.variance >= 0):
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")


def step_settings(params: LandscapeParams, config: GdConfig,
                  noise: NoiseConfig | None) -> tuple[float, bool]:
    """The step size a run takes, config.eta or the default 1/(4L), and
    whether it is noisy: given noise of positive variance."""
    eta = config.eta if config.eta is not None else derive_constants(params).eta_default
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

    @property
    def eta(self) -> float:
        return step_settings(self.params, self.config, self.noise)[0]

    @property
    def is_noisy(self) -> bool:
        return step_settings(self.params, self.config, self.noise)[1]


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
    """Euclidean nearest point of D (ties go to the earlier chain region)."""
    x1, x2 = p
    best_d = math.inf
    best = p
    for reg in landscape.regions:
        a, b, c, d = reg.bounds
        px = min(max(x1, a), b)
        py = min(max(x2, c), d)
        dd = (px - x1) ** 2 + (py - x2) ** 2
        if dd < best_d:
            best_d = dd
            best = (px, py)
            if dd == 0.0:
                break
    return best


def _kicks(noise: NoiseConfig) -> Iterator[Point]:
    """Endless Gaussian kicks of per-coordinate variance noise.variance,
    from a generator of their own seeded by noise.seed.

    Each ``KICK_BLOCK`` kicks are one ``standard_normal(2 * KICK_BLOCK)``
    draw, taken in pairs: the same values as ``KICK_BLOCK`` draws of
    ``standard_normal(2)``.  The scale is applied to the float64 array,
    which gives the same bits as in Python floats, and the kicks come out
    as Python floats, which keeps every later operation on the iterate fast.
    """
    rng = np.random.default_rng(noise.seed)
    s = math.sqrt(noise.variance)
    while True:
        z = (s * rng.standard_normal(2 * KICK_BLOCK)).tolist()
        yield from zip(z[0::2], z[1::2])


def run(landscape: Landscape, config: GdConfig, start: Point,
        noise: NoiseConfig | None = None,
        observer: Callable[[Iterate], None] | None = None) -> Trajectory:
    """Descend from ``start`` until convergence, stall, or budget.

    Terminal conditions, checked in order at each iterate:
      - inside the final block with grad norm <= stop_grad_norm (converged);
        by default 1e-10, or L*tau/2 for a noisy run (``noise`` of variance
        above 0), since persistent noise keeps the gradient above any tiny
        threshold and a noisy run stops on solid entry into the bowl instead;
      - a noise-free run at an exact zero gradient outside the final block
        (stalled);
      - the iteration budget is exhausted;
      - a noise-free step leaves the position bitwise unchanged (stalled).
    A noisy run never stalls: a kick can still move a point of zero
    gradient, and two kicks can project onto the same corner of D before
    the next kick moves on.  Noise of variance 0 is plain descent: no kicks,
    no projection, the same iterates as ``noise=None``.
    The observer sees every iterate; the stored trajectory keeps every
    record_every-th iterate plus all event-tagged ones and the last one.
    Each iterate costs one ``locate``, one closed-form evaluation and one
    step, none of which grows with the chain length; only the projection
    of a noisy step scans the regions.  The kicks come from a generator
    private to the run, ``KICK_BLOCK`` of them per draw.
    """
    reg = landscape.locate(start)
    if reg is None:
        raise OutsideDomainError(f"start {start} is outside D")
    eta, noisy = step_settings(landscape.params, config, noise)
    kicks = _kicks(noise) if noisy else None
    stop = config.stop_grad_norm
    if stop is None:
        stop = landscape.params.L * landscape.params.tau / 2.0 if noisy else 1e-10
    max_iter, record_every = config.max_iter, config.record_every

    x = (float(start[0]), float(start[1]))
    kept: list[Iterate] = []
    prev = None   # the region of the previous iterate
    arrived_by_projection = False
    t = 0
    while True:
        val, g = landscape.value_and_gradient_in(reg, x)
        gnorm = math.hypot(g[0], g[1])
        in_final = reg.code == FINAL_CODE

        event = None
        if reg is not prev and prev is not None:
            event = Event.BUFFER_ENTRY if reg.code & 1 else Event.BLOCK_ENTRY
        if arrived_by_projection:
            event = Event.PROJECTED

        terminal = None
        if in_final and gnorm <= stop:
            event, terminal = Event.CONVERGED, Outcome.REACHED_MINIMUM
        elif gnorm == 0.0 and not (in_final or noisy):
            event, terminal = Event.STALLED, Outcome.STALLED
        elif t >= max_iter:
            terminal = Outcome.BUDGET

        if terminal is None:
            nxt = (x[0] - eta * g[0], x[1] - eta * g[1])
            if noisy:
                k1, k2 = next(kicks)
                q = (nxt[0] + k1, nxt[1] + k2)
                nxt = project_to_domain(landscape, q)
                arrived_by_projection = nxt != q
            elif nxt == x:
                event, terminal = Event.STALLED, Outcome.STALLED

        it = Iterate(t, x, val, gnorm, reg.rid, event)
        if observer is not None:
            observer(it)
        if event is not None or terminal is not None or t % record_every == 0:
            kept.append(it)
        if terminal is not None:
            return Trajectory(landscape.params, config, noise, tuple(kept), terminal)

        prev = reg
        x = nxt
        reg = landscape.locate(x)
        if reg is None:
            raise OutsideDomainError(f"iterate left D at t={t + 1}: {x}")
        t += 1
