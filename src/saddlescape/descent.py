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
from typing import Callable

import numpy as np

from .landscape import Landscape, OutsideDomainError, Point, RegionId, RegionKind

INIT_BAND = 1.0 / (2.0 * math.e**2)   # max |x1 - s1| at the start, in units of tau


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
    stop_grad_norm: float = 1e-10
    record_every: int = 1

    def __post_init__(self):
        if self.eta is not None and not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and positive, got {self.eta}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


@dataclass(frozen=True)
class NoiseConfig:
    variance: float = 0.1     # per-coordinate Gaussian variance of each kick
    seed: int = 0
    scale_by_eta: bool = False  # alternative reading: kick scaled by the step size

    def __post_init__(self):
        if not (math.isfinite(self.variance) and self.variance >= 0):
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")


@dataclass(frozen=True)
class Iterate:
    t: int
    position: Point
    f_value: float
    grad_norm: float
    region: RegionId
    event: Event | None = None


@dataclass(frozen=True)
class Trajectory:
    params: object
    config: GdConfig
    noise: NoiseConfig | None
    iterates: tuple[Iterate, ...]
    outcome: Outcome

    @property
    def total_steps(self) -> int:
        return self.iterates[-1].t

    @property
    def is_noisy(self) -> bool:
        return self.noise is not None and self.noise.variance > 0


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


def gd_step(landscape: Landscape, p: Point, eta: float) -> Point:
    g1, g2 = landscape.gradient(p)
    return (p[0] - eta * g1, p[1] - eta * g2)


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


def sgd_step(landscape: Landscape, p: Point, eta: float, noise: NoiseConfig,
             rng: np.random.Generator) -> Point:
    g1, g2 = landscape.gradient(p)
    q = _perturb((p[0] - eta * g1, p[1] - eta * g2), noise, eta, rng)
    return project_to_domain(landscape, q)


def _perturb(q: Point, noise: NoiseConfig, eta: float, rng: np.random.Generator) -> Point:
    z = math.sqrt(noise.variance) * rng.standard_normal(2)
    if noise.scale_by_eta:
        z = eta * z
    return (q[0] + z[0], q[1] + z[1])


def run(landscape: Landscape, config: GdConfig, start: Point,
        noise: NoiseConfig | None = None,
        observer: Callable[[Iterate], None] | None = None) -> Trajectory:
    """Descend from ``start`` until convergence, stall, or budget.

    Terminal conditions, checked in order at each iterate:
      - inside the final block with grad norm <= stop_grad_norm (converged);
      - exact zero gradient outside the final block (stalled);
      - the iteration budget is exhausted;
      - a noise-free step leaves the position bitwise unchanged (stalled).
    Under noise a repeated position is no fixed point: two kicks can project
    onto the same corner of D, and the next kick moves on.
    The observer sees every iterate; the stored trajectory keeps every
    record_every-th iterate plus all event-tagged ones and the last one.
    """
    reg = landscape.locate(start)
    if reg is None:
        raise OutsideDomainError(f"start {start} is outside D")
    eta = config.eta if config.eta is not None else landscape.derived.eta_default
    rng = np.random.default_rng(noise.seed) if noise is not None else None
    noisy = noise is not None and noise.variance > 0

    x = (float(start[0]), float(start[1]))
    kept: list[Iterate] = []
    prev_order = None
    arrived_by_projection = False
    t = 0
    while True:
        val = landscape.value_in(reg, x)
        g = landscape.gradient_in(reg, x)
        gnorm = math.hypot(g[0], g[1])
        in_final = reg.rid.kind is RegionKind.FINAL_BLOCK

        event = None
        if prev_order is not None and reg.rid.order != prev_order:
            event = Event.BLOCK_ENTRY if reg.rid.kind.is_block else Event.BUFFER_ENTRY
        if arrived_by_projection:
            event = Event.PROJECTED

        terminal = None
        if in_final and gnorm <= config.stop_grad_norm:
            event, terminal = Event.CONVERGED, Outcome.REACHED_MINIMUM
        elif gnorm == 0.0 and not in_final:
            event, terminal = Event.STALLED, Outcome.STALLED
        elif t >= config.max_iter:
            terminal = Outcome.BUDGET

        nxt = None
        next_projected = False
        if terminal is None:
            raw = (x[0] - eta * g[0], x[1] - eta * g[1])
            if noise is not None:
                raw = _perturb(raw, noise, eta, rng)
                nxt = project_to_domain(landscape, raw)
                next_projected = nxt != raw
            else:
                nxt = raw
            if nxt == x and not noisy:
                event, terminal = Event.STALLED, Outcome.STALLED

        it = Iterate(t, x, val, gnorm, reg.rid, event)
        if observer is not None:
            observer(it)
        if event is not None or terminal is not None or t % config.record_every == 0:
            kept.append(it)
        if terminal is not None:
            return Trajectory(landscape.params, config, noise, tuple(kept), terminal)

        prev_order = reg.rid.order
        arrived_by_projection = next_projected
        x = nxt
        reg = landscape.locate(x)
        if reg is None:
            raise OutsideDomainError(f"iterate left D at t={t + 1}: {x}")
        t += 1
