"""Staircase-of-saddles landscape.

The domain D is a chain of tau-by-tau axis-aligned squares: saddle blocks
alternating with buffer squares, ending in a block that holds the global
minimum.  Odd blocks are escaped rightward along x1, even blocks upward
along x2; each buffer carries a quintic blend that stitches the two
adjacent quadratics together with a continuous gradient.  Every branch of
the function and its gradient is closed-form, so values and derivatives
are exact up to rounding.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

Point = tuple[float, float]

# Points per pass of the vectorized path and of the sampled checks; bounds
# their temporaries.  At 1 << 13, ``check --n-saddles 100`` took about 20% longer.
CHUNK = 1 << 14


class OutsideDomainError(ValueError):
    """Evaluation requested at a point not covered by any region."""


class RegionKind(Enum):
    ODD_BLOCK = "odd_block"
    EVEN_BLOCK = "even_block"
    ODD_EVEN_BUFFER = "odd_even_buffer"
    EVEN_ODD_BUFFER = "even_odd_buffer"
    FINAL_BLOCK = "final_block"


@dataclass(frozen=True)
class RegionId:
    """Which square of D a point belongs to.

    ``order`` is the 0-based position in the chain B1, B1', B2, B2', ...:
    2*(index-1) for blocks, 2*(index-1)+1 for buffers.
    """

    kind: RegionKind
    index: int
    order: int


@dataclass(frozen=True)
class LandscapeParams:
    """User-facing construction parameters.

    L is the benign curvature, gamma the (weaker) escape curvature,
    tau the side length of every block and buffer, n_saddles the number
    of saddle blocks; the chain has n_saddles + 1 blocks in total, the
    last one holding the minimum.  Parameters whose derived constants,
    final block offset or gradient Lipschitz bound overflow, or whose nu
    underflows to 0, are rejected.
    """

    L: float = 1.0
    gamma: float = 0.5
    tau: float = 1.0
    n_saddles: int = 9

    def __post_init__(self):
        for name in ("L", "gamma", "tau", "n_saddles"):
            self.check_field(name, getattr(self, name))
        if self.L < self.gamma:
            raise ValueError(f"construction requires L >= gamma, got L={self.L} gamma={self.gamma}")
        d = derive_constants(self)
        offset = -(self.n_saddles + 1) * d.nu   # the final block's value offset
        try:
            bound = _lipschitz_bound(d.L2, self.gamma, self.tau)
        except OverflowError:   # float ** raises where * would give inf
            bound = math.inf
        checked = (d.L2, d.nu, d.eta_default, d.lower_bound_base, offset, bound)
        if d.nu == 0 or not all(map(math.isfinite, checked)):
            raise ValueError(f"{self} gives a zero or non-finite derived constant: {d}, "
                             f"final block offset {offset}, gradient Lipschitz bound {bound}")

    @staticmethod
    def check_field(name: str, value) -> None:
        """Raise ValueError unless ``value`` is valid for the field ``name``
        on its own: L, gamma and tau finite and positive, n_saddles an
        integer >= 1.  L >= gamma and the derived constants are checked on
        the whole set."""
        if name == "n_saddles":
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"n_saddles must be an integer >= 1, got {value!r}")
        elif not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")

    @property
    def n_blocks(self) -> int:
        return self.n_saddles + 1


@dataclass(frozen=True)
class DerivedConstants:
    L2: float            # wrong-side curvature, 4*L
    nu: float            # per-block value offset, (3/4)*(L+gamma)*tau^2
    eta_default: float   # step size 1/(4*L); eta_default * L2 == 1
    lower_bound_base: float  # L/gamma, the per-saddle escape-time growth base


def derive_constants(params: LandscapeParams) -> DerivedConstants:
    """Constants fixed by the construction: L2, the offset nu, default step."""
    L, g, tau = params.L, params.gamma, params.tau
    L2 = 4 * L
    # nu = (1/4)*L*tau^2 - g1(2*tau); closed form (3/4)*(L+gamma)*tau^2
    nu = 3 * (L + g) / 4 * tau * tau
    return DerivedConstants(L2=L2, nu=nu, eta_default=1 / L2, lower_bound_base=L / g)


def _blend_value(u, c1, c2, tau):
    """Quintic blend from c1 at u = tau to c2 at u = 2*tau; both endpoint
    derivatives vanish, which keeps the gradient continuous across edges."""
    # normalized z = (u - 2*tau)/tau in [-1, 0]; explicit products keep the
    # scalar and vectorized paths bitwise identical and the endpoints exact
    z = (u - 2 * tau) / tau
    z2 = z * z
    d = c1 - c2
    return c2 - d * z2 * z * (10 + 15 * z + 6 * z2)


def _blend_slope(u, c1, c2, tau):
    z = (u - 2 * tau) / tau
    zp = z + 1
    d = c1 - c2
    return -30 * d * z * z * zp * zp / tau


@dataclass(frozen=True)
class _Region:
    """Internal region record: identity plus everything needed to evaluate."""

    rid: RegionId
    bounds: tuple[float, float, float, float]
    center: Point
    code: int                        # index of rid.kind in _KIND_BY_CODE
    base: float                      # value offset -index*nu
    u_base: float | None             # buffers: u = coord - u_base, in [tau, 2*tau]
    axis: int                        # the branch line is x[axis] = center[axis]
    sides: tuple[float, float]       # c on the wrong side (to the line), then the escape side


def _cell(o):
    """Grid cell (a, b) of the square holding chain order o (int or int array).

    The square spans [a*tau, (a+1)*tau] x [b*tau, (b+1)*tau], with a + b = o
    and a - b = 0, 1, 2, 1 for o mod 4 = 0, 1, 2, 3.
    """
    skew = (o & 1) + 2 * ((o & 3) == 2)
    a = (o + skew) >> 1
    return a, a - skew


# Region kind by code: chain order mod 4, or FINAL_CODE for the last order.
# Blocks have even codes, buffers odd ones.
_KIND_BY_CODE = (RegionKind.ODD_BLOCK, RegionKind.ODD_EVEN_BUFFER,
                 RegionKind.EVEN_BLOCK, RegionKind.EVEN_ODD_BUFFER, RegionKind.FINAL_BLOCK)
FINAL_CODE = 4
# Branch axis by code: odd blocks and the buffers into them branch on x1,
# even ones on x2.  The final block's two sides are equal.
_AXIS_BY_CODE = (0, 1, 1, 0, 0)


def _build_regions(params: LandscapeParams, derived: DerivedConstants) -> tuple[_Region, ...]:
    tau, last, nu = params.tau, 2 * params.n_saddles, derived.nu
    # (wrong side, escape side); L on both in the final block and the buffer into it
    saddle, final = (derived.L2, -params.gamma), (params.L, params.L)
    out = []
    for o in range(last + 1):
        a, b = _cell(o)
        bounds = (a * tau, (a + 1) * tau, b * tau, (b + 1) * tau)
        center = ((bounds[0] + bounds[1]) / 2, (bounds[2] + bounds[3]) / 2)
        code = FINAL_CODE if o == last else o & 3
        index = o // 2 + 1
        # a buffer travels along x1 (o mod 4 = 1) or x2 (o mod 4 = 3)
        u_base = ((b if o & 2 else a) - 1) * tau if o & 1 else None
        out.append(_Region(RegionId(_KIND_BY_CODE[code], index, o), bounds, center, code,
                           -index * nu, u_base, _AXIS_BY_CODE[code],
                           final if o >= last - 1 else saddle))
    return tuple(out)


class Landscape:
    """The assembled piecewise function f on D with exact gradients.

    Pure and immutable after construction; safe to share across threads.
    """

    def __init__(self, params: LandscapeParams):
        self.params = params
        self.derived = derive_constants(params)
        self.regions = _build_regions(params, self.derived)
        # parameter-only terms of the buffer ramp p(u) - p(tau) - gamma*tau^2/4 with
        # p(x) = (gamma-L)/2*x^2 + (L-2*gamma)*tau*x, slope -gamma*tau at u = tau, -L*tau at 2*tau
        L, g, tau = params.L, params.gamma, params.tau
        half, lin = (g - L) / 2, (L - 2 * g) * tau
        self._ramp = (half, lin, half * tau * tau + lin * tau, g / 4 * tau * tau, g - L)

    # -- region queries ----------------------------------------------------

    def locate(self, p: Point) -> _Region | None:
        """First region in chain order whose closed square contains p: the
        orders two either side of floor(x1/tau) + floor(x2/tau) are tried,
        earliest first.  Shared edges therefore belong to the earlier region,
        which makes classification total and deterministic without any
        epsilon.  This is the only code that applies the rule.  Non-finite
        points give None."""
        x1, x2 = p
        try:
            o = math.floor(x1 / self.params.tau) + math.floor(x2 / self.params.tau)
        except (ValueError, OverflowError):   # NaN, or inf from the point or the division
            return None
        for reg in self.regions[max(o - 2, 0):max(o + 3, 0)]:   # each floor is off by one at most
            a, b, c, d = reg.bounds
            if a <= x1 <= b and c <= x2 <= d:
                return reg
        return None

    def classify(self, p: Point) -> RegionId | None:
        """The identity of the region ``locate`` gives, or None outside D."""
        reg = self.locate(p)
        return None if reg is None else reg.rid

    # -- scalar evaluation ---------------------------------------------------

    def _region_of(self, p: Point) -> _Region:
        reg = self.locate(p)
        if reg is None:
            raise OutsideDomainError(f"point {p} is outside D")
        return reg

    def value(self, p: Point) -> float:
        return self.value_in(self._region_of(p), p)

    def gradient(self, p: Point) -> Point:
        return self.gradient_in(self._region_of(p), p)

    def value_and_gradient(self, p: Point) -> tuple[float, Point]:
        return self.value_and_gradient_in(self._region_of(p), p)

    # Kept: perfbench's tracer wraps value_in and gradient_in by name.
    def value_in(self, reg: _Region, p: Point) -> float:
        return self.value_and_gradient_in(reg, p)[0]

    def gradient_in(self, reg: _Region, p: Point) -> Point:
        return self.value_and_gradient_in(reg, p)[1]

    def value_and_gradient_in(self, reg: _Region, p: Point) -> tuple[float, Point]:
        """Value and gradient of reg's closed form at p; the branch line takes the wrong side."""
        s1, s2 = reg.center
        c = reg.sides[1] if p[reg.axis] > reg.center[reg.axis] else reg.sides[0]
        return self._form(reg.code, p[0], p[1], s1, s2, reg.base, reg.u_base, c)

    def _form(self, code, x1, x2, s1, s2, base, u_base, c, want_grad=True):
        """The closed form of region kind ``code`` at (x1, x2): the value
        and the gradient (g1, g2), or None unless want_grad.

        (s1, s2) is the region's center, base its value offset and u_base
        its buffer offset (unused in a block).  c is the curvature on the
        point's side of the branch line: k1 in an odd block, k2 in an even
        block, the blend target in a buffer.  Every argument may be a float
        or an array; floats give the same bits as arrays of copies.
        """
        L = self.params.L
        if not code & 1:   # a block: base + k1*d1^2 + k2*d2^2
            d1, d2 = x1 - s1, x2 - s2
            k1, k2 = (c, L) if code == 0 else (L, c)
            value = base + k1 * d1 * d1 + k2 * d2 * d2
            return value, ((2 * k1 * d1, 2 * k2 * d2) if want_grad else None)
        tau = self.params.tau
        if code == 1:   # u along travel in [tau, 2*tau], w centered across
            u, w = x1 - u_base, x2 - s2
        else:
            u, w = x2 - u_base, x1 - s1
        half, lin, p_tau, drop, curv = self._ramp
        blend = _blend_value(u, L, c, tau)
        value = base + (half * u * u + lin * u - p_tau - drop) + blend * w * w
        if not want_grad:
            return value, None
        du = curv * u + lin + _blend_slope(u, L, c, tau) * w * w
        dw = 2 * blend * w
        return value, ((du, dw) if code == 1 else (dw, du))

    # -- vectorized evaluation (verification workloads) ----------------------

    def classify_many(self, xy: np.ndarray) -> np.ndarray:
        """Chain orders for an (N, 2) array of points; -1 for outside.

        A point strictly inside the square of its guessed order
        floor(x1/tau) + floor(x2/tau) lies in no other closed square and is
        decided here; every other point (on an edge, outside D, non-finite,
        or guessed wrong by rounding) is handed to ``locate``, about 2 us
        each.  ``check`` hands over none.
        """
        tau, last = self.params.tau, len(self.regions) - 1
        orders = np.full(len(xy), -1, dtype=np.int64)
        for s in range(0, len(xy), CHUNK):
            x1, x2 = xy[s:s + CHUNK, 0], xy[s:s + CHUNK, 1]
            with np.errstate(invalid="ignore", over="ignore"):
                guess = np.floor(x1 / tau) + np.floor(x2 / tau)
            guess = np.clip(np.nan_to_num(guess, nan=-1.0), -1, last + 1).astype(np.int64)
            a, b = _cell(guess)
            inner = ((guess >= 0) & (guess <= last)
                     & (x1 > a * tau) & (x1 < (a + 1) * tau)
                     & (x2 > b * tau) & (x2 < (b + 1) * tau))
            orders[s:s + CHUNK][inner] = guess[inner]
            for i in np.flatnonzero(~inner).tolist():
                reg = self.locate((float(x1[i]), float(x2[i])))
                orders[s + i] = -1 if reg is None else reg.rid.order
        return orders

    def value_many(self, xy: np.ndarray, orders: np.ndarray | None = None) -> np.ndarray:
        v, _ = self.eval_many(xy, orders, want_grad=False)
        return v

    def gradient_many(self, xy: np.ndarray, orders: np.ndarray | None = None) -> np.ndarray:
        _, gr = self.eval_many(xy, orders)
        return gr

    def eval_many(self, xy: np.ndarray, orders: np.ndarray | None = None, branch: int = 0,
                  want_grad: bool = True):
        """Values and gradients (None unless want_grad) at an (N, 2) array.

        ``orders`` names the region whose closed form each point is
        evaluated in (default: the region holding it).  ``branch`` forces
        the branch on each region's branch line: +1 the escape side, -1 the
        wrong side, 0 the side the point lies on.  Each chunk of points is
        grouped by region kind; per-point region data (center, base, u_base,
        the curvatures on the two sides) follows from the chain order."""
        last = len(self.regions) - 1
        cx, cy, bases, u_bases, wrong, escape = self._region_table
        values = np.empty(len(xy))
        grads = np.empty((len(xy), 2)) if want_grad else None
        for s in range(0, len(xy), CHUNK):
            p = xy[s:s + CHUNK]
            o = self.classify_many(p) if orders is None else orders[s:s + CHUNK]
            outside = (o < 0) | (o > last)
            if outside.any():
                bad = s + int(np.argmax(outside))
                raise OutsideDomainError(f"point {tuple(xy[bad])} is outside D")
            codes = np.where(o == last, FINAL_CODE, o & 3)
            for code in range(FINAL_CODE + 1):
                idx = np.flatnonzero(codes == code)
                if not len(idx):
                    continue
                om = o[idx]
                # np.take: row gathers by fancy indexing are several times slower
                x1, x2 = np.take(p, idx, axis=0).T
                s1, s2 = np.take(cx, om), np.take(cy, om)
                if branch:
                    c = np.take(escape if branch > 0 else wrong, om)
                else:
                    beyond = (x1 > s1) if _AXIS_BY_CODE[code] == 0 else (x2 > s2)
                    c = np.where(beyond, np.take(escape, om), np.take(wrong, om))
                v, gr = self._form(code, x1, x2, s1, s2, np.take(bases, om),
                                   np.take(u_bases, om), c, want_grad)
                idx += s
                values[idx] = v
                if want_grad:   # column by column: a row scatter is slower
                    grads[idx, 0], grads[idx, 1] = gr
        return values, grads

    @functools.cached_property
    def _region_table(self):
        """Per-order region centers (x1 and x2), value offsets, buffer
        u_base (NaN for blocks) and the curvatures on the two sides."""
        cx, cy = np.array([reg.center for reg in self.regions]).T.copy()
        base = np.array([reg.base for reg in self.regions])
        u_base = np.array([np.nan if reg.u_base is None else reg.u_base
                           for reg in self.regions])
        wrong, escape = np.array([reg.sides for reg in self.regions]).T.copy()
        return cx, cy, base, u_base, wrong, escape

    # Kept: perfbench's tracer wraps it by name, and the per-seam test oracles call it.
    def eval_region_many(self, reg: _Region, xy: np.ndarray, branch: int = 0,
                         want_grad: bool = True):
        """``eval_many`` with every point evaluated in the closed form of reg."""
        return self.eval_many(xy, np.full(len(xy), reg.rid.order), branch, want_grad)

    # -- sampling and bounds --------------------------------------------------

    def sample_points(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n points uniform over D (all regions are equal-area squares)."""
        orders = rng.integers(0, len(self.regions), size=n)
        return self.place_in_regions(orders, rng.random((n, 2)))

    def place_in_regions(self, orders: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Map offsets r in the unit square, in place, into the squares of
        the given chain orders: corner + tau * r.  Returns r."""
        tau = self.params.tau
        for s in range(0, len(r), CHUNK):
            a, b = _cell(orders[s:s + CHUNK])
            rc = r[s:s + CHUNK]
            rc *= tau
            rc[:, 0] += a * tau
            rc[:, 1] += b * tau
        return r

    def gradient_lipschitz_bound(self) -> float:
        """Documented bound on the gradient's Lipschitz constant.

        2*L2 covers every quadratic branch; the second term bounds the
        blend's cross contribution 30*(c1-c2)*(u-2t)^2(u-t)^2/t^5 * w^2
        with |c1-c2| <= L2+gamma and |w| <= tau/2.
        """
        return _lipschitz_bound(self.derived.L2, self.params.gamma, self.params.tau)


def _lipschitz_bound(L2: float, g: float, tau: float) -> float:
    return 2 * L2 + 30 * (L2 + g) * (tau / 2) ** 2 / tau

