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

CHUNK = 1 << 16  # points per pass of the vectorized path; bounds its temporaries


class OutsideDomainError(ValueError):
    """Evaluation requested at a point not covered by any region."""


class RegionKind(Enum):
    ODD_BLOCK = "odd_block"
    EVEN_BLOCK = "even_block"
    ODD_EVEN_BUFFER = "odd_even_buffer"
    EVEN_ODD_BUFFER = "even_odd_buffer"
    FINAL_BLOCK = "final_block"
    OUTSIDE = "outside"

    @property
    def is_block(self) -> bool:
        return self in (RegionKind.ODD_BLOCK, RegionKind.EVEN_BLOCK, RegionKind.FINAL_BLOCK)

    @property
    def is_buffer(self) -> bool:
        return self in (RegionKind.ODD_EVEN_BUFFER, RegionKind.EVEN_ODD_BUFFER)


@dataclass(frozen=True)
class RegionId:
    """Which region of the chain a point belongs to.

    ``order`` is the 0-based position in the chain B1, B1', B2, B2', ...:
    2*(index-1) for blocks, 2*(index-1)+1 for buffers.  Outside carries
    neither index nor order.
    """

    kind: RegionKind
    index: int | None = None
    order: int | None = None

    @property
    def is_outside(self) -> bool:
        return self.kind is RegionKind.OUTSIDE


OUTSIDE = RegionId(RegionKind.OUTSIDE)


@dataclass(frozen=True)
class LandscapeParams:
    """User-facing construction parameters.

    L is the benign curvature, gamma the (weaker) escape curvature,
    tau the side length of every block and buffer, n_saddles the number
    of saddle blocks; the chain has n_saddles + 1 blocks in total, the
    last one holding the minimum.
    """

    L: float = 1.0
    gamma: float = 0.5
    tau: float = 1.0
    n_saddles: int = 9

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.L, self.gamma, self.tau)):
            raise ValueError(f"L, gamma, tau must be finite and positive, got {self}")
        if self.L < self.gamma:
            raise ValueError(f"construction requires L >= gamma, got L={self.L} gamma={self.gamma}")
        n = self.n_saddles
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"n_saddles must be an integer >= 1, got {n!r}")

    @property
    def n_blocks(self) -> int:
        return self.n_saddles + 1


@dataclass(frozen=True)
class DerivedConstants:
    L2: float            # wrong-side curvature, 4*L
    nu: float            # per-block value offset, (3/4)*(L+gamma)*tau^2
    eta_default: float   # step size 1/(4*L); eta_default * L2 == 1
    lower_bound_base: float  # L/gamma, the per-saddle escape-time growth base


@dataclass(frozen=True)
class BlockGeometry:
    """Bounds (x1_min, x1_max, x2_min, x2_max) and quadratic center."""

    bounds: tuple[float, float, float, float]
    center: Point


@dataclass(frozen=True)
class BufferBranch:
    """Endpoint curvatures of a buffer's cross-coordinate blend.

    c1 is always L (matching the block being left); c2 is -gamma on the
    escape side of the next block, L2 on its wrong side, and L only in
    the buffer that leads into the final block.
    """

    c1: float
    c2: float


def derive_constants(params: LandscapeParams) -> DerivedConstants:
    """Constants fixed by the construction: L2, the offset nu, default step."""
    L, g, tau = params.L, params.gamma, params.tau
    L2 = 4.0 * L
    # nu = (1/4)*L*tau^2 - g1(2*tau); closed form (3/4)*(L+gamma)*tau^2
    nu = 0.75 * (L + g) * tau * tau
    return DerivedConstants(L2=L2, nu=nu, eta_default=1.0 / L2, lower_bound_base=L / g)


def ramp_profile(u: float, params: LandscapeParams) -> tuple[float, float]:
    """Along-travel buffer profile and its derivative on u in [tau, 2*tau].

    The profile is a quadratic ramp whose slope runs from -gamma*tau at the
    block exit to -L*tau at the next block's entry, shifted so the value at
    u = tau matches the block's exit level.
    """
    tau = params.tau
    if not (tau <= u <= 2.0 * tau):
        raise ValueError(f"u={u} outside buffer range [{tau}, {2 * tau}]")
    return _ramp_value(u, params), _ramp_slope(u, params)


def _ramp_value(u, params):
    L, g, tau = params.L, params.gamma, params.tau
    # p(x) = 0.5*(gamma-L)*x^2 + (L-2*gamma)*tau*x, shifted by -p(tau) - gamma*tau^2/4
    p_u = 0.5 * (g - L) * u * u + (L - 2.0 * g) * tau * u
    p_tau = 0.5 * (g - L) * tau * tau + (L - 2.0 * g) * tau * tau
    return p_u - p_tau - 0.25 * g * tau * tau


def _ramp_slope(u, params):
    L, g, tau = params.L, params.gamma, params.tau
    return (g - L) * u + (L - 2.0 * g) * tau


def quintic_blend(u: float, branch: BufferBranch, tau: float) -> tuple[float, float]:
    """Quintic blend from c1 at u = tau to c2 at u = 2*tau and its derivative.

    Both endpoint derivatives vanish (double roots at tau and 2*tau), which
    is what keeps the assembled gradient continuous across block edges.
    """
    if not (tau <= u <= 2.0 * tau):
        raise ValueError(f"u={u} outside buffer range [{tau}, {2 * tau}]")
    return (_blend_value(u, branch.c1, branch.c2, tau),
            _blend_slope(u, branch.c1, branch.c2, tau))


def _blend_value(u, c1, c2, tau):
    # normalized z = (u - 2*tau)/tau in [-1, 0]; explicit products keep the
    # scalar and vectorized paths bitwise identical and the endpoints exact
    z = (u - 2.0 * tau) / tau
    z2 = z * z
    d = c1 - c2
    return c2 - d * z2 * z * (10.0 + 15.0 * z + 6.0 * z2)


def _blend_slope(u, c1, c2, tau):
    z = (u - 2.0 * tau) / tau
    zp = z + 1.0
    d = c1 - c2
    return -30.0 * d * z * z * zp * zp / tau


@dataclass(frozen=True)
class _Region:
    """Internal region record: identity plus everything needed to evaluate."""

    rid: RegionId
    bounds: tuple[float, float, float, float]
    center: Point
    code: int                        # index of rid.kind in _KIND_BY_CODE
    base: float                      # value offset -index*nu
    # buffers only:
    travel_axis: int | None = None   # 0: u along x1 (odd->even), 1: u along x2
    u_base: float | None = None      # u = coord - u_base, in [tau, 2*tau]
    into_final: bool = False         # buffer leading into the final block


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


def _build_regions(params: LandscapeParams, nu: float) -> tuple[_Region, ...]:
    tau, last = params.tau, 2 * params.n_saddles
    out = []
    for o in range(last + 1):
        a, b = _cell(o)
        bounds = (a * tau, (a + 1) * tau, b * tau, (b + 1) * tau)
        center = (0.5 * (bounds[0] + bounds[1]), 0.5 * (bounds[2] + bounds[3]))
        code = FINAL_CODE if o == last else o & 3
        index = o // 2 + 1
        rid = RegionId(_KIND_BY_CODE[code], index, o)
        if o & 1:   # a buffer, travelling along x1 (o mod 4 = 1) or x2 (o mod 4 = 3)
            axis = (o & 3) >> 1
            out.append(_Region(rid, bounds, center, code, -index * nu, axis,
                               ((b if axis else a) - 1) * tau, o == last - 1))
        else:
            out.append(_Region(rid, bounds, center, code, -index * nu))
    return tuple(out)


class Landscape:
    """The assembled piecewise function f on D with exact gradients.

    Pure and immutable after construction; safe to share across threads.
    """

    def __init__(self, params: LandscapeParams):
        self.params = params
        self.derived = derive_constants(params)
        self.regions = _build_regions(params, self.derived.nu)

    # -- region queries ----------------------------------------------------

    def locate(self, p: Point) -> _Region | None:
        """First region in chain order whose closed square contains p.

        Shared edges therefore belong to the earlier region, which makes
        classification total and deterministic without any epsilon.  The
        rule and the O(1) chain arithmetic are those of ``classify_many``;
        non-finite points give None.
        """
        x1, x2 = p
        regions = self.regions
        try:
            o = math.floor(x1 / self.params.tau) + math.floor(x2 / self.params.tau)
        except (ValueError, OverflowError):   # NaN, or inf from the point or the division
            return None
        if 0 <= o < len(regions):
            a, b, c, d = regions[o].bounds
            if a < x1 < b and c < x2 < d:
                return regions[o]
        for reg in regions[max(o - 2, 0):max(o + 3, 0)]:
            a, b, c, d = reg.bounds
            if a <= x1 <= b and c <= x2 <= d:
                return reg
        return None

    def classify(self, p: Point) -> RegionId:
        reg = self.locate(p)
        return OUTSIDE if reg is None else reg.rid

    def geometry(self, region: RegionId) -> BlockGeometry:
        if region.is_outside:
            raise ValueError("Outside has no geometry")
        if region.order is None or not (0 <= region.order < len(self.regions)):
            raise ValueError(f"region order out of range: {region}")
        reg = self.regions[region.order]
        return BlockGeometry(bounds=reg.bounds, center=reg.center)

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

    def value_in(self, reg: _Region, p: Point, branch: int = 0) -> float:
        return self.value_and_gradient_in(reg, p, branch)[0]

    def gradient_in(self, reg: _Region, p: Point, branch: int = 0) -> Point:
        return self.value_and_gradient_in(reg, p, branch)[1]

    def value_and_gradient_in(self, reg: _Region, p: Point,
                              branch: int = 0) -> tuple[float, Point]:
        """Value and gradient of a specific region's closed form at p.

        ``branch`` forces a branch on the region's internal branch line:
        +1 the escape-side branch, -1 the wrong-side branch, 0 pick by sign.
        Used by seam scans to compare adjacent closed forms at the same point.
        """
        L, g = self.params.L, self.params.gamma
        L2 = self.derived.L2
        x1, x2 = p
        s1, s2 = reg.center
        base = reg.base
        if reg.travel_axis is None:   # a block: base + k1*d1^2 + k2*d2^2
            code = reg.code
            d1, d2 = x1 - s1, x2 - s2
            k1 = k2 = L
            if code == 0:     # odd block
                k1 = -g if branch > 0 or (branch == 0 and d1 > 0) else L2
            elif code == 2:   # even block
                k2 = -g if branch > 0 or (branch == 0 and d2 > 0) else L2
            return base + k1 * d1 * d1 + k2 * d2 * d2, (2.0 * k1 * d1, 2.0 * k2 * d2)
        tau = self.params.tau
        if reg.travel_axis == 0:   # u along travel in [tau, 2*tau], w centered across
            u, w = x1 - reg.u_base, x2 - s2
        else:
            u, w = x2 - reg.u_base, x1 - s1
        if reg.into_final:
            c2 = L
        elif branch > 0 or (branch == 0 and w > 0):
            c2 = -g
        else:
            c2 = L2
        blend = _blend_value(u, L, c2, tau)
        value = base + _ramp_value(u, self.params) + blend * w * w
        du = _ramp_slope(u, self.params) + _blend_slope(u, L, c2, tau) * w * w
        dw = 2.0 * blend * w
        return value, ((du, dw) if reg.travel_axis == 0 else (dw, du))

    # -- vectorized evaluation (verification workloads) ----------------------

    def classify_many(self, xy: np.ndarray) -> np.ndarray:
        """Chain orders for an (N, 2) array of points; -1 for outside.

        The cell (floor(x1/tau), floor(x2/tau)) has chain order a + b, and
        rounding moves each floor by at most one cell, so only the orders
        o-2 .. o+2 can hold the point.  A point strictly inside the square
        of order o lies in no other closed square and is accepted at once.
        The rest try the candidates in ascending order against the exact
        closed bounds, so a shared edge still belongs to the earlier
        region, as in ``locate``.
        """
        tau, last = self.params.tau, len(self.regions) - 1
        orders = np.full(len(xy), -1, dtype=np.int64)
        for s in range(0, len(xy), CHUNK):
            x1, x2 = xy[s:s + CHUNK, 0], xy[s:s + CHUNK, 1]
            with np.errstate(invalid="ignore", over="ignore"):
                guess = np.floor(x1 / tau) + np.floor(x2 / tau)
            # non-finite points keep -1: none of their candidates is in range
            guess = np.clip(np.nan_to_num(guess, nan=-3.0), -3, last + 3).astype(np.int64)
            a, b = _cell(guess)
            inner = ((guess >= 0) & (guess <= last)
                     & (x1 > a * tau) & (x1 < (a + 1) * tau)
                     & (x2 > b * tau) & (x2 < (b + 1) * tau))
            orders[s:s + CHUNK][inner] = guess[inner]
            idx = np.flatnonzero(~inner)
            x1, x2, guess = x1[idx], x2[idx], guess[idx]
            idx += s
            for k in range(-2, 3):
                if not len(idx):
                    break
                o = guess + k
                a, b = _cell(o)
                hit = ((o >= 0) & (o <= last)
                       & (x1 >= a * tau) & (x1 <= (a + 1) * tau)
                       & (x2 >= b * tau) & (x2 <= (b + 1) * tau))
                orders[idx[hit]] = o[hit]
                miss = ~hit   # a point leaves the candidate set at its first hit
                idx, x1, x2, guess = idx[miss], x1[miss], x2[miss], guess[miss]
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
        evaluated in (default: the region holding it); ``branch`` forces a
        branch as in ``value_in``.  Each chunk of points is grouped by region
        kind; per-point region data (center, base, u_base, into_final)
        follows from the chain order."""
        last = len(self.regions) - 1
        cx, cy, bases, u_bases = self._region_table
        values = np.empty(len(xy))
        grads = np.empty_like(xy) if want_grad else None
        for s in range(0, len(xy), CHUNK):
            p = xy[s:s + CHUNK]
            o = self.classify_many(p) if orders is None else orders[s:s + CHUNK]
            outside = (o < 0) | (o > last)
            if outside.any():
                bad = s + int(np.argmax(outside))
                raise OutsideDomainError(f"point {tuple(xy[bad])} is outside D")
            kinds = np.where(o == last, FINAL_CODE, o & 3)
            for code, kind in enumerate(_KIND_BY_CODE):
                idx = np.flatnonzero(kinds == code)
                if not len(idx):
                    continue
                om = o[idx]
                # np.take: row gathers by fancy indexing are several times slower
                v, gr = self._eval_kernel(kind, np.take(p, idx, axis=0),
                                          (np.take(cx, om), np.take(cy, om)),
                                          np.take(bases, om), np.take(u_bases, om),
                                          om == last - 1,
                                          branch, want_grad)
                idx += s
                values[idx] = v
                if want_grad:   # column by column: a row scatter is slower
                    grads[idx, 0] = gr[:, 0]
                    grads[idx, 1] = gr[:, 1]
        return values, grads

    @functools.cached_property
    def _region_table(self):
        """Per-order region centers (x1 and x2), value offsets and buffer
        u_base (NaN for blocks)."""
        cx, cy = np.array([reg.center for reg in self.regions]).T.copy()
        base = np.array([reg.base for reg in self.regions])
        u_base = np.array([np.nan if reg.u_base is None else reg.u_base
                           for reg in self.regions])
        return cx, cy, base, u_base

    def eval_region_many(self, reg: _Region, xy: np.ndarray, branch: int = 0,
                         want_grad: bool = True):
        """Vectorized closed form of one region, with optional forced branch."""
        return self._eval_kernel(reg.rid.kind, xy, reg.center, reg.base, reg.u_base,
                                 reg.into_final, branch, want_grad)

    def _eval_kernel(self, kind, xy, center, base, u_base, into_final, branch=0,
                     want_grad=True):
        """Closed form of one region kind at the points xy.

        center, base, u_base and into_final describe the region holding
        each point: scalars for one region or per-point arrays.  A scalar
        broadcasts to the same bits as an array of copies.
        """
        L, g, tau = self.params.L, self.params.gamma, self.params.tau
        L2 = self.derived.L2
        x1, x2 = xy[:, 0], xy[:, 1]
        s1, s2 = center
        grads = np.empty_like(xy) if want_grad else None
        if kind.is_block:
            d1, d2 = x1 - s1, x2 - s2
            if kind is RegionKind.FINAL_BLOCK:
                k1 = np.full(d1.shape, L)
                k2 = np.full(d1.shape, L)
            elif kind is RegionKind.ODD_BLOCK:
                esc = np.full(d1.shape, branch > 0) if branch else (d1 > 0)
                k1 = np.where(esc, -g, L2)
                k2 = np.full(d1.shape, L)
            else:
                esc = np.full(d2.shape, branch > 0) if branch else (d2 > 0)
                k1 = np.full(d1.shape, L)
                k2 = np.where(esc, -g, L2)
            values = base + k1 * d1 * d1 + k2 * d2 * d2
            if want_grad:
                grads[:, 0] = 2.0 * k1 * d1
                grads[:, 1] = 2.0 * k2 * d2
            return values, grads
        along_x1 = kind is RegionKind.ODD_EVEN_BUFFER
        if along_x1:
            u, w = x1 - u_base, x2 - s2
        else:
            u, w = x2 - u_base, x1 - s1
        if branch:
            c2 = np.full(u.shape, -g if branch > 0 else L2)
        else:
            c2 = np.where(w > 0, -g, L2)
        np.copyto(c2, L, where=into_final)
        blend = _blend_value(u, L, c2, tau)
        values = base + _ramp_value(u, self.params) + blend * w * w
        if want_grad:
            du = _ramp_slope(u, self.params) + _blend_slope(u, L, c2, tau) * w * w
            dw = 2.0 * blend * w
            if along_x1:
                grads[:, 0], grads[:, 1] = du, dw
            else:
                grads[:, 0], grads[:, 1] = dw, du
        return values, grads

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
        L2, g, tau = self.derived.L2, self.params.gamma, self.params.tau
        return 2.0 * L2 + 30.0 * (L2 + g) * (tau / 2.0) ** 2 / tau

