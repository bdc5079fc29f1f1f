"""Bit corpus: every float64 bit of the landscape's lookups and closed forms.

A fixed corpus of parameter sets and points goes through the region lookup,
the vectorized and scalar evaluation, the derived constants and the
projection onto D, and each part is hashed with SHA-256.  The parameters and
offsets are ``ldexp`` of integer draws, so that no libm call sets them and
the corpus is the same on every platform.  The points hold what rounding
and the shared-edge rule act on: every square's centre, corners and edge
midpoints and the points on its branch line, each with its ``nextafter``
neighbours, and squares far along long chains, where -index*nu is large.
A separate part, ``projection_ties``, projects points just off the squares'
corners and edge midpoints and huge points, where squared distances to two
squares round to a tie and the exact nearest point must decide.

A change that is meant to keep every bit (a speed-up, a refactor) must leave
the digests equal; a change that moves bits on purpose records them again,
with ``python tests/test_bits.py``, and says why.
"""

import hashlib
import math

import numpy as np

from saddlescape import Landscape, LandscapeParams, derive_constants, project_to_domain

BITS = {
    "locate": "d0a5c9b3b33f52fa26feab6273cc60892709a1cc14e413b24d716f2e6fc48272",
    "classify_many": "d0a5c9b3b33f52fa26feab6273cc60892709a1cc14e413b24d716f2e6fc48272",
    "eval_many": "46fbb254387c7769b33147ae6099159d92b6a48fc3ff77a6d5ce3e5fba547d05",
    "scalar": "9718e1d423cdaf583497d735dc81a6b8591687fe569896d4a1a9569d34346c8d",
    "constants": "28cafd791b9437c19fdec8f0d57f03e7647003a0e35d0e5e036c63af74554787",
    "projection": "a9b6b49588c6dcdf3b95a5efebe61327c5511d0dbe6c2394ef098e5d5370f526",
    "projection_ties": "2adf81710f6327c5d0583e531de330bf47f3dddcf169ed1a1ed017ba77fa8875",
}

N_SETS = 100       # parameter sets with n_saddles up to 29
N_LONG = 4         # sets with n_saddles from 500 to 3000, sampled in their last squares
LAST = 8           # squares of a long chain the corpus covers
N_SAMPLED = 500
N_KICKS = 100
N_TIES = 10        # parameter sets whose marks and huge points pin the projection tie rule
HUGE = (1e16, 1e17, 1e150, 1e200)


def _scale(rng) -> float:
    """A float in [2^-28, 2^28), inside [e^-20, e^20]: a 21-bit mantissa times a power of two."""
    return math.ldexp(int(rng.integers(1 << 20, 1 << 21)), int(rng.integers(-28, 28)) - 20)


def _params(rng, n_lo: int, n_hi: int) -> LandscapeParams:
    L, tau = _scale(rng), _scale(rng)
    ratio = math.ldexp(int(rng.integers(10486, (1 << 20) + 1)), -20)   # gamma/L in [0.01, 1]
    return LandscapeParams(L=L, gamma=L * ratio, tau=tau, n_saddles=int(rng.integers(n_lo, n_hi)))


def _with_neighbours(pts: np.ndarray) -> np.ndarray:
    """Each point with its 8 ``nextafter`` neighbours, one ulp off in x1, x2 or both."""
    steps = [(np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)) for c in pts.T]
    grid = np.array([(x1, x2) for x1 in steps[0] for x2 in steps[1]])   # (9, 2, N)
    return grid.transpose(2, 0, 1).reshape(-1, 2)


def _points(lc: Landscape, first: int, rng) -> np.ndarray:
    """Sampled points in the squares from chain order ``first`` on, then each of
    those squares' centre, corners, edge midpoints and a point on its branch
    line, all with their neighbours."""
    tau, n = lc.params.tau, len(lc.regions)
    sampled = lc.place_in_regions(rng.integers(first, n, size=N_SAMPLED),
                                  rng.random((N_SAMPLED, 2)))
    marks = []
    for reg in lc.regions[first:]:
        a, b, c, d = reg.bounds
        marks += [(x1, x2) for x1 in (a, (a + b) / 2, b) for x2 in (c, (c + d) / 2, d)]
        lo = reg.bounds[2 - 2 * reg.axis]   # the low edge across the branch line
        across = lo + tau * math.ldexp(int(rng.integers(0, 1 << 20)), -20)
        marks.append((reg.center[0], across) if reg.axis == 0 else (across, reg.center[1]))
    return np.concatenate([sampled, _with_neighbours(np.array(marks))])


def _tie_points(lc: Landscape, rng) -> np.ndarray:
    """Each square's corners and edge midpoints with their neighbours, each moved by
    tau * 2^-k per coordinate, k from 1 to 60, with random signs: points near the
    boundary of D, where the squared distances to two squares can round to a tie.
    Then the points at ``HUGE`` on the diagonals and on the axes, with both signs."""
    marks = [(x1, x2) for a, b, c, d in (reg.bounds for reg in lc.regions)
             for x1 in (a, (a + b) / 2, b) for x2 in (c, (c + d) / 2, d)
             if (x1, x2) != ((a + b) / 2, (c + d) / 2)]
    pts = _with_neighbours(np.array(marks))
    offsets = np.ldexp(rng.choice([-lc.params.tau, lc.params.tau], size=pts.shape),
                       -rng.integers(1, 61, size=pts.shape))
    huge = [(s1 * h, s2 * h) for h in HUGE for s1 in (-1, 0, 1) for s2 in (-1, 0, 1) if s1 or s2]
    return np.concatenate([pts + offsets, huge])


def _digests() -> dict[str, str]:
    parts = {name: hashlib.sha256() for name in BITS}

    def put(name, array, dtype="<f8"):
        parts[name].update(np.ascontiguousarray(array, dtype=dtype).tobytes())

    rng = np.random.default_rng(20)
    corpus = [(_params(rng, 1, 30), False) for _ in range(N_SETS)]
    corpus += [(_params(rng, 500, 3000), True) for _ in range(N_LONG)]
    for params, long in corpus:
        lc = Landscape(params)
        d = derive_constants(params)
        put("constants", [d.L2, d.nu, d.eta_default, d.lower_bound_base,
                          lc.gradient_lipschitz_bound()])
        pts = _points(lc, len(lc.regions) - LAST if long else 0, rng)
        found = [lc.locate(p) for p in map(tuple, pts.tolist())]
        put("locate", [-1 if reg is None else reg.rid.order for reg in found], "<i8")
        orders = lc.classify_many(pts)
        put("classify_many", orders, "<i8")
        keep = orders >= 0
        for branch in (0, 1, -1):
            values, grads = lc.eval_many(pts[keep], orders[keep], branch)
            put("eval_many", values)
            put("eval_many", grads)
        for p, reg in list(zip(pts.tolist(), found))[::7]:
            if reg is not None:
                value, grad = lc.value_and_gradient_in(reg, p)
                put("scalar", [value, *grad])
        if not long:   # a long chain's projection scans thousands of squares per point
            # kicks of up to 2*tau per coordinate, from the first sampled points
            steps = rng.integers(-(1 << 21), (1 << 21) + 1, size=(N_KICKS, 2)).tolist()
            kicks = [[math.ldexp(k, -20) * params.tau for k in pair] for pair in steps]
            kicked = (pts[:N_KICKS] + np.array(kicks)).tolist()
            put("projection", [project_to_domain(lc, tuple(q)) for q in kicked])
    tie_rng = np.random.default_rng(21)   # its own draws leave the other parts' corpus as it is
    for params, _ in corpus[:N_TIES]:
        lc = Landscape(params)
        put("projection_ties", [project_to_domain(lc, q)
                                for q in map(tuple, _tie_points(lc, tie_rng).tolist())])
    return {name: h.hexdigest() for name, h in parts.items()}


def test_landscape_bits_match_recorded_digests():
    assert _digests() == BITS


if __name__ == "__main__":
    for name, digest in _digests().items():
        print(f'    "{name}": "{digest}",')
