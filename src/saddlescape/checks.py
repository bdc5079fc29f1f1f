"""Independent numerical verification of the landscape.

Everything here treats the landscape as a black box and probes it with
finite differences, seam comparisons, circle probes, and random pair
sampling.  All checks are deterministic given a seed and fan out over
numpy arrays in passes of about ``CHUNK`` points, so the number of numpy
calls does not grow with the length of the chain, and each check holds
one pass at a time, freeing its temporaries as it reduces them:

* the gradient check draws ``CHUNK`` candidates per pass, compares the
  seam-free ones and keeps the rows of the three largest errors, so a
  failing check also holds one pass (a tie goes to the later sample);
* the seam scan evaluates max(1, CHUNK // samples_per_seam) seams per
  pass, so one seam at a time when a seam has more than ``CHUNK`` samples;
* the stationary check probes the rings of CHUNK // N_ANGLES block
  centers per pass;
* the global-minimum check and the Lipschitz report draw, place and
  evaluate ``CHUNK`` samples per pass.

The sampled checks read the chain orders and the points of
``sample_points`` from copies of one seeded generator, each copy moved
past the draws before its stream (see ``_sample_passes``), so their
reports equal those of one whole draw.  Each check evaluates every point
in the region of the chain order it drew or built the point in.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .landscape import CHUNK, Landscape, check_count

# The sample counts of run_all_checks and of the ``check`` command's flags.
N_GRAD_SAMPLES = 10_000
SAMPLES_PER_SEAM = 1000
N_MIN_POINTS = 1_000_000
N_PAIRS = 100_000
N_ANGLES = 256      # the points on each block center's probe circle in stationary_check


@dataclass
class CheckReport:
    name: str
    samples: int
    worst_error: float
    threshold: float
    passed: bool
    witnesses: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _report(name, samples, worst, threshold, witnesses=None, details=None) -> CheckReport:
    return CheckReport(name=name, samples=samples, worst_error=worst, threshold=threshold,
                       passed=bool(worst <= threshold), witnesses=witnesses or [],
                       details=details or {})


def _seam_distance(landscape: Landscape, xy: np.ndarray) -> np.ndarray:
    """Per-point distance to the nearest seam line.

    Every seam (region edge or in-region branch line) lies on a line where
    one coordinate is a multiple of tau/2, so the distance to the nearest
    such multiple bounds the seam distance from below.
    """
    half = landscape.params.tau / 2.0
    r = np.mod(xy, half)
    d = np.minimum(r, half - r)
    return d.min(axis=1)


def _central_difference(landscape: Landscape, xy: np.ndarray, step, h: float, order_a, order_b):
    """(f(xy + step) - f(xy - step)) / (2 h), one value per point, with
    xy - step evaluated in the regions order_a and xy + step in order_b."""
    fd = landscape.value_many(xy + step, order_b)
    fd -= landscape.value_many(xy - step, order_a)
    fd /= 2 * h
    return fd


def _rel_error(x: np.ndarray, ref: np.ndarray, unit: float) -> np.ndarray:
    """|x - ref| / max(unit, |ref|) per point, of the row maxima for (N, 2)
    arrays.  The unit, L*tau for a gradient and L*tau^2 for a value, keeps
    the error free of the units of L and tau."""
    err, scale = np.abs(x - ref), np.abs(ref)
    if err.ndim == 2:
        err, scale = np.maximum(err[:, 0], err[:, 1]), np.maximum(scale[:, 0], scale[:, 1])
    return err / np.maximum(unit, scale)


def _gradient_errors(landscape: Landscape, pts: np.ndarray, o: np.ndarray, h: float):
    """Rows (error, point, analytic, fd) of the three largest relative errors,
    in stable order, of the analytic against the central-difference gradient in regions o."""
    grad = landscape.gradient_many(pts, o)
    fd = np.stack([_central_difference(landscape, pts, e, h, o, o) for e in np.eye(2) * h], axis=1)
    err = _rel_error(fd, grad, landscape.params.L * landscape.params.tau)
    cut = np.partition(err, -3)[-3] if len(err) > 3 else -np.inf     # the third largest
    top = np.flatnonzero(~(err < cut))  # the candidates, NaN among them
    top = top[np.argsort(err[top], kind="stable")[-3:]]
    return err[top], pts[top], grad[top], fd[top]


def gradient_check(landscape: Landscape, n_samples: int, seed: int = 0) -> CheckReport:
    """Analytic gradient vs central differences (step h = 1e-5*tau) on
    seam-free interior points; the error relative to max(L*tau, |analytic|)
    must stay within 1e-6.

    The points are the seam-free ones, in draw order, of batches of ``2 *
    n_samples`` draws of ``sample_points``.  One walk compares them
    ``CHUNK`` candidates at a time and keeps each pass's three largest
    errors; a failing check reports the three largest overall as its
    witnesses, largest (or NaN) first, a tie going to the later sample.
    """
    h, tol = 1e-5 * landscape.params.tau, 1e-6
    check_count("n_samples", n_samples, 0)
    if n_samples == 0:
        return _report("gradient_check", 0, 0.0, tol)
    rng = np.random.default_rng(seed)
    left, kept = n_samples, []
    while left:
        for o, pts in _sample_passes(landscape, rng, 2 * n_samples, 1):
            free = _seam_distance(landscape, pts) > 10.0 * h
            o, pts = o[free][:left], pts[free][:left]
            left -= len(pts)
            kept.append(_gradient_errors(landscape, pts, o, h))
            if not left:
                break
    err, pts, grad, fd = (np.concatenate(rows) for rows in zip(*kept))
    top = np.argsort(err, kind="stable")[-3:][::-1]     # NaN sorts last
    worst = float(err[top[0]])
    witnesses = [] if worst <= tol else [
        {"point": pts[i].tolist(), "analytic": grad[i].tolist(), "fd": fd[i].tolist(),
         "rel_error": float(err[i])} for i in top]
    return _report("gradient_check", n_samples, worst, tol, witnesses, {"h": h, "seed": seed})


def _enumerate_seams(landscape: Landscape):
    """All interior seams as (label, axis, level, lo, hi, order_a, order_b),
    in two families: the edges between chain neighbours, then the branch
    line inside every region but the final block.

    axis is the seam-normal coordinate (0: vertical line x1=level, 1:
    horizontal line x2=level); [lo, hi] is the seam extent along the other
    coordinate; order_a and order_b are the regions whose closed forms
    meet there.  An edge is evaluated in both regions with branch 0, a
    branch line in its region with branches +1 and -1.
    """
    def extent(reg, axis):      # reg's side along the line x[axis] = level
        return reg.bounds[2 - 2 * axis:4 - 2 * axis]

    edges, lines = [], []
    regs = landscape.regions
    for a, b in zip(regs, regs[1:]):    # b lies right of a or above it: they share a's side
        axis = 0 if b.bounds[0] == a.bounds[1] else 1
        edges.append((f"edge[{a.rid.order}|{b.rid.order}]", axis, a.bounds[2 * axis + 1],
                      *extent(a, axis), a.rid.order, b.rid.order))
    for reg in regs[:-1]:
        o, axis = reg.rid.order, reg.axis
        lines.append((f"branch[{o}]", axis, reg.center[axis], *extent(reg, axis), o, o))
    return edges, lines


def _seam_maxima(err: np.ndarray, k: int):
    """The largest of each of k seams' equal runs of errors, and the index
    of its first occurrence in err."""
    err = err.reshape(k, -1)
    return err.max(axis=1), err.argmax(axis=1) + err.shape[1] * np.arange(k)


def seam_scan(landscape: Landscape, samples_per_seam: int, seed: int = 0) -> CheckReport:
    """Branch agreement at every interior seam.

    At each sampled seam point the two adjacent closed forms are evaluated
    at the seam itself (value and gradient), and a central difference taken
    across the seam (offsets 1e-7*tau) is compared against both analytic
    normal derivatives.  Each error is relative to max(unit, |reference|),
    the unit being L*tau^2 for values and L*tau for gradients and the
    difference.  worst_error is the largest error normalized by its
    tolerance (1e-9 for values, 1e-5 for gradients and the difference), so
    the report threshold is 1.

    The seam parameters come from one stream, samples_per_seam draws per
    seam in seam order.  Seams are evaluated in passes of about ``CHUNK``
    points, max(1, CHUNK // samples_per_seam) seams at a time.
    """
    check_count("samples_per_seam", samples_per_seam, 0)
    if samples_per_seam == 0:
        return _report("seam_scan", 0, 0.0, 1.0)
    tol_value, tol_grad = 1e-9, 1e-5
    rng = np.random.default_rng(seed)
    m = samples_per_seam
    per_pass = max(1, CHUNK // m)
    L, tau = landscape.params.L, landscape.params.tau
    off = 1e-7 * tau
    kinds, tols = ("value", "gradient", "fd"), np.array([tol_value, tol_grad, tol_grad])
    worst = np.zeros(3)
    witnesses = []
    edges, lines = _enumerate_seams(landscape)
    for branch, family in ((0, edges), (1, lines)):
        for s in range(0, len(family), per_pass):
            labels, axis, level, lo, hi, order_a, order_b = zip(*family[s:s + per_pass])
            k = len(labels)
            on_x1 = np.repeat(np.equal(axis, 0), m)
            t = np.repeat(lo, m) + np.repeat(np.subtract(hi, lo), m) * rng.random(k * m)
            level = np.repeat(level, m)
            xy = np.stack([np.where(on_x1, level, t), np.where(on_x1, t, level)], axis=1)
            del t, level
            # each seam's largest value, gradient and fd error, and where it sits in xy
            err, at = np.empty((3, k)), np.empty((3, k), dtype=np.intp)
            va, ga = landscape.eval_many(xy, np.repeat(order_a, m), branch)
            vb, gb = landscape.eval_many(xy, np.repeat(order_b, m), -branch)
            err[0], at[0] = _seam_maxima(_rel_error(vb, va, L * tau * tau), k)
            del va, vb
            err[1], at[1] = _seam_maxima(_rel_error(gb, ga, L * tau), k)
            del gb
            gn = np.where(on_x1, ga[:, 0], ga[:, 1])
            del ga
            step = np.where(on_x1[:, None], (off, 0.0), (0.0, off))
            fd = _central_difference(landscape, xy, step, off, np.repeat(order_a, m),
                                     np.repeat(order_b, m))
            err[2], at[2] = _seam_maxima(_rel_error(fd, gn, L * tau), k)
            del fd, gn
            worst = np.maximum(worst, err.max(axis=1))
            # NaN is an error beyond any tolerance; seam first, then kind
            for j, c in np.argwhere(~(err.T <= tols)):
                i = at[c, j]
                witnesses.append({"seam": labels[j], "kind": kinds[c],
                                  "point": [float(xy[i, 0]), float(xy[i, 1])],
                                  "error": float(err[c, j])})
    worst_v, worst_g, worst_fd = worst.tolist()
    score = float(np.max(worst / tols))
    return _report("seam_scan", m * (len(edges) + len(lines)), score, 1.0, witnesses,
                   {"worst_value_jump": worst_v, "worst_gradient_jump": worst_g,
                    "worst_fd_mismatch": worst_fd, "tol_value": tol_value,
                    "tol_grad": tol_grad, "offset": off, "seed": seed})


def stationary_check(landscape: Landscape) -> CheckReport:
    """Exact zero gradient at every block center plus curvature signatures.

    Saddle centers must see both strictly lower and strictly higher values
    on a circle of radius 1e-3*tau, probed at ``N_ANGLES`` points; the
    final center only higher ones.  worst_error counts violated assertions.
    """
    n_angles, r = N_ANGLES, 1e-3 * landscape.params.tau
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    ring = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    blocks = landscape.regions[::2]     # the even orders; the last is the final block
    orders = np.array([reg.rid.order for reg in blocks])
    centers = np.array([reg.center for reg in blocks])
    fc, g = landscape.eval_many(centers, orders)
    higher = np.empty(len(blocks), dtype=bool)
    mixed = np.empty(len(blocks), dtype=bool)
    per_pass = CHUNK // n_angles
    for s in range(0, len(blocks), per_pass):
        part = slice(s, s + per_pass)
        c = centers[part]
        vals = landscape.value_many((c[:, None, :] + ring).reshape(-1, 2),
                                    np.repeat(orders[part], n_angles))
        vals = vals.reshape(len(c), n_angles)
        above, below = vals > fc[part, None], vals < fc[part, None]
        higher[part] = above.all(axis=1)
        mixed[part] = above.any(axis=1) & below.any(axis=1)
    violations, n_saddles = [], len(blocks) - 1
    for j, reg in enumerate(blocks):
        o = reg.rid.order
        if not (g[j, 0] == 0.0 and g[j, 1] == 0.0):
            violations.append({"region": o, "kind": "nonzero_gradient",
                               "gradient": [float(g[j, 0]), float(g[j, 1])]})
        if j == n_saddles:
            if not higher[j]:
                violations.append({"region": o, "kind": "not_local_minimum"})
        elif not mixed[j]:
            violations.append({"region": o, "kind": "not_saddle"})
    return _report("stationary_check", len(blocks) * (1 + n_angles), float(len(violations)),
                   0.0, violations, {"saddles": n_saddles, "minima": 1, "probe_radius": r})


def _sample_passes(landscape: Landscape, seed, n: int, n_offsets: int):
    """The draws ``integers(0, n_regions, n)`` and then ``n_offsets`` times
    ``random((n, 2))`` of ``default_rng(seed)``, yielded as (orders,
    points, ...) one pass of at most ``CHUNK`` samples at a time, each
    offset placed in the region of its order by ``place_in_regions``.

    Each offset stream is a copy of the generator moved past the draws
    before it, by drawing and dropping them ``CHUNK`` at a time; drawn in
    pieces, ``integers`` and ``random`` give the values and the final state
    of one whole draw.  ``seed`` may be a Generator; once every pass is
    drawn, it stands past all the draws, as after the whole draws.
    """
    n_regions = len(landscape.regions)
    sizes = [min(CHUNK, n - s) for s in range(0, n, CHUNK)]
    streams = [np.random.default_rng(seed)]
    for i in range(n_offsets):
        g = copy.deepcopy(streams[-1])
        for k in sizes:
            if i == 0:
                g.integers(0, n_regions, size=k)
            else:
                g.random((k, 2))
        streams.append(g)
    rng, *offsets = streams

    def placed(o):      # a pass; once yielded, only its consumer holds it
        return o, *(landscape.place_in_regions(o, g.random((len(o), 2))) for g in offsets)

    yield from (placed(rng.integers(0, n_regions, size=k)) for k in sizes)
    rng.bit_generator.state = streams[-1].bit_generator.state


def global_minimum_check(landscape: Landscape, n_points: int, seed: int = 0) -> CheckReport:
    """The final-block center is the sampled global minimum over D.

    The points are ``sample_points``' draws, drawn, placed and evaluated
    ``CHUNK`` points at a time.
    """
    check_count("n_points", n_points, 0)
    if n_points == 0:
        return _report("global_minimum", 0, 0.0, 0.0)
    center = landscape.regions[-1].center
    fc = landscape.value(center)
    n_bad, sampled_min, witnesses = 0, np.inf, []
    for o, pts in _sample_passes(landscape, seed, n_points, 1):
        vals = landscape.value_many(pts, o)
        sampled_min = np.minimum(sampled_min, vals.min())
        at_or_below = np.flatnonzero(~(vals > fc))     # NaN counts as a violation
        n_bad += len(at_or_below)
        for i in at_or_below[:3 - len(witnesses)]:
            witnesses.append({"point": [float(pts[i, 0]), float(pts[i, 1])],
                              "value": float(vals[i]), "center_value": fc})
    return _report("global_minimum", n_points, float(n_bad), 0.0, witnesses,
                   {"center": list(center), "center_value": fc,
                    "sampled_min": float(sampled_min), "seed": seed})


def lipschitz_report(landscape: Landscape, n_pairs: int, seed: int = 0) -> CheckReport:
    """Max gradient-difference ratio over random same-region point pairs,
    against the documented bound ``gradient_lipschitz_bound()``.  The pairs
    are the draws of all orders, then all a offsets, then all b offsets;
    they are drawn, placed and compared ``CHUNK`` pairs at a time."""
    check_count("n_pairs", n_pairs, 1)
    worst = -np.inf
    for o, pa, pb in _sample_passes(landscape, seed, n_pairs, 2):
        ga = landscape.gradient_many(pa, o)
        ga -= landscape.gradient_many(pb, o)
        pa -= pb
        dist = np.linalg.norm(pa, axis=1)
        keep = dist > 0
        ratios = np.linalg.norm(ga, axis=1)
        np.divide(ratios, dist, out=ratios, where=keep)
        worst = np.maximum(worst, ratios.max(where=keep, initial=-np.inf))
    return _report("gradient_lipschitz", n_pairs, float(worst),
                   landscape.gradient_lipschitz_bound(), details={"seed": seed})


def run_all_checks(landscape: Landscape, n_grad_samples: int = N_GRAD_SAMPLES,
                   samples_per_seam: int = SAMPLES_PER_SEAM, n_min_points: int = N_MIN_POINTS,
                   n_pairs: int = N_PAIRS, seed: int = 0) -> list[CheckReport]:
    return [
        gradient_check(landscape, n_grad_samples, seed=seed),
        seam_scan(landscape, samples_per_seam, seed=seed),
        stationary_check(landscape),
        global_minimum_check(landscape, n_min_points, seed=seed),
        lipschitz_report(landscape, n_pairs, seed=seed),
    ]
