"""Independent numerical verification of the landscape.

Everything here treats the landscape as a black box and probes it with
finite differences, seam comparisons, circle probes, and random pair
sampling.  All checks are deterministic given a seed and fan out over
numpy arrays, so the full parameter grid stays fast: the seam scan draws
all its samples from one stream and evaluates the seams in passes of about
``CHUNK`` points, and the stationary check probes every block center and
ring in one pass, so the number of numpy calls does not grow with the
length of the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .landscape import CHUNK, Landscape, RegionKind


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


def gradient_check(landscape: Landscape, n_samples: int = 10_000, h: float | None = None,
                   tol: float = 1e-6, seed: int = 0) -> CheckReport:
    """Analytic gradient vs central differences on seam-free interior points."""
    tau = landscape.params.tau
    if h is None:
        h = 1e-5 * tau
    if n_samples == 0:
        return _report("gradient_check", 0, 0.0, tol)
    rng = np.random.default_rng(seed)
    pts = np.empty((0, 2))
    while len(pts) < n_samples:
        cand = landscape.sample_points(2 * n_samples, rng)
        cand = cand[_seam_distance(landscape, cand) > 10.0 * h]
        pts = np.vstack([pts, cand])
    pts = pts[:n_samples]

    grad = landscape.gradient_many(pts)
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    fd = np.empty_like(grad)
    fd[:, 0] = (landscape.value_many(pts + e1) - landscape.value_many(pts - e1)) / (2 * h)
    fd[:, 1] = (landscape.value_many(pts + e2) - landscape.value_many(pts - e2)) / (2 * h)
    scale = np.maximum(1.0, np.abs(grad).max(axis=1))
    err = np.abs(fd - grad).max(axis=1) / scale
    worst = float(err.max())
    witnesses = []
    if worst > tol:
        for i in np.argsort(err)[-3:][::-1]:
            witnesses.append({"point": [float(pts[i, 0]), float(pts[i, 1])],
                              "analytic": [float(g) for g in grad[i]],
                              "fd": [float(g) for g in fd[i]],
                              "rel_error": float(err[i])})
    return _report("gradient_check", n_samples, worst, tol, witnesses,
                   {"h": h, "seed": seed})


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
    edges, lines = [], []
    regs = landscape.regions
    for a, b in zip(regs, regs[1:]):
        o = (a.rid.order, b.rid.order)
        if b.bounds[0] == a.bounds[1]:          # b to the right of a
            lo = max(a.bounds[2], b.bounds[2])
            hi = min(a.bounds[3], b.bounds[3])
            edges.append((f"edge[{o[0]}|{o[1]}]", 0, a.bounds[1], lo, hi, *o))
        elif b.bounds[2] == a.bounds[3]:        # b above a
            lo = max(a.bounds[0], b.bounds[0])
            hi = min(a.bounds[1], b.bounds[1])
            edges.append((f"edge[{o[0]}|{o[1]}]", 1, a.bounds[3], lo, hi, *o))
        else:
            raise AssertionError("chain neighbours must share an edge")
    for reg in regs:
        kind, o = reg.rid.kind, reg.rid.order
        if kind is RegionKind.FINAL_BLOCK:
            continue
        # odd blocks and the buffers into them branch on x1 = center,
        # even blocks and the buffers into them on x2 = center
        axis = 0 if kind in (RegionKind.ODD_BLOCK, RegionKind.EVEN_ODD_BUFFER) else 1
        lo, hi = reg.bounds[2 * (1 - axis):2 * (1 - axis) + 2]
        lines.append((f"branch[{o}]", axis, reg.center[axis], lo, hi, o, o))
    return edges, lines


def seam_scan(landscape: Landscape, samples_per_seam: int = 1000,
              tol_value: float = 1e-9, tol_grad: float = 1e-5,
              seed: int = 0) -> CheckReport:
    """Branch agreement at every interior seam.

    At each sampled seam point the two adjacent closed forms are evaluated
    at the seam itself (value and gradient), and a central difference taken
    across the seam (offsets 1e-7*tau) is compared against both analytic
    normal derivatives.  worst_error is the largest error normalized by its
    tolerance, so the report threshold is 1.

    The seam parameters come from one stream, samples_per_seam draws per
    seam in seam order.  Seams are evaluated in passes of about ``CHUNK``
    points, max(1, CHUNK // samples_per_seam) seams at a time.
    """
    if samples_per_seam == 0:
        return _report("seam_scan", 0, 0.0, 1.0)
    rng = np.random.default_rng(seed)
    m = samples_per_seam
    per_pass = max(1, CHUNK // m)
    off = 1e-7 * landscape.params.tau
    worst = {"value": 0.0, "gradient": 0.0, "fd": 0.0}
    tols = {"value": tol_value, "gradient": tol_grad, "fd": tol_grad}
    witnesses = []
    edges, lines = _enumerate_seams(landscape)
    for branch, family in ((0, edges), (1, lines)):
        for s in range(0, len(family), per_pass):
            labels, axis, level, lo, hi, order_a, order_b = zip(*family[s:s + per_pass])
            k = len(labels)
            axis, level, lo, hi, order_a, order_b = (
                np.repeat(v, m) for v in (axis, level, lo, hi, order_a, order_b))
            t = lo + (hi - lo) * rng.random(k * m)
            on_x1 = axis == 0
            xy = np.stack([np.where(on_x1, level, t), np.where(on_x1, t, level)], axis=1)
            va, ga = landscape.eval_many(xy, order_a, branch)
            vb, gb = landscape.eval_many(xy, order_b, -branch)
            step = np.where(on_x1[:, None], (off, 0.0), (0.0, off))
            vp, vm = landscape.value_many(np.concatenate([xy + step, xy - step])).reshape(2, -1)
            fd = (vp - vm) / (2 * off)
            gn = np.where(on_x1, ga[:, 0], ga[:, 1])
            dg = np.abs(ga - gb)
            ag = np.abs(ga)
            errs = {
                "value": np.abs(va - vb) / np.maximum(1.0, np.abs(va)),
                "gradient": (np.maximum(dg[:, 0], dg[:, 1])
                             / np.maximum(1.0, np.maximum(ag[:, 0], ag[:, 1]))),
                "fd": np.abs(fd - gn) / np.maximum(1.0, np.abs(gn)),
            }
            w, at, bad = {}, {}, np.zeros(k, dtype=bool)
            for tag, err in errs.items():   # per-seam maxima, first argmax
                err = err.reshape(k, m)
                wmax = err.max(axis=1)
                bad |= wmax > tols[tag]
                w[tag] = wmax.tolist()
                at[tag] = err.argmax(axis=1) + m * np.arange(k)
                worst[tag] = max(worst[tag], *w[tag])
            for j in np.flatnonzero(bad):
                for tag in errs:
                    if w[tag][j] > tols[tag]:
                        i = at[tag][j]
                        witnesses.append({"seam": labels[j], "kind": tag,
                                          "point": [float(xy[i, 0]), float(xy[i, 1])],
                                          "error": w[tag][j]})
    worst_v, worst_g, worst_fd = worst.values()
    score = max(worst_v / tol_value, worst_g / tol_grad, worst_fd / tol_grad)
    return _report("seam_scan", m * (len(edges) + len(lines)), score, 1.0, witnesses,
                   {"worst_value_jump": worst_v, "worst_gradient_jump": worst_g,
                    "worst_fd_mismatch": worst_fd, "tol_value": tol_value,
                    "tol_grad": tol_grad, "offset": off, "seed": seed})


def stationary_check(landscape: Landscape, n_angles: int = 256) -> CheckReport:
    """Exact zero gradient at every block center plus curvature signatures.

    Saddle centers must see both strictly lower and strictly higher values
    on a circle of radius 1e-3*tau; the final center only higher ones.
    worst_error counts violated assertions.
    """
    tau = landscape.params.tau
    r = 1e-3 * tau
    theta = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    ring = r * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    blocks = [reg for reg in landscape.regions if reg.rid.kind.is_block]
    orders = np.array([reg.rid.order for reg in blocks])
    centers = np.array([reg.center for reg in blocks])
    g = landscape.gradient_many(centers, orders)
    fc = landscape.value_many(centers, orders)[:, None]
    vals = landscape.value_many((centers[:, None, :] + ring).reshape(-1, 2))
    vals = vals.reshape(len(blocks), n_angles)
    higher = (vals > fc).all(axis=1)
    mixed = (vals > fc).any(axis=1) & (vals < fc).any(axis=1)
    violations = []
    for j, reg in enumerate(blocks):
        o = reg.rid.order
        if not (g[j, 0] == 0.0 and g[j, 1] == 0.0):
            violations.append({"region": o, "kind": "nonzero_gradient",
                               "gradient": [float(g[j, 0]), float(g[j, 1])]})
        if reg.rid.kind is RegionKind.FINAL_BLOCK:
            if not higher[j]:
                violations.append({"region": o, "kind": "not_local_minimum"})
        elif not mixed[j]:
            violations.append({"region": o, "kind": "not_saddle"})
    n_minima = sum(reg.rid.kind is RegionKind.FINAL_BLOCK for reg in blocks)
    return _report("stationary_check", len(blocks) * (1 + n_angles), float(len(violations)),
                   0.0, violations, {"saddles": len(blocks) - n_minima, "minima": n_minima,
                                     "probe_radius": r})


def global_minimum_check(landscape: Landscape, n_points: int = 1_000_000,
                         seed: int = 0) -> CheckReport:
    """The final-block center is the sampled global minimum over D."""
    if n_points == 0:
        return _report("global_minimum", 0, 0.0, 0.0)
    rng = np.random.default_rng(seed)
    pts = landscape.sample_points(n_points, rng)
    vals = landscape.value_many(pts)
    center = landscape.regions[-1].center
    fc = landscape.value(center)
    at_or_below = vals <= fc
    n_bad = int(at_or_below.sum())
    witnesses = []
    if n_bad:
        for i in np.nonzero(at_or_below)[0][:3]:
            witnesses.append({"point": [float(pts[i, 0]), float(pts[i, 1])],
                              "value": float(vals[i]), "center_value": fc})
    return _report("global_minimum", n_points, float(n_bad), 0.0, witnesses,
                   {"center": list(center), "center_value": fc,
                    "sampled_min": float(vals.min()), "seed": seed})


def lipschitz_probe(landscape: Landscape, n_pairs: int = 100_000, seed: int = 0) -> float:
    """Max gradient-difference ratio over random same-region point pairs."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    orders = rng.integers(0, len(landscape.regions), size=n_pairs)
    a = landscape.place_in_regions(orders, rng.random((n_pairs, 2)))
    b = landscape.place_in_regions(orders, rng.random((n_pairs, 2)))
    ga = landscape.gradient_many(a, orders)
    gb = landscape.gradient_many(b, orders)
    dist = np.linalg.norm(a - b, axis=1)
    keep = dist > 0
    ratios = np.linalg.norm(ga[keep] - gb[keep], axis=1) / dist[keep]
    return float(ratios.max())


def lipschitz_report(landscape: Landscape, n_pairs: int = 100_000, seed: int = 0) -> CheckReport:
    est = lipschitz_probe(landscape, n_pairs, seed)
    bound = landscape.gradient_lipschitz_bound()
    return _report("gradient_lipschitz", n_pairs, est, bound, details={"seed": seed})


def run_all_checks(landscape: Landscape, n_grad_samples: int = 10_000,
                   samples_per_seam: int = 1000, n_min_points: int = 1_000_000,
                   n_pairs: int = 100_000, seed: int = 0) -> list[CheckReport]:
    return [
        gradient_check(landscape, n_grad_samples, seed=seed),
        seam_scan(landscape, samples_per_seam, seed=seed),
        stationary_check(landscape),
        global_minimum_check(landscape, n_min_points, seed=seed),
        lipschitz_report(landscape, n_pairs, seed=seed),
    ]
