"""Chain-length probes: the cost of each landscape primitive at n=9 and n=100.

Scalar probes (``locate``, ``project_to_domain``) report the median over a
few passes of the mean time per call; vectorized probes time one call on
a million points.  Every point is uniform over D, drawn from the benchmark
seed.  Each probe also reports its n=100 / n=9 ratio, which is 1 for a
lookup whose cost does not grow with the chain.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from saddlescape.descent import project_to_domain
from saddlescape.landscape import Landscape, LandscapeParams

CHAIN_LENGTHS = (9, 100)
VECTOR_POINTS = 1_000_000
SCALAR_POINTS = 5_000
SCALAR_PASSES = 3
PROBES = ("locate_us", "project_us", "classify_many_s", "value_many_s", "gradient_many_s")


def _per_call_us(fn, points) -> float:
    passes = []
    for _ in range(SCALAR_PASSES):
        t0 = time.perf_counter()
        for p in points:
            fn(p)
        passes.append((time.perf_counter() - t0) / len(points) * 1e6)
    return statistics.median(passes)


def _seconds(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def chain_probes(seed: int) -> dict[str, float]:
    by_n = {}
    for n in CHAIN_LENGTHS:
        lc = Landscape(LandscapeParams(n_saddles=n))
        xy = lc.sample_points(VECTOR_POINTS, np.random.default_rng([seed, n]))
        scalar = [tuple(p) for p in xy[:SCALAR_POINTS].tolist()]
        by_n[n] = {
            "locate_us": _per_call_us(lc.locate, scalar),
            "project_us": _per_call_us(lambda p: project_to_domain(lc, p), scalar),
            "classify_many_s": _seconds(lc.classify_many, xy),
            "value_many_s": _seconds(lc.value_many, xy),
            "gradient_many_s": _seconds(lc.gradient_many, xy),
        }
    short, long = CHAIN_LENGTHS
    metrics = {}
    for key in PROBES:
        for n in CHAIN_LENGTHS:
            metrics[f"chain.{key}.n{n}"] = by_n[n][key]
        metrics[ratio_name(key)] = by_n[long][key] / by_n[short][key]
    return metrics


def ratio_name(key: str) -> str:
    return f"chain.{key.rsplit('_', 1)[0]}.ratio"


def probe_names() -> list[str]:
    names = []
    for key in PROBES:
        names += [f"chain.{key}.n{n}" for n in CHAIN_LENGTHS] + [ratio_name(key)]
    return names
