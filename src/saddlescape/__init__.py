"""Staircase-of-saddles landscape, descent experiments, and theory checks."""

from .landscape import (
    DerivedConstants,
    Landscape,
    LandscapeParams,
    OutsideDomainError,
    Point,
    RegionId,
    RegionKind,
    derive_constants,
)
from .descent import (
    Event,
    GdConfig,
    Iterate,
    NoiseConfig,
    Outcome,
    Trajectory,
    init_sample,
    project_to_domain,
    run,
)
from .analysis import (
    EscapeRecord,
    GrowthSummary,
    InsufficientDataError,
    SegmentationError,
    StallInfo,
    StreamObserver,
    TheoryCheck,
    TheoryReport,
    check_buffer_bound,
    check_escape_recurrence,
    growth_summary,
    replay,
)

# The checks, and numpy with them, load on first access (PEP 562): the scalar
# path (build, evaluate, plain run, observe, report) imports no numpy.
_CHECK_NAMES = ("CheckReport", "global_minimum_check", "gradient_check", "lipschitz_report",
                "run_all_checks", "seam_scan", "stationary_check")

__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 | {"checks", *_CHECK_NAMES})
__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "checks" or name in _CHECK_NAMES:
        from importlib import import_module   # not `from . import checks`: it recurses here
        checks = import_module(".checks", __name__)
        return checks if name == "checks" else getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
