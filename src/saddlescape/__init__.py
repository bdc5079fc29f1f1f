"""Staircase-of-saddles landscape, descent experiments, and theory checks."""

from .landscape import (
    DerivedConstants,
    Landscape,
    LandscapeParams,
    OutsideDomainError,
    Point,
    RegionId,
    RegionKind,
    OUTSIDE,
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
from .checks import (
    CheckReport,
    global_minimum_check,
    gradient_check,
    lipschitz_report,
    run_all_checks,
    seam_scan,
    stationary_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
