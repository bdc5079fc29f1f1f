"""Staircase-of-saddles landscape, descent experiments, and theory checks."""

import sys as _sys
from types import ModuleType as _ModuleType

# Each submodule and the names the package exports from it.  A submodule loads
# on the first read of it or of one of its names, so `import saddlescape` loads
# none, a Landscape build loads only `landscape`, and numpy waits for `checks`
# or the vectorized and noisy paths.
_EXPORTS = {
    "landscape": ("DerivedConstants", "Landscape", "LandscapeParams", "OutsideDomainError",
                  "Point", "RegionId", "RegionKind", "derive_constants"),
    "descent": ("Event", "GdConfig", "Iterate", "NoiseConfig", "Outcome", "Trajectory",
                "init_sample", "project_to_domain", "run"),
    "analysis": ("EscapeRecord", "GrowthSummary", "InsufficientDataError", "SegmentationError",
                 "StallInfo", "StreamObserver", "TheoryCheck", "TheoryReport",
                 "check_buffer_bound", "check_escape_recurrence", "growth_summary", "replay"),
    "checks": ("CheckReport", "global_minimum_check", "gradient_check", "lipschitz_report",
               "run_all_checks", "seam_scan", "stationary_check"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


class _Package(_ModuleType):
    def __setattr__(self, name, value):
        # The import system sets each submodule here once it has run, however it
        # was imported (`import saddlescape.cli` loads all four), so the package's
        # names are always the submodule's own objects, bound before any caller
        # can patch the submodule.
        super().__setattr__(name, value)
        for export in _EXPORTS.get(name, ()):
            super().__setattr__(export, getattr(value, export))


def __getattr__(name: str):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    import_module(f".{module}", __name__)   # not `from . import`: it recurses here
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))


_sys.modules[__name__].__class__ = _Package
