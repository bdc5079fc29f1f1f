"""In-memory span tracer installed from outside the package.

The tracer replaces the public names that saddlescape resolves at call time
(class attributes and module globals) with timing wrappers, records one
span per call, and puts every original back on exit.  Nothing under
``src/`` knows it is being traced.  A span is
``[name, start_ns, end_ns, parent_index, note]``; ``note`` holds a count
taken at the boundary (points passed, chain order located, ...).
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import saddlescape.analysis as analysis
import saddlescape.checks as checks
import saddlescape.cli as cli
import saddlescape.descent as descent
from saddlescape.landscape import Landscape

LAYERS = ("landscape", "descent", "analysis", "checks", "cli")


def _points(args, kwargs, out):
    xy = args[1] if len(args) > 1 else kwargs["xy"]
    return len(xy)


def _located_order(args, kwargs, out):
    return None if out is None else out.rid.order     # None: point outside D, not counted


def _projection_moved(args, kwargs, out):
    return out != args[1]


def _run_counts(args, kwargs, out):
    return (out.total_steps, len(out.iterates))


# (span name, owner, attribute, note).  descent.run and descent.init_sample
# are wrapped where the CLI looks them up (its own module globals);
# project_to_domain where descent.run looks it up.
TARGETS = (
    ("landscape.build", Landscape, "__init__", None),
    ("landscape.locate", Landscape, "locate", _located_order),
    ("landscape.value_in", Landscape, "value_in", None),
    ("landscape.gradient_in", Landscape, "gradient_in", None),
    ("landscape.value", Landscape, "value", None),
    ("landscape.gradient", Landscape, "gradient", None),
    ("landscape.classify_many", Landscape, "classify_many", _points),
    ("landscape.value_many", Landscape, "value_many", _points),
    ("landscape.gradient_many", Landscape, "gradient_many", _points),
    ("landscape.eval_region_many", Landscape, "eval_region_many", None),
    ("landscape.sample_points", Landscape, "sample_points", None),
    ("descent.run", cli, "run", _run_counts),
    ("descent.init_sample", cli, "init_sample", None),
    ("descent.project", descent, "project_to_domain", _projection_moved),
    ("analysis.observe", analysis.StreamObserver, "__call__", None),
    ("analysis.records", analysis.StreamObserver, "records", None),
    ("analysis.report", analysis.StreamObserver, "report", None),
    ("checks.run_all", checks, "run_all_checks", None),
    ("checks.gradient_check", checks, "gradient_check", None),
    ("checks.seam_scan", checks, "seam_scan", None),
    ("checks.stationary_check", checks, "stationary_check", None),
    ("checks.global_minimum", checks, "global_minimum_check", None),
    ("checks.lipschitz", checks, "lipschitz_report", None),
    ("cli.main", cli, "main", None),
    ("cli.check", cli, "cmd_check", None),
    ("cli.run", cli, "cmd_run", None),
    ("cli.sweep", cli, "cmd_sweep", None),
    ("cli.plotdata", cli, "cmd_plotdata", None),
)


class Tracer:
    """Context manager: wrappers installed on enter, originals restored on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for name, owner, attr, note in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, out)
            return out

        return traced


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced workload repetition.

    Per-call figures are means over the calls made; totals are per
    repetition.  A figure whose calls never happened reads 0.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    notes: dict[str, list] = defaultdict(list)
    classify_under_eval = 0
    for i, (name, start, end, parent, note) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_ns[name] += own[i]
        if note is not None:
            notes[name].append(note)
        if (name == "landscape.classify_many" and parent >= 0
                and spans[parent][0] in ("landscape.value_many", "landscape.gradient_many")):
            classify_under_eval += end - start

    def per_call(name, scale):
        return total[name] / calls[name] / scale if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = defaultdict(int)
    for name, ns in self_ns.items():
        layer_self[name.split(".", 1)[0]] += ns
    orders = notes["landscape.locate"]
    eval_points = sum(notes["landscape.value_many"]) + sum(notes["landscape.gradient_many"])
    eval_ns = (total["landscape.value_many"] + total["landscape.gradient_many"]
               - classify_under_eval)
    moved = notes["descent.project"]
    runs = notes["descent.run"]
    m = {
        "landscape.locate_us": per_call("landscape.locate", 1e3),
        "landscape.value_in_us": per_call("landscape.value_in", 1e3),
        "landscape.gradient_in_us": per_call("landscape.gradient_in", 1e3),
        "landscape.locate_calls": calls["landscape.locate"],
        "landscape.locate_order_mean": statistics.fmean(orders) if orders else 0.0,
        "landscape.classify_many_ns_pt": ratio(total["landscape.classify_many"],
                                               sum(notes["landscape.classify_many"])),
        "landscape.eval_many_ns_pt": ratio(eval_ns, eval_points),
        "landscape.eval_region_many_calls": calls["landscape.eval_region_many"],
        "landscape.points": eval_points,
        "landscape.build_ms": per_call("landscape.build", 1e6),
        "descent.project_us": per_call("descent.project", 1e3),
        "descent.project_calls": calls["descent.project"],
        "descent.projected_frac": ratio(sum(bool(x) for x in moved), len(moved)),
        "descent.run_self_ms": self_ns["descent.run"] / 1e6,
        "descent.iters": sum(steps for steps, _ in runs),
        "descent.init_sample_us": per_call("descent.init_sample", 1e3),
        "descent.kept_iterates": sum(kept for _, kept in runs),
        "analysis.observe_us": per_call("analysis.observe", 1e3),
        "analysis.observe_calls": calls["analysis.observe"],
        "analysis.report_ms": per_call("analysis.report", 1e6),
        "checks.gradient_check_s": self_ns["checks.gradient_check"] / 1e9,
        "checks.seam_scan_s": self_ns["checks.seam_scan"] / 1e9,
        "checks.stationary_check_s": self_ns["checks.stationary_check"] / 1e9,
        "checks.global_minimum_s": self_ns["checks.global_minimum"] / 1e9,
        "checks.lipschitz_s": self_ns["checks.lipschitz"] / 1e9,
        "cli.plotdata_s": total["cli.plotdata"] / 1e9,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / 1e9
    return m


def write_spans(path, spans: list[list]) -> None:
    """Tab-separated ``index name start_ns end_ns parent note`` lines."""
    with open(path, "w") as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\tnote\n")
        for i, (name, start, end, parent, note) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{'' if note is None else note}\n")
