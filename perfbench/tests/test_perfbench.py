"""Self-tests of the benchmark: span nesting, untraced runs and the gate.

They run shrunken copies of the workloads (n <= 3, few samples), so the
whole file takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench.spans import TARGETS, Tracer, layer_metrics, self_times  # noqa: E402
from perfbench.speed import REFERENCE_S, SpeedProbe  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, CheckWorkload, Gate, SgdWorkload, SweepWorkload,
    load_reference, matches)

TINY_CHECK = CheckWorkload("tiny-check", "", n_saddles=2, sample_args=(
    "--grad-samples", "200", "--seam-samples", "20", "--min-points", "2000",
    "--pairs", "200"))
TINY_SGD = SgdWorkload("tiny-sgd", "", n_saddles=3, n_seeds=2)
TINY_SWEEP = SweepWorkload("tiny-sweep", "", n_saddles=3, n_seeds=2)
TINY = (TINY_CHECK, TINY_SGD, TINY_SWEEP)


def wrapped_names() -> dict:
    return {(owner, attr): vars(owner)[attr] for _, owner, attr, _ in TARGETS}


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_child_spans_nest_inside_parent_and_self_times_are_nonnegative(tmp_path, workload):
    with Tracer() as tracer:
        rep = bench.run_rep(workload, 1, tmp_path / "out")
    assert rep.snapshot is not None
    spans = tracer.spans
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    for _, start, end, parent, _ in spans:
        assert start <= end
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            assert p_start <= start and end <= p_end
    assert min(self_times(spans)) >= 0
    metrics = layer_metrics(spans)
    assert all(v >= 0 for v in metrics.values())
    for layer in ("landscape", "cli"):
        assert metrics[f"{layer}.self_s"] > 0


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = wrapped_names()
    with Tracer():
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in before.items())
        bench.run_rep(TINY_SGD, 0, tmp_path / "out")
    assert all(vars(owner)[attr] is original for (owner, attr), original in before.items())


def test_untraced_run_leaves_every_wrapped_name_untouched(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("tracer installed during an untraced run")

    before = wrapped_names()
    monkeypatch.setattr(Tracer, "install", refuse)
    for workload in TINY:
        assert bench.run_rep(workload, 0, tmp_path / workload.name).snapshot is not None
    assert all(vars(owner)[attr] is original for (owner, attr), original in before.items())


def test_speed_probe_scales_wall_time_to_the_reference_speed(tmp_path):
    probe_times = iter([2 * REFERENCE_S, 4 * REFERENCE_S])     # host 3x slower on average
    rep = bench.run_rep(TINY_SWEEP, 0, tmp_path / "out", lambda: next(probe_times))
    assert rep.scaled == pytest.approx(rep.wall / 3)
    assert SpeedProbe()() > 0


def _flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("workload, name", [
    (TINY_SGD, "runs/run_seed1.csv"),
    (TINY_SGD, "plots/path_seed0.csv"),
    (TINY_SGD, "plots/blocks_seed1.csv"),
    (TINY_SWEEP, "sweep/sweep.csv"),
], ids=lambda x: getattr(x, "name", x))
def test_gate_fails_one_operation_for_one_flipped_byte(tmp_path, workload, name):
    ref_dir, copy = tmp_path / "ref", tmp_path / "copy"
    reference = bench.run_rep(workload, DEFAULT_SEED, ref_dir).snapshot
    shutil.copytree(ref_dir, copy)
    target = copy / name
    text = target.read_bytes()
    _flip_byte(target, text.index(b"\n") + 1)   # first byte of the first data row

    as_baseline = Gate(workload, DEFAULT_SEED, reference)
    assert as_baseline.add(workload.snapshot(DEFAULT_SEED, copy)) == 1
    as_later_rep = Gate(workload, DEFAULT_SEED, reference)
    assert as_later_rep.add(workload.snapshot(DEFAULT_SEED, ref_dir)) == 0
    assert as_later_rep.add(workload.snapshot(DEFAULT_SEED, copy)) == 1
    assert (as_later_rep.failed, as_later_rep.attempted) == (1, 2 * workload.n_ops)


def test_gate_fails_every_operation_when_a_json_output_breaks(tmp_path):
    ref_dir, copy = tmp_path / "ref", tmp_path / "copy"
    reference = bench.run_rep(TINY_CHECK, DEFAULT_SEED, ref_dir).snapshot
    shutil.copytree(ref_dir, copy)
    _flip_byte(copy / "check" / "check_report.json", 0)     # "{" -> "z"
    gate = Gate(TINY_CHECK, DEFAULT_SEED, reference)
    assert gate.add(TINY_CHECK.snapshot(DEFAULT_SEED, copy)) == TINY_CHECK.n_ops


def test_gate_accepts_additive_schema_change_and_rejects_changed_value(tmp_path):
    ref_dir = tmp_path / "ref"
    reference = bench.run_rep(TINY_SGD, DEFAULT_SEED, ref_dir).snapshot
    summary_path = ref_dir / "runs" / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["schema_version"] += 1
    for entry in summary["runs"]:
        entry["telemetry"] = {"blocks": []}
    summary_path.write_text(json.dumps(summary))
    assert Gate(TINY_SGD, DEFAULT_SEED, reference).add(
        TINY_SGD.snapshot(DEFAULT_SEED, ref_dir)) == 0

    summary["runs"][0]["total_iterations"] += 1
    summary_path.write_text(json.dumps(summary))
    assert Gate(TINY_SGD, DEFAULT_SEED, reference).add(
        TINY_SGD.snapshot(DEFAULT_SEED, ref_dir)) == 1


def test_matches_is_exact_on_fields_of_the_reference():
    assert matches({"a": [1.0, {"b": True}]}, {"a": [1.0, {"b": True, "c": 0}, 7], "d": 1})
    assert not matches({"a": 1.0}, {"a": 1})
    assert not matches({"a": 0.1}, {"a": math.nextafter(0.1, 1.0)})
    assert not matches({"schema_version": 2}, {"schema_version": 1})
    assert not matches([1, 2], [1])


def test_exit_code_is_1_when_the_gate_counts_a_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, TINY_SGD.name, TINY_SGD)     # no reference recorded
    monkeypatch.setattr(bench, "WORK", tmp_path)
    monkeypatch.setattr(bench, "SETUP_PROBES", 1)
    args = argparse.Namespace(workload=TINY_SGD.name, seed=DEFAULT_SEED, seconds=1, trace=0)
    assert bench.run_workload(args) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_committed_references_cover_every_operation():
    for name, workload in WORKLOADS.items():
        reference = load_reference(name)
        assert reference is not None and len(reference.ops) == workload.n_ops


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == bench.per_layer_names()
    assert all(m["unit"] == bench.unit_of(m["name"]) for m in spec["per_layer"])


def test_exits_nonzero_without_printing_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sgd-n100", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
