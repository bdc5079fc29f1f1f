"""Benchmark workloads, their output snapshots and the correctness gate.

Each workload turns the benchmark seed into CLI argument lists and reads
the files the CLI wrote back into a snapshot: ``common`` fields shared by
every operation plus one entry per operation (one check, one seed, one
sweep task).  CSV files enter a snapshot as SHA-256 digests of their
bytes, JSON files as parsed objects.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Snapshot:
    common: object
    ops: list
    work: int          # descent iterations, or check samples for `check`


def _sha(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _padded(items, n):
    items = list(items) if isinstance(items, list) else []
    return (items + [None] * n)[:n]


@dataclass(frozen=True)
class CheckWorkload:
    """``check`` at default sample counts: vectorized landscape and checks."""

    name: str
    why: str
    n_saddles: int
    sample_args: tuple = ()
    n_ops = 5      # run_all_checks returns five reports
    speed_scaled = False    # see "Host speed scaling" in perfbench/README.md

    def commands(self, seed: int, out: Path) -> list[list[str]]:
        return [["check", "--n-saddles", str(self.n_saddles), "--seed", str(seed),
                 "--out", str(out / "check"), *self.sample_args]]

    def snapshot(self, seed: int, out: Path) -> Snapshot:
        report = _read_json(out / "check" / "check_report.json")
        if not isinstance(report, dict):
            return Snapshot(None, [None] * self.n_ops, 0)
        ops = _padded(report.get("checks"), self.n_ops)
        common = {k: v for k, v in report.items() if k != "checks"}
        work = sum(op["samples"] for op in ops if isinstance(op, dict)
                   and isinstance(op.get("samples"), int))
        return Snapshot(common, ops, work)

    def passed(self, op) -> bool:
        return isinstance(op, dict) and op.get("passed") is True


@dataclass(frozen=True)
class SgdWorkload:
    """``run --algo sgd`` over consecutive seeds, then ``plotdata``."""

    name: str
    why: str
    n_saddles: int
    n_seeds: int
    speed_scaled = True

    @property
    def n_ops(self) -> int:
        return self.n_seeds

    def first_seed(self, seed: int) -> int:
        return seed * self.n_seeds

    def commands(self, seed: int, out: Path) -> list[list[str]]:
        runs, plots = out / "runs", out / "plots"
        return [["run", "--algo", "sgd", "--noise-var", "0.1",
                 "--n-saddles", str(self.n_saddles), "--record-every", "1",
                 "--seed", str(self.first_seed(seed)), "--seeds", str(self.n_seeds),
                 "--out", str(runs)],
                ["plotdata", "--runs", str(runs), "--out", str(plots)]]

    def snapshot(self, seed: int, out: Path) -> Snapshot:
        summary = _read_json(out / "runs" / "summary.json")
        if not isinstance(summary, dict):
            summary = {}
        runs = _padded(summary.get("runs"), self.n_seeds)
        common = {k: v for k, v in summary.items() if k != "runs"} or None
        ops = []
        for j, entry in enumerate(runs):
            s = self.first_seed(seed) + j
            ops.append({
                "summary": entry,
                "trajectory_csv": _sha(out / "runs" / f"run_seed{s}.csv"),
                "fseries_csv": _sha(out / "plots" / f"fseries_seed{s}.csv"),
                "path_csv": _sha(out / "plots" / f"path_seed{s}.csv"),
                "blocks_csv": _sha(out / "plots" / f"blocks_seed{s}.csv"),
            })
        work = sum(e["total_iterations"] for e in runs if isinstance(e, dict)
                   and isinstance(e.get("total_iterations"), int))
        return Snapshot(common, ops, work)

    def passed(self, op) -> bool:
        entry = op.get("summary") if isinstance(op, dict) else None
        return (isinstance(entry, dict) and isinstance(entry.get("theory"), dict)
                and entry["theory"].get("passed") is True)


@dataclass(frozen=True)
class SweepWorkload:
    """``sweep`` over two curvatures, both algorithms and many seeds."""

    name: str
    why: str
    n_saddles: int
    n_seeds: int
    speed_scaled = True

    @property
    def n_ops(self) -> int:
        return 2 * 2 * self.n_seeds     # two curvatures L, two algorithms

    def commands(self, seed: int, out: Path) -> list[list[str]]:
        return [["sweep", "--L", "1", "1.5", "--gamma", "0.5",
                 "--n-saddles", str(self.n_saddles), "--algo", "gd", "sgd",
                 "--seed", str(seed * self.n_seeds), "--seeds", str(self.n_seeds),
                 "--jobs", "1", "--out", str(out / "sweep")]]

    def snapshot(self, seed: int, out: Path) -> Snapshot:
        try:
            parts = (out / "sweep" / "sweep.csv").read_bytes().decode().split("\n")
        except (OSError, UnicodeDecodeError):
            return Snapshot(None, [None] * self.n_ops, 0)
        # header, one line per task, then the remainder: joined with "\n"
        # these reproduce the file byte for byte
        n = self.n_ops
        common = {"header": parts[0], "trailer": parts[1 + n:]}
        ops = _padded(parts[1:1 + n], n)
        header = parts[0].split(",")
        col = header.index("total_iters") if "total_iters" in header else len(header)
        work = 0
        for row in ops:
            fields = (row or "").split(",")
            if len(fields) > col and fields[col].isdigit():
                work += int(fields[col])
        return Snapshot(common, ops, work)

    def passed(self, op) -> bool:
        return isinstance(op, str) and op != ""


# Seeds per run and sample counts are fixed here; every seed the CLI sees is
# derived from the benchmark seed.  The three workloads stress different
# layers, so an optimisation of one layer has a workload that bypasses it.
WORKLOADS = {w.name: w for w in (
    CheckWorkload(
        "check-n100",
        "check at n=100: vectorized landscape path and the checks, whose "
        "per-region mask loops and seams grow with n; no scalar descent step",
        n_saddles=100),
    SgdWorkload(
        "sgd-n100",
        "noisy descent walking all 201 regions at n=100, then plotdata: "
        "per-step scalar locate, projection, observer and CSV writes dominate",
        n_saddles=100, n_seeds=10),
    SweepWorkload(
        "sweep-n9",
        "many short gd and sgd runs at the default n=9: per-run set-up, "
        "observer report and row formatting dominate; the only plain-descent workload",
        n_saddles=9, n_seeds=50),
)}


# -- correctness gate -------------------------------------------------------------

def matches(ref, got) -> bool:
    """True when every field of ``ref`` is present in ``got`` with the same value.

    Fields added by ``got`` are ignored (dict keys, trailing list items), so
    purely additive schema changes pass; ``schema_version`` may only grow.
    Scalars must agree in type and bits (NaN matches NaN).
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return False
        for key, value in ref.items():
            if key not in got:
                return False
            if key == "schema_version":
                if not (type(got[key]) is int and got[key] >= value):
                    return False
            elif not matches(value, got[key]):
                return False
        return True
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) >= len(ref)
                and all(matches(r, g) for r, g in zip(ref, got)))
    if type(ref) is not type(got):
        return False
    if isinstance(ref, float) and math.isnan(ref):
        return math.isnan(got)
    return ref == got


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def load_reference(name: str) -> Snapshot | None:
    data = _read_json(REFERENCE_DIR / f"{name}.json")
    if not isinstance(data, dict):
        return None
    return Snapshot(data.get("common"), data.get("ops", []), 0)


def write_reference(path: Path, snap: Snapshot) -> None:
    """One operation per line, so a changed operation shows as one changed line."""
    lines = ["{", f'"common": {json.dumps(snap.common, sort_keys=True)},', '"ops": [']
    lines += [json.dumps(op, sort_keys=True) + "," for op in snap.ops]
    lines[-1] = lines[-1].rstrip(",")
    lines += ["]", "}"]
    path.write_text("\n".join(lines) + "\n")


class Gate:
    """Counts failed operations over every repetition of one benchmark run.

    The first successful repetition is the baseline.  At the default seed
    the baseline must match the recorded reference; at any seed each
    baseline operation must report passed, and every later repetition,
    traced or not, must reproduce the baseline exactly.  A repetition that
    raised or exited nonzero fails all its operations.
    """

    def __init__(self, workload, seed: int, reference: Snapshot | None):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self._base = None       # (common digest, op digests, op ok flags)
        self.errors: list[str] = []

    def add(self, snap: Snapshot | None) -> int:
        """Record one repetition; returns the number of its failed operations."""
        n = self.workload.n_ops
        self.attempted += n
        if snap is None:
            self.failed += n
            self.errors.append("repetition raised or exited nonzero")
            return n
        common = digest(snap.common)
        ops = [digest(op) for op in snap.ops]
        if self._base is None:
            self._base = (common, ops, self._baseline_ok(snap))
        base_common, base_ops, ok = self._base
        bad = sum(1 for i in range(n)
                  if not ok[i] or common != base_common or ops[i] != base_ops[i])
        if bad:
            self.errors.append(f"{bad} of {n} operations differ from the baseline or "
                               "the reference, or did not pass")
        self.failed += bad
        return bad

    def _baseline_ok(self, snap: Snapshot) -> list[bool]:
        ok = [self.workload.passed(op) for op in snap.ops]
        if self.seed == DEFAULT_SEED:
            ref = self.reference
            if ref is None or not matches(ref.common, snap.common):
                return [False] * len(ok)
            ref_ops = _padded(ref.ops, len(ok))
            ok = [o and r is not None and matches(r, got)
                  for o, r, got in zip(ok, ref_ops, snap.ops)]
        return ok
