"""saddlescape benchmark.

Runs one workload through ``saddlescape.cli.main(argv)`` in-process and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload sgd-n100 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
reports per-layer metrics from a traced run plus the chain-length probes.
``--workload all`` runs every workload in a fresh process of its own, one
after the other, and prints a table.  Run it from the repository root; the
package is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"

MIN_REPS = 3          # timed repetitions per untraced run, whatever --seconds says
SETUP_PROBES = 21     # fresh interpreters per run for setup_s; one more warms the disk cache

END_TO_END_UNITS = {"wall_s": "s", "iters_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import saddlescape
t1 = time.perf_counter()
saddlescape.Landscape(saddlescape.LandscapeParams(n_saddles=int(sys.argv[2])))
t2 = time.perf_counter()
print(t1 - t0, t2 - t0)
"""


def pin_threads() -> None:
    """One thread per numerical library, here and in every child process.

    Call before numpy is first imported.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def unit_of(name: str) -> str:
    """Unit of a metric, read from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    key = name.split(".")[1]
    for suffix, unit in (("_ns_pt", "ns/pt"), ("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_frac", "frac"), ("_mean", "order"), ("_written", "B")):
        if key.endswith(suffix):
            return unit
    return "ratio" if name.endswith(".ratio") else "count"


def per_layer_names() -> list[str]:
    from perfbench.probes import probe_names
    from perfbench.spans import layer_metrics
    return [*layer_metrics([]), "cli.bytes_written", "cli.import_s",
            "trace.overhead_frac", *probe_names()]


def _commit() -> str:
    """The checked-out commit, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "workload": workload, "seed": seed, "seconds": seconds, "trace": trace}


def measure_setup(n_saddles: int, probe) -> tuple[float, float]:
    """Median (setup_s, import_s) over fresh interpreters, run one at a time.

    Each interpreter's times are scaled to the reference host speed by the
    speed ``probe``, timed right before and right after it.
    """
    from perfbench.speed import REFERENCE_S
    setups, imports = [], []
    for i in range(SETUP_PROBES + 1):
        before = probe()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(n_saddles)],
                              capture_output=True, text=True, timeout=120, check=True)
        factor = REFERENCE_S / ((before + probe()) / 2)
        import_s, setup_s = map(float, proc.stdout.split())
        if i:
            setups.append(setup_s * factor)
            imports.append(import_s * factor)
    return statistics.median(setups), statistics.median(imports)


@dataclass
class Rep:
    wall: float
    snapshot: object      # workloads.Snapshot, or None when a command failed
    bytes_written: int
    scaled: float         # wall at the reference host speed (see perfbench/speed.py)


def run_rep(workload, seed: int, out: Path, probe=None) -> Rep:
    """One repetition of the workload's commands; only ``cli.main`` is timed.

    With a speed ``probe``, the host speed is measured right before and right
    after the commands, and ``scaled`` is the wall time at the reference speed.
    """
    import saddlescape.cli as cli
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    before = probe() if probe else None
    wall = 0.0
    ok = True
    with redirect_stdout(io.StringIO()):
        for argv in workload.commands(seed, out):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)     # looked up per call, so a tracer sees it
            except Exception:
                traceback.print_exc()
                rc = None
            wall += time.perf_counter() - t0
            if rc != 0:
                print(f"command failed ({rc}): {argv}", file=sys.stderr)
                ok = False
                break
    scaled = wall
    if probe:
        from perfbench.speed import REFERENCE_S
        scaled = wall * REFERENCE_S / ((before + probe()) / 2)
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return Rep(wall, workload.snapshot(seed, out) if ok else None, written, scaled)


def measure(workload, seed: int, seconds: int, trace: int, gate, probe) -> tuple[dict, dict]:
    """Metrics of one run, and the wall time of every measured repetition.

    Repetitions are scaled by the speed ``probe`` only on workloads whose
    ``speed_scaled`` is true.
    """
    from perfbench.spans import Tracer, layer_metrics, write_spans
    if not workload.speed_scaled:
        probe = None
    out = WORK / f"{workload.name}.{os.getpid()}"
    metrics: dict[str, float] = {}
    walls: dict[str, list[float]] = {}
    try:
        gate.add(run_rep(workload, seed, out).snapshot)     # warm-up, gated too
        if not trace:
            reps = []
            t0 = time.perf_counter()
            while len(reps) < MIN_REPS or time.perf_counter() - t0 < seconds:
                reps.append(run_rep(workload, seed, out, probe))
                gate.add(reps[-1].snapshot)
            walls["untraced"] = [r.scaled for r in reps]
            walls["untraced raw"] = [r.wall for r in reps]
            metrics["wall_s"] = statistics.median(walls["untraced"])
            metrics["iters_per_s"] = statistics.median(
                (r.snapshot.work if r.snapshot else 0) / r.scaled for r in reps)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # one traced repetition after the peak is read: at any seed the
            # gate then also proves traced and untraced outputs identical
            with Tracer():
                gate.add(run_rep(workload, seed, out).snapshot)
            return metrics, walls
        untraced, traced, layers = [], [], []
        t0 = time.perf_counter()
        while not traced or time.perf_counter() - t0 < seconds:
            # alternate which side of a pair runs first, so that drift in
            # machine speed does not show up as tracing overhead
            for tracing in (False, True) if len(traced) % 2 == 0 else (True, False):
                with Tracer() if tracing else nullcontext() as tracer:
                    rep = run_rep(workload, seed, out, probe)
                gate.add(rep.snapshot)
                (traced if tracing else untraced).append(rep)
                if tracing:
                    spans = tracer.spans
                    layers.append(layer_metrics(spans))
        WORK.mkdir(parents=True, exist_ok=True)
        write_spans(WORK / f"{workload.name}.spans.tsv", spans)
        for name in layers[0]:
            metrics[name] = statistics.median(m[name] for m in layers)
        metrics["cli.bytes_written"] = statistics.median(r.bytes_written for r in traced)
        walls["untraced"] = [r.scaled for r in untraced]
        walls["traced"] = [r.scaled for r in traced]
        walls["untraced raw"] = [r.wall for r in untraced]
        walls["traced raw"] = [r.wall for r in traced]
        untraced_wall = statistics.median(walls["untraced"])
        metrics["trace.overhead_frac"] = (statistics.median(walls["traced"])
                                          - untraced_wall) / untraced_wall
        return metrics, walls
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_workload(args) -> int:
    from perfbench.probes import chain_probes
    from perfbench.speed import SpeedProbe
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, Gate, load_reference
    workload = WORKLOADS[args.workload]
    prov = provenance(workload.name, args.seed, args.seconds, args.trace)
    probe = SpeedProbe()
    setup_s, import_s = measure_setup(workload.n_saddles, probe)
    reference = load_reference(workload.name) if args.seed == DEFAULT_SEED else None
    gate = Gate(workload, args.seed, reference)
    metrics, walls = measure(workload, args.seed, args.seconds, args.trace, gate, probe)
    if args.trace:
        metrics["cli.import_s"] = import_s
        metrics.update(chain_probes(args.seed))
    else:
        metrics["setup_s"] = setup_s
    failed_frac = gate.failed / gate.attempted
    for line in gate.errors:
        print(f"gate: {line}", file=sys.stderr)
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    for kind, values in walls.items():
        print(f"{workload.name} {kind} repetitions: {len(values)}, wall s "
              f"min {min(values):.4f} median {statistics.median(values):.4f} "
              f"max {max(values):.4f}")
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value!r} {unit_of(name)}")
    print(f"{workload.name} failed_frac = {failed_frac!r} frac "
          f"({gate.failed} of {gate.attempted} operations)")
    result = {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    WORK.mkdir(parents=True, exist_ok=True)
    record = {**result, "provenance": prov, "errors": gate.errors, "walls": walls}
    (WORK / f"{workload.name}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


def run_all(args, names) -> int:
    """Every workload in a fresh process of its own, one at a time."""
    rows = []
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            print(f"{name}: exit code {proc.returncode}, no result", file=sys.stderr)
            return proc.returncode or 1
        rows.append((name, result))
    print(f"{'workload':<12} {'metric':<34} {'value':>16}  unit")
    for name, result in rows:
        for metric, m in result["metrics"].items():
            print(f"{name:<12} {metric:<34} {m['value']:>16.6g}  {m['unit']}")
        print(f"{name:<12} {'failed_frac':<34} {result['failed'] / result['attempted']:>16.6g}"
              f"  frac ({result['failed']} of {result['attempted']})")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=int, default=20, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    if not (SRC / "saddlescape" / "__init__.py").is_file():
        print(f"error: no saddlescape package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
