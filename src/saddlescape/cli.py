"""Command-line experiment runner.

Subcommands: ``check`` (landscape verification suite), ``run`` (seeded
descent runs with CSV trajectories and a JSON summary), ``sweep``
(parameter-grid aggregate CSV), ``plotdata`` (plot-ready series from run
outputs).  Every emitted file is reproducible bit-for-bit from the options
and seeds; wall-clock timings go to stdout only.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import itertools
import json
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np

from . import analysis, checks
from .descent import GdConfig, NoiseConfig, init_sample, run
from .landscape import Landscape, LandscapeParams, derive_constants

SCHEMA_VERSION = 1

USAGE_ERROR = 2
IO_ERROR = 3


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact for doubles."""
    return format(x, ".17g")


def _default_out() -> str:
    return str(Path("out") / datetime.now().strftime("%Y%m%d-%H%M%S"))


def _load_config_file(path: str) -> dict:
    """``key = value`` lines; '#' starts a comment; keys match the flag names."""
    values = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}; "
                             f"known keys: {', '.join(_CONFIG_TYPES)}")
        values[key] = val.strip()
    return values


_CONFIG_TYPES = {
    "L": float, "gamma": float, "tau": float, "n_saddles": int,
    "eta": float, "max_iter": int, "stop_grad_norm": float,
    "seed": int, "seeds": int, "noise_var": float, "algo": str,
    "out": str, "record_every": int, "jobs": int,
}


def _resolve(args: argparse.Namespace, key: str, default):
    """Flag value if given, else config-file value, else the default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    cfg = getattr(args, "_config_values", {})
    if key in cfg:
        return _CONFIG_TYPES[key](cfg[key])
    return default


def _add_common(parser: argparse.ArgumentParser, grid: bool = False):
    nargs = "+" if grid else None
    parser.add_argument("--L", type=float, nargs=nargs, default=None,
                        help="benign curvature (default 1)")
    parser.add_argument("--gamma", type=float, nargs=nargs, default=None,
                        help="escape curvature (default L/2)")
    parser.add_argument("--tau", type=float, nargs=nargs, default=None,
                        help="block side length (default 1)")
    parser.add_argument("--n-saddles", type=int, nargs=nargs, default=None,
                        help="number of saddle blocks (default 9)")
    parser.add_argument("--config", default=None,
                        help="file with 'key = value' lines; flags override it")
    parser.add_argument("--out", default=None, help="output directory")


def _add_run_options(parser: argparse.ArgumentParser):
    parser.add_argument("--eta", type=float, default=None,
                        help="step size (default 1/(4L))")
    parser.add_argument("--max-iter", type=int, default=None,
                        help="iteration budget (default 1000000)")
    parser.add_argument("--stop-grad-norm", type=float, default=None,
                        help="stop threshold inside the final block (default "
                             "1e-10, or L*tau/2 for sgd with --noise-var above 0)")
    parser.add_argument("--seed", type=int, default=None, help="first seed (default 0)")
    parser.add_argument("--seeds", type=int, default=None,
                        help="number of consecutive seeds (default 1)")
    parser.add_argument("--noise-var", type=float, default=None,
                        help="per-coordinate Gaussian variance for sgd (default 0.1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlescape",
        description="Staircase-of-saddles landscape experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify the landscape numerically")
    _add_common(p_check)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--grad-samples", type=int, default=10_000)
    p_check.add_argument("--seam-samples", type=int, default=1000)
    p_check.add_argument("--min-points", type=int, default=1_000_000)
    p_check.add_argument("--pairs", type=int, default=100_000)

    p_run = sub.add_parser("run", help="seeded descent runs")
    _add_common(p_run)
    _add_run_options(p_run)
    p_run.add_argument("--record-every", type=int, default=None,
                       help="trajectory thinning stride (default 1)")
    p_run.add_argument("--algo", choices=["gd", "sgd"], default=None,
                       help="plain or noisy descent (default gd)")

    p_sweep = sub.add_parser("sweep", help="grid of runs, aggregate CSV")
    _add_common(p_sweep, grid=True)
    _add_run_options(p_sweep)
    p_sweep.add_argument("--algo", choices=["gd", "sgd"], nargs="+", default=None,
                         help="algorithms to sweep (default: gd sgd)")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="parallel workers (default 1)")

    p_plot = sub.add_parser("plotdata", help="plot-ready CSV series from run outputs")
    p_plot.add_argument("--runs", required=True, help="directory written by 'run'")
    p_plot.add_argument("--out", default=None, help="output directory (default: same)")
    return parser


def _as_list(v):
    if v is None:
        return None
    return list(v) if isinstance(v, (list, tuple)) else [v]


def _params_grid(args) -> list[LandscapeParams]:
    """Every combination of the given L, gamma, tau and n_saddles values;
    gamma defaults to L/2.  A single value of each gives one element."""
    Ls = _as_list(_resolve(args, "L", None)) or [1.0]
    gammas = _as_list(_resolve(args, "gamma", None))
    taus = _as_list(_resolve(args, "tau", None)) or [1.0]
    ns = _as_list(_resolve(args, "n_saddles", None)) or [9]
    combos = []
    for L, tau, n in itertools.product(Ls, taus, ns):
        gs = gammas if gammas is not None else [L / 2.0]
        for g in gs:
            combos.append(LandscapeParams(L=L, gamma=g, tau=tau, n_saddles=n))
    return combos


def _outdir(args) -> Path:
    out = Path(_resolve(args, "out", None) or _default_out())
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as e:
        raise IOError(f"output directory {out} is not writable: {e}") from e
    return out


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _gd_config(args) -> GdConfig:
    """Each GdConfig field from its flag, else the config file, else its default."""
    return GdConfig(**{f.name: _resolve(args, f.name, f.default)
                       for f in dataclasses.fields(GdConfig)})


def _noise_var(args, algos) -> float:
    """--noise-var, validated when an sgd run will use it, so that bad
    noise fails before any output directory is made."""
    noise_var = _resolve(args, "noise_var", NoiseConfig.variance)
    if "sgd" in algos:
        NoiseConfig(variance=noise_var)
    return noise_var


def _require_at_least(flag: str, value: int, least: int) -> int:
    if value < least:
        raise ValueError(f"--{flag.replace('_', '-')} must be >= {least}, got {value}")
    return value


# -- check ---------------------------------------------------------------------

def cmd_check(args) -> int:
    [params] = _params_grid(args)
    for flag, least in (("grad_samples", 0), ("seam_samples", 0), ("min_points", 0),
                        ("pairs", 1)):
        _require_at_least(flag, getattr(args, flag), least)
    out = _outdir(args)
    seed = _resolve(args, "seed", 0)
    landscape = Landscape(params)
    t0 = time.perf_counter()
    reports = checks.run_all_checks(
        landscape, n_grad_samples=args.grad_samples,
        samples_per_seam=args.seam_samples, n_min_points=args.min_points,
        n_pairs=args.pairs, seed=seed)
    elapsed = time.perf_counter() - t0
    all_passed = all(r.passed for r in reports)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "params": dataclasses.asdict(params),
        "derived": dataclasses.asdict(derive_constants(params)),
        "seed": seed,
        "checks": [dataclasses.asdict(r) for r in reports],
        "passed": all_passed,
    }
    _write_json(out / "check_report.json", payload)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: worst={r.worst_error:.3e} "
              f"threshold={r.threshold:.3e} samples={r.samples}")
    print(f"report: {out / 'check_report.json'} ({elapsed:.2f}s)")
    return 0 if all_passed else 1


# -- run -----------------------------------------------------------------------

def _run_one(landscape: Landscape, algo: str, seed: int, config: GdConfig, noise_var):
    noise = None
    if algo == "sgd":
        noise = NoiseConfig(variance=noise_var, seed=seed)
    start = init_sample(landscape, np.random.default_rng([seed, 0]))
    observer = analysis.StreamObserver(landscape)
    trajectory = run(landscape, config, start, noise=noise, observer=observer)
    report = observer.report(trajectory.eta, trajectory.is_noisy)
    return trajectory, report, observer, start


def _summarize_run(seed, algo, trajectory, report, observer, start):
    final = trajectory.iterates[-1]
    growth = report.growth
    return {
        "seed": seed,
        "algo": algo,
        "start": [start[0], start[1]],
        "outcome": trajectory.outcome.value,
        "total_iterations": trajectory.total_steps,
        "final_block_entry": observer.first_final,
        "final": {"position": list(final.position), "f": final.f_value,
                  "grad_norm": final.grad_norm,
                  "region_order": final.region.order},
        "escape_records": [dataclasses.asdict(r) for r in report.records],
        "theory": report.to_dict(),
        "growth_ratio": growth.ratio if growth else None,
    }


def _write_trajectory_csv(path: Path, trajectory):
    lines = ["iter,x1,x2,f,grad_norm,region_kind,region_index,event"]
    for it in trajectory.iterates:
        idx = "" if it.region.index is None else str(it.region.index)
        ev = it.event.value if it.event else ""
        lines.append(f"{it.t},{_fmt(it.position[0])},{_fmt(it.position[1])},"
                     f"{_fmt(it.f_value)},{_fmt(it.grad_norm)},"
                     f"{it.region.kind.value},{idx},{ev}")
    path.write_text("\n".join(lines) + "\n")


def cmd_run(args) -> int:
    [params] = _params_grid(args)
    n_seeds = _require_at_least("seeds", _resolve(args, "seeds", 1), 1)
    config = _gd_config(args)
    algo = _resolve(args, "algo", "gd")
    noise_var = _noise_var(args, [algo])
    out = _outdir(args)
    seed0 = _resolve(args, "seed", 0)
    landscape = Landscape(params)

    summaries = []
    for seed in range(seed0, seed0 + n_seeds):
        t0 = time.perf_counter()
        trajectory, report, obs, start = _run_one(landscape, algo, seed, config, noise_var)
        elapsed = time.perf_counter() - t0
        _write_trajectory_csv(out / f"run_seed{seed}.csv", trajectory)
        summaries.append(_summarize_run(seed, algo, trajectory, report, obs, start))
        print(f"seed {seed}: {trajectory.outcome.value} after "
              f"{trajectory.total_steps} iterations ({elapsed:.3f}s)")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "params": dataclasses.asdict(params),
        "derived": dataclasses.asdict(derive_constants(params)),
        "algo": algo,
        "config": {**dataclasses.asdict(config), "noise_var": noise_var if algo == "sgd" else None},
        "runs": summaries,
    }
    _write_json(out / "summary.json", payload)
    print(f"outputs: {out}")
    return 0


# -- sweep ---------------------------------------------------------------------

# A sweep worker process's Landscape per grid point, made by _init_sweep_worker;
# the parent process of a sweep never sets it.
_worker_landscapes: dict[LandscapeParams, Landscape] | None = None


def _init_sweep_worker():
    global _worker_landscapes
    _worker_landscapes = {}


def _sweep_worker_task(task):
    return _sweep_task(_worker_landscapes, task)


def _sweep_task(landscapes: dict[LandscapeParams, Landscape], task):
    """One row of sweep.csv; ``landscapes`` holds the Landscape of each grid
    point built so far, and gains the task's own if it is missing."""
    params, algo, seed, config, noise_var = task
    landscape = landscapes.get(params)
    if landscape is None:
        landscape = landscapes[params] = Landscape(params)
    trajectory, report, _, _ = _run_one(landscape, algo, seed, config, noise_var)
    growth = report.growth
    return {
        "L": params.L, "gamma": params.gamma, "tau": params.tau,
        "n_saddles": params.n_saddles, "seed": seed, "algo": algo,
        "outcome": trajectory.outcome.value,
        "total_iters": trajectory.total_steps,
        "growth_ratio": growth.ratio if growth else None,
    }


def cmd_sweep(args) -> int:
    grid = _params_grid(args)
    if not grid:
        raise ValueError("empty parameter grid")
    n_seeds = _require_at_least("seeds", _resolve(args, "seeds", 1), 1)
    jobs = _require_at_least("jobs", _resolve(args, "jobs", 1), 1)
    config = _gd_config(args)
    algos = _resolve(args, "algo", None) or ["gd", "sgd"]
    if isinstance(algos, str):
        algos = [algos]
    noise_var = _noise_var(args, algos)
    out = _outdir(args)
    seed0 = _resolve(args, "seed", 0)

    tasks = [(params, algo, seed, config, noise_var)
             for params in grid for algo in algos for seed in range(seed0, seed0 + n_seeds)]
    t0 = time.perf_counter()
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs,
                                                    initializer=_init_sweep_worker) as pool:
            rows = list(pool.map(_sweep_worker_task, tasks))
    else:
        landscapes: dict[LandscapeParams, Landscape] = {}
        rows = [_sweep_task(landscapes, t) for t in tasks]
    elapsed = time.perf_counter() - t0

    lines = ["L,gamma,tau,n_saddles,seed,algo,outcome,total_iters,growth_ratio"]
    for r in rows:
        gr = "" if r["growth_ratio"] is None else _fmt(r["growth_ratio"])
        lines.append(f"{_fmt(r['L'])},{_fmt(r['gamma'])},{_fmt(r['tau'])},"
                     f"{r['n_saddles']},{r['seed']},{r['algo']},{r['outcome']},"
                     f"{r['total_iters']},{gr}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"{len(rows)} runs -> {out / 'sweep.csv'} ({elapsed:.2f}s)")
    return 0


# -- plotdata --------------------------------------------------------------------

def cmd_plotdata(args) -> int:
    runs_dir = Path(args.runs)
    summary_path = runs_dir / "summary.json"
    if not summary_path.exists():
        raise IOError(f"no summary.json under {runs_dir}")
    out = Path(args.out) if args.out else runs_dir
    out.mkdir(parents=True, exist_ok=True)
    summary = json.loads(summary_path.read_text())
    for entry in summary["runs"]:
        seed = entry["seed"]
        csv_path = runs_dir / f"run_seed{seed}.csv"
        if not csv_path.exists():
            raise IOError(f"missing trajectory file {csv_path}")
        rows = csv_path.read_text().splitlines()[1:]
        f_lines = ["iter,f"]
        path_lines = ["iter,x1,x2"]
        for row in rows:
            parts = row.split(",")
            f_lines.append(f"{parts[0]},{parts[3]}")
            path_lines.append(f"{parts[0]},{parts[1]},{parts[2]}")
        (out / f"fseries_seed{seed}.csv").write_text("\n".join(f_lines) + "\n")
        (out / f"path_seed{seed}.csv").write_text("\n".join(path_lines) + "\n")
        block_lines = ["block_index,iterations,buffer_iterations,complete"]
        for rec in entry["escape_records"]:
            block_lines.append(f"{rec['index']},{rec['t']},{rec['t_prime']},"
                               f"{str(rec['complete']).lower()}")
        (out / f"blocks_seed{seed}.csv").write_text("\n".join(block_lines) + "\n")
    print(f"plot data for {len(summary['runs'])} runs -> {out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            args._config_values = _load_config_file(args.config)
        except OSError as e:
            print(f"error: cannot read config file: {e}", file=sys.stderr)
            return IO_ERROR
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return USAGE_ERROR
    else:
        args._config_values = {}
    handlers = {"check": cmd_check, "run": cmd_run, "sweep": cmd_sweep,
                "plotdata": cmd_plotdata}
    try:
        return handlers[args.command](args)
    except IOError as e:
        print(f"error: {e}", file=sys.stderr)
        return IO_ERROR
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
