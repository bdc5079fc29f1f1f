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
import contextlib
import ctypes
import dataclasses
import functools
import itertools
import json
import shutil
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np

from . import analysis, checks
from .descent import GdConfig, NoiseConfig, init_sample, run, step_settings
from .landscape import Landscape, LandscapeParams, check_count

SCHEMA_VERSION = 1

USAGE_ERROR = 2
IO_ERROR = 3


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact for doubles."""
    return format(x, ".17g")


def _config_tokens(parser: argparse.ArgumentParser, args) -> list[str]:
    """The flag tokens of the file ``args.config``: each ``key = value`` line
    becomes ``--key`` and the value split on whitespace; '#' starts a comment.
    The keys are the subcommand's own options.  Each line is parsed as it is
    read and checked, so a bad value is reported with its file and line."""
    path = args.config
    known = [k for k in vars(args) if k not in ("command", "config")]
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not a UTF-8 text file: {e}") from e
    tokens = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}; "
                             f"known keys: {', '.join(known)}")
        line_tokens = ["--" + key.replace("_", "-"), *val.split()]
        try:
            _check_values(parser.parse_args([args.command, *line_tokens]))
        except SystemExit:
            print(f"{path}:{lineno}: {line}", file=sys.stderr)
            raise
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {line}: {e}") from e
        tokens += line_tokens
    return tokens


# The least value of each count option.
_AT_LEAST = {"seed": 0, "seeds": 1, "jobs": 1, "pairs": 1,
             "grad_samples": 0, "seam_samples": 0, "min_points": 0}


def _check_values(args):
    """Raise ValueError for an option value that argparse accepts and the
    code rejects: a count below its least value, a bad landscape parameter,
    or a bad descent or noise setting.  Each rule reads one option, so a
    config line is checked alone."""
    for key, least in _AT_LEAST.items():
        check_count(f"--{key.replace('_', '-')}", getattr(args, key, least), least)
    for key in ("L", "gamma", "tau", "n_saddles"):
        for value in _as_list(getattr(args, key, None)):
            if value is not None:
                LandscapeParams.check_field(key, value)
    if hasattr(args, "noise_var"):
        _gd_config(args)
        NoiseConfig(variance=args.noise_var)


def _add_common(parser: argparse.ArgumentParser, grid: bool = False):
    nargs = "+" if grid else None
    parser.add_argument("--L", type=float, nargs=nargs, default=LandscapeParams.L,
                        help="benign curvature (default %(default)s)")
    parser.add_argument("--gamma", type=float, nargs=nargs, default=None,
                        help="escape curvature (default L/2)")
    parser.add_argument("--tau", type=float, nargs=nargs, default=LandscapeParams.tau,
                        help="block side length (default %(default)s)")
    parser.add_argument("--n-saddles", type=int, nargs=nargs,
                        default=LandscapeParams.n_saddles,
                        help="number of saddle blocks (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="first seed, or the checks' seed (default %(default)s)")
    parser.add_argument("--config", default=None,
                        help="file with 'key = value' lines; flags override it")
    parser.add_argument("--out", default=None, help="output directory")


def _add_run_options(parser: argparse.ArgumentParser):
    parser.add_argument("--eta", type=float, default=None,
                        help="step size (default 1/(4L))")
    parser.add_argument("--max-iter", type=int, default=GdConfig.max_iter,
                        help="iteration budget (default %(default)s)")
    parser.add_argument("--stop-grad-norm", type=float, default=None,
                        help="stop threshold inside the final block (default "
                             "1e-10*L*tau, or L*tau/2 for sgd with --noise-var above 0)")
    parser.add_argument("--seeds", type=int, default=1,
                        help="number of consecutive seeds (default %(default)s)")
    parser.add_argument("--noise-var", type=float, default=NoiseConfig.variance,
                        help="per-coordinate Gaussian variance for sgd (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlescape",
        description="Staircase-of-saddles landscape experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify the landscape numerically")
    _add_common(p_check)
    p_check.add_argument("--grad-samples", type=int, default=checks.N_GRAD_SAMPLES)
    p_check.add_argument("--seam-samples", type=int, default=checks.SAMPLES_PER_SEAM)
    p_check.add_argument("--min-points", type=int, default=checks.N_MIN_POINTS)
    p_check.add_argument("--pairs", type=int, default=checks.N_PAIRS)

    p_run = sub.add_parser("run", help="seeded descent runs")
    _add_common(p_run)
    _add_run_options(p_run)
    p_run.add_argument("--record-every", type=int, default=GdConfig.record_every,
                       help="trajectory thinning stride (default %(default)s)")
    p_run.add_argument("--algo", choices=["gd", "sgd"], default="gd",
                       help="plain or noisy descent (default %(default)s)")

    p_sweep = sub.add_parser("sweep", help="grid of runs, aggregate CSV")
    _add_common(p_sweep, grid=True)
    _add_run_options(p_sweep)
    p_sweep.add_argument("--algo", choices=["gd", "sgd"], nargs="+", default=["gd", "sgd"],
                         help="algorithms to sweep (default %(default)s)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel workers (default %(default)s)")

    p_plot = sub.add_parser("plotdata", help="plot-ready CSV series from run outputs")
    p_plot.add_argument("--runs", required=True, help="directory written by 'run'")
    p_plot.add_argument("--out", default=None, help="output directory (default: same)")
    return parser


def _as_list(v) -> list:
    return v if isinstance(v, list) else [v]


def _params_grid(args) -> list[LandscapeParams]:
    """Every combination of the given L, gamma, tau and n_saddles values;
    gamma defaults to L/2.  A single value of each gives one element."""
    return [LandscapeParams(L=L, gamma=g, tau=tau, n_saddles=n)
            for L, tau, n in itertools.product(_as_list(args.L), _as_list(args.tau),
                                               _as_list(args.n_saddles))
            for g in _as_list(L / 2.0 if args.gamma is None else args.gamma)]


@contextlib.contextmanager
def _outdir(out: str | Path | None):
    """The output directory ``out`` (by default a new one under out/ named by the time), made
    if missing and checked for writing.  When the command fails inside the block, the
    directories it made are removed with what they hold; one that existed before is left alone."""
    out = Path(out or Path("out") / datetime.now().strftime("%Y%m%d-%H%M%S"))
    made = next((p for p in [*reversed(out.parents), out] if not p.exists()), None)
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
            probe = out / ".write_probe"
            probe.write_text("")
            probe.unlink()
        except OSError as e:
            raise IOError(f"output directory {out} is not writable: {e}") from e
        yield out
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


def _write_json(path: Path, landscape: Landscape, payload: dict):
    """``payload`` under the report header of ``landscape``, keys sorted."""
    payload = {"schema_version": SCHEMA_VERSION, "params": dataclasses.asdict(landscape.params),
               "derived": dataclasses.asdict(landscape.derived), **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _gd_config(args) -> GdConfig:
    """A GdConfig from the options the subcommand has; the rest keep their defaults."""
    return GdConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(GdConfig)
                       if getattr(args, f.name, None) is not None})


def _run_settings(args, grid: list[LandscapeParams]) -> tuple[GdConfig, NoiseConfig]:
    """The descent and noise settings of ``args``; raises ValueError naming --eta where a
    plain run's buffer residence bound overflows: gd, or sgd at noise variance 0."""
    config, noise = _gd_config(args), NoiseConfig(variance=args.noise_var)
    for params, algo in itertools.product(grid, _as_list(args.algo)):
        eta, noisy = step_settings(params, config, noise if algo == "sgd" else None)
        try:
            if not noisy:
                analysis.buffer_residence_bound(params, eta)
        except ValueError as e:
            raise ValueError(f"--eta: {e}") from e
    return config, noise


# -- check ---------------------------------------------------------------------

def cmd_check(args) -> int:
    [params] = _params_grid(args)
    # fixed glibc malloc thresholds let each check pass reuse the heap the last one freed; the
    # moving defaults made it fault 0.5k to 36k pages back in per n=100 call, by allocation history
    with contextlib.suppress(AttributeError, OSError, TypeError):   # no mallopt without glibc
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 << 20), libc.mallopt(-1, 64 << 20)  # M_MMAP_, M_TRIM_THRESHOLD
    with _outdir(args.out) as out:
        landscape = Landscape(params)
        t0 = time.perf_counter()
        reports = checks.run_all_checks(
            landscape, n_grad_samples=args.grad_samples,
            samples_per_seam=args.seam_samples, n_min_points=args.min_points,
            n_pairs=args.pairs, seed=args.seed)
        elapsed = time.perf_counter() - t0
        all_passed = all(r.passed for r in reports)
        _write_json(out / "check_report.json", landscape, {
            "seed": args.seed,
            "checks": [dataclasses.asdict(r) for r in reports],
            "passed": all_passed,
        })
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: worst={r.worst_error:.3e} "
              f"threshold={r.threshold:.3e} samples={r.samples}")
    print(f"report: {out / 'check_report.json'} ({elapsed:.2f}s)")
    return 0 if all_passed else 1


# -- run -----------------------------------------------------------------------

def _start(landscape: Landscape, seed: int):
    """The start of the run seeded ``seed``; init_sample reads only tau and [0, tau]^2."""
    return init_sample(landscape, np.random.default_rng([seed, 0]))


def _run_one(landscape: Landscape, algo: str, seed: int, start, config: GdConfig,
             noise: NoiseConfig):
    """The run seeded ``seed`` from ``start``; an sgd run reseeds ``noise`` with ``seed``."""
    noise = dataclasses.replace(noise, seed=seed) if algo == "sgd" else None
    observer = analysis.StreamObserver(landscape, config, noise)
    return run(landscape, config, start, noise=noise, observer=observer), observer


def _summarize_run(seed, algo, trajectory, observer):
    start, final = trajectory.iterates[0].position, trajectory.iterates[-1]
    report = observer.report()
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
    lines, region = ["iter,x1,x2,f,grad_norm,region_kind,region_index,event"], None
    for t, (x1, x2), f, grad_norm, rid, event in trajectory.iterates:
        if rid is not region:
            region, label = rid, f"{rid.kind.value},{rid.index}"
        lines.append("%d,%.17g,%.17g,%.17g,%.17g,%s,%s"   # %.17g: the text of _fmt
                     % (t, x1, x2, f, grad_norm, label, event.value if event else ""))
    path.write_text("\n".join(lines) + "\n")


def cmd_run(args) -> int:
    [params] = _params_grid(args)
    config, noise = _run_settings(args, [params])
    algo = args.algo
    with _outdir(args.out) as out:
        landscape = Landscape(params)
        summaries = []
        for seed in range(args.seed, args.seed + args.seeds):
            t0 = time.perf_counter()
            trajectory, obs = _run_one(landscape, algo, seed, _start(landscape, seed),
                                       config, noise)
            elapsed = time.perf_counter() - t0
            _write_trajectory_csv(out / f"run_seed{seed}.csv", trajectory)
            summaries.append(_summarize_run(seed, algo, trajectory, obs))
            print(f"seed {seed}: {trajectory.outcome.value} after "
                  f"{trajectory.total_steps} iterations ({elapsed:.3f}s)")
        _write_json(out / "summary.json", landscape, {
            "algo": algo,
            "config": {**dataclasses.asdict(config),
                       "noise_var": noise.variance if algo == "sgd" else None},
            "runs": summaries,
        })
    print(f"outputs: {out}")
    return 0


# -- sweep ---------------------------------------------------------------------

@functools.cache
def _landscape(params: LandscapeParams) -> Landscape:
    """A sweep grid point's Landscape, built once per process and sweep."""
    return Landscape(params)


SWEEP_HEADER = "L,gamma,tau,n_saddles,seed,algo,outcome,total_iters,growth_ratio"


def _sweep_task(task) -> str:
    """One row of sweep.csv, in the columns of ``SWEEP_HEADER``; its one analysis is growth."""
    params, algo, seed, start, config, noise = task
    trajectory, observer = _run_one(_landscape(params), algo, seed, start, config, noise)
    try:
        gr = _fmt(analysis.growth_summary(observer.records(), params).ratio)
    except analysis.InsufficientDataError:
        gr = ""
    return (f"{_fmt(params.L)},{_fmt(params.gamma)},{_fmt(params.tau)},{params.n_saddles},"
            f"{seed},{algo},{trajectory.outcome.value},{trajectory.total_steps},{gr}")


def cmd_sweep(args) -> int:
    _landscape.cache_clear()
    grid = _params_grid(args)
    config, noise = _run_settings(args, grid)
    # a row reads no stored iterate: store only t = 0, the events and the last one
    config = dataclasses.replace(config, record_every=config.max_iter)
    seeds = range(args.seed, args.seed + args.seeds)
    # one start per (tau, seed), shared by every L, gamma, n_saddles and algo (see _start)
    starts = {(tau, seed): _start(_landscape(params), seed)
              for tau, params in {params.tau: params for params in grid}.items() for seed in seeds}
    tasks = [(params, algo, seed, starts[params.tau, seed], config, noise)
             for params in grid for algo in args.algo for seed in seeds]
    with _outdir(args.out) as out:
        t0 = time.perf_counter()
        if args.jobs > 1:
            with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                rows = list(pool.map(_sweep_task, tasks))
        else:
            rows = [_sweep_task(t) for t in tasks]
        elapsed = time.perf_counter() - t0
        (out / "sweep.csv").write_text("\n".join([SWEEP_HEADER, *rows]) + "\n")
    print(f"{len(rows)} runs -> {out / 'sweep.csv'} ({elapsed:.2f}s)")
    return 0


# -- plotdata --------------------------------------------------------------------

def _trajectory_rows(csv_path: Path):
    """The fields of each data row of a ``run`` trajectory CSV, read one file
    at a time.  A missing or undecodable file, or a row with fewer than 4
    fields, raises IOError."""
    if not csv_path.exists():
        raise IOError(f"missing trajectory file {csv_path}")
    try:
        text = csv_path.read_text()
    except UnicodeDecodeError as e:
        raise IOError(f"{csv_path} is not a UTF-8 text file: {e}") from e
    for lineno, row in enumerate(text.splitlines()[1:], 2):
        parts = row.split(",")
        if len(parts) < 4:
            raise IOError(f"{csv_path}:{lineno}: expected at least the 4 fields "
                          f"iter,x1,x2,f, got {row!r}")
        yield parts


def cmd_plotdata(args) -> int:
    runs_dir = Path(args.runs)
    summary_path = runs_dir / "summary.json"
    if not summary_path.exists():
        raise IOError(f"no summary.json under {runs_dir}")
    runs = []   # (seed, blocks_seed<k>.csv rows) of each run
    try:
        for entry in json.loads(summary_path.read_text())["runs"]:
            check_count("seed", entry["seed"], 0)   # it names the output files
            rows = []
            for rec in entry["escape_records"]:
                for key, least in (("index", 1), ("t", 0), ("t_prime", 0)):
                    check_count(key, rec[key], least)
                if not isinstance(rec["complete"], bool):
                    raise ValueError(f"complete must be a bool, got {rec['complete']!r}")
                rows.append(f"{rec['index']},{rec['t']},{rec['t_prime']},"
                            f"{str(rec['complete']).lower()}")
            runs.append((entry["seed"], rows))
    except (ValueError, KeyError, TypeError) as e:
        raise IOError(f"{summary_path} is not a run summary: "
                      f"{type(e).__name__}: {e}") from e
    series = []   # (seed, fseries text, path text, block rows) of each run
    for seed, records in runs:   # every input is read once and checked before any file is written
        f_lines, path_lines = ["iter,f"], ["iter,x1,x2"]
        for parts in _trajectory_rows(runs_dir / f"run_seed{seed}.csv"):
            f_lines.append(f"{parts[0]},{parts[3]}")
            path_lines.append(f"{parts[0]},{parts[1]},{parts[2]}")
        series.append((seed, "\n".join(f_lines) + "\n", "\n".join(path_lines) + "\n", records))
    with _outdir(args.out or runs_dir) as out:
        for seed, fseries, path, records in series:
            (out / f"fseries_seed{seed}.csv").write_text(fseries)
            (out / f"path_seed{seed}.csv").write_text(path)
            block_lines = ["block_index,iterations,buffer_iterations,complete", *records]
            (out / f"blocks_seed{seed}.csv").write_text("\n".join(block_lines) + "\n")
    print(f"plot data for {len(runs)} runs -> {out}")
    return 0


def main(argv=None) -> int:
    """Parse ``argv``; a ``--config`` file's lines go in as flag tokens after
    the subcommand, so the flags on the command line win."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"check": cmd_check, "run": cmd_run, "sweep": cmd_sweep,
                "plotdata": cmd_plotdata}
    try:
        if getattr(args, "config", None):
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(parser, args) + argv[at:])
        _check_values(args)
        return handlers[args.command](args)
    except (IOError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return IO_ERROR if isinstance(e, IOError) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
