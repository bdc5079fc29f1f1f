import dataclasses
import datetime
import inspect
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import saddlescape
from saddlescape import cli
from saddlescape.cli import main

CSV_HEADER = "iter,x1,x2,f,grad_norm,region_kind,region_index,event"
SWEEP_HEADER = "L,gamma,tau,n_saddles,seed,algo,outcome,total_iters,growth_ratio"


def read(path: Path) -> str:
    return path.read_text()


def test_check_passes_and_writes_report(tmp_path):
    code = main(["check", "--n-saddles", "2", "--grad-samples", "500",
                 "--seam-samples", "50", "--min-points", "5000",
                 "--pairs", "2000", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(read(tmp_path / "check_report.json"))
    assert report["schema_version"] == 1
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"gradient_check", "seam_scan", "stationary_check",
            "global_minimum", "gradient_lipschitz"} <= names
    for c in report["checks"]:
        assert "worst_error" in c and "witnesses" in c


def test_check_rejects_bad_params(tmp_path, capsys):
    code = main(["check", "--L", "1", "--gamma", "1.5", "--out", str(tmp_path)])
    assert code == 2
    assert "L >= gamma" in capsys.readouterr().err


def test_run_outputs(tmp_path):
    code = main(["run", "--n-saddles", "2", "--seeds", "2", "--out", str(tmp_path)])
    assert code == 0
    for seed in (0, 1):
        lines = read(tmp_path / f"run_seed{seed}.csv").splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("0,")
    summary = json.loads(read(tmp_path / "summary.json"))
    assert summary["schema_version"] == 1
    assert summary["params"] == {"L": 1.0, "gamma": 0.5, "tau": 1.0, "n_saddles": 2}
    assert summary["derived"]["nu"] == 1.125
    runs = summary["runs"]
    assert [r["seed"] for r in runs] == [0, 1]
    for r in runs:
        assert r["outcome"] == "reached_minimum"
        assert r["escape_records"]
        assert r["theory"]["passed"] is True


def test_run_thinning_keeps_events(tmp_path):
    code = main(["run", "--n-saddles", "2", "--record-every", "50",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = read(tmp_path / "run_seed0.csv").splitlines()[1:]
    iters = [int(r.split(",")[0]) for r in rows]
    events = [r.split(",")[7] for r in rows]
    assert any(e == "buffer_entry" for e in events)
    assert any(e == "block_entry" for e in events)
    for t, e in zip(iters, events):
        assert e != "" or t % 50 == 0 or t == iters[-1]
    # thinning must not distort the analysis: records come from the stream
    summary = json.loads(read(tmp_path / "summary.json"))
    assert sum(r["t"] + r["t_prime"]
               for r in summary["runs"][0]["escape_records"]) == iters[-1] + 1


def test_run_rerun_bitwise_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--n-saddles", "3", "--seeds", "2", "--out", str(a)]) == 0
    assert main(["run", "--n-saddles", "3", "--seeds", "2", "--out", str(b)]) == 0
    for name in ["run_seed0.csv", "run_seed1.csv", "summary.json"]:
        assert read(a / name) == read(b / name)


def test_default_output_directory_is_new_within_the_same_second(tmp_path, monkeypatch):
    """Three commands started at the same clock second, with no --out, write to
    out/<time>, out/<time>-1 and out/<time>-2, each keeping its own summary."""
    monkeypatch.setattr(cli, "datetime", types.SimpleNamespace(
        now=lambda: datetime.datetime(2026, 1, 2, 3, 4, 5)))
    monkeypatch.chdir(tmp_path)
    for n in (2, 3, 4):
        assert main(["run", "--n-saddles", str(n)]) == 0
    outs = sorted((tmp_path / "out").iterdir())
    assert [p.name for p in outs] == ["20260102-030405", "20260102-030405-1", "20260102-030405-2"]
    assert [json.loads(read(p / "summary.json"))["params"]["n_saddles"] for p in outs] == [2, 3, 4]


def test_run_sgd(tmp_path):
    code = main(["run", "--algo", "sgd", "--n-saddles", "5", "--max-iter", "20000",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads(read(tmp_path / "summary.json"))
    r = summary["runs"][0]
    assert r["outcome"] == "reached_minimum"
    assert r["final_block_entry"] is not None
    assert r["theory"]["containment"]["skipped"] is True


def test_sweep_grid(tmp_path):
    code = main(["sweep", "--L", "1", "1.5", "--gamma", "0.5", "--seeds", "2",
                 "--n-saddles", "4", "--out", str(tmp_path)])
    assert code == 0
    lines = read(tmp_path / "sweep.csv").splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 2 * 2 * 2  # L-values x algos x seeds
    gd = [l for l in lines[1:] if ",gd," in l]
    sgd = [l for l in lines[1:] if ",sgd," in l]
    assert len(gd) == 4 and len(sgd) == 4


def test_sweep_rerun_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["sweep", "--L", "1", "--seeds", "2", "--n-saddles", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a / "sweep.csv") == read(b / "sweep.csv")


def test_sweep_parallel_matches_serial(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["sweep", "--L", "1", "1.5", "--seeds", "2", "--n-saddles", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
    assert read(a / "sweep.csv") == read(b / "sweep.csv")


def test_plotdata(tmp_path):
    rundir = tmp_path / "runs"
    assert main(["run", "--n-saddles", "2", "--seeds", "2", "--out", str(rundir)]) == 0
    out = tmp_path / "plots"
    assert main(["plotdata", "--runs", str(rundir), "--out", str(out)]) == 0
    for seed in (0, 1):
        f = read(out / f"fseries_seed{seed}.csv").splitlines()
        assert f[0] == "iter,f"
        assert len(f) > 1
        p = read(out / f"path_seed{seed}.csv").splitlines()
        assert p[0] == "iter,x1,x2"
        blocks = read(out / f"blocks_seed{seed}.csv").splitlines()
        assert blocks[0] == "block_index,iterations,buffer_iterations,complete"
    # monotone non-increasing f for plain descent
    fvals = [float(row.split(",")[1]) for row in f[1:]]
    assert all(b <= a for a, b in zip(fvals, fvals[1:]))


def test_plotdata_missing_inputs(tmp_path, capsys):
    assert main(["plotdata", "--runs", str(tmp_path / "nope")]) == 3


def _summary_with_seed(seed):
    return json.dumps({"runs": [{"seed": seed, "escape_records": []}]})


def _summary_with_record(**fields):
    record = {"index": 1, "t": 5, "t_prime": 2, "T": 7, "complete": True, **fields}
    return json.dumps({"runs": [{"seed": 0, "escape_records": [record]}]})


@pytest.mark.parametrize("summary", [
    "{}", "[1, 2]", "not json",
    *(pytest.param(_summary_with_seed(seed), id=f"seed={seed!r}")
      for seed in ("0", 1.5, True, "a/../b")),
    *(pytest.param(_summary_with_record(**{key: value}), id=f"{key}={value!r}")
      for key, value in (("index", "1\n9,9,9,true"), ("t", {"a": 1}), ("t_prime", None),
                         ("complete", "x"))),
])
def test_plotdata_bad_summary_exits_three_and_names_it(tmp_path, capsys, summary):
    """A malformed summary, a seed that is not a non-negative int (it names
    the output files) or an escape record field of the wrong type among
    them, is refused before any file is written."""
    (tmp_path / "summary.json").write_text(summary)
    (tmp_path / "run_seed0.csv").write_text(CSV_HEADER + "\n0,0.5,0.5,1.0,0,odd_block,0,\n")
    out = tmp_path / "plots"
    assert main(["plotdata", "--runs", str(tmp_path), "--out", str(out)]) == 3
    assert f"error: {tmp_path / 'summary.json'} is not a run summary" in capsys.readouterr().err
    assert not out.exists()


def test_plotdata_removes_the_directories_it_made_when_a_write_fails(tmp_path, monkeypatch):
    rundir = tmp_path / "runs"
    assert main(["run", "--n-saddles", "2", "--out", str(rundir)]) == 0
    write_text = Path.write_text

    def failing(path, text):
        if path.name.startswith("blocks_"):
            raise OSError("no space left on device")
        return write_text(path, text)

    monkeypatch.setattr(Path, "write_text", failing)
    assert main(["plotdata", "--runs", str(rundir), "--out", str(tmp_path / "a" / "b")]) == 3
    assert not (tmp_path / "a").exists()
    assert main(["plotdata", "--runs", str(rundir)]) == 3
    assert (rundir / "summary.json").exists()   # the runs directory is left as it is


def test_run_and_sweep_write_an_overflowing_growth_floor_as_infinity(tmp_path):
    """At L/gamma = 1e3 over 105 saddles the recurrence floor's power leaves
    the floats; summary.json then holds -Infinity, with the sign of t0 - c."""
    flags = ["--L", "1e3", "--gamma", "1", "--n-saddles", "105", "--seeds", "1"]
    assert main(["run", "--algo", "sgd", *flags, "--out", str(tmp_path / "run")]) == 0
    text = read(tmp_path / "run" / "summary.json")
    assert '"floor": -Infinity' in text
    assert json.loads(text)["runs"][0]["theory"]["growth"]["floor"] == float("-inf")
    assert main(["sweep", *flags, "--out", str(tmp_path / "sweep")]) == 0
    rows = read(tmp_path / "sweep" / "sweep.csv").splitlines()
    assert len(rows) == 3 and rows[2].startswith("1000,1,1,105,0,sgd,reached_minimum,")


@pytest.mark.parametrize("row", [
    pytest.param("7,0.5,0.5", id="short"),
    pytest.param('1,"y",0.5,-1.0', id="quoted-x1"),
    pytest.param("x,0.5,0.5,-1.0", id="iter-not-a-number"),
    pytest.param("1.5,0.5,0.5,-1.0", id="iter-not-an-integer"),
    pytest.param("1,0.5,0.5,", id="empty-f"),
    pytest.param("1,0.5,0.5,f,0.1,odd_block,1,", id="f-not-a-number"),
])
def test_plotdata_bad_csv_row_exits_three_and_names_it(tmp_path, capsys, row):
    """A row with fewer than 4 fields, an iter that is not an integer, or an
    x1, x2 or f that is not a number is refused before any file is written."""
    assert main(["run", "--n-saddles", "2", "--out", str(tmp_path)]) == 0
    csv_path = tmp_path / "run_seed0.csv"
    lines = read(csv_path).splitlines()
    csv_path.write_text("\n".join(lines[:2] + [row] + lines[2:]) + "\n")
    capsys.readouterr()
    out = tmp_path / "plots"
    assert main(["plotdata", "--runs", str(tmp_path), "--out", str(out)]) == 3
    assert f"error: {csv_path}:3: " in capsys.readouterr().err
    assert not out.exists()


def test_plotdata_undecodable_csv_exits_three_and_names_it(tmp_path, capsys):
    assert main(["run", "--n-saddles", "2", "--out", str(tmp_path)]) == 0
    csv_path = tmp_path / "run_seed0.csv"
    csv_path.write_bytes(csv_path.read_bytes() + b"\xff\n")
    capsys.readouterr()
    out = tmp_path / "plots"
    assert main(["plotdata", "--runs", str(tmp_path), "--out", str(out)]) == 3
    assert f"error: {csv_path} is not a UTF-8 text file" in capsys.readouterr().err
    assert not out.exists()


def test_plotdata_missing_csv_exits_three_and_names_it(tmp_path, capsys):
    rundir = tmp_path / "runs"
    assert main(["run", "--n-saddles", "2", "--seeds", "2", "--out", str(rundir)]) == 0
    csv_path = rundir / "run_seed1.csv"
    csv_path.unlink()
    capsys.readouterr()
    out = tmp_path / "plots"
    assert main(["plotdata", "--runs", str(rundir), "--out", str(out)]) == 3
    assert f"error: missing trajectory file {csv_path}" in capsys.readouterr().err
    assert not out.exists()


def test_plotdata_checks_every_csv_before_writing(tmp_path, capsys):
    rundir = tmp_path / "runs"
    assert main(["run", "--n-saddles", "2", "--seeds", "2", "--out", str(rundir)]) == 0
    csv_path = rundir / "run_seed1.csv"
    csv_path.write_text(read(csv_path) + "0,1,2\n")
    before = sorted(p.name for p in rundir.iterdir())
    capsys.readouterr()
    assert main(["plotdata", "--runs", str(rundir)]) == 3
    assert f"error: {csv_path}:" in capsys.readouterr().err
    assert sorted(p.name for p in rundir.iterdir()) == before
    out = tmp_path / "plots"
    assert main(["plotdata", "--runs", str(rundir), "--out", str(out)]) == 3
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("L = 1.5\nn-saddles = 3\nseeds = 2  # comment\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--L", "1", "--out", str(out)])
    assert code == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["params"]["L"] == 1.0          # flag wins
    assert summary["params"]["n_saddles"] == 3    # from config
    assert len(summary["runs"]) == 2              # from config
    # a sweep config's values are split and parsed as the flags' are
    cfg.write_text("algo = gd sgd\nL = 1 1.5\nseeds = 2\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--n-saddles", "3", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["sweep", "--n-saddles", "3", "--algo", "gd", "sgd", "--L", "1", "1.5",
                 "--seeds", "2", "--out", str(b)]) == 0
    assert read(a / "sweep.csv") == read(b / "sweep.csv")
    assert len(read(a / "sweep.csv").splitlines()) == 1 + 2 * 2 * 2


def test_config_file_blank_and_comment_lines_change_nothing(tmp_path):
    plain, spaced = tmp_path / "plain.cfg", tmp_path / "spaced.cfg"
    plain.write_text("n-saddles = 2\nseeds = 2\n")
    spaced.write_text("\n# a comment-only line\nn-saddles = 2\n\n   \nseeds = 2\n")
    for cfg in (plain, spaced):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0
    a, b = tmp_path / "plain", tmp_path / "spaced"
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert len(names) == 3          # summary.json and two run_seed<k>.csv
    assert all((a / name).read_bytes() == (b / name).read_bytes() for name in names)


def test_config_file_malformed(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not a pair\n")
    assert main(["run", "--config", str(cfg)]) == 2
    # a config value meets its flag's choices, and the error names its line
    cfg.write_text("n-saddles = 2\nalgo = sgdd\n")
    out = tmp_path / "out"
    for command in ("run", "sweep"):
        with pytest.raises(SystemExit) as err:
            main([command, "--n-saddles", "2", "--config", str(cfg), "--out", str(out)])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "invalid choice: 'sgdd'" in stderr and f"{cfg}:2" in stderr
        assert not out.exists()


def test_undecodable_config_file_exits_two_and_names_it(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"n-saddles = 2\n\xff\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: {cfg}: not a UTF-8 text file" in capsys.readouterr().err
    assert not out.exists()


def test_out_below_a_regular_file_exits_three_and_makes_nothing(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    assert main(["run", "--n-saddles", "2", "--out", str(blocker / "out")]) == 3
    assert f"error: output directory {blocker / 'out'} is not writable" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept"


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["run", "--bogus"])
    assert err.value.code == 2


def test_config_file_unknown_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("n-saddles = 2\ngama = 0.3\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'gama'" in err and ":2:" in err
    assert not out.exists()
    # the known keys are the subcommand's own flags: run has no --jobs
    cfg.write_text("jobs = 2\n")
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{cfg}:1: unknown key 'jobs'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["check", "--tau", "inf"],
    ["check", "--L", "nan"],
    ["run", "--eta", "nan"],
    ["run", "--algo", "sgd", "--noise-var", "nan"],
    # finite parameters whose derived constants overflow or vanish
    ["run", "--L", "1e308"],
    ["check", "--tau", "1e160"],
    ["run", "--tau", "1e160"],
    ["sweep", "--tau", "1", "1e-300"],
])
def test_non_finite_parameters_exit_two(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--n-saddles", "2", "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_noisy_run_with_zero_stop_norm_ends_on_budget(tmp_path):
    assert main(["run", "--algo", "sgd", "--n-saddles", "9", "--stop-grad-norm", "0",
                 "--max-iter", "3500", "--seed", "0", "--out", str(tmp_path)]) == 0
    run = json.loads(read(tmp_path / "summary.json"))["runs"][0]
    assert run["outcome"] == "budget"
    assert run["theory"]["stall"] is None


@pytest.mark.parametrize("flag, value, least", [
    ("--grad-samples", "-3", 0),
    ("--seam-samples", "-2", 0),
    ("--min-points", "-1", 0),
    ("--pairs", "0", 1),
    ("--pairs", "-4", 1),
    ("--seed", "-1", 0),
])
def test_check_rejects_bad_sample_counts(tmp_path, capsys, flag, value, least):
    out = tmp_path / "out"
    assert main(["check", "--n-saddles", "2", flag, value, "--out", str(out)]) == 2
    assert f"{flag} must be >= {least}" in capsys.readouterr().err
    assert not out.exists()


def test_check_zero_sample_counts_are_vacuous(tmp_path):
    assert main(["check", "--n-saddles", "2", "--grad-samples", "0", "--seam-samples", "0",
                 "--min-points", "0", "--pairs", "100", "--out", str(tmp_path)]) == 0
    report = json.loads(read(tmp_path / "check_report.json"))
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("gradient_check", "seam_scan", "global_minimum"):
        assert by_name[name]["samples"] == 0 and by_name[name]["passed"]
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("grad-samples = 0\n")
    out = tmp_path / "from_config"
    assert main(["check", "--n-saddles", "2", "--config", str(cfg), "--seam-samples", "0",
                 "--min-points", "0", "--pairs", "100", "--out", str(out)]) == 0
    assert read(out / "check_report.json") == read(tmp_path / "check_report.json")


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_bad_stop_grad_norm_exits_two(tmp_path, capsys, command, value):
    out = tmp_path / "out"
    assert main([command, "--n-saddles", "2", "--stop-grad-norm", value,
                 "--out", str(out)]) == 2
    assert "stop_grad_norm must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["run", "--seeds", "0"], "--seeds"),
    (["run", "--seeds", "-3"], "--seeds"),
    (["sweep", "--seeds", "0"], "--seeds"),
    (["sweep", "--seeds", "-1"], "--seeds"),
    (["sweep", "--jobs", "0"], "--jobs"),
    (["sweep", "--jobs", "-4"], "--jobs"),
    (["run", "--seed", "-1"], "--seed"),
    (["sweep", "--seed", "-1"], "--seed"),
])
def test_run_and_sweep_reject_bad_counts(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    least = 0 if flag == "--seed" else 1
    assert main(argv + ["--n-saddles", "2", "--out", str(out)]) == 2
    assert f"{flag} must be >= {least}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_counts_from_config_file_exit_two(tmp_path, capsys):
    cfg = tmp_path / "counts.cfg"
    cfg.write_text("seeds = 0\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "--seeds must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, line, message", [
    ("run", "noise_var = nan", "variance must be finite and >= 0, got nan"),
    ("sweep", "noise_var = nan", "variance must be finite and >= 0, got nan"),
    ("run", "seeds = 0", "--seeds must be >= 1, got 0"),
    ("sweep", "seeds = 0", "--seeds must be >= 1, got 0"),
    ("sweep", "jobs = 0", "--jobs must be >= 1, got 0"),
    ("run", "max_iter = 0", "max_iter must be >= 1, got 0"),
    ("check", "pairs = 0", "--pairs must be >= 1, got 0"),
    ("run", "L = nan", "L must be finite and positive, got nan"),
    ("sweep", "L = 1 nan", "L must be finite and positive, got nan"),
    ("check", "tau = 0", "tau must be finite and positive, got 0.0"),
    ("run", "n_saddles = 0", "n_saddles must be >= 1, got 0"),
])
def test_rejected_config_value_names_its_file_and_line(tmp_path, capsys, command, line,
                                                       message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"n_saddles = 2\n{line}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: {cfg}:2: {line}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("value", ["nan", "-1"])
def test_bad_noise_var_leaves_no_output_directory(tmp_path, capsys, command, value):
    out = tmp_path / "D"
    assert main([command, "--algo", "sgd", "--n-saddles", "2", "--seeds", "1",
                 "--noise-var", value, "--out", str(out)]) == 2
    assert "variance must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("value", ["nan", "-1"])
def test_bad_noise_var_rejected_under_gd_too(tmp_path, capsys, command, value):
    # gd ignores the noise variance, yet a bad one is still a usage error
    out = tmp_path / "D"
    assert main([command, "--algo", "gd", "--n-saddles", "2", "--seeds", "1",
                 "--noise-var", value, "--out", str(out)]) == 2
    assert "variance must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--eta", "1e-320"],
    ["sweep", "--algo", "gd", "--eta", "1e-320"],
    ["sweep", "--eta", "1e-320"],
    ["run", "--L", "1e10", "--gamma", "1e-298"],   # the default step 1/(4L)
])
def test_step_too_small_for_the_buffer_bound_exits_two(tmp_path, capsys, argv):
    out = tmp_path / "new" / "D"
    assert main(argv + ["--n-saddles", "1", "--max-iter", "10", "--out", str(out)]) == 2
    assert "error: --eta: " in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_tiny_step_of_sgd_without_noise_exits_two_before_any_run(tmp_path, capsys, monkeypatch,
                                                                 command):
    # sgd at noise variance 0 is plain descent, whose report computes the buffer bound
    def no_run(*args, **kwargs):
        raise AssertionError("descent ran")

    monkeypatch.setattr(cli, "run", no_run)
    out = tmp_path / "new" / "D"
    assert main([command, "--algo", "sgd", "--noise-var", "0", "--eta", "1e-320",
                 "--n-saddles", "2", "--out", str(out)]) == 2
    assert "error: --eta: " in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_step_whose_product_with_gamma_underflows_exits_two(tmp_path, capsys):
    # 5e-324 * 0.5 rounds to 0: the bound is infinite, a usage error like an overflow
    assert main(["run", "--eta", "5e-324", "--n-saddles", "1", "--out", str(tmp_path)]) == 2
    assert "error: --eta: " in capsys.readouterr().err


def _full_report_row(params, algo, seed, noise):
    """A sweep row built the long way: a dense run and its observer's whole report."""
    lc = cli.Landscape(params)
    trajectory, observer = cli._run_one(lc, algo, seed, cli._start(lc, seed),
                                        saddlescape.GdConfig(), noise)
    growth = observer.report().growth
    gr = "" if growth is None else cli._fmt(growth.ratio)
    return (f"{cli._fmt(params.L)},{cli._fmt(params.gamma)},{cli._fmt(params.tau)},"
            f"{params.n_saddles},{seed},{algo},{trajectory.outcome.value},"
            f"{trajectory.total_steps},{gr}")


def test_sweep_row_equals_the_row_of_the_full_report():
    # a sweep run stores t = 0, the events and the last iterate, and computes
    # only the growth of its report; its row is the one the whole report gives
    config = saddlescape.GdConfig()
    config = dataclasses.replace(config, record_every=config.max_iter)
    noise = saddlescape.NoiseConfig()
    ratios = []
    for algo, n, (L, gamma), seed in itertools.product(
            ("gd", "sgd"), (2, 9), ((1.0, 0.5), (1.5, 0.75), (1.0, 1.0), (1.0, 0.9)), range(3)):
        params = saddlescape.LandscapeParams(L=L, gamma=gamma, n_saddles=n)
        start = cli._start(cli.Landscape(params), seed)
        row = cli._sweep_task((params, algo, seed, start, config, noise))
        assert row == _full_report_row(params, algo, seed, noise)
        ratios.append(row.rsplit(",", 1)[1])
    assert "" in ratios and len(set(ratios)) > 10     # growth None, and many fitted ratios


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_tiny_step_still_runs_noisy_descent(tmp_path, command):
    # noisy descent claims no buffer bound, so its step is not checked against one
    assert main([command, "--algo", "sgd", "--eta", "1e-320", "--n-saddles", "1",
                 "--max-iter", "10", "--out", str(tmp_path)]) == 0


ESCAPING_ARGS = {
    "run": ["run", "--n-saddles", "2", "--eta", "10"],
    "sweep": ["sweep", "--n-saddles", "2", "--eta", "10", "--seeds", "1", "--algo", "gd"],
}


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_descent_leaving_d_removes_the_new_output_directory(tmp_path, capsys, command):
    out = tmp_path / "new" / "D"
    assert main([*ESCAPING_ARGS[command], "--out", str(out)]) == 2
    assert "left D" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_descent_leaving_d_keeps_an_existing_output_directory(tmp_path, command):
    keep = tmp_path / "keep.txt"
    keep.write_text("x")
    assert main([*ESCAPING_ARGS[command], "--out", str(tmp_path)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.txt"]


def test_sweep_has_no_record_every_flag(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--n-saddles", "2", "--seeds", "1", "--record-every", "0",
              "--out", str(out)])
    assert err.value.code == 2
    assert not out.exists()


def test_noisy_run_reports_no_transient_pin_as_its_stall(tmp_path):
    # the cross coordinate of block 2 sits exactly on its center line at
    # t=68, and later kicks free it: the run arrives, and reports no stall
    assert main(["run", "--algo", "sgd", "--noise-var", "1e-30", "--n-saddles", "9",
                 "--seeds", "1", "--out", str(tmp_path)]) == 0
    run = json.loads(read(tmp_path / "summary.json"))["runs"][0]
    pinned = read(tmp_path / "run_seed0.csv").splitlines()[1 + 68].split(",")
    assert pinned[1] == "2.5" and pinned[6] == "2"
    assert run["outcome"] == "reached_minimum" and run["total_iterations"] == 1171
    assert run["theory"]["stall"] is None


def test_plain_run_that_reaches_the_minimum_reports_no_stall(tmp_path):
    # a pin in the last saddle block does no harm: the next block holds the minimum
    assert main(["run", "--n-saddles", "2", "--seeds", "20", "--out", str(tmp_path)]) == 0
    runs = json.loads(read(tmp_path / "summary.json"))["runs"]
    assert [run["outcome"] for run in runs] == ["reached_minimum"] * 20
    assert [run["theory"]["stall"] for run in runs] == [None] * 20


def test_huge_kicks_are_projected_into_d(tmp_path):
    # kicks of about 1e154 square to inf; every iterate is projected into D
    assert main(["run", "--algo", "sgd", "--noise-var", "1e308", "--n-saddles", "2",
                 "--max-iter", "50", "--out", str(tmp_path)]) == 0
    rows = read(tmp_path / "run_seed0.csv").splitlines()[1:]
    assert len(rows) == 51 and all(row.split(",")[5] != "outside" for row in rows)


def test_noisy_run_does_not_stall_on_a_zero_gradient(tmp_path):
    # at variance 1e-32 the kicks round away at the saddle (2.5, 2.5), whose
    # gradient is exactly zero at t=236; a noisy run goes on
    assert main(["run", "--algo", "sgd", "--noise-var", "1e-32", "--n-saddles", "9",
                 "--seeds", "1", "--max-iter", "2000", "--out", str(tmp_path)]) == 0
    run = json.loads(read(tmp_path / "summary.json"))["runs"][0]
    row = read(tmp_path / "run_seed0.csv").splitlines()[1 + 236].split(",")
    assert row[1:3] == ["2.5", "2.5"] and float(row[4]) == 0.0
    assert run["outcome"] != "stalled"
    assert run["total_iterations"] > 236


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_record_every_from_config_file_is_validated(tmp_path, capsys, command):
    cfg = tmp_path / "thin.cfg"
    cfg.write_text("record_every = 0\n")
    out = tmp_path / "out"
    assert main([command, "--n-saddles", "2", "--seeds", "1", "--config", str(cfg),
                 "--out", str(out)]) == 2
    # sweep has no --record-every, so the key is unknown to it
    expected = {"run": "record_every must be >= 1, got 0",
                "sweep": f"{cfg}:1: unknown key 'record_every'"}
    assert expected[command] in capsys.readouterr().err
    assert not out.exists()


def test_sweep_builds_one_landscape_per_grid_point(tmp_path, monkeypatch):
    built = []

    class Counted(cli.Landscape):
        def __init__(self, params):
            built.append(params)
            super().__init__(params)

    monkeypatch.setattr(cli, "Landscape", Counted)
    args = ["sweep", "--L", "1", "1.5", "--tau", "1", "0.7", "--seeds", "3",
            "--n-saddles", "3"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert len(built) == len(set(built)) == 4
    # no Landscape survives from one call to the next
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert len(built) == 8 and set(built[4:]) == set(built[:4])
    assert main(args + ["--jobs", "2", "--out", str(tmp_path / "c")]) == 0
    assert read(tmp_path / "a" / "sweep.csv") == read(tmp_path / "c" / "sweep.csv")


def test_sweep_draws_one_start_per_tau_and_seed(tmp_path, monkeypatch):
    # 2 tau x 2 L x gd and sgd x 3 seeds: 24 runs from 6 starts, all drawn in
    # the parent process, giving the rows of starts drawn per task
    taus = []

    def counted(landscape, rng):
        taus.append(landscape.params.tau)
        return saddlescape.init_sample(landscape, rng)

    monkeypatch.setattr(cli, "init_sample", counted)
    args = ["sweep", "--L", "1", "1.5", "--tau", "1", "0.7", "--algo", "gd", "sgd",
            "--seeds", "3", "--n-saddles", "3"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert sorted(taus) == [0.7] * 3 + [1.0] * 3
    assert main(args + ["--jobs", "2", "--out", str(tmp_path / "b")]) == 0
    assert len(taus) == 12
    parsed = cli.build_parser().parse_args(args)
    grid = cli._params_grid(parsed)
    config, noise = cli._run_settings(parsed, grid)
    config = dataclasses.replace(config, record_every=config.max_iter)
    rows = [cli._sweep_task((params, algo, seed, cli._start(cli.Landscape(params), seed),
                             config, noise))
            for params in grid for algo in ("gd", "sgd") for seed in range(3)]
    assert len(rows) == 24
    per_task = ("\n".join([SWEEP_HEADER, *rows]) + "\n").encode()
    sweep = [(tmp_path / d / "sweep.csv").read_bytes() for d in "ab"]
    assert sweep == [per_task, per_task]


def test_readme_commands_parse_and_help_renders(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("saddlescape ")]
    assert {argv[1] for argv in commands} == {"check", "run", "sweep", "plotdata"}
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])
    for command in ("check", "run", "sweep", "plotdata"):
        with pytest.raises(SystemExit) as err:
            cli.build_parser().parse_args([command, "-h"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: saddlescape {command}")


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's package, run with ``args``."""
    src = str(Path(saddlescape.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)


def test_module_entry_point_runs_main():
    res = _python("-m", "saddlescape.cli", "--help")
    assert res.returncode == 0
    assert res.stdout.startswith("usage: saddlescape")


def test_import_loads_neither_fractions_nor_mpmath():
    # fractions waits for the first exact comparison of a projection; mpmath is for tests only
    res = _python("-c", "import sys, saddlescape; "
                        "print(sorted({'fractions', 'mpmath'} & set(sys.modules)))")
    assert res.returncode == 0
    assert res.stdout == "[]\n"


def test_import_and_a_build_load_only_the_landscape():
    res = _python("-c", "import sys, saddlescape as ss\n"
                        "ss.Landscape(ss.LandscapeParams(n_saddles=100))\n"
                        "print(sorted({'numpy', 'saddlescape.descent', 'saddlescape.analysis',"
                        " 'saddlescape.checks'} & set(sys.modules)))")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_package_names_are_bound_when_their_submodule_loads():
    # `import saddlescape.cli` loads descent without reading a package name; a
    # patch of descent made after that does not become the package's name
    res = _python("-c", "import saddlescape.cli, saddlescape as ss\n"
                        "original, ss.descent.Iterate = ss.descent.Iterate, None\n"
                        "from saddlescape import Iterate\n"
                        "print(ss.Iterate is Iterate is original)")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "True\n"


def test_scalar_path_loads_neither_numpy_nor_the_checks():
    # the build, scalar evaluation, a plain run, its report and a replay
    res = _python("-c", "import sys, saddlescape as ss\n"
                        "lc = ss.Landscape(ss.LandscapeParams(n_saddles=100))\n"
                        "lc.value_and_gradient((0.55, 0.5))\n"
                        "config = ss.GdConfig(max_iter=2000)\n"
                        "obs = ss.StreamObserver(lc, config)\n"
                        "traj = ss.run(lc, config, (0.55, 0.5), observer=obs)\n"
                        "assert obs.report() == ss.replay(traj).report()\n"
                        "print(sorted({'numpy', 'saddlescape.checks'} & set(sys.modules)))")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_vectorized_noisy_and_check_paths_load_numpy_on_first_use():
    for code in ("import numpy as np; lc.value_many(np.array([[0.55, 0.5]]))",
                 "ss.run(lc, ss.GdConfig(max_iter=50), (0.55, 0.5), ss.NoiseConfig(seed=1))",
                 "assert all(r.passed for r in ss.run_all_checks(lc, 200, 20, 200, 200))"):
        res = _python("-c", "import sys, saddlescape as ss\n"
                            "lc = ss.Landscape(ss.LandscapeParams(n_saddles=2))\n"
                            f"{code}\nprint('numpy' in sys.modules)")
        assert res.returncode == 0, (code, res.stderr)
        assert res.stdout == "True\n"


EXPORTS = ["CheckReport", "DerivedConstants", "EscapeRecord", "Event", "GdConfig",
           "GrowthSummary", "InsufficientDataError", "Iterate", "Landscape", "LandscapeParams",
           "NoiseConfig", "Outcome", "OutsideDomainError", "Point", "RegionId", "RegionKind",
           "SegmentationError", "StallInfo", "StreamObserver", "TheoryCheck", "TheoryReport",
           "Trajectory", "analysis", "check_buffer_bound", "check_escape_recurrence", "checks",
           "derive_constants", "descent", "global_minimum_check", "gradient_check",
           "growth_summary", "init_sample", "landscape", "lipschitz_report",
           "project_to_domain", "replay", "run", "run_all_checks", "seam_scan",
           "stationary_check"]


def test_public_names_are_fixed_and_the_checks_resolve_lazily():
    assert saddlescape.__all__ == EXPORTS
    res = _python("-c", "import sys, saddlescape\n"
                        "listed = set(dir(saddlescape))\n"
                        "print('saddlescape.checks' in sys.modules)\n"
                        "ns = {}\n"
                        "exec('from saddlescape import *', ns)\n"
                        "print(sorted(set(saddlescape.__all__) - set(ns)),"
                        " sorted(set(saddlescape.__all__) - listed))\n"
                        "from saddlescape import checks\n"
                        "import saddlescape.checks\n"
                        "print(saddlescape.checks is checks is sys.modules['saddlescape.checks'],"
                        " ns['run_all_checks'] is checks.run_all_checks)")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n[] []\nTrue True\n"
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        saddlescape.not_a_name


def test_readme_api_paragraph_names_the_exports():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    para = re.search(r"The public API is the package's top-level names\.(.*?)"
                     r"The result dataclasses serialize", readme, re.S).group(1)
    named = set(re.findall(r"`([^`]+)`", re.sub(r"\([^()]*\)", "", para)))
    exports = {name for name in saddlescape.__all__
               if not inspect.ismodule(getattr(saddlescape, name))}
    assert named == exports


def test_readme_python_examples_run():
    # every Python block (the quick start, then the StreamObserver example)
    # in one namespace, and the values the quick start's comments promise
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert any("StreamObserver" in block for block in blocks[1:])
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    promised = re.findall(r"^(lc\.\w+\(.*\))\s+# (.+)$", blocks[0], re.M)
    assert len(promised) == 3
    names = {"RegionId": saddlescape.RegionId, **saddlescape.RegionKind.__members__}
    for expr, value in promised:
        assert eval(expr, namespace) == eval(value, names), expr
    assert namespace["report"].records
