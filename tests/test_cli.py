import csv
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpkmeans import ValidationError, cli, experiments
from cpkmeans.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    _fmt,
    _write_records,
    main,
    parse_invocation,
    read_matrix_csv,
    run,
    write_matrix_csv,
)
from cpkmeans.experiments import ExperimentConfig, draw_sample, run_study
from helpers import WORKERS, record_columns, skip_pool_below_two_cpus


def test_parse_estimate_invocation():
    ns = parse_invocation(["estimate", "--input", "y.csv", "--T", "10"])
    assert ns.command == "estimate"
    assert ns.input == "y.csv"
    assert ns.T == 10
    assert not ns.trace


def test_parse_experiment_overrides():
    ns = parse_invocation(["experiment", "--config", "caseB.cfg", "--trials", "300", "--out", "o"])
    assert ns.command == "experiment"
    assert ns.trials == 300
    assert ns.seed is None


def test_parse_missing_required_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        parse_invocation(["estimate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(70)
    values = rng.normal(0, 1e3, size=(6, 4)) * 10.0 ** rng.integers(-12, 12, size=(6, 4))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, values)
    assert np.array_equal(read_matrix_csv(path), values)


def test_read_matrix_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n\n3,4\n\n")
    assert read_matrix_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_read_matrix_csv_of_blank_lines_is_refused(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("\n\n\n")
    with pytest.raises(ValidationError) as info:
        read_matrix_csv(path)
    assert str(info.value) == f"no data in {path}"


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("1,2\n\n3,4\n5\n", 4, "1 fields, the first row has 2"),
        ("1,2\n3,4,5\n", 2, "3 fields, the first row has 2"),
        ("1,2\n3,abc\n", 2, "could not convert string to float: 'abc'"),
        ("1,2\n3,nan\n", 2, "row must be finite"),
        ("1,2\n3,4\n\ninf,5\n", 4, "row must be finite"),
        ("-inf,2\n3,4\n", 1, "row must be finite"),
    ],
    ids=["short-row", "long-row", "not-a-number", "nan", "inf", "-inf"],
)
def test_matrix_csv_bad_row_is_refused_by_file_and_line(tmp_path, capsys, text, lineno, message):
    # numpy's "inhomogeneous shape" and a bare float() error used to name
    # neither, and SignalMatrix refused a non-finite field with a bare
    # "all entries must be finite".
    path = tmp_path / "y.csv"
    path.write_text(text)
    assert main(["estimate", "--input", str(path), "--T", "1"]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {path}:{lineno}: {message}\n"


@pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [
    ["select-t", "method1", "--input", "{path}"],
    ["simulate", "--n", "10", "--d", "2", "--tau", "0.3", "--sigma", "1",
     "--means", "{path}", "--out", "{out}"],
], ids=["select-t", "simulate-means"])
def test_non_finite_csv_field_is_refused_by_file_and_line(tmp_path, capsys, command, field):
    path, out = tmp_path / "m.csv", tmp_path / "y.csv"
    path.write_text(f"1,0\n0,{field}\n")
    args = [arg.format(path=path, out=out) for arg in command]
    assert main(args) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}:2: row must be finite\n")
    assert not out.exists()


def _csv_writer_bytes(path, values):
    # The reference: the csv module's own writer, every float formatted by _fmt.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(values):
            writer.writerow([_fmt(v) for v in row])
    return Path(path).read_bytes()


@pytest.mark.parametrize("values, expected", [
    (np.array([[-0.0, 1e-05, 1e300], [0.1, -1e-05, -1e300]]),
     b"-0.0,1e-05,1e+300\r\n0.1,-1e-05,-1e+300\r\n"),
    (np.array([[1.0], [-0.0], [9.999999999999999e-06]]),
     b"1.0\r\n-0.0\r\n9.999999999999999e-06\r\n"),
], ids=["signed-zero-and-extremes", "one-column"])
def test_write_matrix_csv_writes_the_csv_writer_bytes(tmp_path, values, expected):
    write_matrix_csv(tmp_path / "m.csv", values)
    got = (tmp_path / "m.csv").read_bytes()
    assert got == expected == _csv_writer_bytes(tmp_path / "ref.csv", values)


def test_simulate_then_estimate_round_trip(tmp_path, capsys):
    means = tmp_path / "means.csv"
    write_matrix_csv(means, np.array([[1.0, 0.0], [0.0, 1.0]]))
    out = tmp_path / "y.csv"
    assert main(
        ["simulate", "--n", "10", "--d", "2", "--tau", "0.3", "--sigma", "0.0",
         "--means", str(means), "--seed", "1", "--out", str(out)]
    ) == EXIT_OK
    capsys.readouterr()
    assert main(["estimate", "--input", str(out), "--T", "2"]) == EXIT_OK
    got = capsys.readouterr().out
    assert "k_hat=3" in got
    assert "tau_hat=0.3" in got


def test_simulate_determinism(tmp_path):
    args = ["simulate", "--n", "12", "--d", "3", "--tau", "0.5", "--sigma", "1.0",
            "--means", "caseA", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_simulate_draws_as_a_trial_does(tmp_path):
    out = tmp_path / "y.csv"
    assert main(["simulate", "--n", "20", "--d", "25", "--tau", "0.3", "--sigma", "1.0",
                 "--means", "caseB", "--seed", "5", "--out", str(out)]) == EXIT_OK
    sample = draw_sample("caseB", 20, 25, 0.3, 1.0, np.random.default_rng(5))
    assert np.array_equal(read_matrix_csv(out), sample.values)


def test_simulate_refuses_an_overflowing_draw_without_a_numpy_warning(tmp_path):
    # Run with the default warning filters, as a user runs it, so that a numpy
    # overflow warning would show on stderr before the error.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "cpkmeans.cli", "simulate", "--n", "6", "--d", "3", "--tau", "0.5",
         "--sigma", "1e308", "--means", "caseA", "--out", "y.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_VALIDATION
    assert proc.stdout == ""
    assert re.fullmatch(r"error: values must be finite and lie in \[.*\]\n", proc.stderr)
    assert not (tmp_path / "y.csv").exists()


def test_simulate_rejects_infinite_sigma(tmp_path, capsys):
    out = tmp_path / "y.csv"
    assert main(["simulate", "--n", "8", "--d", "3", "--tau", "0.5", "--sigma", "inf",
                 "--means", "caseA", "--out", str(out)]) == EXIT_VALIDATION
    assert "sigma must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_trace_output(tmp_path, capsys):
    path = tmp_path / "y.csv"
    write_matrix_csv(path, np.vstack([np.zeros((3, 1)), np.ones((4, 1))]))
    assert main(["estimate", "--input", str(path), "--T", "1", "--trace"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k_hat=3"
    assert len(lines) == 2 + 4  # k in {2, ..., 5}


def _refused_by_argparse(capsys, argv) -> str:
    """argv's usage error: exit 2 with nothing on stdout; returns stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_select_t_lepski_zero_matrix(tmp_path, capsys):
    path = tmp_path / "y.csv"
    write_matrix_csv(path, np.zeros((6, 4)))
    assert main(["select-t", "lepski", "--input", str(path), "--sigma", "1.0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"


def test_select_t_method2_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(71)
    path = tmp_path / "y.csv"
    write_matrix_csv(path, rng.normal(size=(20, 5)))
    args = ["select-t", "method2", "--input", str(path), "--n-sub", "8", "--frac", "0.8",
            "--seed", "3"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first


def test_select_t_method2_needs_no_sigma(tmp_path, capsys):
    rng = np.random.default_rng(72)
    path = tmp_path / "y.csv"
    write_matrix_csv(path, rng.normal(size=(20, 5)))
    args = ["select-t", "method2", "--input", str(path), "--n-sub", "8"]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out.strip().isdigit()
    # Method 2 reads no sigma, so the flag is refused rather than ignored.
    assert "unrecognized arguments: --sigma 1.0" in _refused_by_argparse(
        capsys, args + ["--sigma", "1.0"])


def test_select_t_lepski_requires_sigma(tmp_path, capsys):
    path = tmp_path / "y.csv"
    write_matrix_csv(path, np.zeros((6, 4)))
    err = _refused_by_argparse(capsys, ["select-t", "lepski", "--input", str(path)])
    assert "required: --sigma" in err


def test_select_t_infinite_c_lepski_is_rejected(tmp_path, capsys):
    # An infinite constant used to make every window pass and print 1.
    path = tmp_path / "y.csv"
    write_matrix_csv(path, np.zeros((6, 4)))
    args = ["select-t", "lepski", "--input", str(path), "--sigma", "1", "--c-lepski", "inf"]
    assert main(args) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "c_lepski must be finite" in captured.err


@pytest.mark.parametrize("means", ["caseB", "file"])
def test_simulate_negative_seed_is_refused_by_name(tmp_path, capsys, means):
    # A built-in case seeded its own generator, whose refusal named no parameter.
    if means == "file":
        means = tmp_path / "means.csv"
        write_matrix_csv(means, np.zeros((2, 30)))
    out = tmp_path / "y.csv"
    args = ["simulate", "--n", "10", "--d", "30", "--tau", "0.3", "--sigma", "1",
            "--means", str(means), "--seed", "-1", "--out", str(out)]
    assert main(args) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("rows", [1, 3])
def test_simulate_means_file_needs_two_rows(tmp_path, capsys, rows):
    means, out = tmp_path / "means.csv", tmp_path / "y.csv"
    write_matrix_csv(means, np.zeros((rows, 3)))
    args = ["simulate", "--n", "10", "--d", "3", "--tau", "0.3", "--sigma", "1",
            "--means", str(means), "--out", str(out)]
    assert main(args) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: means file must have exactly 2 rows, got {rows}\n")
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf", "-0.05"])
@pytest.mark.parametrize("method", ["lepski", "method1"])
def test_select_t_bad_sigma_is_rejected(tmp_path, capsys, sigma, method):
    # Lepski refuses the value by the sigma rule; method 1 reads no sigma,
    # so argparse refuses the flag itself.
    path = tmp_path / "y.csv"
    write_matrix_csv(path, np.zeros((6, 4)))
    args = ["select-t", method, "--input", str(path), f"--sigma={sigma}"]
    if method == "method1":
        err = _refused_by_argparse(capsys, args)
        assert f"unrecognized arguments: --sigma={sigma}" in err
        return
    assert main(args) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sigma must be finite and >= 0" in captured.err


def test_select_t_method1_refuses_sigma(tmp_path, capsys):
    # Method 1 reads only the surrogate's z, which sigma does not change, so
    # it takes no --sigma at all.
    rng = np.random.default_rng(73)
    path = tmp_path / "y.csv"
    values = rng.normal(size=(30, 12))
    values[15:, :4] += 2.0
    write_matrix_csv(path, values)
    args = ["select-t", "method1", "--input", str(path)]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out.strip().isdigit()
    for sigma in ("1.0", "5.0"):
        assert "unrecognized arguments: --sigma" in _refused_by_argparse(
            capsys, args + ["--sigma", sigma])


@pytest.mark.parametrize(
    "selector, flag",
    [
        (selector, flag)
        for selector, read in (
            ("lepski", {"--sigma", "--c-lepski"}),
            ("method1", set()),
            ("method2", {"--n-sub", "--frac", "--seed"}),
        )
        for flag in ("--sigma", "--c-lepski", "--n-sub", "--frac", "--seed")
        if flag not in read
    ],
)
def test_select_t_refuses_flags_its_selector_does_not_read(tmp_path, capsys, selector, flag):
    # Each of these 10 (selector, flag) pairs used to be accepted and ignored.
    path = tmp_path / "y.csv"
    write_matrix_csv(path, np.zeros((6, 4)))
    args = ["select-t", selector, "--input", str(path), flag, "3"]
    if selector == "lepski":
        args += ["--sigma", "1"]
    assert f"unrecognized arguments: {flag} 3" in _refused_by_argparse(capsys, args)


def test_select_t_needs_a_selector(capsys):
    err = _refused_by_argparse(capsys, ["select-t", "--input", "y.csv"])
    assert "lepski" in err and "method2" in err


def test_estimate_validation_exit(tmp_path, capsys):
    path = tmp_path / "y.csv"
    write_matrix_csv(path, np.zeros((6, 2)))
    assert main(["estimate", "--input", str(path), "--T", "5"]) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_estimate_missing_input_is_io_error(tmp_path, capsys):
    assert main(["estimate", "--input", str(tmp_path / "nope.csv"), "--T", "1"]) == EXIT_IO
    capsys.readouterr()


def test_module_entry_point_exits_with_the_run_code(tmp_path):
    # ``python -m cpkmeans.cli`` is how the study benchmark runs every workload.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "cpkmeans.cli", "estimate", "--input", "missing.csv", "--T", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_IO
    assert proc.stdout == "" and proc.stderr.startswith("i/o error: ")


def test_experiment_unreadable_config_is_usage_error(tmp_path, capsys):
    code = main(["experiment", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    capsys.readouterr()


def test_experiment_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("study=rate\nbogus=1\n")
    assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION
    capsys.readouterr()


RATE_CFG = """\
# tiny rate study
study=rate
case=rate
base_seed=3
trials=2
n_grid=20,40
d=20
sigma=1.0
tau=0.3
t_grid=10
"""


def test_experiment_config_must_name_its_case(tmp_path, capsys):
    # Every study runs on every case, so no case is implied by the study.
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG.replace("case=rate\n", ""))
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "case must be rate | caseA | caseB, got ''" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_outputs_are_deterministic(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["experiment", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["experiment", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    header = (out1 / "records.csv").read_text().splitlines()[0]
    assert header == "trial_index,n,T,tau_true,tau_hat,abs_error,selector"


def test_experiment_worker_count_does_not_change_outputs(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["experiment", "--config", str(cfg), "--out", str(out1), "--workers", "1"]) == EXIT_OK
    skip_pool_below_two_cpus()
    assert main(["experiment", "--config", str(cfg), "--out", str(out2), "--workers", "2"]) == EXIT_OK
    capsys.readouterr()
    assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()


def test_experiment_trials_override(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG)
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--trials", "3", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    rows = (out / "records.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3 * 2  # header + trials * len(n_grid)


@pytest.mark.parametrize(
    "extra, message",
    [("n_sub=1", "n_sub"), ("frac=1.0", "frac"), ("frac=0.1", "too small")],
)
def test_experiment_bad_subsampling_is_rejected_before_trials(tmp_path, capsys, extra, message):
    cfg = tmp_path / "selection.cfg"
    cfg.write_text(
        "study=selection\ncase=caseB\nbase_seed=2\ntrials=2\nn_grid=20\nd=25\n"
        f"sigma=1.0\ntau=0.3\nt_grid=1:25\nt_star=5\n{extra}\n"
    )
    out = tmp_path / "run"
    args = ["experiment", "--config", str(cfg), "--out", str(out), "--workers", "1"]
    assert main(args) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_experiment_rate_with_one_size_is_rejected_before_trials(tmp_path, capsys, monkeypatch):
    # A rate study reports its slope over n, so its config needs two sizes.
    ran = []
    monkeypatch.setattr(experiments, "_rate_trial", lambda payload: ran.append(payload))
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("study=rate\ncase=rate\nbase_seed=1\ntrials=3\nn_grid=100\nd=20\n"
                   "tau=0.3\nt_grid=10\n")
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: rate study needs at least 2 sample sizes, got n_grid=(100,)\n")
    assert not out.exists()
    assert ran == []


def test_experiment_overflowing_sigma_is_rejected_before_trials(tmp_path, capsys):
    # Refused by the config's sigma, before the pool starts, not by a sample's bound.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("study=sweep\ncase=caseA\nbase_seed=1\ntrials=2\nn_grid=20\nd=5\n"
                   "sigma=1e200\ntau=0.3\nt_grid=1:5\n")
    out = tmp_path / "run"
    args = ["experiment", "--config", str(cfg), "--out", str(out), "--workers", str(WORKERS)]
    assert main(args) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sigma must be at most 5.468e+150 for a caseA sample of n=20, d=5, got 1e+200\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "study, d, extra, message",
    [
        ("sweep", 10, "", "case B needs d >= 21"),
        ("selection", 25, "t_star=0", "t_star must lie in [1, 25]"),
        ("selection", 25, "t_star=26", "t_star must lie in [1, 25]"),
        ("rate", 25, "", "rate study uses a single fixed T"),
        ("rate", 25, "t_grid=10", "rate study needs at least 2 sample sizes, got n_grid=(20,)"),
        ("selection", 25, "", "selection comparison needs t_star"),
        ("sweep", 25, "n_grid=20,40", "T sweep uses a single sample size"),
        ("selection", 25, "t_star=5 frac=0.15", "subsample of 3 rows is too small"),
    ],
)
def test_experiment_bad_case_config_is_rejected_before_trials(
    tmp_path, capsys, study, d, extra, message
):
    keys = dict(study=study, case="caseB", base_seed=2, trials=2, n_grid=20, d=d, sigma=1.0,
                tau=0.3, t_grid=f"1:{d}")
    keys.update(item.split("=") for item in extra.split())
    cfg = tmp_path / f"{study}.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in keys.items()))
    out = tmp_path / "run"
    args = ["experiment", "--config", str(cfg), "--out", str(out), "--workers", "1"]
    assert main(args) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()
    # Every one of these errors, the study's own included, is the config's.
    fields = {key: cli._CONFIG_KEYS[key](str(value)) for key, value in keys.items()}
    with pytest.raises(ValidationError, match=re.escape(message)):
        ExperimentConfig(**fields)


def test_experiment_config_fields_are_the_config_keys():
    # Every ExperimentConfig field has a config-file twin, and every key a field.
    assert {field.name for field in dataclasses.fields(ExperimentConfig)} == set(cli._CONFIG_KEYS)


def test_experiment_unwritable_out_is_io_error(tmp_path, capsys, monkeypatch):
    # An --out that is a file, or lies under one, is refused before the first
    # trial: no study runs and no headline is printed.
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG)
    blocker = tmp_path / "file"
    blocker.write_text("")

    def no_trial(payload):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiments, "_rate_trial", no_trial)
    for out in (blocker, blocker / "run"):
        args = ["experiment", "--config", str(cfg), "--out", str(out)]
        assert main(args) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"i/o error: --out {out}: {blocker} is not a directory" in captured.err
        assert blocker.read_text() == ""


def test_experiment_config_file_defaults_are_the_dataclass_defaults(tmp_path):
    # A key the file leaves out takes the ExperimentConfig field's default.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("study=sweep\ncase=caseA\nn_grid=20\nd=5\nt_grid=1:5\n")
    argv = ["experiment", "--config", str(cfg), "--out", str(tmp_path / "run")]
    study, config, workers = cli._build_experiment(parse_invocation(argv))
    assert (study, workers) == ("sweep", 1)
    assert config == ExperimentConfig(study="sweep", case="caseA", n_grid=(20,), d=5,
                                      t_grid=(1, 2, 3, 4, 5))


@pytest.mark.parametrize(
    "key, message",
    [
        ("study", "study must be rate | sweep | selection, got ''"),
        ("n_grid", "n_grid must be non-empty"),
        ("d", "d must be >= 1, got 0"),
    ],
)
def test_experiment_config_must_name_its_study_and_grid(tmp_path, capsys, key, message):
    # study, case, n_grid and d have no default that runs; case has its own test.
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("".join(line + "\n" for line in RATE_CFG.splitlines()
                           if not line.startswith(f"{key}=")))
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_experiment_c_lepski_key_is_unknown(tmp_path, capsys):
    # The Lepski constant is a parameter of lepski_select and select-t only:
    # no study reads it, so no config takes it.
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG + "c_lepski=0\n")
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "unknown config keys: ['c_lepski']" in capsys.readouterr().err
    assert not out.exists()


def test_readme_experiment_configs_build_as_written(tmp_path):
    # Every key=value block in the README is a config `experiment` accepts
    # verbatim.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [
        block for block in readme.split("```")[1::2]
        if any(line.startswith("study=") for line in block.splitlines())
    ]
    studies = []
    for i, block in enumerate(blocks):
        cfg = tmp_path / f"readme{i}.cfg"
        cfg.write_text(block)
        argv = ["experiment", "--config", str(cfg), "--out", str(tmp_path / "run")]
        study, _, _ = cli._build_experiment(parse_invocation(argv))
        studies.append(study)
    assert studies == ["rate", "selection"]


def test_readme_python_blocks_run(capsys):
    # Every python block in the README runs as written, so an API rename
    # that leaves the README behind fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [block[len("python"):] for block in readme.split("```")[1::2]
              if block.startswith("python\n")]
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert "False" not in capsys.readouterr().out


def test_experiment_config_trailing_comments_are_ignored(tmp_path):
    plain, commented = tmp_path / "plain.cfg", tmp_path / "commented.cfg"
    plain.write_text(RATE_CFG)
    commented.write_text(
        RATE_CFG.replace("study=rate\n", "study=rate          # or: sweep, selection\n")
        .replace("sigma=1.0\n", "sigma=1.0  # noise\n")
        .replace("n_grid=20,40\n", "n_grid=20,40#two sizes\n")
        + "   # an indented comment line\n"
    )
    built = [
        cli._build_experiment(parse_invocation(["experiment", "--config", str(cfg), "--out", "o"]))
        for cfg in (plain, commented)
    ]
    assert built[0] == built[1]
    assert built[1][0] == "rate" and built[1][1].sigma == 1.0


@pytest.mark.parametrize(
    "line, replacement, lineno",
    [
        ("sigma=1.0", "sigma=1.0.0  # noise", 8),
        ("d=20", "d=2O", 7),
        ("trials=2", "trials=2.5", 5),
        ("t_grid=10", "t_grid=1:2:3", 10),
        ("n_grid=20,40", "n_grid=20;40", 6),
        # A backwards range used to parse to an empty grid.
        ("t_grid=10", "t_grid=200:1", 10),
        ("n_grid=20,40", "n_grid=4000:500", 6),
        # Empty entries used to be dropped without a word.
        ("n_grid=20,40", "n_grid=500,,1000,", 6),
        ("t_grid=10", "t_grid=10,", 10),
        ("t_grid=10", "t_grid=", 10),
    ],
)
def test_experiment_bad_number_names_key_and_line(tmp_path, capsys, line, replacement, lineno):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG.replace(line + "\n", replacement + "\n"))
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    key, text = replacement.split("#")[0].strip().split("=")
    assert f"{cfg}:{lineno}: cannot parse {key}={text!r}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_loads_no_process_pool():
    # Only runs with more than one worker start a pool, so importing the
    # CLI loads neither the pool nor multiprocessing.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, cpkmeans.cli; "
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_experiment_config_line_without_equals_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG + "tau 0.5\n")
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert f"{cfg}:11: expected key=value, got 'tau 0.5'" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_repeated_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG + "tau=0.5\n")
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert f"{cfg}:11: repeated key 'tau'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1, 10**6])
def test_experiment_worker_count_out_of_range_is_rejected(tmp_path, capsys, workers):
    # Rejected while the invocation is checked, so no worker process starts.
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG)
    out = tmp_path / "run"
    args = ["experiment", "--config", str(cfg), "--out", str(out), "--workers", str(workers)]
    assert main(args) == EXIT_VALIDATION
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_sweep_config_range_syntax(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "study=sweep\ncase=caseB\nbase_seed=2\ntrials=2\nn_grid=20\nd=25\n"
        "sigma=1.0\ntau=0.3\nt_grid=1:25\n"
    )
    out = tmp_path / "run"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert "t_star=" in capsys.readouterr().out
    rows = (out / "summary.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 25


def test_parse_int_list_range_of_one_value():
    assert cli._parse_int_list("5:5") == (5,)
    assert cli._parse_int_list(" 2:4 ") == (2, 3, 4)


def test_experiment_selection_config_needs_no_t_grid(tmp_path, capsys):
    text = ("study=selection\ncase=caseB\nbase_seed=2\ntrials=2\nn_grid=20\nd=25\n"
            "sigma=1.0\ntau=0.3\nt_star=5\nn_sub=6\n")
    outputs = []
    for name, extra in (("plain", ""), ("grid", "t_grid=1:25\n")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text + extra)
        out = tmp_path / name
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        outputs.append([capsys.readouterr().out] + [
            (out / f).read_bytes() for f in ("records.csv", "summary.csv")])
    assert "oracle_mean=" in outputs[0][0]
    assert outputs[0] == outputs[1]


def _write_records_per_row(path, tau, result):
    # The plain writer: every float formatted where it is written, each
    # tau_hat the cell's split over its n, as estimate_tau divides them.
    records = record_columns(result)
    splits = result.grid.ravel().tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial_index", "n", "T", "tau_true", "tau_hat", "abs_error", "selector"])
        for i, k in enumerate(splits):
            tau_hat = k / int(records["n"][i])
            writer.writerow(
                [int(records["trial_index"][i]), int(records["n"][i]), int(records["T"][i]),
                 _fmt(tau), _fmt(tau_hat), _fmt(abs(tau_hat - tau)), str(records["selector"][i])]
            )


@pytest.mark.parametrize("study, overrides, records", [
    pytest.param("sweep", {}, 75, id="sweep"),
    pytest.param("selection", {}, 9, id="selection"),
    pytest.param("rate", dict(case="caseA", sigma=0.5, n_grid=(20, 40), t_grid=(5,)), 6, id="rate"),
])
def test_write_records_matches_per_row_writer(tmp_path, study, overrides, records):
    config = ExperimentConfig(**{
        "study": study, "base_seed": 4, "trials": 3, "n_grid": (20,), "d": 25, "sigma": 1.0,
        "tau": 0.3, "case": "caseB", "t_grid": tuple(range(1, 26)), "n_sub": 6, "t_star": 5,
        **overrides,
    })
    result = run_study(config)
    assert len(record_columns(result)["n"]) == records
    if study == "rate":  # 0.3 = 6/20 = 12/40: one memo entry serves both n blocks
        assert 6 in result.grid[:3] and 12 in result.grid[3:]
    _write_records(tmp_path / "fast.csv", result)
    _write_records_per_row(tmp_path / "plain.csv", config.tau, result)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_run_dispatch_uses_namespace():
    ns = parse_invocation(["estimate", "--input", "missing.csv", "--T", "1"])
    assert run(ns) == EXIT_IO
