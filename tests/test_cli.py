import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpkmeans import cli
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
from cpkmeans.experiments import ExperimentConfig, run_selection_comparison, run_t_sweep_study


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


def test_estimate_trace_output(tmp_path, capsys):
    path = tmp_path / "y.csv"
    write_matrix_csv(path, np.vstack([np.zeros((3, 1)), np.ones((4, 1))]))
    assert main(["estimate", "--input", str(path), "--T", "1", "--trace"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k_hat=3"
    assert len(lines) == 2 + 4  # k in {2, ..., 5}


def test_select_t_lepski_zero_matrix(tmp_path, capsys):
    path = tmp_path / "y.csv"
    write_matrix_csv(path, np.zeros((6, 4)))
    assert main(["select-t", "--input", str(path), "--sigma", "1.0", "--method", "lepski"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"


def test_select_t_method2_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(71)
    path = tmp_path / "y.csv"
    write_matrix_csv(path, rng.normal(size=(20, 5)))
    args = ["select-t", "--input", str(path), "--sigma", "1.0", "--method", "method2",
            "--n-sub", "8", "--frac", "0.8", "--seed", "3"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first


def test_select_t_method2_needs_no_sigma(tmp_path, capsys):
    rng = np.random.default_rng(72)
    path = tmp_path / "y.csv"
    write_matrix_csv(path, rng.normal(size=(20, 5)))
    args = ["select-t", "--input", str(path), "--method", "method2", "--n-sub", "8"]
    assert main(args) == EXIT_OK
    without = capsys.readouterr().out
    assert main(args + ["--sigma", "1.0"]) == EXIT_OK
    assert capsys.readouterr().out == without


def test_select_t_lepski_requires_sigma(tmp_path, capsys):
    path = tmp_path / "y.csv"
    write_matrix_csv(path, np.zeros((6, 4)))
    assert main(["select-t", "--input", str(path), "--method", "lepski"]) == EXIT_VALIDATION
    assert "--sigma" in capsys.readouterr().err


def test_select_t_method1_ignores_sigma(tmp_path, capsys):
    # Method 1 reads only the surrogate's z, which sigma does not change.
    rng = np.random.default_rng(73)
    path = tmp_path / "y.csv"
    values = rng.normal(size=(30, 12))
    values[15:, :4] += 2.0
    write_matrix_csv(path, values)
    args = ["select-t", "--input", str(path), "--method", "method1"]
    outputs = []
    for extra in ([], ["--sigma", "1.0"], ["--sigma", "5.0"]):
        assert main(args + extra) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0].strip().isdigit()
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_estimate_validation_exit(tmp_path, capsys):
    path = tmp_path / "y.csv"
    write_matrix_csv(path, np.zeros((6, 2)))
    assert main(["estimate", "--input", str(path), "--T", "5"]) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_estimate_missing_input_is_io_error(tmp_path, capsys):
    assert main(["estimate", "--input", str(tmp_path / "nope.csv"), "--T", "1"]) == EXIT_IO
    capsys.readouterr()


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


@pytest.mark.parametrize(
    "study, d, extra, message",
    [
        ("sweep", 10, "", "case B needs d >= 21"),
        ("selection", 25, "t_star=0", "t_star must lie in [1, 25]"),
        ("selection", 25, "t_star=26", "t_star must lie in [1, 25]"),
    ],
)
def test_experiment_bad_case_config_is_rejected_before_trials(
    tmp_path, capsys, study, d, extra, message
):
    cfg = tmp_path / f"{study}.cfg"
    cfg.write_text(
        f"study={study}\ncase=caseB\nbase_seed=2\ntrials=2\nn_grid=20\nd={d}\n"
        f"sigma=1.0\ntau=0.3\nt_grid=1:{d}\n{extra}\n"
    )
    out = tmp_path / "run"
    args = ["experiment", "--config", str(cfg), "--out", str(out), "--workers", "1"]
    assert main(args) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_experiment_bad_c_lepski_is_rejected_before_trials(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG + "c_lepski=0\n")
    out = tmp_path / "run"
    args = ["experiment", "--config", str(cfg), "--out", str(out)]
    assert main(args) == EXIT_VALIDATION
    assert "c_lepski must be > 0" in capsys.readouterr().err
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


def _write_records_per_row(path, tau, result):
    # The plain writer: every float formatted where it is written.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial_index", "n", "T", "tau_true", "tau_hat", "abs_error", "selector"])
        for i in range(len(result.n)):
            writer.writerow(
                [int(result.trial_index[i]), int(result.n[i]), int(result.T[i]), _fmt(tau),
                 _fmt(result.tau_hat[i]), _fmt(result.abs_error[i]), str(result.selector[i])]
            )


@pytest.mark.parametrize("study", ["sweep", "selection"])
def test_write_records_matches_per_row_writer(tmp_path, study):
    config = ExperimentConfig(
        base_seed=4, trials=3, n_grid=(20,), d=25, sigma=1.0, tau=0.3, case="caseB",
        t_grid=tuple(range(1, 26)), n_sub=6, t_star=5,
    )
    runner = run_t_sweep_study if study == "sweep" else run_selection_comparison
    result = runner(config)
    assert len(result.n) == (75 if study == "sweep" else 9)
    _write_records(tmp_path / "fast.csv", config.tau, result)
    _write_records_per_row(tmp_path / "plain.csv", config.tau, result)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_write_records_in_small_chunks_matches_per_row_writer(tmp_path, monkeypatch):
    # 75 sweep rows written 4 at a time: no chunk boundary may show in the file.
    config = ExperimentConfig(
        base_seed=4, trials=3, n_grid=(20,), d=25, sigma=1.0, tau=0.3, case="caseB",
        t_grid=tuple(range(1, 26)),
    )
    result = run_t_sweep_study(config)
    monkeypatch.setattr(cli, "_RECORD_CHUNK", 4)
    _write_records(tmp_path / "chunked.csv", config.tau, result)
    _write_records_per_row(tmp_path / "plain.csv", config.tau, result)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_run_dispatch_uses_namespace():
    ns = parse_invocation(["estimate", "--input", "missing.csv", "--T", "1"])
    assert run(ns) == EXIT_IO
