"""Command-line front end.

Subcommands: ``simulate`` (write a sample matrix CSV), ``estimate``
(change-point fit of a matrix CSV), ``select-t`` (truncation-level
selection), ``experiment`` (run a configured study, writing records.csv
and summary.csv).  Exit codes: 0 success, 2 validation or usage error,
3 I/O failure.

Matrix CSVs carry one signal per row, no header.  Mean files carry two
rows (pre-change, post-change).  Experiment configs are flat
``key=value`` text; integer lists accept ``a,b,c`` and ``a:b`` forms.
Floats are printed with ``repr`` so files round-trip exactly and reruns
are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .estimator import estimate_tau
from .experiments import (
    _SEED_CAP,
    ExperimentConfig,
    MeanCase,
    StudyResult,
    run_rate_study,
    run_regression_study,
    run_selection_comparison,
    run_t_sweep_study,
    sample_case_means,
)
from .model import ModelSpec, SignalMatrix, generate_sample
from .smoothing import (
    C_LEPSKI, check_sigma, lepski_select, method1_select, method2_select, surrogate,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cpkmeans")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a sample matrix and write it as CSV")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--d", type=int, required=True)
    sim.add_argument("--tau", type=float, required=True)
    sim.add_argument("--sigma", type=float, required=True)
    sim.add_argument(
        "--means",
        required=True,
        help="rate | caseA | caseB, or a CSV file with two mean rows",
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)

    est = sub.add_parser("estimate", help="fit the change point of a matrix CSV")
    est.add_argument("--input", required=True)
    est.add_argument("--T", type=int, required=True)
    est.add_argument("--trace", action="store_true", help="also print the per-k objective")

    sel = sub.add_parser("select-t", help="select the truncation level for a matrix CSV")
    sel.add_argument("--input", required=True)
    sel.add_argument(
        "--sigma", type=float, default=None, help="noise level; lepski needs it"
    )
    sel.add_argument("--method", required=True, choices=["lepski", "method1", "method2"])
    sel.add_argument("--c-lepski", type=float, default=C_LEPSKI, dest="c_lepski")
    sel.add_argument("--n-sub", type=int, default=100, dest="n_sub")
    sel.add_argument("--frac", type=float, default=0.8)
    sel.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="run a configured study")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--trials", type=int, default=None)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--workers", type=int, default=1)

    return parser


def parse_invocation(argv) -> argparse.Namespace:
    """Parse argv into an invocation; argparse reports usage errors with exit 2."""
    return build_parser().parse_args(argv)


def _fmt(x) -> str:
    return repr(float(x))


def write_matrix_csv(path, values: np.ndarray):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in np.atleast_2d(values):
            writer.writerow([_fmt(v) for v in row])


def read_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        for line in csv.reader(fh):
            if line:
                rows.append([float(v) for v in line])
    if not rows:
        raise ValidationError(f"no data in {path}")
    return np.asarray(rows, dtype=np.float64)


def _load_means(args):
    if args.means in ("rate", "caseA", "caseB"):
        rng = np.random.default_rng(args.seed)
        tm, tp = sample_case_means(MeanCase(args.means), args.d, rng)
        noise_seed = int(rng.integers(0, _SEED_CAP))
        return tm, tp, noise_seed
    means = read_matrix_csv(args.means)
    if means.shape[0] != 2:
        raise ValidationError(f"means file must have exactly 2 rows, got {means.shape[0]}")
    return means[0], means[1], args.seed


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def read_config_file(path) -> dict[str, tuple[int, str]]:
    """``key=value`` lines as {key: (line number, value)}; ``#`` starts a comment."""
    items = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in items:
                raise ValidationError(f"{path}:{lineno}: repeated key {key!r}")
            items[key] = lineno, value.strip()
    return items


# Each key's parser, and the defaults; all but ``study`` are ExperimentConfig fields.
_CONFIG_KEYS = {
    "study": str, "case": str, "base_seed": int, "trials": int, "n_grid": _parse_int_list,
    "d": int, "sigma": float, "tau": float, "t_grid": _parse_int_list, "t_star": int,
    "n_sub": int, "frac": float, "c_lepski": float,
}
_CONFIG_DEFAULTS = {
    "study": "", "case": "rate", "base_seed": 0, "trials": 1, "n_grid": (), "d": 0,
    "sigma": 1.0, "tau": 0.5, "t_grid": (),
}


def _build_experiment(args) -> tuple[str, ExperimentConfig, int]:
    max_workers = os.cpu_count() or 1
    if not 1 <= args.workers <= max_workers:
        raise ValidationError(f"--workers must lie in [1, {max_workers}], got {args.workers}")
    try:
        raw = read_config_file(args.config)
    except OSError as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc}")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    fields = dict(_CONFIG_DEFAULTS)
    for key, (lineno, text) in raw.items():
        try:
            fields[key] = _CONFIG_KEYS[key](text)
        except ValueError:
            raise ValidationError(f"{args.config}:{lineno}: cannot parse {key}={text!r}") from None
    study = fields.pop("study")
    if study not in ("rate", "sweep", "selection"):
        raise ValidationError(f"study must be rate | sweep | selection, got {study!r}")
    if fields["case"] not in {case.value for case in MeanCase}:
        raise ValidationError(f"case must be rate | caseA | caseB, got {fields['case']!r}")
    for key, override in (("base_seed", args.seed), ("trials", args.trials)):
        if override is not None:
            fields[key] = override
    return study, ExperimentConfig(**fields), args.workers


_RECORD_HEADER = ["trial_index", "n", "T", "tau_true", "tau_hat", "abs_error", "selector"]
_SUMMARY_HEADER = [
    "study", "case", "n", "T", "selector", "count", "mean", "median", "variance", "std_dev",
]


# Records per write: one write's lines are all the writer holds at once.
_RECORD_CHUNK = 512


class _Texts(dict):
    """Value -> its text, made by ``make`` on first lookup."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, value):
        text = self[value] = self.make(value)
        return text


def _write_records(path, tau: float, result: StudyResult):
    # A record is one cell of the result's (trial, row) grid: its trial and n
    # come from the grid's row, its selector from the column, its T from the
    # column or, where the selector picks T, from the trial's row of T_grid.
    # So each trial's "trial,n," and each column's "T,tau_true," and
    # ",selector" are formatted once, and each distinct tau_hat once per call
    # together with its abs_error, which is |tau_hat - tau| by the same IEEE
    # operations as the study's.  Keying on the float is exact: the only
    # equal floats that repr tells apart are 0.0 and -0.0, and tau_hat lies
    # in (0, 1).  Each record is one f-string, and blocks of trials go out as
    # one string each.  csv.writer would add nothing but its "\r\n": no field
    # needs quoting (every selector heads a summary group).
    assert not any(set(',"\r\n').intersection(tag) for _, _, tag in result.summary)
    pair = _Texts(lambda x: f"{_fmt(x)},{_fmt(abs(x - tau))}").__getitem__
    tau_text = _fmt(tau)
    tails = [f",{tag}\r\n" for _, tag in result.rows]
    mids = [[f"{t},{tau_text}," for t in T] for T in result.T_grid.tolist()]
    trials = result.trials
    block = max(1, _RECORD_CHUNK // len(tails))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_RECORD_HEADER) + "\r\n")
        for start in range(0, len(result.grid), block):
            lines = []
            for g, tau_hats in enumerate(result.grid[start:start + block].tolist(), start):
                head = f"{g % trials},{result.n_grid[g // trials]},"
                lines += [
                    f"{head}{mid}{pair(x)}{tail}"
                    for mid, x, tail in zip(mids[g if len(mids) > 1 else 0], tau_hats, tails)
                ]
            fh.write("".join(lines))


def _summary_row(stats):
    return [stats.count, _fmt(stats.mean), _fmt(stats.median),
            _fmt(stats.variance), _fmt(stats.std_dev)]


def _write_summary(path, study, config, result: StudyResult):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_HEADER)
        for (n, T, selector), stats in result.summary.items():
            writer.writerow(
                [study, config.case.value, n, "" if T is None else T, selector]
                + _summary_row(stats)
            )


def _run_simulate(args) -> int:
    tm, tp, noise_seed = _load_means(args)
    spec = ModelSpec(
        n=args.n, d=args.d, tau=args.tau, theta_minus=tm, theta_plus=tp, sigma=args.sigma
    )
    sample = generate_sample(spec, noise_seed)
    write_matrix_csv(args.out, sample.values)
    return EXIT_OK


def _run_estimate(args) -> int:
    sample = SignalMatrix(read_matrix_csv(args.input))
    fit = estimate_tau(sample, args.T)
    print(f"k_hat={fit.k_hat}")
    print(f"tau_hat={_fmt(fit.tau_hat)}")
    if args.trace:
        for i, value in enumerate(fit.objective):
            print(f"{i + 2},{_fmt(value)}")
    return EXIT_OK


def _run_select_t(args) -> int:
    if args.method == "lepski" and args.sigma is None:
        raise ValidationError("--sigma is required for --method lepski")
    if args.sigma is not None:
        check_sigma(args.sigma)
    sample = SignalMatrix(read_matrix_csv(args.input))
    if args.method == "lepski":
        t_hat = lepski_select(surrogate(sample), sample.n, args.sigma, args.c_lepski)
    elif args.method == "method1":
        t_hat = method1_select(surrogate(sample))
    else:
        t_hat = method2_select(sample, args.n_sub, args.frac, args.seed)
    print(t_hat)
    return EXIT_OK


def _run_experiment(args) -> int:
    study, config, workers = _build_experiment(args)
    if study == "rate":
        result = run_rate_study(config, workers=workers)
        slope_mean, slope_median = run_regression_study(result)
        print(f"slope_mean={_fmt(slope_mean)}")
        print(f"slope_median={_fmt(slope_median)}")
    elif study == "sweep":
        result = run_t_sweep_study(config, workers=workers)
        print(f"t_star={result.t_star}")
    else:
        result = run_selection_comparison(config, workers=workers)
        for (_, _, tag), stats in result.summary.items():
            print(f"{tag}_mean={_fmt(stats.mean)}")
    # Made only now, so a study that rejects its config leaves no directory.
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_records(out_dir / "records.csv", config.tau, result)
    _write_summary(out_dir / "summary.csv", study, config, result)
    return EXIT_OK


def run(invocation: argparse.Namespace) -> int:
    """Dispatch a parsed invocation; returns the process exit status."""
    handlers = {
        "simulate": _run_simulate,
        "estimate": _run_estimate,
        "select-t": _run_select_t,
        "experiment": _run_experiment,
    }
    try:
        return handlers[invocation.command](invocation)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv=None) -> int:
    return run(parse_invocation(argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
