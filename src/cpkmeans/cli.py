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
    ExperimentConfig,
    MeanCase,
    RateStudyResult,
    SelectionResult,
    TSweepResult,
    run_rate_study,
    run_regression_study,
    run_selection_comparison,
    run_t_sweep_study,
    sample_case_means,
    sample_rate_means,
)
from .model import ModelSpec, SignalMatrix, generate_sample
from .smoothing import LepskiConfig, lepski_select, method1_select, method2_select, surrogate

_SEED_CAP = 2**63 - 1

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
        "--sigma", type=float, default=None, help="noise level; lepski and method1 need it"
    )
    sel.add_argument("--method", required=True, choices=["lepski", "method1", "method2"])
    sel.add_argument("--c-lepski", type=float, default=16.0, dest="c_lepski")
    sel.add_argument("--n-sub", type=int, default=100, dest="n_sub")
    sel.add_argument("--frac", type=float, default=0.8)
    sel.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="run a configured study")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--trials", type=int, default=None)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--sigma", type=float, default=None)
    exp.add_argument("--tau", type=float, default=None)
    exp.add_argument("--T", type=int, default=None)
    exp.add_argument("--c-lepski", type=float, default=None, dest="c_lepski")
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
        if args.means == "rate":
            tm, tp = sample_rate_means(args.d, rng)
        else:
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


def read_config_file(path) -> dict[str, str]:
    items = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in items:
                raise ValidationError(f"{path}:{lineno}: repeated key {key!r}")
            items[key] = value.strip()
    return items


def _build_experiment(args) -> tuple[str, ExperimentConfig, int]:
    max_workers = os.cpu_count() or 1
    if not 1 <= args.workers <= max_workers:
        raise ValidationError(f"--workers must lie in [1, {max_workers}], got {args.workers}")
    try:
        raw = read_config_file(args.config)
    except OSError as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc}")
    known = {
        "study", "case", "base_seed", "trials", "n_grid", "d", "sigma", "tau",
        "t_grid", "t_star", "n_sub", "frac", "c_lepski",
    }
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    study = raw.get("study", "")
    if study not in ("rate", "sweep", "selection"):
        raise ValidationError(f"study must be rate | sweep | selection, got {study!r}")
    try:
        case = MeanCase(raw.get("case", "rate"))
    except ValueError:
        raise ValidationError(f"case must be rate | caseA | caseB, got {raw.get('case')!r}")
    config = ExperimentConfig(
        base_seed=args.seed if args.seed is not None else int(raw.get("base_seed", "0")),
        trials=args.trials if args.trials is not None else int(raw.get("trials", "1")),
        n_grid=_parse_int_list(raw.get("n_grid", "")),
        d=int(raw.get("d", "0")),
        sigma=args.sigma if args.sigma is not None else float(raw.get("sigma", "1.0")),
        tau=args.tau if args.tau is not None else float(raw.get("tau", "0.5")),
        case=case,
        t_grid=(args.T,) if args.T is not None else _parse_int_list(raw.get("t_grid", "")),
        n_sub=int(raw.get("n_sub", "100")),
        frac=float(raw.get("frac", "0.8")),
        c_lepski=args.c_lepski if args.c_lepski is not None else float(raw.get("c_lepski", "16")),
        t_star=int(raw["t_star"]) if "t_star" in raw else None,
    )
    return study, config, args.workers


_RECORD_HEADER = ["trial_index", "n", "T", "tau_true", "tau_hat", "abs_error", "selector"]
_SUMMARY_HEADER = [
    "study", "case", "n", "T", "selector", "count", "mean", "median", "variance", "std_dev",
]


def _write_records(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RECORD_HEADER)
        for r in records:
            writer.writerow(
                [r.trial_index, r.n, r.T, _fmt(r.tau_true), _fmt(r.tau_hat),
                 _fmt(r.abs_error), r.selector]
            )


def _summary_row(stats):
    return [stats.count, _fmt(stats.mean), _fmt(stats.median),
            _fmt(stats.variance), _fmt(stats.std_dev)]


def _write_summary(path, study, config, result):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SUMMARY_HEADER)
        if isinstance(result, RateStudyResult):
            for n, stats in result.per_n.items():
                writer.writerow(
                    [study, config.case.value, n, config.t_grid[0], "fixed-T"]
                    + _summary_row(stats)
                )
        elif isinstance(result, TSweepResult):
            for t, stats in result.per_t.items():
                writer.writerow(
                    [study, config.case.value, config.n_grid[0], t, "fixed-T"]
                    + _summary_row(stats)
                )
        elif isinstance(result, SelectionResult):
            for tag, stats in result.per_selector.items():
                t_used = config.t_star if tag == "oracle" else ""
                writer.writerow(
                    [study, config.case.value, config.n_grid[0], t_used, tag]
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
    if args.method != "method2" and args.sigma is None:
        raise ValidationError(f"--sigma is required for --method {args.method}")
    sample = SignalMatrix(read_matrix_csv(args.input))
    if args.method == "lepski":
        z = surrogate(sample, args.sigma)
        t_hat = lepski_select(z, LepskiConfig(c_lepski=args.c_lepski), sample.n, sample.d)
    elif args.method == "method1":
        t_hat = method1_select(surrogate(sample, args.sigma))
    else:
        t_hat = method2_select(sample, args.n_sub, args.frac, args.seed)
    print(t_hat)
    return EXIT_OK


def _run_experiment(args) -> int:
    study, config, workers = _build_experiment(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        for tag, stats in result.per_selector.items():
            print(f"{tag}_mean={_fmt(stats.mean)}")
    _write_records(out_dir / "records.csv", result.records)
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
