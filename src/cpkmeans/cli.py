"""Command-line front end.

Subcommands: ``simulate`` (write a sample matrix CSV), ``estimate``
(change-point fit of a matrix CSV), ``select-t lepski | method1 | method2``
(truncation-level selection, each selector taking only the tuning it
reads), ``experiment`` (run a configured study, writing records.csv and
summary.csv).  Exit codes: 0 success, 2 validation or usage error,
3 I/O failure.

Matrix CSVs carry one signal per row of finite reals, no header.  Mean
files carry two rows (pre-change, post-change).  Experiment configs are
flat ``key=value`` text; integer lists accept ``a,b,c`` and ``a:b`` forms.
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

from .errors import ValidationError, check_array, check_integer
from .estimator import estimate_tau
from .experiments import (
    ExperimentConfig,
    MeanCase,
    StudyResult,
    draw_sample,
    run_study,
)
from .model import ModelSpec, SignalMatrix, generate_sample
from .smoothing import C_LEPSKI, lepski_select, method1_select, method2_select, surrogate

# studybench/replay.py still wraps these per-study names (until ROADMAP item 2's third step).
run_rate_study = run_t_sweep_study = run_selection_comparison = run_study

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def parse_invocation(argv) -> argparse.Namespace:
    """Parse argv into an invocation; argparse reports usage errors with exit 2."""
    parser = argparse.ArgumentParser(prog="cpkmeans")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a sample matrix and write it as CSV")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--d", type=int, required=True)
    sim.add_argument("--tau", type=float, required=True)
    sim.add_argument("--sigma", type=float, required=True)
    sim.add_argument("--means", required=True,
                     help="rate | caseA | caseB, or a CSV file with two mean rows")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)

    matrix = argparse.ArgumentParser(add_help=False)  # --input of estimate and each selector
    matrix.add_argument("--input", required=True)
    est = sub.add_parser("estimate", parents=[matrix], help="fit the change point of a matrix CSV")
    est.add_argument("--T", type=int, required=True)
    est.add_argument("--trace", action="store_true", help="also print the per-k objective")

    sel = sub.add_parser("select-t", help="select the truncation level for a matrix CSV")
    # One subcommand per selector, each with only the flags that selector reads.
    selectors = sel.add_subparsers(dest="selector", required=True)
    lep = selectors.add_parser("lepski", parents=[matrix], help="windowed-energy rule")
    lep.add_argument("--sigma", type=float, required=True, help="noise level")
    lep.add_argument("--c-lepski", type=float, default=C_LEPSKI, dest="c_lepski")
    selectors.add_parser("method1", parents=[matrix], help="two-regime split of the surrogate")
    m2 = selectors.add_parser("method2", parents=[matrix], help="subsample variance")
    m2.add_argument("--n-sub", type=int, default=ExperimentConfig.n_sub, dest="n_sub")
    m2.add_argument("--frac", type=float, default=ExperimentConfig.frac)
    m2.add_argument("--seed", type=int, default=0)

    exp = sub.add_parser("experiment", help="run a configured study")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--trials", type=int, default=None)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--workers", type=int, default=1)
    return parser.parse_args(argv)


def _fmt(x) -> str:
    return repr(float(x))


def write_matrix_csv(path, values: np.ndarray):
    # A repr'd float never needs quoting: one line per row, fields joined by ",".
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(_fmt, row.tolist())) + "\r\n" for row in np.atleast_2d(values))


def read_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line in filter(None, reader):  # blank lines skipped
            try:
                rows.append(check_array("row", [float(v) for v in line]))
                if len(line) != len(rows[0]):
                    raise ValueError(f"{len(line)} fields, the first row has {len(rows[0])}")
            except ValueError as exc:
                raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ValidationError(f"no data in {path}")
    return np.asarray(rows, dtype=np.float64)


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ":" in text:
        lo, hi = map(int, text.split(":"))
        if lo <= hi:
            return tuple(range(lo, hi + 1))
        raise ValueError(text)
    return tuple(int(tok) for tok in text.split(","))  # int("") refuses an empty entry


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


# Each key's parser, one key per ExperimentConfig field; a key the file
# leaves out takes the field's default.
_CONFIG_KEYS = {
    "study": str, "case": str, "base_seed": int, "trials": int, "n_grid": _parse_int_list,
    "d": int, "sigma": float, "tau": float, "t_grid": _parse_int_list, "t_star": int,
    "n_sub": int, "frac": float,
}


def _build_experiment(args) -> tuple[str, ExperimentConfig, int]:
    check_integer("--workers", args.workers, 1, os.cpu_count() or 1)
    try:
        raw = read_config_file(args.config)
    except OSError as exc:
        raise ValidationError(f"cannot read config {args.config}: {exc}")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    fields = {}
    for key, (lineno, text) in raw.items():
        try:
            fields[key] = _CONFIG_KEYS[key](text)
        except ValueError:
            raise ValidationError(f"{args.config}:{lineno}: cannot parse {key}={text!r}") from None
    for key, override in (("base_seed", args.seed), ("trials", args.trials)):
        if override is not None:
            fields[key] = override
    config = ExperimentConfig(**fields)
    return config.study, config, args.workers


# Every file is written in the csv module's default dialect: fields joined
# by ",", lines ended by "\r\n", and only a field holding one of ',"\r\n'
# quoted.  No field does: the numbers are repr'd, and the text fields (the
# study, the case and the row tags) are the package's own names.
_RECORD_HEADER = ["trial_index", "n", "T", "tau_true", "tau_hat", "abs_error", "selector"]
_SUMMARY_HEADER = [
    "study", "case", "n", "T", "selector", "count", "mean", "median", "variance", "std_dev",
]


def _write_records(path, result: StudyResult):
    # A record is one cell of the result's (trial, row) grid: its trial and n
    # come from the grid's row, its selector from the column, its T from the
    # column or, where the selector picks T, from the trial's row of T_grid.
    # Each text is formatted once: a trial's "trial,n,", a column's
    # "T,tau_true," and ",selector", and each distinct tau_hat's
    # "tau_hat,abs_error".  Keying on the float is exact because tau_hat lies
    # in (0, 1), so 0.0 and -0.0, the only equal floats repr tells apart,
    # never meet.
    config = result.config
    pairs = {}
    tau_text = _fmt(config.tau)
    tails = [f",{tag}\r\n" for _, tag in config.rows]
    mids = [[f"{t},{tau_text}," for t in T] for T in result.T_grid.tolist()]
    trials = config.trials
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_RECORD_HEADER) + "\r\n")
        for g, tau_hats in enumerate(result.grid):
            head = f"{g % trials},{config.n_grid[g // trials]},"
            fh.write("".join(
                f"{head}{mid}"
                f"{pairs.get(x) or pairs.setdefault(x, f'{_fmt(x)},{_fmt(abs(x - config.tau))}')}"
                f"{tail}"
                for mid, x, tail in zip(mids[g if len(mids) > 1 else 0], tau_hats.tolist(), tails)))


def _write_summary(path, result: StudyResult):
    config = result.config
    head = f"{config.study},{config.case.value}"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_SUMMARY_HEADER) + "\r\n")
        fh.writelines(
            f"{head},{n},{'' if T is None else T},{selector},{s.count},{_fmt(s.mean)},"
            f"{_fmt(s.median)},{_fmt(s.variance)},{_fmt(s.std_dev)}\r\n"
            for (n, T, selector), s in result.summary.items()
        )


def _run_simulate(args) -> int:
    if args.means in {case.value for case in MeanCase}:
        sample = draw_sample(args.means, args.n, args.d, args.tau, args.sigma,
                             np.random.default_rng(check_integer("seed", args.seed, 0)))
    else:
        means = read_matrix_csv(args.means)
        if means.shape[0] != 2:
            raise ValidationError(f"means file must have exactly 2 rows, got {means.shape[0]}")
        spec = ModelSpec(n=args.n, d=args.d, tau=args.tau, theta_minus=means[0],
                         theta_plus=means[1], sigma=args.sigma)
        sample = generate_sample(spec, args.seed)
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
    # Each selector checks the tuning it reads by the rules in errors.py.
    sample = SignalMatrix(read_matrix_csv(args.input))
    if args.selector == "lepski":
        t_hat = lepski_select(surrogate(sample), sample.n, args.sigma, args.c_lepski)
    elif args.selector == "method1":
        t_hat = method1_select(surrogate(sample))
    else:
        t_hat = method2_select(sample, args.n_sub, args.frac, args.seed)
    print(t_hat)
    return EXIT_OK


def _run_experiment(args) -> int:
    _, config, workers = _build_experiment(args)
    # Refused before the first trial, not after the whole study: an --out
    # that is not a directory, or whose nearest existing ancestor is not one.
    out_dir = Path(args.out)
    full = out_dir.absolute()
    nearest = next(p for p in (full, *full.parents) if p.exists())  # "/" always exists
    if not nearest.is_dir():
        raise NotADirectoryError(f"--out {out_dir}: {nearest} is not a directory")
    result = run_study(config, workers=workers)
    # repr of a float is _fmt's text.
    for name, value in result.headline().items():
        print(f"{name}={value!r}")
    # Made only once the study has run, so a run that fails, such as a rate
    # study whose slope is undefined, leaves no directory.
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_records(out_dir / "records.csv", result)
    _write_summary(out_dir / "summary.csv", result)
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
    except ValueError as exc:  # ValidationError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv=None) -> int:
    return run(parse_invocation(argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main())
