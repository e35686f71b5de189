"""Command-line interface: CSV ingestion, config echo, subcommand dispatch.

Subcommands: constants, calibrate, estimate, simulate, backtest, stats, acf,
each listed once in _COMMANDS with its handler and help line. Every
subcommand takes the same flags, so one parser serves them all: the
subcommand is its one positional argument, a flag may come before or after
it, and `lave --help` lists the subcommands with their help lines. Every
flag is declared once, on its RunConfig field (_flag): its default, its
help line, its names where they are not --field-name, and any other
argparse option. The parser and the config echo (RunConfig.to_argv) are
both built from those fields; --auto-M alone has no field of its own. The
parser leaves an omitted flag out of its namespace, so RunConfig supplies
every default, and a repeated flag's last value wins (--auto-M M
stores --lam auto:M). The one per-command default is --replications, left
None in RunConfig: 500 for simulate, 2000 for calibrate. simulate runs
exactly the (gamma, M) thresholds that _resolve_lambda_table decides. An
input CSV is read by one csv reader, or line by line when it holds a quote
(ingest_csv). Every output CSV starts with '#' lines that echo the parsed
configuration as a shell-quoted flag string (shlex.join); parsing its
shlex.split reproduces the same RunConfig, so a run is fully described by
its own output header. The header always carries --seed: $LAVE_SEED only
supplies its default. Every CSV column is formatted in _write_csv. Exit
codes: 0 success, 2 usage, 3 input data, 4 domain or numeric, 5
nonconvergence.
"""

from __future__ import annotations

import argparse
import csv
# argparse translates its messages through gettext, which loads locale when
# the first parser is built; loaded here, so that cost falls at start-up
import locale  # noqa: F401
import logging
import math
import os
import shlex
import sys
import time
from dataclasses import field, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from ._record import ValueRecord
from .calibration import CalibrationSpec, calibrate_lambda
from .errors import CalibrationBracketError, GarchConvergenceError, InputDataError, LaveError
from .estimator import EstimatorConfig, estimate_path
from .evaluation import acf, compare_forecasters, standardized_returns, summary_stats
from .series import ReturnSeries, log_returns
from .simulation import ChangePointSpec, generate_change_point_series, run_change_point_experiment
from .transform import power_constants

__all__ = ["RunConfig", "DEFAULT_LAMBDA_TABLE", "DESIGN_PRESETS", "ingest_csv", "dispatch", "main"]

log = logging.getLogger("lave.cli")

# Shipped default thresholds, indexed by (gamma, reference window length M).
# Each is the 5% false-alarm threshold of the criterion in
# lave.calibration (the length-M window at tau = M rejected by one of its
# own splits, m0 = 10): the 95% quantile of _max_test_ratios over 50 000
# replications at seed 10 and at seed 11, averaged and rounded to two
# decimals. The gamma = 0.5 entries are older values; that procedure gives
# 2.45 (M = 40) and 2.78 (M = 80) for them, and both round-trip to a rate
# within 0.005 of 5% (20 000 replications at seed 1234).
DEFAULT_LAMBDA_TABLE = {
    (0.5, 80): 2.74,
    (0.5, 40): 2.40,
    (1.0, 80): 2.96,
    (1.0, 40): 2.50,
    (2.0, 80): 3.18,
    (2.0, 40): 2.41,
}

# Named change-point designs: tuples of (segment length, sigma).
DESIGN_PRESETS = {
    "two-jump-3x": ((80, 1.0), (80, 3.0), (80, 1.0)),
    "two-jump-5x": ((80, 1.0), (80, 5.0), (80, 1.0)),
    "two-jump-3x-long": ((200, 1.0), (200, 3.0), (200, 1.0)),
    "two-jump-5x-long": ((200, 1.0), (200, 5.0), (200, 1.0)),
    "alternating-3x": tuple((60, 1.0) if i % 2 == 0 else (60, 3.0) for i in range(10)),
}

# header name -> the kind of series its column holds
_VALUE_HEADERS = {
    **dict.fromkeys(("return", "returns", "ret", "log_return", "log_returns"), "returns"),
    **dict.fromkeys(("price", "prices", "close", "level"), "prices"),
}
_DATE_HEADERS = {"date", "time", "timestamp", "day"}


def _flag(default, help: str, *names: str, **options):
    """A RunConfig field and its flag: the default, the --help line, the
    flag names where they are not --field-name, and any other argparse
    option."""
    return field(default=default, metadata={"names": names, "options": dict(options, help=help)})


def _names(f) -> tuple:
    # a field's flag names, the first of them the one to_argv writes
    return f.metadata.get("names") or ("--" + f.name.replace("_", "-"),)


class RunConfig(ValueRecord):
    """Parsed flags for one CLI invocation; echoed into output headers.
    Each field but command declares its flag."""

    command: str
    gamma: float = _flag(0.5, "power transform exponent")
    m0: int = _flag(10, "grid step and minimal window")
    lam: str = _flag(
        "auto:80",
        "threshold: a number, table:M (shipped default), or auto:M (calibrated "
        "at 2000 replications, so about 0.1 of noise)",
        "--lam", "--lambda",
    )
    t0: int | None = _flag(None, "first estimation time (default 2*m0)")
    max_len: int | None = _flag(None, "cap on the candidate window length")
    seed: int = field(
        default_factory=lambda: int(os.environ.get("LAVE_SEED", "0")),
        metadata={"options": {"help": "RNG seed (default: $LAVE_SEED or 0)"}},
    )
    out_dir: str = _flag(".", "directory for output CSVs", "--out-dir", "--out")
    deterministic: bool = _flag(False, "suppress the timestamp header line")
    input_path: str | None = _flag(None, "input CSV path", "--input")
    input_kind: str = _flag(
        "auto", "how to read a column with no recognized header",
        choices=["auto", "returns", "prices"],
    )
    design: str | None = _flag(None, "change-point design: preset name or LENxSIGMA,LENxSIGMA,...")
    gamma_grid: str = _flag("default", "comma list of gammas, or 'default' for 0.5,1.0,2.0")
    lambdas: str = _flag(
        "table",
        "'table', 'auto' (calibrated at 2000 replications, so about 0.1 of "
        "noise), or explicit GAMMA:M:VALUE;... entries",
    )
    replications: int | None = _flag(None, "Monte Carlo replications", "--replications", "--reps")
    t_start: int = _flag(20, "first scored time for simulate")
    m_ref: int = _flag(80, "reference window length", "--M")
    alpha: float = _flag(0.05, "calibration target rate")
    garch_window: int = _flag(350, "rolling fit window", "--garch-window", "--window")
    p: float = _flag(0.5, "forecast criterion exponent")
    max_lag: int = _flag(50, "largest autocorrelation lag")
    standardize: bool = _flag(
        False, "also emit the ACF of returns standardized by the adaptive estimate"
    )
    curves_for: str = _flag("0.5,80", "GAMMA,M combination written to curves.csv")

    def to_argv(self) -> list[str]:
        """Flag list that parses back to this exact config. A field left at
        its default is omitted; seed has no fixed default (its factory reads
        $LAVE_SEED), so it is always written."""
        argv = [self.command]
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if value == f.default:
                continue
            flag = _names(f)[0]
            if isinstance(value, bool):
                argv.append(flag)
            else:
                argv.extend([flag, str(value)])
        return argv


class _AutoM(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, f"auto:{value}")


# argparse options by a field's annotation, less any "| None"
_KINDS = {
    "int": {"type": int}, "float": {"type": float}, "str": {}, "bool": {"action": "store_true"},
}


def _build_parser() -> argparse.ArgumentParser:
    # one parser for every subcommand, which all take the same flags, in
    # any order around the command; a flag left out stays out of the
    # namespace, so RunConfig supplies every default
    commands = "\n".join(f"  {name:<11} {short}" for name, (_, short) in _COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="lave",
        usage="%(prog)s command [options]",
        description="Adaptive local-window volatility estimation toolkit",
        epilog="commands:\n" + commands,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument(
        "command", choices=_COMMANDS, metavar="command", help="one of the commands below"
    )
    for f in fields(RunConfig)[1:]:
        kind = _KINDS[f.type.partition(" |")[0]]
        parser.add_argument(*_names(f), dest=f.name, **kind, **f.metadata["options"])
        if f.name == "lam":
            parser.add_argument(
                "--auto-M", dest="lam", type=int, action=_AutoM, metavar="AUTO_M",
                help="shorthand for --lam auto:M (calibrate the threshold for length M)",
            )
    return parser


def parse_config(argv) -> RunConfig:
    return RunConfig(**vars(_build_parser().parse_args(argv)))


def _to_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def ingest_csv(path, kind: str = "auto") -> ReturnSeries:
    """Read a return or price series from a CSV file.

    A header row naming a price-like or return-like column selects that
    column; a leading date column is ignored. Headerless single-column data
    is treated as returns unless a '# prices' comment or kind='prices' says
    otherwise. Rows whose selected cell is empty, non-numeric or not a
    finite number (nan, inf, -inf) are dropped and counted in a logged
    warning. Prices are converted to log returns. The file must be UTF-8
    text; a leading byte-order mark is skipped. The data lines are read by
    one csv reader, or line by line where the file holds a quote, so that a
    stray quote spoils its own line only. A line the csv module cannot
    parse, such as one with a cell over its field size limit, is an input
    error that names the file's line.
    """
    path = Path(path)
    try:
        # not "utf-8-sig": its decode error counts offsets after the mark
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise InputDataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputDataError(
            f"cannot read {path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} "
            f"at offset {exc.start})"
        ) from exc

    comment_kind = None
    lines, numbers = [], []
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("#"):
            directive = stripped.lstrip("#").strip().lower()
            if directive in ("returns", "prices"):
                comment_kind = directive
        elif stripped:
            lines.append(line)
            numbers.append(number)
    if not lines:
        raise InputDataError(f"{path} has no data rows")

    # a reader per line where the file holds a quote: one reader would run
    # a stray quote's cell on to the end of the file
    readers = [csv.reader([line]) for line in lines] if '"' in text else [csv.reader(lines)]
    rows, read = [], 0
    for reader in readers:
        try:
            rows.extend(reader)
        except csv.Error as exc:
            number = numbers[read + reader.line_num - 1]
            raise InputDataError(f"cannot read {path} line {number}: {exc}") from exc
        read += reader.line_num

    header = [cell.strip().lower() for cell in rows[0]]
    named = [(i, _VALUE_HEADERS[name]) for i, name in enumerate(header) if name in _VALUE_HEADERS]
    if named:
        (col, header_kind), data_rows = named[0], rows[1:]
    elif any(name in _DATE_HEADERS for name in header) or _to_float(rows[0][-1]) is None:
        raise InputDataError(f"{path}: no recognizable price or return column")
    else:
        # headerless: the last column is the value, any leading column a date
        col, header_kind, data_rows = len(rows[0]) - 1, None, rows

    cells = [row[col].strip() if col < len(row) else "" for row in data_rows]
    values = [v for v in map(_to_float, cells) if v is not None and math.isfinite(v)]
    if len(values) < len(cells):
        log.warning("dropped %d non-numeric rows from %s", len(cells) - len(values), path)
    # explicit kind wins, then a comment directive, then the header
    resolved = kind if kind != "auto" else (comment_kind or header_kind or "returns")
    if len(values) < 2:
        usable = "price rows" if resolved == "prices" else "rows"
        raise InputDataError(f"{path}: need at least 2 usable {usable}")
    if resolved == "prices":
        return log_returns(values, origin_label=path.name)
    return ReturnSeries(values, origin_label=path.name)


def _parse_design(text: str, seed: int) -> ChangePointSpec:
    if text in DESIGN_PRESETS:
        return ChangePointSpec(segments=DESIGN_PRESETS[text], seed=seed)
    segments = []
    for part in text.split(","):
        try:
            n, s = part.lower().split("x")
            segments.append((int(n), float(s)))
        except ValueError as exc:
            raise ValueError(
                f"design {text!r} is neither a preset nor LENxSIGMA,... syntax"
            ) from exc
    return ChangePointSpec(segments=tuple(segments), seed=seed)


def _parse_gamma_grid(text: str) -> list[float]:
    if text == "default":
        return [0.5, 1.0, 2.0]
    return [float(part) for part in text.split(",")]


def _calibrate(cfg: RunConfig, gamma: float, M: int, replications: int | None = None):
    """calibrate_lambda at the run's m0, alpha and seed; 2000 replications
    unless given. auto:M and --lambdas auto always use 2000, which leaves
    threshold noise of about 0.1 (2.305 against 2.41 for gamma 2, M 40):
    use table:M, or `lave calibrate --replications N` and a numeric --lam."""
    spec = CalibrationSpec(
        gamma=gamma, M=M, m0=cfg.m0, target_alpha=cfg.alpha,
        replications=2000 if replications is None else replications, seed=cfg.seed,
    )
    return calibrate_lambda(spec)


def _threshold(cfg: RunConfig, gamma: float, source: str, M: int) -> float:
    """Threshold for (gamma, M) from source 'auto' (calibrated) or 'table'
    (DEFAULT_LAMBDA_TABLE)."""
    if source == "auto":
        return _calibrate(cfg, gamma, M).lam
    if (gamma, M) not in DEFAULT_LAMBDA_TABLE:
        raise ValueError(
            f"no shipped threshold for gamma={gamma}, M={M}; "
            f"use auto:{M} or --lambdas auto to calibrate one"
        )
    return DEFAULT_LAMBDA_TABLE[(gamma, M)]


def _estimator_config(cfg: RunConfig) -> tuple[EstimatorConfig, int]:
    """EstimatorConfig from the flags, and the M of --lam auto:M or table:M
    (0 when --lam is a number)."""
    source, _, m_text = cfg.lam.partition(":")
    calibrated = source in ("auto", "table")
    try:
        m_label = int(m_text) if calibrated else 0
        lam = None if calibrated else float(cfg.lam)
    except ValueError as exc:
        raise ValueError(f"--lam {cfg.lam!r} is not a number, table:M or auto:M") from exc
    if calibrated:
        lam = _threshold(cfg, cfg.gamma, source, m_label)
    return EstimatorConfig(cfg.gamma, cfg.m0, lam, t0=cfg.t0, max_len=cfg.max_len), m_label


def _resolve_lambda_table(cfg: RunConfig) -> dict:
    """Threshold per (gamma, M label) of every configuration simulate runs,
    in --gamma-grid order. A grid gamma with no --lambdas entry, or an entry
    off the grid, is not run, with a warning."""
    gammas = list(dict.fromkeys(_parse_gamma_grid(cfg.gamma_grid)))
    if cfg.lambdas in ("auto", "table"):
        return {(g, m): _threshold(cfg, g, cfg.lambdas, m) for g in gammas for m in (40, 80)}
    given = {}
    try:
        for entry in cfg.lambdas.split(";"):
            g, m, value = entry.split(":")
            given[(float(g), int(m))] = float(value)
    except ValueError as exc:
        raise ValueError(
            f"--lambdas {cfg.lambdas!r} is not 'table', 'auto' or GAMMA:M:VALUE;... entries"
        ) from exc
    table = {key: lam for g in gammas for key, lam in given.items() if key[0] == g}
    if not table:
        raise ValueError(f"--lambdas has no entry for any gamma of --gamma-grid {cfg.gamma_grid}")
    dropped = [str(g) for g in gammas if all(key[0] != g for key in table)]
    if dropped:
        log.warning("--lambdas has no entry for gamma=%s of --gamma-grid; they are not run",
                    ",".join(dropped))
    off_grid = list(dict.fromkeys(str(key[0]) for key in given if key not in table))
    if off_grid:
        log.warning("--lambdas entries for gamma=%s are off --gamma-grid; they are not run",
                    ",".join(off_grid))
    return table


def _header_lines(cfg: RunConfig) -> list[str]:
    lines = ["config: " + shlex.join(cfg.to_argv())]
    if not cfg.deterministic:
        lines.append("generated: " + time.strftime("%Y-%m-%dT%H:%M:%S"))
    return lines


def _write_csv(cfg: RunConfig, name: str, header, columns) -> Path:
    """Write columns under the config header, each formatted whole by
    _format_column."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in _header_lines(cfg):
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*map(_format_column, columns)))
    return path


def _format_column(column) -> list[str]:
    """The cells of a column: a float (np.float64 too) rounded to 12 digits,
    anything else by str. An array column is converted by one tolist().

    A float cell is repr(round(x, 12)). When every |x| of a float array
    lies in [1e-3, 100), that string is '%.12f' % x less its trailing zeros
    (one kept after the point), which one format of the whole column gives
    at about a third of the cost: round(x, 12) is the double nearest the
    decimal that '%.12f' writes, a decimal of at most 15 significant digits
    is the shortest that reads back as that double, and repr writes a value
    of that size without an exponent.
    """
    if isinstance(column, np.ndarray):
        values = column.tolist()
        if column.dtype.kind != "f":
            return list(map(str, values))
        magnitude = np.abs(column)
        if not ((magnitude >= 1e-3) & (magnitude < 100.0)).all():
            return list(map(repr, map(round, values, repeat(12))))
        cells = [cell.rstrip("0") for cell in (("%.12f\n" * len(values)) % tuple(values)).split()]
        return [cell + "0" if cell.endswith(".") else cell for cell in cells]
    return [repr(round(float(x), 12)) if isinstance(x, float) else str(x) for x in column]


def _require_input(cfg: RunConfig) -> ReturnSeries:
    if cfg.input_path:
        return ingest_csv(cfg.input_path, kind=cfg.input_kind)
    if cfg.design:
        r, _ = generate_change_point_series(_parse_design(cfg.design, cfg.seed))
        return r
    raise InputDataError(f"{cfg.command} needs --input or --design")


def _cmd_constants(cfg: RunConfig) -> Path:
    rows = []
    for g in _parse_gamma_grid(cfg.gamma_grid):
        p = power_constants(g)
        a = "" if p.a_gamma is None else p.a_gamma
        rows.append([g, p.c_gamma, p.d_gamma**2, p.s_gamma, a])
    return _write_csv(cfg, "constants.csv", ["gamma", "c", "d_squared", "s", "a"], zip(*rows))


def _cmd_calibrate(cfg: RunConfig) -> Path:
    res = _calibrate(cfg, cfg.gamma, cfg.m_ref, cfg.replications)
    row = [cfg.gamma, cfg.m_ref, cfg.m0, cfg.alpha,
           res.lam, res.achieved_rate, res.replications, res.ci_halfwidth]
    return _write_csv(
        cfg,
        "calibrate.csv",
        ["gamma", "M", "m0", "alpha", "lam", "achieved_rate", "replications", "ci_halfwidth"],
        zip(row),
    )


def _cmd_estimate(cfg: RunConfig) -> Path:
    r = _require_input(cfg)
    config, _ = _estimator_config(cfg)
    path = estimate_path(r, config)
    columns = [path.taus, path.sigma_hat, path.interval_len]
    return _write_csv(cfg, "estimate.csv", ["t", "sigma_hat", "interval_len"], columns)


def _cmd_simulate(cfg: RunConfig) -> Path:
    if not cfg.design:
        raise InputDataError("simulate needs --design")
    try:
        g_text, m_text = cfg.curves_for.split(",")
        curves_key = (float(g_text), int(m_text))
    except ValueError as exc:
        raise ValueError(f"--curves-for {cfg.curves_for!r} is not GAMMA,M") from exc
    design = _parse_design(cfg.design, cfg.seed)
    lambdas = _resolve_lambda_table(cfg)
    if curves_key not in lambdas:
        fallback = min(lambdas)
        log.warning("--curves-for gamma=%s, M=%s was not computed; writing gamma=%s, M=%s",
                    *curves_key, *fallback)
        curves_key = fallback
    result = run_change_point_experiment(
        design,
        lambdas,
        replications=500 if cfg.replications is None else cfg.replications,
        seed=cfg.seed,
        t_start=cfg.t_start,
        m0=cfg.m0,
        curves_for=[curves_key],
    )
    err_rows = [[c.gamma, c.lam, c.m_label, c.error] for c in result.cells]
    errors_path = _write_csv(
        cfg, "errors.csv", ["gamma", "lambda", "M_label", "error"], zip(*err_rows)
    )

    curve = result.curves[curves_key]
    curve_columns = [
        curve.taus, curve.sigma_true, curve.sigma_median, curve.sigma_q25,
        curve.sigma_q75, curve.len_median, curve.len_q25, curve.len_q75,
    ]
    _write_csv(
        cfg,
        "curves.csv",
        ["t", "sigma_true", "sigma_hat_median", "q25", "q75",
         "len_median", "len_q25", "len_q75"],
        curve_columns,
    )
    return errors_path


def _cmd_backtest(cfg: RunConfig) -> Path:
    r = _require_input(cfg)
    config, m_label = _estimator_config(cfg)
    comparison = compare_forecasters(r, config, garch_window=cfg.garch_window, p=cfg.p)
    if comparison.garch_fallback_times:
        log.warning("%d GARCH refits did not converge; their forecasts reuse the previous "
                    "parameters", len(comparison.garch_fallback_times))
    label = r.origin_label or "series"
    _write_csv(
        cfg,
        "comparison.csv",
        ["label", "gamma", "M_label", "ratio", "lave_score", "garch_score", "t0", "p"],
        zip([label, cfg.gamma, m_label, comparison.ratio, comparison.lave_score,
             comparison.garch_score, comparison.t0, comparison.p]),
    )
    t, lave, garch = map(np.array, zip(*comparison.forecasts))
    return _write_csv(
        cfg,
        "forecasts.csv",
        ["t", "lave_sigma_sq", "garch_sigma_sq", "r_sq_next"],
        [t, lave, garch, r.values[t] ** 2],
    )


def _cmd_stats(cfg: RunConfig) -> Path:
    r = _require_input(cfg)
    s = summary_stats(r)
    label = r.origin_label or "series"
    return _write_csv(
        cfg,
        "stats.csv",
        ["label", "n", "mean", "variance", "skewness", "kurtosis"],
        zip([label, s.n, s.mean, s.variance, s.skewness, s.kurtosis]),
    )


def _cmd_acf(cfg: RunConfig) -> Path:
    r = _require_input(cfg)
    values = acf(np.abs(r.values), cfg.max_lag)
    path = _write_csv(cfg, "acf.csv", ["lag", "value"], [np.arange(values.size), values])
    if cfg.standardize:
        config, _ = _estimator_config(cfg)
        est = estimate_path(r, config)
        full = np.full(len(r), np.nan)
        full[est.taus - 1] = est.sigma_hat
        z = standardized_returns(r, full)
        std_values = acf(np.abs(z), min(cfg.max_lag, z.size - 1))
        _write_csv(
            cfg, "acf_standardized.csv", ["lag", "value"],
            [np.arange(std_values.size), std_values],
        )
    return path


# each subcommand's handler and its --help line
_COMMANDS = {
    "constants": (_cmd_constants, "emit the power-transform constant table"),
    "calibrate": (_cmd_calibrate, "Monte Carlo calibration of the scan threshold"),
    "estimate": (_cmd_estimate, "per-time adaptive volatility estimates for a series"),
    "simulate": (_cmd_simulate, "change-point Monte Carlo study: errors and curves"),
    "backtest": (_cmd_backtest, "adaptive vs rolling-GARCH forecast comparison"),
    "stats": (_cmd_stats, "summary statistics of a series"),
    "acf": (_cmd_acf, "autocorrelations of absolute returns"),
}


def dispatch(cfg: RunConfig) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        handler, _ = _COMMANDS[cfg.command]
        out = handler(cfg)
    except InputDataError as exc:
        print(f"lave-error code=3 kind=input message={exc}", file=sys.stderr)
        return 3
    except (CalibrationBracketError, GarchConvergenceError) as exc:
        print(f"lave-error code=5 kind=convergence message={exc}", file=sys.stderr)
        return 5
    except (LaveError, ValueError, KeyError, FloatingPointError) as exc:
        print(f"lave-error code=4 kind=domain message={exc}", file=sys.stderr)
        return 4
    print(out)
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    return dispatch(cfg)


if __name__ == "__main__":
    sys.exit(main())
