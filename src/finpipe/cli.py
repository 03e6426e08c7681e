"""Command-line pipeline: preprocess, split, forecast, evaluate, backtest, report.

Every subcommand writes each output file beside its path and renames it over
the path once complete, so a run that fails on its input changes no output
file and no output is left half-written. It writes deterministic bytes for a
given (inputs, flags, seed), and stamps each output file with a provenance
header: a hash of the semantic configuration, the seed, and the toolkit
version. An optional ``key=value`` config file can supply any option: its
lines are read as flags placed before the command line's own, so a flag on
the command line wins. Exit status is 0 on success, 1 on data errors, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, forecast, metrics, table
from .errors import (
    AlignError,
    DegenerateDispersionError,
    FormatError,
    MetricError,
    PricingError,
    SignalError,
    StrategyError,
    ToolkitError,
    WindowError,
)
from .forecast import load_forecasts, read_metadata
from .frame import (Panel, SplitSpec, WindowSpec, chronological_split, load_csv,
                    sliding_windows, write_csv)
from .options import OptionQuote, greeks, historical_vol, implied_vol
from .preprocess import inverse_price_transform, load_anchor_file, transform_panel, write_anchor_file
from .stats import FREQUENCIES, full_report, periods_per_year_for
from .strategy import (
    EquityCurve,
    diff_in_diff,
    difference_signal,
    equity_curve,
    forward_returns,
    long_short_positions,
    portfolio_topk,
    timing_positions,
)


def derive_seed(seed: int, stream: str) -> int:
    """Per-module sub-seed from one master seed and a stream name."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _csv_tuple(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _finite_float(text: str) -> float:
    """The converter of every float option: ``nan`` and ``inf`` are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"float value must be finite, got {text!r}")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class Opt:
    name: str
    convert: object
    default: object = None
    required: bool = False
    flag: bool = False
    choices: tuple | None = None
    help: str = ""


_CONFIG = Opt("config", str, help="key=value file read as flags before the command line's own")

OPTIONS: dict[str, tuple[Opt, ...]] = {
    "preprocess": (
        Opt("input", str, required=True, help="raw OHLCV panel CSV"),
        Opt("output", str, required=True, help="transformed panel CSV"),
        Opt("anchors", str, required=True, help="sidecar anchor CSV enabling exact inversion"),
        Opt("baseline", _finite_float, default=100.0, help="additive baseline for log prices"),
        _CONFIG,
    ),
    "split": (
        Opt("input", str, required=True, help="panel CSV to partition"),
        Opt("output_dir", str, required=True, help="directory for train/val/test CSVs"),
        Opt("train", _finite_float, default=0.7, help="train fraction"),
        Opt("val", _finite_float, default=0.1, help="validation fraction"),
        Opt("test", _finite_float, default=0.2, help="test fraction"),
        _CONFIG,
    ),
    "naive-forecast": (
        Opt("input", str, required=True, help="transformed panel CSV"),
        Opt("output", str, required=True, help="forecast file to write"),
        Opt("input_len", int, default=512, help="window input length"),
        Opt("horizon", int, default=5, help="forecast horizon"),
        Opt("target_vars", _csv_tuple, default=(), help="comma-separated targets; empty = all"),
        Opt("task", str, default="m2m", choices=("m2m", "m2s", "m2p"),
            help="m2m: all variables, m2s: one target, m2p: a proper subset"),
        Opt("noise_std", _finite_float, default=0.001, help="gaussian noise std on predictions"),
        Opt("seed", int, default=0, help="master seed; sub-seeds are derived per stream"),
        Opt("shared_noise", _parse_bool, default=False, flag=True,
            help="share one noise draw across the horizon instead of redrawing per step"),
        _CONFIG,
    ),
    "evaluate": (
        Opt("truth", str, required=True, help="transformed panel CSV with the ground truth"),
        Opt("forecasts", str, required=True, help="forecast file to score"),
        Opt("output", str, required=True, help="metric,value CSV"),
        Opt("method", str, default="spearman", choices=("spearman", "pearson"),
            help="correlation flavor for msic/msir"),
        _CONFIG,
    ),
    "backtest": (
        Opt("forecasts", str, required=True, help="forecast file driving the signals"),
        Opt("panel", str, required=True, help="transformed panel CSV (model input space)"),
        Opt("anchors", str, required=True, help="anchor sidecar from preprocess"),
        Opt("output", str, required=True, help="equity curve CSV"),
        Opt("strategy", str, required=True, choices=("timing", "longshort", "topk"),
            help="position rule"),
        Opt("target_var", str, help="traded variable (timing/longshort)"),
        Opt("k", int, help="portfolio size (topk)"),
        Opt("window", int, default=63, help="rolling-mean window of the trigger signal"),
        Opt("rebalance", int, default=5, help="periods between position updates"),
        _CONFIG,
    ),
    "report": (
        Opt("input", str, required=True, help="equity curve CSV from backtest"),
        Opt("output", str, required=True, help="metric,value CSV"),
        Opt("periods_per_year", _finite_float,
            help="annualization factor; default follows --freq"),
        Opt("risk_free", _finite_float, default=0.0, help="annual risk-free rate"),
        Opt("freq", str, default="daily", choices=FREQUENCIES,
            help="data frequency; sets the default --periods-per-year"),
        _CONFIG,
    ),
    "option-analytics": (
        Opt("input", str, required=True,
            help="CSV of timestamp,spot,strike,rate,expiry,kind,market_price"),
        Opt("output", str, required=True, help="input rows extended with iv and greeks"),
        Opt("hv_window", int, help="prices per historical-volatility window (adds an hv column)"),
        Opt("hv_source", str, default="market_price", help="column feeding historical volatility"),
        _CONFIG,
    ),
}

# Options naming files; every other option defines a run's semantics and is
# hashed, so identical runs in different locations hash identically.
PATH_OPTIONS = {"input", "output", "output_dir", "anchors", "truth", "forecasts", "panel", "config"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finpipe",
        description="Financial time-series forecasting evaluation pipeline",
    )
    parser.add_argument("--version", action="version", version=f"finpipe {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, opts in OPTIONS.items():
        sub = subparsers.add_parser(command, help=f"{command} stage")
        for opt in opts:
            flag = "--" + opt.name.replace("_", "-")
            if opt.flag:
                sub.add_argument(flag, dest=opt.name, action="store_true", help=opt.help)
            else:
                sub.add_argument(flag, dest=opt.name, type=opt.convert, choices=opt.choices,
                                 default=opt.default, help=opt.help)
    return parser


def _config_args(parser, command: str, path: str) -> list[str]:
    """The ``key=value`` lines of a config file as ``--key=value`` flags."""
    cfg_path = Path(path)
    if not cfg_path.exists():
        parser.error(f"no such config file: {cfg_path}")
    try:
        text = cfg_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read config file {cfg_path}: {exc}")
    pairs = []
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            parser.error(f"{cfg_path}: line {n}: expected key=value, got {line!r}")
        pairs.append((key.strip().replace("-", "_"), value.strip()))
    opts = {o.name: o for o in OPTIONS[command] if o.name != "config"}
    args = []
    for key, value in pairs:
        opt = opts.get(key)
        if opt is None:  # checked here: argparse would take an abbreviation such as hor=5
            parser.error(f"config file sets unknown option {key!r} for {command}")
        flag = "--" + key.replace("_", "-")
        if not opt.flag:
            args.append(f"{flag}={value}")
            continue
        try:
            if opt.convert(value):
                args.append(flag)
        except ValueError:
            parser.error(f"config option {key}={value!r} is not a valid value")
    return args


def resolve_options(parser, namespace) -> dict:
    """Check what argparse does not: required options and rules across options."""
    opts = dict(vars(namespace))
    command = opts.pop("command")
    for opt in OPTIONS[command]:
        if opt.required and opts[opt.name] is None:
            parser.error(f"missing required option --{opt.name.replace('_', '-')}")
    if command == "split":
        for key in ("train", "val", "test"):
            if not 0.0 < opts[key] < 1.0:
                parser.error(f"--{key} must be in (0, 1), got {opts[key]}")
        if abs(opts["train"] + opts["val"] + opts["test"] - 1.0) > 1e-12:
            parser.error("split fractions must sum to 1")
    if command == "naive-forecast":
        if opts["input_len"] < 1 or opts["horizon"] < 1:
            parser.error("--input-len and --horizon must be >= 1")
        if opts["noise_std"] < 0:
            parser.error("--noise-std must be non-negative")
    if command == "backtest":
        if opts["strategy"] in ("timing", "longshort") and not opts["target_var"]:
            parser.error(f"--target-var is required for the {opts['strategy']} strategy")
        if opts["strategy"] == "topk" and opts["k"] is None:
            parser.error("--k is required for the topk strategy")
        if opts["window"] < 1 or opts["rebalance"] < 1:
            parser.error("--window and --rebalance must be >= 1")
    if command == "report":
        if opts["periods_per_year"] is None:
            default = periods_per_year_for(opts["freq"])
            if default is None:
                parser.error(f"--periods-per-year is required for freq {opts['freq']!r}")
            opts["periods_per_year"] = float(default)
        if opts["periods_per_year"] <= 0:
            parser.error("--periods-per-year must be positive")
    if command == "option-analytics" and opts["hv_window"] is not None \
            and opts["hv_window"] < 2:
        parser.error("--hv-window must be >= 2")
    return opts


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def provenance_lines(command: str, opts: dict) -> list[str]:
    keys = [o.name for o in OPTIONS[command] if o.name not in PATH_OPTIONS]
    blob = ";".join(f"{k}={_format_value(opts[k])}" for k in keys)
    config_hash = hashlib.sha256(blob.encode()).hexdigest()[:16]
    seed = _format_value(opts.get("seed"))
    return [f"#config_hash={config_hash}", f"#seed={seed}", f"#version={__version__}"]


def _header(blocks: table.Blocks, path, kind: str, required: tuple[str, ...]) -> list[str]:
    """The header of a curve or quote table; an empty file or a missing column is an error."""
    header = blocks.header
    if header is None:
        raise FormatError(f"{blocks.path}: empty file")
    missing = [c for c in required if c not in header]
    if missing:
        raise FormatError(f"{path}: {kind} file lacks column(s) {missing}")
    return header


def _read_columns(path, required: tuple[str, ...], floats: tuple[str, ...]):
    """Header, cells and the ``floats`` columns of a curve table."""

    def parse(blocks: table.Blocks):
        header = _header(blocks, path, "curve", required)
        cells = np.concatenate([np.empty((0, len(header)), dtype=object), *blocks])
        if not blocks.n_rows:
            raise FormatError(f"{path}: curve file has no rows")
        at = [header.index(c) for c in floats]
        dtypes = [float if j in at else None for j in range(len(header))]
        columns, bad = table.typed(cells, dtypes)
        if bad:
            raise FormatError(f"{path}: row {bad[0] + 2}: bad value in column {header[bad[1]]!r}")
        return header, cells, [columns[j] for j in at]

    return table.read_blocks(path, parse)


def cmd_preprocess(opts: dict) -> None:
    panel = load_csv(opts["input"])
    transformed, records = transform_panel(panel, baseline=opts["baseline"])
    stamp = provenance_lines("preprocess", opts)
    write_csv(transformed, opts["output"], header_comments=stamp)
    write_anchor_file(opts["anchors"], records, header_comments=stamp)


def cmd_split(opts: dict) -> None:
    panel = load_csv(opts["input"])
    spec = SplitSpec(opts["train"], opts["val"], opts["test"])
    train, val, test = chronological_split(panel, spec)
    stamp = provenance_lines("split", opts)
    out_dir = Path(opts["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", train), ("val", val), ("test", test)):
        write_csv(part, out_dir / f"{name}.csv", header_comments=stamp)


def cmd_naive_forecast(opts: dict) -> None:
    panel = load_csv(opts["input"])
    targets = opts["target_vars"]
    task = opts["task"]
    n_all = panel.n_vars
    n_targets = len(targets) if targets else n_all
    if task == "m2m" and n_targets != n_all:
        raise SignalError(
            f"task m2m needs no --target-vars or all {n_all} variables, got {n_targets}"
        )
    if task == "m2s" and n_targets != 1:
        raise SignalError(f"task m2s needs exactly one target variable, got {n_targets}")
    if task == "m2p" and not 1 <= n_targets < n_all:
        raise SignalError(
            f"task m2p needs a proper subset of the {n_all} variables, got {n_targets}"
        )
    windows = sliding_windows(panel, WindowSpec(opts["input_len"], opts["horizon"], targets))
    block = forecast.naive_blocks(windows, opts["horizon"], opts["noise_std"],
                                  derive_seed(opts["seed"], "naive-forecast"),
                                  not opts["shared_noise"])
    # Drawn, formatted and written a block at a time: no (B, H, C) array is held.
    forecast._write_blocks(opts["output"], range(len(windows)), windows.target_vars,
                           opts["horizon"], block, opts["input_len"], "naive",
                           provenance_lines("naive-forecast", opts))


def _windows_for_forecast_file(forecast_path):
    meta = read_metadata(forecast_path)
    if "L" not in meta or "H" not in meta:
        raise FormatError(f"{forecast_path}: forecast file lacks #L/#H headers")
    targets = meta.get("variables", ())
    return WindowSpec(meta["L"], meta["H"], tuple(targets))


def cmd_evaluate(opts: dict) -> None:
    panel = load_csv(opts["truth"])
    spec = _windows_for_forecast_file(opts["forecasts"])
    windows = sliding_windows(panel, spec)
    batch = load_forecasts(opts["forecasts"], windows)
    rows = []
    try:
        per_sample = metrics.per_sample_ic(batch, opts["method"])  # once for msic and msir
        rows.append(("msic", repr(float(per_sample.mean()))))
        rows.append(("msir", repr(metrics._ir(per_sample))))
    except DegenerateDispersionError:
        rows.append(("msir", "NA"))
    except MetricError:
        # horizon of 1: correlation metrics are undefined
        rows.append(("msic", "NA"))
        rows.append(("msir", "NA"))
    # Last: the differences overwrite the predictions, which nothing reads after.
    squared, absolute = metrics.errors(batch, out=batch.y_pred)
    rows[:0] = [("mse", repr(squared)), ("mae", repr(absolute))]
    lines = provenance_lines("evaluate", opts) + ["metric,value"]
    lines.extend(f"{name},{value}" for name, value in rows)
    table.write_lines(opts["output"], lines)


def cmd_backtest(opts: dict) -> None:
    panel = load_csv(opts["panel"])
    records = {r.variable: r for r in load_anchor_file(opts["anchors"])}
    spec = _windows_for_forecast_file(opts["forecasts"])
    windows = sliding_windows(panel, spec)
    batch = load_forecasts(opts["forecasts"], windows)
    gaps = np.flatnonzero(np.diff(batch.sample_order) != 1)
    if gaps.size:
        before, after = batch.sample_order[gaps[0] : gaps[0] + 2]
        raise AlignError(
            f"{opts['forecasts']}: sample ids jump from {before} to {after}; "
            f"backtest needs every sample id between the first and the last"
        )

    signal = difference_signal(batch)
    dd = diff_in_diff(signal, opts["window"])

    for var in signal.variables:
        rec = records.get(var)
        if rec is None:
            raise StrategyError(f"anchor file has no record for variable {var!r}")
        if rec.kind != "price":
            raise StrategyError(f"variable {var!r} is {rec.kind}, not a tradeable price")
    raw_prices = np.column_stack(
        [inverse_price_transform(panel.column(v), records[v].state()) for v in signal.variables]
    )
    raw_panel = Panel(panel.timestamps, signal.variables, raw_prices)

    origin_rows = windows.origin_indices[batch.sample_order][opts["window"] - 1 :]
    returns = forward_returns(raw_panel, signal.variables, origin_rows)

    strategy = opts["strategy"]
    if strategy == "topk":
        positions = portfolio_topk(dd, opts["k"], opts["rebalance"])
        traded_returns = returns
    else:
        target = opts["target_var"]
        if target not in dd.variables:
            raise SignalError(f"no target variable {target!r} among forecast variables")
        dd_one = dd.select([target])
        traded_returns = returns.select([target])
        if strategy == "timing":
            positions = timing_positions(dd_one, opts["rebalance"])
        else:
            positions = long_short_positions(dd_one, opts["rebalance"])
    curve = equity_curve(positions, traded_returns)

    lines = provenance_lines("backtest", opts)
    lines.append("timestamp,net_value,period_return,position")
    if strategy == "topk":
        held = ["|".join(a for a, w in zip(positions.assets, row) if w > 0)
                for row in positions.weights.tolist()]
    else:
        held = list(map(repr, positions.weights[:, 0].tolist()))
    lines.extend(
        f"{label},{net!r},{ret!r},{position}"
        for label, net, ret, position in zip(
            curve.timestamps, curve.net_values.tolist(), curve.period_returns.tolist(), held
        )
    )
    table.write_lines(opts["output"], lines)


def cmd_report(opts: dict) -> None:
    header, cells, (net, rets) = _read_columns(
        opts["input"], ("timestamp", "net_value", "period_return"),
        ("net_value", "period_return"),
    )
    timestamps = tuple(label.strip() for label in cells[:, header.index("timestamp")])
    curve = EquityCurve(timestamps, rets)
    off = np.flatnonzero(~np.isclose(net, curve.net_values, rtol=1e-9, atol=0.0))
    if off.size:
        i = off[0]
        raise FormatError(
            f"{opts['input']}: row {i + 2}: net_value {float(net[i])!r} is not the running "
            f"product of period_return (expected {float(curve.net_values[i])!r})"
        )
    report = full_report(curve, opts["periods_per_year"], opts["risk_free"])
    lines = provenance_lines("report", opts) + ["metric,value"]
    for name, value in report.rows():
        lines.append(f"{name},{'NA' if value is None else repr(float(value))}")
    table.write_lines(opts["output"], lines)


def cmd_option_analytics(opts: dict) -> None:
    with table.replacing(opts["output"]) as out:
        table.read_blocks(opts["input"], lambda blocks: _analytics(blocks, opts, out))


def _analytics(blocks: table.Blocks, opts: dict, out) -> None:
    """Solve, format and write the quotes of ``blocks``, range by range and block by block.

    ``Blocks.map`` runs ``part`` on each range of a big body, in a forked
    worker for all but the first: it casts, solves and formats a block's
    quotes, all but their ``hv`` cells. The parent takes the blocks in file
    order and carries the last ``--hv-window`` prices from block to block,
    so each ``hv`` cell is the one ``historical_vol`` gives over the whole
    series.

    Errors come in file order: a block's first bad cell (in the five float
    columns or the ``--hv-source`` column) is raised once the quotes above
    it are solved, a quote's pricing error at its row, and a non-positive
    ``hv`` price once its block is solved.
    """
    path, window, source = opts["input"], opts["hv_window"], opts["hv_source"]
    header = _header(blocks, path, "quote",
                     ("timestamp", "spot", "strike", "rate", "expiry", "kind", "market_price"))
    if window is not None and source not in header:
        raise FormatError(f"{path}: no hv source column {source!r}")
    at = [header.index(c) for c in ("spot", "strike", "rate", "expiry", "market_price")]
    kind = header.index("kind")
    hv_at = None if window is None else header.index(source)
    dtypes = [float if j in at or j == hv_at else None for j in range(len(header))]
    out_header = header + ["iv", "delta", "theta", "gamma", "vega", "rho"]
    if window is not None:
        out_header.append("hv")
    lines = provenance_lines("option-analytics", opts) + [",".join(table.quote(out_header))]
    out.seek(0)
    out.truncate()  # a body that is not plain is read again, in one range, into the same file
    out.write(("\n".join(lines) + "\n").encode())

    def part(cell_blocks):  # one range's rows without hv, and hv prices, up to its first error
        for cells in cell_blocks:
            columns, bad = table.typed(cells, dtypes)
            spot, strike, rate, expiry, price = (columns[j] for j in at)
            extended = np.empty((len(spot), 6))
            kinds = (k.strip().lower() for k in cells[:, kind])
            # Python floats, not numpy scalars: the solver's scalar arithmetic is faster on them.
            fields = zip(map(float, spot), map(float, strike), map(float, rate),
                         map(float, expiry), kinds, map(float, price))
            for i, row in enumerate(fields):
                try:
                    quote = OptionQuote(*row)
                    iv = implied_vol(quote)
                except ToolkitError as exc:
                    return i, type(exc), str(exc)
                extended[i] = (iv, *greeks(quote, iv))
            if bad:
                return bad[0], FormatError, f"bad value in column {header[bad[1]]!r}"
            yield _analytics_rows(cells, extended), None if hv_at is None else columns[hv_at]

    done, prices = 0, np.empty(0)  # rows written, and the last ``window`` hv prices
    for rows in blocks.map(part):
        for text, hv_prices in rows:
            if window is not None:
                hv, prices = _hv_cells(path, window, done, prices, hv_prices)
                text = list(map(",".join, zip(text, hv)))
            out.write(("\n".join(text) + "\n").encode())
            done += len(text)
        if rows.tail:  # the block's rows above its error are not written
            i, error, message = rows.tail
            raise error(f"{path}: row {done + i + 2}: {message}")
    if not blocks.n_rows:
        raise FormatError(f"{path}: quote file has no rows")
    if window is not None and done <= window and not blocks.ended:  # its error comes first
        raise WindowError(f"{path}: need at least {window + 1} prices, got {done}")


def _hv_cells(path, window: int, done: int, before: np.ndarray,
              prices: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ``hv`` cells of a block's ``prices``, and the last ``window`` prices so far.

    ``before`` holds the last ``window`` prices of the ``done`` rows above
    (all of them, when fewer). A row that no full window ends on gets a
    blank cell. Once the series holds ``window`` + 1 prices, a price that is
    not positive raises, naming the first such row.
    """
    series = np.concatenate([before, prices])
    ends = len(series) - window + 1  # windows ending on a price of ``series``
    if ends > 1:
        if series.min() <= 0:
            # Any earlier non-positive price would have raised already: this is the file's first.
            row = done - len(before) + int(np.argmax(series <= 0)) + 2
            raise PricingError(f"{path}: row {row}: prices must be positive and finite")
        values = historical_vol(series, window)[-len(prices):]
    elif ends == 1 and series.min() > 0:
        # historical_vol needs two windows: a repeated last price adds one after the first.
        values = historical_vol(np.append(series, series[-1]), window)[:1]
    else:  # no window yet, or a price that raises once the series is long enough
        values = np.empty(0)
    cells = [""] * (len(prices) - len(values)) + list(map(repr, values.tolist()))
    return cells, series[-window:]


def _analytics_rows(cells: np.ndarray, extended: np.ndarray) -> list[str]:
    """The ``analytics.csv`` rows of a block of quote ``cells``, but their ``hv`` cells,
    formatted a column at a time.

    Echoed cells are stripped; a first cell such as `` #a`` is echoed as
    read, since stripped it would start a comment row.
    """
    first, *rest = cells.T
    columns = [table.quote([c if c.lstrip().startswith("#") else c.strip() for c in first])]
    columns += [table.quote(list(map(str.strip, column))) for column in rest]
    columns += [list(map(repr, column)) for column in extended.T.tolist()]
    return list(map(",".join, zip(*columns)))


COMMANDS = {
    "preprocess": cmd_preprocess,
    "split": cmd_split,
    "naive-forecast": cmd_naive_forecast,
    "evaluate": cmd_evaluate,
    "backtest": cmd_backtest,
    "report": cmd_report,
    "option-analytics": cmd_option_analytics,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    namespace = parser.parse_args(argv)
    if namespace.config is not None:
        # Config lines go between the command name and the user's flags, so a flag wins.
        at = argv.index(namespace.command) + 1
        extra = _config_args(parser, namespace.command, namespace.config)
        namespace = parser.parse_args(argv[:at] + extra + argv[at:])
    opts = resolve_options(parser, namespace)
    try:
        COMMANDS[namespace.command](opts)
    except ToolkitError as exc:
        print(f"finpipe {namespace.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
