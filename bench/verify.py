"""Output checks that share no code with ``finpipe``.

Each check re-derives what a stage should have written from the generated
arrays (``workload.py``) or from the stage's own input files, using a CSV
reader, ranker, Black-Scholes pricer and statistics written here, and
returns a list of problems (empty when the artefact is right). The
definitions follow the project README. ``tests/oracle_utils.py`` is only
used to spot-check this module's rank correlation.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np

import workload as wl

PPY = 252.0  # daily annualisation, the report default
REPORT_FIELDS = ("annual_return", "cumulative_return", "annual_volatility", "sharpe",
                 "calmar", "stability", "max_drawdown", "omega", "sortino")
# Tolerances, each stated once.
TRANSFORM_ULPS = 4          # transformed panel vs ln(p/p0)+100 and ln1p(v)
INVERSE_REL = 1e-9          # recovered raw prices (paper's round-trip bound)
NOISE_SE = 5.0              # |mean(pred - last)| within this many standard errors
NOISE_STD_REL = 0.01        # std(pred - last) within 1% of the noise std
NOISE_MAX_SIGMAS = 8.0      # no single prediction further than this from the last value
METRIC_REL, METRIC_ABS = 1e-9, 1e-12
ORACLE_PAIRS, ORACLE_ABS = 64, 1e-12
AMBIGUOUS_TRIGGER = 1e-12   # a trigger this close to 0 (or to a tie) may go either way
RETURN_ABS, NET_REL = 1e-12, 1e-9
STAT_REL, STAT_ABS = 1e-9, 1e-12
PRICE_TOL_SCALE = 1e-10     # |bs(iv) - market| < 1e-10 * spot
IV_ABS, IV_INFO_LIMIT = 1e-6, 1e-7
GREEK_REL = 1e-9
HV_REL = 1e-10


# ---------------------------------------------------------------- reading

def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a comma-separated file; ``#`` lines skipped."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def comments(path: Path) -> dict[str, str]:
    out = {}
    for ln in Path(path).read_text(encoding="utf-8").splitlines():
        if not ln.startswith("#"):
            break
        key, _, value = ln[1:].partition("=")
        out[key] = value
    return out


def read_panel(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    header, rows = read_table(path)
    values = np.array([[float(c) for c in row[1:]] for row in rows])
    return [row[0] for row in rows], header[1:], values.reshape(len(rows), len(header) - 1)


def read_forecasts(path: Path, n_samples: int, horizon: int,
                   variables: tuple[str, ...]) -> tuple[np.ndarray | None, list[str]]:
    """(n_samples, horizon, n_vars) predictions and any grid problems."""
    header, rows = read_table(path)
    problems = []
    if header != ["sample_id", "step", "variable", "y_pred"]:
        return None, [f"forecast header is {header}"]
    if any(len(r) != 4 for r in rows):
        return None, ["forecast row without exactly 4 fields"]
    var_index = {v: j for j, v in enumerate(variables)}
    c = len(variables)
    sample = np.array([int(r[0]) for r in rows])
    step = np.array([int(r[1]) for r in rows])
    var = np.array([var_index.get(r[2], -1) for r in rows])
    value = np.array([float(r[3]) for r in rows])
    bad = (sample < 0) | (sample >= n_samples) | (step < 1) | (step > horizon) | (var < 0)
    if bad.any():
        return None, [f"{int(bad.sum())} record(s) outside the sample/step/variable grid"]
    key = (sample * horizon + step - 1) * c + var
    hits = np.bincount(key, minlength=n_samples * horizon * c)
    if (hits > 1).any():
        problems.append(f"{int((hits > 1).sum())} duplicated (sample, step, variable) keys")
    if (hits == 0).any():
        problems.append(f"{int((hits == 0).sum())} missing (sample, step, variable) keys")
    y_pred = np.full(n_samples * horizon * c, np.nan)
    y_pred[key] = value
    return y_pred.reshape(n_samples, horizon, c), problems


def load_oracle(root: Path):
    """The test suite's brute-force oracles, loaded from ``tests/oracle_utils.py``."""
    spec = importlib.util.spec_from_file_location("oracle_utils", root / "tests" / "oracle_utils.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _close(a: float, b: float, rel: float, abs_: float) -> bool:
    return abs(a - b) <= rel * abs(b) + abs_


def _first_mismatch(ok: np.ndarray) -> str:
    idx = np.argwhere(~ok)[0]
    return ",".join(str(int(i)) for i in idx)


# ------------------------------------------------------------ preprocess

def expected_transform(panel: wl.PanelData) -> np.ndarray:
    out = np.empty_like(panel.values)
    for j, name in enumerate(panel.names):
        field, asset = name.rsplit("_", 1)
        col = panel.values[:, j]
        if field == "volume":
            out[:, j] = np.log1p(col)
        else:
            first_close = panel.values[0, panel.names.index(f"close_{asset}")]
            out[:, j] = np.log(col / first_close) + 100.0
    return out


def check_preprocess(workdir: Path, panel: wl.PanelData) -> list[str]:
    labels, names, z = read_panel(workdir / "transformed.csv")
    problems = []
    if tuple(names) != panel.names or labels != [str(x) for x in panel.labels]:
        return ["transformed panel has other columns or timestamps than the raw panel"]
    expected = expected_transform(panel)
    ok = np.abs(z - expected) <= TRANSFORM_ULPS * np.spacing(np.abs(expected))
    if not ok.all():
        problems.append(f"{int((~ok).sum())} transformed cell(s) differ from ln(p/p0)+100 "
                        f"or ln1p(v), first at row,col {_first_mismatch(ok)}")
    header, rows = read_table(workdir / "anchors.csv")
    anchors = {r[0]: r for r in rows}
    for j, name in enumerate(panel.names):
        field, asset = name.rsplit("_", 1)
        rec = anchors.get(name)
        kind = "volume" if field == "volume" else "price"
        if rec is None or rec[1] != kind or rec[2] != asset or float(rec[4]) != 100.0:
            problems.append(f"anchor record of {name} is {rec}")
            continue
        col = z[:, j]
        if kind == "volume":
            back = np.expm1(col)
            raw = panel.values[:, j]
            if rec[3] != "" or not (np.abs(back - raw) <= INVERSE_REL * np.maximum(raw, 1.0)).all():
                problems.append(f"volume column {name} does not invert")
            continue
        first_close = panel.values[0, panel.names.index(f"close_{asset}")]
        if float(rec[3]) != first_close:
            problems.append(f"anchor of {name} is {rec[3]}, first close is {first_close!r}")
        back = float(rec[3]) * np.exp(col - 100.0)
        rel = np.abs(back / panel.values[:, j] - 1.0)
        if not (rel <= INVERSE_REL).all():
            problems.append(f"{name} inverts with relative error {rel.max():.3e}")
    return problems


def check_split(workdir: Path, n_rows: int) -> list[str]:
    sizes = wl.split_sizes(n_rows)
    if n_rows == wl.PAPER.rows and sizes != wl.PAPER_SPLIT:
        return [f"split rule gives {sizes} for {n_rows} rows"]
    header, rows = read_table(workdir / "transformed.csv")
    parts = [read_table(workdir / "splits" / f"{name}.csv") for name in ("train", "val", "test")]
    problems = []
    got = tuple(len(p[1]) for p in parts)
    if got != sizes:
        problems.append(f"split sizes {got}, expected {sizes}")
    if any(p[0] != header for p in parts):
        problems.append("a split file has another header than the panel")
    if [r for p in parts for r in p[1]] != rows:
        problems.append("train+val+test rows are not the panel rows in order")
    return problems


# --------------------------------------------------------------- forecast

def forecast_variables(workload: str, panel: wl.PanelData) -> tuple[str, ...]:
    return panel.names if workload == "m2m_eval" else wl.CLOSES


def check_forecast(workdir: Path, workload: str, panel: wl.PanelData, scale: wl.Scale,
                   z: np.ndarray, y_pred: np.ndarray | None, grid: list[str]) -> list[str]:
    variables = forecast_variables(workload, panel)
    meta = comments(workdir / "forecasts.csv")
    problems = list(grid)
    if (meta.get("L"), meta.get("H"), meta.get("variables")) != (
            str(scale.input_len), str(scale.horizon), ",".join(variables)):
        problems.append(f"forecast header L/H/variables is {meta}")
    if y_pred is None or grid:
        return problems
    cols = [panel.names.index(v) for v in variables]
    last = z[scale.input_len - 1: scale.input_len - 1 + y_pred.shape[0]][:, cols]
    dev = (y_pred - last[:, None, :]).ravel()
    mean, std = float(dev.mean()), float(dev.std())
    if abs(mean) > NOISE_SE * wl.NOISE_STD / math.sqrt(dev.size):
        problems.append(f"prediction minus last value has mean {mean:.3e} over {dev.size} records")
    if abs(std / wl.NOISE_STD - 1.0) > NOISE_STD_REL:
        problems.append(f"prediction minus last value has std {std:.6e}, expected {wl.NOISE_STD}")
    if np.abs(dev).max() > NOISE_MAX_SIGMAS * wl.NOISE_STD:
        problems.append(f"a prediction is {np.abs(dev).max():.3e} from the last value")
    return problems


# --------------------------------------------------------------- evaluate

def average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..F along axis 1 with ties averaged, by pairwise counting."""
    a = x[:, :, None, :]
    b = x[:, None, :, :]
    below = (b < a).sum(axis=2)
    ties = (b == a).sum(axis=2)
    return below + (ties + 1) / 2.0


def pair_correlations(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """(B, C) Spearman correlation along the horizon; constant pairs give 0."""
    a, b = average_ranks(y_true), average_ranks(y_pred)
    da = a - a.mean(axis=1, keepdims=True)
    db = b - b.mean(axis=1, keepdims=True)
    var = (da * da).mean(axis=1) * (db * db).mean(axis=1)
    cov = (da * db).mean(axis=1)
    out = np.zeros_like(cov)
    np.divide(cov, np.sqrt(var), out=out, where=var > 0)
    return out


def check_evaluate(workdir: Path, scale: wl.Scale, z: np.ndarray, y_pred: np.ndarray,
                   oracle, seed: int) -> list[str]:
    rows = np.arange(y_pred.shape[0])[:, None] + scale.input_len + np.arange(scale.horizon)
    y_true = z[rows]  # (samples, horizon, all 20 columns): the m2m truth windows
    diff = y_pred - y_true
    rho = pair_correlations(y_true, y_pred)
    per_sample = rho.mean(axis=1)
    ms_ic = float(per_sample.mean())
    ms_ir = ms_ic / float(np.sqrt(np.mean((per_sample - ms_ic) ** 2)))
    expected = {"mse": float(np.mean(diff * diff)), "mae": float(np.mean(np.abs(diff))),
                "msic": ms_ic, "msir": ms_ir}
    header, rows = read_table(workdir / "metrics.csv")
    got = {r[0]: r[1] for r in rows}
    problems = []
    if header != ["metric", "value"] or sorted(got) != sorted(expected):
        return [f"metrics file has header {header} and metrics {sorted(got)}"]
    for name, value in expected.items():
        if not _close(float(got[name]), value, METRIC_REL, METRIC_ABS):
            problems.append(f"{name} is {got[name]}, recomputed {value!r}")
    rng = np.random.default_rng(seed)
    for b, c in zip(rng.integers(0, rho.shape[0], ORACLE_PAIRS), rng.integers(0, rho.shape[1], ORACLE_PAIRS)):
        ref = oracle.spearman(y_true[b, :, c].tolist(), y_pred[b, :, c].tolist())
        if abs(ref - rho[b, c]) > ORACLE_ABS:
            problems.append(f"rank correlation of pair ({b}, {c}) is {rho[b, c]!r}, oracle {ref!r}")
    return problems


# --------------------------------------------------------------- backtest

def expected_curve(strategy: str, panel: wl.PanelData, scale: wl.Scale, z: np.ndarray,
                   y_pred: np.ndarray):
    """Labels, per-period weights (T, 4), ambiguity mask and returns of one strategy.

    Trigger: predicted horizon-end change minus its trailing 63-point mean;
    decisions on every 5th trigger row, held in between; each row earns the
    raw-price simple return from its origin to the next row.
    """
    n_samples = y_pred.shape[0]
    cols = [panel.names.index(v) for v in wl.CLOSES]
    origin = np.arange(n_samples) + scale.input_len - 1
    signal = y_pred[:, -1, :] - z[origin][:, cols]
    w = wl.TRIGGER_WINDOW
    csum = np.vstack([np.zeros((1, len(cols))), np.cumsum(signal, axis=0)])
    trigger = signal[w - 1:] - (csum[w:] - csum[:-w]) / w
    rows = origin[w - 1:]
    decided = (np.arange(len(rows)) // wl.REBALANCE) * wl.REBALANCE
    t = trigger[decided]
    weights = np.zeros_like(t)
    if strategy == "topk":
        order = sorted(range(len(wl.CLOSES)), key=lambda j: wl.CLOSES[j])
        srt = -np.sort(-t, axis=1)
        ambiguous = np.abs(srt[:, wl.TOPK - 1] - srt[:, wl.TOPK]) <= AMBIGUOUS_TRIGGER
        for i in range(len(t)):
            best = sorted(order, key=lambda j: -t[i, j])[: wl.TOPK]
            weights[i, best] = 1.0 / wl.TOPK
    else:
        j = wl.CLOSES.index(wl.TRADED)
        ambiguous = np.abs(t[:, j]) <= AMBIGUOUS_TRIGGER
        weights[:, j] = np.where(t[:, j] > 0, 1.0, 0.0 if strategy == "timing" else -1.0)
    prices = panel.values[:, cols]
    returns = prices[rows + 1] / prices[rows] - 1.0
    return [str(panel.labels[r]) for r in rows], weights, ambiguous, returns


def check_backtest(workdir: Path, strategy: str, panel: wl.PanelData, scale: wl.Scale,
                   z: np.ndarray, y_pred: np.ndarray) -> list[str]:
    labels, weights, ambiguous, returns = expected_curve(strategy, panel, scale, z, y_pred)
    header, rows = read_table(workdir / f"curve_{strategy}.csv")
    if header != ["timestamp", "net_value", "period_return", "position"]:
        return [f"curve header is {header}"]
    if [r[0] for r in rows] != labels:
        return [f"curve has {len(rows)} rows labelled {[r[0] for r in rows[:3]]}..., "
                f"expected {len(labels)} labelled {labels[:3]}..."]
    problems = []
    if strategy == "topk":
        held = [r[3].split("|") for r in rows]
        if any(len(set(h)) != wl.TOPK or len(h) != wl.TOPK for h in held):
            problems.append(f"a topk row does not hold exactly {wl.TOPK} assets")
            return problems
        got = np.zeros_like(weights)
        for i, h in enumerate(held):
            got[i, [wl.CLOSES.index(a) for a in h]] = 1.0 / wl.TOPK
    else:
        got = np.zeros_like(weights)
        got[:, wl.CLOSES.index(wl.TRADED)] = [float(r[3]) for r in rows]
    same = (got == weights).all(axis=1) | ambiguous
    if not same.all():
        problems.append(f"{int((~same).sum())} position(s) differ, first at {labels[int(np.argmin(same))]}")
        return problems
    period = (got * returns).sum(axis=1)
    net = np.cumprod(1.0 + period)
    written_period = np.array([float(r[2]) for r in rows])
    written_net = np.array([float(r[1]) for r in rows])
    if not (np.abs(written_period - period) <= RETURN_ABS).all():
        problems.append(f"period returns differ by up to {np.abs(written_period - period).max():.3e}")
    rel = np.abs(written_net / net - 1.0)
    if not (rel <= NET_REL).all():
        problems.append(f"net values differ by up to {rel.max():.3e} relative")
    return problems


# ----------------------------------------------------------------- report

def strategy_stats(returns: list[float], net: list[float]) -> dict[str, float | None]:
    """The nine README statistics; None where a statistic is undefined."""
    n = len(returns)
    growth = math.prod(1.0 + r for r in returns)
    annual = growth ** (PPY / n) - 1.0

    def std(xs):
        m = math.fsum(xs) / len(xs)
        return math.sqrt(math.fsum((x - m) ** 2 for x in xs) / (len(xs) - 1))

    vol = None if n < 2 else (0.0 if max(returns) == min(returns) else math.sqrt(PPY) * std(returns))
    path = [1.0] + net
    peak, mdd = path[0], 0.0
    for v in path:
        peak = max(peak, v)
        mdd = min(mdd, v / peak - 1.0)
    logs = [math.log(v) for v in path]
    stab = None
    if len(path) >= 3 and max(logs) != min(logs):
        tm = (len(logs) - 1) / 2.0
        ym = math.fsum(logs) / len(logs)
        stt = math.fsum((t - tm) ** 2 for t in range(len(logs)))
        syy = math.fsum((y - ym) ** 2 for y in logs)
        sty = math.fsum((t - tm) * (y - ym) for t, y in enumerate(logs))
        stab = min(max((sty / stt) ** 2 * stt / syy, 0.0), 1.0)
    gains = math.fsum(r for r in returns if r > 0)
    losses = -math.fsum(r for r in returns if r < 0)
    negative = [r for r in returns if r < 0]
    down = std(negative) * math.sqrt(PPY) if len(negative) >= 2 else 0.0
    return {
        "annual_return": annual,
        "cumulative_return": growth - 1.0,
        "annual_volatility": vol,
        "sharpe": annual / vol if vol else None,
        "calmar": annual / abs(mdd) if mdd < 0 else None,
        "stability": stab,
        "max_drawdown": mdd,
        "omega": gains / losses if losses > 0 else None,
        "sortino": annual / down if down > 0 else None,
    }


def check_report(workdir: Path, strategy: str) -> list[str]:
    _, curve = read_table(workdir / f"curve_{strategy}.csv")
    expected = strategy_stats([float(r[2]) for r in curve], [float(r[1]) for r in curve])
    header, rows = read_table(workdir / f"report_{strategy}.csv")
    if header != ["metric", "value"] or [r[0] for r in rows] != list(REPORT_FIELDS):
        return [f"report has header {header} and rows {[r[0] for r in rows]}"]
    problems = []
    for name, text in rows:
        want = expected[name]
        if want is None:
            if text != "NA":
                problems.append(f"{name} is {text}, expected NA")
        elif text == "NA" or not _close(float(text), want, STAT_REL, STAT_ABS):
            problems.append(f"{name} is {text}, recomputed {want!r}")
    return problems


# ---------------------------------------------------------------- options

def greeks(spot, strike, rate, expiry, sigma, kind) -> tuple[float, ...]:
    """(delta, theta, gamma, vega, rho) from the closed forms, via ``math.erfc``."""
    sqrt_t = math.sqrt(expiry)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * expiry) / (sigma * sqrt_t)
    d2 = d1 - sigma * sqrt_t
    pdf = math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
    disc = math.exp(-rate * expiry)
    gamma = pdf / (spot * sigma * sqrt_t)
    vega = spot * sqrt_t * pdf
    decay = -spot * pdf * sigma / (2.0 * sqrt_t)
    if kind == "call":
        n2 = wl.norm_cdf(d2)
        return (wl.norm_cdf(d1), decay - rate * strike * disc * n2, gamma, vega,
                strike * expiry * disc * n2)
    n2 = wl.norm_cdf(-d2)
    return (wl.norm_cdf(d1) - 1.0, decay + rate * strike * disc * n2, gamma, vega,
            -strike * expiry * disc * n2)


def historical_vol(prices: list[float], window: int) -> list[float]:
    rets = [math.log(prices[i] / prices[i - 1]) for i in range(1, len(prices))]
    out = []
    for end in range(window - 1, len(prices)):
        chunk = rets[end - window + 1: end]
        mean = math.fsum(chunk) / len(chunk)
        out.append(math.sqrt(math.fsum((r - mean) ** 2 for r in chunk) / (window - 1)))
    return out


def check_options(workdir: Path, book: wl.QuoteBook) -> tuple[list[str], int]:
    """Problems, plus the count of quotes at the float64 information limit."""
    in_header, in_rows = read_table(workdir / "quotes.csv")
    header, rows = read_table(workdir / "analytics.csv")
    if header != in_header + ["iv", "delta", "theta", "gamma", "vega", "rho", "hv"]:
        return [f"analytics header is {header}"], 0
    if len(rows) != len(in_rows):
        return [f"analytics has {len(rows)} rows for {len(in_rows)} quotes"], 0
    problems, limited = [], 0
    hv = historical_vol(book.spot.tolist(), wl.HV_WINDOW)
    for i, row in enumerate(rows):
        if row[:7] != in_rows[i]:
            problems.append(f"row {i}: input cells changed")
            continue
        s, k, r, t = (float(book.spot[i]), float(book.strike[i]),
                      float(book.rate[i]), float(book.expiry[i]))
        kind, price, sigma = book.kind[i], float(book.price[i]), float(book.sigma[i])
        iv = float(row[7])
        if not abs(wl.bs_price(s, k, r, t, iv, kind) - price) < PRICE_TOL_SCALE * s:
            problems.append(f"row {i}: price at iv {iv!r} misses the quote by more than 1e-10*spot")
        true_vega = greeks(s, k, r, t, sigma, kind)[3]
        if true_vega > 0 and math.ulp(price) / true_vega <= IV_INFO_LIMIT:
            if abs(iv - sigma) > IV_ABS:
                problems.append(f"row {i}: iv {iv!r} vs generating sigma {sigma!r}")
        else:
            limited += 1
        want = greeks(s, k, r, t, iv, kind)
        floors = (1e-12, 1e-12 * s, 0.0, 0.0, 1e-12 * k * t)
        for name, text, w, floor in zip(("delta", "theta", "gamma", "vega", "rho"),
                                         row[8:13], want, floors):
            if not _close(float(text), w, GREEK_REL, floor):
                problems.append(f"row {i}: {name} is {text}, recomputed {w!r}")
        hv_text = row[13] if len(row) > 13 else ""
        if i < wl.HV_WINDOW - 1:
            if hv_text != "":
                problems.append(f"row {i}: hv {hv_text!r} before the first full window")
        elif hv_text == "" or not _close(float(hv_text), hv[i - wl.HV_WINDOW + 1], HV_REL, 0.0):
            problems.append(f"row {i}: hv is {hv_text!r}, recomputed {hv[i - wl.HV_WINDOW + 1]!r}")
        if len(problems) > 20:
            break
    return problems, limited


# --------------------------------------------------------------- one pass

def check_pass(workload: str, seed: int, scale: wl.Scale, workdir: Path, root: Path) -> dict:
    """Problems per stage label for one pass's artefacts, plus diagnostics."""
    labels = [label for label, _, _ in wl.stages(workload, seed, scale)]
    problems: dict[str, list[str]] = {label: [] for label in labels}
    info: dict = {}
    if workload == "option_book":
        book = wl.make_quotes(workload, seed, scale)
        problems["option-analytics"], info["iv_at_information_limit"] = check_options(workdir, book)
        return {"problems": problems, "info": info}
    panel = wl.make_panel(workload, seed, scale)
    problems["preprocess"] = check_preprocess(workdir, panel)
    if problems["preprocess"]:
        for label in labels[1:]:
            problems[label] = ["not checked: the transformed panel is wrong"]
        return {"problems": problems, "info": info}
    _, _, z = read_panel(workdir / "transformed.csv")
    n_samples = scale.rows - scale.input_len - scale.horizon + 1
    y_pred, grid = read_forecasts(workdir / "forecasts.csv", n_samples, scale.horizon,
                                  forecast_variables(workload, panel))
    problems["naive-forecast"] = check_forecast(workdir, workload, panel, scale, z, y_pred, grid)
    if workload == "m2m_eval":
        problems["split"] = check_split(workdir, scale.rows)
    downstream = labels[labels.index("naive-forecast") + 1:]
    if y_pred is None or grid:
        for label in downstream:
            problems[label] = ["not checked: the forecast file is unusable"]
    elif workload == "m2m_eval":
        problems["evaluate"] = check_evaluate(workdir, scale, z, y_pred, load_oracle(root), seed)
    else:
        for strategy in wl.STRATEGIES:
            problems[f"backtest:{strategy}"] = check_backtest(workdir, strategy, panel, scale, z, y_pred)
            problems[f"report:{strategy}"] = check_report(workdir, strategy)
    return {"problems": problems, "info": info}
