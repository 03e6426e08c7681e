"""Seeded inputs and stage command lines for the three benchmark workloads.

Everything here is plain numpy and ``math``; nothing imports ``finpipe``.
The same (workload, seed, scale) always gives byte-identical input files,
so the output checks can regenerate the arrays instead of storing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

WORKLOADS = ("m2m_eval", "close_backtest", "option_book")
ASSETS = ("SPX", "NDX", "DJI", "RUT")
FIELDS = ("open", "high", "low", "close", "volume")
START_PRICES = (1400.0, 3800.0, 11000.0, 480.0)
CLOSES = tuple(f"close_{a}" for a in ASSETS)
TRADED = "close_SPX"
TOPK = 2
TRIGGER_WINDOW = 63
REBALANCE = 5
HV_WINDOW = 21
NOISE_STD = 0.001
STRATEGIES = ("timing", "longshort", "topk")


@dataclass(frozen=True)
class Scale:
    rows: int
    input_len: int
    horizon: int
    quotes: int


PAPER = Scale(rows=6533, input_len=512, horizon=5, quotes=20000)
# 6533 rows at 0.7/0.1/0.2, train and test floored (the paper's partition).
PAPER_SPLIT = (4573, 654, 1306)


def split_sizes(n_rows: int) -> tuple[int, int, int]:
    n_train = math.floor(n_rows * 0.7)
    n_test = math.floor(n_rows * 0.2)
    return n_train, n_rows - n_train - n_test, n_test


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def business_days(n: int, start: date = date(2000, 1, 3)) -> list[str]:
    """ISO-8601 labels of ``n`` consecutive Monday-to-Friday dates."""
    out, day = [], start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day.isoformat())
        day += timedelta(days=1)
    return out


@dataclass(frozen=True)
class PanelData:
    labels: list
    names: tuple[str, ...]
    values: np.ndarray  # (rows, 20) raw prices and volumes


def make_panel(workload: str, seed: int, scale: Scale) -> PanelData:
    """Four assets x OHLCV random walks with high >= open/close >= low."""
    rng = _rng(workload, seed)
    n = scale.rows
    columns, names = [], []
    for asset, start in zip(ASSETS, START_PRICES):
        close = start * np.exp(np.cumsum(rng.normal(0.0, 0.01, n)))
        prev = np.concatenate(([start], close[:-1]))
        open_ = prev * np.exp(rng.normal(0.0, 0.003, n))
        high = np.maximum(open_, close) * np.exp(np.abs(rng.normal(0.0, 0.004, n)))
        low = np.minimum(open_, close) * np.exp(-np.abs(rng.normal(0.0, 0.004, n)))
        volume = np.round(np.exp(rng.normal(12.0, 1.0, n)))
        volume[rng.random(n) < 0.02] = 0.0
        for field, col in zip(FIELDS, (open_, high, low, close, volume)):
            names.append(f"{field}_{asset}")
            columns.append(col)
    labels = business_days(n) if workload == "close_backtest" else list(range(n))
    return PanelData(labels, tuple(names), np.column_stack(columns))


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_price(spot, strike, rate, expiry, sigma, kind) -> float:
    """Black-Scholes price through ``math.erfc``, evaluated on the tails.

    For d2 >= 0 the call is intrinsic value plus two small tail terms, so
    deep in-the-money prices keep their extrinsic digits; puts follow from
    the same terms by parity.
    """
    sst = sigma * math.sqrt(expiry)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * expiry) / sst
    d2 = d1 - sst
    disc_strike = strike * math.exp(-rate * expiry)
    if d2 >= 0:
        tails = disc_strike * norm_cdf(-d2) - spot * norm_cdf(-d1)
        call, put = (spot - disc_strike) + tails, tails
    else:
        body = spot * norm_cdf(d1) - disc_strike * norm_cdf(d2)
        call, put = body, (disc_strike - spot) + body
    return call if kind == "call" else put


def arbitrage_bounds(spot, strike, rate, expiry, kind) -> tuple[float, float]:
    disc_strike = strike * math.exp(-rate * expiry)
    if kind == "call":
        return max(spot - disc_strike, 0.0), spot
    return max(disc_strike - spot, 0.0), disc_strike


@dataclass(frozen=True)
class QuoteBook:
    spot: np.ndarray
    strike: np.ndarray
    rate: np.ndarray
    expiry: np.ndarray
    sigma: np.ndarray
    kind: tuple[str, ...]
    price: np.ndarray
    redrawn: int  # draws whose price fell on a no-arbitrage bound


def make_quotes(workload: str, seed: int, scale: Scale) -> QuoteBook:
    """Spot from a random walk; strike, expiry, vol and rate drawn uniformly.

    A draw whose float64 price is not strictly inside the no-arbitrage
    range has no implied vol, so its strike, expiry, vol and rate are drawn
    again; the count of such redraws is kept. Nothing else is filtered.
    """
    rng = _rng(workload, seed)
    n = scale.quotes
    spot = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, n)))
    kinds = np.array(["call"] * (n // 2) + ["put"] * (n - n // 2))
    rng.shuffle(kinds)
    strike, rate, expiry, sigma, price = (np.empty(n) for _ in range(5))
    redrawn = 0
    for i in range(n):
        s = float(spot[i])
        while True:
            k = s * rng.uniform(0.7, 1.3)
            t = rng.uniform(0.05, 2.0)
            vol = rng.uniform(0.05, 1.0)
            r = rng.uniform(0.0, 0.06)
            p = bs_price(s, k, r, t, vol, kinds[i])
            lower, upper = arbitrage_bounds(s, k, r, t, kinds[i])
            if lower < p < upper:
                break
            redrawn += 1
        strike[i], rate[i], expiry[i], sigma[i], price[i] = k, r, t, vol, p
    return QuoteBook(spot, strike, rate, expiry, sigma, tuple(kinds.tolist()), price, redrawn)


def write_inputs(workload: str, seed: int, scale: Scale, workdir: Path) -> dict:
    """Write the workload's input files into ``workdir``; return a summary."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "option_book":
        book = make_quotes(workload, seed, scale)
        lines = ["timestamp,spot,strike,rate,expiry,kind,market_price"]
        for i in range(scale.quotes):
            lines.append(
                f"{i},{float(book.spot[i])!r},{float(book.strike[i])!r},{float(book.rate[i])!r},"
                f"{float(book.expiry[i])!r},{book.kind[i]},{float(book.price[i])!r}"
            )
        (workdir / "quotes.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {"quotes": scale.quotes, "redrawn_quotes": book.redrawn}
    panel = make_panel(workload, seed, scale)
    lines = [",".join(("timestamp", *panel.names))]
    for label, row in zip(panel.labels, panel.values.tolist()):
        lines.append(",".join([str(label), *map(repr, row)]))
    (workdir / "raw.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"rows": scale.rows, "columns": len(panel.names)}


def stages(workload: str, seed: int, scale: Scale) -> list[tuple[str, list[str], list[str]]]:
    """(label, argv, files written) of one pass, in order; paths relative to the workdir."""
    if workload == "option_book":
        return [("option-analytics", [
            "option-analytics", "--input", "quotes.csv", "--output", "analytics.csv",
            "--hv-window", str(HV_WINDOW), "--hv-source", "spot"], ["analytics.csv"])]
    pre = ("preprocess", ["preprocess", "--input", "raw.csv", "--output", "transformed.csv",
                          "--anchors", "anchors.csv"], ["transformed.csv", "anchors.csv"])
    forecast = ["naive-forecast", "--input", "transformed.csv", "--output", "forecasts.csv",
                "--input-len", str(scale.input_len), "--horizon", str(scale.horizon),
                "--seed", str(seed)]
    if workload == "m2m_eval":
        return [
            pre,
            ("split", ["split", "--input", "transformed.csv", "--output-dir", "splits"],
             [f"splits/{part}.csv" for part in ("train", "val", "test")]),
            ("naive-forecast", forecast + ["--task", "m2m"], ["forecasts.csv"]),
            ("evaluate", ["evaluate", "--truth", "transformed.csv", "--forecasts",
                          "forecasts.csv", "--output", "metrics.csv"], ["metrics.csv"]),
        ]
    out = [pre, ("naive-forecast", forecast + ["--task", "m2p", "--target-vars", ",".join(CLOSES)],
                 ["forecasts.csv"])]
    for strategy in STRATEGIES:
        pick = ["--k", str(TOPK)] if strategy == "topk" else ["--target-var", TRADED]
        out.append((f"backtest:{strategy}", [
            "backtest", "--forecasts", "forecasts.csv", "--panel", "transformed.csv",
            "--anchors", "anchors.csv", "--strategy", strategy, *pick,
            "--window", str(TRIGGER_WINDOW), "--rebalance", str(REBALANCE),
            "--output", f"curve_{strategy}.csv"], [f"curve_{strategy}.csv"]))
    for strategy in STRATEGIES:
        out.append((f"report:{strategy}", ["report", "--input", f"curve_{strategy}.csv",
                                           "--output", f"report_{strategy}.csv"],
                    [f"report_{strategy}.csv"]))
    return out
