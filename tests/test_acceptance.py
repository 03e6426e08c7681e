"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line so the gate can be scanned from the
pytest -s output. Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import linregress

from finpipe import (
    ForecastBatch,
    OptionQuote,
    Panel,
    PositionSeries,
    TransformState,
    WindowSpec,
    bs_price,
    calmar,
    cross_variable_delta,
    equity_curve,
    greeks,
    implied_vol,
    inverse_price_transform,
    log_price_transform,
    long_short_positions,
    make_batch,
    max_drawdown,
    ms_ic,
    ms_ir,
    mse,
    naive_forecast,
    per_pair_corr,
    portfolio_topk,
    sharpe,
    sliding_windows,
    stability,
    timing_positions,
)
from finpipe.errors import DegenerateDispersionError, NoImpliedVolError, PricingError
from finpipe.options import _no_arbitrage_bounds
from oracle_utils import ms_ic_oracle, ms_ir_oracle, per_sample_ic_oracle, spearman
from test_cli import run_m2s_pipeline
from synth import ohlcv_panel, write_raw_csv


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_metric_oracle_equivalence():
    """msIC/msIR/per-pair Spearman vs brute force, 500 batches, 1e-12, <5s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    n_degenerate = 0
    for i in range(500):
        b = int(rng.integers(2, 9))
        f = int(rng.integers(2, 9))
        c = int(rng.integers(1, 4))
        y = rng.normal(size=(b, f, c))
        p = rng.normal(size=(b, f, c))
        if i % 2 == 0:  # quantize to force ties
            y = np.round(y, 1)
            p = np.round(p, 1)
        batch = ForecastBatch(y, p)
        worst = max(worst, abs(ms_ic(batch) - ms_ic_oracle(y.tolist(), p.tolist())))
        per_sample = per_sample_ic_oracle(y.tolist(), p.tolist())
        if len(set(per_sample)) == 1:
            # zero dispersion: both routes must call it degenerate
            n_degenerate += 1
            with pytest.raises(DegenerateDispersionError):
                ms_ir(batch)
        else:
            worst = max(worst, abs(ms_ir(batch) - ms_ir_oracle(y.tolist(), p.tolist())))
        worst = max(
            worst,
            abs(per_pair_corr(y[0, :, 0], p[0, :, 0]) - spearman(y[0, :, 0], p[0, :, 0])),
        )
    elapsed = time.monotonic() - t0
    _report(
        "metric oracle equivalence",
        worst < 1e-12 and elapsed < 5.0,
        f"max deviation {worst:.3e} over 500 batches "
        f"({n_degenerate} zero-dispersion) in {elapsed:.2f}s",
    )


def test_naive_phenomenon_reproduction():
    """Repeat-last forecaster: |msIC| < 0.02 yet lower MSE than a mean predictor."""
    t0 = time.monotonic()
    length, horizon, n_samples = 512, 21, 1000
    rng = np.random.default_rng(20240501)
    values = np.cumsum(rng.normal(0.0, 0.02, (length + horizon + n_samples - 1, 1)), axis=0)
    panel = Panel(range(values.shape[0]), ("px",), values + 100.0)
    windows = sliding_windows(panel, WindowSpec(length, horizon))
    assert len(windows) == n_samples
    batch = make_batch(windows, naive_forecast(windows, horizon, noise_std=0.001, seed=77))
    naive_mse = mse(batch)
    msic = ms_ic(batch)
    mean_preds = np.repeat(windows.inputs.mean(axis=1, keepdims=True), horizon, axis=1)
    mean_mse = mse(make_batch(windows, mean_preds))
    elapsed = time.monotonic() - t0
    _report(
        "naive phenomenon reproduction",
        abs(msic) < 0.02 and naive_mse < mean_mse and elapsed < 30.0,
        f"msIC {msic:+.4f}, naive MSE {naive_mse:.4f} vs horizon-mean {mean_mse:.4f} "
        f"in {elapsed:.2f}s",
    )


def test_preprocessing_exactness():
    """Forward/inverse within 1e-9 relative and delta == ln(high/close) within 1e-12."""
    rng = np.random.default_rng(3003)
    n = 100_000
    close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, n)))
    open_ = close * np.exp(rng.normal(0.0, 0.005, n))
    high = np.maximum(open_, close) * np.exp(np.abs(rng.normal(0.0, 0.004, n)))
    low = np.minimum(open_, close) * np.exp(-np.abs(rng.normal(0.0, 0.004, n)))
    state = TransformState(anchor_close=close[0])
    worst_rel = 0.0
    transformed = {}
    for name, series in (("open", open_), ("high", high), ("low", low), ("close", close)):
        z = log_price_transform(series, state)
        transformed[name] = z
        back = inverse_price_transform(z, state)
        worst_rel = max(worst_rel, float(np.max(np.abs(back - series) / series)))
    delta = cross_variable_delta(transformed["high"], transformed["close"])
    worst_delta = float(np.max(np.abs(delta - np.log(high / close))))
    _report(
        "preprocessing exactness",
        worst_rel < 1e-9 and worst_delta < 1e-12,
        f"round-trip rel {worst_rel:.3e}, delta dev {worst_delta:.3e} on {n} rows",
    )


def test_option_analytics():
    """IV round trip, no-arbitrage handling, parity, and finite-difference greeks."""
    t0 = time.monotonic()
    sigmas = [round(0.05 * i, 2) for i in range(1, 21)]
    expiries = [0.01, 0.25, 1.0, 2.0]
    ratios = [0.8, 0.9, 1.0, 1.1, 1.2]

    # IV round trip across the full grid for both kinds. Cells whose forward
    # price lands exactly on a no-arbitrage boundary in float64 have no
    # inverse and must raise; cells whose vega is so small that one price ulp
    # spans more than 1e-7 of sigma cannot carry the 1e-6 target through a
    # float64 price (information limit), so for those only the price-residual
    # guarantee is enforced.
    worst_rt = 0.0
    n_identifiable = n_boundary = n_info_limited = 0
    parity_worst = 0.0
    for T in expiries:
        for sigma in sigmas:
            for ratio in ratios:
                spot = 100.0 * ratio
                call_px = bs_price(OptionQuote(spot, 100.0, 0.05, T, "call"), sigma)
                put_px = bs_price(OptionQuote(spot, 100.0, 0.05, T, "put"), sigma)
                forward = spot - 100.0 * math.exp(-0.05 * T)
                parity_worst = max(parity_worst, abs(call_px - put_px - forward))
                for kind, price in (("call", call_px), ("put", put_px)):
                    base = OptionQuote(spot, 100.0, 0.05, T, kind)
                    lo, hi = _no_arbitrage_bounds(base)
                    if not (lo < price < hi):
                        # the forward price saturated to a boundary: no inverse
                        n_boundary += 1
                        if price <= 0:
                            with pytest.raises(PricingError):
                                OptionQuote(spot, 100.0, 0.05, T, kind, price)
                        else:
                            with pytest.raises(NoImpliedVolError):
                                implied_vol(
                                    OptionQuote(spot, 100.0, 0.05, T, kind, price)
                                )
                        continue
                    quote = OptionQuote(spot, 100.0, 0.05, T, kind, price)
                    iv = implied_vol(quote)
                    vega = greeks(base, sigma).vega
                    sigma_quantum = math.ulp(price) / vega if vega > 0 else math.inf
                    if sigma_quantum <= 1e-7:
                        n_identifiable += 1
                        worst_rt = max(worst_rt, abs(iv - sigma))
                    else:
                        n_info_limited += 1
                        assert abs(bs_price(base, iv) - price) < 1e-10 * spot
    grid_ok = (
        worst_rt < 1e-6
        and parity_worst < 1e-10
        and n_identifiable >= 0.96 * (n_identifiable + n_boundary + n_info_limited)
    )

    # Greeks vs central finite differences on 1000 random quotes.
    rng = np.random.default_rng(4004)
    worst_greek = 0.0
    for _ in range(1000):
        q = OptionQuote(
            float(rng.uniform(85, 115)),
            100.0,
            float(rng.uniform(0.005, 0.08)),
            float(rng.uniform(0.25, 2.0)),
            "call" if rng.random() < 0.5 else "put",
        )
        sigma = float(rng.uniform(0.15, 0.8))
        analytic = greeks(q, sigma)
        hs, ht, hv, hr = 1e-5 * q.spot, 1e-5 * q.expiry, 1e-5 * sigma, 1e-5

        def price(spot=q.spot, rate=q.rate, expiry=q.expiry, sig=sigma):
            return bs_price(OptionQuote(spot, q.strike, rate, expiry, q.kind), sig)

        fd = {
            "delta": (price(spot=q.spot + hs) - price(spot=q.spot - hs)) / (2 * hs),
            "gamma": (price(spot=q.spot + hs) - 2 * price() + price(spot=q.spot - hs)) / hs**2,
            "theta": -(price(expiry=q.expiry + ht) - price(expiry=q.expiry - ht)) / (2 * ht),
            "vega": (price(sig=sigma + hv) - price(sig=sigma - hv)) / (2 * hv),
            "rho_rate": (price(rate=q.rate + hr) - price(rate=q.rate - hr)) / (2 * hr),
        }
        for name, approx in fd.items():
            value = getattr(analytic, name)
            worst_greek = max(worst_greek, abs(approx - value) / max(abs(value), 1e-6))
    elapsed = time.monotonic() - t0
    _report(
        "option analytics",
        grid_ok and worst_greek < 1e-4 and elapsed < 10.0,
        f"IV round-trip {worst_rt:.3e} on {n_identifiable} identifiable cells "
        f"({n_boundary} boundary, {n_info_limited} float64-information-limited), "
        f"parity {parity_worst:.3e}, greek FD rel {worst_greek:.3e} in {elapsed:.2f}s",
    )


def test_strategy_ledgers():
    """Hand-built timing/long-short/top-k fixtures match exactly."""

    def signal(values, variables=("x",)):
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        return Panel(range(values.shape[0]), variables, values)

    ok = True
    # Timing, rebalance 1: long on +, cash on -.
    curve = equity_curve(
        timing_positions(signal([0.5, -0.2, 0.3, -0.1, 0.4, -0.6]), 1),
        signal([0.02, -0.01, 0.03, 0.02, -0.02, 0.01]),
    )
    expected = [1.02, 1.02, 1.02 * 1.03, 1.02 * 1.03, 1.02 * 1.03 * 0.98, 1.02 * 1.03 * 0.98]
    ok &= list(curve.net_values) == expected

    # Long-short, rebalance 1: sign of the trigger is the position.
    curve = equity_curve(
        long_short_positions(signal([0.1, -0.1, -0.2, 0.3]), 1),
        signal([0.05, 0.05, -0.10, -0.10]),
    )
    ok &= list(curve.net_values) == [1.05, 1.05 * 0.95, 1.05 * 0.95 * 1.10,
                                     1.05 * 0.95 * 1.10 * 0.90]

    # Top-2 of three assets, rebalance 2, with a tie broken by asset name.
    dd = signal(
        [[3, 2, 1], [9, 9, 9], [1, 2, 3], [9, 9, 9], [2, 2, 0], [9, 9, 9]],
        ("A", "B", "C"),
    )
    rets = signal(
        [[0.02, 0.00, -0.02], [0.01, 0.01, 0.03], [0.00, 0.02, 0.04],
         [-0.02, 0.02, 0.00], [0.02, -0.02, 0.10], [0.04, 0.00, -0.04]],
        ("A", "B", "C"),
    )
    curve = equity_curve(portfolio_topk(dd, 2, 2), rets)
    hand_returns = [
        0.5 * 0.02 + 0.5 * 0.00,
        0.5 * 0.01 + 0.5 * 0.01,
        0.5 * 0.02 + 0.5 * 0.04,
        0.5 * 0.02 + 0.5 * 0.00,
        0.5 * 0.02 + 0.5 * -0.02,
        0.5 * 0.04 + 0.5 * 0.00,
    ]
    ok &= list(curve.period_returns) == hand_returns

    # Degenerate top-k: k = n reproduces the equal-weight benchmark bit-exactly.
    rng = np.random.default_rng(5005)
    dd_n = signal(rng.normal(size=(40, 4)), ("A", "B", "C", "D"))
    rets_n = signal(rng.uniform(-0.03, 0.03, (40, 4)), ("A", "B", "C", "D"))
    topk = equity_curve(portfolio_topk(dd_n, 4, 5), rets_n)
    benchmark = equity_curve(
        PositionSeries(dd_n.timestamps, dd_n.variables, np.full((40, 4), 0.25), 5), rets_n
    )
    ok &= (topk.net_values == benchmark.net_values).all()
    _report("strategy ledger equivalence", bool(ok), "3 hand ledgers + k=n benchmark, exact")


def test_statistics_internal_consistency():
    """Published row: annual 17.87%, vol 14.61%, MDD -21.63% -> Sharpe ~1.2, Calmar ~0.83."""
    sharpe_value = sharpe(0.1787, 0.1461)
    calmar_value = calmar(0.1787, -0.2163)
    _report(
        "statistics internal consistency",
        1.15 <= sharpe_value <= 1.25 and 0.80 <= calmar_value <= 0.86,
        f"sharpe {sharpe_value:.4f} in [1.15, 1.25], calmar {calmar_value:.4f} in [0.80, 0.86]",
    )


def test_drawdown_and_stability_oracles():
    """Single-pass drawdown vs all-pairs; stability vs normal-equations R^2."""
    rng = np.random.default_rng(6006)
    worst_dd = worst_r2 = 0.0
    for _ in range(100):
        net = np.cumprod(1.0 + rng.uniform(-0.05, 0.06, 200))
        ratios = net[None, :] / net[:, None]  # all peak/trough pairs
        oracle_dd = float((np.triu(ratios) + np.tril(np.ones_like(ratios), -1)).min() - 1.0)
        worst_dd = max(worst_dd, abs(max_drawdown(net) - oracle_dd))
        fit = linregress(np.arange(net.size), np.log(net))
        worst_r2 = max(worst_r2, abs(stability(net) - fit.rvalue**2))
    _report(
        "drawdown/stability oracles",
        worst_dd < 1e-12 and worst_r2 < 1e-10,
        f"drawdown dev {worst_dd:.3e}, stability dev {worst_r2:.3e} over 100 curves",
    )


def test_pipeline_determinism(tmp_path):
    """Identical bytes from two full end-to-end runs in separate directories."""
    raw = tmp_path / "raw.csv"
    write_raw_csv(raw, ohlcv_panel(600, seed=909, assets=("X",)))
    run_a = run_m2s_pipeline(tmp_path / "a", raw, seed="13")
    run_b = run_m2s_pipeline(tmp_path / "b", raw, seed="13")
    artifacts = ["transformed", "anchors", "forecasts", "metrics", "curve", "report"]
    same = all(run_a[n].read_bytes() == run_b[n].read_bytes() for n in artifacts)
    same &= all(
        (run_a["splits"] / f"{s}.csv").read_bytes() == (run_b["splits"] / f"{s}.csv").read_bytes()
        for s in ("train", "val", "test")
    )
    _report("pipeline determinism", same, f"{len(artifacts) + 3} artifacts byte-identical")
