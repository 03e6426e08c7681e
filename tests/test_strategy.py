import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from finpipe import (
    EquityCurve,
    ForecastBatch,
    Panel,
    PositionSeries,
    WindowSpec,
    diff_in_diff,
    difference_signal,
    equity_curve,
    forward_returns,
    long_short_positions,
    make_batch,
    naive_forecast,
    portfolio_topk,
    sliding_windows,
    timing_positions,
)
from finpipe.errors import SignalError, StrategyError
from synth import random_walk_panel


def _signal(values, variables=("spx",), timestamps=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if timestamps is None:
        timestamps = range(values.shape[0])
    return Panel(timestamps, variables, values)


def _returns(values, variables=("spx",), timestamps=None):
    return _signal(values, variables, timestamps)


class TestDifferenceSignal:
    def _batch(self, n_windows=8):
        panel = random_walk_panel(n_windows + 14, 2, seed=21)
        windows = sliding_windows(panel, WindowSpec(10, 5))
        preds = naive_forecast(windows, 5, seed=5)
        return make_batch(windows, preds), windows

    def test_repeat_last_forecast_gives_zero_signal(self):
        panel = random_walk_panel(30, 2, seed=22)
        windows = sliding_windows(panel, WindowSpec(10, 5))
        batch = make_batch(windows, naive_forecast(windows, 5, noise_std=0.0))
        signal = difference_signal(batch)
        assert (signal.values == 0.0).all()
        assert signal.timestamps == windows.origins

    def test_constant_shift_forecast(self):
        panel = random_walk_panel(30, 1, seed=23)
        windows = sliding_windows(panel, WindowSpec(10, 5))
        preds = naive_forecast(windows, 5, noise_std=0.0) + 0.01
        signal = difference_signal(make_batch(windows, preds))
        np.testing.assert_allclose(signal.values, 0.01, atol=1e-15)

    def test_matches_bruteforce_subtraction(self):
        batch, windows = self._batch()
        signal = difference_signal(batch)
        for i in range(len(windows)):
            for j, var in enumerate(batch.variables):
                expected = batch.y_pred[i, -1, j] - windows.last_observed[i, j]
                assert signal.values[i, j] == expected

    def test_metadata_required(self):
        bare = ForecastBatch(np.zeros((3, 5, 1)), np.zeros((3, 5, 1)))
        with pytest.raises(SignalError, match="metadata"):
            difference_signal(bare)


class TestDiffInDiff:
    def test_constant_signal_gives_zero(self):
        dd = diff_in_diff(_signal(np.full(10, 0.37)), window=4)
        np.testing.assert_allclose(dd.values, 0.0, atol=1e-12)
        assert dd.n_rows == 7
        assert dd.timestamps == tuple(range(3, 10))

    def test_linear_ramp_window_two(self):
        # raw_t = t, so the trailing mean of {t-1, t} is t - 0.5 and dd is 0.5.
        dd = diff_in_diff(_signal(np.arange(8.0)), window=2)
        assert (dd.values == 0.5).all()

    def test_window_one_is_zero(self):
        dd = diff_in_diff(_signal([3.0, -1.0, 2.0]), window=1)
        assert (dd.values == 0.0).all()

    def test_short_series_rejected(self):
        with pytest.raises(SignalError, match="window"):
            diff_in_diff(_signal(np.arange(5.0)), window=5)

    def test_bad_window_rejected(self):
        with pytest.raises(SignalError):
            diff_in_diff(_signal(np.arange(5.0)), window=0)

    def test_matches_bruteforce_mean(self, rng):
        raw = rng.normal(size=20)
        dd = diff_in_diff(_signal(raw), window=6)
        for t in range(5, 20):
            expected = raw[t] - raw[t - 5 : t + 1].mean()
            assert dd.values[t - 5, 0] == pytest.approx(expected, abs=1e-14)


class TestTimingStrategy:
    def test_always_positive_equals_buy_and_hold(self):
        dd = _signal([0.2, 0.1, 0.5, 0.3, 0.2, 0.4])
        rets = _returns([0.01, -0.02, 0.03, 0.01, -0.01, 0.02])
        curve = equity_curve(timing_positions(dd, 1), rets)
        hold = np.cumprod(1.0 + rets.values[:, 0])
        np.testing.assert_array_equal(curve.net_values, hold)

    def test_always_negative_stays_in_cash(self):
        dd = _signal([-0.2, -0.1, -0.5, -0.3])
        rets = _returns([0.05, -0.05, 0.02, 0.03])
        curve = equity_curve(timing_positions(dd, 1), rets)
        np.testing.assert_array_equal(curve.net_values, np.ones(4))
        np.testing.assert_array_equal(curve.period_returns, np.zeros(4))

    def test_zero_signal_means_cash(self):
        # The long trigger is strictly positive; a zero signal sits out.
        dd = _signal([0.0, 0.0])
        curve = equity_curve(timing_positions(dd, 1), _returns([0.04, 0.04]))
        np.testing.assert_array_equal(curve.net_values, np.ones(2))

    def test_six_step_hand_ledger_period_one(self):
        # dd:      +    -    +    -    +    -
        # weight:  1    0    1    0    1    0
        # return: 2%    x   3%    x  -2%    x
        dd = _signal([0.5, -0.2, 0.3, -0.1, 0.4, -0.6])
        rets = _returns([0.02, -0.01, 0.03, 0.02, -0.02, 0.01])
        curve = equity_curve(timing_positions(dd, 1), rets)
        expected_returns = [0.02, 0.0, 0.03, 0.0, -0.02, 0.0]
        expected_net = [
            1.02,
            1.02,
            1.02 * 1.03,
            1.02 * 1.03,
            1.02 * 1.03 * 0.98,
            1.02 * 1.03 * 0.98,
        ]
        np.testing.assert_array_equal(curve.period_returns, expected_returns)
        np.testing.assert_array_equal(curve.net_values, expected_net)

    def test_hand_ledger_period_two(self):
        # Rebalance points are rows 0, 2, 4; decisions hold for two periods.
        dd = _signal([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])
        positions = timing_positions(dd, rebalance_period=2)
        np.testing.assert_array_equal(positions.weights[:, 0], [1, 1, 0, 0, 1, 1])
        rets = _returns([0.01, 0.02, -0.01, 0.03, 0.02, -0.02])
        curve = equity_curve(positions, rets)
        expected_net = [
            1.01,
            1.01 * 1.02,
            1.01 * 1.02,
            1.01 * 1.02,
            1.01 * 1.02 * 1.02,
            1.01 * 1.02 * 1.02 * 0.98,
        ]
        np.testing.assert_array_equal(curve.net_values, expected_net)

    def test_period_returns_are_asset_return_or_zero(self, rng):
        dd = _signal(rng.normal(size=40))
        rets = _returns(rng.uniform(-0.05, 0.05, 40))
        curve = equity_curve(timing_positions(dd, 5), rets)
        for pr, ar in zip(curve.period_returns, rets.values[:, 0]):
            assert pr == 0.0 or pr == ar


class TestLongShortStrategy:
    def test_positive_signal_long_gain(self):
        dd = _signal([0.3, 0.3])
        curve = equity_curve(long_short_positions(dd, 1), _returns([0.01, 0.01]))
        np.testing.assert_array_equal(curve.period_returns, [0.01, 0.01])

    def test_negative_signal_short_gain(self):
        dd = _signal([-0.3, -0.3])
        curve = equity_curve(long_short_positions(dd, 1), _returns([-0.01, -0.01]))
        np.testing.assert_array_equal(curve.period_returns, [0.01, 0.01])

    def test_sign_flip_hand_ledger(self):
        # dd:      +     -      -      +
        # weight:  1    -1     -1      1
        # asset:  5%    5%   -10%   -10%
        dd = _signal([0.1, -0.1, -0.2, 0.3])
        rets = _returns([0.05, 0.05, -0.10, -0.10])
        curve = equity_curve(long_short_positions(dd, 1), rets)
        np.testing.assert_array_equal(curve.period_returns, [0.05, -0.05, 0.10, -0.10])
        expected_net = [1.05, 1.05 * 0.95, 1.05 * 0.95 * 1.10, 1.05 * 0.95 * 1.10 * 0.90]
        np.testing.assert_array_equal(curve.net_values, expected_net)

    def test_period_returns_are_signed_asset_returns(self, rng):
        dd = _signal(rng.normal(size=30))
        rets = _returns(rng.uniform(-0.05, 0.05, 30))
        curve = equity_curve(long_short_positions(dd, 3), rets)
        for pr, ar in zip(curve.period_returns, rets.values[:, 0]):
            assert pr == ar or pr == -ar


class TestTopKStrategy:
    ASSETS = ("A", "B", "C")

    def test_k_equal_n_is_equal_weight_benchmark(self, rng):
        dd = _signal(rng.normal(size=(12, 3)), self.ASSETS)
        rets = _returns(rng.uniform(-0.03, 0.03, (12, 3)), self.ASSETS)
        topk = equity_curve(portfolio_topk(dd, k=3, rebalance_period=5), rets)
        benchmark_positions = PositionSeries(
            dd.timestamps, self.ASSETS, np.full((12, 3), 1.0 / 3.0), 5
        )
        benchmark = equity_curve(benchmark_positions, rets)
        np.testing.assert_array_equal(topk.net_values, benchmark.net_values)

    def test_k_one_tracks_dominant_asset(self, rng):
        values = rng.normal(size=(10, 3))
        values[:, 1] = values.max() + 1.0  # asset B always ranks first
        dd = _signal(values, self.ASSETS)
        rets = _returns(rng.uniform(-0.03, 0.03, (10, 3)), self.ASSETS)
        curve = equity_curve(portfolio_topk(dd, k=1, rebalance_period=1), rets)
        hold_b = np.cumprod(1.0 + rets.values[:, 1])
        np.testing.assert_array_equal(curve.net_values, hold_b)

    def test_three_asset_hand_ledger(self):
        # Rebalances at rows 0, 2, 4. Selections: {A,B}, {B,C}, tie at 2.0
        # broken by name -> {A,B}.
        dd_values = np.array([
            [3.0, 2.0, 1.0],
            [9.0, 9.0, 9.0],  # held, ignored
            [1.0, 2.0, 3.0],
            [9.0, 9.0, 9.0],
            [2.0, 2.0, 0.0],
            [9.0, 9.0, 9.0],
        ])
        rets_values = np.array([
            [0.02, 0.00, -0.02],
            [0.01, 0.01, 0.03],
            [0.00, 0.02, 0.04],
            [-0.02, 0.02, 0.00],
            [0.02, -0.02, 0.10],
            [0.04, 0.00, -0.04],
        ])
        dd = _signal(dd_values, self.ASSETS)
        rets = _returns(rets_values, self.ASSETS)
        positions = portfolio_topk(dd, k=2, rebalance_period=2)
        expected_weights = np.array([
            [0.5, 0.5, 0.0],
            [0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5],
            [0.0, 0.5, 0.5],
            [0.5, 0.5, 0.0],
            [0.5, 0.5, 0.0],
        ])
        np.testing.assert_array_equal(positions.weights, expected_weights)
        curve = equity_curve(positions, rets)
        expected_returns = [
            0.5 * 0.02 + 0.5 * 0.00 + 0.0 * -0.02,
            0.5 * 0.01 + 0.5 * 0.01 + 0.0 * 0.03,
            0.0 * 0.00 + 0.5 * 0.02 + 0.5 * 0.04,
            0.0 * -0.02 + 0.5 * 0.02 + 0.5 * 0.00,
            0.5 * 0.02 + 0.5 * -0.02 + 0.0 * 0.10,
            0.5 * 0.04 + 0.5 * 0.00 + 0.0 * -0.04,
        ]
        np.testing.assert_array_equal(curve.period_returns, expected_returns)
        expected_net = np.cumprod([1.0 + r for r in expected_returns])
        np.testing.assert_array_equal(curve.net_values, expected_net)

    def test_monotone_transform_keeps_selections(self, rng):
        values = np.round(rng.normal(size=(10, 3)), 1)  # coarse grid forces ties
        dd = _signal(values, self.ASSETS)
        transformed = _signal(np.exp(values), self.ASSETS)
        for k in (1, 2, 3):
            a = portfolio_topk(dd, k, rebalance_period=2)
            b = portfolio_topk(transformed, k, rebalance_period=2)
            np.testing.assert_array_equal(a.weights, b.weights)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_a_per_row_loop(self, data):
        # Tie-heavy rows (a few small values, signed zeros, all-zero rows) and
        # asset names in no particular order, so the name tie-break decides.
        names = data.draw(st.lists(st.text("abcXYZ_", min_size=1, max_size=3),
                                   min_size=1, max_size=6, unique=True))
        n_rows = data.draw(st.integers(1, 12))
        values = data.draw(arrays(float, (n_rows, len(names)),
                                  elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])))
        k = data.draw(st.integers(1, len(names)))
        period = data.draw(st.integers(1, 4))
        expected = np.zeros_like(values)
        for t in range(n_rows):
            ranked = sorted(range(len(names)), key=lambda j: (-values[t, j], names[j]))
            expected[t, ranked[:k]] = 1.0 / k
        expected = expected[(np.arange(n_rows) // period) * period]
        positions = portfolio_topk(_signal(values, tuple(names)), k, rebalance_period=period)
        np.testing.assert_array_equal(positions.weights, expected)

    def test_k_out_of_range_rejected(self, rng):
        dd = _signal(rng.normal(size=(5, 3)), self.ASSETS)
        with pytest.raises(StrategyError, match="k must be"):
            portfolio_topk(dd, 0)
        with pytest.raises(StrategyError, match="k must be"):
            portfolio_topk(dd, 4)


class TestEquityCurve:
    def test_all_cash_is_flat(self):
        positions = PositionSeries(range(4), ("spx",), np.zeros((4, 1)), 1)
        curve = equity_curve(positions, _returns([0.02, -0.03, 0.05, 0.01]))
        np.testing.assert_array_equal(curve.net_values, np.ones(4))
        np.testing.assert_array_equal(curve.net_path(), np.ones(5))

    def test_full_long_compounding(self):
        positions = PositionSeries(range(2), ("spx",), np.ones((2, 1)), 1)
        curve = equity_curve(positions, _returns([0.10, -0.10]))
        assert curve.net_values[0] == pytest.approx(1.1, abs=1e-15)
        assert curve.net_values[1] == pytest.approx(0.99, abs=1e-12)
        np.testing.assert_array_equal(curve.net_values, [1.1, 1.1 * 0.9])

    def test_timestamp_misalignment_rejected(self):
        positions = PositionSeries(range(3), ("spx",), np.ones((3, 1)), 1)
        with pytest.raises(StrategyError, match="timestamps"):
            equity_curve(positions, _returns([0.01, 0.02], timestamps=range(2)))

    def test_asset_misalignment_rejected(self):
        positions = PositionSeries(range(2), ("a",), np.ones((2, 1)), 1)
        with pytest.raises(StrategyError, match="assets"):
            equity_curve(positions, _returns([0.01, 0.02], variables=("b",)))

    def test_total_loss_rejected(self):
        positions = PositionSeries(range(1), ("spx",), np.ones((1, 1)), 1)
        with pytest.raises(StrategyError, match="-100%"):
            equity_curve(positions, _returns([-1.0]))

    def test_net_values_are_derived_and_read_only(self):
        curve = EquityCurve(range(2), [0.10, -0.10])
        np.testing.assert_array_equal(curve.net_values, [1.1, 1.1 * 0.9])
        with pytest.raises(ValueError, match="read-only"):
            curve.net_values[0] = 2.0
        with pytest.raises(TypeError):
            EquityCurve(range(2), [0.10, -0.10], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [-1.0, -1.5])
    def test_curve_rejects_a_total_loss(self, bad):
        with pytest.raises(StrategyError, match="-100%"):
            EquityCurve(range(3), [0.01, bad, 0.02])

    def test_weight_bounds_enforced(self):
        with pytest.raises(StrategyError, match=r"\[-1, 1\]"):
            PositionSeries(range(2), ("spx",), np.full((2, 1), 1.5), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_weight_that_is_not_finite_is_refused(self, bad):
        with pytest.raises(StrategyError, match=r"\[-1, 1\]"):
            PositionSeries(range(3), ("spx",), [[0.5], [bad], [1.0]], 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_period_return_that_is_not_finite_is_refused(self, bad):
        with pytest.raises(StrategyError, match="finite"):
            EquityCurve(range(3), [0.01, bad, 0.02])


class TestNoLookahead:
    def test_future_signal_changes_leave_prefix_unchanged(self, rng):
        base = rng.normal(size=20)
        rets = _returns(rng.uniform(-0.02, 0.02, 20))
        variant = base.copy()
        variant[12:] = rng.normal(size=8) + 5.0  # rewrite the future
        for period in (1, 3, 5):
            curve_a = equity_curve(timing_positions(_signal(base), period), rets)
            curve_b = equity_curve(timing_positions(_signal(variant), period), rets)
            np.testing.assert_array_equal(
                curve_a.net_values[:12], curve_b.net_values[:12]
            )

    def test_future_returns_leave_prefix_unchanged(self, rng):
        dd = _signal(rng.normal(size=15))
        returns_a = rng.uniform(-0.02, 0.02, 15)
        returns_b = returns_a.copy()
        returns_b[10:] = -0.05
        curve_a = equity_curve(timing_positions(dd, 2), _returns(returns_a))
        curve_b = equity_curve(timing_positions(dd, 2), _returns(returns_b))
        np.testing.assert_array_equal(curve_a.net_values[:10], curve_b.net_values[:10])


PROPERTY = settings(max_examples=60, deadline=None)
STRATEGIES = ("timing", "longshort", "topk")


@st.composite
def backtests(draw, max_rows=30):
    """A trigger panel, a return panel and a rule for turning one into positions."""
    n_rows = draw(st.integers(2, max_rows))
    n_assets = draw(st.integers(1, 4))
    signal = draw(arrays(float, (n_rows, n_assets),
                         elements=st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-3, 3)))
    returns = draw(arrays(float, (n_rows, n_assets), elements=st.floats(-0.5, 0.5)))
    strategy = draw(st.sampled_from(STRATEGIES))
    k = draw(st.integers(1, n_assets))
    period = draw(st.integers(1, 7))
    return signal, returns, strategy, k, period


def _positions_and_returns(signal, returns, strategy, k, period):
    assets = tuple(f"a{i}" for i in range(signal.shape[1]))
    dd, rets = _signal(signal, assets), _returns(returns, assets)
    if strategy == "topk":
        return portfolio_topk(dd, k, period), rets
    rule = timing_positions if strategy == "timing" else long_short_positions
    return rule(dd.select(["a0"]), period), rets.select(["a0"])


class TestBacktestProperties:
    @PROPERTY
    @given(case=backtests(), data=st.data())
    def test_no_lookahead_on_random_prefixes(self, case, data):
        signal, returns, strategy, k, period = case
        cut = data.draw(st.integers(1, signal.shape[0] - 1), label="cut")
        tail = (signal.shape[0] - cut, signal.shape[1])
        signal_b, returns_b = signal.copy(), returns.copy()
        signal_b[cut:] = data.draw(arrays(float, tail, elements=st.floats(-3, 3)), label="signal")
        returns_b[cut:] = data.draw(arrays(float, tail, elements=st.floats(-0.5, 0.5)),
                                    label="returns")
        curve_a = equity_curve(*_positions_and_returns(signal, returns, strategy, k, period))
        curve_b = equity_curve(*_positions_and_returns(signal_b, returns_b, strategy, k, period))
        np.testing.assert_array_equal(curve_a.net_values[:cut], curve_b.net_values[:cut])

    @PROPERTY
    @given(case=backtests())
    def test_topk_weights_sum_to_one(self, case):
        signal, returns, _, k, period = case
        weights = _positions_and_returns(signal, returns, "topk", k, period)[0].weights
        assert ((weights > 0).sum(axis=1) == k).all()
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @PROPERTY
    @given(case=backtests())
    def test_equity_curve_matches_math_prod(self, case):
        positions, returns = _positions_and_returns(*case)
        curve = equity_curve(positions, returns)
        period_returns = [math.fsum(w * r for w, r in zip(w_row, r_row))
                          for w_row, r_row in zip(positions.weights.tolist(),
                                                  returns.values.tolist())]
        for t, net in enumerate(curve.net_values.tolist()):
            assert math.isclose(net, math.prod(1.0 + r for r in period_returns[: t + 1]),
                                rel_tol=1e-13)


class TestForwardReturns:
    def test_next_step_simple_returns(self):
        panel = Panel(range(4), ("p",), np.array([[100.0], [110.0], [121.0], [133.1]]))
        rets = forward_returns(panel, ("p",), np.array([0, 2]))
        np.testing.assert_allclose(rets.values[:, 0], [0.10, 0.10], atol=1e-12)
        assert rets.timestamps == (0, 2)

    def test_last_row_rejected(self):
        panel = Panel(range(3), ("p",), np.full((3, 1), 10.0))
        with pytest.raises(StrategyError, match="last"):
            forward_returns(panel, ("p",), np.array([2]))
