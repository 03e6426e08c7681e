import math

import numpy as np
import pytest
from mpmath import mp, mpf
from scipy.stats import linregress

from finpipe import EquityCurve
from finpipe.errors import StatsError
from finpipe.stats import (
    annual_return,
    annual_volatility,
    calmar,
    cumulative_return,
    full_report,
    max_drawdown,
    omega,
    periods_per_year_for,
    sharpe,
    sortino,
    stability,
)
from oracle_utils import max_drawdown_allpairs, two_pass_std

mp.dps = 50


def _curve(returns):
    returns = np.asarray(returns, dtype=float)
    return EquityCurve(range(len(returns)), returns)


class TestCumulativeReturn:
    def test_two_periods(self):
        assert cumulative_return([0.1, 0.1]) == pytest.approx(0.21, abs=1e-15)

    def test_zeros(self):
        assert cumulative_return(np.zeros(10)) == 0.0

    def test_matches_arbitrary_precision_product(self, rng):
        returns = rng.uniform(-0.05, 0.05, 50)
        expected = float(math.prod((1 + mpf(repr(float(r))) for r in returns)) - 1)
        assert cumulative_return(returns) == pytest.approx(expected, abs=1e-12)

    def test_multiplicative_composability(self, rng):
        a = rng.uniform(-0.04, 0.04, 30)
        b = rng.uniform(-0.04, 0.04, 20)
        combined = cumulative_return(np.concatenate([a, b]))
        composed = (1 + cumulative_return(a)) * (1 + cumulative_return(b)) - 1
        assert combined == pytest.approx(composed, abs=1e-12)

    def test_ruinous_return_rejected(self):
        with pytest.raises(StatsError, match="-100%"):
            cumulative_return([0.1, -1.0])


class TestAnnualReturn:
    def test_zeros(self):
        assert annual_return(np.zeros(100), 252) == 0.0

    def test_single_semiannual_period(self):
        # One period of 21% at 2 periods/year spans half a year: 1.21^2 - 1.
        assert annual_return([0.21], 2) == pytest.approx(0.4641, abs=1e-12)

    def test_one_jump_in_a_year_plus_a_day(self):
        returns = np.zeros(253)
        returns[100] = 0.10
        expected = float(mpf("1.1") ** (mpf(252) / 253) - 1)
        assert annual_return(returns, 252) == pytest.approx(expected, abs=1e-12)

    def test_bad_periods_per_year(self):
        with pytest.raises(StatsError, match="periods_per_year"):
            annual_return([0.01], 0)


class TestAnnualVolatility:
    def test_constant_returns(self):
        assert annual_volatility(np.full(30, 0.01), 252) == 0.0

    def test_alternating_returns_match_two_pass_oracle(self):
        returns = np.array([0.01, -0.01] * 5)
        expected = math.sqrt(252) * two_pass_std(list(returns), ddof=1)
        assert annual_volatility(returns, 252) == pytest.approx(expected, abs=1e-15)
        # closed form: std = 0.01 * sqrt(n / (n - 1))
        assert expected == pytest.approx(
            math.sqrt(252) * 0.01 * math.sqrt(10 / 9), abs=1e-15
        )

    def test_single_return_rejected(self):
        with pytest.raises(StatsError, match="two returns"):
            annual_volatility([0.01], 252)


class TestSharpe:
    def test_zero_vol_rejected(self):
        with pytest.raises(StatsError, match="volatility"):
            sharpe(0.1, 0.0)

    def test_published_row_consistency(self):
        # Annual 17.87% on vol 14.61% prints as a 1.2 ratio.
        assert sharpe(0.1787, 0.1461) == pytest.approx(1.2231, abs=1e-3)

    def test_risk_free_offset(self):
        assert sharpe(0.10, 0.20, risk_free=0.02) == pytest.approx(0.4, abs=1e-15)


class TestMaxDrawdown:
    def test_peak_then_half(self):
        assert max_drawdown([1.0, 2.0, 1.0]) == -0.5

    def test_monotone_increasing(self):
        assert max_drawdown(np.linspace(1.0, 2.0, 50)) == 0.0

    def test_matches_all_pairs_oracle(self, rng):
        net = np.cumprod(1.0 + rng.uniform(-0.05, 0.05, 200))
        assert max_drawdown(net) == pytest.approx(
            max_drawdown_allpairs(list(net)), abs=1e-12
        )

    def test_scale_invariance(self, rng):
        net = np.cumprod(1.0 + rng.uniform(-0.03, 0.03, 100))
        assert max_drawdown(3.0 * net) == pytest.approx(max_drawdown(net), abs=1e-12)

    def test_empty_and_non_positive_rejected(self):
        with pytest.raises(StatsError):
            max_drawdown([])
        with pytest.raises(StatsError, match="positive"):
            max_drawdown([1.0, 0.0])


class TestCalmar:
    def test_published_row_consistency(self):
        assert calmar(0.1787, -0.2163) == pytest.approx(0.8262, abs=1e-3)

    def test_zero_annual_return(self):
        assert calmar(0.0, -0.2) == 0.0

    def test_zero_drawdown_rejected(self):
        with pytest.raises(StatsError, match="drawdown"):
            calmar(0.1, 0.0)


class TestStability:
    def test_exact_exponential_growth(self):
        net = 1.05 ** np.arange(1, 40)
        assert stability(net) >= 1.0 - 1e-12
        assert stability(net) <= 1.0

    def test_flat_curve_rejected(self):
        with pytest.raises(StatsError, match="flat"):
            stability(np.ones(10))

    def test_matches_normal_equations_r_squared(self, rng):
        net = np.cumprod(1.0 + rng.uniform(-0.02, 0.05, 150))
        fit = linregress(np.arange(150), np.log(net))
        assert stability(net) == pytest.approx(fit.rvalue**2, abs=1e-10)

    def test_affine_iff_one(self, rng):
        noisy = np.cumprod(1.0 + rng.uniform(-0.05, 0.06, 60))
        assert stability(noisy) < 1.0 - 1e-9

    def test_too_short_rejected(self):
        with pytest.raises(StatsError, match="three"):
            stability([1.0, 1.1])


class TestOmega:
    def test_balanced(self):
        assert omega([0.01, -0.01]) == pytest.approx(1.0, abs=1e-12)

    def test_two_to_one(self):
        assert omega([0.02, -0.01]) == pytest.approx(2.0, abs=1e-12)

    def test_matches_direct_sums(self, rng):
        returns = rng.uniform(-0.05, 0.05, 200)
        gains = returns[returns > 0].sum()
        losses = -returns[returns < 0].sum()
        assert omega(returns) == pytest.approx(gains / losses, abs=1e-12)

    def test_above_one_iff_gains_dominate(self, rng):
        for _ in range(20):
            returns = rng.uniform(-0.05, 0.05, 50)
            gains = returns[returns > 0].sum()
            losses = -returns[returns < 0].sum()
            assert (omega(returns) > 1.0) == (gains > losses)

    def test_no_losses_rejected(self):
        with pytest.raises(StatsError, match="losing"):
            omega([0.01, 0.02, 0.0])


class TestSortino:
    def test_all_positive_rejected(self):
        with pytest.raises(StatsError, match="negative returns"):
            sortino(np.full(10, 0.01), 252)

    def test_identical_negatives_rejected(self):
        # Two equal losses have zero downside dispersion.
        with pytest.raises(StatsError, match="downside"):
            sortino([0.02, -0.01, 0.03, -0.01], 252)

    def test_matches_composed_oracle(self, rng):
        returns = rng.uniform(-0.03, 0.04, 120)
        downside = [r for r in returns if r < 0]
        expected = (annual_return(returns, 252) - 0.0) / (
            math.sqrt(252) * two_pass_std(downside, ddof=1)
        )
        assert sortino(returns, 252) == pytest.approx(expected, abs=1e-12)


class TestFullReport:
    def test_flat_curve(self):
        report = full_report(_curve(np.zeros(20)), 252)
        assert report.annual_return == 0.0
        assert report.cumulative_return == 0.0
        assert report.annual_volatility == 0.0
        assert report.max_drawdown == 0.0
        assert report.sharpe is None
        assert report.calmar is None
        assert report.stability is None
        assert report.omega is None
        assert report.sortino is None

    def test_synthetic_growth_curve_matches_per_stat_oracles(self, rng):
        returns = rng.uniform(-0.02, 0.03, 252)
        curve = _curve(returns)
        report = full_report(curve, 252, risk_free=0.01)
        net_path = np.concatenate(([1.0], curve.net_values))
        assert report.annual_return == annual_return(returns, 252)
        assert report.cumulative_return == cumulative_return(returns)
        assert report.annual_volatility == annual_volatility(returns, 252)
        assert report.sharpe == sharpe(report.annual_return, report.annual_volatility, 0.01)
        assert report.max_drawdown == max_drawdown(net_path)
        assert report.calmar == calmar(report.annual_return, report.max_drawdown)
        assert report.stability == stability(net_path)
        assert report.omega == omega(returns)
        assert report.sortino == sortino(returns, 252, 0.01)

    @pytest.mark.parametrize("periods", [0, -252.0])
    def test_non_positive_periods_per_year_rejected(self, periods):
        # -252 used to escape as ValueError from math.sqrt; 0 reported nine NAs.
        with pytest.raises(StatsError, match="periods_per_year must be positive"):
            full_report(_curve([0.01, -0.01, 0.02, -0.02]), periods)
        with pytest.raises(StatsError, match="periods_per_year must be positive"):
            sortino([0.01, -0.01, 0.02, -0.02], periods)

    def test_rows_order(self):
        report = full_report(_curve([0.01, -0.01, 0.02]), 252)
        assert [name for name, _ in report.rows()] == [
            "annual_return",
            "cumulative_return",
            "annual_volatility",
            "sharpe",
            "calmar",
            "stability",
            "max_drawdown",
            "omega",
            "sortino",
        ]

    def test_frequency_defaults(self):
        assert periods_per_year_for("daily") == 252
        assert periods_per_year_for("hourly") == 8760
        assert periods_per_year_for("minutely") is None
