"""Strategy statistics computed from an equity curve's per-period returns.

All nine statistics work on raw fractions (0.01 = 1%). Annualization uses
``periods_per_year`` (252 for daily data); volatility uses the sample
standard deviation, while downside volatility in the Sortino ratio is the
sample std of the negative returns only. Statistics that are undefined for
a series (zero volatility, no losses, flat curve, ...) raise
:class:`StatsError`; ``full_report`` converts those into ``None`` markers
instead of failing the whole report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StatsError
from .strategy import EquityCurve

FREQUENCIES = ("daily", "hourly", "minutely")
PERIODS_PER_YEAR = {"daily": 252, "hourly": 8760}  # minutely has no default

REPORT_FIELDS = (
    "annual_return",
    "cumulative_return",
    "annual_volatility",
    "sharpe",
    "calmar",
    "stability",
    "max_drawdown",
    "omega",
    "sortino",
)


def periods_per_year_for(freq: str) -> int | None:
    """Default annualization factor for a data frequency; None if mandatory."""
    return PERIODS_PER_YEAR.get(freq)


def _returns_array(returns) -> np.ndarray:
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise StatsError("returns must be a non-empty 1-D series")
    if not np.isfinite(r).all():
        raise StatsError("returns must be finite")
    if (r <= -1).any():
        raise StatsError("returns at or below -100% are not compoundable")
    return r


def _check_periods(periods_per_year: float) -> None:
    if not periods_per_year > 0:
        raise StatsError(f"periods_per_year must be positive, got {periods_per_year}")


def cumulative_return(returns) -> float:
    """Total compounded return: prod(1 + r) - 1."""
    r = _returns_array(returns)
    return float(np.prod(1.0 + r) - 1.0)


def annual_return(returns, periods_per_year: float) -> float:
    """Geometric annualization: (prod(1 + r))^(1/years) - 1."""
    r = _returns_array(returns)
    _check_periods(periods_per_year)
    years = r.size / periods_per_year
    growth = float(np.prod(1.0 + r))
    return growth ** (1.0 / years) - 1.0


def annual_volatility(returns, periods_per_year: float) -> float:
    """sqrt(periods_per_year) times the sample std of per-period returns."""
    r = _returns_array(returns)
    if r.size < 2:
        raise StatsError("volatility needs at least two returns")
    _check_periods(periods_per_year)
    if r.max() == r.min():  # identical returns disperse by exactly zero
        return 0.0
    return float(math.sqrt(periods_per_year) * r.std(ddof=1))


def sharpe(annual_ret: float, annual_vol: float, risk_free: float = 0.0) -> float:
    """Excess annual return per unit of annual volatility."""
    if not annual_vol > 0:
        raise StatsError(f"sharpe needs positive volatility, got {annual_vol}")
    return (annual_ret - risk_free) / annual_vol


def max_drawdown(net_values) -> float:
    """Worst decline from the running peak, as a fraction <= 0."""
    nv = np.asarray(net_values, dtype=float)
    if nv.ndim != 1 or nv.size == 0:
        raise StatsError("net values must be a non-empty 1-D series")
    if not np.isfinite(nv).all() or nv.min() <= 0:
        raise StatsError("net values must be positive and finite")
    peaks = np.maximum.accumulate(nv)
    return float(np.min(nv / peaks - 1.0))


def calmar(annual_ret: float, max_dd: float) -> float:
    """Annual return divided by the drawdown magnitude."""
    if not max_dd < 0:
        raise StatsError(f"calmar needs a negative max drawdown, got {max_dd}")
    return annual_ret / abs(max_dd)


def stability(net_values) -> float:
    """R-squared of a least-squares line through the log net values.

    1 means the equity grew at a perfectly steady exponential rate.
    """
    nv = np.asarray(net_values, dtype=float)
    if nv.ndim != 1 or nv.size < 3:
        raise StatsError("stability needs at least three net values")
    if not np.isfinite(nv).all() or nv.min() <= 0:
        raise StatsError("net values must be positive and finite")
    y = np.log(nv)
    if y.max() == y.min():
        raise StatsError("flat equity has no return variance to fit")
    t = np.arange(y.size, dtype=float)
    t_dev = t - t.mean()
    y_dev = y - y.mean()
    slope = float((t_dev * y_dev).sum() / (t_dev * t_dev).sum())
    fitted_dev = slope * t_dev
    r2 = float((fitted_dev * fitted_dev).sum() / (y_dev * y_dev).sum())
    return min(max(r2, 0.0), 1.0)


def omega(returns) -> float:
    """Sum of gains divided by the magnitude of the sum of losses."""
    r = _returns_array(returns)
    gains = float(r[r > 0].sum())
    losses = float(-r[r < 0].sum())
    if losses <= 0:
        raise StatsError("omega is undefined without at least one losing period")
    return gains / losses


def sortino(returns, periods_per_year: float, risk_free: float = 0.0) -> float:
    """Excess annual return per unit of downside (negative-return) volatility.

    Downside volatility is the sample std of the negative returns, scaled by
    sqrt(periods_per_year).
    """
    r = _returns_array(returns)
    _check_periods(periods_per_year)
    downside = r[r < 0]
    if downside.size < 2:
        raise StatsError("sortino needs at least two negative returns")
    dev = float(downside.std(ddof=1)) * math.sqrt(periods_per_year)
    if dev <= 0:
        raise StatsError("downside volatility is zero; sortino undefined")
    return (annual_return(r, periods_per_year) - risk_free) / dev


@dataclass(frozen=True)
class StrategyReport:
    """The nine statistics of one equity curve; None marks an undefined stat."""

    annual_return: float | None
    cumulative_return: float | None
    annual_volatility: float | None
    sharpe: float | None
    calmar: float | None
    stability: float | None
    max_drawdown: float | None
    omega: float | None
    sortino: float | None

    def rows(self) -> list[tuple[str, float | None]]:
        """(name, value) pairs in presentation order."""
        return [(name, getattr(self, name)) for name in REPORT_FIELDS]


def full_report(
    curve: EquityCurve, periods_per_year: float, risk_free: float = 0.0
) -> StrategyReport:
    """All nine statistics of a curve; undefined ones become None.

    A non-positive ``periods_per_year`` is an error, not nine undefined
    statistics.
    """
    _check_periods(periods_per_year)
    returns = curve.period_returns
    net = curve.net_path()

    def attempt(func, *args):
        try:
            return func(*args)
        except StatsError:
            return None

    ann = attempt(annual_return, returns, periods_per_year)
    vol = attempt(annual_volatility, returns, periods_per_year)
    mdd = attempt(max_drawdown, net)
    return StrategyReport(
        annual_return=ann,
        cumulative_return=attempt(cumulative_return, returns),
        annual_volatility=vol,
        sharpe=attempt(sharpe, ann, vol, risk_free) if None not in (ann, vol) else None,
        calmar=attempt(calmar, ann, mdd) if None not in (ann, mdd) else None,
        stability=attempt(stability, net),
        max_drawdown=mdd,
        omega=attempt(omega, returns),
        sortino=attempt(sortino, returns, periods_per_year, risk_free),
    )
