"""Trading signals and the three backtested strategies.

The raw signal of a forecast is the predicted change of the transformed
price over the horizon: last predicted step minus last observed value. That
series is strongly autocorrelated, so the tradeable trigger subtracts its
own trailing rolling mean ("difference in difference"). Positions are
decided at rebalance points from the trigger and held until the next
rebalance; each position earns the returns that accrue after the decision
timestamp, never before, so there is no lookahead.

Signals live in transformed (log) space; realized returns must be simple
returns computed from raw prices. Transaction costs are not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SignalError, StrategyError
from .frame import Panel
from .metrics import ForecastBatch

DEFAULT_REBALANCE_PERIOD = 5


def difference_signal(batch: ForecastBatch) -> Panel:
    """Predicted horizon-end change per window origin, as a signal panel.

    One column per target variable, one row per forecast origin:
    ``y_pred[:, -1, c] - last_observed[:, c]``. Take one variable's signal
    with ``.select([var])``.
    """
    if batch.variables is None or batch.origins is None or batch.last_observed is None:
        raise SignalError(
            "batch lacks origin metadata (variables/origins/last_observed); "
            "build it from windows or a forecast file"
        )
    raw = batch.y_pred[:, -1, :] - batch.last_observed
    return Panel(batch.origins, batch.variables, raw)


def diff_in_diff(raw: Panel, window: int) -> Panel:
    """Signal minus its trailing rolling mean over ``window`` points.

    The mean at row t covers rows t-window+1..t, so the first window-1 rows
    are dropped; output rows align with the remaining timestamps.
    """
    if not isinstance(window, (int, np.integer)) or window < 1:
        raise SignalError(f"window must be an integer >= 1, got {window!r}")
    if raw.n_rows <= window:
        raise SignalError(
            f"signal has {raw.n_rows} points; need more than the window ({window})"
        )
    wins = np.lib.stride_tricks.sliding_window_view(raw.values, window, axis=0)
    dd = raw.values[window - 1 :] - wins.mean(axis=2)
    return Panel(raw.timestamps[window - 1 :], raw.variables, dd)


@dataclass(frozen=True)
class PositionSeries:
    """Per-period portfolio weights, constant between rebalance points."""

    timestamps: tuple
    assets: tuple[str, ...]
    weights: np.ndarray  # (T, A)
    rebalance_period: int

    def __post_init__(self):
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        object.__setattr__(self, "assets", tuple(self.assets))
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape != (len(self.timestamps), len(self.assets)):
            raise StrategyError(
                f"weights shape {w.shape} does not match "
                f"{len(self.timestamps)} periods x {len(self.assets)} assets"
            )
        if not (np.abs(w) <= 1).all():  # a NaN weight fails too
            raise StrategyError("weights must lie in [-1, 1]")
        if self.rebalance_period < 1:
            raise StrategyError(f"rebalance period must be >= 1, got {self.rebalance_period}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


def _held(decided: np.ndarray, period: int) -> np.ndarray:
    """Repeat each rebalance-point decision until the next rebalance."""
    idx = np.arange(decided.shape[0])
    return decided[(idx // period) * period]


def _single_column(signal: Panel, what: str) -> np.ndarray:
    if signal.n_vars != 1:
        raise SignalError(f"{what} expects a single-asset signal, got {signal.n_vars} columns")
    return signal.values[:, 0]


def timing_positions(
    dd: Panel, rebalance_period: int = DEFAULT_REBALANCE_PERIOD
) -> PositionSeries:
    """Long when the trigger is positive at the rebalance point, else cash."""
    values = _single_column(dd, "timing strategy")
    decided = (values > 0).astype(float)[:, None]
    return PositionSeries(
        dd.timestamps, dd.variables, _held(decided, rebalance_period), rebalance_period
    )


def long_short_positions(
    dd: Panel, rebalance_period: int = DEFAULT_REBALANCE_PERIOD
) -> PositionSeries:
    """Long when the trigger is positive at the rebalance point, else short."""
    values = _single_column(dd, "long-short strategy")
    decided = np.where(values > 0, 1.0, -1.0)[:, None]
    return PositionSeries(
        dd.timestamps, dd.variables, _held(decided, rebalance_period), rebalance_period
    )


def portfolio_topk(
    dd: Panel, k: int, rebalance_period: int = DEFAULT_REBALANCE_PERIOD
) -> PositionSeries:
    """Equal weight 1/k on the k strongest signals at each rebalance point.

    Ties are broken by ascending asset name so selections are deterministic.
    """
    n_assets = dd.n_vars
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n_assets:
        raise StrategyError(f"k must be in [1, {n_assets}], got {k!r}")
    v = dd.values
    # lexsort: primary key is the last one; descending signal, then name, per row.
    order = np.lexsort((np.broadcast_to(np.array(dd.variables), v.shape), -v), axis=1)
    decided = np.zeros_like(v)
    np.put_along_axis(decided, order[:, :k], 1.0 / k, axis=1)
    return PositionSeries(
        dd.timestamps, dd.variables, _held(decided, rebalance_period), rebalance_period
    )


@dataclass(frozen=True)
class EquityCurve:
    """Compounded net value per period, starting from an implicit 1.0.

    ``net_values[t]`` is the product of ``1 + period_returns[:t+1]``, computed
    once from the returns; ``net_path()`` prepends the inception value.
    """

    timestamps: tuple
    period_returns: np.ndarray
    net_values: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        pr = np.asarray(self.period_returns, dtype=float)
        if pr.shape != (len(self.timestamps),):
            raise StrategyError("period returns must be 1-D, one per timestamp")
        if pr.size == 0:
            raise StrategyError("equity curve must cover at least one period")
        if not np.isfinite(pr).all():
            raise StrategyError("period returns must be finite")
        if (pr <= -1).any():
            raise StrategyError("a period return of -100% or worse wipes out the equity")
        nv = np.cumprod(1.0 + pr)
        pr.setflags(write=False)
        nv.setflags(write=False)
        object.__setattr__(self, "period_returns", pr)
        object.__setattr__(self, "net_values", nv)

    def net_path(self) -> np.ndarray:
        """Net values including the inception value 1.0."""
        return np.concatenate(([1.0], self.net_values))


def equity_curve(positions: PositionSeries, realized_returns: Panel) -> EquityCurve:
    """Compound the weighted simple returns of each period from net value 1.

    ``realized_returns`` must align with the positions row for row: same
    timestamps, same assets, and each row holding the simple return accruing
    over the period that starts at that timestamp.
    """
    if positions.timestamps != realized_returns.timestamps:
        raise StrategyError("positions and returns cover different timestamps")
    if positions.assets != realized_returns.variables:
        raise StrategyError(
            f"positions assets {positions.assets} != return variables "
            f"{realized_returns.variables}"
        )
    period_returns = (positions.weights * realized_returns.values).sum(axis=1)
    return EquityCurve(positions.timestamps, period_returns)


def forward_returns(panel: Panel, variables, row_indices) -> Panel:
    """Next-step simple returns of raw price columns at the given rows.

    Row i of the result holds ``P[row+1]/P[row] - 1`` for each variable, the
    return accruing over the period that starts at that row's timestamp.
    """
    rows = np.asarray(row_indices)
    if rows.size and rows.max() + 1 >= panel.n_rows:
        raise StrategyError("cannot compute a forward return for the last panel row")
    sub = panel.select(tuple(variables))
    prices = sub.values
    if prices.size and prices.min() <= 0:
        raise StrategyError("forward returns need strictly positive prices")
    rets = prices[rows + 1] / prices[rows] - 1.0
    return Panel(tuple(sub.timestamps[i] for i in rows), sub.variables, rets)
