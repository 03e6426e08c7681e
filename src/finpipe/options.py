"""Black-Scholes pricing, implied volatility, greeks, and historical volatility.

Pricing follows ``C = S0 * N(d1) - X * exp(-r*T) * N(d2)`` with
``d1 = (ln(S0/X) + (r + sigma^2/2) * T) / (sigma * sqrt(T))`` and
``d2 = d1 - sigma * sqrt(T)``; puts come from put-call parity. No dividend
yield. The normal CDF is ``0.5 * erfc(-x / sqrt(2))`` from the standard
library, on Python floats. Its relative error stays within about
``(1 + x^2) * 2^-52``, the conditioning of ``exp(-x^2/2)`` in the lower
tail, and the package needs no scipy. Each quote computes ``sqrt(T)``,
``ln(S0/X)`` and ``exp(-r*T)`` once, at construction. Implied volatility
inverts the price with a Newton-Raphson iteration safeguarded by bisection
on [1e-6, 5], started from the Corrado-Miller approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NoImpliedVolError, PricingError, WindowError

VOL_LOWER = 1e-6
VOL_UPPER = 5.0
MAX_ITERATIONS = 100
MIN_VEGA = 1e-12
PRICE_TOL_SCALE = 1e-10  # solution guarantee: |price(iv) - market| < scale * spot
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)


def ndtr(x: float) -> float:
    """The standard normal CDF of a float, through ``math.erfc``."""
    return 0.5 * math.erfc(-x / _SQRT_2)


@dataclass(frozen=True)
class OptionQuote:
    """One European option observation. ``market_price`` is only needed for IV."""

    spot: float
    strike: float
    rate: float
    expiry: float  # years
    kind: str  # 'call' or 'put'
    market_price: float | None = None
    # Per-quote constants of the pricing formulas, set by __post_init__.
    sqrt_t: float = field(init=False, repr=False, compare=False)
    log_moneyness: float = field(init=False, repr=False, compare=False)  # ln(S0/X)
    discount: float = field(init=False, repr=False, compare=False)  # exp(-r*T)
    discounted_strike: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.spot > 0 and math.isfinite(self.spot)):
            raise PricingError(f"spot must be positive, got {self.spot}")
        if not (self.strike > 0 and math.isfinite(self.strike)):
            raise PricingError(f"strike must be positive, got {self.strike}")
        if not (self.expiry > 0 and math.isfinite(self.expiry)):
            raise PricingError(f"expiry must be positive, got {self.expiry}")
        if not math.isfinite(self.rate):
            raise PricingError(f"rate must be finite, got {self.rate}")
        if self.kind not in ("call", "put"):
            raise PricingError(f"kind must be 'call' or 'put', got {self.kind!r}")
        if self.market_price is not None and not (
            self.market_price > 0 and math.isfinite(self.market_price)
        ):
            raise PricingError(f"market price must be positive, got {self.market_price}")
        try:
            discount = math.exp(-self.rate * self.expiry)
        except OverflowError:
            discount = math.inf
        if not 0 < discount < math.inf:
            raise PricingError(f"exp(-rate * expiry) leaves the float range at rate "
                               f"{self.rate}, expiry {self.expiry}")
        moneyness = self.spot / self.strike
        if not 0 < moneyness < math.inf:
            raise PricingError(f"spot / strike leaves the float range at spot {self.spot}, "
                               f"strike {self.strike}")
        object.__setattr__(self, "sqrt_t", math.sqrt(self.expiry))
        object.__setattr__(self, "log_moneyness", math.log(moneyness))
        object.__setattr__(self, "discount", discount)
        object.__setattr__(self, "discounted_strike", self.strike * discount)


class GreeksBundle(NamedTuple):
    """Price sensitivities. ``rho_rate`` is the interest-rate sensitivity.

    A named tuple, not a frozen dataclass: the IV solver builds one per
    Newton step, and a tuple is built in half the time.
    """

    delta: float
    theta: float
    gamma: float
    vega: float
    rho_rate: float


def bs_price(q: OptionQuote, sigma: float) -> float:
    """Black-Scholes price of the quote at volatility ``sigma``.

    Calls price as ``S0*N(d1) - X*exp(-rT)*N(d2)`` and puts as its parity
    image. Each branch is evaluated through the tail CDFs so deep in- or
    out-of-the-money values keep full relative precision (N near 1 would
    otherwise quantize away the extrinsic value).
    """
    if not (sigma > 0 and math.isfinite(sigma)):
        raise PricingError(f"sigma must be positive, got {sigma}")
    sig_sqrt_t = sigma * q.sqrt_t
    d1 = (q.log_moneyness + (q.rate + 0.5 * sigma * sigma) * q.expiry) / sig_sqrt_t
    d2 = d1 - sig_sqrt_t
    discounted_strike = q.discounted_strike
    if d2 >= 0:
        tails = discounted_strike * ndtr(-d2) - q.spot * ndtr(-d1)
        call = (q.spot - discounted_strike) + tails
        put = tails
    else:
        body = q.spot * ndtr(d1) - discounted_strike * ndtr(d2)
        call = body
        put = (discounted_strike - q.spot) + body
    return call if q.kind == "call" else put


def greeks(q: OptionQuote, sigma: float) -> GreeksBundle:
    """Delta, theta, gamma, vega, and rate rho at volatility ``sigma``.

    Call formulas: delta = N(d1), theta = -S0*N'(d1)*sigma/(2*sqrt(T))
    - r*X*exp(-rT)*N(d2), gamma = N'(d1)/(S0*sigma*sqrt(T)),
    vega = S0*sqrt(T)*N'(d1), rho = X*T*exp(-rT)*N(d2). Put variants follow
    from parity; gamma and vega are shared.
    """
    if not (sigma > 0 and math.isfinite(sigma)):
        raise PricingError(f"sigma must be positive, got {sigma}")
    sqrt_t = q.sqrt_t
    sig_sqrt_t = sigma * sqrt_t
    d1 = (q.log_moneyness + (q.rate + 0.5 * sigma * sigma) * q.expiry) / sig_sqrt_t
    d2 = d1 - sig_sqrt_t
    pdf_d1 = math.exp(-0.5 * d1 * d1) * _INV_SQRT_2PI
    discounted_strike = q.discounted_strike
    gamma = pdf_d1 / (q.spot * sigma * sqrt_t)
    vega = q.spot * sqrt_t * pdf_d1
    decay = -q.spot * pdf_d1 * sigma / (2.0 * sqrt_t)
    if q.kind == "call":
        delta = ndtr(d1)
        n_d2 = ndtr(d2)
        theta = decay - q.rate * discounted_strike * n_d2
        rho = q.strike * q.expiry * q.discount * n_d2
    else:
        # N(d1) - 1 through the tail, which keeps a deep out-of-the-money
        # put's delta from rounding to zero.
        delta = -ndtr(-d1)
        n_d2 = ndtr(-d2)
        theta = decay + q.rate * discounted_strike * n_d2
        rho = -q.strike * q.expiry * q.discount * n_d2
    return GreeksBundle(delta, theta, gamma, vega, rho)


def _no_arbitrage_bounds(q: OptionQuote) -> tuple[float, float]:
    discounted_strike = q.discounted_strike
    if q.kind == "call":
        return max(q.spot - discounted_strike, 0.0), q.spot
    return max(discounted_strike - q.spot, 0.0), discounted_strike


def _initial_guess(q: OptionQuote, target: float) -> float:
    # Corrado-Miller start, on the call-equivalent price: it extends the
    # Brenner-Subrahmanyam at-the-money formula by a moneyness correction.
    discounted_strike = q.discounted_strike
    call_equiv = target
    if q.kind == "put":
        call_equiv = target + q.spot - discounted_strike
    half_gap = 0.5 * (q.spot - discounted_strike)
    excess = call_equiv - half_gap
    root = math.sqrt(max(excess * excess - 4.0 * half_gap * half_gap / math.pi, 0.0))
    guess = (math.sqrt(2.0 * math.pi / q.expiry) * (excess + root)
             / (q.spot + discounted_strike))
    return min(max(guess, 0.05), 2.0)


def implied_vol(q: OptionQuote) -> float:
    """Volatility at which the Black-Scholes price matches ``q.market_price``.

    Newton-Raphson on sigma with the analytic vega, falling back to a
    bisection step whenever vega is negligible or the step would leave the
    current bracket. The result satisfies
    ``|bs_price(q, iv) - market_price| < 1e-10 * spot``.
    """
    if q.market_price is None:
        raise PricingError("quote has no market price to invert")
    target = q.market_price
    lower, upper = _no_arbitrage_bounds(q)
    if not (lower < target < upper):
        raise NoImpliedVolError(
            f"{q.kind} price {target} outside no-arbitrage range ({lower}, {upper})"
        )
    lo, hi = VOL_LOWER, VOL_UPPER
    x = _initial_guess(q, target)
    prev_step = hi - lo
    for _ in range(MAX_ITERATIONS):
        f = bs_price(q, x) - target
        if f == 0.0:
            return x
        if f < 0.0:
            lo = x
        else:
            hi = x
        vega = greeks(q, x).vega
        # Bisect when vega is dead, Newton would leave the bracket, or the
        # expected Newton step stops outpacing plain interval halving (the
        # price curve is near-exponential deep in/out of the money).
        new_x = None
        if vega >= MIN_VEGA:
            candidate = x - f / vega
            if lo < candidate < hi and abs(2.0 * f) <= abs(prev_step * vega):
                new_x = candidate
        if new_x is None:
            new_x = 0.5 * (lo + hi)
        prev_step = new_x - x
        if abs(prev_step) <= 1e-12 * max(1.0, x):
            x = new_x
            break
        x = new_x
    residual = bs_price(q, x) - target
    if abs(residual) < PRICE_TOL_SCALE * q.spot:
        return x
    raise ConvergenceError(
        f"implied vol search did not converge within {MAX_ITERATIONS} iterations "
        f"(residual {residual:.3e} on sigma bracket [{lo:.6g}, {hi:.6g}])"
    )


def historical_vol(prices, window: int) -> np.ndarray:
    """Rolling volatility of log returns over windows of ``window`` prices.

    Each window of N prices yields N-1 returns ``r_i = ln(P_i / P_{i-1})``;
    the output is ``sqrt(sum((r_i - rbar)^2) / (N-1))``, aligned to the last
    price of each window. No annualization is applied.
    """
    p = np.asarray(prices, dtype=float)
    if p.ndim != 1:
        raise PricingError(f"prices must be 1-D, got {p.ndim}-D")
    if not isinstance(window, (int, np.integer)) or window < 2:
        raise WindowError(f"window must be an integer >= 2, got {window!r}")
    if p.size < window + 1:
        raise WindowError(f"need at least {window + 1} prices, got {p.size}")
    if not (np.isfinite(p).all() and p.min() > 0):
        raise PricingError("prices must be positive and finite")
    returns = np.diff(np.log(p))
    wins = np.lib.stride_tricks.sliding_window_view(returns, window - 1)
    deviations = wins - wins.mean(axis=1, keepdims=True)
    return np.sqrt((deviations * deviations).sum(axis=1) / (window - 1))
