import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from finpipe import GreeksBundle, OptionQuote, bs_price, greeks, historical_vol, implied_vol
from finpipe import options
from finpipe.errors import ConvergenceError, NoImpliedVolError, PricingError, WindowError
from oracle_utils import historical_vol_oracle

# Frozen from a 50-digit normal-CDF (erfc) oracle.
ATM_CALL_PRICE = 10.450583572185567  # S=100, X=100, r=0.05, T=1, sigma=0.2
ZERO_VOL_LIMIT = 4.877057549928599  # 100 - 100 * exp(-0.05)
CALL_PRICE_AT_035 = 16.128428881575889  # same quote at sigma=0.35


def _quote(spot=100.0, strike=100.0, rate=0.05, expiry=1.0, kind="call", price=None):
    return OptionQuote(spot, strike, rate, expiry, kind, price)


def _exact_ndtr(x):
    """The standard normal CDF of the float ``x``, to 50 digits."""
    with mp.workdps(50):
        return mp.ncdf(mpf(x))


class TestNormalCdf:
    @settings(max_examples=400, deadline=None)
    @given(st.floats(min_value=-37.0, max_value=9.0))
    @example(-37.0)
    @example(-8.3)
    @example(0.0)
    @example(1e-300)
    @example(9.0)
    def test_relative_error_within_the_conditioning_floor(self, x):
        # The bound is the conditioning of exp(-x^2/2) in the lower tail;
        # any double-precision CDF of a rounded argument pays it.
        exact = _exact_ndtr(x)
        with mp.workdps(50):
            rel = abs((mpf(options.ndtr(x)) - exact) / exact)
        assert rel <= 2.0 * (1.0 + x * x) * 2.0 ** -52

    def test_far_tails(self):
        assert options.ndtr(40.0) == 1.0
        assert 0.0 <= options.ndtr(-40.0) < 1e-300

    def test_returns_python_floats(self):
        assert type(options.ndtr(0.3)) is float
        assert options.ndtr(0.0) == 0.5


class TestQuoteConstants:
    def test_constructor_repr_eq_hash_unchanged(self):
        assert list(inspect.signature(OptionQuote).parameters) == [
            "spot", "strike", "rate", "expiry", "kind", "market_price"]
        q = OptionQuote(100.0, 90.0, 0.01, 0.5, "put", 1.5)
        assert repr(q) == ("OptionQuote(spot=100.0, strike=90.0, rate=0.01, expiry=0.5, "
                           "kind='put', market_price=1.5)")
        twin = OptionQuote(100.0, 90.0, 0.01, 0.5, "put", 1.5)
        assert q == twin and hash(q) == hash(twin)
        assert hash(q) == hash((100.0, 90.0, 0.01, 0.5, "put", 1.5))
        assert q != OptionQuote(100.0, 90.0, 0.01, 0.5, "put")
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.spot = 101.0

    def test_replace_recomputes_the_constants(self):
        q = OptionQuote(100.0, 90.0, 0.01, 0.5, "put", 1.5)
        moved = dataclasses.replace(q, strike=80.0, rate=0.04, expiry=2.0)
        assert moved == OptionQuote(100.0, 80.0, 0.04, 2.0, "put", 1.5)
        assert moved.sqrt_t == math.sqrt(2.0)
        assert moved.log_moneyness == math.log(100.0 / 80.0)
        assert moved.discount == math.exp(-0.04 * 2.0)
        assert moved.discounted_strike == 80.0 * math.exp(-0.04 * 2.0)
        assert bs_price(moved, 0.3) == bs_price(OptionQuote(100.0, 80.0, 0.04, 2.0, "put"), 0.3)
        with pytest.raises(ValueError):
            dataclasses.replace(q, sqrt_t=1.0)
        with pytest.raises(PricingError, match="expiry"):
            dataclasses.replace(q, expiry=0.0)


class TestQuoteValidation:
    @pytest.mark.parametrize("field,value", [
        ("spot", 0.0), ("spot", -1.0), ("strike", 0.0), ("expiry", 0.0), ("expiry", -2.0),
    ])
    def test_positive_fields(self, field, value):
        kwargs = dict(spot=100.0, strike=100.0, rate=0.05, expiry=1.0, kind="call")
        kwargs[field] = value
        with pytest.raises(PricingError):
            OptionQuote(**kwargs)

    def test_kind_checked(self):
        with pytest.raises(PricingError, match="kind"):
            _quote(kind="straddle")

    def test_market_price_positive(self):
        with pytest.raises(PricingError, match="market price"):
            _quote(price=-3.0)


class TestBsPrice:
    def test_atm_reference_value(self):
        assert bs_price(_quote(), 0.2) == pytest.approx(ATM_CALL_PRICE, rel=1e-12)

    def test_terminal_payoff_limit(self):
        # T -> 0 with S=110, X=100: the price collapses to the payoff 10.
        q = _quote(spot=110.0, rate=0.0, expiry=1e-12)
        assert bs_price(q, 0.2) == pytest.approx(10.0, abs=1e-6)

    def test_zero_vol_limit(self):
        assert bs_price(_quote(), 1e-8) == pytest.approx(ZERO_VOL_LIMIT, abs=1e-6)

    def test_non_positive_sigma_rejected(self):
        with pytest.raises(PricingError, match="sigma"):
            bs_price(_quote(), 0.0)
        with pytest.raises(PricingError, match="sigma"):
            bs_price(_quote(), -0.2)

    def test_call_above_discounted_intrinsic(self, rng):
        for _ in range(200):
            q = _quote(
                spot=float(rng.uniform(50, 150)),
                strike=float(rng.uniform(50, 150)),
                rate=float(rng.uniform(0.0, 0.1)),
                expiry=float(rng.uniform(0.05, 2.0)),
            )
            sigma = float(rng.uniform(0.05, 0.9))
            price = bs_price(q, sigma)
            intrinsic = max(q.spot - q.strike * math.exp(-q.rate * q.expiry), 0.0)
            assert price >= intrinsic

    def test_put_call_parity(self, rng):
        for _ in range(300):
            spot = float(rng.uniform(50, 150))
            strike = float(rng.uniform(50, 150))
            rate = float(rng.uniform(0.0, 0.1))
            expiry = float(rng.uniform(0.02, 2.0))
            sigma = float(rng.uniform(0.05, 1.0))
            call = bs_price(OptionQuote(spot, strike, rate, expiry, "call"), sigma)
            put = bs_price(OptionQuote(spot, strike, rate, expiry, "put"), sigma)
            forward = spot - strike * math.exp(-rate * expiry)
            assert call - put == pytest.approx(forward, abs=1e-10)

    def test_price_increasing_in_sigma(self):
        for ratio in (0.8, 1.0, 1.25):
            q = _quote(spot=100.0 * ratio)
            prices = [bs_price(q, s) for s in np.arange(0.05, 1.51, 0.05)]
            assert all(a < b for a, b in zip(prices, prices[1:]))


class TestImpliedVol:
    def test_inverts_known_price(self):
        q = _quote(price=CALL_PRICE_AT_035)
        assert implied_vol(q) == pytest.approx(0.35, abs=1e-6)

    def test_below_intrinsic_rejected(self):
        intrinsic = 100.0 - 100.0 * math.exp(-0.05)
        q = _quote(price=intrinsic - 0.01)
        with pytest.raises(NoImpliedVolError, match="no-arbitrage"):
            implied_vol(q)

    def test_above_upper_bound_rejected(self):
        with pytest.raises(NoImpliedVolError):
            implied_vol(_quote(price=100.5))  # a call is never worth more than spot
        with pytest.raises(NoImpliedVolError):
            implied_vol(_quote(kind="put", price=100.0))  # put cap is X*exp(-rT)

    def test_missing_price_rejected(self):
        with pytest.raises(PricingError, match="market price"):
            implied_vol(_quote())

    def test_round_trip_spot_checks(self):
        for kind in ("call", "put"):
            for sigma in (0.08, 0.2, 0.55, 1.3):
                q0 = _quote(spot=95.0, kind=kind)
                q = _quote(spot=95.0, kind=kind, price=bs_price(q0, sigma))
                assert implied_vol(q) == pytest.approx(sigma, abs=1e-6)

    def test_vol_above_search_ceiling_fails(self):
        # Claim a price only reachable above the sigma ceiling of 5.
        ceiling_price = bs_price(_quote(), 5.0)
        q = _quote(price=0.5 * (ceiling_price + 100.0))
        with pytest.raises(ConvergenceError, match="converge"):
            implied_vol(q)

    def test_satisfies_price_residual_guarantee(self, rng):
        for _ in range(100):
            sigma = float(rng.uniform(0.05, 1.0))
            spot = float(rng.uniform(80, 120))
            kind = "call" if rng.random() < 0.5 else "put"
            q0 = OptionQuote(spot, 100.0, 0.03, float(rng.uniform(0.1, 2.0)), kind)
            target = bs_price(q0, sigma)
            q = OptionQuote(q0.spot, q0.strike, q0.rate, q0.expiry, kind, target)
            iv = implied_vol(q)
            assert abs(bs_price(q0, iv) - target) < 1e-10 * spot

    def test_start_keeps_the_solve_short_and_exact(self, monkeypatch):
        # 2,000 quotes drawn in the benchmark's ranges; a draw whose price is
        # not strictly inside the no-arbitrage range has no IV and is redrawn.
        rng = np.random.default_rng(20)
        book = []
        while len(book) < 2000:
            spot = float(rng.uniform(50.0, 150.0))
            kind = "call" if rng.random() < 0.5 else "put"
            strike = spot * float(rng.uniform(0.7, 1.3))
            rate, expiry = float(rng.uniform(0.0, 0.06)), float(rng.uniform(0.05, 2.0))
            sigma = float(rng.uniform(0.05, 1.0))
            q0 = OptionQuote(spot, strike, rate, expiry, kind)
            price = bs_price(q0, sigma)
            discounted_strike = strike * math.exp(-rate * expiry)
            lower, upper = ((max(spot - discounted_strike, 0.0), spot) if kind == "call"
                            else (max(discounted_strike - spot, 0.0), discounted_strike))
            if lower < price < upper:
                book.append((OptionQuote(spot, strike, rate, expiry, kind, price), sigma))

        calls = 0

        def counting(q, sigma):
            nonlocal calls
            calls += 1
            return bs_price(q, sigma)

        monkeypatch.setattr(options, "bs_price", counting)
        ivs = [implied_vol(q) for q, _ in book]
        monkeypatch.undo()
        assert calls / len(book) <= 5.0
        for (q, sigma), iv in zip(book, ivs):
            assert abs(bs_price(q, iv) - q.market_price) < 1e-10 * q.spot
            # Where a price ulp moves sigma by at most 1e-7, the IV is sigma.
            if math.ulp(q.market_price) / greeks(q, sigma).vega <= 1e-7:
                assert abs(iv - sigma) <= 1e-6


class TestGreeks:
    def test_deep_itm_delta(self):
        q = _quote(spot=1000.0, strike=1.0)
        assert greeks(q, 0.2).delta == pytest.approx(1.0, abs=1e-9)

    def test_gamma_vega_non_negative(self, rng):
        for _ in range(1000):
            q = OptionQuote(
                float(rng.uniform(50, 150)),
                float(rng.uniform(50, 150)),
                float(rng.uniform(0.0, 0.1)),
                float(rng.uniform(0.05, 2.0)),
                "call" if rng.random() < 0.5 else "put",
            )
            g = greeks(q, float(rng.uniform(0.05, 1.0)))
            assert g.gamma >= 0.0
            assert g.vega >= 0.0

    def test_put_call_greek_parity(self, rng):
        # Delta gap 1, shared gamma/vega, theta gap r*X*exp(-rT), rho gap X*T*exp(-rT).
        for _ in range(50):
            spot = float(rng.uniform(70, 130))
            strike = float(rng.uniform(70, 130))
            rate = float(rng.uniform(0.0, 0.08))
            expiry = float(rng.uniform(0.1, 2.0))
            sigma = float(rng.uniform(0.1, 0.8))
            call = greeks(OptionQuote(spot, strike, rate, expiry, "call"), sigma)
            put = greeks(OptionQuote(spot, strike, rate, expiry, "put"), sigma)
            disc = strike * math.exp(-rate * expiry)
            assert call.delta - put.delta == pytest.approx(1.0, abs=1e-12)
            assert call.gamma == put.gamma
            assert call.vega == put.vega
            assert call.theta - put.theta == pytest.approx(-rate * disc, abs=1e-10)
            assert call.rho_rate - put.rho_rate == pytest.approx(expiry * disc, abs=1e-10)

    @staticmethod
    def _fd_greeks(q, sigma):
        """Central finite differences of bs_price, relative step 1e-5."""
        hs = 1e-5 * q.spot
        ht = 1e-5 * q.expiry
        hv = 1e-5 * sigma
        hr = 1e-5 * max(abs(q.rate), 1.0)

        def price(spot=q.spot, rate=q.rate, expiry=q.expiry, sig=sigma):
            return bs_price(OptionQuote(spot, q.strike, rate, expiry, q.kind), sig)

        delta = (price(spot=q.spot + hs) - price(spot=q.spot - hs)) / (2 * hs)
        gamma = (price(spot=q.spot + hs) - 2 * price() + price(spot=q.spot - hs)) / hs**2
        theta = -(price(expiry=q.expiry + ht) - price(expiry=q.expiry - ht)) / (2 * ht)
        vega = (price(sig=sigma + hv) - price(sig=sigma - hv)) / (2 * hv)
        rho = (price(rate=q.rate + hr) - price(rate=q.rate - hr)) / (2 * hr)
        return GreeksBundle(delta, theta, gamma, vega, rho)

    def test_atm_call_matches_finite_differences(self):
        q = _quote()
        analytic = greeks(q, 0.2)
        fd = self._fd_greeks(q, 0.2)
        for name in ("delta", "theta", "gamma", "vega", "rho_rate"):
            a, b = getattr(analytic, name), getattr(fd, name)
            assert abs(a - b) <= 1e-4 * max(abs(a), 1e-6), name

    def test_put_matches_finite_differences(self):
        q = _quote(spot=92.0, kind="put")
        analytic = greeks(q, 0.3)
        fd = self._fd_greeks(q, 0.3)
        for name in ("delta", "theta", "gamma", "vega", "rho_rate"):
            a, b = getattr(analytic, name), getattr(fd, name)
            assert abs(a - b) <= 1e-4 * max(abs(a), 1e-6), name

    def test_bad_sigma_rejected(self):
        with pytest.raises(PricingError):
            greeks(_quote(), 0.0)

    @pytest.mark.parametrize("strike,rate,expiry,sigma", [
        (40.0, 0.0, 0.25, 0.2),  # N(d1) - 1 rounds to 0.0; the delta is -1.587e-20
        (55.0, 0.03, 0.1, 0.3),
        (70.0, 0.05, 1.0, 0.05),
    ])
    def test_deep_otm_put_delta_keeps_relative_precision(self, strike, rate, expiry, sigma):
        q = OptionQuote(100.0, strike, rate, expiry, "put")
        with mp.workdps(50):
            d1 = ((mp.log(mpf(100.0) / mpf(strike)) + (mpf(rate) + mpf(sigma) ** 2 / 2)
                   * mpf(expiry)) / (mpf(sigma) * mp.sqrt(mpf(expiry))))
            exact = -mp.ncdf(-d1)
            delta = greeks(q, sigma).delta
            assert delta < 0.0
            assert abs((mpf(delta) - exact) / exact) <= 1e-12


class TestHistoricalVol:
    def test_constant_prices_give_zero(self):
        assert (historical_vol(np.full(20, 55.0), 5) == 0.0).all()

    def test_window_two_is_degenerate(self, rng):
        # One return per window deviates by zero from its own mean.
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, 30)))
        assert (historical_vol(prices, 2) == 0.0).all()

    def test_alternating_prices_match_oracle(self):
        prices = np.array([100.0, 110.0] * 6)
        result = historical_vol(prices, 4)
        expected = historical_vol_oracle(list(prices), 4)
        np.testing.assert_allclose(result, expected, rtol=0, atol=1e-12)

    def test_random_series_matches_oracle(self, rng):
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, 60)))
        result = historical_vol(prices, 7)
        expected = historical_vol_oracle(list(prices), 7)
        assert result.shape == (60 - 7 + 1,)
        np.testing.assert_allclose(result, expected, rtol=0, atol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(WindowError, match="at least"):
            historical_vol(np.full(5, 10.0), 5)

    def test_bad_window_rejected(self):
        with pytest.raises(WindowError, match="window"):
            historical_vol(np.full(10, 10.0), 1)

    def test_non_positive_prices_rejected(self):
        with pytest.raises(PricingError, match="positive"):
            historical_vol(np.array([10.0, 0.0, 10.0, 10.0]), 2)
