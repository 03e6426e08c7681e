import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from finpipe import Panel
from finpipe.errors import FormatError, TransformError
from finpipe.preprocess import (
    TransformState,
    classify_variable,
    cross_variable_delta,
    inverse_price_transform,
    inverse_transform_panel,
    inverse_volume_transform,
    load_anchor_file,
    log_price_transform,
    log_volume_transform,
    transform_panel,
    write_anchor_file,
)
from synth import ohlcv_panel

# Frozen from a 50-digit arbitrary-precision logarithm oracle.
LN_1_1 = 0.09531017980432486
LN_1_15 = 0.13976194237515870
LN_115_110 = 0.04445176257083384
LN_10 = 2.302585092994046
LN_100 = 4.605170185988091


class TestLogPriceTransform:
    def test_constant_close_maps_to_baseline(self):
        state = TransformState(anchor_close=42.0)
        z = log_price_transform(np.full(5, 42.0), state)
        assert (z == 100.0).all()

    def test_geometric_close_series(self):
        state = TransformState(anchor_close=100.0)
        z = log_price_transform([100.0, 110.0, 121.0], state)
        expected = [100.0, 100.0 + LN_1_1, 100.0 + 2 * LN_1_1]
        np.testing.assert_allclose(z, expected, rtol=0, atol=1e-12)

    def test_high_series_uses_close_anchor(self):
        # A high of 115 transformed against the first close (100), not its own start.
        state = TransformState(anchor_close=100.0)
        z = log_price_transform([102.0, 115.0], state)
        assert z[1] == pytest.approx(100.0 + LN_1_15, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_non_positive_price_rejected(self, bad):
        state = TransformState(anchor_close=100.0)
        with pytest.raises(TransformError, match="positive"):
            log_price_transform([100.0, bad], state)

    def test_bad_anchor_rejected(self):
        with pytest.raises(TransformError, match="anchor"):
            TransformState(anchor_close=0.0)

    def test_custom_baseline(self):
        state = TransformState(anchor_close=100.0, baseline=0.0)
        z = log_price_transform([100.0, 110.0], state)
        assert z[0] == 0.0
        assert z[1] == pytest.approx(LN_1_1, abs=1e-15)


class TestInversePriceTransform:
    def test_baseline_maps_to_anchor(self):
        state = TransformState(anchor_close=250.0)
        np.testing.assert_allclose(inverse_price_transform([100.0], state), [250.0])

    def test_round_trip(self):
        state = TransformState(anchor_close=100.0)
        prices = np.array([100.0, 110.0, 121.0])
        back = inverse_price_transform(log_price_transform(prices, state), state)
        np.testing.assert_allclose(back, prices, rtol=1e-9)

    def test_half_anchor(self):
        # exp oracle: z = 100 + ln 2 with anchor 50 recovers price 100.
        state = TransformState(anchor_close=50.0)
        value = inverse_price_transform([100.0 + 0.6931471805599453], state)[0]
        assert value == pytest.approx(100.0, rel=1e-12)

    def test_random_round_trip(self, rng):
        state = TransformState(anchor_close=73.5)
        prices = 73.5 * np.exp(rng.normal(0.0, 0.5, 500))
        back = inverse_price_transform(log_price_transform(prices, state), state)
        np.testing.assert_allclose(back, prices, rtol=1e-9)


class TestVolumeTransform:
    def test_zero_maps_to_zero(self):
        assert log_volume_transform([0.0])[0] == 0.0

    def test_e_minus_one_maps_to_one(self):
        assert log_volume_transform([np.e - 1.0])[0] == pytest.approx(1.0, abs=1e-15)

    def test_log_oracle_values(self):
        np.testing.assert_allclose(
            log_volume_transform([9.0, 99.0]), [LN_10, LN_100], rtol=0, atol=1e-12
        )

    def test_negative_volume_rejected(self):
        with pytest.raises(TransformError, match="non-negative"):
            log_volume_transform([1.0, -0.5])

    def test_round_trip(self, rng):
        volumes = np.concatenate(([0.0], rng.uniform(0.0, 1e9, 200)))
        back = inverse_volume_transform(log_volume_transform(volumes))
        np.testing.assert_allclose(back, volumes, rtol=1e-9, atol=1e-9)

    def test_monotone(self, rng):
        volumes = np.sort(rng.uniform(0.0, 1e6, 100))
        z = log_volume_transform(volumes)
        assert (np.diff(z) >= 0).all()


class TestCrossVariableDelta:
    def test_equal_series_gives_zero(self):
        z = np.array([100.0, 101.0, 99.5])
        assert (cross_variable_delta(z, z) == 0.0).all()

    def test_log_ratio_value(self):
        state = TransformState(anchor_close=100.0)
        z_high = log_price_transform([100.0, 115.0], state)
        z_close = log_price_transform([100.0, 110.0], state)
        delta = cross_variable_delta(z_high, z_close)
        assert delta[1] == pytest.approx(LN_115_110, abs=1e-12)

    def test_non_negative_when_high_dominates(self, rng):
        close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 300)))
        high = close * np.exp(np.abs(rng.normal(0.0, 0.005, 300)))
        state = TransformState(anchor_close=close[0])
        delta = cross_variable_delta(
            log_price_transform(high, state), log_price_transform(close, state)
        )
        assert (delta >= 0).all()

    def test_matches_raw_log_ratio(self, rng):
        close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 1000)))
        high = close * np.exp(np.abs(rng.normal(0.0, 0.005, 1000)))
        state = TransformState(anchor_close=close[0])
        delta = cross_variable_delta(
            log_price_transform(high, state), log_price_transform(close, state)
        )
        np.testing.assert_allclose(delta, np.log(high / close), rtol=0, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(TransformError, match="shapes"):
            cross_variable_delta([1.0, 2.0], [1.0])


class TestProperties:
    def test_additivity_of_log_returns(self, rng):
        close = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, 400)))
        state = TransformState(anchor_close=close[0])
        z = log_price_transform(close, state)
        step_log_returns = np.log(close[1:] / close[:-1])
        np.testing.assert_allclose(
            z[1:] - z[0], np.cumsum(step_log_returns), rtol=0, atol=1e-9
        )

    def test_differences_independent_of_baseline(self, rng):
        close = 80.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, 100)))
        z0 = log_price_transform(close, TransformState(close[0], baseline=0.0))
        z100 = log_price_transform(close, TransformState(close[0], baseline=100.0))
        np.testing.assert_allclose(
            z0 - z0[0], z100 - z100[0], rtol=0, atol=1e-12
        )


class TestClassifyVariable:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("close_SPX", ("price", "SPX")),
            ("open_future", ("price", "future")),
            ("taker_buy_volume_future", ("volume", "future")),
            ("volume_SPX", ("volume", "SPX")),
            ("volume", ("volume", "")),
            ("close", ("price", "")),
            ("iv_call", ("other", "call")),
            ("risk_free", ("other", "free")),
        ],
    )
    def test_cases(self, name, expected):
        assert classify_variable(name) == expected


class TestPanelTransforms:
    def test_first_close_hits_baseline_exactly(self):
        panel = ohlcv_panel(50, seed=3, assets=("A", "B"))
        transformed, _ = transform_panel(panel)
        for asset in ("A", "B"):
            assert transformed.column(f"close_{asset}")[0] == 100.0

    def test_price_columns_share_the_close_anchor(self):
        panel = ohlcv_panel(50, seed=4, assets=("A",))
        transformed, records = transform_panel(panel)
        by_var = {r.variable: r for r in records}
        anchor = panel.column("close_A")[0]
        for name in ("open_A", "high_A", "low_A", "close_A"):
            assert by_var[name].kind == "price"
            assert by_var[name].anchor_close == anchor
        expected = np.log(panel.column("high_A") / anchor) + 100.0
        np.testing.assert_allclose(transformed.column("high_A"), expected, atol=1e-12)

    def test_volume_column_uses_log1p(self):
        panel = ohlcv_panel(50, seed=5)
        transformed, _ = transform_panel(panel)
        np.testing.assert_allclose(
            transformed.column("volume_X"), np.log1p(panel.column("volume_X"))
        )

    def test_other_columns_pass_through(self):
        values = np.column_stack([np.linspace(100, 110, 20), np.linspace(0.01, 0.02, 20)])
        panel = Panel(range(20), ("close_A", "risk_free"), values)
        transformed, records = transform_panel(panel)
        np.testing.assert_array_equal(
            transformed.column("risk_free"), panel.column("risk_free")
        )
        assert {r.kind for r in records} == {"price", "other"}

    def test_missing_close_rejected(self):
        panel = Panel(range(5), ("open_A",), np.full((5, 1), 10.0))
        with pytest.raises(TransformError, match="close"):
            transform_panel(panel)

    def test_non_positive_first_close_names_the_column(self):
        values = np.column_stack([np.full(5, 10.0), np.r_[0.0, np.full(4, 10.0)]])
        panel = Panel(range(5), ("open_A", "close_A"), values)
        with pytest.raises(TransformError,
                           match=r"^column 'open_A': anchor close must be positive, got 0\.0$"):
            transform_panel(panel)

    def test_faults_are_reported_in_column_order(self):
        values = np.column_stack([np.full(5, -1.0), np.full(5, 10.0)])
        panel = Panel(range(5), ("volume_A", "open_B"), values)
        with pytest.raises(TransformError, match="^column 'volume_A': volumes must"):
            transform_panel(panel)

    def test_inverse_round_trip(self):
        panel = ohlcv_panel(120, seed=6, assets=("A", "B"))
        transformed, records = transform_panel(panel)
        back = inverse_transform_panel(transformed, records)
        np.testing.assert_allclose(back.values, panel.values, rtol=1e-9, atol=1e-9)

    def test_missing_record_rejected(self):
        panel = ohlcv_panel(20, seed=7)
        transformed, records = transform_panel(panel)
        with pytest.raises(TransformError, match="record"):
            inverse_transform_panel(transformed, records[:-1])


@st.composite
def positive_panels(draw):
    """Price, volume and other columns for one to three assets; volumes may be 0."""
    names = []
    for asset in draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=3, unique=True)):
        fields = draw(st.lists(st.sampled_from(["open", "high", "low", "volume"]), unique=True))
        names += [f"{field}_{asset}" for field in ["close", *fields]]
    names += draw(st.lists(st.sampled_from(["risk_free", "spread"]), unique=True))
    shape = (draw(st.integers(1, 20)), len(names))
    values = draw(arrays(float, shape, elements=st.floats(1e-6, 1e9)))
    volume = np.array(["volume" in name for name in names])
    values[:, volume] *= draw(arrays(bool, shape))[:, volume]
    return Panel(range(shape[0]), tuple(names), values)


@settings(max_examples=60, deadline=None)
@given(panel=positive_panels(), baseline=st.floats(-1e3, 1e3))
def test_transform_round_trips_on_random_positive_panels(panel, baseline):
    transformed, records = transform_panel(panel, baseline=baseline)
    back = inverse_transform_panel(transformed, records)
    assert back.timestamps == panel.timestamps
    assert back.variables == panel.variables
    np.testing.assert_allclose(back.values, panel.values, rtol=1e-12, atol=0)


class TestAnchorSidecar:
    def test_round_trip(self, tmp_path):
        panel = ohlcv_panel(30, seed=8, assets=("A", "B"))
        _, records = transform_panel(panel, baseline=50.0)
        path = tmp_path / "anchors.csv"
        write_anchor_file(path, records, header_comments=["#seed=0"])
        assert load_anchor_file(path) == records

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "anchors.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(FormatError, match="header"):
            load_anchor_file(path)

    def test_price_without_anchor_rejected(self, tmp_path):
        path = tmp_path / "anchors.csv"
        path.write_text("variable,kind,asset,anchor_close,baseline\nclose_A,price,A,,100.0\n")
        with pytest.raises(FormatError, match="anchor"):
            load_anchor_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="no such"):
            load_anchor_file(tmp_path / "absent.csv")
