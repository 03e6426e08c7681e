import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

from finpipe import ForecastBatch, mae, metrics, ms_ic, ms_ir, mse, per_pair_corr, per_sample_ic
from finpipe.errors import DegenerateDispersionError, MetricError
from oracle_utils import ms_ic_oracle, ms_ir_oracle, spearman


def _batch(y_true, y_pred, **kwargs):
    return ForecastBatch(np.asarray(y_true, float), np.asarray(y_pred, float), **kwargs)


def _values_with_rank_order(rank_order):
    """A vector whose rank vector equals `rank_order` (10 * rank works)."""
    return [10.0 * r for r in rank_order]


class TestBatchValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricError, match="shape"):
            _batch(np.zeros((2, 3, 1)), np.zeros((2, 4, 1)))

    def test_wrong_rank_rejected(self):
        with pytest.raises(MetricError, match=r"B, F, C"):
            _batch(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_sample_order_must_increase(self):
        with pytest.raises(MetricError, match="increasing"):
            _batch(np.zeros((2, 3, 1)), np.zeros((2, 3, 1)), sample_order=np.array([1, 0]))

    def test_last_observed_shape_checked(self):
        with pytest.raises(MetricError, match="last_observed"):
            _batch(np.zeros((2, 3, 1)), np.zeros((2, 3, 1)), last_observed=np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["y_true", "y_pred"])
    def test_non_finite_values_rejected(self, field, bad):
        tensors = {"y_true": np.zeros((2, 3, 1)), "y_pred": np.zeros((2, 3, 1))}
        tensors[field][1, 2, 0] = bad
        message = rf"{field} must be finite, got {bad} at index \(1, 2, 0\)"
        with pytest.raises(MetricError, match=message):
            _batch(**tensors)


class TestPointwiseErrors:
    def test_perfect_prediction(self, rng):
        y = rng.normal(size=(4, 5, 2))
        batch = _batch(y, y.copy())
        assert mse(batch) == 0.0
        assert mae(batch) == 0.0

    def test_constant_error(self):
        batch = _batch(np.zeros((3, 4, 2)), np.full((3, 4, 2), 2.0))
        assert mse(batch) == 4.0
        assert mae(batch) == 2.0

    def test_two_element_mean(self):
        # Errors {1, -3}: MSE (1 + 9) / 2 = 5, MAE (1 + 3) / 2 = 2.
        y_true = np.zeros((1, 2, 1))
        y_pred = np.array([1.0, -3.0]).reshape(1, 2, 1)
        batch = _batch(y_true, y_pred)
        assert mse(batch) == 5.0
        assert mae(batch) == 2.0

    def test_non_negative_and_zero_iff_equal(self, rng):
        y = rng.normal(size=(3, 4, 2))
        p = y + rng.normal(scale=0.1, size=y.shape)
        batch = _batch(y, p)
        assert mse(batch) > 0.0
        assert mae(batch) > 0.0


class TestPerPairCorr:
    def test_identity_is_exactly_one(self, rng):
        y = rng.normal(size=8)
        assert per_pair_corr(y, y.copy()) == 1.0

    def test_reversal_is_minus_one(self, rng):
        y = np.sort(rng.normal(size=7))
        assert per_pair_corr(y, y[::-1].copy()) == pytest.approx(-1.0, abs=1e-15)

    def test_constant_prediction_is_zero(self, rng):
        y = rng.normal(size=6)
        assert per_pair_corr(y, np.full(6, 3.17)) == 0.0

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(200):
            f = int(rng.integers(2, 9))
            y = rng.normal(size=f)
            p = rng.normal(size=f)
            if rng.random() < 0.5:  # force ties
                y = np.round(y, 1)
                p = np.round(p, 1)
            assert per_pair_corr(y, p) == pytest.approx(spearman(y, p), abs=1e-12)

    def test_rank_invariance(self, rng):
        y = rng.normal(size=8)
        p = rng.normal(size=8)
        assert per_pair_corr(y, np.exp(p)) == pytest.approx(
            per_pair_corr(y, p), abs=1e-12
        )

    def test_too_short_rejected(self):
        with pytest.raises(MetricError, match="horizon"):
            per_pair_corr([1.0], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricError, match="lengths"):
            per_pair_corr([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(MetricError, match="y_pred must be finite"):
            per_pair_corr([1.0, 2.0, 3.0], [1.0, bad, 3.0])
        with pytest.raises(MetricError, match="y must be finite"):
            per_pair_corr([bad, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_pearson_flag(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert per_pair_corr(y, 2.5 * y + 1.0, method="pearson") == pytest.approx(1.0)
        with pytest.raises(MetricError, match="method"):
            per_pair_corr(y, y, method="kendall")


class TestMsIC:
    def test_perfect_prediction_is_one(self, rng):
        y = rng.normal(size=(5, 6, 3))
        assert ms_ic(_batch(y, y.copy())) == 1.0

    def test_repeat_last_prediction_is_zero(self, rng):
        # Constant predictions have zero rank variance in every pair.
        y = rng.normal(size=(5, 6, 3))
        p = np.broadcast_to(y[:, :1, :], y.shape).copy()
        assert ms_ic(_batch(y, p)) == 0.0

    def test_equals_mean_of_per_sample(self, rng):
        y = rng.normal(size=(7, 5, 2))
        p = rng.normal(size=(7, 5, 2))
        batch = _batch(y, p)
        per_sample = per_sample_ic(batch)
        assert ms_ic(batch) == pytest.approx(per_sample.mean(), abs=1e-12)
        flat = np.array(
            [per_pair_corr(y[i, :, j], p[i, :, j]) for i in range(7) for j in range(2)]
        )
        assert ms_ic(batch) == pytest.approx(flat.mean(), abs=1e-12)

    def test_matches_bruteforce_oracle(self, rng):
        y = rng.normal(size=(4, 6, 2))
        p = rng.normal(size=(4, 6, 2))
        assert ms_ic(_batch(y, p)) == pytest.approx(
            ms_ic_oracle(y.tolist(), p.tolist()), abs=1e-12
        )

    def test_monotone_transform_invariance(self, rng):
        y = rng.normal(size=(5, 6, 2))
        p = rng.normal(size=(5, 6, 2))
        batch_a = _batch(y, p)
        batch_b = _batch(y, np.exp(p) + p**3)
        assert ms_ic(batch_a) == pytest.approx(ms_ic(batch_b), abs=1e-12)

    def test_bounded(self, rng):
        y = rng.normal(size=(10, 5, 2))
        p = rng.normal(size=(10, 5, 2))
        assert -1.0 <= ms_ic(_batch(y, p)) <= 1.0


class TestMsIR:
    def test_identical_per_sample_values_degenerate(self, rng):
        y = rng.normal(size=(4, 6, 2))
        with pytest.raises(DegenerateDispersionError):
            ms_ir(_batch(y, y.copy()))

    def test_single_sample_degenerate(self, rng):
        y = rng.normal(size=(1, 6, 2))
        p = rng.normal(size=(1, 6, 2))
        with pytest.raises(DegenerateDispersionError):
            ms_ir(_batch(y, p))

    def test_symmetric_per_sample_values(self):
        # Sample correlations {+0.2, -0.2}: mean 0, population std 0.2, ratio 0.
        truth_ranks = [1, 2, 3, 4]
        y = np.zeros((2, 4, 2))
        p = np.zeros((2, 4, 2))
        y[:, :, 0] = _values_with_rank_order(truth_ranks)
        y[:, :, 1] = _values_with_rank_order(truth_ranks)
        # rank vector (1,4,3,2) vs truth: sum d^2 = 8 -> rho = +0.2
        p[0, :, 0] = _values_with_rank_order([1, 4, 3, 2])
        p[0, :, 1] = _values_with_rank_order([1, 4, 3, 2])
        p[1, :, 0] = _values_with_rank_order([4, 1, 2, 3])  # sum d^2 = 12 -> -0.2
        p[1, :, 1] = _values_with_rank_order([4, 1, 2, 3])
        batch = _batch(y, p)
        np.testing.assert_allclose(per_sample_ic(batch), [0.2, -0.2], atol=1e-12)
        assert ms_ic(batch) == pytest.approx(0.0, abs=1e-12)
        assert ms_ir(batch) == pytest.approx(0.0, abs=1e-12)

    def test_direct_evaluation_case(self):
        # Per-sample means {0.1, 0.3} -> msIC 0.2, population std 0.1, msIR 2.0.
        truth_ranks = [1, 2, 3, 4]
        y = np.zeros((2, 4, 2))
        p = np.zeros((2, 4, 2))
        y[:, :, 0] = _values_with_rank_order(truth_ranks)
        y[:, :, 1] = _values_with_rank_order(truth_ranks)
        p[0, :, 0] = _values_with_rank_order([3, 1, 2, 4])  # sum d^2 = 6  -> +0.4
        p[0, :, 1] = _values_with_rank_order([2, 3, 4, 1])  # sum d^2 = 12 -> -0.2
        p[1, :, 0] = _values_with_rank_order([3, 1, 2, 4])  # +0.4
        p[1, :, 1] = _values_with_rank_order([1, 4, 3, 2])  # sum d^2 = 8  -> +0.2
        batch = _batch(y, p)
        np.testing.assert_allclose(per_sample_ic(batch), [0.1, 0.3], atol=1e-12)
        assert ms_ic(batch) == pytest.approx(0.2, abs=1e-12)
        assert ms_ir(batch) == pytest.approx(2.0, abs=1e-12)

    def test_matches_bruteforce_oracle(self, rng):
        y = rng.normal(size=(6, 5, 2))
        p = rng.normal(size=(6, 5, 2))
        assert ms_ir(_batch(y, p)) == pytest.approx(
            ms_ir_oracle(y.tolist(), p.tolist()), abs=1e-12
        )


@st.composite
def tied_tensors(draw):
    """Finite (B, F, C) tensors with many ties: small integers and constant rows."""
    b, c = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    f = draw(st.just(2) | st.integers(2, 12))
    elements = st.integers(-2, 2).map(float) | st.floats(-1e3, 1e3)
    x = draw(arrays(np.float64, (b, f, c), elements=elements))
    constant = draw(arrays(bool, (b, 1, c)))
    return np.where(constant, x[:, :1, :], x)


class TestAverageRank:
    @settings(max_examples=300, deadline=None)
    @given(x=tied_tensors())
    def test_equals_scipy_rankdata(self, x):
        np.testing.assert_array_equal(metrics._average_rank(x),
                                      rankdata(x, method="average", axis=1))

    def test_long_horizon(self, rng):
        x = rng.integers(0, 40, size=(3, 5000, 2)).astype(float)
        np.testing.assert_array_equal(metrics._average_rank(x),
                                      rankdata(x, method="average", axis=1))
