import tracemalloc

import numpy as np
import pytest

from finpipe import (
    WindowSpec,
    load_forecasts,
    make_batch,
    ms_ic,
    naive_forecast,
    per_pair_corr,
    read_metadata,
    sliding_windows,
    write_forecasts,
)
from finpipe.errors import AlignError, FormatError
from synth import ohlcv_panel, random_walk_panel


@pytest.fixture
def windows():
    panel = random_walk_panel(40, 3, seed=11)
    return sliding_windows(panel, WindowSpec(10, 5, ("v0", "v2")))


class TestNaiveForecast:
    def test_zero_noise_repeats_last_value(self, windows):
        preds = naive_forecast(windows, 5, noise_std=0.0, seed=1)
        assert preds.shape == (len(windows), 5, 2)
        expected = np.repeat(windows.last_observed[:, None, :], 5, axis=1)
        np.testing.assert_array_equal(preds, expected)

    def test_seed_reproducibility(self, windows):
        a = naive_forecast(windows, 5, seed=42)
        b = naive_forecast(windows, 5, seed=42)
        c = naive_forecast(windows, 5, seed=43)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_default_noise_magnitude(self, windows):
        preds = naive_forecast(windows, 5, seed=7)
        residual = preds - np.repeat(windows.last_observed[:, None, :], 5, axis=1)
        assert 0.0 < np.abs(residual).max() < 0.01  # ~N(0, 0.001)

    def test_shared_noise_constant_over_horizon(self, windows):
        preds = naive_forecast(windows, 5, seed=7, redraw_per_step=False)
        assert (np.ptp(preds, axis=1) == 0.0).all()
        per_step = naive_forecast(windows, 5, seed=7, redraw_per_step=True)
        assert (np.ptp(per_step, axis=1) > 0.0).all()

    def test_zero_noise_gives_zero_correlation(self, windows):
        preds = naive_forecast(windows, 5, noise_std=0.0, seed=1)
        batch = make_batch(windows, preds)
        for i in range(len(windows)):
            for j in range(2):
                assert per_pair_corr(batch.y_true[i, :, j], batch.y_pred[i, :, j]) == 0.0
        assert ms_ic(batch) == 0.0

    def test_horizon_mismatch_rejected(self, windows):
        with pytest.raises(AlignError, match="horizon"):
            naive_forecast(windows, 7)

    def test_negative_noise_rejected(self, windows):
        with pytest.raises(ValueError, match="noise_std"):
            naive_forecast(windows, 5, noise_std=-0.1)


class TestForecastFileRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path, windows):
        preds = naive_forecast(windows, 5, seed=3)
        batch = make_batch(windows, preds)
        path = tmp_path / "fc.csv"
        write_forecasts(path, batch, input_len=10, model="naive")
        loaded = load_forecasts(path, windows)
        np.testing.assert_array_equal(loaded.y_pred, batch.y_pred)
        np.testing.assert_array_equal(loaded.y_true, batch.y_true)
        np.testing.assert_array_equal(loaded.sample_order, batch.sample_order)
        assert loaded.variables == batch.variables
        assert loaded.origins == batch.origins
        np.testing.assert_array_equal(loaded.last_observed, batch.last_observed)

    def test_metadata_header(self, tmp_path, windows):
        preds = naive_forecast(windows, 5, seed=3)
        path = tmp_path / "fc.csv"
        write_forecasts(path, make_batch(windows, preds), input_len=10, model="demo",
                        header_comments=["#seed=3"])
        meta = read_metadata(path)
        assert meta["L"] == 10
        assert meta["H"] == 5
        assert meta["model"] == "demo"
        assert meta["variables"] == ("v0", "v2")
        assert meta["seed"] == "3"

    def test_subset_of_samples(self, tmp_path, windows):
        preds = naive_forecast(windows, 5, seed=3)
        batch = make_batch(windows, preds)
        path = tmp_path / "fc.csv"
        lines = ["#L=10", "#H=5", "#model=ext", "sample_id,step,variable,y_pred"]
        for sample_id in (2, 5, 9):
            for step in range(1, 6):
                for j, var in enumerate(("v0", "v2")):
                    lines.append(
                        f"{sample_id},{step},{var},{float(batch.y_pred[sample_id, step - 1, j])!r}"
                    )
        path.write_text("\n".join(lines) + "\n")
        loaded = load_forecasts(path, windows)
        np.testing.assert_array_equal(loaded.sample_order, [2, 5, 9])
        np.testing.assert_array_equal(loaded.y_pred, batch.y_pred[[2, 5, 9]])
        np.testing.assert_array_equal(loaded.y_true, batch.y_true[[2, 5, 9]])

    def test_memory_holds_typed_columns_not_cells(self, tmp_path):
        # The close_backtest shape: 6017 windows of L=512, H=5 over four
        # closes, 120,340 records. Reading the file whole took a traced
        # 32.4 MB, about 270 B a record, most of it str cells. In blocks only
        # the typed columns (32 B a record, kept with some room) and one
        # packed key for the duplicate check grow with the file.
        closes = tuple(f"close_{asset}" for asset in ("SPX", "NDX", "DJI", "RUT"))
        peaks = []
        for n_windows in (6017, 2 * 6017):
            panel = ohlcv_panel(n_windows + 516, seed=1, assets=("SPX", "NDX", "DJI", "RUT"))
            windows = sliding_windows(panel, WindowSpec(512, 5, closes))
            path = tmp_path / f"fc{n_windows}.csv"
            write_forecasts(path, make_batch(windows, naive_forecast(windows, 5, seed=1)), 512)
            tracemalloc.start()
            try:
                batch = load_forecasts(path, windows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert batch.y_pred.size == n_windows * 20
        assert peaks[0] < 12e6
        assert (peaks[1] - peaks[0]) / (6017 * 20) < 64


def _write_records(path, records, horizon=5, input_len=10):
    lines = [f"#L={input_len}", f"#H={horizon}", "#model=x",
             "sample_id,step,variable,y_pred"]
    lines += [f"{s},{t},{v},{val}" for s, t, v, val in records]
    path.write_text("\n".join(lines) + "\n")


class TestForecastFileValidation:
    def _full_records(self, samples, horizon=5, variables=("v0", "v2")):
        return [
            (s, t, v, 1.0)
            for s in samples
            for t in range(1, horizon + 1)
            for v in variables
        ]

    def test_missing_step_named(self, tmp_path, windows):
        records = [r for r in self._full_records([7]) if not (r[0] == 7 and r[1] == 3 and r[2] == "v0")]
        path = tmp_path / "fc.csv"
        _write_records(path, records)
        with pytest.raises(FormatError, match=r"step 3 of sample 7"):
            load_forecasts(path, windows)

    def test_duplicate_triple_rejected(self, tmp_path, windows):
        records = self._full_records([0]) + [(0, 1, "v0", 2.0)]
        path = tmp_path / "fc.csv"
        _write_records(path, records)
        with pytest.raises(FormatError, match="duplicate"):
            load_forecasts(path, windows)

    def test_horizon_mismatch_rejected(self, tmp_path, windows):
        path = tmp_path / "fc.csv"
        _write_records(path, self._full_records([0], horizon=21), horizon=21)
        with pytest.raises(AlignError, match="horizon 21"):
            load_forecasts(path, windows)

    def test_input_len_mismatch_rejected(self, tmp_path, windows):
        path = tmp_path / "fc.csv"
        _write_records(path, self._full_records([0]), input_len=512)
        with pytest.raises(AlignError, match="input length"):
            load_forecasts(path, windows)

    def test_unknown_variable_rejected(self, tmp_path, windows):
        path = tmp_path / "fc.csv"
        _write_records(path, self._full_records([0], variables=("v0", "nope")))
        with pytest.raises(AlignError, match="nope"):
            load_forecasts(path, windows)

    def test_sample_out_of_range_rejected(self, tmp_path, windows):
        path = tmp_path / "fc.csv"
        _write_records(path, self._full_records([999]))
        with pytest.raises(AlignError, match="999"):
            load_forecasts(path, windows)

    def test_malformed_row_rejected(self, tmp_path, windows):
        path = tmp_path / "fc.csv"
        _write_records(path, [(0, "x", "v0", 1.0)])
        with pytest.raises(FormatError, match="malformed"):
            load_forecasts(path, windows)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_prediction_names_its_row(self, tmp_path, windows, bad):
        records = self._full_records([0, 1])
        records[12] = records[12][:3] + (bad,)  # the 13th record is file row 14
        path = tmp_path / "fc.csv"
        _write_records(path, records)
        message = f"non-finite value '{bad}' at row 14, column 'y_pred'"
        with pytest.raises(FormatError, match=message):
            load_forecasts(path, windows)

    def test_errors_keep_file_order_around_a_non_finite_prediction(self, tmp_path, windows):
        records = self._full_records([0])
        path = tmp_path / "fc.csv"
        _write_records(path, records[:3] + [(0, 1, "v0", "nan"), (0, 1, "v0", 2.0)])
        with pytest.raises(FormatError, match="non-finite value 'nan' at row 5"):
            load_forecasts(path, windows)
        _write_records(path, records[:3] + [(0, 1, "v0", 2.0), (0, 1, "v0", "nan")])
        with pytest.raises(FormatError, match="duplicate record for sample 0, step 1"):
            load_forecasts(path, windows)
        _write_records(path, records[:3] + [(0, "x", "v0", "nan")])
        with pytest.raises(FormatError, match="row 5: malformed record"):
            load_forecasts(path, windows)

    def test_missing_header_rejected(self, tmp_path, windows):
        path = tmp_path / "fc.csv"
        path.write_text("sample_id,step,variable,y_pred\n0,1,v0,1.0\n")
        with pytest.raises(FormatError, match="#H"):
            load_forecasts(path, windows)

    @pytest.mark.parametrize("step", [0, 6])
    def test_record_off_the_step_grid_counted(self, tmp_path, windows, step):
        path = tmp_path / "fc.csv"
        _write_records(path, self._full_records([0]) + [(0, step, "v0", 1.0)])
        message = r"1 record\(s\) outside the sample/step/variable grid"
        with pytest.raises(FormatError, match=message):
            load_forecasts(path, windows)

    def test_wrong_record_header_rejected(self, tmp_path, windows):
        path = tmp_path / "fc.csv"
        path.write_text("#L=10\n#H=5\nsample,step,variable,y_pred\n0,1,v0,1.0\n")
        with pytest.raises(FormatError, match="expected header sample_id,step,variable,y_pred"):
            load_forecasts(path, windows)

    def test_non_integer_horizon_header_rejected(self, tmp_path):
        path = tmp_path / "fc.csv"
        path.write_text("#L=10\n#H=x\nsample_id,step,variable,y_pred\n0,1,v0,1.0\n")
        with pytest.raises(FormatError, match="header #H='x' is not an integer"):
            read_metadata(path)

    def test_prediction_shape_checked_in_make_batch(self, windows):
        with pytest.raises(AlignError, match="shape"):
            make_batch(windows, np.zeros((1, 5, 2)))
