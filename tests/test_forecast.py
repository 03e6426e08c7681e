import sys
import tracemalloc

import numpy as np
import pytest

from finpipe import (
    Panel,
    WindowSpec,
    load_forecasts,
    make_batch,
    ms_ic,
    naive_forecast,
    per_pair_corr,
    read_metadata,
    sliding_windows,
    write_csv,
    write_forecasts,
)
from finpipe import table
from finpipe.cli import main
from finpipe.errors import AlignError, FormatError
from ranges import assert_no_worker_left, in_ranges, without_twin
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

    @pytest.mark.parametrize("redraw_per_step", [True, False])
    @pytest.mark.parametrize("noise_std", [0.0, 0.001, 3.0])
    def test_bits_are_last_plus_noise(self, windows, redraw_per_step, noise_std):
        # The last values are added into the noise draw; float addition
        # commutes, so every bit is the repeat-then-add formula's.
        last = windows.last_observed
        expected = np.repeat(last[:, None, :], 5, axis=1).astype(float)
        if noise_std > 0:
            b, c = last.shape
            shape = (b, 5, c) if redraw_per_step else (b, 1, c)
            expected += np.random.default_rng(4).normal(0.0, noise_std, size=shape)
        preds = naive_forecast(windows, 5, noise_std, seed=4, redraw_per_step=redraw_per_step)
        assert preds.dtype == expected.dtype and preds.shape == expected.shape
        assert preds.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kwargs, bound", [({}, 1.25), ({"redraw_per_step": False}, 1.5),
                                               ({"noise_std": 0.0}, 1.5)])
    def test_the_forecast_is_the_one_array_of_its_size(self, kwargs, bound):
        # The m2m_eval shape: 6017 windows, H=5, 20 channels, 4.8 MB a forecast.
        # Traced peak over the forecast's bytes: 2.20 in each case when a
        # repeat, its float copy and the noise were alive together; then 1.21
        # (noise, last values and a ufunc buffer), and 1.40 with shared or no
        # noise, where the last values are repeated from a (B, 1, C) array.
        # Now that the last values view the panel: 1.01, and 1.20.
        rng = np.random.default_rng(5)
        names = tuple(f"v{i}" for i in range(20))
        windows = sliding_windows(Panel(range(6533), names, rng.normal(size=(6533, 20))),
                                  WindowSpec(512, 5))
        preds = naive_forecast(windows, 5, **kwargs)
        assert traced_peak(naive_forecast, windows, 5, **kwargs) < bound * preds.nbytes


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

    def test_a_whole_all_target_file_views_the_panel(self, tmp_path):
        # Every window and every panel variable: the batch's truth and last
        # values are views of the panel; the last values were a (B, C) copy
        # at the parent (np.shares_memory False). A subset still copies.
        panel = random_walk_panel(40, 3, seed=11)
        windows = sliding_windows(panel, WindowSpec(10, 5))
        path = tmp_path / "fc.csv"
        write_forecasts(path, make_batch(windows, naive_forecast(windows, 5, seed=3)), 10)
        batch = load_forecasts(path, windows)
        assert np.shares_memory(batch.y_true, panel.values)
        assert np.shares_memory(batch.last_observed, panel.values)
        np.testing.assert_array_equal(batch.last_observed, panel.values[9:35])
        head, body = path.read_text().split("sample_id,step,variable,y_pred\n")
        path.write_text(head + "sample_id,step,variable,y_pred\n"
                        + "".join(line + "\n" for line in body.splitlines()
                                  if not line.startswith("0,")))
        batch = load_forecasts(path, windows)
        assert not np.shares_memory(batch.last_observed, panel.values)
        np.testing.assert_array_equal(batch.last_observed, panel.values[10:35])

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

    @pytest.mark.parametrize("line", ["   ", " #H=5"])
    def test_a_whitespace_or_indented_comment_line_ends_the_head(self, tmp_path, capsys,
                                                                 windows, line):
        # csv.reader reads such a line as a row, so it is the table's header;
        # the metadata reader stops there too and never sees the #H below it.
        path, truth = tmp_path / "fc.csv", tmp_path / "truth.csv"
        write_forecasts(path, make_batch(windows, naive_forecast(windows, 5, seed=3)), 10)
        first, rest = path.read_text().split("\n", 1)
        path.write_text(f"{first}\n{line}\n{rest}")
        assert read_metadata(path) == {"L": 10}
        with pytest.raises(FormatError, match="missing #H header"):
            load_forecasts(path, windows)
        write_csv(random_walk_panel(40, 3, seed=11), truth)
        assert main(["evaluate", "--truth", str(truth), "--forecasts", str(path),
                     "--output", str(tmp_path / "m.csv")]) == 1
        assert "forecast file lacks #L/#H headers" in capsys.readouterr().err

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
            without_twin(path)
            tracemalloc.start()
            try:
                batch = load_forecasts(path, windows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert batch.y_pred.size == n_windows * 20
        assert peaks[0] < 12e6
        assert (peaks[1] - peaks[0]) / (6017 * 20) < 64


CLOSES = tuple(f"close_{asset}" for asset in ("SPX", "NDX", "DJI", "RUT"))


def close_windows(n_windows):
    """Truth windows of the close_backtest shape: L=512, H=5 over four closes."""
    rng = np.random.default_rng(1)
    panel = Panel(range(n_windows + 516), CLOSES, rng.normal(100.0, 1.0, (n_windows + 516, 4)))
    return sliding_windows(panel, WindowSpec(512, 5, CLOSES))


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestForecastReadMemory:
    def test_peak_grows_by_the_grid_not_the_records(self, tmp_path):
        # A read keeps each record in the (sample, step, variable) grid only:
        # 8 B of value and 1 B of mask, with at most as many rows again while
        # the grid doubles. Whole-file record columns took 43.1 B a record.
        peaks = []
        for n_windows in (6017, 2 * 6017):
            windows = close_windows(n_windows)
            path = tmp_path / f"fc{n_windows}.csv"
            write_forecasts(path, make_batch(windows, naive_forecast(windows, 5, seed=1)), 512)
            peaks.append(traced_peak(load_forecasts, path, windows))
        assert (peaks[1] - peaks[0]) / (6017 * 20) < 24

    def test_a_file_naming_few_samples_keeps_few_rows(self, tmp_path):
        # Three samples spread over a 12k-window truth: the grid holds three
        # rows, not one per window. The bound is the traced peak of the
        # record-column reader on this file, most of it the last inputs of
        # every window.
        windows = close_windows(2 * 6017)
        path = tmp_path / "fc.csv"
        _write_records(path, [(s, t, v, 1.5) for s in (0, 6000, 2 * 6017 - 1)
                              for t in range(1, 6) for v in CLOSES], input_len=512)
        batch = load_forecasts(path, windows)
        np.testing.assert_array_equal(batch.sample_order, [0, 6000, 2 * 6017 - 1])
        assert traced_peak(load_forecasts, path, windows) < 490_345

    def test_the_grid_grows_under_a_profiler(self, tmp_path, monkeypatch, windows):
        # The grid's rows grow in place; a profiler holds a reference to the
        # array being grown, which numpy's reference check would refuse.
        path = tmp_path / "fc.csv"
        preds = naive_forecast(windows, 5, seed=3)
        write_forecasts(path, make_batch(windows, preds), 10)
        without_twin(path)
        monkeypatch.setattr(table, "BLOCK_BYTES", 64)  # a few records a block: many growths
        sys.setprofile(lambda *args: None)
        try:
            batch = load_forecasts(path, windows)
        finally:
            sys.setprofile(None)
        np.testing.assert_array_equal(batch.y_pred, preds)


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

    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    @pytest.mark.parametrize("record", [(0, 1, "zzz", 2.0), (999, 1, "v0", 2.0)])
    def test_a_duplicate_off_the_grid_is_named(self, tmp_path, monkeypatch, windows, record,
                                               count):
        # The only duplicate is two records off the grid, an unknown variable's or an
        # out-of-range sample's, one above the others and one below, in another range.
        records = [record, *self._full_records(range(len(windows))), record]
        path = tmp_path / "fc.csv"
        _write_records(path, records)
        sample, step, name, _ = record
        with monkeypatch.context() as patch:
            in_ranges(patch, count)
            with pytest.raises(FormatError, match=f"duplicate record for sample {sample}, "
                                                  f"step {step}, variable '{name}'$"):
                load_forecasts(path, windows)
        assert_no_worker_left()

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
