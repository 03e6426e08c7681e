import tracemalloc
from datetime import date, datetime, time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finpipe import (
    Panel,
    SplitSpec,
    WindowSpec,
    chronological_split,
    load_csv,
    sliding_windows,
    write_csv,
)
from finpipe import frame, table
from finpipe.errors import IngestError, SplitError, WindowError


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


INT_LABELS = st.builds(str.format, st.sampled_from(["{}", "{:+}", "{:_}", "{:05}", "{:+07_}"]),
                       st.one_of(st.integers(-12, 12), st.integers(-12_000, 12_000)))
DATE_LABELS = st.builds(
    lambda form, day, hour: datetime.combine(day, time(hour)).strftime(form),
    st.sampled_from(["%Y-%m-%d", "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M", "%Y-%m-%dT%H",
                     "%Y%m%d", "%Y-%m-%dT%H:%M+01:00"]),
    st.dates(date(2023, 12, 30), date(2024, 1, 3)), st.sampled_from([0, 0, 9]))
ANY_LABEL = st.one_of(INT_LABELS, DATE_LABELS, st.sampled_from(["x", "5-", "1-2", "2024-13-01"]))


def _reference_key(label):
    """A label's key by the rules alone: int() if it takes it, else ISO-8601."""
    try:
        return int(label)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(label)
    except ValueError:
        raise IngestError(
            f"timestamp {label!r} is neither an integer index nor ISO-8601") from None


def _reference_load(path, labels):
    """(labels, row numbers) of a one-column panel in key order, or load_csv's IngestError."""
    keys = [_reference_key(label) for label in labels]
    try:
        order = sorted(range(len(labels)), key=lambda i: keys[i])
    except TypeError:
        raise IngestError(f"{path}: timestamps mix integer and calendar labels") from None
    if any(keys[i] == keys[j] for i, j in zip(order, order[1:])):
        raise IngestError("timestamps must be strictly increasing with no duplicates")
    return tuple(labels[i] for i in order), [float(i) for i in order]


class TestLoadCsv:
    def test_three_rows_two_variables(self, tmp_path):
        path = _write(tmp_path, "timestamp,a,b\n0,1.5,2\n1,2.5,3\n2,3.5,4\n")
        panel = load_csv(path)
        assert panel.timestamps == ("0", "1", "2")
        assert panel.variables == ("a", "b")
        assert panel.values.shape == (3, 2)
        assert panel.values[2, 0] == 3.5

    def test_rows_sorted_by_timestamp(self, tmp_path):
        path = _write(tmp_path, "timestamp,a\n2,30\n0,10\n1,20\n")
        panel = load_csv(path)
        assert panel.timestamps == ("0", "1", "2")
        assert list(panel.values[:, 0]) == [10.0, 20.0, 30.0]

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = _write(tmp_path, "timestamp,a\n0,1\n1,2\n1,3\n")
        with pytest.raises(IngestError, match="strictly increasing"):
            load_csv(path)

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = _write(tmp_path, "timestamp,a,b\n0,1,2\n1,3,oops\n")
        with pytest.raises(IngestError, match=r"row 3.*column 'b'"):
            load_csv(path)

    def test_nan_cell_rejected(self, tmp_path):
        path = _write(tmp_path, "timestamp,a\n0,1\n1,nan\n")
        with pytest.raises(IngestError, match="non-numeric"):
            load_csv(path)

    def test_empty_cell_rejected(self, tmp_path):
        path = _write(tmp_path, "timestamp,a,b\n0,1,\n1,2,3\n")
        with pytest.raises(IngestError, match="row 2"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path, "timestamp,a,b\n0,1,2\n1,3\n")
        with pytest.raises(IngestError, match="row 3"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="no such file"):
            load_csv(tmp_path / "absent.csv")

    def test_header_only_rejected(self, tmp_path):
        path = _write(tmp_path, "timestamp,a\n")
        with pytest.raises(IngestError, match="no data rows"):
            load_csv(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = _write(tmp_path, "#seed=1\n#version=0.1.0\ntimestamp,a\n0,1\n1,2\n")
        panel = load_csv(path)
        assert panel.n_rows == 2

    def test_iso_timestamps_sorted(self, tmp_path):
        path = _write(
            tmp_path,
            "timestamp,a\n2024-01-03,3\n2024-01-01,1\n2024-01-02,2\n",
        )
        panel = load_csv(path)
        assert panel.timestamps == ("2024-01-01", "2024-01-02", "2024-01-03")

    def test_datetime_timestamps(self, tmp_path):
        path = _write(
            tmp_path,
            "timestamp,a\n2024-01-01 10:00:00,1\n2024-01-01 11:00:00,2\n",
        )
        assert load_csv(path).n_rows == 2

    def test_unparseable_timestamp_rejected(self, tmp_path):
        path = _write(tmp_path, "timestamp,a\nfoo,1\nbar,2\n")
        with pytest.raises(IngestError, match="ISO-8601"):
            load_csv(path)

    def test_mixed_timestamp_kinds_rejected(self, tmp_path):
        path = _write(tmp_path, "timestamp,a\n1,1\n2024-01-01,2\n")
        with pytest.raises(IngestError, match="mix"):
            load_csv(path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_labels_follow_the_integer_then_iso_rules(self, tmp_path, data):
        # load_csv skips int() for a label with a '-' past its first character
        # and the sort and duplicate scan for rows already in order; the panel,
        # or the error, is the one of int()-then-fromisoformat keys, sorted.
        kind = data.draw(st.sampled_from([INT_LABELS, DATE_LABELS, ANY_LABEL]), label="kind")
        labels = data.draw(st.lists(kind, min_size=1, max_size=8), label="labels")
        if data.draw(st.booleans(), label="sorted"):
            try:
                labels.sort(key=_reference_key)
            except (IngestError, TypeError):
                pass
        path = _write(tmp_path, "timestamp,a\n" + "".join(
            f"{label},{i}\n" for i, label in enumerate(labels)))
        try:
            expected = _reference_load(path, labels)
        except IngestError as exc:
            with pytest.raises(IngestError) as refused:
                load_csv(path)
            assert str(refused.value) == str(exc)
        else:
            panel = load_csv(path)
            assert (panel.timestamps, panel.values[:, 0].tolist()) == expected

    def test_gsmi_scale_panel(self, tmp_path):
        # Same shape as the published 6533-row, 100-variable daily panel.
        n_rows, n_vars = 6533, 100
        rng = np.random.default_rng(7)
        values = rng.uniform(1.0, 1000.0, (n_rows, n_vars))
        header = "timestamp," + ",".join(f"v{i}" for i in range(n_vars))
        lines = [header]
        for r in range(n_rows):
            lines.append(str(r) + "," + ",".join(f"{x:.6f}" for x in values[r]))
        path = _write(tmp_path, "\n".join(lines) + "\n")
        panel = load_csv(path)
        assert panel.values.shape == (6533, 100)

    def test_a_load_holds_its_floats_not_its_text(self, tmp_path, rng):
        # Joining every block's str cells before the cast peaked near 11x the
        # float matrix; cast block by block, the text of one block is held.
        panel = Panel(range(3000), tuple(f"v{i}" for i in range(20)),
                      rng.normal(100.0, 10.0, (3000, 20)))
        path = tmp_path / "panel.csv"
        write_csv(panel, path)
        tracemalloc.start()
        try:
            loaded = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.values, panel.values)
        assert peak < 6 * panel.values.nbytes

    def test_a_load_keeps_the_matrix_it_read(self, tmp_path, monkeypatch, rng):
        # Sorting rows that were already in order, then copying the result
        # into the Panel, added twice the float matrix after the read; what
        # is left is the labels' sort, about 100 bytes a row.
        panel = Panel(range(3000), tuple(f"v{i}" for i in range(40)),
                      rng.normal(100.0, 10.0, (3000, 40)))
        path = tmp_path / "panel.csv"
        write_csv(panel, path)
        read, after_read = frame.read_blocks, []

        def traced_read(*args):
            parsed = read(*args)
            after_read.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return parsed

        monkeypatch.setattr(frame, "read_blocks", traced_read)
        tracemalloc.start()
        try:
            loaded = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.values, panel.values)
        assert peak - after_read[0] < panel.values.nbytes / 2


class TestPanel:
    def test_values_are_immutable(self):
        panel = Panel(range(3), ("a",), np.ones((3, 1)))
        with pytest.raises(ValueError):
            panel.values[0, 0] = 2.0

    def test_no_caller_can_change_a_panels_values(self, tmp_path):
        # A panel copies the values it is given; it keeps without a copy
        # only the matrix load_csv made, which nothing else holds.
        source = np.ones((3, 1))
        panel = Panel(range(3), ("a",), source)
        source[0, 0] = 2.0
        assert panel.values[0, 0] == 1.0
        write_csv(panel, tmp_path / "p.csv")
        loaded = load_csv(tmp_path / "p.csv")
        for values in (loaded.values, loaded.rows(0, 2).values, loaded.select(["a"]).values):
            with pytest.raises(ValueError):
                values[0, 0] = 2.0
        assert not np.shares_memory(loaded.rows(0, 2).values, loaded.values)
        assert loaded.values[0, 0] == 1.0

    def test_duplicate_variables_rejected(self):
        with pytest.raises(IngestError, match="unique"):
            Panel(range(2), ("a", "a"), np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(IngestError, match="shape"):
            Panel(range(3), ("a",), np.ones((2, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(IngestError, match="finite"):
            Panel(range(2), ("a",), np.array([[1.0], [np.inf]]))

    def test_column_select_rows(self):
        panel = Panel(range(4), ("a", "b"), np.arange(8.0).reshape(4, 2))
        assert list(panel.column("b")) == [1.0, 3.0, 5.0, 7.0]
        sub = panel.select(["b"])
        assert sub.variables == ("b",)
        part = panel.rows(1, 3)
        assert part.timestamps == (1, 2)
        with pytest.raises(IngestError):
            panel.column("c")
        with pytest.raises(IngestError):
            panel.select(["z"])

    def test_labels_are_kept_verbatim(self):
        # Ordering is load_csv's job: a panel neither parses nor sorts labels.
        panel = Panel(("b", "a", " 3 "), ("x", "y"), np.arange(6.0).reshape(3, 2))
        assert panel.timestamps == ("b", "a", " 3 ")
        assert panel.rows(0, 2).timestamps == ("b", "a")
        assert panel.select(["y"]).timestamps == ("b", "a", " 3 ")


class TestWriteCsv:
    def test_rows_are_formatted_a_block_at_a_time(self, tmp_path, monkeypatch, rng):
        # Formatting every line before the first write peaked at 7x the
        # float matrix; a block of rows holds about BLOCK_BYTES of text.
        monkeypatch.setattr(table, "RANGE_BYTES", 1 << 40)  # all rows in this process
        panel = Panel(range(3000), tuple(f"v{i}" for i in range(20)),
                      rng.normal(100.0, 10.0, (3000, 20)))
        tracemalloc.start()
        try:
            write_csv(panel, tmp_path / "panel.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(load_csv(tmp_path / "panel.csv").values, panel.values)
        assert peak < panel.values.nbytes

    def test_round_trip_is_identity(self, tmp_path, rng):
        values = rng.normal(0.0, 1.0, (50, 3)) * 10.0 ** rng.integers(-8, 8, (50, 3))
        panel = Panel(range(50), ("a", "b", "c"), values)
        path = tmp_path / "out.csv"
        write_csv(panel, path)
        back = load_csv(path)
        assert back.variables == panel.variables
        assert tuple(int(t) for t in back.timestamps) == panel.timestamps
        np.testing.assert_array_equal(back.values, panel.values)

    def test_round_trip_with_comments(self, tmp_path):
        panel = Panel(range(2), ("a",), np.array([[1.25], [2.5]]))
        path = tmp_path / "out.csv"
        write_csv(panel, path, header_comments=["#config_hash=abc", "#seed=1"])
        text = path.read_text()
        assert text.startswith("#config_hash=abc\n#seed=1\n")
        np.testing.assert_array_equal(load_csv(path).values, panel.values)


class TestChronologicalSplit:
    def _panel(self, n):
        return Panel(range(n), ("a",), np.arange(float(n)).reshape(n, 1))

    @pytest.mark.parametrize(
        "n,expected",
        [
            (6533, (4573, 654, 1306)),  # daily indices panel
            (43014, (30109, 4303, 8602)),  # hourly futures/spot panel
            (37431, (26201, 3744, 7486)),  # minutely options panel
            (10, (7, 1, 2)),
        ],
    )
    def test_published_partition_sizes(self, n, expected):
        spec = SplitSpec(0.7, 0.1, 0.2)
        train, val, test = chronological_split(self._panel(n), spec)
        assert (train.n_rows, val.n_rows, test.n_rows) == expected

    def test_concat_reproduces_panel(self):
        panel = self._panel(103)
        train, val, test = chronological_split(panel, SplitSpec(0.6, 0.2, 0.2))
        merged = np.concatenate([train.values, val.values, test.values])
        np.testing.assert_array_equal(merged, panel.values)
        assert train.timestamps + val.timestamps + test.timestamps == panel.timestamps

    def test_empty_partition_rejected(self):
        with pytest.raises(SplitError, match="empty"):
            chronological_split(self._panel(3), SplitSpec(0.7, 0.1, 0.2))

    def test_fraction_validation(self):
        with pytest.raises(SplitError, match="sum to 1"):
            SplitSpec(0.5, 0.1, 0.2)
        with pytest.raises(SplitError, match="in \\(0, 1\\)"):
            SplitSpec(1.0, -0.2, 0.2)


class TestSlidingWindows:
    def _panel(self, n, c=2):
        values = np.arange(float(n * c)).reshape(n, c)
        return Panel(range(n), tuple(f"v{i}" for i in range(c)), values)

    @pytest.mark.parametrize("n,count", [(520, 4), (517, 1)])
    def test_window_count(self, n, count):
        windows = sliding_windows(self._panel(n), WindowSpec(512, 5))
        assert len(windows) == count

    def test_too_short_rejected(self):
        with pytest.raises(WindowError, match="too short"):
            sliding_windows(self._panel(516), WindowSpec(512, 5))

    def test_window_contents_match_manual_slices(self):
        panel = self._panel(12, c=2)
        windows = sliding_windows(panel, WindowSpec(4, 3, ("v1",)))
        assert len(windows) == 12 - 4 - 3 + 1
        for i, window in enumerate(windows):
            np.testing.assert_array_equal(window.inputs, panel.values[i : i + 4])
            np.testing.assert_array_equal(
                window.truth, panel.values[i + 4 : i + 7, 1:2]
            )
            assert window.origin == i + 3

    def test_no_leakage(self):
        panel = self._panel(30)
        windows = sliding_windows(panel, WindowSpec(5, 4))
        for i in range(len(windows)):
            origin_row = windows.origin_indices[i]
            first_truth_row = origin_row + 1
            assert panel.timestamps[origin_row] < panel.timestamps[first_truth_row]

    def test_all_target_windows_view_the_panel(self):
        # The truth windows and the last values view the panel when the targets
        # are every variable in panel order; at the parent both were copies
        # (np.shares_memory False), the truth copy 1.05 MB on a 6,533 x 20 panel.
        # Any other target list still takes one copy of its columns.
        panel = self._panel(12, c=3)
        for targets in ((), ("v0", "v1", "v2")):
            windows = sliding_windows(panel, WindowSpec(4, 3, targets))
            assert np.shares_memory(windows.truth, panel.values)
            assert np.shares_memory(windows.last_observed, panel.values)
            np.testing.assert_array_equal(windows.last_observed, panel.values[3:9])
        for targets in (("v0", "v2"), ("v2", "v1", "v0")):
            windows = sliding_windows(panel, WindowSpec(4, 3, targets))
            assert not np.shares_memory(windows.truth, panel.values)
            assert not np.shares_memory(windows.last_observed, panel.values)

    def test_last_observed(self):
        panel = self._panel(10, c=3)
        windows = sliding_windows(panel, WindowSpec(4, 2, ("v2", "v0")))
        np.testing.assert_array_equal(
            windows.last_observed,
            np.column_stack([panel.values[3:8, 2], panel.values[3:8, 0]]),
        )

    def test_unknown_target_rejected(self):
        with pytest.raises(WindowError, match="target"):
            sliding_windows(self._panel(20), WindowSpec(4, 2, ("nope",)))

    def test_spec_validation(self):
        with pytest.raises(WindowError):
            WindowSpec(0, 5)
        with pytest.raises(WindowError):
            WindowSpec(5, 0)

    def test_repeated_target_rejected(self):
        with pytest.raises(WindowError, match="'b' is listed more than once"):
            WindowSpec(4, 2, ("a", "b", "c", "b"))

    def test_sequence_protocol(self):
        windows = sliding_windows(self._panel(10), WindowSpec(3, 2))
        assert windows[-1].origin == windows[len(windows) - 1].origin
        with pytest.raises(IndexError):
            windows[len(windows)]
