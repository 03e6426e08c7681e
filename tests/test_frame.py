import tracemalloc

import numpy as np
import pytest

from finpipe import (
    Panel,
    SplitSpec,
    WindowSpec,
    chronological_split,
    load_csv,
    sliding_windows,
    write_csv,
)
from finpipe.errors import IngestError, SplitError, WindowError


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


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


class TestPanel:
    def test_values_are_immutable(self):
        panel = Panel(range(3), ("a",), np.ones((3, 1)))
        with pytest.raises(ValueError):
            panel.values[0, 0] = 2.0

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
