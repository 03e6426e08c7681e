"""The row formatter, ``finpipe.rows``: its floats are the bytes ``repr`` gives,
and the files written from typed columns are the files a per-cell writer makes."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finpipe import Panel, WindowSpec, load_csv, load_forecasts, make_batch, sliding_windows
from finpipe import frame, rows, table, write_csv, write_forecasts
from oracle_utils import forecast_csv_text, panel_csv_text
from ranges import assert_no_worker_left, in_ranges

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
HEAD = ["#config_hash=0123456789abcdef", "#seed=1"]


def formatted(values) -> list[str]:
    """The cells ``_float_cells`` makes of ``values``, as text."""
    cells = rows._float_cells(np.asarray(values, dtype=float))
    return cells.tobytes().translate(None, b"\xff").decode().split(",")[:-1]


def from_bits(bits) -> list[float]:
    return [struct.unpack("<d", struct.pack("<Q", b))[0] for b in bits]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
def test_every_bit_pattern_is_written_as_repr_writes_it(bits):
    values = from_bits(bits)
    assert formatted(values) == list(map(repr, values))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=300))
def test_every_float_is_written_as_repr_writes_it(values):
    assert formatted(values) == list(map(repr, values))


def edge_values() -> list[float]:
    """Every binary exponent with the least, greatest and a middle significand; the powers
    of ten; where repr's notation changes; integers near 2**53; zeros and the extremes."""
    values = []
    for exponent in range(2047):
        for mantissa in (0, 1, 2**51, 2**52 - 1, 0x5555555555555):
            values.append(from_bits([exponent << 52 | mantissa])[0])
    values += [float(f"1e{k}") for k in range(-308, 309)]
    values += [1e-4, 1e-5, 9.999999999999999e-5, 0.00010000000000000002, 1e16,
               9999999999999998.0, 1e15, 123456789012345.6, 0.1, 0.2, 0.30000000000000004]
    values += [float(2**53 + k) for k in range(-40, 41)] + [float(2**50 + k) for k in range(-9, 9)]
    values += [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.5, 100.0]
    return values + [-v for v in values]


@pytest.mark.parametrize("chunk", [1, 7, len(edge_values())])
def test_the_edge_values_are_written_as_repr_writes_them(chunk):
    values = edge_values()
    assert [cell for start in range(0, len(values), chunk)
            for cell in formatted(values[start : start + chunk])] == list(map(repr, values))


def test_a_lane_the_kernel_does_not_cover_falls_back_alone():
    # Zero is laid out by the kernel; a subnormal, a value >= 2**53 or a non-finite one
    # falls back to repr, lane by lane, and its neighbours are still formatted.
    values = np.array([1.5, 5e-324, 2.0**60, -0.0, math.inf, 0.25])
    assert rows._shortest(values)[2].tolist() == [False, True, True, True, True, False]
    assert formatted(values) == list(map(repr, values.tolist()))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=50))
def test_ints_are_written_as_str_writes_them(values):
    cells = rows._int_cells(np.array(values, np.int64))
    assert cells.tobytes().translate(None, b"\xff").decode() == "".join(f"{v}," for v in values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text("ab,#\"\r\n é", max_size=4), min_size=1, max_size=6))
def test_a_names_table_knows_whether_a_file_carries_its_names(names):
    cells, carried = rows._names(names)
    assert carried == all(map(table.carried, names))
    assert cells.tobytes().translate(None, b"\xff").decode() == "".join(f"{n}," for n in names)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 9), st.data())
def test_any_column_layout_is_formatted_cell_by_cell(n, chunk, data):
    # Floats apart, in runs and last, ints and text anywhere, cut into chunks of any size.
    dtypes = data.draw(st.lists(st.sampled_from([float, np.int64, None]), min_size=1,
                                max_size=6), label="dtypes")
    columns, cells = [], []
    for dtype in dtypes:
        if dtype is float:
            values = data.draw(st.lists(st.floats(), min_size=n, max_size=n))
            columns.append(np.array(values))
            cells.append(list(map(repr, values)))
        elif dtype is None:
            names = data.draw(st.lists(st.text("ab é", min_size=1, max_size=3), min_size=1,
                                       max_size=4, unique=True))
            codes = np.array(data.draw(st.lists(st.integers(0, len(names) - 1), min_size=n,
                                                max_size=n)))
            columns.append((codes, names))
            cells.append([names[c] for c in codes])
        else:
            values = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
            columns.append(np.array(values, np.int64))
            cells.append(list(map(str, values)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rows, "_CHUNK", chunk)
        text, carried = rows.format_rows(columns, dtypes)
    assert text.decode() == "".join(",".join(row) + "\n" for row in zip(*cells))
    assert carried


@st.composite
def files(draw):
    """A panel whose labels and floats vary, and forecasts over it, some with a variable
    name that a file carries only as text (then they get no twin)."""
    n_rows, n_vars = draw(st.integers(4, 14)), draw(st.integers(1, 3))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(draw(st.lists(floats, min_size=n_rows * n_vars,
                                    max_size=n_rows * n_vars))).reshape(n_rows, n_vars)
    labels = draw(st.sampled_from([list(range(-3, n_rows - 3)),
                                   [f" {i} " for i in range(n_rows)],
                                   [str(np.datetime64("2000-01-01") + i) for i in range(n_rows)]]))
    panel = Panel(labels, tuple(f"v{i}" for i in range(n_vars)), values)
    windows = sliding_windows(panel, WindowSpec(2, 2))
    preds = np.array(draw(st.lists(floats, min_size=windows.truth.size,
                                   max_size=windows.truth.size))).reshape(windows.truth.shape)
    batch = make_batch(windows, preds)
    if draw(st.booleans()):
        batch = dataclasses.replace(batch, variables=("#a",) + batch.variables[1:])
    return panel, windows, batch


@SETTINGS
@given(case=files(), count=st.integers(1, 4), block=st.sampled_from([24, 200, 1 << 16]),
       chunk=st.sampled_from([1, 5, 2048]))
def test_written_files_are_the_per_cell_writers_files(tmp_path, monkeypatch, case, count, block,
                                                      chunk):
    # Whatever the ranges, blocks and chunks a body is cut into, and with or without a
    # twin, the bytes are those of str and repr cell by cell, and read back as written.
    panel, windows, batch = case
    with monkeypatch.context() as patch:
        in_ranges(patch, count)
        patch.setattr(table, "BLOCK_BYTES", block)
        patch.setattr(rows, "_CHUNK", chunk)
        write_csv(panel, tmp_path / "p.csv", header_comments=HEAD)
        write_forecasts(tmp_path / "f.csv", batch, 2, header_comments=HEAD)
    assert_no_worker_left()
    assert (tmp_path / "p.csv").read_text() == panel_csv_text(
        panel.timestamps, panel.variables, panel.values.tolist(), HEAD)
    assert (tmp_path / "f.csv").read_text() == forecast_csv_text(
        batch.sample_order.tolist(), batch.variables, batch.y_pred.tolist(), 2, head=HEAD)
    assert table._twin_path(tmp_path / "p.csv").exists()
    assert table._twin_path(tmp_path / "f.csv").exists() == (batch.variables[0] == "v0")
    np.testing.assert_array_equal(load_csv(tmp_path / "p.csv").values, panel.values)
    if batch.variables[0] == "v0":
        np.testing.assert_array_equal(load_forecasts(tmp_path / "f.csv", windows).y_pred,
                                      batch.y_pred)


def test_a_stale_twin_is_unlinked_by_the_read_that_finds_it(tmp_path, monkeypatch):
    # Every read of an edited table used to hash it, find the twin stale and parse
    # its text; the first such read now takes the twin away, so later ones do not hash.
    path = tmp_path / "p.csv"
    panel = Panel(range(5), ("a",), np.arange(5.0)[:, None])
    write_csv(panel, path)
    twin = table._twin_path(path)
    path.write_bytes(path.read_bytes() + b"5,5.0\n")
    assert load_csv(path).n_rows == 6
    assert not twin.exists()
    hashed = []
    monkeypatch.setattr(table.hashlib, "sha256", lambda: hashed.append(1))
    assert load_csv(path).n_rows == 6 and hashed == []


def test_a_twin_of_other_dtypes_over_the_same_bytes_is_kept(tmp_path):
    # Its digest is the table's: it is not stale, only not this reader's.
    path = tmp_path / "p.csv"
    write_csv(Panel(range(3), ("a",), np.ones((3, 1))), path)
    twin = table._twin_path(path)
    head, names, rest = twin.read_bytes().split(b"\n", 2)
    twin.write_bytes(b"\n".join([head, b"<i8 <f8", rest]))
    load_csv(path)
    assert twin.exists()


def test_each_label_is_checked_once(tmp_path, monkeypatch):
    panel = Panel([f"2000-01-{d:02d}" for d in range(1, 29)], ("a", "b"), np.ones((28, 2)))
    checked = []
    carried = frame.carried
    monkeypatch.setattr(frame, "carried", lambda cell: checked.append(cell) or carried(cell))
    monkeypatch.setattr(table, "carried", lambda cell: pytest.fail("checked again"))
    write_csv(panel, tmp_path / "p.csv")
    assert checked == list(panel.timestamps)


def test_a_twin_hands_text_over_as_codes_into_its_names(tmp_path):
    path = tmp_path / "f.csv"
    panel = Panel(range(6), ("x", "y"), np.arange(12.0).reshape(6, 2))
    windows = sliding_windows(panel, WindowSpec(2, 2))
    write_forecasts(path, make_batch(windows, windows.truth), 2)
    dtypes = (np.int64, np.int64, None, float)
    with open(table._twin_path(path), "rb") as fh:
        sizes = table._twin_sizes(fh, dtypes, 32)
        (ids, steps, (codes, names), values), = table._twin_blocks(fh, sizes, dtypes)
    assert names == ["x", "y"]
    assert [names[c] for c in codes] == ["x", "y"] * (len(ids) // 2)
