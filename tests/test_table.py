"""The vectorised CSV layer against the loop readers and writers it replaced.

``reference_io`` keeps the per-cell implementations. On random valid files
both must give equal arrays and equal bytes; on corrupted files both must
raise the same exception type with the same message. A warning raised by a
reader fails the test, so an empty body must not make numpy warn.
"""

import csv
import dataclasses
import io
import os
import re
import signal
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import reference_io as ref
from finpipe import (
    Panel,
    WindowSpec,
    load_anchor_file,
    load_csv,
    load_forecasts,
    make_batch,
    naive_forecast,
    sliding_windows,
    transform_panel,
    write_anchor_file,
    write_csv,
    write_forecasts,
)
from finpipe import cli, table
from finpipe.errors import FormatError, IngestError
from finpipe.table import Blocks, _cast_plain, read_blocks
from ranges import assert_no_worker_left, in_ranges, without_twin
from synth import ohlcv_panel, write_raw_csv

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
PROVENANCE = ["#config_hash=0123456789abcdef", "#seed=1", "#version=0.1.0"]

finite = st.floats(allow_nan=False, allow_infinity=False)


def outcome(fn, *args, **kwargs):
    """("ok", result) or ("error", exception type, message); warnings raise."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # the comparison is the point: any type must match
        return ("error", type(exc), str(exc))


def same_panel(a: Panel, b: Panel) -> None:
    assert a.timestamps == b.timestamps
    assert a.variables == b.variables
    np.testing.assert_array_equal(a.values, b.values)


def same_batch(a, b) -> None:
    for name in ("y_true", "y_pred", "sample_order", "last_observed"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)
    assert a.variables == b.variables
    assert a.origins == b.origins


def assert_same(new, old, compare) -> None:
    assert new[0] == old[0], (new, old)
    if new[0] == "ok":
        compare(new[1], old[1])
    else:
        assert new[1:] == old[1:]


# --- panels -------------------------------------------------------------------

@st.composite
def panels(draw):
    n_rows = draw(st.integers(1, 12))
    n_vars = draw(st.integers(0, 4))
    values = draw(st.lists(st.lists(finite, min_size=n_vars, max_size=n_vars),
                           min_size=n_rows, max_size=n_rows))
    if draw(st.booleans()):
        stamps = draw(st.lists(st.integers(-10**6, 10**6), min_size=n_rows,
                               max_size=n_rows, unique=True))
    else:
        days = draw(st.lists(st.integers(0, 20000), min_size=n_rows, max_size=n_rows, unique=True))
        stamps = [str(np.datetime64("1990-01-01") + d) for d in days]
    stamps = sorted(stamps, key=lambda s: (int(s) if isinstance(s, int) else s))
    return Panel(stamps, tuple(f"v{i}" for i in range(n_vars)),
                 np.array(values, dtype=float).reshape(n_rows, n_vars))


@SETTINGS
@given(panel=panels(), comments=st.booleans())
def test_panel_write_load_write_matches_reference(tmp_path, panel, comments):
    stamp = PROVENANCE if comments else []
    new_path, old_path = tmp_path / "new.csv", tmp_path / "old.csv"
    write_csv(panel, new_path, header_comments=stamp)
    ref.write_csv(panel, old_path, header_comments=stamp)
    assert new_path.read_bytes() == old_path.read_bytes()
    loaded = load_csv(new_path)
    same_panel(loaded, ref.load_csv(new_path))
    write_csv(loaded, old_path, header_comments=stamp)
    assert old_path.read_bytes() == new_path.read_bytes()


def corrupt_lines(data, lines, first_body, kind, cell_values=None):
    """Apply one corruption to the body of a CSV file given as lines.

    ``cell_values`` maps extra kinds to (column, candidate values) to write.
    """
    body = range(first_body, len(lines))
    if not body:
        return lines
    row = data.draw(st.sampled_from(body), label="row")
    cells = lines[row].split(",")
    col = data.draw(st.integers(0, len(cells) - 1), label="col")
    if kind == "ragged":
        cells = cells + ["7"] if data.draw(st.booleans()) else cells[:-1]
    elif kind == "bad_cell":
        cells[col] = data.draw(st.sampled_from(["x", "", "1.0", "nan", "inf", " 1e5 ", "1__0"]))
    elif kind == "underscore":
        cells[col] = "1_0"
    elif kind == "quoted":
        cells[col] = data.draw(st.sampled_from(['"1.5"', '"1,5"', '"a""b"', '"v0"']))
    elif kind == "spaces":
        cells[col] = f"  {cells[col]} "
    elif kind == "comment":
        lines.insert(row, "#mid-body comment")
    elif kind == "blank":
        lines.insert(row, "")
    elif kind == "crlf":
        lines = [line + "\r" for line in lines]
    elif kind == "cr":
        lines[row] += "\r"
    elif kind == "drop":
        del lines[row]
    elif kind == "duplicate":
        lines.insert(data.draw(st.sampled_from(body), label="at"), lines[row])
    elif len(cells) > cell_values[kind][0]:
        column, values = cell_values[kind]
        cells[column] = str(data.draw(st.sampled_from(values), label=kind))
    if kind in ("ragged", "bad_cell", "underscore", "quoted", "spaces") or kind in (cell_values or {}):
        lines[row] = ",".join(cells)
    return lines


PANEL_CORRUPTIONS = ["ragged", "bad_cell", "underscore", "quoted", "spaces", "comment",
                     "blank", "crlf", "duplicate"]


@SETTINGS
@given(panel=panels(), data=st.data(),
       kinds=st.lists(st.sampled_from(PANEL_CORRUPTIONS), min_size=1, max_size=3))
def test_corrupted_panel_fails_like_reference(tmp_path, panel, data, kinds):
    path = tmp_path / "panel.csv"
    write_csv(panel, path, header_comments=PROVENANCE)
    lines = path.read_text().splitlines()
    for kind in kinds:
        lines = corrupt_lines(data, lines, len(PROVENANCE) + 1, kind)
    path.write_text("\n".join(lines) + "\n", newline="")
    assert_same(outcome(load_csv, path), outcome(ref.load_csv, path), same_panel)


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("#only=comments\n\n", "empty file"),
    ("timestamp,a\n", "no data rows"),
    ("#seed=1\ntimestamp,a\n#late comment\n", "no data rows"),
    ("timestamp,a,b\n0,1,oops\n1,2\n", r"row 2, column 'b'"),
    ("timestamp,a,b\n0,1,2\n1,2\n2,x,3\n", "row 3 has 2 fields"),
    ("timestamp,a\n1,1\n0,2\n1,3\n", "strictly increasing with no duplicates"),
    ("timestamp,a\n2024-01-01T00:00:00,1\n2024-01-01,2\n", "strictly increasing"),
    ("timestamp,a\n0,1\n2024-01-01,2\n", "mix integer and calendar labels"),
    ("timestamp,a\n2024-01-02T09:30:00Z,1\n2024-01-03,2\n",
     "mix labels with and without a UTC offset"),
])
def test_panel_edge_cases_match_reference(tmp_path, text, message):
    path = tmp_path / "panel.csv"
    path.write_text(text)
    new, old = outcome(load_csv, path), outcome(ref.load_csv, path)
    assert new == old
    assert new[0] == "error" and new[2].startswith(f"{path}: ") and message in new[2]


# --- forecast files -----------------------------------------------------------

@st.composite
def forecast_cases(draw):
    n_vars = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 3))
    input_len = draw(st.integers(1, 4))
    n_rows = input_len + horizon + draw(st.integers(0, 5))
    seed = draw(st.integers(0, 2**16))
    values = np.random.default_rng(seed).normal(100.0, 1.0, (n_rows, n_vars))
    panel = Panel(range(n_rows), tuple(f"x{i}" for i in range(n_vars)), values)
    targets = tuple(draw(st.lists(st.sampled_from(panel.variables), min_size=1, unique=True)))
    windows = sliding_windows(panel, WindowSpec(input_len, horizon, targets))
    preds = np.array(draw(st.lists(finite, min_size=windows.truth.size,
                                   max_size=windows.truth.size))).reshape(windows.truth.shape)
    return windows, make_batch(windows, preds)


@SETTINGS
@given(case=forecast_cases())
def test_forecast_write_load_write_matches_reference(tmp_path, case):
    windows, batch = case
    new_path, old_path = tmp_path / "new.csv", tmp_path / "old.csv"
    write_forecasts(new_path, batch, windows.spec.input_len, header_comments=PROVENANCE)
    ref.write_forecasts(old_path, batch, windows.spec.input_len, header_comments=PROVENANCE)
    assert new_path.read_bytes() == old_path.read_bytes()
    loaded = load_forecasts(new_path, windows)
    same_batch(loaded, ref.load_forecasts(new_path, windows))
    write_forecasts(old_path, loaded, windows.spec.input_len, header_comments=PROVENANCE)
    assert old_path.read_bytes() == new_path.read_bytes()


FORECAST_CORRUPTIONS = ["ragged", "bad_cell", "underscore", "quoted", "spaces", "comment",
                        "blank", "crlf", "drop", "duplicate", "step", "sample", "variable"]


@SETTINGS
@given(case=forecast_cases(), data=st.data(),
       kinds=st.lists(st.sampled_from(FORECAST_CORRUPTIONS), min_size=1, max_size=3))
def test_corrupted_forecast_file_fails_like_reference(tmp_path, case, data, kinds):
    windows, batch = case
    path = tmp_path / "fc.csv"
    write_forecasts(path, batch, windows.spec.input_len, header_comments=PROVENANCE)
    lines = path.read_text().splitlines()
    cell_values = {  # an off-grid step leaves one record missing and one extra
        "step": (1, [0, -1, windows.spec.horizon + 1]),
        "sample": (0, [-1, len(windows), 2**62]),
        "variable": (2, ["nope", windows.target_vars[0], ""]),
    }
    for kind in kinds:
        lines = corrupt_lines(data, lines, len(PROVENANCE) + 5, kind, cell_values)
    path.write_text("\n".join(lines) + "\n", newline="")
    assert_same(outcome(load_forecasts, path, windows),
                outcome(ref.load_forecasts, path, windows), same_batch)


@pytest.mark.parametrize("body, message", [
    ("", "no forecast records"),
    ("#late comment\n", "no forecast records"),
    ("0,1,v0,1.0\n0,1,v0,2.0\n0,x,v0,1.0\n", "duplicate record for sample 0, step 1"),
    ("0,x,v0,1.0\n0,1,v0,2.0\n0,1,v0,1.0\n", "row 2: malformed record"),
    ("0,1,v0,1.0\n0,1\n0,x,v0,1.0\n", "row 3 has 2 fields, expected 4"),
    ("-1,1,v0,1.0\n", "sample id(s) [-1] outside"),
    # unscreened, step 2 of sample 0 would fill the cell of step 1 of sample 1
    ("0,1,v0,1.0\n0,2,v0,1.0\n1,2,v0,1.0\n", "missing step 1 of sample 1"),
])
def test_forecast_edge_cases_match_reference(tmp_path, body, message):
    panel = Panel(range(12), ("v0",), np.arange(12.0)[:, None])
    windows = sliding_windows(panel, WindowSpec(2, 1))
    path = tmp_path / "fc.csv"
    path.write_text("#L=2\n#H=1\n#model=x\nsample_id,step,variable,y_pred\n" + body)
    new, old = outcome(load_forecasts, path, windows), outcome(ref.load_forecasts, path, windows)
    assert new == old
    assert new[0] == "error" and message in new[2], new


def test_forecast_cells_parse_as_python_does(tmp_path):
    # Spaces around a variable, 1_0 and non-ASCII digits are all accepted.
    panel = Panel(range(12), ("v0",), np.arange(12.0)[:, None])
    windows = sliding_windows(panel, WindowSpec(2, 1))
    path = tmp_path / "fc.csv"
    path.write_text("#L=2\n#H=1\nsample_id,step,variable,y_pred\n"
                    "0,1, v0 ,1_0.5\n\u0663,1,v0, 2 \n")
    new, old = outcome(load_forecasts, path, windows), outcome(ref.load_forecasts, path, windows)
    assert_same(new, old, same_batch)
    np.testing.assert_array_equal(new[1].y_pred.ravel(), [10.5, 2.0])
    np.testing.assert_array_equal(new[1].sample_order, [0, 3])


def test_ids_beyond_64_bits_are_malformed(tmp_path):
    # The one departure from the loop reader, which took any Python int and
    # then rejected the id as outside the truth windows.
    panel = Panel(range(12), ("v0",), np.arange(12.0)[:, None])
    windows = sliding_windows(panel, WindowSpec(2, 1))
    path = tmp_path / "fc.csv"
    path.write_text("#L=2\n#H=1\nsample_id,step,variable,y_pred\n" + f"{10**30},1,v0,1.0\n")
    with pytest.raises(FormatError, match=r"row 2: malformed record"):
        load_forecasts(path, windows)


# --- anchor sidecars and CLI tables -------------------------------------------

ANCHOR_CORRUPTIONS = ["ragged", "bad_cell", "spaces", "comment", "blank", "quoted", "drop"]


@SETTINGS
@given(data=st.data(), kinds=st.lists(st.sampled_from(ANCHOR_CORRUPTIONS), max_size=2))
def test_anchor_file_matches_reference(tmp_path, data, kinds):
    _, records = transform_panel(ohlcv_panel(10, seed=3, assets=("A", "B")))
    new_path, old_path = tmp_path / "new.csv", tmp_path / "old.csv"
    write_anchor_file(new_path, records, header_comments=PROVENANCE)
    ref.write_anchor_file(old_path, records, header_comments=PROVENANCE)
    assert new_path.read_bytes() == old_path.read_bytes()
    lines = new_path.read_text().splitlines()
    for kind in kinds:
        lines = corrupt_lines(data, lines, len(PROVENANCE) + 1, kind)
    new_path.write_text("\n".join(lines) + "\n")
    # repr, so a nan anchor compares equal to itself
    assert repr(outcome(load_anchor_file, new_path)) == repr(outcome(ref.load_anchor_file, new_path))


@SETTINGS
@given(rows=st.lists(st.one_of(st.tuples(st.sampled_from(["1.5", " 2 ", "1_0", "x", "", "-3e2",
                                                          "nan"]),
                                         st.sampled_from(["0.5", "y", "٣", "inf"])),
                               st.sampled_from(["#note,1", ""])), max_size=12),
       block=st.integers(16, 256))
def test_cli_table_columns_match_reference(tmp_path, monkeypatch, rows, block):
    # The curve reader reports the first bad cell of the per-cell reader's
    # columns in file order: the earliest row, then net_value before
    # period_return. Comment and blank rows count for neither, whichever
    # blocks they fall in.
    path = tmp_path / "table.csv"
    lines = [row if isinstance(row, str) else f"t{i},{row[0]},{row[1]}" for i, row in enumerate(rows)]
    path.write_text("#seed=1\ntimestamp,net_value,period_return\n"
                    + "".join(line + "\n" for line in lines))
    monkeypatch.setattr(table, "BLOCK_BYTES", block)
    header, old_rows = ref.read_table(path)
    old = [outcome(ref.table_floats, path, header, old_rows, column)
           for column in ("net_value", "period_return")]
    errors = [o for o in old if o[0] == "error"]
    new = outcome(cli._read_curve, path)
    if not old_rows:
        assert new == ("error", FormatError, f"{path}: curve file has no rows")
    elif errors:
        assert new == min(errors, key=lambda o: int(re.search(r"row (\d+):", o[2])[1]))
    else:
        stamps, *columns = new[1]
        assert stamps == [row[0].strip() for row in old_rows]
        for new_column, (_, old_column) in zip(columns, old):
            np.testing.assert_array_equal(new_column, old_column)


@pytest.mark.parametrize("text", ["h,a\n0,1\n1\n2,3\n", "h,a\n0,1,2\n", "h\n#x\n0\n1,2\n"])
def test_a_ragged_table_never_reaches_the_caller(tmp_path, text):
    # The parse callback sees the rows above the ragged one, but whatever it
    # returns, read_blocks raises instead of handing back a table cut short.
    path = tmp_path / "table.csv"
    path.write_text(text)
    seen = []

    def parse(blocks):
        seen.append((sum(map(len, blocks)), blocks.n_rows))
        return seen

    with pytest.raises(FormatError, match=r"fields, expected"):
        read_blocks(path, parse)
    rows, n_rows = seen[0]
    assert rows < n_rows


@pytest.mark.parametrize("text, above", [
    (b"h,a\n1,2\n3,\xff\n4,5\n", 1),  # a body cell
    (b"h,a\n1,2\n\xff\n4,5\n", 1),  # a row of its own, with the wrong field count too
    (b"h,a\n1,2\n#\xff\n4,5\n", 1),  # a comment row
    (b'"h\n\xff",a\n1,2\n', None),  # a header cell that spans lines
])
def test_text_that_is_not_utf8_ends_the_rows_above_it(tmp_path, text, above):
    # Like a ragged row: the parse callback sees the rows above it, then
    # read_blocks raises; in the header, before any row.
    path = tmp_path / "table.csv"
    path.write_bytes(text)
    seen = []

    def parse(blocks):
        seen.append(sum(map(len, blocks)))

    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: not UTF-8 text$"):
        read_blocks(path, parse)
    assert seen == ([] if above is None else [above])


def test_a_bad_cell_above_a_non_utf8_byte_in_its_block_is_named(tmp_path):
    # A non-numeric cell on row 7 and a 0xff byte further on in the same
    # first 64 KiB block. csv.reader's decoder used to meet the byte before
    # the block reached the cast, so every position read "not UTF-8 text".
    path = tmp_path / "panel.csv"
    write_csv(Panel(range(20_000), ("a", "b"), np.arange(40_000.0).reshape(20_000, 2) / 7), path)
    lines = path.read_bytes().splitlines(keepends=True)
    stamp, _, b = lines[6].split(b",")
    lines[6] = stamp + b",abc," + b
    path.write_bytes(b"".join(lines))
    with open(path, "r+b") as fh:
        for at in range(8_000, 65_501, 250):
            fh.seek(at)
            byte = fh.read(1)
            fh.seek(at)
            fh.write(b"\xff")
            fh.flush()
            with pytest.raises(IngestError, match="non-numeric value 'abc' at row 7, column 'a'"):
                load_csv(path)
            fh.seek(at)
            fh.write(byte)


@pytest.mark.parametrize("block", [64, table.BLOCK_BYTES])
def test_a_duplicate_above_a_non_utf8_byte_is_named(tmp_path, monkeypatch, block):
    # Errors come in file order whether the byte is in the duplicate's block
    # or a later one.
    panel = Panel(range(60), ("v0", "v1"), np.arange(120.0).reshape(60, 2))
    windows = sliding_windows(panel, WindowSpec(4, 2))
    path = tmp_path / "fc.csv"
    write_forecasts(path, make_batch(windows, windows.truth), 4)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[8] = lines[6]
    lines[-1] = b"\xff" + lines[-1]
    path.write_bytes(b"".join(lines))
    monkeypatch.setattr(table, "BLOCK_BYTES", block)
    sample, step, name = lines[6].decode().split(",")[:3]
    with pytest.raises(FormatError, match=f"duplicate record for sample {sample}, step {step}, "
                                          f"variable '{name}'"):
        load_forecasts(path, windows)


def python_split(block: bytes) -> list[list[str]]:
    """The rows ``Blocks._split`` gives for ``block`` in an untyped read."""
    return Blocks._split(SimpleNamespace(_dtypes=None), block)


@settings(max_examples=400, deadline=None)
@given(text=st.text(st.sampled_from('a1 ,#\n\t.-_e\u0663'), max_size=40))
def test_plain_split_matches_the_csv_module(text):
    # On text with no quote, CR or NUL, the split of a plain body block
    # gives csv.reader's rows.
    rows = [r for r in csv.reader(io.StringIO(text, newline="")) if r and not r[0].startswith("#")]
    assert python_split(text.encode()) == rows


# --- block edges ----------------------------------------------------------------

BLOCK_EDGE_KINDS = ["duplicate", "bad_cell", "ragged", "quoted", "cr", "comment", "blank"]


def corrupt_a_later_block(monkeypatch, data, lines, first_body, kind, cell_values=None):
    """The text of ``lines`` with one corruption, read in blocks that start above it.

    BLOCK_BYTES is set no larger than the text above the corrupted row, so
    that row falls in a later block than the header.
    """
    corrupted = corrupt_lines(data, list(lines), first_body, kind, cell_values)
    at = next((i for i, (a, b) in enumerate(zip(lines, corrupted)) if a != b), len(lines))
    above = sum(len(line) + 1 for line in corrupted[:at])
    monkeypatch.setattr(table, "BLOCK_BYTES", data.draw(st.integers(1, above), label="block"))
    return "\n".join(corrupted) + "\n"


@SETTINGS
@given(case=forecast_cases(), data=st.data(), kind=st.sampled_from(BLOCK_EDGE_KINDS))
def test_forecast_block_edges_match_reference(tmp_path, monkeypatch, case, data, kind):
    windows, batch = case
    path = tmp_path / "fc.csv"
    write_forecasts(path, batch, windows.spec.input_len, header_comments=PROVENANCE)
    lines = path.read_text().splitlines()
    path.write_text(corrupt_a_later_block(monkeypatch, data, lines, len(PROVENANCE) + 5, kind),
                    newline="")
    assert_same(outcome(load_forecasts, path, windows),
                outcome(ref.load_forecasts, path, windows), same_batch)


@SETTINGS
@given(panel=panels(), data=st.data(), kind=st.sampled_from(BLOCK_EDGE_KINDS))
def test_panel_block_edges_match_reference(tmp_path, monkeypatch, panel, data, kind):
    path = tmp_path / "panel.csv"
    write_csv(panel, path, header_comments=PROVENANCE)
    lines = path.read_text().splitlines()
    path.write_text(corrupt_a_later_block(monkeypatch, data, lines, len(PROVENANCE) + 1, kind),
                    newline="")
    assert_same(outcome(load_csv, path), outcome(ref.load_csv, path), same_panel)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text(st.sampled_from('a1 ,#\n"\r\x00\t\u0663'), max_size=60),
       block=st.integers(1, 24))
@example(text="h,a\n0,1\n#c,2\n1,2\n", block=8)  # a comment row opens the second block
@example(text="h\n0\n1\n\n\n2,\n", block=4)  # a blank block, then a ragged one
def test_blocks_join_to_the_csv_module_rows(tmp_path, monkeypatch, text, block):
    # Whichever block a quote, CR, comment or ragged row falls in, the rows
    # are csv.reader's, and the first ragged row ends them.
    monkeypatch.setattr(table, "BLOCK_BYTES", block)
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    rows = [r for r in csv.reader(io.StringIO(text, newline="")) if r and not r[0].startswith("#")]
    ragged = next((i for i, r in enumerate(rows) if len(r) != len(rows[0])), len(rows))
    seen = []

    def join(blocks):
        seen.append((blocks.header, [row for cells in blocks for row in cells.tolist()],
                     blocks.n_rows))

    result = outcome(read_blocks, path, join)
    header, body, n_rows = seen[0]
    assert header == ([h.strip() for h in rows[0]] if rows else None)
    assert body == rows[1:ragged]
    if ragged < len(rows):
        assert n_rows == ragged
        assert result == ("error", FormatError, f"{path}: row {ragged + 1} has "
                          f"{len(rows[ragged])} fields, expected {len(rows[0])}")
    else:
        assert n_rows == len(rows[1:]) and result[0] == "ok"


def test_a_bad_record_is_looked_for_in_one_block(tmp_path, monkeypatch):
    # A bad last value makes the cast fall back to one row at a time; that
    # scan covers the last block, not the file.
    panel = Panel(range(400), ("v0", "v1"), np.arange(800.0).reshape(400, 2))
    windows = sliding_windows(panel, WindowSpec(4, 2))
    path = tmp_path / "fc.csv"
    write_forecasts(path, make_batch(windows, windows.truth), 4)
    path.write_text(path.read_text().rstrip("\n").rsplit(",", 1)[0] + ",x\n")
    monkeypatch.setattr(table, "BLOCK_BYTES", 1024)
    sizes, original = [], table._cast

    def cast(cells, dtype):
        sizes.append(len(cells))
        return original(cells, dtype)

    monkeypatch.setattr(table, "_cast", cast)
    n = windows.truth.size
    last = path.read_text().splitlines()[-1]
    with pytest.raises(FormatError) as info:
        load_forecasts(path, windows)
    assert str(info.value) == f"{path}: row {n + 1}: malformed record {last.split(',')!r}"
    assert max(sizes) <= 1024 // len("0,1,v0,1\n") + 1 < n


def test_a_file_whose_longest_rows_come_first_matches_reference(tmp_path, monkeypatch):
    # The first rows are the file's longest, and the blocks are small, so
    # the grid grows many times as later blocks name new samples.
    panel = Panel(range(60), ("v0",), np.arange(60.0)[:, None])
    windows = sliding_windows(panel, WindowSpec(2, 1))
    preds = np.ones(windows.truth.shape)
    preds.flat[:4] = 1.2345678901234567e-300
    path = tmp_path / "fc.csv"
    write_forecasts(path, make_batch(windows, preds), 2)
    without_twin(path)
    monkeypatch.setattr(table, "BLOCK_BYTES", 64)
    assert_same(outcome(load_forecasts, path, windows),
                outcome(ref.load_forecasts, path, windows), same_batch)


def test_a_clean_body_in_one_range_is_cast_in_c_from_its_first_block(tmp_path, monkeypatch):
    # The block that holds the header used to be split into text cells and
    # cast by ``typed``; now every block of a plain body goes to numpy's C reader.
    rng = np.random.default_rng(4)
    panel = Panel(range(3000), ("a", "b", "c"), rng.normal(size=(3000, 3)))
    windows = sliding_windows(panel, WindowSpec(8, 3))
    panel_path, forecast_path = tmp_path / "p.csv", tmp_path / "f.csv"
    write_csv(panel, panel_path, header_comments=PROVENANCE)
    write_forecasts(forecast_path, make_batch(windows, naive_forecast(windows, 3, seed=1)), 8,
                    header_comments=PROVENANCE)
    without_twin(panel_path, forecast_path)
    monkeypatch.setattr(table, "MAX_RANGES", 1)
    calls, typed = [], table.typed
    monkeypatch.setattr(table, "typed", lambda cells, dtypes: calls.append(len(cells))
                        or typed(cells, dtypes))
    assert_same(outcome(load_csv, panel_path), outcome(ref.load_csv, panel_path), same_panel)
    assert_same(outcome(load_forecasts, forecast_path, windows),
                outcome(ref.load_forecasts, forecast_path, windows), same_batch)
    assert panel_path.stat().st_size > 2 * table.BLOCK_BYTES
    assert calls == []


# --- ranges -------------------------------------------------------------------

def ranged(monkeypatch, count, fn, *args):
    """The outcome of ``fn(*args)`` with bodies cut into ``count`` ranges."""
    with monkeypatch.context() as patch:
        in_ranges(patch, count)
        return outcome(fn, *args)


def test_a_small_body_or_one_cpu_is_one_range(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert table._range_count(table.RANGE_BYTES - 1) == 1
    assert table._range_count(table.RANGE_BYTES) == table.MAX_RANGES == 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert table._range_count(10 * table.RANGE_BYTES) == 1
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert table._range_count(10 * table.RANGE_BYTES) == 1


@SETTINGS
@given(panel=panels(), case=forecast_cases(), count=st.integers(2, 4))
def test_ranged_writes_are_byte_identical(tmp_path, monkeypatch, panel, case, count):
    windows, batch = case
    serial_panel, serial_forecasts = tmp_path / "sp.csv", tmp_path / "sf.csv"
    write_csv(panel, serial_panel, header_comments=PROVENANCE)
    write_forecasts(serial_forecasts, batch, windows.spec.input_len, header_comments=PROVENANCE)
    out = tmp_path / "ranged"
    assert ranged(monkeypatch, count, write_csv, panel, out / "p.csv", PROVENANCE)[0] == "ok"
    assert ranged(monkeypatch, count, write_forecasts, out / "f.csv", batch,
                  windows.spec.input_len, "naive", PROVENANCE)[0] == "ok"
    assert (out / "p.csv").read_bytes() == serial_panel.read_bytes()
    assert (out / "f.csv").read_bytes() == serial_forecasts.read_bytes()
    assert sorted(p.name for p in out.iterdir()) == [".f.csv.typed", ".p.csv.typed", "f.csv",
                                                     "p.csv"]
    assert_no_worker_left()


# Corruptions that keep a line's length, so the file is cut where the clean one is.
RANGE_KINDS = ["bad_cell", "non_finite", "ragged", "duplicate", "not_utf8", "quoted", "crlf",
               "comment", "variables"]


def corrupt_at_a_cut(monkeypatch, data, path, first_body, count, kind):
    """Corrupt the line just above, at or just below a range cut of ``path``, in place.

    Forecast records must name two-character variables for kind "variables".
    """
    lines = path.read_bytes().splitlines(keepends=True)
    with monkeypatch.context() as patch, open(path, "rb") as fh:
        in_ranges(patch, count)
        cuts = table.Blocks(path, fh)._cuts()
    starts = list(np.cumsum([0] + [len(line) for line in lines]))
    at_cut = [starts.index(c) for c in cuts[1:-1] if c in starts[first_body + 1 : -1]]
    if at_cut:
        row = data.draw(st.sampled_from(at_cut), label="cut") + data.draw(
            st.sampled_from([-1, 0, 1]), label="side")
    else:
        row = data.draw(st.integers(first_body, len(lines) - 1), label="row")
    row = min(max(row, first_body), len(lines) - 1)
    line = lines[row]
    cells = line[:-1].split(b",")
    last = cells[-1]
    if kind == "bad_cell":
        cells[-1] = b"x" + last[1:]
    elif kind == "non_finite":
        cells[-1] = b"nan".ljust(len(last))
    elif kind == "not_utf8":
        cells[-1] = b"\xff" + last[1:]
    elif kind == "quoted":
        cells[-1] = b'"' + last[1:]
    elif kind == "crlf":
        cells[-1] = last[:-1] + b"\r"
    elif kind == "comment":
        cells[0] = b"#" + cells[0][1:]
    elif kind == "variables":  # two unknown names, which ranges may number in either order
        other = data.draw(st.integers(first_body, len(lines) - 1), label="other")
        cells[2], other_cells = b"zA", lines[other].split(b",")
        lines[other] = b",".join(other_cells[:2] + [b"zB"] + other_cells[3:])
    if kind == "ragged":
        line = line[:-1].rpartition(b",")[0] + b"." + line[:-1].rpartition(b",")[2] + b"\n"
    elif kind == "duplicate":
        line = lines[data.draw(st.sampled_from(range(first_body, len(lines))), label="of")]
    else:
        line = b",".join(cells) + b"\n"
    assert len(line) == len(lines[row])
    lines[row] = line
    path.write_bytes(b"".join(lines))


@st.composite
def even_forecast_cases(draw):
    """Windows and a batch whose records all have the same length, such as ``3,2,x1,2.5``."""
    n_vars = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 3))
    n_rows = 2 + horizon + draw(st.integers(1, 8))
    panel = Panel(range(n_rows), tuple(f"x{i}" for i in range(n_vars)), np.ones((n_rows, n_vars)))
    windows = sliding_windows(panel, WindowSpec(2, horizon))
    preds = np.array(draw(st.lists(st.sampled_from([1.5, 2.5, 3.5]), min_size=windows.truth.size,
                                   max_size=windows.truth.size))).reshape(windows.truth.shape)
    return windows, make_batch(windows, preds)


@SETTINGS
@given(case=even_forecast_cases(), data=st.data(), kind=st.sampled_from(RANGE_KINDS),
       count=st.integers(2, 4))
def test_ranged_forecast_reads_match_one_range(tmp_path, monkeypatch, case, data, kind, count):
    windows, batch = case
    path = tmp_path / "fc.csv"
    write_forecasts(path, batch, windows.spec.input_len, header_comments=PROVENANCE)
    corrupt_at_a_cut(monkeypatch, data, path, len(PROVENANCE) + 5, count, kind)
    serial = outcome(load_forecasts, path, windows)
    assert_same(ranged(monkeypatch, count, load_forecasts, path, windows), serial, same_batch)
    assert_no_worker_left()


@SETTINGS
@given(data=st.data(), kind=st.sampled_from([k for k in RANGE_KINDS if k != "variables"]),
       count=st.integers(2, 4), n_rows=st.integers(2, 30), n_vars=st.integers(1, 3))
def test_ranged_panel_reads_match_one_range(tmp_path, monkeypatch, data, kind, count, n_rows,
                                            n_vars):
    values = np.array(data.draw(st.lists(st.sampled_from([1.5, 2.5, 3.5]), min_size=n_rows * n_vars,
                                         max_size=n_rows * n_vars), label="values"))
    panel = Panel(range(100, 100 + n_rows), tuple(f"v{i}" for i in range(n_vars)),
                  values.reshape(n_rows, n_vars))
    path = tmp_path / "panel.csv"
    write_csv(panel, path, header_comments=PROVENANCE)
    corrupt_at_a_cut(monkeypatch, data, path, len(PROVENANCE) + 1, count, kind)
    serial = outcome(load_csv, path)
    assert_same(ranged(monkeypatch, count, load_csv, path), serial, same_panel)
    assert_no_worker_left()


@SETTINGS
@given(data=st.data(), kind=st.sampled_from(["bad_cell", "non_finite", "not_utf8", "ragged",
                                             "comment"]),
       count=st.integers(2, 4), n_rows=st.integers(2, 30))
def test_ranged_curve_reads_match_one_range(tmp_path, monkeypatch, data, kind, count, n_rows):
    # The report of a curve read as text, its last cell a period return.
    returns = np.array(data.draw(st.lists(st.sampled_from([0.125, 0.25, -0.5]), min_size=n_rows,
                                          max_size=n_rows), label="returns"))
    net = np.cumprod(1.0 + returns)
    path = tmp_path / "curve.csv"
    table.write_rows(path, [*PROVENANCE, "timestamp,net_value,period_return"], n_rows,
                     lambda start, stop: [(np.arange(stop - start), [str(100 + i) for i in
                                                                     range(start, stop)]),
                                          net[start:stop], returns[start:stop]],
                     (None, float, float))
    without_twin(path)
    corrupt_at_a_cut(monkeypatch, data, path, len(PROVENANCE) + 1, count, kind)
    serial = outcome(report_of, path)
    assert ranged(monkeypatch, count, report_of, path) == serial
    assert_no_worker_left()


# --- the typed C cast -------------------------------------------------------------

# Cells numpy's C reader refuses or reads as not finite, where Python's int and
# float accept some of them, and two it reads as Python does.
EDGE_CELLS = ["1_0", "\u0663", "1.0", "0x10", "", "99999999999999999999", "nan", "inf", "1e400",
              " 5 ", "+1"]
VALID_CELLS = {np.int64: st.integers(-2**63, 2**63 - 1).map(str),
               float: st.floats(allow_nan=False, allow_infinity=False).map(repr),
               None: st.text("ab x", max_size=3)}


def edge_or_valid(dtype):
    return st.one_of(VALID_CELLS[dtype], st.sampled_from(EDGE_CELLS))


@st.composite
def plain_blocks(draw):
    """``dtypes`` and a block of rows of cells for them, valid or from EDGE_CELLS."""
    dtypes = draw(st.lists(st.sampled_from([np.int64, float, None]), min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*map(edge_or_valid, dtypes)), min_size=1, max_size=8))
    return dtypes, "".join(",".join(row) + "\n" for row in rows).encode()


@settings(max_examples=300, deadline=None)
@given(block=plain_blocks())
@example(block=([np.int64, float, None], b"1,2.5,a\n+1, 5 ,b\n"))  # all cast in C
@example(block=([float, float], b"1.5,nan\n1e400,2\n"))  # the first non-finite value
def test_the_c_cast_gives_the_columns_and_bad_cell_of_the_object_split(block):
    dtypes, text = block
    rows = python_split(text)
    assume(rows)  # a blank block: no rows to cast
    columns, bad = table.typed(np.array(rows, dtype=object), dtypes)
    cast = _cast_plain(text, dtypes)
    if cast is None:  # numpy's C reader refused the block: typed casts it and finds the bad cell
        return
    assert bad is None
    for new, old in zip(cast, columns, strict=True):
        assert new.dtype == old.dtype
        if new.dtype == object:
            assert new.tolist() == old.tolist()
        else:  # bit for bit, -0.0 included
            assert np.ascontiguousarray(new).tobytes() == old.tobytes()


@st.composite
def edge_cell_forecast_files(draw):
    """Truth windows and the text of a forecast file for them, with cells from EDGE_CELLS."""
    n_vars, horizon = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    panel = Panel(range(12), tuple(f"v{i}" for i in range(n_vars)), np.ones((12, n_vars)))
    windows = sliding_windows(panel, WindowSpec(2, horizon))
    n_samples = draw(st.integers(1, len(windows)))
    rows = [[str(s), str(t), v, draw(VALID_CELLS[float])]
            for s in range(n_samples) for t in range(1, horizon + 1) for v in panel.variables]
    for _ in range(draw(st.integers(0, 3))):
        row, column = draw(st.integers(0, len(rows) - 1)), draw(st.sampled_from([0, 1, 3]))
        rows[row][column] = draw(st.sampled_from(EDGE_CELLS))
    head = "#L=2\n" f"#H={horizon}\n" "sample_id,step,variable,y_pred\n"
    return windows, head + "".join(",".join(row) + "\n" for row in rows)


@SETTINGS
@given(case=edge_cell_forecast_files(), count=st.integers(2, 4), block=st.integers(16, 256))
def test_ranged_forecast_reads_of_edge_cells_match_one_range(tmp_path, monkeypatch, case, count,
                                                             block):
    windows, text = case
    path = tmp_path / "fc.csv"
    path.write_text(text)
    monkeypatch.setattr(table, "BLOCK_BYTES", block)
    serial = outcome(load_forecasts, path, windows)
    assert_same(ranged(monkeypatch, count, load_forecasts, path, windows), serial, same_batch)
    assert_no_worker_left()


@SETTINGS
@given(data=st.data(), count=st.integers(2, 4), block=st.integers(16, 256),
       n_rows=st.integers(1, 20), n_vars=st.integers(1, 3))
def test_ranged_panel_reads_of_edge_cells_match_one_range(tmp_path, monkeypatch, data, count,
                                                          block, n_rows, n_vars):
    rows = [[str(100 + i)] + [data.draw(VALID_CELLS[float], label="value") for _ in range(n_vars)]
            for i in range(n_rows)]
    for _ in range(data.draw(st.integers(0, 3), label="edges")):
        row = data.draw(st.integers(0, n_rows - 1), label="row")
        column = data.draw(st.integers(1, n_vars), label="column")
        rows[row][column] = data.draw(st.sampled_from(EDGE_CELLS), label="edge")
    path = tmp_path / "panel.csv"
    path.write_text(",".join(["timestamp", *(f"v{j}" for j in range(n_vars))]) + "\n"
                    + "".join(",".join(row) + "\n" for row in rows))
    monkeypatch.setattr(table, "BLOCK_BYTES", block)
    serial = outcome(load_csv, path)
    assert_same(ranged(monkeypatch, count, load_csv, path), serial, same_panel)
    assert_no_worker_left()


# Files that np.loadtxt refuses somewhere in the body, or that hold a quote late.
ONCE_KINDS = ["trailing_comment", "comment", "not_utf8", "ragged_last", "quoted_last"]


def corrupt_for_one_parse(path, first_body, kind):
    """``path`` with one line changed, added or quoted below its first body row."""
    lines = path.read_bytes().splitlines(keepends=True)
    mid = (first_body + len(lines)) // 2
    if kind == "trailing_comment":
        lines.append(b"#end of file\n")
    elif kind == "comment":
        lines.insert(mid, b"#note\n")
    elif kind == "not_utf8":
        lines[mid] = b"\xff" + lines[mid][1:]
    elif kind == "ragged_last":  # in the last range, a worker's
        lines[-1] = lines[-1][:-1] + b",9\n"
    else:
        *cells, last = lines[-1][:-1].split(b",")
        lines[-1] = b",".join([*cells, b'"' + last + b'"']) + b"\n"
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ONCE_KINDS)
def test_each_read_parses_its_file_once(tmp_path, monkeypatch, kind, count):
    # A comment row, a byte that is not UTF-8 or a ragged row below the header
    # used to make the plain read give up and parse the whole file again with
    # csv.reader; a quote anywhere has it read by csv.reader from the start.
    panel = Panel(range(100, 400), ("v0", "v1"), np.arange(600.0).reshape(300, 2) / 8)
    windows = sliding_windows(panel, WindowSpec(4, 2))
    panel_path, forecast_path = tmp_path / "p.csv", tmp_path / "f.csv"
    write_csv(panel, panel_path, header_comments=PROVENANCE)
    write_forecasts(forecast_path, make_batch(windows, windows.truth), 4,
                    header_comments=PROVENANCE)
    corrupt_for_one_parse(panel_path, len(PROVENANCE) + 1, kind)
    corrupt_for_one_parse(forecast_path, len(PROVENANCE) + 5, kind)
    calls, parse = [], table._parse
    monkeypatch.setattr(table, "_parse", lambda path, *args, **kwargs: calls.append(path)
                        or parse(path, *args, **kwargs))
    for read, compare, args in ((load_csv, same_panel, (panel_path,)),
                                (load_forecasts, same_batch, (forecast_path, windows))):
        calls.clear()
        serial = outcome(read, *args)
        assert calls == [args[0]]
        calls.clear()
        assert_same(ranged(monkeypatch, count, read, *args), serial, compare)
        assert calls == [args[0]]
        assert serial[0] == ("error" if kind in ("not_utf8", "ragged_last") else "ok")
    assert_no_worker_left()


def _killed(job, k, out):
    os.kill(os.getpid(), signal.SIGKILL)


def _short(job, k, out):
    out.write(b"\x80")
    out.flush()
    os._exit(0)


@pytest.mark.parametrize("worker", [_killed, _short])
def test_a_failed_worker_has_its_range_redone(tmp_path, monkeypatch, worker):
    panel = ohlcv_panel(300, seed=5, assets=("A", "B"))
    windows = sliding_windows(panel, WindowSpec(8, 3))
    batch = make_batch(windows, naive_forecast(windows, 3, seed=2))
    write_csv(panel, tmp_path / "p.csv")
    write_forecasts(tmp_path / "f.csv", batch, 8)
    without_twin(tmp_path / "p.csv", tmp_path / "f.csv")
    monkeypatch.setattr(table, "_work", worker)
    out = tmp_path / "ranged"
    if worker is _killed:  # a writer's file is taken only from a worker that exited 0
        assert ranged(monkeypatch, 3, write_csv, panel, out / "p.csv")[0] == "ok"
        assert ranged(monkeypatch, 3, write_forecasts, out / "f.csv", batch, 8)[0] == "ok"
        assert (out / "p.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()
        assert (out / "f.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()
    assert_same(ranged(monkeypatch, 3, load_csv, tmp_path / "p.csv"),
                outcome(load_csv, tmp_path / "p.csv"), same_panel)
    assert_same(ranged(monkeypatch, 3, load_forecasts, tmp_path / "f.csv", windows),
                outcome(load_forecasts, tmp_path / "f.csv", windows), same_batch)
    assert_no_worker_left()


def test_no_worker_or_file_outlives_a_failure(tmp_path, monkeypatch):
    in_ranges(monkeypatch, 3)
    panel = Panel(range(40), ("a",), np.arange(40.0)[:, None])
    path = tmp_path / "p.csv"
    write_csv(panel, path)
    text = path.read_text()
    path.write_text(text[: text.rindex("\n", 0, -1) + 1] + "39,oops\n")
    with pytest.raises(IngestError, match="row 41"):
        load_csv(path)
    assert_no_worker_left()

    def lines(start, stop):  # the parent's own range fails, while the workers format theirs
        if start == 0 and stop > 1:
            raise RuntimeError("disk full")
        return [np.arange(start, stop), np.arange(start, stop)]

    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="disk full"):
        table.write_rows(out / "t.csv", ["h,a"], 400, lines, (np.int64, np.int64))
    assert list(out.iterdir()) == []
    assert_no_worker_left()


@pytest.mark.parametrize("writer", ["write_rows", "write_head"])
def test_a_failed_write_leaves_the_earlier_file_as_it_was(tmp_path, monkeypatch, writer):
    # write_rows used to unlink the earlier file, and a head-only write to leave it cut short.
    monkeypatch.setattr(table, "BLOCK_BYTES", 16)  # a few rows a block
    path = tmp_path / "t.csv"
    path.write_bytes(b"h,a\nearlier,1\n")

    def lines(start, stop):
        if start >= 8:
            raise RuntimeError("disk full")
        return [np.arange(start, stop), np.arange(start, stop)]

    with pytest.raises(RuntimeError, match="disk full"):
        if writer == "write_rows":
            table.write_rows(path, ["h,a"], 20, lines, (np.int64, np.int64))
        else:
            table.write_rows(path, (f"{i},{i}" for i in range(20) if lines(i, i + 1)))
    assert path.read_bytes() == b"h,a\nearlier,1\n"
    assert list(tmp_path.iterdir()) == [path]


def test_a_written_file_has_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("")
    table.write_rows(tmp_path / "lines.csv", ["h", "1"])
    table.write_rows(tmp_path / "rows.csv", ["h"], 3, lambda a, b: [np.arange(a, b)], (np.int64,))
    assert (tmp_path / "lines.csv").read_text() == "h\n1\n"
    assert (tmp_path / "rows.csv").read_text() == "h\n0\n1\n2\n"
    assert {(tmp_path / name).stat().st_mode for name in ("lines.csv", "rows.csv")} \
        == {plain.stat().st_mode}


# --- typed twins ----------------------------------------------------------------

def spy_reads(monkeypatch) -> tuple[list, list]:
    """The twins read and the text blocks given to numpy's C reader from now on, in this
    process."""
    twins, casts = [], []
    blocks, cast = table._twin_blocks, table._cast_plain
    monkeypatch.setattr(table, "_twin_blocks", lambda fh, *args: twins.append(fh.name)
                        or blocks(fh, *args))
    monkeypatch.setattr(table, "_cast_plain",
                        lambda block, dtypes: casts.append(len(block)) or cast(block, dtypes))
    return twins, casts


def read_as_text(read, path, *args):
    """The outcome of ``read(path, *args)`` with ``path``'s twin set aside, if it has one."""
    twin = table._twin_path(path)
    aside = twin.with_name(twin.name + ".aside")
    if twin.exists():
        twin.rename(aside)
    try:
        return outcome(read, path, *args)
    finally:
        if aside.exists():
            aside.rename(twin)


# Carried labels: integers, dates, integers among spaces, and text load_csv refuses.
TWIN_LABELS = [st.integers(-10**6, 10**6),
               st.integers(0, 20000).map(lambda d: str(np.datetime64("1990-01-01") + d)),
               st.integers(0, 999).map(lambda i: f" {i} "),
               st.text("ab é \t1", min_size=1, max_size=4).filter(table.carried)]


@st.composite
def twin_cases(draw):
    """A panel, forecasts over it, and truth windows of the panel they were made for and
    of the panel with fewer windows or other targets."""
    n_vars = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 3))
    input_len = draw(st.integers(1, 4))
    n_rows = input_len + horizon + draw(st.integers(0, 5))
    labels = draw(st.lists(draw(st.sampled_from(TWIN_LABELS)), min_size=n_rows,
                           max_size=n_rows, unique=True))
    values = np.array(draw(st.lists(finite, min_size=n_rows * n_vars, max_size=n_rows * n_vars)))
    panel = Panel(labels, tuple(f"x{i}" for i in range(n_vars)), values.reshape(n_rows, n_vars))
    targets = tuple(draw(st.lists(st.sampled_from(panel.variables), min_size=1, unique=True)))
    windows = sliding_windows(panel, WindowSpec(input_len, horizon, targets))
    preds = np.array(draw(st.lists(finite, min_size=windows.truth.size,
                                   max_size=windows.truth.size))).reshape(windows.truth.shape)
    others = [windows]
    if len(windows) > 1:
        others.append(sliding_windows(panel.rows(0, n_rows - 1), windows.spec))
    if n_vars > 1:
        others.append(sliding_windows(panel, WindowSpec(input_len, horizon, panel.variables[::-1])))
    return panel, windows, make_batch(windows, preds), draw(st.sampled_from(others))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=twin_cases(), count=st.integers(1, 4))
def test_a_twin_read_is_the_text_read(tmp_path, monkeypatch, case, count):
    # Written in 1-4 ranges, a panel and a forecast file each get a twin, and a
    # read takes its columns from the twin, casting no text, with the panel,
    # batch or error the text gives.
    panel, windows, batch, truth = case
    panel_path, forecast_path = tmp_path / "p.csv", tmp_path / "f.csv"
    with monkeypatch.context() as patch:
        in_ranges(patch, count)
        write_csv(panel, panel_path, header_comments=PROVENANCE)
        write_forecasts(forecast_path, batch, windows.spec.input_len, header_comments=PROVENANCE)
    assert_no_worker_left()
    assert table._twin_path(panel_path).exists() and table._twin_path(forecast_path).exists()
    for read, compare, args in ((load_csv, same_panel, (panel_path,)),
                                (load_forecasts, same_batch, (forecast_path, truth))):
        with monkeypatch.context() as patch:
            twins, casts = spy_reads(patch)
            new = outcome(read, *args)
        assert twins == [str(table._twin_path(args[0]))] and casts == []
        assert_same(new, read_as_text(read, *args), compare)


TWIN_BREAKS = ["byte", "comment", "crlf", "truncated", "foreign", "dtypes"]


def break_twin(data, path, other, kind):
    """Edit ``path`` or its twin in one way that must leave its twin unused."""
    twin = table._twin_path(path)
    text, typed = path.read_bytes(), twin.read_bytes()
    if kind == "byte":
        at = data.draw(st.integers(0, len(text) - 1), label="at")
        byte = data.draw(st.sampled_from(b'09.-e,x#"\n\r\xff '), label="byte")
        assume(text[at] != byte)
        path.write_bytes(text[:at] + bytes([byte]) + text[at + 1 :])
    elif kind == "comment":
        path.write_bytes(text + b"#appended\n")
    elif kind == "crlf":
        path.write_bytes(text.replace(b"\n", b"\r\n"))
    elif kind == "truncated":
        twin.write_bytes(typed[: data.draw(st.integers(0, len(typed) - 1), label="size")])
    elif kind == "foreign":
        twin.write_bytes(table._twin_path(other).read_bytes())
    else:  # the dtypes line of the other kind of file, over this file's digest
        head = typed.split(b"\n", 2)
        other_head = table._twin_path(other).read_bytes().split(b"\n", 2)
        twin.write_bytes(b"\n".join([head[0], other_head[1], head[2]]))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=twin_cases(), data=st.data(), kind=st.sampled_from(TWIN_BREAKS))
def test_an_edited_table_or_a_broken_twin_is_read_as_text(tmp_path, monkeypatch, case, data,
                                                           kind):
    panel, windows, batch, truth = case
    panel_path, forecast_path = tmp_path / "p.csv", tmp_path / "f.csv"
    write_csv(panel, panel_path, header_comments=PROVENANCE)
    write_forecasts(forecast_path, batch, windows.spec.input_len, header_comments=PROVENANCE)
    path = data.draw(st.sampled_from([panel_path, forecast_path]), label="file")
    break_twin(data, path, forecast_path if path == panel_path else panel_path, kind)
    read, compare, args = ((load_csv, same_panel, (path,)) if path == panel_path
                           else (load_forecasts, same_batch, (path, truth)))
    with monkeypatch.context() as patch:
        twins, _ = spy_reads(patch)
        new = outcome(read, *args)
    assert twins == []
    assert_same(new, read_as_text(read, *args), compare)


@pytest.fixture(scope="module")
def curves(tmp_path_factory):
    """A directory holding a transformed panel and the timing, longshort and topk curves
    ``backtest`` writes of a forecast over it, each with its twin."""
    run = tmp_path_factory.mktemp("curves")
    raw, t, a, fc = (str(run / name) for name in ("raw.csv", "t.csv", "a.csv", "fc.csv"))
    write_raw_csv(raw, ohlcv_panel(70, seed=31, assets=("A", "B", "C")))
    assert cli.main(["preprocess", "--input", raw, "--output", t, "--anchors", a]) == 0
    assert cli.main(["naive-forecast", "--input", t, "--output", fc, "--input-len", "20",
                     "--horizon", "5", "--task", "m2p",
                     "--target-vars", "close_A,close_B,close_C"]) == 0
    for strategy, flags in (("timing", ["--target-var", "close_A"]),
                            ("longshort", ["--target-var", "close_A"]), ("topk", ["--k", "2"])):
        assert cli.main(["backtest", "--forecasts", fc, "--panel", t, "--anchors", a,
                         "--output", str(run / f"{strategy}.csv"), "--strategy", strategy,
                         "--window", "5", *flags]) == 0
    return run


def report_of(path) -> bytes:
    """The bytes ``report`` writes of the curve at ``path``."""
    out = path.with_name("report.csv")
    cli.cmd_report({"input": str(path), "output": str(out), "periods_per_year": 252.0,
                    "risk_free": 0.0}, PROVENANCE)
    return out.read_bytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(strategy=st.sampled_from(["timing", "longshort", "topk"]), data=st.data(),
       kind=st.sampled_from(TWIN_BREAKS))
def test_an_edited_curve_or_a_broken_twin_is_read_as_text(tmp_path, monkeypatch, curves,
                                                           strategy, data, kind):
    # The report or error is the text's, and a stale twin is unlinked by the
    # read that finds it: one that does not end in the digest of a plain curve.
    path = tmp_path / "curve.csv"
    for source, target in ((curves / f"{strategy}.csv", path),
                           (table._twin_path(curves / f"{strategy}.csv"), table._twin_path(path))):
        target.write_bytes(source.read_bytes())
    break_twin(data, path, curves / "t.csv", kind)
    mapped, map_ = [], table.Blocks.map
    with monkeypatch.context() as patch:
        twins, _ = spy_reads(patch)
        patch.setattr(table.Blocks, "map", lambda *a: mapped.append(1) or map_(*a))
        new = outcome(report_of, path)
    assert twins == []
    stale = kind != "dtypes" and table._plain(path.read_bytes()) and bool(mapped)
    assert table._twin_path(path).exists() != stale
    assert new == read_as_text(report_of, path)


@pytest.mark.parametrize("variables, head", [
    (("a", 'b"c'), []), (("a",), ['#note="x"']),  # read by csv.reader, never from a twin
    (("a",), ["note,1"]), (("a",), ["#note", "b,c", ""]),  # a head line read as the header
])
def test_a_table_a_twin_cannot_stand_in_for_gets_none(tmp_path, variables, head):
    panel = Panel(range(3), variables, np.ones((3, len(variables))))
    path = tmp_path / "p.csv"
    write_csv(panel, path, header_comments=head)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]
    write_csv(panel.select(["a"]), path)
    assert table._twin_path(path).exists()


def test_a_twin_is_the_same_bytes_every_time(tmp_path):
    panel = ohlcv_panel(300, seed=5, assets=("A", "B"))
    windows = sliding_windows(panel, WindowSpec(8, 3))
    batch = make_batch(windows, naive_forecast(windows, 3, seed=2))
    twins = []
    for run in ("a", "b"):
        write_csv(panel, tmp_path / run / "p.csv")
        write_forecasts(tmp_path / run / "f.csv", batch, 8)
        twins.append([table._twin_path(tmp_path / run / name).read_bytes()
                      for name in ("p.csv", "f.csv")])
    assert twins[0] == twins[1]


def test_a_table_written_without_a_twin_takes_the_old_one_away(tmp_path):
    # A table finpipe writes with no typed columns leaves no twin of an
    # earlier table at its path.
    path = tmp_path / "t.csv"
    write_csv(Panel(range(3), ("a",), np.ones((3, 1))), path)
    assert table._twin_path(path).exists()
    table.write_rows(path, ["h,a", "0,1"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


@pytest.mark.parametrize("name", ["a,b", "a\nb", "#a", ""])
def test_a_forecast_naming_a_variable_a_file_cannot_carry_gets_no_twin(tmp_path, name):
    # Its records would not read back as written, or might not: only text is read.
    panel = Panel(range(8), ("v0", "v1"), np.ones((8, 2)))
    windows = sliding_windows(panel, WindowSpec(2, 2))
    batch = make_batch(windows, windows.truth)
    write_forecasts(tmp_path / "f.csv", dataclasses.replace(batch, variables=(name, "v1")), 2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.csv"]
