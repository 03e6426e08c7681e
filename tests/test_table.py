"""The vectorised CSV layer against the loop readers and writers it replaced.

``reference_io`` keeps the per-cell implementations. On random valid files
both must give equal arrays and equal bytes; on corrupted files both must
raise the same exception type with the same message. A warning raised by a
reader fails the test, so an empty body must not make numpy warn.
"""

import csv
import io
import os
import re
import signal
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
from finpipe import cli, forecast, table
from finpipe.errors import FormatError, IngestError
from finpipe.table import _split_plain, read_blocks
from synth import ohlcv_panel

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
])
def test_panel_edge_cases_match_reference(tmp_path, text, message):
    path = tmp_path / "panel.csv"
    path.write_text(text)
    new, old = outcome(load_csv, path), outcome(ref.load_csv, path)
    assert new == old
    assert new[0] == "error" and message in new[2]


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
@given(rows=st.lists(st.tuples(st.sampled_from(["1.5", " 2 ", "1_0", "x", "", "-3e2", "nan"]),
                               st.sampled_from(["0.5", "y", "٣", "inf"])), max_size=6))
def test_cli_table_columns_match_reference(tmp_path, rows):
    # The curve and quote reader reports the first bad cell of the per-cell
    # reader's columns in file order: the earliest row, then column a before b.
    path = tmp_path / "table.csv"
    path.write_text("#seed=1\nlabel,a,b\n" + "".join(f"t{i},{a},{b}\n" for i, (a, b) in enumerate(rows)))
    header, old_rows = ref.read_table(path)
    old = [outcome(ref.table_floats, path, header, old_rows, column) for column in ("a", "b")]
    errors = [o for o in old if o[0] == "error"]
    new = outcome(cli._read_columns, path, "curve", ("label", "a", "b"), ("a", "b"))
    if not old_rows:
        assert new == ("error", FormatError, f"{path}: curve file has no rows")
    elif errors:
        assert new == min(errors, key=lambda o: int(re.search(r"row (\d+):", o[2])[1]))
    else:
        new_header, cells, columns = new[1]
        assert new_header == header
        assert cells.tolist() == old_rows
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


@settings(max_examples=400, deadline=None)
@given(text=st.text(st.sampled_from('a1 ,#\n"\r\x00\t.-_e\u0663'), max_size=40))
def test_plain_split_matches_the_csv_module(text):
    # Where the np.loadtxt split of a file's first block answers at all, its
    # rows are csv.reader's.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = _split_plain(text.encode(), None)
    if plain is not None:
        rows = [r for r in csv.reader(io.StringIO(text, newline="")) if r and not r[0].startswith("#")]
        assert plain.tolist() == rows


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


def test_columns_grow_past_the_first_blocks_estimate(tmp_path, monkeypatch):
    # The first rows are the file's longest, so the room sized from the
    # file's first BLOCK_BYTES is too small and the typed columns must grow.
    panel = Panel(range(60), ("v0",), np.arange(60.0)[:, None])
    windows = sliding_windows(panel, WindowSpec(2, 1))
    preds = np.ones(windows.truth.shape)
    preds.flat[:4] = 1.2345678901234567e-300
    path = tmp_path / "fc.csv"
    write_forecasts(path, make_batch(windows, preds), 2)
    monkeypatch.setattr(table, "BLOCK_BYTES", 64)
    original, kept = forecast._with_room, []

    def with_room(columns, n_kept, n, path):
        kept.append(n_kept)
        return original(columns, n_kept, n, path)

    monkeypatch.setattr(forecast, "_with_room", with_room)
    assert_same(outcome(load_forecasts, path, windows),
                outcome(ref.load_forecasts, path, windows), same_batch)
    assert len(kept) > 1
    assert kept[0] == 0 and len(kept) > 1


# --- ranges -------------------------------------------------------------------

def in_ranges(monkeypatch, count):
    """Cut every body into ``count`` ranges, whatever its size and the CPUs."""
    monkeypatch.setattr(table, "RANGE_BYTES", 1)
    monkeypatch.setattr(table, "MAX_RANGES", count)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def ranged(monkeypatch, count, fn, *args):
    """The outcome of ``fn(*args)`` with bodies cut into ``count`` ranges."""
    with monkeypatch.context() as patch:
        in_ranges(patch, count)
        return outcome(fn, *args)


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    assert sorted(p.name for p in out.iterdir()) == ["f.csv", "p.csv"]
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
        cuts = table.Blocks(path, fh, split=True)._cuts()
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
        return [f"{i},{i}" for i in range(start, stop)]

    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="disk full"):
        table.write_rows(out / "t.csv", ["h,a"], 400, lines)
    assert list(out.iterdir()) == []
    assert_no_worker_left()


@pytest.mark.parametrize("writer", ["write_rows", "write_lines"])
def test_a_failed_write_leaves_the_earlier_file_as_it_was(tmp_path, monkeypatch, writer):
    # write_rows used to unlink the earlier file, and write_lines to leave it cut short.
    monkeypatch.setattr(table, "BLOCK_BYTES", 16)  # a few rows a block
    path = tmp_path / "t.csv"
    path.write_bytes(b"h,a\nearlier,1\n")

    def lines(start, stop):
        if start >= 8:
            raise RuntimeError("disk full")
        return [f"{i},{i}" for i in range(start, stop)]

    with pytest.raises(RuntimeError, match="disk full"):
        if writer == "write_rows":
            table.write_rows(path, ["h,a"], 20, lines)
        else:
            table.write_lines(path, (line for i in range(20) for line in lines(i, i + 1)))
    assert path.read_bytes() == b"h,a\nearlier,1\n"
    assert list(tmp_path.iterdir()) == [path]


def test_a_written_file_has_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("")
    table.write_lines(tmp_path / "lines.csv", ["h", "1"])
    table.write_rows(tmp_path / "rows.csv", ["h"], 3, lambda a, b: [str(i) for i in range(a, b)])
    assert (tmp_path / "lines.csv").read_text() == "h\n1\n"
    assert (tmp_path / "rows.csv").read_text() == "h\n0\n1\n2\n"
    assert {(tmp_path / name).stat().st_mode for name in ("lines.csv", "rows.csv")} \
        == {plain.stat().st_mode}
