"""The one CSV layer: every table the pipeline reads or writes passes here.

Reading follows the csv module's default dialect. Blank lines and rows whose
first field starts with ``#`` are skipped; the other rows are numbered from
1, the header. Every body row must have as many fields as the header. Cells
come back as text and are cast whole columns at a time; numpy calls Python's
``int``/``float`` on each cell, so the accepted grammar is theirs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

from .errors import FormatError, ToolkitError

Parsed = TypeVar("Parsed")


@dataclass(frozen=True)
class Table:
    """A CSV file's stripped header (None when it has no rows) and body cells.

    ``cells`` is an object array of ``str``; body row ``i`` is row i + 2.
    ``n_rows`` counts every body row of the file, ``cells`` only those above
    the first row with the wrong field count.
    """

    path: Path
    header: list[str] | None
    cells: np.ndarray
    n_rows: int


def read_table(path, parse: Callable[[Table], Parsed], error: type[ToolkitError] = FormatError,
               what: str = "file") -> Parsed:
    """What ``parse`` makes of the table in ``path``; a missing file raises ``error``.

    A row with the wrong field count raises ``error`` once ``parse`` has
    returned on the rows above it, so that errors come in file order and no
    caller sees a table cut short.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"no such {what}: {path}")
    plain = _split_plain(path)
    if plain is not None:
        return parse(Table(path, [h.strip() for h in plain[0]], plain[1:], len(plain) - 1))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        return parse(Table(path, None, np.empty((0, 0), dtype=object), 0))
    header, n_rows = rows[0], len(rows) - 1
    bad = np.flatnonzero(np.fromiter(map(len, rows), int, len(rows)) != len(header))
    n_good = bad[0] - 1 if bad.size else n_rows
    ragged = None if not bad.size else error(
        f"{path}: row {n_good + 2} has {len(rows[n_good + 1])} fields, expected {len(header)}")
    cells = np.array(rows[1 : n_good + 1], dtype=object).reshape(n_good, len(header))
    del rows  # the cells hold the strings; the row lists can go
    parsed = parse(Table(path, [h.strip() for h in header], cells, n_rows))
    if ragged:
        raise ragged
    return parsed


def _split_plain(path: Path) -> np.ndarray | None:
    """The rows of ``path`` as split by np.loadtxt, or None where its split may differ.

    np.loadtxt splits three times faster than csv.reader, and the same way on
    a file without quote, CR or NUL bytes, without a comment row below the
    header and with equally long rows. Any other file gives None.
    """
    data = path.read_bytes()
    start = 0  # past the leading comment rows and blank lines
    while data[start : start + 1] in (b"#", b"\n"):
        start = data.find(b"\n", start) + 1 or len(data)
    if start == len(data) or data.find(b"\n#", start) >= 0 \
            or any(byte in data for byte in (b'"', b"\r", b"\0")):
        return None
    try:
        return np.loadtxt(path, dtype=object, delimiter=",", comments=None, quotechar=None,
                          skiprows=data.count(b"\n", 0, start), encoding="utf-8", ndmin=2)
    except ValueError:  # rows of unequal length; csv.reader finds the first
        return None


def cast(cells: np.ndarray, dtype) -> tuple[np.ndarray, int]:
    """The leading rows of ``cells`` that convert to ``dtype``, and their count.

    The whole array is cast at once; only if that raises are rows cast one at
    a time, to find the first that fails.
    """
    try:
        return cells.astype(dtype), len(cells)
    except (ValueError, OverflowError):
        for i in range(len(cells)):
            try:
                cells[i : i + 1].astype(dtype)
            except (ValueError, OverflowError):
                return cells[:i].astype(dtype), i
        raise


def quote(cells: list[str]) -> list[str]:
    """``cells`` as csv's minimal quoting writes them.

    A cell holding a comma, quote, CR or LF is quoted and its quotes doubled.
    One scan of the joined cells passes a list that needs no quoting.
    """
    special = (",", '"', "\r", "\n")
    joined = "".join(cells)
    if not any(char in joined for char in special):
        return cells
    return ['"' + cell.replace('"', '""') + '"' if any(char in cell for char in special) else cell
            for cell in cells]


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each item of ``lines`` (one line or a block of them) and a newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
