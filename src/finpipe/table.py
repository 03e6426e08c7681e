"""The one CSV layer: every table the pipeline reads or writes passes here.

Reading follows the csv module's default dialect. Blank lines and rows whose
first field starts with ``#`` are skipped; the other rows are numbered from
1, the header. Every body row must have as many fields as the header. A file
is read once, in blocks of about BLOCK_BYTES of text, and its cells come back
as text a block at a time; callers cast each block's columns whole, and numpy
calls Python's ``int``/``float`` on each cell, so the accepted grammar is
theirs. Errors still come in file order: the reader stops at the first row
with the wrong field count, and raises for it only once the caller has
finished with the rows above it.
"""

from __future__ import annotations

import csv
import io
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import FormatError, ToolkitError

Parsed = TypeVar("Parsed")

BLOCK_BYTES = 1 << 16  # text split per block; bounds the str cells held at once


@dataclass(frozen=True)
class Table:
    """A CSV file's stripped header (None when it has no rows) and body cells.

    ``cells`` is an object array of ``str``; body row ``i`` is row i + 2.
    ``n_rows`` counts the body rows read: those in ``cells`` and, when the
    reader stopped at a row with the wrong field count, that row.
    """

    path: Path
    header: list[str] | None
    cells: np.ndarray
    n_rows: int


class Blocks:
    """The body rows of an open CSV file, as consecutive blocks of cells.

    ``header`` is the file's stripped header, None when it has no rows.
    Each block is an object array of ``str``, one row per body row. ``n_rows``
    counts the body rows yielded so far and, once the blocks have ended at a
    row with the wrong field count, that row; ``ragged`` then names it.
    """

    def __init__(self, path: Path, fh: BinaryIO):
        self.path, self.n_rows, self.ragged = path, 0, None
        self._rows = _rows(path, fh)
        header = next(self._rows)
        self.header = None if header is None else [h.strip() for h in header]

    def __iter__(self) -> Iterator[np.ndarray]:
        width = len(self.header or ())
        for rows in self._rows:
            if isinstance(rows, list):  # csv.reader's rows, of any length
                bad = np.flatnonzero(np.fromiter(map(len, rows), int, len(rows)) != width)
                if bad.size:
                    i = bad[0]
                    self.ragged = (f"{self.path}: row {self.n_rows + i + 2} has {len(rows[i])} "
                                   f"fields, expected {width}")
                    rows = rows[:i]
                rows = np.array(rows, dtype=object).reshape(len(rows), width)
            self.n_rows += len(rows) + (self.ragged is not None)
            if len(rows):
                yield rows
            if self.ragged:
                return

    def close(self) -> None:
        self._rows.close()


def read_blocks(path, parse: Callable[[Blocks], Parsed], error: type[ToolkitError] = FormatError,
                what: str = "file") -> Parsed:
    """What ``parse`` makes of the body blocks of ``path``; a missing file raises ``error``.

    ``parse`` reads every block or raises. A row with the wrong field count
    ends the blocks, and raises ``error`` once ``parse`` has returned on the
    rows above it, so that errors come in file order and no caller sees a
    table cut short.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"no such {what}: {path}")
    with open(path, "rb") as fh, closing(Blocks(path, fh)) as blocks:
        parsed = parse(blocks)
    if blocks.ragged:
        raise error(blocks.ragged)
    return parsed


def read_table(path, parse: Callable[[Table], Parsed], error: type[ToolkitError] = FormatError,
               what: str = "file") -> Parsed:
    """What ``parse`` makes of the table in ``path``, its blocks joined; see read_blocks."""

    def whole(blocks: Blocks) -> Parsed:
        empty = np.empty((0, len(blocks.header or ())), dtype=object)
        cells = np.concatenate([empty, *blocks])
        return parse(Table(blocks.path, blocks.header, cells, blocks.n_rows))

    return read_blocks(path, whole, error, what)


def _rows(path: Path, fh: BinaryIO) -> Iterator:
    """The header row (None when the file has no rows), then blocks of body rows.

    np.loadtxt splits a block three times faster than csv.reader, and the
    same way on a block without quote, CR or NUL bytes, without a comment
    row below the header and with rows as long as the header; it gives an
    array. From the first block that is not so, csv.reader splits the rest
    of the file, and gives lists of rows. Each line above that block is one
    csv.reader row, so the reader skips as many rows as they have lines.
    """
    width = None  # the header's field count, once it is read
    lines = 0  # the lines of the blocks split so far, one csv.reader row each
    for block in _line_blocks(fh):
        rows = _split_plain(block, width)
        if rows is None:
            break
        if width is None and len(rows):
            width = rows.shape[1]
            yield rows[0]
            rows = rows[1:]
        if len(rows):
            yield rows
        lines += block.count(b"\n")
    else:
        if width is None:
            yield None
        return
    with open(path, newline="", encoding="utf-8") as text:
        rows = (r for r in islice(csv.reader(text), lines, None) if r and not r[0].startswith("#"))
        if width is None:
            header = next(rows, None)
            yield header
            if header is None:
                return
        block, size = [], 0
        for row in rows:
            block.append(row)
            size += sum(map(len, row)) + len(row)
            if size >= BLOCK_BYTES:
                yield block
                block, size = [], 0
        if block:
            yield block


def _line_blocks(fh: BinaryIO) -> Iterator[bytes]:
    """The bytes of ``fh`` in blocks of about BLOCK_BYTES, each ending a line but the last."""
    carry = b""
    while chunk := fh.read(BLOCK_BYTES):
        carry += chunk
        cut = carry.rfind(b"\n") + 1
        if cut:
            yield carry[:cut]
            carry = carry[cut:]
    if carry:
        yield carry


def _split_plain(block: bytes, width: int | None) -> np.ndarray | None:
    """The rows of ``block`` as np.loadtxt splits them, or None where its split may differ.

    ``block`` holds whole lines. Where ``width`` is None, no header has been
    read: the block's leading comment rows and blank lines are skipped, and
    the row below them is the header. None for a quote, CR or NUL byte, a
    comment row below the header, undecodable text, or a row whose field
    count differs from the others' or from ``width``; blank lines give no rows.
    """
    if any(byte in block for byte in (b'"', b"\r", b"\0")):
        return None
    start = 0
    if width is None:
        while block[start : start + 1] in (b"#", b"\n"):
            start = block.find(b"\n", start) + 1 or len(block)
    if block.startswith(b"#", start) or block.find(b"\n#", start) >= 0:
        return None
    try:
        text = block[start:].decode("utf-8")
        if not text.strip("\n"):
            return np.empty((0, width or 0), dtype=object)
        rows = np.loadtxt(io.StringIO(text), dtype=object, delimiter=",", comments=None,
                          quotechar=None, ndmin=2)
    except ValueError:  # UnicodeDecodeError, or rows of unequal length; csv.reader finds the first
        return None
    return rows if width in (None, rows.shape[1]) else None


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
