"""The one CSV layer: every table the pipeline reads or writes passes here.

Reading follows the csv module's default dialect. Blank lines and rows whose
first field starts with ``#`` are skipped; the other rows are numbered from
1, the header. Every body row must have as many fields as the header. A
file's head, the lines down to its header, is scanned once, by ``_head``.
Its cells come back as text in blocks of about BLOCK_BYTES; callers cast
them with ``typed``, and numpy calls Python's ``int``/``float`` on each
cell, so the accepted grammar is theirs. The panel, forecast and curve readers
take their blocks typed instead (``Blocks.map`` with ``dtypes``): each plain
block with no comment row goes through numpy's C reader in one call, whose
grammar is a strict subset of Python's with the same values, and a block it
refuses, or that holds a float that is not finite, falls back to the text
cells and ``typed``. Errors come in file order: ``typed`` finds a block's
first bad cell by row, then column, and the caller's map part raises for it
there; the reader stops at the first row with the wrong field count and
raises for it only once the caller has finished with the rows above it; so
does a row holding text that is not UTF-8.

A file is read one of two ways, chosen once, so a parse callback runs once.
One holding a quote, CR or NUL is read by csv.reader from its first row, in
one range. Any other is read plain, in byte ranges, and one splitter makes
the text cells of its blocks: on LF, then on commas, as csv.reader splits
text with no quote. Big plain bodies are read, and big bodies written, by a
range map, on every CPU the process may use. ``Blocks.map`` cuts a body of
RANGE_BYTES or more into contiguous byte ranges, each ending on a newline,
and ``write_rows`` cuts its rows into ranges of whole blocks. Its callers
are the panel, forecast and curve readers and ``option-analytics``, which
solves and formats a range's quotes in the map.
The parent process does the first range itself; forked workers do the
others, each pickling its items into an unlinked temporary file, and the
parent takes them in file order. Every range of a read is taken by offset
from the one file the process opened and scanned. With one CPU, no
``os.fork`` or a smaller body there is one range. A worker that fails,
whose part raises for a bad row or that meets a row ending the body has its
range redone by the parent, so the output bytes, the parsed arrays and the
errors are the same however a body is cut. ``option-analytics`` alone passes its range's
first error back as the part's last object, so that no range is solved twice.

``write_rows`` is the one writer of a table; ``option-analytics`` alone
writes its rows as it reads them. Every file is written by ``replacing``:
into a new file beside its path, renamed over it once complete, so a
failed write leaves the path as it was. A table is head lines alone or has a
body of typed columns (a panel, forecast or curve file): ``rows.format_rows``
makes a block's text from its ints, floats and text cells, with no ``repr``
or ``str`` per cell; its floats are the bytes ``repr`` gives.

A panel, forecast or curve file that finpipe writes gets a typed twin beside
it, ``.<name>.typed``: the typed columns of its body, block by block, as
``_cast_plain`` casts them, and the sha256 of the file's bytes. ``write_rows``
makes it from the same rows it formats, and renames it into place once the
file is; it makes none for a file that is not plain or holds a text cell
that would not read back as itself (``carried``), and a twin that meets an
OSError is given up with the file written all the same. ``Blocks`` hashes a
file in the scan that chooses its reader, only when it has a twin, and
``map`` takes the twin's columns, in one range, when the file is plain, the
twin was made for the map's dtypes and its digest is the file's. Any other
file, an edited one or one with a short or foreign twin, is read as text, so
a twin changes no result, and deleting one is always safe; a twin that does
not end in its file's digest is stale, and the read that finds it unlinks it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import pickle
import re
from contextlib import closing, contextmanager, suppress
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, NoReturn, Sequence, TypeVar

import numpy as np

from .errors import FormatError, ToolkitError

Parsed = TypeVar("Parsed")

BLOCK_BYTES = 1 << 16  # text split per block; bounds the str cells held at once
RANGE_BYTES = 1 << 20  # a body smaller than this is read or written in one range
MAX_RANGES = 4  # ranges a body is cut into at most, one per usable CPU
_SURROGATE = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, as surrogateescape reads it


class Blocks:
    """The body rows of an open CSV file, as consecutive blocks of cells.

    ``head`` holds the lines above the header, decoded, and ``header`` the
    file's stripped header, None when it has no rows. Each block is an
    object array of ``str``, one row per body row. ``n_rows`` counts the body
    rows read so far and, once the blocks have ended at a row with the wrong
    field count or non-UTF-8 text, that row; ``ended`` then holds its error.
    ``above`` counts the body rows above the block last taken, for a ``map``
    part to number a bad row by; in a worker it counts from the range's first.

    A scan of the file's bytes chooses its reader. One holding a quote, CR or
    NUL is read by csv.reader from its first row. Any other is read plain:
    its body is split by ``_split``, in one range when iterated and in
    several where ``map`` cuts it. The same scan hashes a file that has a
    typed twin, for ``map`` to check the twin against.
    """

    def __init__(self, path: Path, fh: BinaryIO):
        self.path, self.n_rows, self.above, self.ended = path, 0, 0, None
        self._fh, self._maps, self._dtypes = fh, [], None
        digest = hashlib.sha256() if _twin_path(path).exists() else None
        self._plain = True
        for chunk in iter(lambda: fh.read(BLOCK_BYTES), b""):
            if not _plain(chunk):
                self._plain = False
                break
            if digest is not None:
                digest.update(chunk)
        self._size = fh.tell()  # the file's, where the scan has read it to its end
        self._digest = digest.digest() if digest is not None and self._plain else None
        fh.seek(0)
        self.head, line = _head(fh)
        if self._plain:
            self._start = fh.tell()
            header = line.rstrip("\n").split(",") if line else None
            self._rows = self._range(self._start, self._size)
        else:
            self._rows = _rows(fh)
            header = next(self._rows)
        self.header = None if header is None else [h.strip() for h in header]

    def __iter__(self) -> Iterator:
        return self._checked(self._rows)

    def map(self, part: Callable[[Iterator], Iterator], dtypes: Sequence | None = None
            ) -> Iterator:
        """The objects ``part`` yields of the body's blocks, range by range, in file order.

        ``part`` takes one range's blocks and yields what the caller reads
        of them, picklable objects, ending early where it likes. It runs in
        a forked worker for every range but the first, on blocks read from
        this object's open file, so it must not rely on state it changes.
        It raises its data error where it finds it, numbering its row from
        ``above``; a worker that raises, or whose blocks end at a row
        ``read_blocks`` raises for, has its range read again by the parent,
        where ``above`` counts from the file's first row.

        With ``dtypes`` (as ``typed`` takes them), the blocks come typed, as
        (columns, bad, cells): ``typed``'s columns and first bad cell, and
        the block's text cells, None where numpy's C reader cast the block.
        Where the file has a twin made for its bytes and ``dtypes``, the
        columns are the twin's, in one range, and a text column comes as
        (codes, names), its cells ``names[code]``.
        """
        self._dtypes = dtypes
        self._maps.append(ranges := self._ranges(part))
        return ranges

    def _checked(self, blocks: Iterator) -> Iterator:
        """The blocks a caller takes of ``blocks``, lists of rows of any length or the
        columns ``_cast_plain`` gives, ending at the first row with the wrong field count or
        non-UTF-8 text."""
        width = len(self.header or ())
        for rows in blocks:
            if isinstance(rows, tuple):
                first = rows[0][0] if isinstance(rows[0], tuple) else rows[0]
                n, block = len(first), (rows, None, None)
            else:
                bad = np.fromiter(map(len, rows), int, len(rows)) != width
                undecoded = _undecoded(rows)
                bad[undecoded : undecoded + 1] = True
                if bad.any():
                    i = int(np.argmax(bad))
                    self.ended = (f"{self.path}: not UTF-8 text" if i == undecoded else
                                  f"{self.path}: row {self.n_rows + i + 2} has {len(rows[i])} "
                                  f"fields, expected {width}")
                    rows = rows[:i]
                rows = np.array(rows, dtype=object).reshape(len(rows), width)
                n, block = len(rows), rows if self._dtypes is None else (
                    *typed(rows, self._dtypes), rows)
            self.above = self.n_rows
            self.n_rows += n + (self.ended is not None)
            if n:
                yield block
            if self.ended:
                return

    def _ranges(self, part) -> Iterator:
        twin = self._twin()
        cuts = [] if twin else self._cuts()
        if len(cuts) < 3:
            yield from part(self._checked(twin or self._rows))
            return

        def job(k: int, out: BinaryIO) -> None:
            self.n_rows = 0
            for item in part(self._checked(self._range(cuts[k], cuts[k + 1]))):
                pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)
            if self.ended:  # numbered from the range's first row: the parent redoes it
                raise FormatError(self.ended)
            out.write(self.n_rows.to_bytes(8, "little"))

        with closing(_Forked(len(cuts) - 1, job)) as workers:
            for k in range(len(cuts) - 1):
                loaded = _load(workers.result(k)) if k else None
                if loaded is None:
                    yield from part(self._checked(self._range(cuts[k], cuts[k + 1])))
                else:
                    self.n_rows += loaded[0]
                    yield from loaded[1]
                if self.ended:
                    return

    def _twin(self) -> Iterator | None:
        """The body's typed blocks read from its twin; None unless the file is plain and
        has a whole twin made for its bytes and the map's dtypes. A twin that does not
        end in the file's digest is stale, and is unlinked."""
        if self._digest is None or self._dtypes is None:
            return None
        twin = _twin_path(self.path)
        try:
            fh = open(twin, "rb")
        except OSError:
            return None
        try:
            fh.seek(max(os.fstat(fh.fileno()).st_size - len(self._digest), 0))
            stale = fh.read() != self._digest
            sizes = None if stale else _twin_sizes(fh, self._dtypes, len(self._digest))
        except OSError:
            stale, sizes = False, None
        if sizes is None:
            fh.close()
            if stale:
                with suppress(OSError):
                    twin.unlink()
            return None
        return _twin_blocks(fh, sizes, self._dtypes)

    def _cuts(self) -> list[int]:
        """The offsets that cut the body into ranges, each inner one just past a newline.

        Fewer than three when the body is read in one range: the file is
        read by csv.reader, or the body is small, or there is one CPU.
        """
        if not self._plain:
            return []
        start, size = self._start, self._size
        count = _range_count(size - start)
        if count == 1:
            return []
        cuts = [start]
        for k in range(1, count):
            self._fh.seek(max(cuts[-1], start + (size - start) * k // count) - 1)
            self._fh.readline()
            cuts.append(self._fh.tell())
        return cuts + [size]

    def _range(self, start: int, stop: int) -> Iterator:
        """The rows of the body lines from ``start`` to ``stop``, a block at a time."""
        yield from map(self._split, _line_blocks(self._fh, start, stop))

    def _split(self, block: bytes) -> tuple[np.ndarray, ...] | list[list[str]]:
        """The rows of ``block``: a typed reader's columns where ``_cast_plain`` casts it,
        else as csv.reader splits lines with no quote, CR or NUL: on LF, then on commas."""
        if self._dtypes is not None and (columns := _cast_plain(block, self._dtypes)) is not None:
            return columns
        lines = block.decode("utf-8", "surrogateescape").split("\n")
        return list(filter(_kept, (line.split(",") for line in lines if line)))

    def close(self) -> None:
        for ranges in self._maps:
            ranges.close()
        self._rows.close()


def read_blocks(path, parse: Callable[[Blocks], Parsed], error: type[ToolkitError] = FormatError,
                what: str = "file") -> Parsed:
    """What ``parse`` makes of the body blocks of ``path``; one it cannot open raises ``error``.

    ``parse`` runs once and reads every block or raises. A row with the wrong
    field count or (a comment row too) text that is not UTF-8 ends the blocks,
    and raises ``error`` once ``parse`` has returned on the rows above it, so
    that errors come in file order and no caller sees a table cut short.
    """
    path = Path(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:  # missing, a directory, or a file this process may not read
        raise error(f"cannot open {what} {path}: {exc.strerror}" if path.exists()
                    else f"no such {what}: {path}") from None
    try:
        parsed, ended = _parse(path, fh, parse)
    except UnicodeDecodeError:  # the head's, or a header row's
        raise error(f"{path}: not UTF-8 text") from None
    if ended:
        raise error(ended)
    return parsed


def _parse(path: Path, fh: BinaryIO, parse: Callable) -> tuple[Parsed, str | None]:
    with fh, closing(Blocks(path, fh)) as blocks:
        return parse(blocks), blocks.ended


def _head(fh: BinaryIO) -> tuple[list[str], str]:
    """The lines of ``fh`` above its header, and the header line ("" when there is none),
    decoded; where no line ends in a CR, ``fh`` is left at the first body line.

    The header is the first line that is neither blank nor starts with
    ``#``. A line ends at LF, CRLF or a lone CR, as for csv.reader. No text
    below the header is decoded; text above it that is not UTF-8 raises
    UnicodeDecodeError.
    """
    lines = []
    for line in iter(fh.readline, b""):
        for part in line.splitlines(keepends=True):
            if part[:1] not in (b"#", b"\n", b"\r"):
                return lines, part.decode("utf-8")
            lines.append(part.decode("utf-8"))
    return lines, ""


def _rows(fh: BinaryIO) -> Iterator:
    """The header row (None when the file has no rows), then blocks of body rows, as
    csv.reader reads ``fh`` from its first row; rows ``_kept`` drops are skipped."""
    fh.seek(0)
    with io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape", newline="") as text:
        rows = filter(_kept, csv.reader(text))
        header = next(rows, None)
        if header and _undecoded([header]) == 0:  # a quoted header cell may span lines
            raise UnicodeDecodeError("utf-8", b"", 0, 1, "in the header row")
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


def _kept(row: list[str]) -> bool:
    """Whether csv.reader's ``row`` is read: not blank nor a comment, or holding a _SURROGATE."""
    return bool(row) and row[0][:1] != "#" or _undecoded([row]) == 0


def _undecoded(rows: Sequence[Sequence[str]]) -> int:
    """The index of the first of ``rows`` holding a ``_SURROGATE``, else ``len(rows)``."""
    texts = list(map("".join, rows))
    found = _SURROGATE.search("".join(texts))
    if found is None:
        return len(rows)
    return int(np.searchsorted(np.cumsum(list(map(len, texts))), found.start(), side="right"))


def _line_blocks(fh: BinaryIO, start: int, stop: int) -> Iterator[bytes]:
    """The bytes of ``fh`` from ``start`` to ``stop`` in blocks of about BLOCK_BYTES, each
    ending a line but the last; read by offset, so no forked worker moves the file's position."""
    carry = b""
    while start < stop:
        size = min(BLOCK_BYTES, stop - start)
        if hasattr(os, "pread"):
            chunk = os.pread(fh.fileno(), size, start)
        else:  # nor is there os.fork, so no worker shares the position
            fh.seek(start)
            chunk = fh.read(size)
        if not chunk:  # the file is shorter than its scan
            break
        start += len(chunk)
        carry += chunk
        cut = carry.rfind(b"\n") + 1
        if cut:
            yield carry[:cut]
            carry = carry[cut:]
    if carry:
        yield carry


def _cast_plain(block: bytes, dtypes: Sequence) -> tuple[np.ndarray, ...] | None:
    """The columns of ``block``'s rows cast to ``dtypes`` by numpy's C reader, in one pass;
    None where it refuses a row or a cell, or a float is not finite, and for a block with
    a comment row, text that is not UTF-8 or no rows.

    ``block`` holds whole lines. numpy's grammar is a strict subset of
    Python's ``int`` and ``float``, with the same values: it refuses
    underscores, non-ASCII digits, an int cell written as a float, an empty
    cell and an int beyond 64 bits. So a block it casts is one ``typed``
    would cast alike with no bad cell, and any other goes to ``typed``,
    which finds the first bad cell.
    """
    if block.startswith(b"#") or b"\n#" in block:
        return None
    struct = np.dtype([(f"f{j}", dtype or object) for j, dtype in enumerate(dtypes)])
    try:
        text = block.decode("utf-8")
        if not text.strip("\n"):
            return None
        rows = np.loadtxt(io.StringIO(text), dtype=struct, delimiter=",", comments=None,
                          quotechar=None, ndmin=1)
    except ValueError:  # not UTF-8, a cell it refuses, or a row of another length
        return None
    columns = tuple(rows[name] for name in struct.names)
    if any(column.dtype.kind == "f" and not np.isfinite(column).all() for column in columns):
        return None
    return columns


def typed(cells: np.ndarray, dtypes: Sequence) -> tuple[list[np.ndarray], tuple | None]:
    """The columns of ``cells`` above its first bad cell, cast to ``dtypes``, and that cell.

    ``dtypes`` holds one entry per column: ``np.int64``, ``float``, or None
    for a column kept as text. A cell is bad when it does not convert to its
    column's dtype, or converts to a float that is not finite. The first bad
    cell in file order, the lowest row and then the lowest column, comes back
    as (row, column, failed), ``failed`` being true for a cell that did not
    convert; None when no cell is bad.
    """
    columns, bad = [], None
    for j, dtype in enumerate(dtypes):
        # Below an earlier column's bad cell, or on its row, no cell comes first.
        rows = cells[: len(cells) if bad is None else bad[0], j]
        values = _cast(rows, dtype or object)
        if len(values) < len(rows):
            bad = (len(values), j, True)
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            bad = (int(np.argmin(np.isfinite(values))), j, False)
        columns.append(values)
    n = len(cells) if bad is None else bad[0]
    return [column[:n] for column in columns], bad


def stripped(column) -> list[str]:
    """The stripped cells of a text column ``Blocks.map`` gives: ``str``s or (codes, names)."""
    if isinstance(column, tuple):  # each name stripped once
        return list(map([name.strip() for name in column[1]].__getitem__, column[0].tolist()))
    return list(map(str.strip, column))


def _cast(cells: np.ndarray, dtype) -> np.ndarray:
    """The leading cells of ``cells`` that convert to ``dtype``, converted.

    The whole column is cast at once; only if that raises are cells cast one
    at a time, to find the first that fails.
    """
    try:
        return cells.astype(dtype, copy=False)
    except (ValueError, OverflowError):
        for i in range(len(cells)):
            try:
                cells[i : i + 1].astype(dtype)
            except (ValueError, OverflowError):
                return cells[:i].astype(dtype)
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


@contextmanager
def replacing(path) -> Iterator[BinaryIO]:
    """A new file beside ``path``, renamed over it when the block ends and removed
    when it raises: ``path`` keeps its old bytes until all the new ones are written. An
    OSError making or renaming the new file raises ``cannot write <path>: <reason>``.
    """
    path = Path(path)
    try:
        temp, out = _beside(path)
    except OSError as exc:
        raise _unwritable(path, exc) from None
    try:
        with out:
            yield out
        try:
            os.replace(temp, path)
        except OSError as exc:
            raise _unwritable(path, exc) from None
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _unwritable(path: Path, exc: OSError) -> ToolkitError:
    return ToolkitError(f"cannot write {path}: {exc.strerror}")


def _beside(path: Path) -> tuple[Path, BinaryIO]:
    """A new file open for writing, and its path: created exclusively, under a random
    hidden name in ``path``'s directory, with the mode ``open`` gives a new file (0o666
    less the umask)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        temp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
        try:
            return temp, open(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
        except FileExistsError:  # the name is taken; draw another
            pass


def write_rows(path, head: Sequence[str], n_rows: int = 0,
               lines: Callable[[int, int], list] | None = None,
               dtypes: Sequence | None = None) -> None:
    """Write the ``head`` lines, then rows 0..n_rows made of the columns ``lines(start, stop)``
    gives, one per entry of ``dtypes`` (as ``typed`` takes them): an array or, for a text
    column, (codes, names), its cells ``names[code]``; with no rows, the ``head`` lines alone.

    ``format_rows`` makes the text of the columns, and ``_Twin`` the file's typed twin of
    them. Rows are formatted in blocks of about BLOCK_BYTES of text, sized from the first
    row. A body of RANGE_BYTES or more is cut into ranges of whole blocks, so its twin does
    not depend on how many ranges there are; forked workers format all but the first into
    unlinked temporary files in the output's directory, pickling each block's text and
    twin block as a read's worker its items, and the parent appends them in order. The
    file is written by ``replacing``, so a failed write changes nothing.
    """
    def formatted(start: int, stop: int) -> tuple[bytes, list | None]:  # text, twin block
        from .rows import format_rows  # on first use: a stage with no typed table skips it

        columns = lines(start, stop)
        text, carried = format_rows(columns, dtypes)
        return text, _twin_block(columns, dtypes) if carried else None

    head = "".join(line + "\n" for line in head).encode()
    row = len(formatted(0, 1)[0]) if n_rows else 1
    step = max(1, BLOCK_BYTES // row)
    count = _range_count(row * n_rows)
    cuts = sorted({n_rows * k // count // step * step for k in range(count)} | {n_rows})
    count = len(cuts) - 1  # no range is empty, so no worker is forked for nothing

    def blocks(k: int) -> Iterator[tuple[bytes, list | None]]:  # range k's, formatted
        for start in range(cuts[k], cuts[k + 1], step):
            yield formatted(start, min(start + step, cuts[k + 1]))

    def job(k: int, out: BinaryIO) -> None:
        for text, block in blocks(k):  # a twin block pickles fastest as one buffer
            pickle.dump((text, block and [b"".join(block)]), out, pickle.HIGHEST_PROTOCOL)
        out.write((cuts[k + 1] - cuts[k]).to_bytes(8, "little"))

    twin = _Twin(Path(path), dtypes, head)
    try:
        with replacing(path) as out, closing(_Forked(count, job, Path(path).parent)) as workers:
            out.write(head)
            for k in range(count):
                loaded = _load(workers.result(k)) if k else None
                for text, block in blocks(k) if loaded is None else loaded[1]:
                    out.write(text)
                    twin.add(text, block)
                    del text, block  # so no block is held while the next is made
    except BaseException:
        twin.drop()
        raise
    twin.place()


def _plain(data: bytes) -> bool:
    """Whether ``data`` holds no quote, CR or NUL byte: a file of such bytes is read plain."""
    return b'"' not in data and b"\r" not in data and b"\0" not in data


def carried(cell: str) -> bool:
    """Whether a plain file carries ``cell`` as itself, in any column: it is not empty,
    holds no comma, CR or LF, and starts with neither '#' nor '"'."""
    return bool(cell) and cell[0] not in "#\"" and "," not in cell and "\r" not in cell \
        and "\n" not in cell


# --- typed twins --------------------------------------------------------------
#
# A twin is a file ``.<name>.typed`` beside the table it was made of. It holds
# the _TWIN_HEAD line, a line naming its dtypes, then its blocks, then the sha256
# of the table's bytes. A block holds, as int64, its row count and the byte
# size of each text column's names; then each column, numbers as its dtype and
# text as int32 codes, padded to 8 bytes; then each text column's names, UTF-8,
# joined by LF. Numbers are in the machine's byte order, which the dtypes line
# names ('<f8'), so a twin made on a machine of the other order is not read.

_TWIN_HEAD = b"finpipe typed twin 1\n"


def _twin_path(path: Path) -> Path:
    return path.parent / f".{path.name}.typed"  # "." has no name for with_name to replace


def _twin_head(dtypes: Sequence) -> bytes:
    names = " ".join("text" if dtype is None else np.dtype(dtype).str for dtype in dtypes)
    return _TWIN_HEAD + names.encode() + b"\n"


def _padded(size: int) -> int:
    return size + -size % 8


def _twin_block(columns: Sequence, dtypes: Sequence) -> list:
    """The buffers of the twin block of a block's ``columns``, as ``write_rows`` takes them."""
    sizes, parts, names = [], [], []
    for column, dtype in zip(columns, dtypes):
        if dtype is None:
            column, text = column
            names.append("\n".join(text).encode())
            sizes.append(len(names[-1]))
        data = np.ascontiguousarray(column, np.int32 if dtype is None else dtype)
        parts += [data, bytes(-data.nbytes % 8)]
    return [np.array([parts[0].size, *sizes], np.int64), *parts, *names]


def _twin_sizes(fh: BinaryIO, dtypes: Sequence, tail: int) -> list[int] | None:
    """The byte sizes of the blocks of the twin open as ``fh``, which is left at its first
    block; None unless it is a whole twin of ``dtypes``, its last ``tail`` bytes a digest."""
    head, end = _twin_head(dtypes), os.fstat(fh.fileno()).st_size - tail
    fh.seek(0)
    if fh.read(len(head)) != head or end < len(head):
        return None
    texts = sum(dtype is None for dtype in dtypes)
    widths = [4 if dtype is None else np.dtype(dtype).itemsize for dtype in dtypes]
    sizes, at = [], len(head)
    while at < end:
        fh.seek(at)
        header = fh.read(8 * (1 + texts))
        if len(header) < 8 * (1 + texts):
            return None
        rows, *names = np.frombuffer(header, np.int64).tolist()
        if rows < 1 or min(names, default=0) < 0:
            return None
        sizes.append(len(header) + sum(_padded(rows * width) for width in widths) + sum(names))
        at += sizes[-1]
    fh.seek(len(head))
    return sizes if at == end else None


def _twin_blocks(fh: BinaryIO, sizes: list[int], dtypes: Sequence) -> Iterator[tuple]:
    """The columns of each block of the twin open as ``fh``, as ``_cast_plain`` casts them
    but for a text column, which comes as (codes, names), its cells ``names[code]``."""
    texts = [j for j, dtype in enumerate(dtypes) if dtype is None]
    with fh:
        for size in sizes:
            block = bytearray(size)
            fh.readinto(block)
            rows, *names = np.frombuffer(block, np.int64, 1 + len(texts)).tolist()
            at, columns = 8 * (1 + len(texts)), []
            for dtype in dtypes:
                columns.append(np.frombuffer(block, np.int32 if dtype is None else dtype, rows, at))
                at += _padded(columns[-1].nbytes)
            for j, length in zip(texts, names):
                columns[j] = (columns[j], block[at : at + length].decode().split("\n"))
                at += length
            yield tuple(columns)


class _Twin:
    """The typed twin of a table ``write_rows`` writes, made as the table is.

    ``add`` takes the table's bytes in file order, with the twin block of
    their rows; ``place`` renames the twin over ``.<name>.typed`` once the
    table is in place. A table that holds a quote, CR or NUL byte or a text
    cell not ``carried``, or whose twin meets an OSError, gets no twin: its
    new file is removed, and so is the twin the path had, which the new table
    makes stale. Only an OSError is borne so; the table is written all the
    same. With no ``dtypes``, or a head whose last line is not the header a
    reader finds, there is no twin to make.
    """

    def __init__(self, path: Path, dtypes: Sequence | None, head: bytes):
        self.path, self.digest, self.out = _twin_path(path), hashlib.sha256(), None
        # The reader's header must be the last head line, with a field per dtype.
        *above, header = head.split(b"\n")[:-1] or [b""]
        if (dtypes is not None and header[:1] not in (b"", b"#")
                and header.count(b",") + 1 == len(dtypes)
                and all(line[:1] in (b"", b"#") for line in above)):
            self._try(self._open, dtypes)
        self.add(head, [])

    def _open(self, dtypes: Sequence) -> None:
        self.temp, self.out = _beside(self.path)
        self.out.write(_twin_head(dtypes))

    def _try(self, step: Callable, *args) -> None:
        """``step(*args)``; any exception gives the twin up, and all but an OSError propagate."""
        try:
            step(*args)
        except BaseException as exc:
            self.drop()
            if not isinstance(exc, OSError):
                raise

    def add(self, text: bytes, block: list | None) -> None:
        """Take the table's next bytes and the buffers of their rows' twin block: none for
        its head, and None where a text cell is not ``carried``."""
        if self.out is None:
            return
        if block is None or not _plain(text):
            self.drop()
            return
        self.digest.update(text)
        self._try(self.out.writelines, block)

    def place(self) -> None:
        """Put the twin in place, once the table is; a twin given up takes the old one away."""
        if self.out is not None:
            self._try(self._place)
        if self.out is None:
            with suppress(OSError):
                self.path.unlink(missing_ok=True)

    def _place(self) -> None:
        self.out.write(self.digest.digest())
        self.out.close()
        os.replace(self.temp, self.path)

    def drop(self) -> None:
        """Give the twin up, removing its new file."""
        out, self.out = self.out, None
        if out is not None:
            with suppress(OSError):
                out.close()
            with suppress(OSError):
                self.temp.unlink(missing_ok=True)


def _range_count(size: int) -> int:
    """The ranges a body of ``size`` bytes is cut into: one per CPU up to MAX_RANGES,
    or one below RANGE_BYTES or without ``os.fork``."""
    if size < RANGE_BYTES or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(MAX_RANGES, len(os.sched_getaffinity(0))))


class _Forked:
    """Jobs 1 .. count-1 of a range map, each run by a forked worker as ``job(k, out)``.

    ``out`` is the worker's own unlinked temporary file, made in ``dir``
    (the system's default when None). ``close`` kills every worker still
    running and reaps it, so no worker outlives the map.
    """

    def __init__(self, count: int, job: Callable[[int, BinaryIO], None], dir=None):
        self._workers: dict[int, tuple[int | None, BinaryIO]] = {}
        try:
            for k in range(1, count):
                import tempfile  # on first use: start-up loads it only for a big body

                out = tempfile.TemporaryFile(dir=dir)
                self._workers[k] = (None, out)
                pid = os.fork()
                if pid == 0:
                    _work(job, k, out)
                self._workers[k] = (pid, out)
        except OSError:  # no file or no process for a worker: the parent does its range
            pass
        except BaseException:
            self.close()
            raise

    def result(self, k: int) -> BinaryIO | None:
        """Worker ``k``'s file, rewound, once it has exited 0; None when it failed."""
        pid, out = self._workers.get(k, (None, None))
        if pid is None:
            return None
        _, status = os.waitpid(pid, 0)
        self._workers[k] = (None, out)
        if os.waitstatus_to_exitcode(status) != 0:
            return None
        out.seek(0)
        return out

    def close(self) -> None:
        for pid, out in self._workers.values():
            if pid is not None:
                import signal

                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                os.waitpid(pid, 0)
            out.close()
        self._workers.clear()


def _work(job: Callable[[int, BinaryIO], None], k: int, out: BinaryIO) -> NoReturn:
    """The body of a forked worker: run ``job``, which writes ``out`` as ``_load`` reads it,
    then exit at once, with 0 only if it returned."""
    code = 1
    try:
        job(k, out)
        out.flush()
        code = 0
    finally:
        os._exit(code)


def _load(out: BinaryIO | None) -> tuple[int, Iterator] | None:
    """The rows of a worker's range and an iterator of the objects it wrote; None when it
    failed or its file is short.

    Every worker's file, a read's or a write's, holds the pickled objects, each loaded
    on its own, so none is held once dropped, and in its last 8 bytes the row count.
    """
    if out is None:
        return None
    try:
        at = out.seek(-8, os.SEEK_END)
    except OSError:  # short: the range is redone
        return None
    rows = int.from_bytes(out.read(8), "little")

    def items():
        out.seek(0)
        while out.tell() < at:
            yield pickle.load(out)

    return rows, items()
