"""The one CSV layer: every table the pipeline reads or writes passes here.

Reading follows the csv module's default dialect. Blank lines and rows whose
first field starts with ``#`` are skipped; the other rows are numbered from
1, the header. Every body row must have as many fields as the header. A file
is read once, in blocks of about BLOCK_BYTES of text, and its cells come back
as text a block at a time; callers cast the cells with ``typed``, and numpy
calls Python's ``int``/``float`` on each cell, so the accepted grammar is
theirs. Errors still come in file order: ``typed`` finds a block's first bad
cell by row, then column, and the reader stops at the first row with the
wrong field count and raises for it only once the caller has finished with
the rows above it. A file that is not UTF-8 text is an error too.

Big bodies are read and written by a range map, on every CPU the process
may use. ``Blocks.map`` cuts a body of RANGE_BYTES or more into contiguous
byte ranges, each ending on a newline, and ``write_rows`` cuts its rows the
same way. The parent process does the first range itself; forked workers do
the others, each into an unlinked temporary file, and the parent takes
their results in file order. A range is read only while it is plain: once
any range meets a quote, CR, NUL or comment row, where a csv.reader row may
span newlines, the whole file is read again in one range. With one CPU, no
``os.fork`` or a smaller body there is one range, done by the parent alone.
A worker that fails has its range redone by the parent, so the output bytes,
the parsed arrays and the errors are the same however a body is cut.

Every file is written by ``replacing``: into a new file beside its path,
renamed over it once complete, so a failed write leaves the path as it was.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
from contextlib import closing, contextmanager
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Callable, Generator, Iterable, Iterator, NoReturn, Sequence, TypeVar

import numpy as np

from .errors import FormatError, ToolkitError

Parsed = TypeVar("Parsed")

BLOCK_BYTES = 1 << 16  # text split per block; bounds the str cells held at once
RANGE_BYTES = 1 << 20  # a body smaller than this is read or written in one range
MAX_RANGES = 4  # ranges a body is cut into at most, one per usable CPU


class _NotPlain(Exception):
    """A range holds text that csv.reader may split otherwise; the file is read in one range."""


class Blocks:
    """The body rows of an open CSV file, as consecutive blocks of cells.

    ``header`` is the file's stripped header, None when it has no rows.
    Each block is an object array of ``str``, one row per body row. ``n_rows``
    counts the body rows read so far and, once the blocks have ended at a
    row with the wrong field count, that row; ``ragged`` then names it.
    Iterating gives the blocks in one range; ``map`` may cut them into
    several, where ``split`` allows it.
    """

    def __init__(self, path: Path, fh: BinaryIO, split: bool):
        self.path, self.n_rows, self.ragged = path, 0, None
        self._fh, self._split, self._maps = fh, split, []
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

    def map(self, part: Callable[[Iterator[np.ndarray]], Generator]) -> Iterator["Range"]:
        """``part`` run over the body's blocks range by range, as the ranges in file order.

        ``part`` takes one range's blocks and yields what the caller reads
        of them, picklable objects, ending early where it likes; what it
        returns becomes the range's ``tail``. It runs in a forked worker
        for every range but the first, so it must not rely on state it
        changes. A range that is not plain raises ``_NotPlain`` in the
        parent, and ``read_blocks`` reads the file again in one range.
        """
        self._maps.append(ranges := self._ranges(part))
        return ranges

    def _ranges(self, part) -> Iterator["Range"]:
        cuts = self._cuts()
        if len(cuts) < 3:
            yield Range(part(iter(self)))
            return

        def job(k: int, out: BinaryIO) -> None:
            self.n_rows = 0
            with open(self.path, "rb") as fh:
                items = Range(part(self._range(fh, cuts[k], cuts[k + 1])))
                for item in items:
                    pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)
                at = out.tell()
                pickle.dump((self.n_rows, items.tail), out, pickle.HIGHEST_PROTOCOL)
                out.write(at.to_bytes(8, "little"))

        with closing(_Forked(len(cuts) - 1, job)) as workers:
            for k in range(len(cuts) - 1):
                loaded = _load(workers.result(k)) if k else None
                if loaded is None:
                    yield Range(part(self._range(self._fh, cuts[k], cuts[k + 1])))
                else:
                    self.n_rows += loaded[0]
                    yield Range(loaded[1])

    def _cuts(self) -> list[int]:
        """The offsets that cut the body into ranges, each inner one just past a newline.

        Fewer than three when the body is read in one range: ``split`` is
        off, the body is small or there is one CPU, or the lines above the
        body hold a quote, CR or NUL byte, where csv.reader's rows may span
        newlines.
        """
        if not self._split or self.header is None:
            return []
        with open(self.path, "rb") as fh:
            head = b""
            for line in fh:  # the header is the first line neither blank nor a comment
                head += line
                if line[:1] not in (b"#", b"\n"):
                    break
            start, size = len(head), os.fstat(fh.fileno()).st_size
            count = _range_count(size - start)
            if count == 1 or any(byte in head for byte in (b'"', b"\r", b"\0")):
                return []
            cuts = [start]
            for k in range(1, count):
                fh.seek(max(cuts[-1], start + (size - start) * k // count) - 1)
                fh.readline()
                cuts.append(fh.tell())
        return cuts + [size]

    def _range(self, fh: BinaryIO, start: int, stop: int) -> Iterator[np.ndarray]:
        """The blocks of the body lines from ``start`` to ``stop``; _NotPlain at one not plain."""
        fh.seek(start)
        for block in _line_blocks(fh, stop - start):
            rows = _split_plain(block, len(self.header))
            if rows is None:
                raise _NotPlain
            self.n_rows += len(rows)
            if len(rows):
                yield rows

    def close(self) -> None:
        for ranges in self._maps:
            ranges.close()
        self._rows.close()


class Range:
    """The objects a ``Blocks.map`` part yields for one range; once they are read,
    ``tail`` holds what the part returned."""

    def __init__(self, items: Generator):
        self._items, self.tail = items, None

    def __iter__(self):
        self.tail = yield from self._items


def read_blocks(path, parse: Callable[[Blocks], Parsed], error: type[ToolkitError] = FormatError,
                what: str = "file") -> Parsed:
    """What ``parse`` makes of the body blocks of ``path``; a missing file raises ``error``.

    ``parse`` reads every block or raises. A row with the wrong field count
    ends the blocks, and raises ``error`` once ``parse`` has returned on the
    rows above it, so that errors come in file order and no caller sees a
    table cut short. Text that is not UTF-8 raises ``error`` where it is met.
    Where a range of ``Blocks.map`` is not plain, ``parse`` runs again on
    the file in one range.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"no such {what}: {path}")
    try:
        try:
            parsed, ragged = _parse(path, parse, split=True)
        except _NotPlain:
            parsed, ragged = _parse(path, parse, split=False)
    except UnicodeDecodeError:  # csv.reader's; the np.loadtxt split hands such a block to it
        raise error(f"{path}: not UTF-8 text") from None
    if ragged:
        raise error(ragged)
    return parsed


def _parse(path: Path, parse: Callable[[Blocks], Parsed], split: bool) -> tuple[Parsed, str | None]:
    with open(path, "rb") as fh, closing(Blocks(path, fh, split)) as blocks:
        return parse(blocks), blocks.ragged


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


def _line_blocks(fh: BinaryIO, size: int = -1) -> Iterator[bytes]:
    """The next ``size`` bytes of ``fh`` (all, when negative) in blocks of about BLOCK_BYTES,
    each ending a line but the last."""
    carry = b""
    while chunk := fh.read(BLOCK_BYTES if size < 0 else min(BLOCK_BYTES, size)):
        size -= len(chunk)
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
    when it raises: ``path`` keeps its old bytes until all the new ones are written.

    The file is created exclusively, under a random hidden name in the output's
    directory, with the mode ``open`` gives a new file (0o666 less the umask).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # the name is taken; draw another
            pass
    try:
        with open(fd, "wb") as out:
            yield out
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each item of ``lines`` (one line or a block of them) and a newline, by ``replacing``."""
    with replacing(path) as out:
        out.writelines((line + "\n").encode() for line in lines)


def write_rows(path, head: Sequence[str], n_rows: int,
               lines: Callable[[int, int], list[str]]) -> None:
    """Write the ``head`` lines, then the lines ``lines(start, stop)`` makes of rows 0..n_rows.

    Rows are formatted in blocks of about BLOCK_BYTES of text, sized from
    the first row. A body of RANGE_BYTES or more is cut into ranges of rows;
    forked workers format all but the first into unlinked temporary files
    in the output's directory, and the parent appends them in order. The
    file is written by ``replacing``, so a write that fails changes nothing.
    """
    row = len(_text(lines(0, 1))) if n_rows else 1
    step = max(1, BLOCK_BYTES // row)
    count = min(_range_count(row * n_rows), max(n_rows, 1))
    cuts = [n_rows * k // count for k in range(count + 1)]

    def job(k: int, out: BinaryIO) -> None:
        for start in range(cuts[k], cuts[k + 1], step):
            out.write(_text(lines(start, min(start + step, cuts[k + 1]))))

    with replacing(path) as out, closing(_Forked(count, job, Path(path).parent)) as workers:
        out.write(_text(head))
        for k in range(count):
            done = workers.result(k) if k else None
            if done is None:
                job(k, out)
            else:
                _append(out, done)


def _text(lines: Sequence[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode() if lines else b""


def _append(out: BinaryIO, done: BinaryIO) -> None:
    """Copy the whole of ``done`` to the end of ``out``, in the kernel."""
    out.flush()
    size, sent = os.fstat(done.fileno()).st_size, 0
    while sent < size:
        n = os.sendfile(out.fileno(), done.fileno(), sent, size - sent)
        if not n:
            raise OSError(f"{out.name}: short copy of a worker's rows")
        sent += n


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
    """The body of a forked worker: run ``job``, then exit at once, with 0 only if it returned."""
    code = 1
    try:
        job(k, out)
        out.flush()
        code = 0
    finally:
        os._exit(code)


def _load(out: BinaryIO | None) -> tuple[int, Generator] | None:
    """The body rows a worker read and a generator of the objects it wrote, which returns
    its part's tail; None when it failed or its file is short.

    The file holds the pickled objects, the pickled (rows, tail) and, in its
    last 8 bytes, the offset of that pair.
    """
    if out is None:
        return None
    try:
        out.seek(-8, os.SEEK_END)
        at = int.from_bytes(out.read(8), "little")
        out.seek(at)
        rows, tail = pickle.load(out)
    except (OSError, EOFError, ValueError, pickle.UnpicklingError):  # short: the range is redone
        return None

    def items():
        out.seek(0)
        while out.tell() < at:
            yield pickle.load(out)
        return tail

    return rows, items()
