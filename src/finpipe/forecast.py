"""Repeat-last baseline forecaster and forecast-file interchange.

External models exchange predictions through a long-format CSV: comment
headers ``#L=``, ``#H=``, ``#model=`` (and ``#variables=``) followed by
``sample_id,step,variable,y_pred`` records, one per prediction element.
``sample_id`` indexes the truth window the prediction targets.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import AlignError, FormatError, WindowError
from .frame import WindowSet
from .metrics import ForecastBatch, _require_finite
from .table import Blocks, read_blocks, write_rows

DEFAULT_NOISE_STD = 0.001


def naive_forecast(windows: WindowSet, horizon: int, noise_std: float = DEFAULT_NOISE_STD,
                   seed: int = 0, redraw_per_step: bool = True) -> np.ndarray:
    """Repeat each window's last observed value for all horizon steps.

    Gaussian noise (mean 0, std ``noise_std``) is added so downstream rank
    statistics never see an exactly constant prediction. Noise is drawn in a
    fixed (sample, step, channel) order from ``seed``, so outputs are
    bit-reproducible. With ``redraw_per_step=False`` one draw per (sample,
    channel) is shared across the horizon. This is ``naive_blocks`` drawn
    for every sample at once.
    """
    return naive_blocks(windows, horizon, noise_std, seed, redraw_per_step)(0, len(windows))


NOISE_SKIP = 1 << 13  # noise values drawn and dropped at once when a block skips samples


def naive_blocks(windows: WindowSet, horizon: int, noise_std: float = DEFAULT_NOISE_STD,
                 seed: int = 0, redraw_per_step: bool = True) -> Callable[[int, int], np.ndarray]:
    """``block(start, stop)``: ``naive_forecast``'s rows [start, stop), bit for bit.

    The last values are added into the block's noise draw, so its result is
    the one array of its size. A block that does not start where the last
    one stopped seeds a new generator and draws, NOISE_SKIP values at a
    time, the noise of the samples before it: normal draws made in pieces
    are the draw made at once.
    """
    if len(windows) == 0:
        raise WindowError("no windows to forecast")
    if horizon != windows.spec.horizon:
        raise AlignError(
            f"requested horizon {horizon} != window horizon {windows.spec.horizon}"
        )
    if noise_std < 0:
        raise ValueError(f"noise_std must be non-negative, got {noise_std}")
    last = windows.last_observed  # (B, C), float
    shape = (horizon if redraw_per_step else 1, last.shape[1])  # noise drawn for one sample
    rng, at = None, None  # at: the sample whose noise ``rng`` draws next

    def block(start: int, stop: int) -> np.ndarray:
        nonlocal rng, at
        here = last[start:stop, None, :]  # (n, 1, C)
        if not noise_std > 0:
            return np.repeat(here, horizon, axis=1)
        if at != start:
            rng, skip = np.random.default_rng(seed), start * shape[0] * shape[1]
            for done in range(0, skip, NOISE_SKIP):
                rng.normal(0.0, noise_std, size=min(NOISE_SKIP, skip - done))
        preds = rng.normal(0.0, noise_std, size=(stop - start, *shape))
        preds += here  # float addition commutes: the bits of last + noise
        at = stop
        return preds if shape[0] == horizon else np.repeat(preds, horizon, axis=1)

    return block


def make_batch(windows: WindowSet, y_pred: np.ndarray) -> ForecastBatch:
    """Pair predictions with the windows' truth blocks as a ForecastBatch."""
    y_pred = np.asarray(y_pred, dtype=float)
    if y_pred.shape != windows.truth.shape:
        raise AlignError(
            f"prediction shape {y_pred.shape} != truth shape {windows.truth.shape}"
        )
    return ForecastBatch(
        y_true=windows.truth,
        y_pred=y_pred,
        sample_order=np.arange(len(windows)),
        variables=tuple(windows.target_vars),
        origins=windows.origins,
        last_observed=windows.last_observed,
    )


def write_forecasts(
    path,
    batch: ForecastBatch,
    input_len: int,
    model: str = "naive",
    header_comments: Sequence[str] = (),
) -> None:
    """Write a batch's predictions in the long-format interchange CSV."""
    if batch.variables is None:
        raise FormatError("batch has no variable names; cannot write forecasts")
    _write_blocks(path, batch.sample_order.tolist(), batch.variables, batch.shape[1],
                  lambda start, stop: batch.y_pred[start:stop], input_len, model, header_comments)


def _write_blocks(path, ids: Sequence[int], variables: Sequence[str], horizon: int,
                  block: Callable[[int, int], np.ndarray], input_len: int, model: str,
                  header_comments: Sequence[str]) -> None:
    """Write, as ``write_forecasts`` does, the (stop - start, H, C) predictions
    ``block(start, stop)`` gives for the samples ``ids[start:stop]``, a block at a time.

    A non-finite prediction is refused as ForecastBatch refuses it, named at
    its index in the whole forecast, and nothing is written.
    """
    head = [*header_comments, f"#L={input_len}", f"#H={horizon}", f"#model={model}",
            f"#variables={','.join(variables)}", "sample_id,step,variable,y_pred"]
    keys = [f",{step + 1},{var}," for step in range(horizon) for var in variables]

    def lines(start: int, stop: int) -> list[str]:  # H*C lines per sample
        values = block(start, stop)
        _require_finite(start, y_pred=values)
        prefixes = map(str, map(int, ids[start:stop]))
        return [prefix + key + repr(value)
                for prefix, row in zip(prefixes, values.reshape(stop - start, -1).tolist())
                for key, value in zip(keys, row)]

    write_rows(path, head, len(ids), lines)


def read_metadata(path) -> dict:
    """Read the ``#key=value`` header of a forecast file without its records."""
    return read_blocks(path, _metadata, FormatError, "forecast file")


def _metadata(blocks: Blocks) -> dict:
    """The ``#key=value`` lines above a forecast file's header, with #L and #H as integers."""
    meta: dict = {}
    for line in blocks.head:
        key, sep, value = line[1:].partition("=")
        if sep:
            meta[key.strip()] = value.strip()
    for key in ("L", "H"):
        if key in meta:
            try:
                meta[key] = int(meta[key])
            except ValueError:
                raise FormatError(
                    f"{blocks.path}: header #{key}={meta[key]!r} is not an integer") from None
    if "variables" in meta:
        meta["variables"] = tuple(v for v in meta["variables"].split(",") if v)
    return meta


def load_forecasts(path, truth_windows: WindowSet) -> ForecastBatch:
    """Read a forecast file and align it with the given truth windows.

    Every referenced sample must carry a full, duplicate-free grid of steps
    1..H over a single variable set; the variables must be a subset of the
    windows' target variables and the sample ids a subset of the window
    indices.
    """
    path = Path(path)
    horizon = truth_windows.spec.horizon
    targets = tuple(truth_windows.target_vars)
    n_windows = len(truth_windows)

    def part(typed_blocks):  # one range's records as grid keys and values, up to its first bad one
        for (ids, steps, names, values), bad, cells in typed_blocks:
            codes = {name: i for i, name in enumerate(targets)}  # the targets, then other names
            code_of = {raw: codes.setdefault(raw.strip(), len(codes)) for raw in set(names)}
            var_codes = np.fromiter(map(code_of.__getitem__, names), np.int64, len(names))
            keys = ids * horizon  # (id*H + step-1)*T + code, wrapping where it is off the grid
            keys += steps
            keys -= 1
            keys *= len(targets)
            keys += var_codes
            on = ((ids >= 0) & (ids < n_windows) & (steps >= 1) & (steps <= horizon)
                  & (var_codes < len(targets)))
            if on.all():
                yield keys, values, None
            else:
                off = np.flatnonzero(~on)
                yield keys[on], values[on], (off, ids[off], steps[off], var_codes[off],
                                             list(codes)[len(targets):])
            if bad:  # a cell that does not convert, or else a value that is not finite
                n = len(ids)
                return (True, list(cells[n])) if bad[2] else (False, cells[n, 3])

    def parse(blocks: Blocks):
        meta = _metadata(blocks)
        if "H" not in meta:
            raise FormatError(f"{path}: missing #H header")
        if meta["H"] != horizon:
            raise AlignError(f"forecast horizon {meta['H']} != truth horizon {horizon}")
        if "L" in meta and meta["L"] != truth_windows.spec.input_len:
            raise AlignError(
                f"forecast input length {meta['L']} != truth input length "
                f"{truth_windows.spec.input_len}"
            )
        if blocks.header != ["sample_id", "step", "variable", "y_pred"]:
            raise FormatError(f"{path}: expected header sample_id,step,variable,y_pred")
        grid, bad = _Grid(n_windows, horizon, targets), None
        for rows in blocks.map(part, (np.int64, np.int64, None, float)):
            for keys, values, off in rows:
                grid.add(keys, values, off)
            bad = rows.tail
            if bad:  # the rows below a malformed or non-finite record are not read
                break
        if not blocks.n_rows:
            raise FormatError(f"{path}: no forecast records")
        # In file order: a duplicate above the first bad record, then that record.
        dup = grid.first_duplicate()
        if dup:
            sample, step, name = dup
            raise FormatError(
                f"{path}: duplicate record for sample {sample}, step {step}, variable {name!r}"
            )
        if bad:
            failed, cells = bad
            row = grid.n_records + 2
            raise FormatError(f"{path}: row {row}: malformed record {cells!r}" if failed else
                              f"{path}: non-finite value {cells!r} at row {row}, column 'y_pred'")
        return grid

    grid = read_blocks(path, parse, FormatError, "forecast file")
    _, off_ids, _, off_codes = grid.off()
    names = list(grid.codes)
    unknown = sorted({names[code] for code in off_codes[off_codes >= len(targets)].tolist()})
    if unknown:
        raise AlignError(f"forecast variable(s) not in truth targets: {unknown}")
    out_of_range = sorted(set(off_ids[(off_ids < 0) | (off_ids >= n_windows)].tolist()))
    if out_of_range:
        raise AlignError(
            f"sample id(s) {out_of_range} outside the {len(truth_windows)} truth windows"
        )

    # Left off the grid now are records whose step is not in 1..H; they name their sample
    # and variable all the same.
    grid.take_rows(off_ids)
    sample_ids = np.flatnonzero(grid.row >= 0)
    named = grid.filled.any(axis=(0, 1))
    named[off_codes] = True
    used = np.flatnonzero(named)
    variables = tuple(targets[i] for i in used)
    rows = grid.row[sample_ids]
    in_order = bool((rows == np.arange(len(rows))).all())

    def take(cells: np.ndarray) -> np.ndarray:  # the grid's samples in id order, used variables
        cells = cells[: len(rows)] if in_order else cells[rows]
        return cells if len(used) == len(targets) else cells[:, :, used]

    filled = take(grid.filled)
    if not filled.all():
        sample, step, var = np.unravel_index(np.argmin(filled), filled.shape)
        raise FormatError(
            f"{path}: missing step {step + 1} of sample {sample_ids[sample]} "
            f"for variable {variables[var]!r}"
        )
    if len(off_ids):
        raise FormatError(f"{path}: {len(off_ids)} record(s) outside the sample/step/variable grid")

    whole = len(sample_ids) == n_windows
    truth = truth_windows.truth if whole else truth_windows.truth[sample_ids]
    origins = truth_windows.origins
    columns = [truth_windows.variables.index(targets[i]) for i in used]  # in the inputs
    last_observed = (truth_windows.last_observed if whole and len(used) == len(targets)
                     else truth_windows.inputs[sample_ids, -1][:, columns])
    return ForecastBatch(
        y_true=truth if len(used) == len(targets) else truth[:, :, used],
        y_pred=take(grid.values),
        sample_order=sample_ids,
        variables=variables,
        origins=tuple(origins[s] for s in sample_ids),
        last_observed=last_observed,
    )


class _Grid:
    """A forecast file's records, scattered into a (sample, step, target) grid as they come.

    A sample takes the grid's next row when a record first names it, so a
    file that names few samples keeps few rows; the rows grow in place, to
    twice as many as needed, up to one per truth window. ``row`` maps each
    window to its row, -1 until a record names it. Records off the grid,
    with an id outside the windows, a step outside 1..H or a variable not a
    target, are kept apart with their file index. A variable's code is its
    index in ``codes``: the targets, then other names in file order.
    """

    def __init__(self, n_windows: int, horizon: int, targets: Sequence[str]):
        self.codes, self.n_targets = {name: i for i, name in enumerate(targets)}, len(targets)
        self.width = horizon * len(targets)  # cells a sample has
        self.row = np.full(n_windows, -1)
        self.rows = self.n_records = 0  # rows taken; records added
        self.values = np.empty((0, horizon, len(targets)))
        self.filled = np.zeros((0, horizon, len(targets)), dtype=bool)
        self._off: list[tuple] = []  # file indices, ids, steps and codes of records off the grid
        self._dup = None  # (file index, sample, step, name) of the first duplicate on the grid

    def add(self, keys: np.ndarray, values: np.ndarray, off: tuple | None) -> None:
        """Scatter one block's grid records; ``off`` holds its other records' block indices,
        ids, steps and codes, and the names its codes past the targets stand for."""
        sample, cell = np.divmod(keys, self.width)
        self.take_rows(sample)
        flat = self.row[sample]
        flat *= self.width
        flat += cell
        filled, n = self.filled.reshape(-1), len(keys)
        if self._dup is None:
            seen = filled[flat]
            if seen.any() or not (flat[1:] > flat[:-1]).all():
                self._find_duplicate(flat, seen, sample, cell, off)
        filled[flat] = True
        self.values.reshape(-1)[flat] = values
        if off is not None:
            at, ids, steps, codes, names = off
            new = [self.codes.setdefault(name, len(self.codes)) for name in names]
            recode = np.array([*range(self.n_targets), *new], dtype=np.int64)
            self._off.append((at + self.n_records, ids, steps, recode[codes]))
            n += len(at)
        self.n_records += n

    def take_rows(self, samples: np.ndarray) -> None:
        """Give the samples in ``samples`` that have no row the next rows, in id order,
        growing the grid."""
        samples = np.sort(samples[self.row[samples] < 0])
        if not samples.size:
            return
        samples = samples[np.concatenate(([True], samples[1:] != samples[:-1]))]
        self.row[samples] = np.arange(self.rows, self.rows + len(samples))
        self.rows += len(samples)
        if self.rows > len(self.values):
            size = min(len(self.row), max(self.rows, 2 * len(self.values)))
            # In place, new rows 0. No view of the grid is alive here, and a profiler's or
            # tracer's reference would fail numpy's reference check.
            self.values.resize((size, *self.values.shape[1:]), refcheck=False)
            self.filled.resize((size, *self.filled.shape[1:]), refcheck=False)

    def _find_duplicate(self, flat, seen, sample, cell, off) -> None:
        """Note the block's first record whose cell is filled already, or by an earlier
        record of the block."""
        order = np.argsort(flat, kind="stable")
        ordered = flat[order]
        repeats = np.concatenate((np.flatnonzero(seen), order[1:][ordered[1:] == ordered[:-1]]))
        if not repeats.size:
            return
        i = int(repeats.min())
        at = i if off is None else int(np.delete(np.arange(len(flat) + len(off[0])), off[0])[i])
        step, code = divmod(int(cell[i]), self.n_targets)
        self._dup = (self.n_records + at, int(sample[i]), step + 1, list(self.codes)[code])

    def off(self) -> tuple[np.ndarray, ...]:
        """File indices, ids, steps and variable codes of the records off the grid."""
        if not self._off:
            return tuple(np.empty(0, np.int64) for _ in range(4))
        return tuple(np.concatenate(column) for column in zip(*self._off))

    def first_duplicate(self) -> tuple | None:
        """(sample, step, name) of the first record in file order whose sample, step and
        variable an earlier record has; None when there is none."""
        at, ids, steps, codes = self.off()
        dups = [] if self._dup is None else [self._dup]
        order = np.lexsort((codes, steps, ids))  # stable: equal records keep file order
        same = np.ones(max(len(order) - 1, 0), dtype=bool)
        for key in (ids, steps, codes):
            ordered = key[order]
            same &= ordered[1:] == ordered[:-1]
        if same.any():
            i = order[1:][same].min()
            dups.append((int(at[i]), int(ids[i]), int(steps[i]), list(self.codes)[codes[i]]))
        return min(dups)[1:] if dups else None
