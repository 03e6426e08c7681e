"""Repeat-last baseline forecaster and forecast-file interchange.

External models exchange predictions through a long-format CSV: comment
headers ``#L=``, ``#H=``, ``#model=`` (and ``#variables=``) followed by
``sample_id,step,variable,y_pred`` records, one per prediction element.
``sample_id`` indexes the truth window the prediction targets.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import AlignError, FormatError, WindowError
from .frame import WindowSet
from .metrics import ForecastBatch
from .table import Blocks, read_blocks, typed, write_lines

DEFAULT_NOISE_STD = 0.001


def naive_forecast(
    windows: WindowSet,
    horizon: int,
    noise_std: float = DEFAULT_NOISE_STD,
    seed: int = 0,
    redraw_per_step: bool = True,
) -> np.ndarray:
    """Repeat each window's last observed value for all horizon steps.

    Gaussian noise (mean 0, std ``noise_std``) is added so downstream rank
    statistics never see an exactly constant prediction. Noise is drawn in a
    fixed (sample, step, channel) order from ``seed``, so outputs are
    bit-reproducible. With ``redraw_per_step=False`` one draw per (sample,
    channel) is shared across the horizon.
    """
    if len(windows) == 0:
        raise WindowError("no windows to forecast")
    if horizon != windows.spec.horizon:
        raise AlignError(
            f"requested horizon {horizon} != window horizon {windows.spec.horizon}"
        )
    if noise_std < 0:
        raise ValueError(f"noise_std must be non-negative, got {noise_std}")
    last = windows.last_observed  # (B, C)
    preds = np.repeat(last[:, None, :], horizon, axis=1).astype(float)
    if noise_std > 0:
        b, c = last.shape
        shape = (b, horizon, c) if redraw_per_step else (b, 1, c)
        rng = np.random.default_rng(seed)
        preds = preds + rng.normal(0.0, noise_std, size=shape)
    return preds


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
    b, h, c = batch.shape
    lines = list(header_comments)
    lines.append(f"#L={input_len}")
    lines.append(f"#H={h}")
    lines.append(f"#model={model}")
    lines.append(f"#variables={','.join(batch.variables)}")
    lines.append("sample_id,step,variable,y_pred")
    keys = [f",{step + 1},{var}," for step in range(h) for var in batch.variables]

    def samples():  # one block of H*C lines per sample
        for sample_id, values in zip(batch.sample_order.tolist(), batch.y_pred.reshape(b, h * c)):
            prefix = str(int(sample_id))
            yield "\n".join([prefix + key + repr(value) for key, value in zip(keys, values.tolist())])

    write_lines(path, chain(lines, samples()))


def read_metadata(path) -> dict:
    """Read the ``#key=value`` header of a forecast file without its records."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such forecast file: {path}")
    meta: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):  # blank lines are skipped
                    break
                key, sep, value = line[1:].partition("=")
                if sep:
                    meta[key.strip()] = value.strip()
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    for key in ("L", "H"):
        if key in meta:
            try:
                meta[key] = int(meta[key])
            except ValueError:
                raise FormatError(f"{path}: header #{key}={meta[key]!r} is not an integer") from None
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
    meta = read_metadata(path)
    path = Path(path)
    horizon = truth_windows.spec.horizon
    if "H" not in meta:
        raise FormatError(f"{path}: missing #H header")
    if meta["H"] != horizon:
        raise AlignError(f"forecast horizon {meta['H']} != truth horizon {horizon}")
    if "L" in meta and meta["L"] != truth_windows.spec.input_len:
        raise AlignError(
            f"forecast input length {meta['L']} != truth input length "
            f"{truth_windows.spec.input_len}"
        )

    targets = tuple(truth_windows.target_vars)
    # A variable's code is its index in ``names``: the targets, then other names.
    codes = {name: i for i, name in enumerate(targets)}

    def records(blocks: Blocks):
        if blocks.header != ["sample_id", "step", "variable", "y_pred"]:
            raise FormatError(f"{path}: expected header sample_id,step,variable,y_pred")
        # ids, steps, variable codes and values, sized from the first block's rows
        columns = [np.empty(0, dtype) for dtype in (np.int64, np.int64, np.int64, float)]
        kept, bad = 0, None  # records kept; the error of the first bad one
        for cells in blocks:
            *typed, bad = _typed_records(path, cells, codes, kept + 2)
            n = len(typed[0])
            if kept + n > len(columns[0]):
                columns = _with_room(columns, kept, cells, path.stat().st_size)
            for column, part in zip(columns, typed):
                column[kept : kept + n] = part
            kept += n
            if bad:  # the rows below a malformed or non-finite record are not read
                break
        if not blocks.n_rows:
            raise FormatError(f"{path}: no forecast records")
        ids, steps, var_codes, values = (column[:kept] for column in columns)
        # In file order: a duplicate above the first bad record, then that record.
        i = _first_duplicate(ids, steps, var_codes)
        if i is not None:
            raise FormatError(
                f"{path}: duplicate record for sample {ids[i]}, step {steps[i]}, "
                f"variable {list(codes)[var_codes[i]]!r}"
            )
        if bad:
            raise FormatError(bad)
        return ids, steps, var_codes, values

    ids, steps, var_codes, values = read_blocks(path, records, FormatError, "forecast file")
    names = list(codes)
    used = np.flatnonzero(np.bincount(var_codes, minlength=len(names)))
    unknown = sorted(names[i] for i in used if i >= len(targets))
    if unknown:
        raise AlignError(f"forecast variable(s) not in truth targets: {unknown}")
    variables = tuple(targets[i] for i in used)
    # np.unique would import numpy.ma, for a masked-array check, in each stage.
    sample_ids = np.sort(ids)
    sample_ids = sample_ids[np.concatenate(([True], sample_ids[1:] != sample_ids[:-1]))]
    out_of_range = sample_ids[(sample_ids < 0) | (sample_ids >= len(truth_windows))].tolist()
    if out_of_range:
        raise AlignError(
            f"sample id(s) {out_of_range} outside the {len(truth_windows)} truth windows"
        )

    # Ids and variables are in range now and steps outside 1..H are screened
    # out, so each record's key sample*H*C + (step-1)*C + var is its own cell.
    # The key is built in place, and each column is dropped once it is added.
    shape = (len(sample_ids), horizon, len(variables))
    on_grid = (steps >= 1) & (steps <= horizon)
    n_records = len(ids)
    key = np.searchsorted(sample_ids, ids)
    del ids
    key *= horizon
    key += steps
    key -= 1
    del steps
    key *= len(variables)
    key += np.searchsorted(used, var_codes)
    del var_codes
    key = key[on_grid]
    filled = np.zeros(shape, dtype=bool)
    filled.flat[key] = True
    if not filled.all():
        sample, step, var = np.unravel_index(np.argmin(filled), shape)
        raise FormatError(
            f"{path}: missing step {step + 1} of sample {sample_ids[sample]} "
            f"for variable {variables[var]!r}"
        )
    if len(key) < n_records:
        extra = n_records - len(key)
        raise FormatError(f"{path}: {extra} record(s) outside the sample/step/variable grid")
    preds = np.empty(shape)
    preds.flat[key] = values[on_grid]

    origins = truth_windows.origins
    return ForecastBatch(
        y_true=truth_windows.truth[sample_ids][:, :, used],
        y_pred=preds,
        sample_order=sample_ids,
        variables=variables,
        origins=tuple(origins[s] for s in sample_ids),
        last_observed=truth_windows.last_observed[sample_ids][:, used],
    )


def _typed_records(path: Path, cells: np.ndarray, codes: dict[str, int], row: int) -> tuple:
    """Ids, steps, variable codes and values of a block's leading good records, and the error
    of the first bad one (None when there is none); ``row`` is the block's first file row.

    A record is good when its id and step are ints and its value a finite
    float. A variable new to ``codes`` is given the next code.
    """
    (ids, steps, names, values), bad = typed(cells, (np.int64, np.int64, None, float))
    n = len(ids)
    code_of = {raw: codes.setdefault(raw.strip(), len(codes)) for raw in set(names)}
    var_codes = np.fromiter(map(code_of.__getitem__, names), np.int64, n)
    # A cell that does not convert, or else a value that is not finite.
    error = bad and (f"{path}: row {row + n}: malformed record {list(cells[n])!r}" if bad[2] else
                     f"{path}: non-finite value {cells[n, 3]!r} at row {row + n}, column 'y_pred'")
    return ids, steps, var_codes, values, error


def _first_duplicate(ids: np.ndarray, steps: np.ndarray, var_codes: np.ndarray) -> int | None:
    """The index of the first record whose (id, step, variable) an earlier record has.

    Where the three spans multiply to less than 2**63, each key is packed
    into one int64 as (id*S + step)*V + variable. The arithmetic wraps, but
    a box of that many keys still packs to distinct values, so a file with
    no duplicate costs one in-place sort; only a file with one pays the
    lexsort that finds the first.
    """
    if len(ids) < 2:
        return None
    spans = [int(k.max()) - int(k.min()) + 1 for k in (ids, steps, var_codes)]
    if spans[0] * spans[1] * spans[2] < 2**63:
        packed = ids * spans[1]
        packed += steps
        packed *= spans[2]
        packed += var_codes
        packed.sort()
        if not (packed[1:] == packed[:-1]).any():
            return None
        del packed
    order = np.lexsort((var_codes, steps, ids))
    same = True
    for key in (ids, steps, var_codes):
        ordered = key[order]
        same = same & (ordered[1:] == ordered[:-1])
    dup = order[1:][same]
    return int(dup.min()) if dup.size else None


def _with_room(columns: list[np.ndarray], kept: int, cells: np.ndarray,
               size: int) -> list[np.ndarray]:
    """``columns`` with their first ``kept`` records, and room for a file of ``size`` bytes.

    The room is counted in rows as long as those of ``cells``, and 1/16 more.
    Allocated once, the columns leave no freed blocks behind for the process
    to keep.
    """
    line = (sum(map(len, cells.flat)) + cells.shape[1]) / len(cells)
    capacity = kept + len(cells) + int(size / line * 17 / 16)
    grown = [np.empty(capacity, column.dtype) for column in columns]
    for new, old in zip(grown, columns):
        new[:kept] = old[:kept]
    return grown
