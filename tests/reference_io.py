"""The loop readers and writers the CSV layer replaced, kept as its reference.

Each function is the per-cell implementation as it stood before
``finpipe.table``: the property tests in ``test_table.py`` require the
vectorised readers and writers to give equal arrays, equal bytes, and the
same exception type and message as these on the same files.
"""

import csv
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from finpipe.errors import AlignError, FormatError, IngestError
from finpipe.forecast import read_metadata
from finpipe.frame import Panel, WindowSet, _timestamp_key
from finpipe.metrics import ForecastBatch
from finpipe.preprocess import VariableTransform


def load_csv(path) -> Panel:
    """Read a panel from CSV: header row, timestamp in the first column, numeric cells.

    Lines starting with ``#`` are provenance comments and are skipped. Rows
    are sorted by timestamp; duplicate timestamps and non-numeric cells are
    rejected with their location.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        raise IngestError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    data = rows[1:]
    if not data:
        raise IngestError(f"{path}: no data rows")
    variables = header[1:]
    labels: list[str] = []
    matrix = np.empty((len(data), len(variables)))
    for r, row in enumerate(data, start=2):
        if len(row) != len(header):
            raise IngestError(f"{path}: row {r} has {len(row)} fields, expected {len(header)}")
        labels.append(row[0].strip())
        for j, cell in enumerate(row[1:]):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise IngestError(
                    f"{path}: non-numeric value {cell!r} at row {r}, column {variables[j]!r}"
                )
            matrix[r - 2, j] = value
    keys = [_timestamp_key(lab) for lab in labels]
    try:
        order = sorted(range(len(labels)), key=lambda i: keys[i])
    except TypeError:
        if any(isinstance(key, int) for key in keys):
            raise IngestError(f"{path}: timestamps mix integer and calendar labels") from None
        raise IngestError(f"{path}: timestamps mix labels with and without a UTC offset") from None
    if not all(keys[i] < keys[j] for i, j in zip(order, order[1:])):
        raise IngestError(f"{path}: timestamps must be strictly increasing with no duplicates")
    return Panel(tuple(labels[i] for i in order), tuple(variables), matrix[order])


def write_csv(panel: Panel, path, header_comments: Sequence[str] = ()) -> None:
    """Write a panel as CSV with full round-trip precision (repr of each float)."""
    lines = list(header_comments)
    lines.append(",".join(["timestamp", *panel.variables]))
    for i, label in enumerate(panel.timestamps):
        cells = [str(label)]
        cells.extend(repr(float(v)) for v in panel.values[i])
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    for i in range(b):
        sample_id = int(batch.sample_order[i])
        for step in range(h):
            for j, var in enumerate(batch.variables):
                lines.append(f"{sample_id},{step + 1},{var},{repr(float(batch.y_pred[i, step, j]))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_forecasts(path, truth_windows: WindowSet) -> ForecastBatch:
    """Read a forecast file and align it with the given truth windows.

    Every referenced sample must carry a full, duplicate-free grid of steps
    1..H over a single variable set; the variables must be a subset of the
    windows' target variables and the sample ids a subset of the window
    indices.
    """
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such forecast file: {path}")
    meta = read_metadata(path)
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

    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows or [c.strip() for c in rows[0]] != ["sample_id", "step", "variable", "y_pred"]:
        raise FormatError(f"{path}: expected header sample_id,step,variable,y_pred")

    records: dict[tuple[int, int, str], float] = {}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise FormatError(f"{path}: row {r} has {len(row)} fields, expected 4")
        try:
            sample_id = int(row[0])
            step = int(row[1])
            value = float(row[3])
        except ValueError:
            raise FormatError(f"{path}: row {r}: malformed record {row!r}") from None
        if not math.isfinite(value):
            raise FormatError(f"{path}: non-finite value {row[3]!r} at row {r}, column 'y_pred'")
        variable = row[2].strip()
        key = (sample_id, step, variable)
        if key in records:
            raise FormatError(
                f"{path}: duplicate record for sample {sample_id}, step {step}, "
                f"variable {variable!r}"
            )
        records[key] = value
    if not records:
        raise FormatError(f"{path}: no forecast records")

    sample_ids = sorted({k[0] for k in records})
    file_vars = {k[2] for k in records}
    targets = tuple(truth_windows.target_vars)
    unknown = sorted(file_vars - set(targets))
    if unknown:
        raise AlignError(f"forecast variable(s) not in truth targets: {unknown}")
    variables = tuple(v for v in targets if v in file_vars)
    out_of_range = [s for s in sample_ids if not 0 <= s < len(truth_windows)]
    if out_of_range:
        raise AlignError(
            f"sample id(s) {out_of_range} outside the {len(truth_windows)} truth windows"
        )

    preds = np.empty((len(sample_ids), horizon, len(variables)))
    for i, sample_id in enumerate(sample_ids):
        for step in range(1, horizon + 1):
            for j, variable in enumerate(variables):
                key = (sample_id, step, variable)
                if key not in records:
                    raise FormatError(
                        f"{path}: missing step {step} of sample {sample_id} "
                        f"for variable {variable!r}"
                    )
                preds[i, step - 1, j] = records[key]
    if len(records) != preds.size:
        extra = len(records) - preds.size
        raise FormatError(f"{path}: {extra} record(s) outside the sample/step/variable grid")

    ids = np.asarray(sample_ids)
    var_idx = [targets.index(v) for v in variables]
    origins = truth_windows.origins
    return ForecastBatch(
        y_true=truth_windows.truth[ids][:, :, var_idx],
        y_pred=preds,
        sample_order=ids,
        variables=variables,
        origins=tuple(origins[s] for s in sample_ids),
        last_observed=truth_windows.last_observed[ids][:, var_idx],
    )


def write_anchor_file(
    path, records: Sequence[VariableTransform], header_comments: Sequence[str] = ()
) -> None:
    """Persist transform records as the sidecar enabling exact inversion."""
    lines = list(header_comments)
    lines.append("variable,kind,asset,anchor_close,baseline")
    for r in records:
        anchor = "" if r.anchor_close is None else repr(float(r.anchor_close))
        lines.append(f"{r.variable},{r.kind},{r.asset},{anchor},{repr(float(r.baseline))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_anchor_file(path) -> tuple[VariableTransform, ...]:
    """Read a sidecar written by :func:`write_anchor_file`."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such anchor file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows or [c.strip() for c in rows[0]] != [
        "variable", "kind", "asset", "anchor_close", "baseline",
    ]:
        raise FormatError(f"{path}: malformed anchor file header")
    records = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != 5:
            raise FormatError(f"{path}: row {r} has {len(row)} fields, expected 5")
        variable, kind, asset, anchor_text, baseline_text = (c.strip() for c in row)
        if kind not in ("price", "volume", "other"):
            raise FormatError(f"{path}: row {r}: unknown kind {kind!r}")
        try:
            anchor = float(anchor_text) if anchor_text else None
            baseline = float(baseline_text)
        except ValueError:
            raise FormatError(f"{path}: row {r}: non-numeric anchor or baseline") from None
        if kind == "price" and anchor is None:
            raise FormatError(f"{path}: row {r}: price column without anchor")
        records.append(VariableTransform(variable, kind, asset, anchor, baseline))
    return tuple(records)


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Non-panel CSV reader: header plus string rows, comments skipped."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        raise FormatError(f"{path}: empty file")
    return [c.strip() for c in rows[0]], rows[1:]


def table_floats(path, header, rows, column: str) -> np.ndarray:
    idx = header.index(column)
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        try:
            out[i] = float(row[idx])
        except (ValueError, IndexError):
            out[i] = math.nan
        if not math.isfinite(out[i]):
            raise FormatError(
                f"{path}: row {i + 2}: bad value in column {column!r}"
            )
    return out
