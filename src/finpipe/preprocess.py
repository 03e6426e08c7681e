"""Log-price and log-volume transforms anchored to each asset's first close.

Price series (open/high/low/close) map to ``ln(p / p0_close) + baseline``
where ``p0_close`` is the asset's first close; using one anchor per asset
keeps the high/low/open levels comparable with the close and makes the
difference of two transformed series equal the log price ratio. Volume maps
to ``ln(v + 1)`` so zero volume stays finite. Both transforms have exact
inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FormatError, TransformError
from .frame import Panel
from .table import Blocks, read_blocks, write_rows

PRICE_FIELDS = ("open", "high", "low", "close")
DEFAULT_BASELINE = 100.0


@dataclass(frozen=True)
class TransformState:
    """Per-asset anchor: the first close price plus the additive baseline."""

    anchor_close: float
    baseline: float = DEFAULT_BASELINE

    def __post_init__(self):
        if not (self.anchor_close > 0 and np.isfinite(self.anchor_close)):
            raise TransformError(f"anchor close must be positive, got {self.anchor_close}")
        if not np.isfinite(self.baseline):
            raise TransformError(f"baseline must be finite, got {self.baseline}")


def log_price_transform(prices, state: TransformState) -> np.ndarray:
    """ln(p / anchor) + baseline, elementwise. Rejects non-positive prices."""
    p = np.asarray(prices, dtype=float)
    if p.size and not (np.isfinite(p).all() and p.min() > 0):
        raise TransformError("prices must be positive and finite")
    return np.log(p / state.anchor_close) + state.baseline


def inverse_price_transform(z, state: TransformState) -> np.ndarray:
    """Exact inverse: anchor * exp(z - baseline)."""
    return state.anchor_close * np.exp(np.asarray(z, dtype=float) - state.baseline)


def log_volume_transform(volumes) -> np.ndarray:
    """ln(v + 1), elementwise; keeps zero volume finite. Rejects negatives."""
    v = np.asarray(volumes, dtype=float)
    if v.size and not (np.isfinite(v).all() and v.min() >= 0):
        raise TransformError("volumes must be non-negative and finite")
    return np.log1p(v)


def inverse_volume_transform(z) -> np.ndarray:
    """Exact inverse of the volume transform: exp(z) - 1."""
    return np.expm1(np.asarray(z, dtype=float))


def cross_variable_delta(z_high, z_close) -> np.ndarray:
    """Difference of two same-anchor transformed series, i.e. ln(p_high / p_close)."""
    a = np.asarray(z_high, dtype=float)
    b = np.asarray(z_close, dtype=float)
    if a.shape != b.shape:
        raise TransformError(f"series shapes differ: {a.shape} vs {b.shape}")
    return a - b


def split_variable(name: str) -> tuple[str, str]:
    """Split 'field_asset' on the last underscore; bare names get asset ''."""
    head, sep, tail = name.rpartition("_")
    if not sep:
        return name, ""
    return head, tail


def classify_variable(name: str) -> tuple[str, str]:
    """Map a column name to (kind, asset) with kind in price|volume|other."""
    field, asset = split_variable(name)
    if field in PRICE_FIELDS:
        return "price", asset
    if "volume" in field:
        return "volume", asset
    return "other", asset


@dataclass(frozen=True)
class VariableTransform:
    """How one panel column was transformed, sufficient for exact inversion."""

    variable: str
    kind: str  # price | volume | other
    asset: str
    anchor_close: float | None  # set for price columns only
    baseline: float

    def state(self) -> TransformState:
        if self.kind != "price" or self.anchor_close is None:
            raise TransformError(f"{self.variable!r} has no price anchor")
        return TransformState(self.anchor_close, self.baseline)


def transform_panel(
    panel: Panel, baseline: float = DEFAULT_BASELINE
) -> tuple[Panel, tuple[VariableTransform, ...]]:
    """Transform every OHLC column (anchored per asset) and volume column.

    Columns that are neither prices nor volumes pass through unchanged.
    Returns the transformed panel plus one record per column describing the
    applied transform.
    """
    out = np.empty_like(panel.values)
    records = []
    for j, var in enumerate(panel.variables):
        kind, asset = classify_variable(var)
        close_name = f"close_{asset}" if asset else "close"
        if kind == "price" and close_name not in panel.variables:
            raise TransformError(
                f"cannot anchor {var!r}: panel has no close series {close_name!r}"
            )
        anchor = float(panel.column(close_name)[0]) if kind == "price" else None
        col = panel.values[:, j]
        try:
            if kind == "price":
                out[:, j] = log_price_transform(col, TransformState(anchor, baseline))
            elif kind == "volume":
                out[:, j] = log_volume_transform(col)
            else:
                out[:, j] = col
        except TransformError as exc:
            raise TransformError(f"column {var!r}: {exc}") from None
        records.append(VariableTransform(var, kind, asset, anchor, baseline))
    return Panel(panel.timestamps, panel.variables, out), tuple(records)


def inverse_transform_panel(
    panel: Panel, records: Sequence[VariableTransform]
) -> Panel:
    """Invert :func:`transform_panel` given its transform records."""
    by_var = {r.variable: r for r in records}
    out = np.empty_like(panel.values)
    for j, var in enumerate(panel.variables):
        rec = by_var.get(var)
        if rec is None:
            raise TransformError(f"no transform record for variable {var!r}")
        col = panel.values[:, j]
        if rec.kind == "price":
            out[:, j] = inverse_price_transform(col, rec.state())
        elif rec.kind == "volume":
            out[:, j] = inverse_volume_transform(col)
        else:
            out[:, j] = col
    return Panel(panel.timestamps, panel.variables, out)


def write_anchor_file(
    path, records: Sequence[VariableTransform], header_comments: Sequence[str] = ()
) -> None:
    """Persist transform records as the sidecar enabling exact inversion."""
    lines = [*header_comments, "variable,kind,asset,anchor_close,baseline"]
    for r in records:
        anchor = "" if r.anchor_close is None else repr(float(r.anchor_close))
        lines.append(f"{r.variable},{r.kind},{r.asset},{anchor},{repr(float(r.baseline))}")
    write_rows(path, lines)


def load_anchor_file(path) -> tuple[VariableTransform, ...]:
    """Read a sidecar written by :func:`write_anchor_file`."""
    return tuple(read_blocks(path, _anchor_records, FormatError, "anchor file"))


def _anchor_records(blocks: Blocks) -> list[VariableTransform]:
    path = blocks.path
    if blocks.header != ["variable", "kind", "asset", "anchor_close", "baseline"]:
        raise FormatError(f"{path}: malformed anchor file header")
    records = []
    for r, row in enumerate((row for cells in blocks for row in cells.tolist()), start=2):
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
    return records
