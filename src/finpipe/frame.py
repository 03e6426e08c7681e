"""Panel data model with CSV ingestion, chronological splits, and sliding windows."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple, Sequence

import numpy as np

from .errors import IngestError, SplitError, WindowError
from .table import Blocks, read_blocks, write_rows


def _timestamp_key(label: str):
    """Sortable key for a stripped timestamp label: integer index or ISO-8601 text."""
    if label.find("-", 1) < 0:  # int() refuses a '-' past the first character, as in a date
        try:
            return int(label)
        except ValueError:
            pass
    try:
        return datetime.fromisoformat(label)
    except ValueError:
        raise IngestError(
            f"timestamp {label!r} is neither an integer index nor ISO-8601"
        ) from None


class _Owned(NamedTuple):
    """A float matrix that no one else holds, which a Panel keeps without a copy."""

    matrix: np.ndarray


@dataclass(frozen=True)
class Panel:
    """Dense timestamps x variables value matrix.

    Timestamps are opaque labels kept in row order; ``load_csv`` parses,
    orders and de-duplicates them where they enter. All window arithmetic is
    positional. Instances are immutable and safe to share across threads.
    """

    timestamps: tuple
    variables: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        object.__setattr__(self, "variables", tuple(str(v) for v in self.variables))
        # A panel keeps a copy of its values, or a matrix that load_csv made and gave away.
        if isinstance(self.values, _Owned):
            vals = self.values.matrix
        else:
            vals = np.array(self.values, dtype=float)
        if vals.ndim != 2:
            raise IngestError(f"panel values must be 2-D, got {vals.ndim}-D")
        if vals.shape != (len(self.timestamps), len(self.variables)):
            raise IngestError(
                f"value shape {vals.shape} does not match "
                f"{len(self.timestamps)} timestamps x {len(self.variables)} variables"
            )
        if not np.isfinite(vals).all():
            raise IngestError("panel values must be finite (no gaps, NaN, or inf)")
        if len(set(self.variables)) != len(self.variables):
            raise IngestError("variable names must be unique")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_rows(self) -> int:
        return len(self.timestamps)

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def column(self, name: str) -> np.ndarray:
        if name not in self.variables:
            raise IngestError(f"panel has no variable {name!r}")
        return self.values[:, self.variables.index(name)]

    def select(self, names: Sequence[str]) -> "Panel":
        """Panel restricted to the given variables, in the given order."""
        idx = [self.variables.index(n) if n in self.variables else -1 for n in names]
        missing = [n for n, i in zip(names, idx) if i < 0]
        if missing:
            raise IngestError(f"panel has no variable(s) {missing}")
        return Panel(self.timestamps, tuple(names), self.values[:, idx])

    def rows(self, start: int, stop: int) -> "Panel":
        """Contiguous row slice [start, stop) as a new panel."""
        return Panel(self.timestamps[start:stop], self.variables, self.values[start:stop])


def load_csv(path) -> Panel:
    """Read a panel from CSV: header row, timestamp in the first column, numeric cells.

    Lines starting with ``#`` are provenance comments and are skipped. Rows
    are sorted by parsed timestamp (integer or ISO-8601); labels that parse
    equal are duplicates. Duplicate timestamps and non-numeric cells are
    rejected, the latter with their location.
    """

    def columns(blocks: Blocks):
        path, header = blocks.path, blocks.header
        if header is None:
            raise IngestError(f"{path}: empty file")
        dtypes = [None] + [float] * (len(header) - 1)

        def part(typed_blocks):  # one range's labels and float rows, up to its first bad cell
            for (stamps, *values), bad, cells in typed_blocks:
                rows = np.reshape(values, (len(values), len(stamps))).T.copy()  # in C order
                yield list(map(str.strip, stamps)), rows
                if bad:
                    return bad[1], cells[bad[0], bad[1]]

        labels, parts = [], [np.empty((0, len(header) - 1))]  # only floats and labels are kept
        for rows in blocks.map(part, dtypes):
            for stamps, values in rows:
                labels += stamps
                parts.append(values)
            if rows.tail:
                j, cell = rows.tail
                raise IngestError(f"{path}: non-numeric value {cell!r} at row {len(labels) + 2}, "
                                  f"column {header[j]!r}")
        if not blocks.n_rows:
            raise IngestError(f"{path}: no data rows")
        return path, labels, tuple(header[1:]), np.concatenate(parts)

    path, labels, variables, matrix = read_blocks(path, columns, IngestError)
    keys = [_timestamp_key(lab) for lab in labels]
    try:
        # Rows in strictly increasing order, as written panels are, need no sort or scan.
        ordered = all(map(operator.lt, keys, keys[1:]))
        order = None if ordered else sorted(range(len(labels)), key=keys.__getitem__)
    except TypeError:
        raise IngestError(f"{path}: timestamps mix integer and calendar labels") from None
    if not ordered:
        if any(keys[i] == keys[j] for i, j in zip(order, order[1:])):
            raise IngestError("timestamps must be strictly increasing with no duplicates")
        labels, matrix = [labels[i] for i in order], matrix[order]
    return Panel(tuple(labels), variables, _Owned(matrix))


def write_csv(panel: Panel, path, header_comments: Sequence[str] = ()) -> None:
    """Write a panel as CSV with full round-trip precision (repr of each float)."""
    labels, values = panel.timestamps, panel.values

    def lines(start: int, stop: int) -> list[str]:
        return [",".join([str(label), *map(repr, row)])
                for label, row in zip(labels[start:stop], values[start:stop].tolist())]

    head = [*header_comments, ",".join(["timestamp", *panel.variables])]
    write_rows(path, head, len(labels), lines)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test fractions; must sum to 1."""

    train_fraction: float
    val_fraction: float
    test_fraction: float

    def __post_init__(self):
        for name, frac in (
            ("train_fraction", self.train_fraction),
            ("val_fraction", self.val_fraction),
            ("test_fraction", self.test_fraction),
        ):
            if not (0.0 < frac < 1.0):
                raise SplitError(f"{name} must be in (0, 1), got {frac}")
        total = self.train_fraction + self.val_fraction + self.test_fraction
        if abs(total - 1.0) > 1e-12:
            raise SplitError(f"fractions must sum to 1, got {total!r}")


def chronological_split(panel: Panel, spec: SplitSpec) -> tuple[Panel, Panel, Panel]:
    """Contiguous order-preserving train/val/test partition.

    Train and test lengths are floored; the remainder goes to validation,
    the rule that reproduces published partition sizes such as
    6533 -> (4573, 654, 1306) at 0.7/0.1/0.2.
    """
    n = panel.n_rows
    n_train = math.floor(n * spec.train_fraction)
    n_test = math.floor(n * spec.test_fraction)
    n_val = n - n_train - n_test
    if min(n_train, n_val, n_test) < 1:
        raise SplitError(f"split of {n} rows at {spec} leaves an empty partition")
    return (
        panel.rows(0, n_train),
        panel.rows(n_train, n_train + n_val),
        panel.rows(n_train + n_val, n),
    )


@dataclass(frozen=True)
class WindowSpec:
    """Sliding-window geometry: input length, forecast horizon, target subset."""

    input_len: int
    horizon: int
    target_vars: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "target_vars", tuple(self.target_vars))
        if self.input_len < 1:
            raise WindowError(f"input_len must be >= 1, got {self.input_len}")
        if self.horizon < 1:
            raise WindowError(f"horizon must be >= 1, got {self.horizon}")
        repeats = [v for i, v in enumerate(self.target_vars) if v in self.target_vars[:i]]
        if repeats:
            raise WindowError(f"target variable {repeats[0]!r} is listed more than once")


class Window(NamedTuple):
    inputs: np.ndarray  # (input_len, n_vars), all panel variables
    truth: np.ndarray  # (horizon, n_targets)
    origin: object  # timestamp label of the last input row


class WindowSet(Sequence):
    """Chronological rolling-origin windows over one panel.

    Behaves as a sequence of :class:`Window` tuples while exposing the stacked
    tensors (``inputs``, ``truth``) for vectorised consumers.
    """

    def __init__(self, inputs, truth, origin_indices, timestamps, variables, spec):
        self.inputs = inputs  # (B, L, C)
        self.truth = truth  # (B, H, Ct)
        self.origin_indices = origin_indices  # (B,) row index of each origin
        self.timestamps = timestamps
        self.variables = variables
        self.target_vars = spec.target_vars or variables
        self.spec = spec
        # A basic slice when the targets are every variable in order: last_observed is a view.
        self._target_idx = (slice(None) if self.target_vars == variables
                            else [variables.index(v) for v in self.target_vars])

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def __getitem__(self, i: int) -> Window:
        if not isinstance(i, (int, np.integer)):
            raise TypeError("window index must be an integer")
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"window index {i} out of range for {n} windows")
        return Window(self.inputs[i], self.truth[i], self.origins[i])

    @property
    def origins(self) -> tuple:
        return tuple(self.timestamps[i] for i in self.origin_indices)

    @property
    def last_observed(self) -> np.ndarray:
        """(B, n_targets) last input-row value of each target variable: a view of the
        panel when the targets are every variable in panel order, else a copy."""
        return self.inputs[:, -1, self._target_idx]


def sliding_windows(panel: Panel, spec: WindowSpec) -> WindowSet:
    """All overlapping (input, truth) windows, oldest first.

    Produces exactly ``n_rows - input_len - horizon + 1`` windows; the truth
    block starts on the row right after the input block, so the origin always
    precedes every truth timestamp. The inputs view the panel's values; so
    does the truth when the targets are every variable in panel order, and
    otherwise it views one copy of the target columns.
    """
    n, L, H = panel.n_rows, spec.input_len, spec.horizon
    b = n - L - H + 1
    if b < 1:
        raise WindowError(
            f"panel too short: {n} rows < input_len {L} + horizon {H}"
        )
    targets = spec.target_vars or panel.variables
    missing = [v for v in targets if v not in panel.variables]
    if missing:
        raise WindowError(f"target variable(s) not in panel: {missing}")
    t_idx = [panel.variables.index(v) for v in targets]
    swv = np.lib.stride_tricks.sliding_window_view
    inputs = np.swapaxes(swv(panel.values, L, axis=0), 1, 2)[:b]
    columns = panel.values if targets == panel.variables else panel.values[:, t_idx]
    truth = np.swapaxes(swv(columns, H, axis=0), 1, 2)[L : L + b]
    origin_indices = np.arange(L - 1, L - 1 + b)
    resolved = WindowSpec(L, H, tuple(targets))
    return WindowSet(inputs, truth, origin_indices, panel.timestamps, panel.variables, resolved)
