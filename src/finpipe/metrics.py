"""Forecast-quality metrics over (samples x horizon x channels) tensors.

Pointwise MSE and MAE come from one home, ``errors``. Two correlation
metrics summarize how well the predicted horizon sequence tracks the true one:

* ``ms_ic``: the rank (Spearman) correlation between the predicted and true
  horizon sequence, computed per sample and channel along the time axis,
  then averaged over samples and channels.
* ``ms_ir``: ``ms_ic`` divided by the population standard deviation of the
  per-sample correlation means, i.e. correlation per unit of cross-sample
  correlation noise.

Ranks are 1-based positions in the sorted horizon sequence; tied values
share the mean of their positions (average ranks), so ranks are exact
half-integers. A pair whose ranks have zero variance (e.g. a constant
prediction) contributes correlation 0 by convention and still counts in the
mean, so repeat-last forecasters score 0 instead of poisoning the average.
Truth and predictions must be finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDispersionError, MetricError


@dataclass(frozen=True)
class ForecastBatch:
    """Paired truth/prediction tensors of shape (B, F, C) plus window metadata.

    ``sample_order`` gives the chronological index of each sample along axis
    0 and must be strictly increasing. ``variables``, ``origins`` and
    ``last_observed`` are optional carriers used by signal construction and
    file interchange; metric computations ignore them.
    """

    y_true: np.ndarray
    y_pred: np.ndarray
    sample_order: np.ndarray | None = None
    variables: tuple[str, ...] | None = None
    origins: tuple | None = None
    last_observed: np.ndarray | None = None

    def __post_init__(self):
        y_true = np.asarray(self.y_true, dtype=float)
        y_pred = np.asarray(self.y_pred, dtype=float)
        if y_true.ndim != 3:
            raise MetricError(f"expected (B, F, C) tensors, got {y_true.ndim}-D")
        if y_true.shape != y_pred.shape:
            raise MetricError(
                f"truth shape {y_true.shape} != prediction shape {y_pred.shape}"
            )
        if y_true.shape[0] < 1:
            raise MetricError("batch must contain at least one sample")
        _require_finite(y_true=y_true, y_pred=y_pred)
        order = self.sample_order
        if order is None:
            order = np.arange(y_true.shape[0])
        order = np.asarray(order)
        if order.shape != (y_true.shape[0],):
            raise MetricError("sample_order length must equal the sample count")
        if order.size > 1 and not (np.diff(order) > 0).all():
            raise MetricError("sample_order must be strictly increasing")
        if self.variables is not None and len(self.variables) != y_true.shape[2]:
            raise MetricError("variables length must equal the channel count")
        if self.last_observed is not None:
            lo = np.asarray(self.last_observed, dtype=float)
            if lo.shape != (y_true.shape[0], y_true.shape[2]):
                raise MetricError("last_observed must have shape (B, C)")
            object.__setattr__(self, "last_observed", lo)
        object.__setattr__(self, "y_true", y_true)
        object.__setattr__(self, "y_pred", y_pred)
        object.__setattr__(self, "sample_order", order)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.y_true.shape


def _require_finite(**arrays: np.ndarray) -> None:
    """Raise MetricError naming the first non-finite element of any named array."""
    for name, values in arrays.items():
        finite = np.isfinite(values)
        if not finite.all():
            at = np.unravel_index(np.argmin(finite), values.shape)
            raise MetricError(
                f"{name} must be finite, got {values[at]} at index {tuple(map(int, at))}"
            )


def errors(batch: ForecastBatch, out: np.ndarray | None = None) -> tuple[float, float]:
    """(MSE, MAE) over all B*F*C elements, from one difference ``d`` made into ``out``
    (new when None; it may be ``batch.y_pred``), then overwritten by ``|d|`` and then by
    ``|d|*|d|``, which is ``d*d`` bit for bit."""
    if batch.y_true.size == 0:
        raise MetricError("cannot evaluate an empty batch")
    diff = np.subtract(batch.y_pred, batch.y_true, out=out)
    mae = float(np.mean(np.abs(diff, out=diff)))
    return float(np.mean(np.multiply(diff, diff, out=diff))), mae


def mse(batch: ForecastBatch) -> float:
    """Mean squared error over all B*F*C elements."""
    return errors(batch)[0]


def mae(batch: ForecastBatch) -> float:
    """Mean absolute error over all B*F*C elements."""
    return errors(batch)[1]


def _corr_matrix(y_true: np.ndarray, y_pred: np.ndarray, method: str) -> np.ndarray:
    """(B, C) correlation of each (sample, channel) pair along the F axis."""
    if method not in ("spearman", "pearson"):
        raise MetricError(f"unknown correlation method {method!r}")
    if y_true.shape[1] < 2:
        raise MetricError(f"correlation needs horizon >= 2, got {y_true.shape[1]}")
    if method == "spearman":
        a, b = _average_rank(y_true), _average_rank(y_pred)
    else:
        # C order, as the ranks are: a reduction over F then runs in one order
        # however many samples a block holds, whatever the inputs' strides.
        a, b = np.ascontiguousarray(y_true), np.ascontiguousarray(y_pred)
    # A constant series has zero (rank) variance; its correlation is 0 by
    # convention. Detect via ptp so the test is exact, not epsilon-based.
    const_a = a.max(axis=1) == a.min(axis=1)
    const_b = b.max(axis=1) == b.min(axis=1)
    da = a - a.mean(axis=1, keepdims=True)
    db = b - b.mean(axis=1, keepdims=True)
    cov = (da * db).mean(axis=1)
    var_a = (da * da).mean(axis=1)
    var_b = (db * db).mean(axis=1)
    denom = np.sqrt(var_a * var_b)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(denom > 0, cov / np.where(denom > 0, denom, 1.0), 0.0)
    rho[const_a | const_b] = 0.0
    return rho


def _average_rank(x: np.ndarray) -> np.ndarray:
    """1-based ranks of finite ``x`` along axis 1; tied values share their mean position."""
    n = x.shape[1]
    order = np.argsort(x, axis=1, kind="stable")
    s = np.take_along_axis(x, order, axis=1)
    tied = s[:, 1:] == s[:, :-1]
    ranks = np.broadcast_to(np.arange(1.0, n + 1).reshape((1, n) + (1,) * (x.ndim - 2)), x.shape)
    if tied.any():
        # Flat indices into an F-last copy of the sorted positions, where each
        # row's n positions are contiguous: ``equal`` holds every value equal
        # to the one before it. A run of consecutive indices in ``equal`` and
        # the position before the run form one tie group.
        t = np.flatnonzero(np.moveaxis(tied, 1, -1))
        equal = t + t // (n - 1) + 1  # rows of n - 1 tie flags to rows of n positions
        run = np.flatnonzero(np.diff(equal, prepend=-1) != 1)
        size = np.diff(run, append=equal.size) + 1
        first = equal[run] - 1
        mean = first % n + (size + 1) * 0.5  # of the 1-based positions first+1 .. first+size
        flat = np.moveaxis(ranks, 1, -1).copy()
        flat.reshape(-1)[first] = mean
        flat.reshape(-1)[equal] = np.repeat(mean, size - 1)
        ranks = np.moveaxis(flat, -1, 1)
    out = np.empty(x.shape)
    np.put_along_axis(out, order, ranks, axis=1)
    return out


def per_pair_corr(y: np.ndarray, y_pred: np.ndarray, method: str = "spearman") -> float:
    """Rank correlation of one truth/prediction horizon pair (F >= 2).

    Average ranks are assigned to ties; if either side is constant the
    correlation is 0 by convention. ``method='pearson'`` skips the rank
    transform for sensitivity studies.
    """
    a = np.asarray(y, dtype=float).reshape(1, -1, 1)
    b = np.asarray(y_pred, dtype=float).reshape(1, -1, 1)
    if a.shape != b.shape:
        raise MetricError(f"vector lengths differ: {a.shape[1]} vs {b.shape[1]}")
    _require_finite(y=a.ravel(), y_pred=b.ravel())
    return float(_corr_matrix(a, b, method)[0, 0])


IC_BLOCK_SAMPLES = 512  # samples ranked at once; bounds the rank temporaries


def per_sample_ic(batch: ForecastBatch, method: str = "spearman") -> np.ndarray:
    """(B,) per-sample mean over channels of the horizon rank correlation.

    The (B, C) correlations are computed IC_BLOCK_SAMPLES samples at a time.
    Samples are the outer axis, so each block's arithmetic runs in the order
    the whole batch's would, and the channel mean is taken over the whole
    matrix: every bit is the one-shot result's.
    """
    y_true, y_pred = batch.y_true, batch.y_pred
    rho = np.empty((y_true.shape[0], y_true.shape[2]))
    for start in range(0, len(rho), IC_BLOCK_SAMPLES):
        at = slice(start, start + IC_BLOCK_SAMPLES)
        rho[at] = _corr_matrix(y_true[at], y_pred[at], method)
    return rho.mean(axis=1)


def ms_ic(batch: ForecastBatch, method: str = "spearman") -> float:
    """Mean rank correlation over all (sample, channel) pairs, in [-1, 1]."""
    return float(per_sample_ic(batch, method).mean())


def ms_ir(batch: ForecastBatch, method: str = "spearman") -> float:
    """``ms_ic`` divided by the population std of the per-sample correlations.

    Raises :class:`DegenerateDispersionError` when fewer than two samples are
    present or all per-sample correlations coincide (zero dispersion).
    """
    return _ir(per_sample_ic(batch, method))


def _ir(per_sample: np.ndarray) -> float:
    """Mean over population std of the per-sample correlations, as in :func:`ms_ir`."""
    if per_sample.shape[0] < 2:
        raise DegenerateDispersionError("ms_ir needs at least two samples")
    mean = per_sample.mean()
    sigma = float(np.sqrt(np.mean((per_sample - mean) ** 2)))
    if sigma == 0.0:
        raise DegenerateDispersionError(
            "per-sample correlations are all identical; dispersion is zero"
        )
    return float(mean / sigma)
