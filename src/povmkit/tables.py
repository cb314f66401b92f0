"""Multi-index probability tables, the one probability-distribution rule, and marginalization.

Tables, Born tables, Fine witnesses and nonideality-matrix columns pass ``_table_violation``.
A marginal is an index sum.  Each summed cell may sit ``tol`` off, so by the one rule
``_marginal_tol`` it carries ``tol`` times the number of cells summed into each of its cells.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .operators import DEFAULT_TOL, _as_array, _checked_labels, _checked_tol


def _split_axes(keep, shape) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Checked ``keep`` (an axis or ascending axes of ``shape``) and the axes it drops."""
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = tuple(int(ax) for ax in keep)
    ndim = len(shape)
    if any(ax < 0 or ax >= ndim for ax in keep) or len(set(keep)) != len(keep):
        raise DimensionMismatchError(f"invalid axes {keep} for shape {shape}")
    if list(keep) != sorted(keep):
        raise DimensionMismatchError("keep axes must be in ascending order")
    return keep, tuple(ax for ax in range(ndim) if ax not in keep)


def _marginal_tol(tol: float, shape, drop) -> float:
    """The ``tol`` of a sum over the ``drop`` axes of ``shape``: ``tol`` times the cells summed into one."""
    return tol * math.prod(shape[ax] for ax in drop)


def _reduce_trailing(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1)`` in numpy's own bits, for ``np.add``, ``np.maximum`` or ``np.logical_and``.

    numpy reduces a short trailing axis one row at a time.  Up to 7 entries it sums ``((0.0 + x0) + x1) + ...``
    (a row of ``-0.0`` sums to ``+0.0``; from 8 entries it adds pairwise) and takes maxima and ``all`` in the
    same order, so slice arithmetic over all rows at once gives its bits.  A longer or empty axis goes to numpy,
    and so do fewer than 64 rows, which numpy's per-row loop reduces faster than the slice calls.
    """
    n = x.shape[-1]
    if not 0 < n <= 7 or x.size < 64 * n:
        return ufunc.reduce(x, axis=-1)
    out = 0.0 + x[..., 0] if ufunc is np.add else x[..., 0]
    for k in range(1, n):
        out = ufunc(out, x[..., k])
    return out


def _table_violation(stack: np.ndarray, tol: float) -> tuple[int, str] | None:
    """The index and reason of the first invalid table of an ``(N, ...)`` stack, or None.

    This is the one rule of a probability distribution: finite entries ``>= -tol``
    whose total is within ``bound = max(tol, tol * size)`` of one.  The accept pass
    bounds the entries to ``[-tol, 1 + 2 * bound]`` first, so the per-table totals
    it then sums cannot overflow, and NaN and ``+-inf`` fail it.  A rejected stack
    is read table by table: finite entries, then entries ``>= -tol``, then the
    total, whose overflow reads as ``inf``.
    """
    bound = max(tol, tol * stack[0].size)
    flat = stack.reshape(len(stack), -1)
    if (flat.min() >= -tol and flat.max() <= 1.0 + 2.0 * bound
            and np.abs(_reduce_trailing(np.add, flat) - 1.0).max() <= bound):
        return None
    for n, table in enumerate(stack):
        if not np.isfinite(table).all():
            return n, "has non-finite entries"
        if float(table.min()) < -tol:
            return n, f"has negative entry {table.min():.3e}"
        with np.errstate(over="ignore"):
            total = float(table.sum())
        if abs(total - 1.0) > bound:
            return n, f"sums to {total!r}, not 1"


def _check_tables(stack: np.ndarray, tol: float) -> None:
    """Raise the constructor's error for the first invalid table of an ``(N, ...)`` stack."""
    failure = _table_violation(stack, tol)
    if failure is not None:
        raise ValidationError(f"probability table {failure[1]}")


class ProbabilityTable:
    """Nonnegative table of any index shape summing to one.

    Parameters
    ----------
    values : array_like
        Probabilities; every entry must be finite and >= -tol, and the total
        must equal 1 within tolerance.
    axis_labels : sequence of sequences, optional
        One label tuple per axis, each matching that axis' length.
    tol : float
        Validation tolerance, a finite number greater than 0.
    """

    __slots__ = ("_values", "_tol", "_axis_labels")

    def __init__(self, values, axis_labels=None, *, tol: float = DEFAULT_TOL):
        tol = _checked_tol(tol)
        arr = _as_array(values, float, "probability table")
        if arr.size == 0:
            raise ValidationError("probability table must not be empty")
        _check_tables(arr[None], tol)
        if axis_labels is not None:
            message = "axis_labels do not match the table shape"
            try:  # zip raises TypeError on a non-sequence, ValueError on a wrong number of axes
                axis_labels = tuple(_checked_labels(axis, size, message)
                                    for axis, size in zip(axis_labels, arr.shape, strict=True))
            except (TypeError, ValueError):
                raise ValidationError(message) from None
        self._init_valid(arr, axis_labels, tol)

    def _init_valid(self, arr: np.ndarray, axis_labels, tol: float) -> "ProbabilityTable":
        """Set the fields from values known to be valid, with no check; returns self."""
        arr.setflags(write=False)
        self._values, self._tol, self._axis_labels = arr, float(tol), axis_labels
        return self

    #: The read-only probabilities, their ``tol`` and the axis labels; none can be reassigned.
    values = property(lambda self: self._values)
    tol = property(lambda self: self._tol)
    axis_labels = property(lambda self: self._axis_labels)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __getitem__(self, index):
        return self.values[index]

    def __repr__(self):
        return f"ProbabilityTable(shape={self.shape})"

    def marginal(self, keep) -> "ProbabilityTable":
        """Sum out all axes not listed in ``keep`` (ascending); the result inherits validity
        unchecked, at the ``tol`` its sums accumulate (``_marginal_tol``)."""
        keep, drop = _split_axes(keep, self.shape)
        summed = np.asarray(self.values.sum(axis=drop))
        labels = None if self.axis_labels is None else tuple(self.axis_labels[ax] for ax in keep)
        return ProbabilityTable.__new__(ProbabilityTable)._init_valid(
            summed, labels, _marginal_tol(self.tol, self.shape, drop))
