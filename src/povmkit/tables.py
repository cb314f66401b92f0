"""Multi-index probability tables with marginalization."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .operators import DEFAULT_TOL, _as_array


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


def _check_tables(stack: np.ndarray, tol: float) -> None:
    """Raise the constructor's error for the first invalid table of an ``(N, ...)`` stack.

    Whole-stack reductions accept first: a minimum ``>= -tol`` excludes NaN and
    ``-inf``, and a total within ``max(tol, tol * size)`` of one excludes ``+inf``.
    A rejected stack is read table by table: finite entries, then entries
    ``>= -tol``, then the total.
    """
    bound = max(tol, tol * stack[0].size)
    if stack.min() >= -tol and all(
            abs(total - 1.0) <= bound for total in stack.reshape(len(stack), -1).sum(1).tolist()):
        return
    for table in stack:
        if not np.isfinite(table).all():
            raise ValidationError("probability table has non-finite entries")
        if float(table.min()) < -tol:
            raise ValidationError(f"probability table has negative entry {table.min():.3e}")
        total = float(table.sum())
        if abs(total - 1.0) > bound:
            raise ValidationError(f"probability table sums to {total!r}, not 1")


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
        Validation tolerance.
    """

    __slots__ = ("_values", "_tol", "_axis_labels")

    def __init__(self, values, axis_labels=None, *, tol: float = DEFAULT_TOL):
        arr = _as_array(values, float, "probability table")
        if arr.size == 0:
            raise ValidationError("probability table must not be empty")
        _check_tables(arr[None], tol)
        if axis_labels is not None:
            axis_labels = tuple(tuple(axis) for axis in axis_labels)
            if len(axis_labels) != arr.ndim or any(
                len(axis) != size for axis, size in zip(axis_labels, arr.shape)
            ):
                raise ValidationError("axis_labels do not match the table shape")
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
        """Sum out all axes not listed in ``keep`` (ascending); the result inherits validity."""
        return self._sum_out(*_split_axes(keep, self.shape))

    def _sum_out(self, keep: tuple, drop: tuple) -> "ProbabilityTable":
        """The marginal on checked axes ``keep``, summing out ``drop``; it inherits validity."""
        summed = np.asarray(self.values.sum(axis=drop))
        labels = None
        if self.axis_labels is not None:
            labels = tuple(self.axis_labels[ax] for ax in keep)
        return ProbabilityTable.__new__(ProbabilityTable)._init_valid(summed, labels, self.tol)
