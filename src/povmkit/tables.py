"""Multi-index probability tables with marginalization."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .operators import DEFAULT_TOL


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

    def __init__(self, values, axis_labels=None, *, tol: float = DEFAULT_TOL):
        arr = np.array(values, dtype=float)
        if arr.size == 0:
            raise ValidationError("probability table must not be empty")
        if not np.isfinite(arr).all():
            raise ValidationError("probability table has non-finite entries")
        if float(arr.min()) < -tol:
            raise ValidationError(
                f"probability table has negative entry {arr.min():.3e}"
            )
        total = float(arr.sum())
        if abs(total - 1.0) > max(tol, tol * arr.size):
            raise ValidationError(f"probability table sums to {total!r}, not 1")
        arr.setflags(write=False)
        self.values = arr
        self.tol = float(tol)
        if axis_labels is not None:
            axis_labels = tuple(tuple(axis) for axis in axis_labels)
            if len(axis_labels) != arr.ndim or any(
                len(axis) != size for axis, size in zip(axis_labels, arr.shape)
            ):
                raise ValidationError("axis_labels do not match the table shape")
        self.axis_labels = axis_labels

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def __getitem__(self, index):
        return self.values[index]

    def __repr__(self):
        return f"ProbabilityTable(shape={self.shape})"

    def marginal(self, keep) -> "ProbabilityTable":
        """Sum out all axes not listed in ``keep`` (given in ascending order)."""
        if isinstance(keep, (int, np.integer)):
            keep = (int(keep),)
        keep = tuple(int(ax) for ax in keep)
        ndim = self.values.ndim
        if any(ax < 0 or ax >= ndim for ax in keep) or len(set(keep)) != len(keep):
            raise DimensionMismatchError(f"invalid axes {keep} for shape {self.shape}")
        if list(keep) != sorted(keep):
            raise DimensionMismatchError("keep axes must be in ascending order")
        drop = tuple(ax for ax in range(ndim) if ax not in keep)
        summed = self.values.sum(axis=drop) if drop else self.values
        labels = None
        if self.axis_labels is not None:
            labels = tuple(self.axis_labels[ax] for ax in keep)
        return ProbabilityTable(summed, axis_labels=labels, tol=self.tol)
