"""Summhammer-Rauch-Tuppinger neutron interferometry model.

An absorber of transmissivity ``a`` in one interferometer path interpolates
between a pure interference measurement (``a = 1``) and a pure which-path
measurement (``a = 0``).  In between, the detector statistics are described by
a three-outcome POVM that acts as a joint nonideal measurement of the path and
interference observables.  This module builds the two standard PVMs, the
absorber POVM, its bivariate arrangement, and the entropy trade-off data for a
grid of absorber settings.

Representation choice: the two-dimensional path space uses the basis
``|+>`` (open path) and ``|->`` (absorber path).  Any unitarily equivalent
representation yields identical entropy curves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .measures import PovmMeasure, PvmMeasure, _check_qubit_pvms
from .nonideality import (
    NonidealityMatrix,
    _row_entropy,
    _solve_stack,
    _xlogx,
)
from .operators import DEFAULT_TOL, _checked_finite, _checked_tol, _checked_unit
from .tables import _marginal_tol, _table_violation


@dataclass(frozen=True)
class SrtConfig:
    """Absorber transmissivity and interferometer phase."""

    absorber: float
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "absorber", _checked_unit(self.absorber, "absorber transmissivity"))
        object.__setattr__(self, "phase", _checked_finite(self.phase, "phase"))


_P_PLUS = np.diag([1.0, 0.0]).astype(complex)
_P_MINUS = np.diag([0.0, 1.0]).astype(complex)
_P_PLUS.setflags(write=False)
_P_MINUS.setflags(write=False)
_BIVARIATE_LABELS = (("+", "1"), ("+", "2"), ("-", "1"), ("-", "2"))
#: The sweep's two targets, the path PVM and a slot for the interference projectors.
_TARGETS = np.stack([(_P_PLUS, _P_MINUS), np.zeros((2, 2, 2))])
_TARGETS.setflags(write=False)


def _interference_projectors(chi: float) -> tuple[np.ndarray, float]:
    """The ``(2, 2, 2)`` projectors onto ``(|+> +- exp(i chi)|->) / sqrt(2)`` at a checked float, and ``delta``.

    ``delta = max |2 p - 1|, |2 d - 1|`` over the diagonal ``p, d`` that ``Q1`` and ``Q2`` share is the completeness
    defect at which ``measures._check_qubit_pvms`` checks the PVM and the stacks on it, as its proof extends.  A
    bivariate stack weighs ``P+-`` and ``Q1 - Q2 = [[0, 2b], [2b*, 0]]`` in ``[0, 1]``: Hermitian defect 0, total
    ``|a + fl(1 - a) - 1| <= u``, and as ``4 |b|^2 <= 1 + 2 delta + 5u``, a detector cell ``[[1, s], [s*, a]] / 2``
    has eigenvalues ``>= -(delta / 2 + 1.75u) - u``.  ``srt_povm``'s stack (the detector cells and ``(1 - a) P-``,
    exactly twice an absorption cell) has the same Hermitian and eigenvalue defects, and an exact total but at
    ``(1, 1)``, where ``fl(1 - a)`` and two halves of ``a`` sum with two roundings: within ``3u``.
    """
    phase = np.exp(1j * chi)
    vectors = np.array([[1.0, phase], [1.0, -phase]]) / np.sqrt(2.0)
    projectors = vectors[:, :, None] * vectors[:, None, :].conj()
    p, d = projectors[0].real.diagonal().tolist()
    return projectors, max(abs(2.0 * p - 1.0), abs(2.0 * d - 1.0))


def path_pvm(tol: float = DEFAULT_TOL) -> PvmMeasure:
    """Which-path observable: projectors onto the two interferometer paths."""
    return PvmMeasure([_P_PLUS, _P_MINUS], labels=("+", "-"), tol=tol)


def interference_pvm(chi: float = 0.0, tol: float = DEFAULT_TOL) -> PvmMeasure:
    """Interference observable at phase ``chi``.

    Projectors onto ``(|+> +- exp(i chi)|->) / sqrt(2)``; both overlap each
    path projector with weight one half for every phase.
    """
    chi, tol = _checked_finite(chi, "phase"), _checked_tol(tol)
    pvm = _check_qubit_pvms(*_interference_projectors(chi), tol, True)
    return PvmMeasure.__new__(PvmMeasure)._init_valid(pvm, ("1", "2"), None, tol)


def _bivariate_stack(absorbers, projectors: np.ndarray) -> np.ndarray:
    """Unvalidated ``(4, 2, 2, N)`` bivariate elements for N transmissivities, the grid on the last axis.

    ``projectors`` is the interference stack ``(Q1, Q2)`` with a trailing axis that broadcasts
    against the grid: ``(2, 2, 2, 1)``, or ``(2, 2, 2, N)`` with one pair per transmissivity.
    Cells in ``_BIVARIATE_LABELS`` order: the two detector elements
    ``0.5 (P+ + a P- +- sqrt(a) (Q1 - Q2))`` and the absorption element
    ``(1 - a) P-`` split evenly over the ``'-'`` row.
    """
    a = np.asarray(absorbers, dtype=float)
    common = _P_PLUS[..., None] + a * _P_MINUS[..., None]
    shift = np.sqrt(a) * (projectors[0] - projectors[1])
    cells = np.empty((4, 2, 2, a.shape[0]), dtype=complex)
    np.multiply(0.5, common + shift, out=cells[0])
    np.multiply(0.5, common - shift, out=cells[1])
    np.multiply(0.5, (1.0 - a) * _P_MINUS[..., None], out=cells[2])
    cells[3] = cells[2]
    return cells


def srt_povm(config: SrtConfig, tol: float = DEFAULT_TOL) -> PovmMeasure:
    """Three-outcome POVM of the absorber experiment.

    Outcomes 1 and 2 are the interferometer detectors; outcome 3 collects the
    absorbed neutrons.  At ``a = 1`` the family reduces to the interference
    PVM plus a zero element, at ``a = 0`` to a split path measurement.  The
    elements are the bivariate detector cells and twice an absorption cell, so
    the filter of ``srt_bivariate`` checks them.
    """
    (projectors, delta), tol = _interference_projectors(config.phase), _checked_tol(tol)
    cells = _bivariate_stack([config.absorber], projectors[..., None])[..., 0]
    elements = _check_qubit_pvms(np.stack([cells[0], cells[1], 2.0 * cells[2]]), delta, tol, False)
    return PovmMeasure.__new__(PovmMeasure)._init_valid(elements, ("1", "2", "3"), None, tol)


def srt_bivariate(config: SrtConfig, tol: float = DEFAULT_TOL) -> PovmMeasure:
    """Bivariate arrangement of the absorber POVM.

    Index ``(m, n)`` with ``m`` path-like and ``n`` interference-like: the two
    detector outcomes occupy the ``m = '+'`` row and the absorption outcome is
    split evenly over the ``m = '-'`` row.  The ``n``-marginal is a smeared
    interference observable and the ``m``-marginal a smeared path observable.
    """
    (projectors, delta), tol = _interference_projectors(config.phase), _checked_tol(tol)
    cells = _check_qubit_pvms(_bivariate_stack([config.absorber], projectors[..., None])[..., 0], delta, tol, False)
    return PovmMeasure.__new__(PovmMeasure)._init_valid(cells, _BIVARIATE_LABELS, (2, 2), tol)


def path_nonideality_matrix(absorber: float) -> NonidealityMatrix:
    """Closed-form smearing of the path observable at a given transmissivity."""
    a = _checked_unit(absorber, "absorber transmissivity")
    return NonidealityMatrix(
        [[1.0, a], [0.0, 1.0 - a]],
        row_labels=("+", "-"),
        col_labels=("+", "-"),
    )


def interference_nonideality_matrix(absorber: float) -> NonidealityMatrix:
    """Closed-form smearing of the interference observable."""
    root = np.sqrt(_checked_unit(absorber, "absorber transmissivity"))
    return NonidealityMatrix(
        np.array([[1.0 + root, 1.0 - root], [1.0 - root, 1.0 + root]]) / 2.0,
        row_labels=("1", "2"),
        col_labels=("1", "2"),
    )


def _path_entropy(a):
    return 0.5 * (_xlogx(1.0 + a) - _xlogx(a))


def _interference_entropy(a):
    root = np.sqrt(a)
    return 0.5 * (2.0 * np.log(2.0) - _xlogx(1.0 + root) - _xlogx(1.0 - root))


def path_nonideality_entropy(absorber: float) -> float:
    """Closed-form row entropy of the path smearing matrix."""
    return float(_path_entropy(_checked_unit(absorber, "absorber transmissivity")))


def interference_nonideality_entropy(absorber: float) -> float:
    """Closed-form row entropy of the interference smearing matrix."""
    return float(_interference_entropy(_checked_unit(absorber, "absorber transmissivity")))


class TradeoffPoint(NamedTuple):
    """One row of the complementarity trade-off table."""

    absorber: float
    j_lambda: float
    j_mu: float
    bound: float
    slack: float


def tradeoff_sweep(
    grid: Iterable[float], chi: float = 0.0, *, tol: float = DEFAULT_TOL
) -> list[TradeoffPoint]:
    """Entropy trade-off across a grid of absorber settings.

    The whole grid goes through the generic pipeline at once: the stacked bivariate arrangements, checked as one
    stack, their two marginals as index sums, one batched decomposition solve of both marginals against their target
    PVMs, and the row entropies.  Each stacked array holds the grid on its last axis, so every step of a kernel runs
    one loop over all the points.  Every point is checked as the single-point chain
    ``srt_bivariate -> marginal -> solve_nonideality -> check_martens`` would check it: the interference PVM and the
    arrangement at ``tol``, by the closed-form filter ``measures._check_qubit_pvms``, and the Martens bound read off
    the diagonal of ``Q1`` (each projector is rank one by construction, so none is tested); the zero target
    elements, the nonideality matrices' columns (one call of the table rule) and the Martens slack
    at the marginals' ``2 * tol`` (each marginal element sums two cells, ``tables._marginal_tol``);
    and each point's drift from the closed-form entropies within ``c eps (1 + L)``, ``c = 4``,
    ``eps = 2**-52``, ``L`` the largest ``|ln x|`` over the positive entries ``x`` of its two matrices:
    each entry and row sum is within about ``eps`` of its closed form and ``|d(x ln x) / dx| = |1 +
    ln x|``, so a row entropy, half the signed sum of six ``x ln x`` terms, moves by ``3 eps (1 + L)``,
    and ``c = 4`` also covers the rounding of the sums and closed forms (the largest drift measured
    was ``1.05 eps (1 + L)``).  The first failing absorber setting is named in the error, path
    marginal before interference marginal.  Output follows grid order.

    Parameters
    ----------
    grid : iterable of float
        Absorber transmissivities, each in [0, 1].
    chi : float
        Interferometer phase, checked even for an empty grid; the entropies are phase-independent.
    """
    if type(grid) is np.ndarray and grid.ndim == 1 and grid.dtype.kind == "f":
        values = grid.astype(float)  # the floats its entries convert to one by one
    else:
        try:
            # numpy would read a string's characters, the integers of bytes and the real part of numpy complex entries.
            if isinstance(grid, (str, bytes, bytearray)):
                raise TypeError(f"a {type(grid).__name__} is not a sequence of numbers")
            if isinstance(grid, np.ndarray) and grid.dtype.kind == "c":
                raise TypeError("complex entries")
            items = list(grid)
            if any(isinstance(x, (np.complexfloating, np.ndarray)) and np.iscomplexobj(x) for x in items):
                raise TypeError("complex entries")
            values = np.fromiter(items, dtype=float)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ValidationError(f"grid cannot be read as a float array: {exc}") from None
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        outside = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
        raise ValidationError(f"grid value {float(values[outside[0]])!r} outside [0, 1]")
    chi, tol = _checked_finite(chi, "phase"), _checked_tol(tol)
    projectors, delta = _interference_projectors(chi)
    _check_qubit_pvms(projectors, delta, tol, True)
    if values.size == 0:
        return []

    stack = _bivariate_stack(values, projectors[..., None])
    _check_qubit_pvms(stack.transpose(3, 0, 1, 2), delta, tol, False, lambda n: f"absorber={float(values[n])!r}")
    # Tr(P_m Q_n) is (Q_n)_mm exactly, and Q1 and Q2 share a diagonal.
    bound = float(-np.log(min(projectors[0].real.diagonal().max(), 1.0)))
    cells = stack.reshape(2, 2, 2, 2, values.size)

    # Problem 0 is the path marginal and problem 1 the interference marginal; the table rule reads
    # the columns in (problem, point, column) order, so every path column comes first.
    marginals = np.empty((2, 2, 2, 2, values.size), dtype=complex)
    np.add(cells[:, 0], cells[:, 1], out=marginals[0])
    np.add(cells[0], cells[1], out=marginals[1])
    marginal_tol = _marginal_tol(tol, (2, 2), (1,))
    targets = _TARGETS.copy()
    targets[1] = projectors
    matrices, _ = _solve_stack(marginals, targets, marginal_tol)
    failure = _table_violation(matrices.transpose(0, 3, 2, 1).reshape(-1, 2), marginal_tol)
    if failure is not None:
        k, reason = failure
        absorber = float(values[k // 2 % values.size])
        raise ValidationError(f"absorber={absorber!r}: nonideality matrix column {k % 2} {reason}")
    (j_lambda, j_mu), logs = _row_entropy(matrices)
    slack = j_lambda + j_mu - bound

    if not (held := slack >= -marginal_tol).all():
        n = np.flatnonzero(~held)[0]
        raise InternalConsistencyError(
            f"joint-measurement bound violated (slack {slack[n]:.3e}) "
            f"at absorber={float(values[n])!r}; "
            "the matrices do not come from one bivariate arrangement"
        )
    drift = np.maximum(np.abs(j_lambda - _path_entropy(values)), np.abs(j_mu - _interference_entropy(values)))
    logs = np.abs(logs).reshape(8, -1).max(axis=0)
    if not (held := drift <= 4 * 2.0**-52 * (1.0 + logs)).all():
        n = np.flatnonzero(~held)[0]
        raise InternalConsistencyError(
            f"solver pipeline drifted {drift[n]:.3e} from the closed-form entropies "
            f"at absorber={float(values[n])!r}"
        )
    rows = zip(values.tolist(), j_lambda.tolist(), j_mu.tolist(), itertools.repeat(bound), slack.tolist())
    return list(map(partial(tuple.__new__, TradeoffPoint), rows))
