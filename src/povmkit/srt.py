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
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .measures import PovmMeasure, PvmMeasure, _stack_violations
from .nonideality import (
    NonidealityMatrix,
    _row_entropy,
    _solve_stack,
    _xlogx,
    martens_bound,
)
from .operators import DEFAULT_TOL, _checked_finite, _checked_unit
from .tables import _marginal_tol, _table_violation

#: Agreement required between the generic solver pipeline and the closed-form
#: entropies during a sweep.
PIPELINE_AGREEMENT_TOL = 1e-8


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


def _interference_projectors(chi: float) -> np.ndarray:
    """The ``(2, 2, 2)`` projectors onto ``(|+> +- exp(i chi)|->) / sqrt(2)``, for a checked float ``chi``."""
    phase = np.exp(1j * chi)
    vectors = np.array([[1.0, phase], [1.0, -phase]]) / np.sqrt(2.0)
    return vectors[:, :, None] * vectors[:, None, :].conj()


def path_pvm(tol: float = DEFAULT_TOL) -> PvmMeasure:
    """Which-path observable: projectors onto the two interferometer paths."""
    return PvmMeasure([_P_PLUS, _P_MINUS], labels=("+", "-"), tol=tol)


#: The path PVM, built and validated once; exact at every tolerance.
_PATH_PVM = path_pvm()


def interference_pvm(chi: float = 0.0, tol: float = DEFAULT_TOL) -> PvmMeasure:
    """Interference observable at phase ``chi``.

    Projectors onto ``(|+> +- exp(i chi)|->) / sqrt(2)``; both overlap each
    path projector with weight one half for every phase.
    """
    return PvmMeasure(_interference_projectors(_checked_finite(chi, "phase")), labels=("1", "2"),
                      tol=tol)


def _bivariate_stack(absorbers, projectors: np.ndarray) -> np.ndarray:
    """Unvalidated ``(N, 4, 2, 2)`` bivariate elements for N transmissivities.

    ``projectors`` is the ``(2, 2, 2)`` interference stack ``(Q1, Q2)``.
    Cells in ``_BIVARIATE_LABELS`` order: the two detector elements
    ``0.5 (P+ + a P- +- sqrt(a) (Q1 - Q2))`` and the absorption element
    ``(1 - a) P-`` split evenly over the ``'-'`` row.
    """
    a = np.asarray(absorbers, dtype=float)[:, None, None]
    common = _P_PLUS + a * _P_MINUS
    shift = np.sqrt(a) * (projectors[0] - projectors[1])
    cells = np.empty((a.shape[0], 4, 2, 2), dtype=complex)
    np.multiply(0.5, common + shift, out=cells[:, 0])
    np.multiply(0.5, common - shift, out=cells[:, 1])
    np.multiply(0.5, (1.0 - a) * _P_MINUS, out=cells[:, 2])
    cells[:, 3] = cells[:, 2]
    return cells


def srt_povm(config: SrtConfig, tol: float = DEFAULT_TOL) -> PovmMeasure:
    """Three-outcome POVM of the absorber experiment.

    Outcomes 1 and 2 are the interferometer detectors; outcome 3 collects the
    absorbed neutrons.  At ``a = 1`` the family reduces to the interference
    PVM plus a zero element, at ``a = 0`` to a split path measurement.
    """
    projectors = _interference_projectors(config.phase)
    m1, m2, absorbed_1, absorbed_2 = _bivariate_stack([config.absorber], projectors)[0]
    return PovmMeasure([m1, m2, absorbed_1 + absorbed_2], labels=("1", "2", "3"), tol=tol)


def srt_bivariate(config: SrtConfig, tol: float = DEFAULT_TOL) -> PovmMeasure:
    """Bivariate arrangement of the absorber POVM.

    Index ``(m, n)`` with ``m`` path-like and ``n`` interference-like: the two
    detector outcomes occupy the ``m = '+'`` row and the absorption outcome is
    split evenly over the ``m = '-'`` row.  The ``n``-marginal is a smeared
    interference observable and the ``m``-marginal a smeared path observable.
    """
    return PovmMeasure(
        _bivariate_stack([config.absorber], _interference_projectors(config.phase))[0],
        labels=_BIVARIATE_LABELS,
        index_shape=(2, 2),
        tol=tol,
    )


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

    The whole grid goes through the generic pipeline at once: one validation
    of the stacked bivariate arrangements, their two marginals as index sums,
    one batched decomposition solve of both marginals against their target
    PVMs, and the row entropies.  Every point is checked as the single-point
    chain ``srt_bivariate -> marginal -> solve_nonideality -> check_martens``
    would check it: the arrangement at ``tol``, as the interference PVM read it; the zero target
    elements, the nonideality matrices' columns (one call of the table rule) and the Martens slack
    at the marginals' ``2 * tol`` (each marginal element sums two cells, ``tables._marginal_tol``);
    and agreement with the closed-form entropies within ``PIPELINE_AGREEMENT_TOL``.
    The first failing absorber setting is named in the error, path marginal
    before interference marginal.  Output follows grid order.

    Parameters
    ----------
    grid : iterable of float
        Absorber transmissivities, each in [0, 1].
    chi : float
        Interferometer phase, checked even for an empty grid; the entropies are phase-independent.
    """
    try:
        values = np.fromiter(grid, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"grid cannot be read as a float array: {exc}") from None
    outside = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
    if outside.size:
        raise ValidationError(f"grid value {float(values[outside[0]])!r} outside [0, 1]")
    target_interference = interference_pvm(chi, tol)
    if values.size == 0:
        return []

    bound = martens_bound(_PATH_PVM, target_interference)

    stack = _bivariate_stack(values, target_interference.stack())
    invalid = _stack_violations(stack, target_interference.tol)
    if invalid:
        (n,), lines = next(iter(invalid.items()))
        raise ValidationError(f"absorber={float(values[n])!r}: " + "; ".join(lines))
    cells = stack.reshape(values.size, 2, 2, 2, 2)

    # Problem 0 is the path marginal and problem 1 the interference marginal, so with the
    # columns as tables in (problem, point, column) order every path column comes first.
    marginals = np.stack([cells[:, :, 0] + cells[:, :, 1], cells[:, 0] + cells[:, 1]])
    marginal_tol = _marginal_tol(target_interference.tol, (2, 2), (1,))
    targets = np.stack([_PATH_PVM.stack(), target_interference.stack()])
    matrices, _ = _solve_stack(marginals, targets, marginal_tol)
    failure = _table_violation(matrices.swapaxes(-1, -2).reshape(-1, 2), marginal_tol)
    if failure is not None:
        k, reason = failure
        absorber = float(values[k // 2 % values.size])
        raise ValidationError(f"absorber={absorber!r}: nonideality matrix column {k % 2} {reason}")
    j_lambda, j_mu = _row_entropy(matrices)
    slack = j_lambda + j_mu - bound

    violated = np.flatnonzero(~(slack >= -marginal_tol))
    if violated.size:
        n = violated[0]
        raise InternalConsistencyError(
            f"joint-measurement bound violated (slack {slack[n]:.3e}) "
            f"at absorber={float(values[n])!r}; "
            "the matrices do not come from one bivariate arrangement"
        )
    drift = np.maximum(
        np.abs(j_lambda - _path_entropy(values)),
        np.abs(j_mu - _interference_entropy(values)),
    )
    drifted = np.flatnonzero(~(drift <= PIPELINE_AGREEMENT_TOL))
    if drifted.size:
        n = drifted[0]
        raise InternalConsistencyError(
            f"solver pipeline drifted {drift[n]:.3e} from the closed-form entropies "
            f"at absorber={float(values[n])!r}"
        )
    rows = zip(
        values.tolist(), j_lambda.tolist(), j_mu.tolist(), itertools.repeat(bound), slack.tolist()
    )
    return list(map(TradeoffPoint._make, rows))
