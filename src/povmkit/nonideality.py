"""Nonideal-measurement relations between measures and the Martens bound.

One measure is a nonideal (smeared) version of a standard observable, a PVM,
when every observed element decomposes as ``M_i = sum_j lambda_ij P_j`` and each column
of ``lambda`` is a probability distribution (the table rule).  This module solves for that
matrix, quantifies the smearing with an average row entropy, and checks the
state-independent complementarity bound on joint nonideal measurements of two
maximal PVMs (H. Martens and W. M. de Muynck, Found. Phys. 20, 255, 1990).
Against a PVM the least-squares solve is the trace form
``Tr(M_i P_j) / Tr(P_j P_j)``.  For any observed POVM its entries are
nonnegative and its columns sum to one within the measures' tolerance, so it
is also the constrained optimum, with no iteration.  The solve is batched over
problems, each many observed measures against one target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    UnsupportedMeasureError,
    ValidationError,
)
from .measures import PovmMeasure, PvmMeasure
from .operators import DEFAULT_TOL, _as_array, _checked_finite, _checked_labels, _checked_tol
from .tables import _reduce_trailing, _table_violation

#: Residual above which a solved decomposition is flagged as *not* an exact
#: nonideal-measurement relation; the floor of ``NonidealityMatrix.is_exact``.
DECOMPOSITION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class NonidealityMatrix:
    """Column-stochastic nonnegative matrix relating two measures.

    ``matrix[i, j]`` is the weight of target outcome ``j`` inside observed
    outcome ``i``; each column is a probability distribution, checked as a
    ``ProbabilityTable`` is and named by its index when it fails.  ``residual``, a
    finite number >= 0, is the Hilbert-Schmidt misfit of the decomposition that produced the
    matrix, and ``unique``, a ``bool`` (``np.bool_`` too), whether the targets determined it uniquely.
    """

    matrix: np.ndarray
    row_labels: tuple = ()
    col_labels: tuple = ()
    residual: float = 0.0
    unique: bool = True
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "tol", _checked_tol(self.tol))
        if (residual := _checked_finite(self.residual, "residual")) < 0.0:
            raise ValidationError(f"residual must be nonnegative, got {residual!r}")
        object.__setattr__(self, "residual", residual)
        if not isinstance(self.unique, (bool, np.bool_)):
            raise ValidationError(f"unique must be a bool, got {self.unique!r}")
        object.__setattr__(self, "unique", bool(self.unique))
        arr = _as_array(self.matrix, float, "nonideality matrix")
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError("nonideality matrix must be a non-empty 2-D array")
        failure = _table_violation(arr.T, self.tol)
        if failure is not None:
            raise ValidationError(f"nonideality matrix column {failure[0]} {failure[1]}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        for name, size in (("row_labels", arr.shape[0]), ("col_labels", arr.shape[1])):
            if not isinstance(labels := getattr(self, name), tuple) or labels:  # () leaves it unlabeled
                object.__setattr__(self, name, _checked_labels(labels, size, f"{name} do not match the matrix shape"))

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def is_exact(self) -> bool:
        """True when the residual is within ``max(tol, DECOMPOSITION_TOL)``."""
        return self.residual <= max(self.tol, DECOMPOSITION_TOL)


def apply_nonideality(target: PovmMeasure, matrix, *, tol: float = DEFAULT_TOL) -> PovmMeasure:
    """Build the smeared measure ``M_i = sum_j matrix[i, j] N_j`` from a target."""
    weights = _as_array(matrix, float, "nonideality matrix")
    if weights.ndim != 2 or weights.shape[1] != target.n_outcomes:
        raise DimensionMismatchError(
            f"matrix shape {weights.shape} does not match {target.n_outcomes} target outcomes"
        )
    elements = np.einsum("ij,jab->iab", weights, target.stack())
    return PovmMeasure(elements, tol=tol)


def _solve_stack(observed: np.ndarray, target: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Trace-form nonideality matrices of ``(..., N, I, d, d)`` stacks of observed measures.

    Each leading index ``...`` is one problem: its N observed measures share
    one ``(..., J, d, d)`` PVM target.  Entry ``(i, j)`` is ``Tr(M_i P_j) / G_jj``,
    with ``G_jj`` read from the diagonal of the full target Gram matrix; a
    diagonal-only ``einsum`` or ``Tr(P_j)`` rounds differently.  An element with ``G_jj <= tol`` is a zero projector; its column is the
    uniform ``1 / I``.  Returns the ``(..., N, I, J)`` matrices and the
    ``(..., J)`` mask of zero elements.
    """
    gram = np.real(np.einsum("...jab,...kba->...jk", target, target))
    norms = np.diagonal(gram, axis1=-2, axis2=-1)[..., None, None, :]
    cross = np.real(np.einsum("...niab,...jba->...nij", observed, target))
    zero = norms <= tol
    matrices = (np.where(zero, 1.0 / cross.shape[-2], cross / np.where(zero, 1.0, norms)) if zero.any()
                else cross / norms)
    return matrices, zero[..., 0, 0, :]


def solve_nonideality(observed: PovmMeasure, target: PvmMeasure) -> NonidealityMatrix:
    """Find the nonideality matrix expressing ``observed`` in terms of a PVM ``target``.

    Solves ``M_i = sum_j lambda_ij P_j`` in the trace form
    ``lambda_ij = Tr(M_i P_j) / Tr(P_j P_j)``.  For any observed POVM it is
    nonnegative with unit column sums, and it minimizes
    ``sum_i || M_i - sum_j lambda_ij P_j ||**2`` in Hilbert-Schmidt norm.  A
    zero element of the target (``Tr(P_j P_j) <= tol``) constrains nothing;
    its column is the uniform ``1 / I`` over the ``I`` observed outcomes.  A
    residual above the exactness threshold flags the result as not being a
    nonideal measurement of the target.

    Returns
    -------
    NonidealityMatrix
        Checked at the larger ``tol`` of the two measures, with ``residual`` the
        Hilbert-Schmidt misfit and ``unique`` False when a zero target element
        left its column arbitrary.

    Raises
    ------
    UnsupportedMeasureError
        If ``target`` is not a ``PvmMeasure``.
    DimensionMismatchError
        If the two measures act on spaces of different dimension.
    """
    if not isinstance(target, PvmMeasure):
        raise UnsupportedMeasureError(
            f"target must be a PVM, not a {type(target).__name__}; "
            "nonideality is solved against standard observables only"
        )
    if observed.dim != target.dim:
        raise DimensionMismatchError(
            f"observed dimension {observed.dim} does not match target dimension {target.dim}"
        )
    tol = max(observed.tol, target.tol)
    targets = target.stack()
    (matrix,), zero = _solve_stack(observed.stack()[None], targets, tol)
    misfit = observed.stack() - np.einsum("ij,jab->iab", matrix, targets)
    return NonidealityMatrix(
        matrix,
        row_labels=tuple(observed.labels),
        col_labels=tuple(target.labels),
        residual=float(np.linalg.norm(misfit)),
        unique=not zero.any(),
        tol=tol,
    )


def _xlogx(x) -> np.ndarray:
    """Elementwise ``x * log(x)`` for ``x >= 0``, taking ``0 * log(0)`` as 0."""
    x = np.asarray(x, dtype=float)
    return x * np.log(x + (x == 0))


def _row_entropy(matrices: np.ndarray) -> np.ndarray:
    """Average row entropy of each matrix in an ``(..., I, J)`` stack."""
    clipped = np.maximum(matrices, 0.0)
    terms = _xlogx(clipped)  # numpy adds a matrix's cells in memory order: one trailing axis only in C order
    cell_sums = (_reduce_trailing(np.add, terms.reshape(*terms.shape[:-2], -1)) if terms.flags.c_contiguous
                 else terms.sum(axis=(-2, -1)))
    entropy = _reduce_trailing(np.add, _xlogx(_reduce_trailing(np.add, clipped))) - cell_sums
    return np.maximum(entropy, 0.0) / matrices.shape[-2]


def nonideality_entropy(lam) -> float:
    """Average row entropy of a nonideality matrix (0 for an ideal relation).

    Entries are normalized within each row before taking entropies; zero
    entries and all-zero rows contribute nothing, keeping the measure
    continuous at degenerate parameter values.  The averaging constant is the
    number of observed outcomes (matrix rows).
    """
    matrix = lam.matrix if isinstance(lam, NonidealityMatrix) else _as_array(lam, float, "nonideality matrix")
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValidationError("nonideality entropy requires a non-empty 2-D matrix")
    if not np.isfinite(matrix).all():
        raise ValidationError("nonideality entropy requires finite entries")
    return float(_row_entropy(matrix))


def _require_maximal_pvm(measure: PovmMeasure, name: str) -> None:
    if not isinstance(measure, PvmMeasure):
        raise UnsupportedMeasureError(f"{name} must be a PVM")
    if not measure.is_maximal():
        raise UnsupportedMeasureError(
            f"{name} is not maximal (an element has rank above one); "
            "only maximal PVMs are supported"
        )


def martens_bound(pvm1: PvmMeasure, pvm2: PvmMeasure) -> float:
    """State-independent lower bound on joint-smearing entropies of two maximal PVMs.

    Returns ``-ln(max_{mn} Tr(P_m Q_n))``.  Identical PVMs give 0; mutually
    unbiased qubit PVMs give ``ln 2``.  Each PVM is checked at its own ``tol``.
    """
    _require_maximal_pvm(pvm1, "pvm1")
    _require_maximal_pvm(pvm2, "pvm2")
    if pvm1.dim != pvm2.dim:
        raise DimensionMismatchError("PVMs must act on the same space")
    overlaps = np.real(np.einsum("mab,nba->mn", pvm1.stack(), pvm2.stack()))
    peak = float(overlaps.max())
    if peak <= 0.0:
        raise InternalConsistencyError("maximal PVMs cannot have all-zero overlaps")
    return float(-np.log(min(peak, 1.0)))


@dataclass(frozen=True)
class MartensReport:
    """Entropies, bound and slack of a joint nonideal measurement; applicable if both are exact."""

    j_lambda: float
    j_mu: float
    bound: float
    slack: float = field(init=False)
    lambda_residual: float = 0.0
    mu_residual: float = 0.0
    applicable: bool = True

    def __post_init__(self):
        object.__setattr__(self, "slack", self.j_lambda + self.j_mu - self.bound)


def check_martens(
    lam: NonidealityMatrix,
    mu: NonidealityMatrix,
    pvm1: PvmMeasure,
    pvm2: PvmMeasure,
) -> MartensReport:
    """Evaluate the complementarity inequality for one bivariate arrangement.

    ``lam`` must relate the first marginal to ``pvm1`` and ``mu`` the second
    marginal to ``pvm2``.  If both are exact, the slack is nonnegative (within the
    inputs' largest ``tol``) when they come from the marginals of one bivariate
    POVM; a violation indicates the precondition does not hold and raises.
    """
    report = MartensReport(
        j_lambda=nonideality_entropy(lam),
        j_mu=nonideality_entropy(mu),
        bound=martens_bound(pvm1, pvm2),
        lambda_residual=lam.residual, mu_residual=mu.residual,
        applicable=lam.is_exact and mu.is_exact,
    )
    if report.applicable and report.slack < -max(lam.tol, mu.tol, pvm1.tol, pvm2.tol):
        raise InternalConsistencyError(
            f"joint-measurement bound violated (slack {report.slack:.3e}); "
            "the matrices do not come from one bivariate arrangement"
        )
    return report
