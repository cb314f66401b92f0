"""Nonideal-measurement relations between measures and the Martens bound.

One measure is a nonideal (smeared) version of another when every observed
element decomposes as ``M_i = sum_j lambda_ij N_j`` with a column-stochastic
nonnegative matrix ``lambda``.  This module solves for that matrix, quantifies
the smearing with an average row entropy, and checks the state-independent
complementarity bound on joint nonideal measurements of two maximal PVMs.
The solve is batched over problems, each many observed measures against one
target: the trace form for PVM targets (a diagonal Gram stack), otherwise one
batched pseudo-inverse.  A stack that whole-stack checks accept returns as it
is; only a rejected one is checked per measure, with the constrained fallback.
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
from .operators import DEFAULT_TOL, _as_array

#: Residual above which a solved decomposition is flagged as *not* an exact
#: nonideal-measurement relation; the floor of ``NonidealityMatrix.is_exact``.
DECOMPOSITION_TOL = 1e-8
#: Iteration cap of the active-set program behind the constrained solve; a
#: program still moving after this many steps raises instead of returning.
QP_MAX_ITERATIONS = 200
#: Bound multipliers at or above ``-KKT_TOL`` stop the active-set program, whose
#: exit point must meet its KKT conditions within ``max(tol, KKT_TOL)``.
KKT_TOL = 1e-10


def _stochastic_violation(matrices: np.ndarray, tol: float) -> tuple[int, str] | None:
    """First matrix of an ``(N, I, J)`` stack with a negative entry or a column sum off 1.

    Returns its batch index and message, or None when every matrix passes.
    Whole-stack reductions accept first; ``not (defect <= tol)`` fails NaN entries.
    """
    column_sums = matrices.sum(axis=1)
    bound = max(tol, tol * matrices.shape[1])
    if matrices.min() >= -tol and np.abs(column_sums - 1.0).max() <= bound:
        return None
    lowest = matrices.min(axis=(1, 2))
    imbalance = np.abs(column_sums - 1.0).max(axis=1)
    negative = ~(lowest >= -tol)
    unbalanced = ~(imbalance <= bound)
    n = int(np.flatnonzero(negative | unbalanced)[0])
    if negative[n]:
        return n, f"nonideality matrix has negative entry {lowest[n]:.3e}"
    return n, f"columns must sum to 1, got {column_sums[n].tolist()}"


@dataclass(frozen=True, eq=False)
class NonidealityMatrix:
    """Column-stochastic nonnegative matrix relating two measures.

    ``matrix[i, j]`` is the weight of target outcome ``j`` inside observed
    outcome ``i``; each column sums to one.  ``residual`` is the
    Hilbert-Schmidt misfit of the decomposition that produced the matrix and
    ``unique`` records whether the target elements determined it uniquely.
    """

    matrix: np.ndarray
    row_labels: tuple = ()
    col_labels: tuple = ()
    residual: float = 0.0
    unique: bool = True
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        arr = _as_array(self.matrix, float, "nonideality matrix")
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError("nonideality matrix must be a non-empty 2-D array")
        failure = _stochastic_violation(arr[None], self.tol)
        if failure is not None:
            raise ValidationError(failure[1])
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        if self.row_labels and len(self.row_labels) != arr.shape[0]:
            raise ValidationError("row_labels do not match the matrix shape")
        if self.col_labels and len(self.col_labels) != arr.shape[1]:
            raise ValidationError("col_labels do not match the matrix shape")

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def is_exact(self) -> bool:
        """True when the residual is within ``max(tol, DECOMPOSITION_TOL)``."""
        return self.residual <= max(self.tol, DECOMPOSITION_TOL)


def apply_nonideality(target: PovmMeasure, matrix, labels=None, *, tol: float = DEFAULT_TOL) -> PovmMeasure:
    """Build the smeared measure ``M_i = sum_j matrix[i, j] N_j`` from a target."""
    weights = _as_array(matrix, float, "nonideality matrix")
    if weights.ndim != 2 or weights.shape[1] != target.n_outcomes:
        raise DimensionMismatchError(
            f"matrix shape {weights.shape} does not match {target.n_outcomes} target outcomes"
        )
    elements = np.einsum("ij,jab->iab", weights, target.stack())
    return PovmMeasure(elements, labels=labels, tol=tol)


def _stochastic_least_squares(gram: np.ndarray, cross: np.ndarray, tol: float) -> np.ndarray:
    """Minimize the decomposition misfit over column-stochastic nonnegative matrices.

    Primal active-set iteration on the quadratic program with Hessian
    ``I (x) gram``, equality constraints fixing each column sum to one, and
    nonnegativity bounds.  Problem sizes here are tiny (at most a few dozen
    unknowns), so dense KKT solves are exact enough.  The exit point must meet
    the KKT conditions within ``max(tol, KKT_TOL)``, or the solve raises.
    """
    n_rows, n_cols = cross.shape
    n_vars = n_rows * n_cols
    hessian = np.kron(np.eye(n_rows), gram)
    linear = cross.reshape(-1)
    eq = np.zeros((n_cols, n_vars))
    for j in range(n_cols):
        eq[j, j::n_cols] = 1.0

    x = np.full(n_vars, 1.0 / n_rows)
    active: set[int] = set()
    for _ in range(QP_MAX_ITERATIONS):
        free = np.array(sorted(set(range(n_vars)) - active), dtype=int)
        kkt = np.zeros((free.size + n_cols, free.size + n_cols))
        kkt[: free.size, : free.size] = hessian[np.ix_(free, free)]
        kkt[: free.size, free.size:] = eq[:, free].T
        kkt[free.size:, : free.size] = eq[:, free]
        gradient = hessian @ x - linear
        rhs = np.concatenate([-gradient[free], np.zeros(n_cols)])
        solution, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        step = np.zeros(n_vars)
        step[free] = solution[: free.size]
        multipliers = solution[free.size:]

        if float(np.max(np.abs(step), initial=0.0)) <= 1e-12:
            if not active:
                break
            bound_multipliers = gradient + eq.T @ multipliers
            worst = min(active, key=lambda k: bound_multipliers[k])
            if bound_multipliers[worst] >= -KKT_TOL:
                break
            active.remove(worst)
            continue

        alpha = 1.0
        blocking = None
        for k in free:
            if step[k] < -1e-14:
                limit = -x[k] / step[k]
                if limit < alpha:
                    alpha = limit
                    blocking = int(k)
        x = x + alpha * step
        if blocking is not None:
            x[blocking] = 0.0
            active.add(blocking)
        elif alpha >= 1.0:
            # Full step taken with no blocking bound; loop once more to
            # confirm stationarity or release an active bound.
            continue
    else:
        raise InternalConsistencyError(
            f"constrained decomposition did not converge in {QP_MAX_ITERATIONS} active-set steps"
        )
    bound_multipliers = gradient + eq.T @ multipliers
    primal = np.maximum(-x.min(), np.abs(eq @ x - 1.0).max())
    stationarity = np.abs(bound_multipliers[free]).max(initial=0.0)
    slackness = np.maximum(-bound_multipliers.min(), np.abs(x * bound_multipliers).max())
    if not np.max([primal, stationarity, slackness]) <= max(tol, KKT_TOL):
        raise InternalConsistencyError(
            f"constrained decomposition stopped off its KKT conditions (primal {primal:.3e}, "
            f"stationarity {stationarity:.3e}, complementary slackness {slackness:.3e})"
        )
    return np.clip(x, 0.0, None).reshape(n_rows, n_cols)


def _is_diagonal(gram: np.ndarray, tol: float) -> bool:
    """True when every off-diagonal ``|G_jk| <= tol`` and every ``G_jj > tol`` in a Gram stack."""
    return bool(((np.abs(gram) > tol) == np.eye(gram.shape[-1], dtype=bool)).all())


def _solve_stack(observed: np.ndarray, target: np.ndarray, tol: float) -> np.ndarray:
    """Nonideality matrices of ``(..., N, I, d, d)`` stacks of observed measures.

    Each leading index ``...`` is one problem: its N observed measures share
    one ``(..., J, d, d)`` target.  A Gram stack diagonal at ``tol`` (PVM
    targets with no zero element) gives the trace form ``Tr(M_i N_j) / Tr(N_j N_j)``;
    any other takes one batched pseudo-inverse.  A whole stack nonnegative with
    unit column sums within ``tol`` returns at once; otherwise each failing
    matrix falls back to the constrained program.  Returns ``(..., N, I, J)``.
    """
    gram = np.real(np.einsum("...jab,...kba->...jk", target, target))
    cross = np.real(np.einsum("...niab,...jba->...nij", observed, target))
    if _is_diagonal(gram, tol):
        candidates = cross / np.diagonal(gram, axis1=-2, axis2=-1)[..., None, None, :]
    else:
        candidates = cross @ np.linalg.pinv(gram, hermitian=True)[..., None, :, :]
    defect = np.abs(np.einsum("...ij->...j", candidates) - 1.0)
    if candidates.min() >= -tol and defect.max() <= tol:
        return candidates
    feasible = (candidates.min(axis=(-2, -1)) >= -tol) & (defect.max(axis=-1) <= tol)
    for index in map(tuple, np.argwhere(~feasible)):
        candidates[index] = _stochastic_least_squares(gram[index[:-1]], cross[index], tol)
    return candidates


def solve_nonideality(observed: PovmMeasure, target: PovmMeasure) -> NonidealityMatrix:
    """Find the nonideality matrix expressing ``observed`` in terms of ``target``.

    Minimizes ``sum_i || M_i - sum_j lambda_ij N_j ||**2`` in Hilbert-Schmidt
    norm subject to ``lambda >= 0`` and unit column sums.  For a PVM target
    with no zero element it is the trace form ``Tr(M_i P_j) / Tr(P_j)``.  Else
    the Gram pseudo-inverse recovers exact decompositions onto independent
    targets, and a constrained program supplies the best feasible approximation
    where that solve leaves the constraints.  A residual above the exactness
    threshold flags the result as not being a nonideal measurement of the target.

    Returns
    -------
    NonidealityMatrix
        Checked at the larger ``tol`` of the two measures, with ``residual`` the
        Hilbert-Schmidt misfit and ``unique`` False when linearly dependent
        targets left the minimum-norm choice arbitrary.
    """
    if observed.dim != target.dim:
        raise DimensionMismatchError(
            f"observed dimension {observed.dim} does not match target dimension {target.dim}"
        )
    tol = max(observed.tol, target.tol)
    targets = target.stack()
    matrix = _solve_stack(observed.stack()[None], targets, tol)[0]
    misfit = observed.stack() - np.einsum("ij,jab->iab", matrix, targets)
    gram = np.real(np.einsum("jab,kba->jk", targets, targets))
    unique = _is_diagonal(gram, tol) or np.linalg.matrix_rank(gram, hermitian=True) == len(gram)
    return NonidealityMatrix(
        matrix,
        row_labels=tuple(observed.labels),
        col_labels=tuple(target.labels),
        residual=float(np.linalg.norm(misfit)),
        unique=bool(unique),
        tol=tol,
    )


def _xlogx(x) -> np.ndarray:
    """Elementwise ``x * log(x)`` for ``x >= 0``, taking ``0 * log(0)`` as 0."""
    x = np.asarray(x, dtype=float)
    return x * np.log(x + (x == 0))


def _row_entropy(matrices: np.ndarray) -> np.ndarray:
    """Average row entropy of each matrix in an ``(..., I, J)`` stack."""
    clipped = np.clip(matrices, 0.0, None)
    row_sums = clipped.sum(axis=-1)
    entropy = _xlogx(row_sums).sum(axis=-1) - _xlogx(clipped).sum(axis=(-2, -1))
    return np.maximum(entropy, 0.0) / matrices.shape[-2]


def nonideality_entropy(lam) -> float:
    """Average row entropy of a nonideality matrix (0 for an ideal relation).

    Entries are normalized within each row before taking entropies; zero
    entries and all-zero rows contribute nothing, keeping the measure
    continuous at degenerate parameter values.  The averaging constant is the
    number of observed outcomes (matrix rows).
    """
    matrix = lam.matrix if isinstance(lam, NonidealityMatrix) else np.asarray(lam, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValidationError("nonideality entropy requires a non-empty 2-D matrix")
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
