"""Joint-distribution feasibility for four bivariate dichotomic distributions.

Four tables over the setting pairs (A, B), (A, B'), (A', B), (A', B') admit a
joint distribution over (A, A', B, B') reproducing them as marginals exactly
when all eight CHSH combinations stay within [-2, 2].  This module decides the
question constructively with a small exact linear program (16 variables,
phase-1 simplex with Bland's rule) and cross-asserts the decision against the
independently computed CHSH characterization; any disagreement outside the
declared boundary band is a hard error, not a tolerance issue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aspect import ChshReport, chsh_value
from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    NoSignalingError,
)
from .operators import DEFAULT_TOL
from .tables import ProbabilityTable

#: Bland's-rule pivot tolerance of the simplex solver.
PIVOT_TOL = 1e-12
#: Phase-1 optimum at or below this value counts as an exactly solvable system.
LP_OPT_TOL = 1e-10
#: Width of the band around |S| = 2 inside which a decision is flagged as
#: sitting on the feasibility boundary.
BOUNDARY_TOL = 1e-9

#: Joint axes (A, A', B, B') kept by each of the four tables, in table order.
_TABLE_AXES = ((0, 2), (0, 3), (1, 2), (1, 3))


def _coerce_2x2(table, tol: float) -> ProbabilityTable:
    if isinstance(table, ProbabilityTable):
        if table.shape != (2, 2):
            raise DimensionMismatchError(f"expected a 2x2 table, got shape {table.shape}")
        return table
    return ProbabilityTable(table, tol=tol)


@dataclass(frozen=True)
class MarginalSet:
    """Four bivariate 2x2 tables labeled (A,B), (A,B'), (A',B), (A',B').

    Table validity is enforced at construction; mutual no-signaling
    consistency is a soft invariant checked by :func:`check_no_signaling`, so
    deliberately inconsistent sets remain constructible for diagnostics.
    """

    ab: ProbabilityTable
    abp: ProbabilityTable
    apb: ProbabilityTable
    apbp: ProbabilityTable
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        for name in ("ab", "abp", "apb", "apbp"):
            object.__setattr__(self, name, _coerce_2x2(getattr(self, name), self.tol))

    def tables(self) -> tuple[ProbabilityTable, ProbabilityTable, ProbabilityTable, ProbabilityTable]:
        return (self.ab, self.abp, self.apb, self.apbp)

    @classmethod
    def from_tables(cls, tables, tol: float = DEFAULT_TOL) -> "MarginalSet":
        tables = tuple(tables)
        if len(tables) != 4:
            raise DimensionMismatchError("exactly four tables are required")
        return cls(*tables, tol=tol)

    @classmethod
    def from_quadrivariate(cls, joint: ProbabilityTable, tol: float = DEFAULT_TOL) -> "MarginalSet":
        """Extract the four setting-pair tables from a joint over (A, A', B, B')."""
        if joint.values.shape != (2, 2, 2, 2):
            raise DimensionMismatchError(
                f"expected a (2, 2, 2, 2) joint table, got shape {joint.values.shape}"
            )
        return cls(*(joint.marginal(keep=axes) for axes in _TABLE_AXES), tol=tol)


@dataclass(frozen=True)
class NoSignalingReport:
    """Largest single-variable marginal discrepancy per setting variable."""

    discrepancies: dict[str, float]
    max_discrepancy: float
    passed: bool
    tol: float


def check_no_signaling(marginals: MarginalSet, tol: float = DEFAULT_TOL) -> NoSignalingReport:
    """Compare each variable's marginal between its two containing tables."""
    ab, abp, apb, apbp = (t.values for t in marginals.tables())
    discrepancies = {
        "A": float(np.max(np.abs(ab.sum(axis=1) - abp.sum(axis=1)))),
        "A'": float(np.max(np.abs(apb.sum(axis=1) - apbp.sum(axis=1)))),
        "B": float(np.max(np.abs(ab.sum(axis=0) - apb.sum(axis=0)))),
        "B'": float(np.max(np.abs(abp.sum(axis=0) - apbp.sum(axis=0)))),
    }
    worst = max(discrepancies.values())
    return NoSignalingReport(
        discrepancies=discrepancies,
        max_discrepancy=worst,
        passed=worst <= tol,
        tol=tol,
    )


def phase1_simplex(
    constraints: np.ndarray, rhs: np.ndarray, *, tol: float = PIVOT_TOL
) -> tuple[float, np.ndarray]:
    """Phase-1 feasibility of ``constraints @ x == rhs`` with ``x >= 0``.

    Dense tableau simplex over one artificial variable per row, with Bland's
    rule (lowest eligible index for both entering and leaving variables) so
    termination is guaranteed under degeneracy.  Returns the artificial-sum
    optimum and the primal point reached; the system is solvable exactly when
    the optimum is zero.
    """
    a = np.asarray(constraints, dtype=float)
    b = np.asarray(rhs, dtype=float).copy()
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise DimensionMismatchError("constraint matrix and rhs shapes are inconsistent")
    m, n = a.shape
    a = a.copy()
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0

    tableau = np.zeros((m, n + m + 1))
    tableau[:, :n] = a
    tableau[:, n : n + m] = np.eye(m)
    tableau[:, -1] = b
    basis = list(range(n, n + m))

    # Reduced-cost row for minimizing the artificial sum: positive entries
    # mark improving columns, and the stored value is the current objective.
    objective = np.zeros(n + m + 1)
    objective[: n] = a.sum(axis=0)
    objective[-1] = b.sum()

    for _ in range(10000):
        entering = -1
        for j in range(n + m):
            if objective[j] > tol:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best_ratio = np.inf
        for i in range(m):
            coeff = tableau[i, entering]
            if coeff > tol:
                ratio = tableau[i, -1] / coeff
                if ratio < best_ratio - tol or (
                    abs(ratio - best_ratio) <= tol
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise InternalConsistencyError(
                "phase-1 objective is bounded below by zero; an unbounded column "
                "indicates corrupted constraint data"
            )
        pivot = tableau[leaving, entering]
        tableau[leaving] /= pivot
        for i in range(m):
            if i != leaving and abs(tableau[i, entering]) > 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leaving]
        objective -= objective[entering] * tableau[leaving]
        basis[leaving] = entering
    else:
        raise InternalConsistencyError("simplex failed to terminate")

    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = max(tableau[i, -1], 0.0)
    return float(max(objective[-1], 0.0)), x


def _equation_matrix() -> np.ndarray:
    """All 16 marginal equations plus normalization over the flat joint.

    Joint variables are indexed ``x[a, a', b, b']`` in C order; row ``4 t + 2 i + j``
    sums the joint entries where table ``t`` of :meth:`MarginalSet.tables` reads
    outcome ``(i, j)``.
    """
    outcomes = np.indices((2, 2, 2, 2)).reshape(4, 16)
    rows = [
        (outcomes[first] == i) & (outcomes[second] == j)
        for first, second in _TABLE_AXES
        for i in range(2)
        for j in range(2)
    ]
    matrix = np.vstack(rows + [np.ones(16, dtype=bool)]).astype(float)
    matrix.setflags(write=False)
    return matrix


_EQUATIONS = _equation_matrix()
#: A maximal linearly independent row subset of ``_EQUATIONS`` (rank 9): the
#: sorted pivots of a column-pivoted QR of its transpose.
_KEEP = (1, 3, 5, 6, 7, 9, 12, 13, 16)
_REDUCED = _EQUATIONS.take(_KEEP, axis=0)


@dataclass(frozen=True)
class JointDecision:
    """Outcome of the joint-distribution search.

    ``joint`` is a witness distribution over (A, A', B, B') when feasible;
    ``certificate`` is the violated CHSH sign placement and its value when
    not.  ``boundary`` marks inputs within ``BOUNDARY_TOL`` of the feasibility
    boundary, where the two characterizations may legitimately split.
    """

    feasible: bool
    boundary: bool
    chsh: ChshReport
    joint: ProbabilityTable | None = None
    residual: float | None = None
    certificate: tuple[tuple[int, int, int, int], float] | None = None


def joint_exists(marginals: MarginalSet, tol: float = DEFAULT_TOL) -> JointDecision:
    """Decide whether a joint distribution reproduces all four marginals.

    Runs the phase-1 linear program on the rank-reduced marginal equations
    and cross-asserts the decision against the CHSH characterization.

    Raises
    ------
    NoSignalingError
        If the marginals fail the no-signaling consistency precondition.
    InternalConsistencyError
        If the two decision routes disagree away from the boundary band.
    """
    signaling = check_no_signaling(marginals, tol)
    if not signaling.passed:
        raise NoSignalingError(
            f"single-variable marginals disagree by {signaling.max_discrepancy:.3e}; "
            "the joint-distribution question is ill-posed"
        )
    report = chsh_value(marginals.tables())
    chsh_feasible = report.max_abs <= 2.0 + tol
    boundary = abs(report.max_abs - 2.0) <= max(tol, BOUNDARY_TOL)

    rhs = np.ones(17)
    rhs[:16] = np.stack([t.values for t in marginals.tables()]).reshape(-1)
    optimum, x = phase1_simplex(_REDUCED, rhs.take(_KEEP))
    residual = float(np.max(np.abs(_EQUATIONS @ x - rhs)))
    lp_feasible = optimum <= LP_OPT_TOL and residual <= tol

    if lp_feasible != chsh_feasible and not boundary:
        raise InternalConsistencyError(
            f"linear program ({lp_feasible}) and CHSH characterization "
            f"({chsh_feasible}) disagree; |S|max = {report.max_abs!r}, "
            f"phase-1 optimum = {optimum!r}"
        )

    if lp_feasible:
        joint = ProbabilityTable(
            x.reshape(2, 2, 2, 2),
            axis_labels=((0, 1),) * 4,
            tol=max(tol, residual * 4),
        )
        return JointDecision(
            feasible=True,
            boundary=boundary,
            chsh=report,
            joint=joint,
            residual=residual,
        )
    certificate = max(report.values, key=lambda item: abs(item[1]))
    return JointDecision(
        feasible=False,
        boundary=boundary,
        chsh=report,
        certificate=certificate,
    )
