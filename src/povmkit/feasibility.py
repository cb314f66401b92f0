"""Joint-distribution feasibility for four bivariate dichotomic distributions.

Four tables over the setting pairs (A, B), (A, B'), (A', B), (A', B') admit a
joint distribution over (A, A', B, B') reproducing them as marginals exactly
when all eight CHSH combinations stay within [-2, 2].  This module decides it
with a phase-1 simplex (Bland's rule) over the 16 joint cells, cross-asserted
against CHSH outside the boundary band.  Both judge a box valid at ``tol`` by
its nearest nonnegative white-noise mixture.  A :class:`MarginalSet` holds the
four tables as one ``(4, 2, 2)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aspect import _SETTING_PAIR_AXES, _SETTING_PAIR_DROP, ChshReport, chsh_value
from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    NoSignalingError,
    ValidationError,
)
from .operators import DEFAULT_TOL, _checked_tol
from .tables import ProbabilityTable, _check_tables, _marginal_tol

#: Bland's-rule pivot tolerance of the simplex solver.
PIVOT_TOL = 1e-12
#: Phase-1 optimum at or below this value counts as an exactly solvable system.
LP_OPT_TOL = 1e-10
#: Width of the band around |S| = 2 inside which a decision is flagged as
#: sitting on the feasibility boundary.
BOUNDARY_TOL = 1e-9


def _pair_table(table, tol: float) -> ProbabilityTable:
    """A setting-pair table: a ``ProbabilityTable`` as given, raw values built at ``tol``.

    Raises ``DimensionMismatchError`` unless the table is 2x2.
    """
    if not isinstance(table, ProbabilityTable):
        table = ProbabilityTable(table, tol=tol)
    if table.shape != (2, 2):
        raise DimensionMismatchError(f"expected a 2x2 table, got shape {table.shape}")
    return table


class MarginalSet:
    """Four bivariate 2x2 tables labeled (A,B), (A,B'), (A',B), (A',B').

    ``values`` stacks them, in that order, as one read-only ``(4, 2, 2)`` array.
    Table validity is enforced at construction, and the set carries the largest of
    ``tol`` and the tables' own ``tol``, at which they were checked; mutual no-signaling
    consistency is a soft invariant checked by :func:`check_no_signaling`, so
    deliberately inconsistent sets remain constructible for diagnostics.
    """

    __slots__ = ("_values", "_tol", "_tables")

    def __init__(self, ab, abp, apb, apbp, tol: float = DEFAULT_TOL):
        tol = _checked_tol(tol)
        tables = tuple(_pair_table(table, tol) for table in (ab, abp, apb, apbp))
        self._init_valid(np.array([table.values for table in tables]), tables,
                         max(tol, *(table.tol for table in tables)))

    def _init_valid(self, values: np.ndarray, tables: tuple, tol: float) -> "MarginalSet":
        """Set the fields from valid tables and their ``(4, 2, 2)`` stack, with no check; returns self."""
        values.setflags(write=False)
        self._values, self._tol, self._tables = values, float(tol), tables
        return self

    #: The ``(4, 2, 2)`` stack of the tables and the set's ``tol``; neither can be reassigned.
    values = property(lambda self: self._values)
    tol = property(lambda self: self._tol)

    def tables(self) -> tuple[ProbabilityTable, ProbabilityTable, ProbabilityTable, ProbabilityTable]:
        """The four tables in setting-pair order, each with the labels and ``tol`` it came with."""
        return self._tables

    #: The tables of (A, B), (A, B'), (A', B) and (A', B'), by name.
    ab, abp, apb, apbp = (property(lambda self, k=k: self._tables[k]) for k in range(4))

    @classmethod
    def from_tables(cls, tables, tol: float = DEFAULT_TOL) -> "MarginalSet":
        tables = tuple(tables) if hasattr(tables, "__iter__") else ()
        if len(tables) != 4:
            raise DimensionMismatchError("exactly four tables are required")
        return cls(*tables, tol=tol)

    @classmethod
    def from_quadrivariate(cls, joint: ProbabilityTable) -> "MarginalSet":
        """The four setting-pair tables of a joint over (A, A', B, B'), views of one stack, at
        ``4 * joint.tol``: each cell sums four joint cells (``tables._marginal_tol``)."""
        if joint.values.shape != (2, 2, 2, 2):
            raise DimensionMismatchError(f"expected a (2, 2, 2, 2) joint table, got shape {joint.shape}")
        values, labels = np.empty((4, 2, 2)), joint.axis_labels
        for table, drop in zip(values, _SETTING_PAIR_DROP):
            joint.values.sum(axis=drop, out=table)
        tol = _marginal_tol(joint.tol, joint.shape, _SETTING_PAIR_DROP[0])
        tables = tuple(ProbabilityTable.__new__(ProbabilityTable)._init_valid(
            table, None if labels is None else (labels[i], labels[j]), tol)
            for table, (i, j) in zip(values, _SETTING_PAIR_AXES))
        return cls.__new__(cls)._init_valid(values, tables, tol)


@dataclass(frozen=True)
class NoSignalingReport:
    """Largest single-variable marginal discrepancy per setting variable."""

    discrepancies: dict[str, float]
    max_discrepancy: float
    passed: bool
    tol: float


def check_no_signaling(marginals: MarginalSet) -> NoSignalingReport:
    """Compare each variable's marginal between its two containing tables, at ``marginals.tol``."""
    tables = marginals.values.tolist()
    rows = [(p00 + p01, p10 + p11) for (p00, p01), (p10, p11) in tables]
    columns = [(p00 + p10, p01 + p11) for (p00, p01), (p10, p11) in tables]
    # A and A' differ between tables (0, 1) and (2, 3); B and B' between (0, 2) and (1, 3).
    pairs = (rows[0], rows[1]), (rows[2], rows[3]), (columns[0], columns[2]), (columns[1], columns[3])
    discrepancies = {name: max(abs(p - q) for p, q in zip(*pair))
                     for name, pair in zip(("A", "A'", "B", "B'"), pairs)}
    worst = max(discrepancies.values())
    return NoSignalingReport(
        discrepancies=discrepancies,
        max_discrepancy=worst,
        passed=worst <= marginals.tol,
        tol=marginals.tol,
    )


def phase1_simplex(constraints: np.ndarray, rhs: np.ndarray) -> tuple[float, np.ndarray]:
    """Phase-1 feasibility of ``constraints @ x == rhs`` with ``x >= 0``.

    Dense tableau simplex over one artificial variable per row, with Bland's
    rule (lowest eligible index for both entering and leaving variables) so
    termination is guaranteed under degeneracy.  One ``(m + 1, n + m + 1)``
    tableau holds the rows over the structural, artificial and rhs columns;
    row ``m`` is the reduced-cost row of the artificial sum, whose positive
    entries mark improving columns and whose last entry is the objective.
    Each pivot is one rank-1 update of the whole tableau.  Returns the
    artificial-sum optimum and the primal point reached; the system is
    solvable exactly when the optimum is zero.

    Raises
    ------
    DimensionMismatchError
        If ``rhs`` does not have one entry per row of a 2-D ``constraints``.
    ValidationError
        If ``constraints`` or ``rhs`` has a NaN or infinite entry.
    """
    a = np.asarray(constraints, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or b.shape != (a.shape[0],):
        raise DimensionMismatchError("constraint matrix and rhs shapes are inconsistent")
    for name, values in (("constraint matrix", a), ("rhs", b)):
        if not np.isfinite(values).all():
            raise ValidationError(f"{name} has non-finite entries")
    return _pivot(_phase1_tableau(a, b), a.shape[1], PIVOT_TOL)


def _phase1_tableau(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The phase-1 tableau of finite ``a @ x == b``: rows with ``b < 0`` negated, then the cost row."""
    m, n = a.shape
    sign = np.where(b < 0, -1.0, 1.0)
    a, b = a * sign[:, None], b * sign
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n], tableau[:m, n:-1], tableau[:m, -1] = a, np.eye(m), b
    tableau[m, :n], tableau[m, -1] = a.sum(axis=0), b.sum()
    return tableau


def _pivot(tableau: np.ndarray, n: int, tol: float) -> tuple[float, np.ndarray]:
    """Run Bland's-rule pivots on a phase-1 tableau over ``n`` structural columns, in place.

    Returns the artificial-sum optimum and the structural part of the point reached.
    """
    m = len(tableau) - 1
    basis = list(range(n, n + m))
    # A -0.0 rhs keeps its sign only if rows with a zero entering coefficient stay untouched.
    signed_zero = bool(np.signbit(tableau[:m, -1]).any())

    for _ in range(10000):
        costs = tableau[m, :-1].tolist()
        entering = next((j for j, cost in enumerate(costs) if cost > tol), -1)
        if entering < 0:
            break
        column, values = tableau[:m, entering].tolist(), tableau[:m, -1].tolist()
        leaving, best_ratio = -1, np.inf
        for i, coeff in enumerate(column):
            if coeff > tol:
                ratio = values[i] / coeff
                if ratio < best_ratio - tol or (
                    abs(ratio - best_ratio) <= tol
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio, leaving = ratio, i
        if leaving < 0:
            raise InternalConsistencyError(
                "phase-1 objective is bounded below by zero; an unbounded column "
                "indicates corrupted constraint data"
            )
        row = tableau[leaving] / tableau[leaving, entering]
        update = np.multiply.outer(tableau[:, entering], row)
        changed = np.abs(update[:, entering, None]) > 0.0 if signed_zero else True
        np.subtract(tableau, update, out=tableau, where=changed)
        tableau[leaving] = row
        basis[leaving] = entering
    else:
        raise InternalConsistencyError("simplex failed to terminate")

    x = [0.0] * (n + m)
    for var, value in zip(basis, tableau[:m, -1].tolist()):
        x[var] = 0.0 if value < 0.0 else value  # max(v, 0.0): a -0.0 stays -0.0
    return float(max(tableau[m, -1], 0.0)), np.array(x[:n])


def _equation_matrix() -> np.ndarray:
    """All 16 marginal equations plus normalization over the flat joint.

    Joint variables are indexed ``x[a, a', b, b']`` in C order; row ``4 t + 2 i + j``
    sums the joint entries where table ``t`` of ``MarginalSet.values`` reads
    outcome ``(i, j)``.
    """
    outcomes = np.indices((2, 2, 2, 2)).reshape(4, 16)
    rows = [
        (outcomes[first] == i) & (outcomes[second] == j)
        for first, second in _SETTING_PAIR_AXES
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
#: The phase-1 tableau of ``_REDUCED`` at a zero rhs, which every Fine system shares but
#: for its rhs column and objective, since its rhs is never negative.
_TABLEAU = _phase1_tableau(_REDUCED, np.zeros(len(_KEEP)))
_TABLEAU.setflags(write=False)


@dataclass(frozen=True)
class JointDecision:
    """Outcome of the joint-distribution search.

    ``feasible`` and ``boundary`` judge the box's nearest nonnegative white-noise
    mixture (see :func:`joint_exists`).  ``joint`` is a witness distribution over
    (A, A', B, B') reproducing the box when feasible; ``certificate`` is the violated
    CHSH sign placement of the box and its value when not.  ``boundary`` marks mixtures
    within ``max(tol, BOUNDARY_TOL)`` of |S| = 2, where the two routes may legitimately split.
    """

    feasible: bool
    boundary: bool
    chsh: ChshReport
    joint: ProbabilityTable | None = None
    residual: float | None = None
    certificate: tuple[tuple[int, int, int, int], float] | None = None


def joint_exists(marginals: MarginalSet) -> JointDecision:
    """Decide whether a joint distribution reproduces all four marginals.

    A box ``b`` valid at ``tol`` may hold cells down to ``-tol``; it is judged by its nearest
    nonnegative white-noise mixture ``b' = (b + nu) / (1 + 4 nu)``, ``nu = max(0, -min cell)``,
    which is ``b`` when no cell is negative.  The phase-1 linear program on ``b + nu`` (from the
    prebuilt tableau ``_TABLEAU``) is cross-asserted against CHSH on ``b'`` at ``marginals.tol``.

    Raises
    ------
    NoSignalingError
        If the marginals fail the no-signaling consistency precondition.
    InternalConsistencyError
        If the two decision routes disagree away from the boundary band.
    """
    tol = marginals.tol
    signaling = check_no_signaling(marginals)
    if not signaling.passed:
        raise NoSignalingError(
            f"single-variable marginals disagree by {signaling.max_discrepancy:.3e}; "
            "the joint-distribution question is ill-posed"
        )
    report = chsh_value(marginals)
    # nu is -0.0 when no cell is negative; adding it, or subtracting abs(nu), keeps signed zeros.
    nu = -min(0.0, float(marginals.values.min()))
    s = report.max_abs / (1.0 + 4.0 * nu)  # |S(b')|, as b + nu has the correlators of b
    chsh_feasible = s <= 2.0 + tol
    boundary = abs(s - 2.0) <= max(tol, BOUNDARY_TOL)

    rhs = np.append(marginals.values + nu, 1.0 + 4.0 * nu)  # cells of b + nu, then normalization
    b = rhs.take(_KEEP)
    tableau = _TABLEAU.copy()
    tableau[:-1, -1], tableau[-1, -1] = b, b.sum()
    optimum, y = _pivot(tableau, _REDUCED.shape[1], PIVOT_TOL)
    residual = float(np.max(np.abs(_EQUATIONS @ y - rhs)))
    lp_feasible = optimum <= LP_OPT_TOL and residual <= tol

    if lp_feasible != chsh_feasible and not boundary:
        raise InternalConsistencyError(
            f"linear program ({lp_feasible}) and CHSH characterization "
            f"({chsh_feasible}) disagree; |S|max = {report.max_abs!r}, "
            f"phase-1 optimum = {optimum!r}"
        )

    if lp_feasible:
        witness, witness_tol = (y - abs(nu) / 4.0).reshape(2, 2, 2, 2), max(tol, residual * 4)
        _check_tables(witness[None], witness_tol)
        joint = ProbabilityTable.__new__(ProbabilityTable)._init_valid(
            witness, ((0, 1),) * 4, witness_tol)
        return JointDecision(
            feasible=True,
            boundary=boundary,
            chsh=report,
            joint=joint,
            residual=residual,
        )
    return JointDecision(
        feasible=False,
        boundary=boundary,
        chsh=report,
        certificate=(report.argmax, dict(report.values)[report.argmax]),
    )
