"""Shared builders for the experiment-level tests."""

from fractions import Fraction

import numpy as np

from povmkit import (
    AspectConfig,
    ChshReport,
    DimensionMismatchError,
    InternalConsistencyError,
    JointDecision,
    NoSignalingError,
    ProbabilityTable,
    PovmMeasure,
    PvmMeasure,
    ValidationError,
    arm_povm,
    bell_state,
    polarization_pvm,
    quadrivariate_povm,
    srt,
)
from povmkit.aspect import (
    _ANGLE_NAMES,
    _SETTING_PAIR_AXES,
    _SETTING_PAIR_DROP,
    CHSH_SIGN_PATTERNS,
    _born_products,
)
from povmkit.feasibility import (
    _EQUATIONS,
    _KEEP,
    _REDUCED,
    BOUNDARY_TOL,
    LP_OPT_TOL,
    PIVOT_TOL,
)
from povmkit.measures import _stack_violations
from povmkit.nonideality import martens_bound
from povmkit.operators import DEFAULT_TOL, _checked_finite, as_operator, tensor

TSIRELSON_ANGLES = (0.0, np.pi / 4, np.pi / 8, 3 * np.pi / 8)
TSIRELSON = 2.0 * np.sqrt(2.0)
#: A valid box at tol 1e-9 whose AB cell -9e-10 lies below zero; |S| is 3.6e-9, far inside the
#: local set, and it is feasible.
NEGATIVE_CELL_BOX = ([[0.4999999991, 0.5000000009], [9e-10, -9e-10]],
                     [[0.5, 0.5], [0.0, 0.0]], [[0.5, 0.5], [0.0, 0.0]], [[0.5, 0.5], [0.0, 0.0]])


def make_config(gamma1, gamma2, state=None, angles=TSIRELSON_ANGLES):
    return AspectConfig(
        gamma1=gamma1,
        gamma2=gamma2,
        theta1=angles[0],
        theta1p=angles[1],
        theta2=angles[2],
        theta2p=angles[3],
        state=bell_state() if state is None else state,
    )


def oracle_arm(gamma, theta, theta_p):
    """Arm POVM elements ``(4, 2, 2)`` in the cell order (+,+), (+,-), (-,+), (-,-).

    A frozen copy of the elementwise arm formula of ``povmkit.aspect`` before
    the mirror weight matrix: the zero operator, ``gamma E(theta)+``,
    ``(1 - gamma) E(theta')+`` and ``gamma E(theta)- + (1 - gamma) E(theta')-``.
    """
    def analyzer(angle):
        c, s = np.cos(angle), np.sin(angle)
        plus, minus = np.array([c, s]), np.array([-s, c])
        return np.outer(plus, plus).astype(complex), np.outer(minus, minus).astype(complex)

    (d_plus, d_minus), (r_plus, r_minus) = analyzer(theta), analyzer(theta_p)
    return np.array([np.zeros((2, 2), dtype=complex), gamma * d_plus, (1.0 - gamma) * r_plus,
                     gamma * d_minus + (1.0 - gamma) * r_minus])


def oracle_quadrivariate_povm(config, tol=DEFAULT_TOL):
    """The product POVM of the two arms, built one ``tensor`` call per element.

    A frozen copy of ``povmkit.aspect.quadrivariate_povm`` before it formed the
    16 products in one ``einsum``.  The two agree by value; ``np.kron`` may give
    some zero entries the other sign.
    """
    arm1 = arm_povm(config.gamma1, config.theta1, config.theta1p, tol)
    arm2 = arm_povm(config.gamma2, config.theta2, config.theta2p, tol)
    elements = [tensor(e1, e2) for e1 in arm1.elements for e2 in arm2.elements]
    labels = tuple(l1 + l2 for l1 in arm1.labels for l2 in arm2.labels)
    return PovmMeasure(elements, labels=labels, index_shape=(2, 2, 2, 2), tol=tol)


def oracle_polarization_stack(angles):
    """``(N, 2, 2, 2)`` analyzer projector pairs from numpy ``cos`` and ``sin`` on a list of finite floats.

    A frozen copy of the closed form ``povmkit.aspect._analyzer_stack`` builds, from before it
    read Python-float products into one array: the library must return the same bits.
    """
    theta = np.array(angles, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    vectors = np.stack([c, s, -s, c], axis=-1).reshape(-1, 2, 2)
    return (vectors[..., :, None] * vectors[..., None, :]).astype(complex)


def oracle_joint_probabilities(config, tol=DEFAULT_TOL):
    """A fixed arrangement's joint table, built through the public table constructor.

    A frozen copy of ``povmkit.aspect.joint_probabilities`` before it ran the
    constructor's table check on its own: the frozen analyzer stack above, the
    nested mirror weight matrices and ``ProbabilityTable(...)``.  The Born
    contraction is the library's ``_born_products``, whose values the change left
    as they were; it has since stopped checking a floor the constructor checks.
    """
    def mirror_weights(g):
        r = 1.0 - g
        return np.array([[[0.0, 0.0], [0.0, 0.0]], [[g, 0.0], [0.0, 0.0]],
                         [[0.0, 0.0], [r, 0.0]], [[0.0, g], [0.0, r]]])

    pvms = oracle_polarization_stack([getattr(config, n) for n in _ANGLE_NAMES])
    assert _stack_violations(pvms, tol, True) == {}
    tol = max(tol, config.state.tol)
    pairs = _born_products(config.state, pvms[:2, None], pvms[None, 2:])
    probs = np.einsum("xsa,stab,ytb->xy", mirror_weights(config.gamma1), pairs,
                      mirror_weights(config.gamma2)).reshape(2, 2, 2, 2)
    return ProbabilityTable(probs, axis_labels=(("+", "-"),) * 4, tol=tol)


def oracle_standard_composite(angles, state, tol=DEFAULT_TOL):
    """The four limiting arrangements' tables, each built through the public table constructor.

    The frozen analyzer stack, validated on its own by the generic check, and the
    library's ``_born_products``.
    """
    pvms = oracle_polarization_stack(angles)
    assert _stack_violations(pvms, tol, True) == {}
    pairs = _born_products(state, pvms[:2, None], pvms[None, 2:]).reshape(4, 2, 2)
    return [ProbabilityTable(t, axis_labels=(("+", "-"),) * 2, tol=max(tol, state.tol))
            for t in pairs]


def constructor_error(tables) -> str:
    """The message of the ``ProbabilityTable`` constructor's error on the first table it rejects."""
    for values in tables:
        try:
            ProbabilityTable(values)
        except ValidationError as exc:
            return str(exc)
    raise AssertionError("the constructor accepts every table")


def explicit_two_photon_tables(state, angles, gammas=None):
    """``Tr(rho E (x) F)`` element by element, with no check: the four limiting tables, or one joint.

    Without ``gammas``, the setting-pair tables (A, B), (A, B'), (A', B), (A', B') of the
    analyzer PVMs at ``angles``; with them, the ``(2, 2, 2, 2)`` joint of the quadrivariate POVM.
    """
    def born(first, second):
        return [[np.real(np.trace(state.matrix @ np.kron(e, f))) for f in second] for e in first]

    if gammas is None:
        pvms = [polarization_pvm(angle).elements for angle in angles]
        return [born(pvms[i], pvms[j]) for i, j in _SETTING_PAIR_AXES]
    elements = quadrivariate_povm(AspectConfig(*gammas, *angles, state=state)).elements
    return [np.array([np.real(np.trace(state.matrix @ e)) for e in elements]).reshape(2, 2, 2, 2)]


def oracle_born_probabilities(measure, rho):
    """The Born table through its own floor check and the public table constructor, frozen.

    A frozen copy of ``povmkit.measures.born_probabilities`` before the table
    check was its one check: a floor at ``-tol`` that failed NaN, then
    ``ProbabilityTable(...)`` on the reshaped values and the measure's axis labels.
    """
    if rho.dim != measure.dim:
        raise DimensionMismatchError("state and measure dimensions differ")
    tol = max(measure.tol, rho.tol)
    probs = np.real(np.einsum("ij,kji->k", rho.matrix, measure.stack()))
    if not probs.min() >= -tol:
        raise InternalConsistencyError(f"probability {probs.min():.3e} below -tol")
    if measure.index_shape is not None:
        probs = probs.reshape(measure.index_shape)
    return ProbabilityTable(probs, axis_labels=measure.axis_label_tuples(), tol=tol)


def _partial_trace_second(op, dims):
    """Trace out the second factor of an operator on a ``dims[0] * dims[1]`` space.

    A frozen copy of the ``partial_trace(op, dims, keep=0)`` that ``povmkit.operators``
    exported until the instrument POVM became one contraction.
    """
    d0, d1 = dims
    return np.einsum("ijkj->ik", np.asarray(op).reshape(d0, d1, d0, d1))


def oracle_povm_from_instrument(model):
    """The instrument's object POVM, one pair of ``np.kron`` products per pointer element.

    A frozen copy of ``povmkit.measures.povm_from_instrument`` before it formed
    every element in one contraction: ``Tr_a[(I (x) rho_a) U^dag (I (x) E) U]``,
    then the Hermitian part, then ``PovmMeasure(...)``.
    """
    dims = (model.object_dim, model.apparatus_dim)
    identity = np.eye(model.object_dim)
    weighted = np.kron(identity, model.apparatus_state.matrix)
    u = model.coupling
    elements = []
    for pointer_element in model.pointer.elements:
        rotated = u.conj().T @ np.kron(identity, pointer_element) @ u
        element = _partial_trace_second(weighted @ rotated, dims)
        elements.append((element + element.conj().T) / 2.0)
    return PovmMeasure(elements, labels=model.pointer.labels,
                       index_shape=model.pointer.index_shape, tol=model.tol)


def _oracle_lowest_eigenvalues(hermitian):
    if hermitian.shape[-1] != 2:
        return np.linalg.eigvalsh(hermitian)[..., 0]
    a = np.real(hermitian[..., 0, 0])
    d = np.real(hermitian[..., 1, 1])
    return (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(hermitian[..., 0, 1]))


def oracle_stack_violations(stack, tol, projective=False):
    """Stacked validation by masks and messages, written out apart from the library.

    A frozen copy of ``povmkit.measures._stack_violations`` with its own
    defect expressions, kept here as the oracle that the library's one-pass
    stack validator must equal on every stack.
    """
    n_elements, dim = stack.shape[-3], stack.shape[-1]
    finite = np.isfinite(stack).all(axis=(-2, -1))
    clean = np.where(finite[..., None, None], stack, 0.0)
    adjoint = np.conj(np.swapaxes(clean, -1, -2))
    herm = np.abs(clean - adjoint).max(axis=(-2, -1))
    lowest = _oracle_lowest_eigenvalues((clean + adjoint) / 2.0)
    completeness = np.abs(stack.sum(axis=-3) - np.eye(dim)).max(axis=(-2, -1))

    not_hermitian = finite & ~(herm <= tol)
    not_positive = finite & ~not_hermitian & ~(lowest >= -tol)
    incomplete = ~(completeness <= tol)
    bad = (~finite | not_hermitian | not_positive).any(axis=-1) | incomplete
    if projective:
        idempotence = np.abs(clean @ clean - clean).max(axis=(-2, -1))
        overlaps = np.abs(np.einsum("...jab,...kba->...jk", clean, clean))
        not_projector = finite & ~(idempotence <= tol)
        not_orthogonal = ~(overlaps <= tol) & finite[..., :, None] & finite[..., None, :]
        not_orthogonal = np.triu(not_orthogonal, k=1)
        bad |= not_projector.any(axis=-1) | not_orthogonal.any(axis=(-2, -1))
    if not bad.any():
        return {}

    found = {}
    for index in map(tuple, np.argwhere(bad)):
        lines = []
        for k in range(n_elements):
            at = index + (k,)
            if not finite[at]:
                lines.append(f"element {k} has non-finite entries")
            elif not_hermitian[at]:
                lines.append(f"element {k} is not Hermitian (defect {herm[at]:.3e})")
            elif not_positive[at]:
                lines.append(f"element {k} is not positive (eigenvalue {lowest[at]:.3e})")
        if incomplete[index]:
            lines.append(
                f"elements do not sum to identity (defect {completeness[index]:.3e})"
            )
        if projective:
            for k in np.flatnonzero(not_projector[index]):
                lines.append(
                    f"element {k} is not a projector (defect {idempotence[index + (k,)]:.3e})"
                )
            for j, k in np.argwhere(not_orthogonal[index]):
                lines.append(
                    f"elements {j} and {k} are not orthogonal "
                    f"(Tr = {overlaps[index + (j, k)]:.3e})"
                )
        found[index] = lines
    return found


def oracle_is_hermitian(op, tol=DEFAULT_TOL):
    """A frozen copy of ``povmkit.operators.is_hermitian`` before the shared defect kernel."""
    arr = as_operator(op)
    return bool(np.max(np.abs(arr - arr.conj().T)) <= tol)


def oracle_is_positive(op, tol=DEFAULT_TOL):
    """A frozen copy of ``povmkit.operators.is_positive`` on the ``eigvalsh`` route."""
    arr = as_operator(op)
    if not oracle_is_hermitian(arr, tol):
        return False
    eigenvalues = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)
    return bool(eigenvalues[0] >= -tol)


def oracle_is_projector(op, tol=DEFAULT_TOL):
    """A frozen copy of ``povmkit.operators.is_projector`` before the shared defect kernel."""
    arr = as_operator(op)
    if not oracle_is_hermitian(arr, tol):
        return False
    return bool(np.max(np.abs(arr @ arr - arr)) <= tol)


def oracle_state_check(matrix, tol=DEFAULT_TOL):
    """The checks of ``povmkit.State`` on the ``eigvalsh`` route, frozen.

    Raises the error the state constructor raised before the shared defect
    kernel, or returns None for a matrix it accepted.
    """
    arr = as_operator(matrix, name="state")
    if not np.isfinite(arr).all():
        raise ValidationError("state has non-finite entries")
    if not oracle_is_hermitian(arr, tol):
        raise ValidationError("state is not Hermitian within tolerance")
    eigenvalues = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)
    if eigenvalues[0] < -tol:
        raise ValidationError(f"state has negative eigenvalue {eigenvalues[0]:.3e}")
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > tol:
        raise ValidationError(f"state trace {tr} differs from 1")


def oracle_table_check(values, tol=DEFAULT_TOL):
    """The checks of the ``povmkit.ProbabilityTable`` constructor on one real table, frozen.

    Raises the error the constructor raised before the stacked table
    validator, or returns None for values it accepted.
    """
    arr = np.array(values, dtype=float)
    if arr.size == 0:
        raise ValidationError("probability table must not be empty")
    if not np.isfinite(arr).all():
        raise ValidationError("probability table has non-finite entries")
    if float(arr.min()) < -tol:
        raise ValidationError(f"probability table has negative entry {arr.min():.3e}")
    total = float(arr.sum())
    if abs(total - 1.0) > max(tol, tol * arr.size):
        raise ValidationError(f"probability table sums to {total!r}, not 1")


def oracle_solve_stack(observed, target, tol):
    """Nonideality matrices from one batched Gram pseudo-inverse.

    An independent reference for ``povmkit.nonideality._solve_stack``: the
    minimum-norm least-squares solve, with no trace form.  On a PVM target with
    no zero element it is column-stochastic, and the trace form must agree
    with it; a result that is not stochastic within ``tol`` raises.
    """
    gram = np.real(np.einsum("...jab,...kba->...jk", target, target))
    cross = np.real(np.einsum("...niab,...jba->...nij", observed, target))
    candidates = cross @ np.linalg.pinv(gram, hermitian=True)[..., None, :, :]
    if not (candidates.min() >= -tol and np.abs(candidates.sum(axis=-2) - 1.0).max() <= tol):
        raise InternalConsistencyError("the pseudo-inverse reference is not column-stochastic")
    return candidates


def oracle_trace_form_stack(observed, target, tol):
    """A frozen copy of ``povmkit.nonideality._solve_stack`` before its exit for targets with
    no zero element: both ``np.where`` calls run on every stack."""
    gram = np.real(np.einsum("...jab,...kba->...jk", target, target))
    norms = np.diagonal(gram, axis1=-2, axis2=-1)[..., None, None, :]
    cross = np.real(np.einsum("...niab,...jba->...nij", observed, target))
    zero = norms <= tol
    matrices = np.where(zero, 1.0 / cross.shape[-2], cross / np.where(zero, 1.0, norms))
    return matrices, zero[..., 0, 0, :]


def _oracle_xlogx(x):
    x = np.asarray(x, dtype=float)
    return x * np.log(x + (x == 0))


def oracle_row_entropy(matrices):
    """A frozen copy of ``povmkit.nonideality._row_entropy`` before its sums went through
    ``tables._reduce_trailing``: numpy's own reductions, and ``np.clip``."""
    clipped = np.clip(matrices, 0.0, None)
    row_sums = clipped.sum(axis=-1)
    entropy = _oracle_xlogx(row_sums).sum(axis=-1) - _oracle_xlogx(clipped).sum(axis=(-2, -1))
    return np.maximum(entropy, 0.0) / matrices.shape[-2]


def oracle_table_accept_pass(stack, tol):
    """A frozen copy of the accept pass of ``povmkit.tables._table_violation`` before its
    per-table totals went through ``_reduce_trailing``: True when it accepts the whole stack."""
    bound = max(tol, tol * stack[0].size)
    flat = stack.reshape(len(stack), -1)
    return bool(flat.min() >= -tol and flat.max() <= 1.0 + 2.0 * bound and np.abs(flat.sum(1) - 1.0).max() <= bound)


def oracle_stochastic_violation(matrices, tol):
    """Per-matrix stochasticity check with no whole-stack accept pass.

    A frozen copy of ``povmkit.nonideality._stochastic_violation`` as it was
    before its whole-stack reductions: the library must return the same
    index and message on every stack.
    """
    lowest = matrices.min(axis=(1, 2))
    column_sums = matrices.sum(axis=1)
    imbalance = np.abs(column_sums - 1.0).max(axis=1)
    negative = ~(lowest >= -tol)
    unbalanced = ~(imbalance <= max(tol, tol * matrices.shape[1]))
    bad = np.flatnonzero(negative | unbalanced)
    if bad.size == 0:
        return None
    n = int(bad[0])
    if negative[n]:
        return n, f"nonideality matrix has negative entry {lowest[n]:.3e}"
    return n, f"columns must sum to 1, got {column_sums[n].tolist()}"


def oracle_correlator(table):
    values = np.asarray(table.values, dtype=float)
    if values.shape != (2, 2):
        raise DimensionMismatchError(f"correlator requires a 2x2 table, got {values.shape}")
    return float(values[0, 0] - values[0, 1] - values[1, 0] + values[1, 1])


def oracle_chsh_value(bivariates):
    """Per-table CHSH evaluation on numpy scalars.

    A frozen copy of ``povmkit.aspect.chsh_value`` as it was before the four
    tables became one array: the library must return an equal report.
    """
    if len(bivariates) != 4:
        raise DimensionMismatchError("exactly four bivariate tables are required")
    e = tuple(oracle_correlator(table) for table in bivariates)
    values = tuple(
        (signs, float(sum(s * ek for s, ek in zip(signs, e))))
        for signs in CHSH_SIGN_PATTERNS
    )
    best_signs, best = max(values, key=lambda item: abs(item[1]))
    return ChshReport(
        correlators=e,
        values=values,
        canonical=dict(values)[(1, 1, 1, -1)],
        max_abs=abs(best),
        argmax=best_signs,
    )


def oracle_no_signaling(tables):
    """Per-variable marginal discrepancies of four tables, one table pair at a time.

    A frozen copy of the loop of ``povmkit.feasibility.check_no_signaling``
    before the array set; returns the discrepancy dict, in its key order.
    """
    ab, abp, apb, apbp = (t.values for t in tables)
    return {
        "A": float(np.max(np.abs(ab.sum(axis=1) - abp.sum(axis=1)))),
        "A'": float(np.max(np.abs(apb.sum(axis=1) - apbp.sum(axis=1)))),
        "B": float(np.max(np.abs(ab.sum(axis=0) - apb.sum(axis=0)))),
        "B'": float(np.max(np.abs(abp.sum(axis=0) - apbp.sum(axis=0)))),
    }


def oracle_setting_pair_tables(joint):
    """The four setting-pair tables of a (2, 2, 2, 2) joint, each summed on its own.

    A frozen copy of the per-table loop of
    ``povmkit.feasibility.MarginalSet.from_quadrivariate`` before the array
    set; returns ``(values, axis_labels)`` per table.
    """
    found = []
    for keep, drop in zip(_SETTING_PAIR_AXES, _SETTING_PAIR_DROP):
        labels = None
        if joint.axis_labels is not None:
            labels = tuple(joint.axis_labels[ax] for ax in keep)
        found.append((np.asarray(joint.values.sum(axis=drop)), labels))
    return found


def oracle_phase1_simplex(constraints, rhs, *, tol=PIVOT_TOL):
    """Phase-1 simplex that pivots its tableau one row at a time.

    A frozen copy of ``povmkit.feasibility.phase1_simplex`` before the rank-1
    pivot update, with a separate reduced-cost row; the library's kernel must
    return the same optimum and point, byte for byte, and raise the same errors.
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


def oracle_joint_exists(marginals):
    """``povmkit.feasibility.joint_exists`` on a tableau built from the raw rhs, frozen.

    A frozen copy from before the prebuilt phase-1 tableau: the no-signaling
    gaps from numpy sums (the frozen per-pair loop above), the row-by-row
    simplex oracle on ``_REDUCED`` and the rhs, and the witness through the
    public table constructor.  The library must return an equal decision,
    byte for byte, and raise the same errors.
    """
    tol = marginals.tol
    worst = max(oracle_no_signaling(marginals.tables()).values())
    if not worst <= tol:
        raise NoSignalingError(
            f"single-variable marginals disagree by {worst:.3e}; "
            "the joint-distribution question is ill-posed"
        )
    report = oracle_chsh_value(marginals.tables())
    chsh_feasible = report.max_abs <= 2.0 + tol
    boundary = abs(report.max_abs - 2.0) <= max(tol, BOUNDARY_TOL)

    rhs = np.append(marginals.values, 1.0)
    optimum, x = oracle_phase1_simplex(_REDUCED, rhs.take(_KEEP))
    residual = float(np.max(np.abs(_EQUATIONS @ x - rhs)))
    lp_feasible = optimum <= LP_OPT_TOL and residual <= tol
    if lp_feasible != chsh_feasible and not boundary:
        raise InternalConsistencyError(
            f"linear program ({lp_feasible}) and CHSH characterization "
            f"({chsh_feasible}) disagree; |S|max = {report.max_abs!r}, "
            f"phase-1 optimum = {optimum!r}"
        )
    if lp_feasible:
        joint = ProbabilityTable(x.reshape(2, 2, 2, 2), axis_labels=((0, 1),) * 4,
                                 tol=max(tol, residual * 4))
        return JointDecision(True, boundary, report, joint=joint, residual=residual)
    return JointDecision(False, boundary, report,
                         certificate=(report.argmax, dict(report.values)[report.argmax]))


def exact_joint_exists(values):
    """Fine's decision on a ``(4, 2, 2)`` box ``b``, in exact rational arithmetic.

    Returns ``(feasible, |S(b')|)``: ``b' = (b + nu) / (1 + 4 nu)``, with
    ``nu = max(0, -min cell)``, is the nearest nonnegative white-noise mixture
    that ``joint_exists`` decides, built cell by cell from the floats as
    ``Fraction``s, and it admits a joint exactly when ``|S(b')| <= 2``.
    """
    cells = [Fraction(float(v)) for v in np.asarray(values).ravel()]
    nu = max(Fraction(0), -min(cells))
    mixed = [(c + nu) / (1 + 4 * nu) for c in cells]
    e = [pp - pm - mp + mm for pp, pm, mp, mm in zip(*[iter(mixed)] * 4)]
    s = max(abs(sum(sign * ek for sign, ek in zip(signs, e))) for signs in CHSH_SIGN_PATTERNS)
    return s <= 2, s


def _oracle_interference_projectors(chi):
    phase = np.exp(1j * float(chi))
    q1_vec = np.array([1.0, phase]) / np.sqrt(2.0)
    q2_vec = np.array([1.0, -phase]) / np.sqrt(2.0)
    return np.outer(q1_vec, q1_vec.conj()), np.outer(q2_vec, q2_vec.conj())


def _oracle_bivariate_stack(absorbers, chi):
    a = np.asarray(absorbers, dtype=float)[:, None, None]
    q1, q2 = _oracle_interference_projectors(chi)
    q_diff = q1 - q2
    root = np.sqrt(a)
    m1 = 0.5 * (srt._P_PLUS + a * srt._P_MINUS + root * q_diff)
    m2 = 0.5 * (srt._P_PLUS + a * srt._P_MINUS - root * q_diff)
    half_m3 = 0.5 * ((1.0 - a) * srt._P_MINUS)
    return np.stack([m1, m2, half_m3, half_m3], axis=1)


def oracle_tradeoff_sweep(grid, chi=0.0, *, tol=DEFAULT_TOL):
    """Trade-off sweep that builds the interference projectors twice.

    A frozen copy of ``povmkit.srt.tradeoff_sweep`` before the projector stack
    was built once: the projectors as a tuple of outer products, rebuilt inside
    the bivariate stack, the stack built by ``np.stack``, the marginals as
    ``sum`` over a length-2 axis and the rows one constructor call each.  The
    library's sweep must return equal rows and raise the same errors; the phase
    goes through the library's finite-real rule, as ``interference_pvm`` takes it,
    each nonideality matrix column through the frozen table constructor, and the
    trace-form solve and the row entropies through their frozen copies above.
    """
    values = np.fromiter(grid, dtype=float)
    outside = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
    if outside.size:
        raise ValidationError(f"grid value {float(values[outside[0]])!r} outside [0, 1]")
    chi = _checked_finite(chi, "phase")
    target_interference = PvmMeasure(_oracle_interference_projectors(chi), labels=("1", "2"),
                                     tol=tol)
    if values.size == 0:
        return []
    path = srt.path_pvm()
    bound = martens_bound(path, target_interference)

    stack = _oracle_bivariate_stack(values, chi)
    invalid = _stack_violations(stack, tol)
    if invalid:
        (n,), lines = next(iter(invalid.items()))
        raise ValidationError(f"absorber={float(values[n])!r}: " + "; ".join(lines))
    cells = stack.reshape(values.size, 2, 2, 2, 2)

    marginals = np.stack([cells.sum(axis=2), cells.sum(axis=1)])
    targets = np.stack([path.stack(), target_interference.stack()])
    matrices, _ = oracle_trace_form_stack(marginals, targets, tol)
    for k, column in enumerate(matrices.swapaxes(-1, -2).reshape(-1, 2)):
        try:
            oracle_table_check(column, tol)
        except ValidationError as exc:
            reason = str(exc).removeprefix("probability table ")
            raise ValidationError(f"absorber={float(values[k // 2 % values.size])!r}: "
                                  f"nonideality matrix column {k % 2} {reason}") from None
    j_lambda, j_mu = oracle_row_entropy(matrices)
    slack = j_lambda + j_mu - bound

    violated = np.flatnonzero(~(slack >= -tol))
    if violated.size:
        n = violated[0]
        raise InternalConsistencyError(
            f"joint-measurement bound violated (slack {slack[n]:.3e}) "
            f"at absorber={float(values[n])!r}; "
            "the matrices do not come from one bivariate arrangement"
        )
    drift = np.maximum(
        np.abs(j_lambda - srt._path_entropy(values)),
        np.abs(j_mu - srt._interference_entropy(values)),
    )
    drifted = np.flatnonzero(~(drift <= 1e-8))  # the sweep's agreement floor before its derived bound
    if drifted.size:
        n = drifted[0]
        raise InternalConsistencyError(
            f"solver pipeline drifted {drift[n]:.3e} from the closed-form entropies "
            f"at absorber={float(values[n])!r}"
        )
    return [
        srt.TradeoffPoint(a, jl, jm, bound, s)
        for a, jl, jm, s in zip(values.tolist(), j_lambda.tolist(), j_mu.tolist(), slack.tolist())
    ]


# The CLI's CSV writers before its one renderer, frozen: every CSV the CLI writes must
# read as these wrote it, byte for byte.

def oracle_fmt(x) -> str:
    """``povmkit.cli._fmt``: 17 significant digits."""
    return format(float(x), ".17g")


def oracle_chsh_csv_lines(report) -> list[str]:
    """The ``signs,value`` lines of a CHSH report, one per sign placement."""
    return ["signs,value"] + [
        f"\"{' '.join(f'{s:+d}' for s in signs)}\",{oracle_fmt(value)}" for signs, value in report.values
    ]


def oracle_cells_csv(header: str, tables) -> str:
    """``header``, then per ``(prefix, values, axis_labels)`` one row per cell: keys, value."""
    lines = [header]
    for prefix, values, axis_labels in tables:
        for idx, value in np.ndenumerate(values):
            keys = (*prefix, *(axis_labels[ax][i] for ax, i in enumerate(idx)))
            lines.append(",".join(map(str, keys)) + f",{oracle_fmt(value)}")
    return "\n".join(lines)
