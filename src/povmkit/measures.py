"""POVM and PVM measures, the generalized Born rule, instrument models and tomography.

A measure is an ordered family of positive operators summing to the identity.
Values are validated where they enter: public constructors, deserialization
and the stacked kernels that build measures from raw parameters.  One stacked
validator checks a whole ``(..., K, d, d)`` stack in one pass: each defect
once, by the operator defect kernels of ``operators`` (the closed-form qubit
spectrum among them), and each threshold once.  An invalid measure cannot
exist as a value, so every downstream computation presumes the
decomposition-of-identity property; a marginal inherits validity unchecked,
at the tolerance its sums accumulate.
Multi-outcome-variable arrangements (bivariate, quadrivariate) are stored flat
together with an ``index_shape``; marginalization is an index sum.
Derived values carry the error they can hold: a Born table carries ``d *
(tol_M + tol_rho)``, and a reconstructed state the bound that the one SVD of
the operator frame and the inputs' tolerances give; each docstring derives its own.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    IncompleteMeasureError,
    InfeasibleProbabilitiesError,
    ValidationError,
)
from .operators import (DEFAULT_TOL, State, _checked_dim, _checked_labels, _checked_tol, _hermitian_defect,
                        _lowest_eigenvalues, as_operator, is_unitary)
from .tables import ProbabilityTable, _check_tables, _marginal_tol, _reduce_trailing, _split_axes


def _coerce_stack(elements) -> np.ndarray:
    """Coerce a sequence of square matrices of one dimension to a C-ordered (K, d, d) stack.

    One whole-input conversion accepts a non-empty square stack; any other
    input goes element by element, so each error names its element.
    """
    try:
        stack = np.array(elements, dtype=complex, order="C")
    except (OverflowError, TypeError, ValueError):
        stack = np.empty(0)
    if stack.ndim == 3 and stack.size and stack.shape[1] == stack.shape[2]:
        return stack
    try:
        arrays = [as_operator(e, name=f"element {k}") for k, e in enumerate(elements)]
    except TypeError:  # ``elements`` is not iterable; ``as_operator`` raises no TypeError
        raise ValidationError(f"measure elements must be a sequence, got {type(elements).__name__}") from None
    if not arrays:
        raise ValidationError("measure must contain at least one element")
    if any(arr.shape != arrays[0].shape for arr in arrays):
        raise DimensionMismatchError("elements do not share a common dimension")
    return np.stack(arrays)


def _completeness_defect(stack: np.ndarray) -> np.ndarray:
    """Entrywise ``|sum_k E_k - I|`` of each measure in a ``(..., K, d, d)`` stack, as ``(..., d * d)``."""
    total = np.einsum("...kij->...ij", stack).reshape(*stack.shape[:-3], -1)
    total[..., :: stack.shape[-1] + 1] -= 1.0
    return np.abs(total)


def _projector_defects(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise ``|E_k^2 - E_k|`` and the ``(..., K, K)`` overlaps ``|Tr(E_j E_k)|`` at ``j < k``, 0 elsewhere."""
    overlaps = np.abs(np.einsum("...jab,...kba->...jk", stack, stack))
    pairs = np.arange(stack.shape[-3])
    return np.abs(stack @ stack - stack), np.where(pairs[:, None] < pairs, overlaps, 0.0)


def _stack_violations(
    stack: np.ndarray, tol: float, projective: bool = False
) -> dict[tuple, list[str]]:
    """Violations of every invalid measure in a ``(..., K, d, d)`` stack.

    Maps the batch index of each invalid measure (``()`` for a single
    ``(K, d, d)`` measure) to its violation messages, in C order; valid
    measures are absent.  Each defect is computed once over the whole stack
    and each threshold is tested once, as a mask; only the measures a mask
    flags are worded.  Every predicate reads ``not (defect <= tol)`` so a
    NaN defect is a violation.  Non-finite elements are reported as such and
    left out of the per-element checks.
    """
    if stack.size == 0:
        return {}
    cells = (*stack.shape[:-2], -1)  # each element's entries as one trailing axis
    with np.errstate(over="ignore", invalid="ignore"):  # a defect beyond the float range: inf or nan
        finite = _reduce_trailing(np.logical_and, np.isfinite(stack).reshape(cells))
        clean = np.where(finite[..., None, None], stack, 0.0)
        herm = _reduce_trailing(np.maximum, _hermitian_defect(clean).reshape(cells))
        lowest = _lowest_eigenvalues(clean)
        completeness = _reduce_trailing(np.maximum, _completeness_defect(stack))
        not_hermitian = finite & ~(herm <= tol)
        not_positive = finite & ~not_hermitian & ~(lowest >= -tol)
        incomplete = ~(completeness <= tol)
        bad = (~finite | not_hermitian | not_positive).any(axis=-1) | incomplete
        if projective:
            idempotence, overlaps = _projector_defects(clean)
            idempotence = _reduce_trailing(np.maximum, idempotence.reshape(cells))
            not_projector = finite & ~(idempotence <= tol)
            not_orthogonal = ~(overlaps <= tol) & finite[..., :, None] & finite[..., None, :]
            bad |= not_projector.any(axis=-1) | not_orthogonal.any(axis=(-2, -1))
    found = {}
    for index in map(tuple, np.argwhere(bad).tolist()):
        lines = []
        for k in range(stack.shape[-3]):
            at = (*index, k)
            if not finite[at]:
                lines.append(f"element {k} has non-finite entries")
            elif not_hermitian[at]:
                lines.append(f"element {k} is not Hermitian (defect {herm[at]:.3e})")
            elif not_positive[at]:
                lines.append(f"element {k} is not positive (eigenvalue {lowest[at]:.3e})")
        if incomplete[index]:
            lines.append(f"elements do not sum to identity (defect {completeness[index]:.3e})")
        if projective:
            lines += [f"element {k} is not a projector (defect {idempotence[(*index, k)]:.3e})"
                      for k in np.flatnonzero(not_projector[index])]
            lines += [f"elements {j} and {k} are not orthogonal (Tr = {overlaps[(*index, j, k)]:.3e})"
                      for j, k in np.argwhere(not_orthogonal[index])]
        found[index] = lines
    return found


#: How far a defect of the generic check of a closed-form rank-one qubit PVM can exceed its completeness defect.
QUBIT_PVM_ROUNDING = 4 * 2.0**-53


def _check_qubit_pvms(stack: np.ndarray, delta: float, tol: float, projective: bool, name=None) -> np.ndarray:
    """``stack``, built on closed-form rank-one qubit PVMs of completeness defect ``delta``, checked at ``tol``.

    Accepted as built when ``delta + QUBIT_PVM_ROUNDING <= tol``; else ``_stack_violations`` decides in C order and
    words the error, after ``f"{name(n)}: "`` for the first failing batch entry ``n`` if ``name`` is given.  Proof,
    to first order in ``u = 2**-53``, for PVMs ``[[p, b], [b*, q]]`` and ``[[p', -b], [-b*, q']]``, ``(p', q')``
    being ``(q, p)`` or ``(p, q)`` in the same bits, whose entries are products of a unit vector's ``(x, y)``, within
    an ulp, each rounded once (a complex ``|y|^2`` sums two): ``g = p q - |b|^2`` is within ``4u |x y|^2`` (real) or
    ``5u |x y|^2`` (complex), at most ``1.25u``; a diagonal imaginary part within ``u / 4``; and
    ``|p + q - 1| <= delta + u``.  Hermitian defect: at most ``u / 2``.  Completeness: ``delta`` plus that
    (``b - b = 0``).  Lowest eigenvalue: ``g / (p + q)``, less ``2u`` of rounding.  Idempotence:
    ``p (p + q - 1) - g`` and ``b (p + q - 1)``, plus ``2u p`` (real) or ``3u p`` (complex, ``p`` within ``delta`` of
    ``1 / 2``).  Overlap: ``2 g``, or ``(p - q)^2 + 2 g`` with ``|p - q| <= delta``, plus ``5u |x y|^2`` or ``u``.
    None exceeds ``delta + 3.5u``; ``4u`` leaves room for second-order terms.
    """
    if delta + QUBIT_PVM_ROUNDING <= tol:
        return stack
    if invalid := _stack_violations(np.ascontiguousarray(stack), tol, projective):
        index, lines = next(iter(invalid.items()))
        raise ValidationError(("" if name is None else f"{name(*index)}: ") + "; ".join(lines))
    return stack


def _per_axis_labels(labels: tuple, index_shape) -> tuple[tuple, ...]:
    """Per-axis labels of tuple labels that are their C-ordered product grid, else ``range`` per axis."""
    if index_shape is None:
        return (labels,)
    ndim = len(index_shape)
    if all(isinstance(label, tuple) and len(label) == ndim for label in labels):
        axes = tuple(
            tuple(labels[i * math.prod(index_shape[axis + 1:])][axis] for i in range(size))
            for axis, size in enumerate(index_shape)
        )
        if tuple(itertools.product(*axes)) == labels:
            return axes
    return tuple(tuple(range(size)) for size in index_shape)


def _violations(elements, tol: float, projective: bool) -> list[str]:
    """Violations of raw ``elements`` as one measure, at a checked ``tol``."""
    try:
        stack = _coerce_stack(elements)
    except (DimensionMismatchError, ValidationError) as exc:
        return [str(exc)]
    return _stack_violations(stack, tol, projective).get((), [])


def povm_violations(elements, tol: float = DEFAULT_TOL) -> list[str]:
    """List every way ``elements`` fails to form a POVM (empty when valid); an invalid ``tol`` raises."""
    return _violations(elements, _checked_tol(tol), projective=False)


def pvm_violations(elements, tol: float = DEFAULT_TOL) -> list[str]:
    """POVM violations plus projector and pairwise-orthogonality defects; an invalid ``tol`` raises."""
    return _violations(elements, _checked_tol(tol), projective=True)


class PovmMeasure:
    """Indexed family of positive operators summing to the identity.

    Parameters
    ----------
    elements : sequence of array_like
        The operators, all square with one common dimension.
    labels : sequence of hashables, optional
        One label per element; defaults to ``0..K-1`` or, for multi-index
        measures, to tuples of per-axis positions.
    index_shape : tuple of int, optional
        Multi-index shape (e.g. ``(2, 2)`` for a bivariate arrangement); the
        flat element order is C order over this shape.
    tol : float
        Validation tolerance, a finite number greater than 0.
    """

    __slots__ = ("_stack", "_elements", "_labels", "_index_shape", "_tol", "_label_index",
                 "_axis_labels")
    _PROJECTIVE = False

    def __init__(self, elements, labels=None, index_shape=None, *, tol: float = DEFAULT_TOL):
        tol = _checked_tol(tol)
        stack = _coerce_stack(elements)
        n_elements = stack.shape[0]

        if index_shape is not None:
            try:
                index_shape = tuple(_checked_dim(n, "index_shape axis") for n in index_shape)
                matches = math.prod(index_shape) == n_elements
            except (TypeError, ValidationError):  # not a sequence of positive integers
                matches = False
            if not matches:
                raise ValidationError(f"index_shape {index_shape} does not match {n_elements} elements")

        if labels is not None:
            labels = _checked_labels(labels, n_elements, "one hashable label is required per element")
        elif index_shape is None:
            labels = tuple(range(n_elements))
        else:
            labels = tuple(itertools.product(*(range(n) for n in index_shape)))

        violations = _stack_violations(stack, tol, self._PROJECTIVE).get(())
        if violations:
            raise ValidationError("; ".join(violations))
        self._init_valid(stack, labels, index_shape, tol)

    def _init_valid(self, stack: np.ndarray, labels: tuple, index_shape, tol) -> "PovmMeasure":
        """Set the fields from a stack known to be valid, with no check; returns self."""
        stack.setflags(write=False)
        self._stack, self._elements, self._labels = stack, tuple(stack), labels
        self._index_shape, self._tol = index_shape, float(tol)
        self._label_index = {label: k for k, label in enumerate(labels)}
        self._axis_labels = _per_axis_labels(labels, index_shape)
        return self

    #: The elements, their labels, the multi-index shape and ``tol``; none can be reassigned.
    elements = property(lambda self: self._elements)
    labels = property(lambda self: self._labels)
    index_shape = property(lambda self: self._index_shape)
    tol = property(lambda self: self._tol)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    def __repr__(self):
        shape = self.index_shape if self.index_shape is not None else (self.n_outcomes,)
        return f"{type(self).__name__}(dim={self.dim}, outcomes={shape})"

    def element(self, label) -> np.ndarray:
        """Element addressed by its outcome label."""
        try:
            return self.elements[self._label_index[label]]
        except KeyError:
            raise KeyError(f"unknown outcome label {label!r}") from None

    def stack(self) -> np.ndarray:
        """All elements as one read-only array of shape (K, d, d)."""
        return self._stack

    def axis_label_tuples(self) -> tuple[tuple, ...]:
        """Per-axis outcome labels, one tuple per axis of ``index_shape``."""
        return self._axis_labels

    def marginal(self, keep) -> "PovmMeasure":
        """Sum the multi-index elements over every axis not kept.

        ``keep`` is an axis index or ascending tuple of axis indices into
        ``index_shape``.  The marginal of a POVM is a POVM and is not
        re-checked; it carries the tolerance its sums accumulate, ``tol``
        times the number of elements summed into each marginal element
        (``tables._marginal_tol``).
        """
        if self.index_shape is None:
            raise ValidationError("marginal requires a multi-index measure")
        keep, drop = _split_axes(keep, self.index_shape)
        grid = self._stack.reshape(*self.index_shape, self.dim, self.dim)
        elements = grid.sum(axis=drop).reshape(-1, self.dim, self.dim)
        tol = _marginal_tol(self.tol, self.index_shape, drop)
        axis_labels = tuple(self._axis_labels[ax] for ax in keep)
        marginal = PovmMeasure.__new__(PovmMeasure)
        if len(keep) == 1:
            return marginal._init_valid(elements, axis_labels[0], None, tol)
        index_shape = tuple(self.index_shape[ax] for ax in keep)
        labels = tuple(itertools.product(*axis_labels))
        return marginal._init_valid(elements, labels, index_shape, tol)


class PvmMeasure(PovmMeasure):
    """POVM whose elements are mutually orthogonal projectors."""

    __slots__ = ()
    _PROJECTIVE = True

    def is_maximal(self) -> bool:
        """True when every projector is rank one, within the measure's ``tol``.

        The real part of each trace is read: the Hermitian check already bounds the imaginary part.
        """
        return bool(np.abs(np.trace(self._stack, axis1=1, axis2=2).real - 1.0).max() <= self.tol)


def tetrahedral_qubit_povm(tol: float = DEFAULT_TOL) -> PovmMeasure:
    """Informationally complete four-outcome qubit POVM on tetrahedral Bloch axes."""
    s = 1.0 / np.sqrt(3.0)
    directions = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    elements = [
        (np.eye(2) + x * sx + y * sy + z * sz) / 4.0 for (x, y, z) in directions
    ]
    return PovmMeasure(elements, labels=("t0", "t1", "t2", "t3"), tol=tol)


class InstrumentModel:
    """Object-apparatus measurement model inducing a POVM on the object.

    Holds the initial apparatus state, the coupling unitary on the combined
    object (x) apparatus space, and the pointer PVM read out on the apparatus
    after the interaction.  The coupling is accepted directly as a unitary
    matrix; callers deriving it from a Hamiltonian do so before construction.
    """

    __slots__ = ("_apparatus_state", "_coupling", "_pointer", "_object_dim", "_tol")

    def __init__(self, apparatus_state: State, coupling, pointer: PvmMeasure, object_dim: int, *,
                 tol: float = DEFAULT_TOL):
        tol = _checked_tol(tol)
        coupling = as_operator(coupling, name="coupling")
        d_o, d_a = _checked_dim(object_dim, "object dimension"), apparatus_state.dim
        if pointer.dim != d_a:
            raise DimensionMismatchError(f"pointer acts on dimension {pointer.dim}, apparatus has {d_a}")
        if coupling.shape[0] != d_o * d_a:
            raise DimensionMismatchError(f"coupling has dimension {coupling.shape[0]}, expected {d_o * d_a}")
        if not is_unitary(coupling, tol):
            raise ValidationError("coupling is not unitary within tolerance")
        self._apparatus_state, self._coupling, self._pointer = apparatus_state, coupling, pointer
        self._object_dim, self._tol = d_o, float(tol)

    #: The apparatus state, coupling, pointer, object dimension and ``tol``; none can be reassigned.
    apparatus_state = property(lambda self: self._apparatus_state)
    coupling = property(lambda self: self._coupling)
    pointer = property(lambda self: self._pointer)
    object_dim = property(lambda self: self._object_dim)
    tol = property(lambda self: self._tol)
    apparatus_dim = property(lambda self: self._apparatus_state.dim)


def born_probabilities(measure: PovmMeasure, rho: State) -> ProbabilityTable:
    """Outcome distribution ``p_k = Tr(rho M_k)`` of a measure on a state.

    The result is indexed like the measure (flat, or reshaped to its
    ``index_shape``) and carries the measure's outcome labels per axis.  It is
    checked at, and carries, ``d * (tol_M + tol_rho)``: to first order in the
    two tolerances, the error a table of valid inputs can hold.  Split ``rho =
    rho+ - rho-``; as no eigenvalue is below ``-tol_rho``, ``Tr rho-`` is at most
    ``d tol_rho``, so a cell is at least ``-(tol_M Tr rho+ + lambda_max(M_k) Tr
    rho-)``, about ``-(tol_M + d tol_rho)``.  Completeness is checked entrywise,
    so the total ``Tr(rho sum_k M_k)`` is within ``tol_rho + d tol_M`` of 1.

    Raises
    ------
    DimensionMismatchError
        If the state dimension differs from the measure dimension.
    ValidationError
        The ``ProbabilityTable`` constructor's error, if the probabilities fail its
        check at that tolerance, which corrupted inputs can make them do.
    """
    if rho.dim != measure.dim:
        raise DimensionMismatchError(
            f"state dimension {rho.dim} does not match measure dimension {measure.dim}"
        )
    tol = measure.dim * (measure.tol + rho.tol)
    probs = np.real(np.einsum("ij,kji->k", rho.matrix, measure.stack()))
    if measure.index_shape is not None:
        probs = probs.reshape(measure.index_shape)
    _check_tables(probs[None], tol)
    return ProbabilityTable.__new__(ProbabilityTable)._init_valid(
        np.array(probs), measure.axis_label_tuples(), tol)


def povm_from_instrument(model: InstrumentModel) -> PovmMeasure:
    """Synthesize the object POVM realized by an instrument model.

    For each pointer element ``E`` the object-space element is the apparatus
    partial trace of ``(I (x) rho_a) U^dag (I (x) E) U``, formed for every
    pointer element in one contraction of ``U`` read as ``(d_o, d_a, d_o, d_a)``.
    Probabilities of the returned measure on any object state agree with the
    full-space computation on the final object-apparatus state.  The model
    checked its coupling's unitarity at construction.
    """
    d_o, d_a = model.object_dim, model.apparatus_dim
    u = model.coupling.reshape(d_o, d_a, d_o, d_a)
    elements = np.einsum("jaib,eaA,jAkc,cb->eik", u.conj(), model.pointer.stack(), u,
                         model.apparatus_state.matrix)
    # A contraction of near-Hermitian factors carries float-level asymmetry;
    # symmetrize before validation.
    elements = (elements + elements.conj().transpose(0, 2, 1)) / 2.0
    return PovmMeasure(
        elements,
        labels=model.pointer.labels,
        index_shape=model.pointer.index_shape,
        tol=model.tol,
    )


def _frame_svd(measure: PovmMeasure) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Thin SVD ``(u, s, vh)`` of a measure's ``(K, d * d)`` operator frame, and whether it spans operator space.

    Row ``k`` of the frame is ``vec(M_k^T)``, so ``Tr(rho M_k)`` is its product with row-major
    ``vec(rho)``.  The frame spans operator space when it has ``d**2`` singular values above
    ``measure.tol``.
    """
    d = measure.dim
    frame = np.swapaxes(measure.stack(), 1, 2).reshape(measure.n_outcomes, d * d)
    u, s, vh = np.linalg.svd(frame, full_matrices=False)
    return u, s, vh, s.size == d * d and bool(s[-1] > measure.tol)


def is_complete(measure: PovmMeasure) -> bool:
    """True when the elements span the full operator space of their dimension.

    Elements are flattened to vectors; completeness requires ``d**2`` singular
    values above ``measure.tol``.
    """
    return _frame_svd(measure)[3]


def reconstruct_state(measure: PovmMeasure, probabilities: ProbabilityTable) -> State:
    """Recover the density operator from a complete measure's outcome distribution.

    Linear inversion by the pseudo-inverse ``V diag(1 / s) U^dag`` of the frame's
    one SVD, followed by Hermitization.  No positivity projection is applied:
    probabilities that no density operator reproduces within the bound ``B``
    below raise instead of being silently repaired.

    ``B = sqrt(d K) (tol_p + d tol_M / 2) / s_min`` for ``K`` outcomes, the table's
    ``tol_p``, the measure's ``tol_M`` and the frame's least singular value
    ``s_min``.  To first order, the table is within ``tol_p`` per cell of the
    Born table of a state ``rho``, which is the error a table carries (a Born
    table's ``tol`` is derived so).  The frame's own product ``Tr(rho M_k)`` is
    off that real table by ``Tr(rho A_k)``, where ``A_k`` is the anti-Hermitian
    part of ``M_k`` with entries within ``tol_M / 2``: at most ``d tol_M / 2``.
    So the error vector has 2-norm at most ``sqrt(K) (tol_p + d tol_M / 2)``, and
    the inversion moves ``rho`` by at most that over ``s_min`` in Frobenius norm
    (N. J. Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 20).
    That bounds the shift of every eigenvalue and, times ``sqrt(d)``, of the
    trace; the residual, the error's part outside the frame's range, is at most
    the error itself, and ``s_min <= 1 / sqrt(d)``.  The residual is tested at
    ``B``; positivity and trace are tested once, by the returned ``State``, which
    carries ``B``.

    Raises
    ------
    IncompleteMeasureError
        If the measure does not span operator space.
    InfeasibleProbabilitiesError
        If the probabilities are outside the frame's range, or the inverted matrix
        is not a state, beyond ``B``.
    """
    u, s, vh, complete = _frame_svd(measure)
    if not complete:
        raise IncompleteMeasureError(
            "measure elements do not span operator space; inversion is underdetermined"
        )
    p = probabilities.values.reshape(-1)
    if p.size != measure.n_outcomes:
        raise DimensionMismatchError(
            f"{p.size} probabilities given for {measure.n_outcomes} outcomes"
        )
    d = measure.dim
    bound = math.sqrt(d * p.size) * (probabilities.tol + d * measure.tol / 2.0) / s[-1]
    coefficients = u.conj().T @ p
    residual = float(np.max(np.abs(u @ coefficients - p)))
    if residual > bound:
        raise InfeasibleProbabilitiesError(
            f"probabilities are outside the measure's range (residual {residual:.3e} > {bound:.3e})"
        )
    rho = (vh.conj().T @ (coefficients / s)).reshape(d, d)
    try:
        return State((rho + rho.conj().T) / 2.0, tol=bound)
    except ValidationError as exc:
        raise InfeasibleProbabilitiesError(f"inverted matrix is not a state within {bound:.3e}: {exc}") from None
