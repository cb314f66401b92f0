"""POVM and PVM measures, the generalized Born rule, instrument models and tomography.

A measure is an ordered family of positive operators summing to the identity.
Values are validated where they enter: public constructors, deserialization
and the stacked kernels that build measures from raw parameters.  One stacked
validator checks whole ``(..., K, d, d)`` stacks at once and reads a rejected
stack one measure at a time, with the operator defect kernels of ``operators``
(the closed-form qubit spectrum among them).  An invalid measure cannot
exist as a value, so every downstream computation presumes the
decomposition-of-identity property; a marginal inherits validity unchecked,
at the tolerance its sums accumulate.
Multi-outcome-variable arrangements (bivariate, quadrivariate) are stored flat
together with an ``index_shape``; marginalization is an index sum.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    IncompleteMeasureError,
    InfeasibleProbabilitiesError,
    InternalConsistencyError,
    ValidationError,
)
from .operators import (DEFAULT_TOL, State, _hermitian_defect, _lowest_eigenvalues, as_operator,
                        is_unitary, partial_trace)
from .tables import ProbabilityTable, _split_axes

#: Tolerance on the residual ``born(measure, rho) - probabilities`` accepted by
#: state reconstruction.
RECONSTRUCTION_TOL = 1e-8


def _coerce_stack(elements) -> np.ndarray:
    """Coerce a sequence of square matrices of one dimension to a (K, d, d) stack.

    One whole-input conversion accepts a non-empty square stack; any other
    input goes element by element, so each error names its element.
    """
    try:
        stack = np.array(elements, dtype=complex)
    except (OverflowError, TypeError, ValueError):
        stack = np.empty(0)
    if stack.ndim == 3 and stack.size and stack.shape[1] == stack.shape[2]:
        return stack
    arrays = [as_operator(e, name=f"element {k}") for k, e in enumerate(elements)]
    if not arrays:
        raise ValidationError("measure must contain at least one element")
    if any(arr.shape != arrays[0].shape for arr in arrays):
        raise DimensionMismatchError("elements do not share a common dimension")
    return np.stack(arrays)


def _stack_accepts(stack: np.ndarray, tol: float, projective: bool) -> bool:
    """True when a non-empty, finite stack passes every check of ``_stack_violations``.

    Each test bounds the extreme of one defect over the whole stack, computed as
    the per-measure check computes it, so acceptance here means no violation there.
    """
    if stack.size == 0 or not np.isfinite(stack).all():
        return False
    defect, hermitian = _hermitian_defect(stack)
    if not (defect.max() <= tol
            and _lowest_eigenvalues(hermitian).min() >= -tol
            and np.abs(stack.sum(axis=-3) - np.eye(stack.shape[-1])).max() <= tol):
        return False
    if not projective:
        return True
    overlaps = np.abs(np.einsum("...jab,...kba->...jk", stack, stack))
    off_diagonal = 1.0 - np.eye(stack.shape[-3])
    return bool(np.abs(stack @ stack - stack).max() <= tol
                and (overlaps * off_diagonal).max() <= tol)


def _stack_violations(
    stack: np.ndarray, tol: float, projective: bool = False
) -> dict[tuple, list[str]]:
    """Violations of every invalid measure in a ``(..., K, d, d)`` stack.

    Maps the batch index of each invalid measure (``()`` for a single
    ``(K, d, d)`` measure) to its violation messages, in C order; valid
    measures are absent.  Every predicate reads ``not (defect <= tol)`` so a
    NaN defect is a violation.  Non-finite elements are reported as such and
    left out of the per-element checks.  Whole-stack reductions decide first;
    a stack they reject is read one measure at a time.
    """
    if _stack_accepts(stack, tol, projective):
        return {}
    found = {}
    for index in np.ndindex(stack.shape[:-3]):
        measure = stack[index]
        finite = np.isfinite(measure).all(axis=(-2, -1))
        clean = np.where(finite[:, None, None], measure, 0.0)
        defect, hermitian = _hermitian_defect(clean)
        herm, lowest = defect.max(axis=(-2, -1)), _lowest_eigenvalues(hermitian)
        lines = []
        for k in range(len(measure)):
            if not finite[k]:
                lines.append(f"element {k} has non-finite entries")
            elif not herm[k] <= tol:
                lines.append(f"element {k} is not Hermitian (defect {herm[k]:.3e})")
            elif not lowest[k] >= -tol:
                lines.append(f"element {k} is not positive (eigenvalue {lowest[k]:.3e})")
        completeness = np.abs(measure.sum(axis=0) - np.eye(measure.shape[-1])).max()
        if not completeness <= tol:
            lines.append(f"elements do not sum to identity (defect {completeness:.3e})")
        if projective:
            idempotence = np.abs(clean @ clean - clean).max(axis=(-2, -1))
            lines += [f"element {k} is not a projector (defect {idempotence[k]:.3e})"
                      for k in np.flatnonzero(finite & ~(idempotence <= tol))]
            overlaps = np.abs(np.einsum("jab,kba->jk", clean, clean))
            lines += [f"elements {j} and {k} are not orthogonal (Tr = {overlaps[j, k]:.3e})"
                      for j, k in itertools.combinations(np.flatnonzero(finite), 2)
                      if not overlaps[j, k] <= tol]
        if lines:
            found[index] = lines
    return found


def _per_axis_labels(labels: tuple, index_shape) -> tuple[tuple, ...]:
    """Per-axis labels read off C-ordered tuple labels, else ``range`` per axis."""
    if index_shape is None:
        return (labels,)
    ndim = len(index_shape)
    if not all(isinstance(label, tuple) and len(label) == ndim for label in labels):
        return tuple(tuple(range(size)) for size in index_shape)
    return tuple(
        tuple(labels[i * np.prod(index_shape[axis + 1:], dtype=int)][axis] for i in range(size))
        for axis, size in enumerate(index_shape)
    )


def povm_violations(elements, tol: float = DEFAULT_TOL) -> list[str]:
    """List every way ``elements`` fails to form a POVM (empty when valid)."""
    try:
        stack = _coerce_stack(elements)
    except (DimensionMismatchError, ValidationError) as exc:
        return [str(exc)]
    return _stack_violations(stack, tol).get((), [])


def pvm_violations(elements, tol: float = DEFAULT_TOL) -> list[str]:
    """POVM violations plus projector and pairwise-orthogonality defects."""
    try:
        stack = _coerce_stack(elements)
    except (DimensionMismatchError, ValidationError) as exc:
        return [str(exc)]
    return _stack_violations(stack, tol, projective=True).get((), [])


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
        Validation tolerance.
    """

    _PROJECTIVE = False

    def __init__(self, elements, labels=None, index_shape=None, *, tol: float = DEFAULT_TOL):
        stack = _coerce_stack(elements)
        n_elements = stack.shape[0]

        if index_shape is not None:
            index_shape = tuple(int(n) for n in index_shape)
            if any(n <= 0 for n in index_shape) or int(np.prod(index_shape)) != n_elements:
                raise ValidationError(
                    f"index_shape {index_shape} does not match {n_elements} elements"
                )

        if labels is None:
            if index_shape is None:
                labels = tuple(range(n_elements))
            else:
                labels = tuple(itertools.product(*(range(n) for n in index_shape)))
        else:
            labels = tuple(labels)
            if len(labels) != n_elements:
                raise ValidationError("one label is required per element")

        violations = _stack_violations(stack, tol, self._PROJECTIVE).get(())
        if violations:
            raise ValidationError("; ".join(violations))
        self._init_valid(stack, labels, index_shape, tol)

    def _init_valid(self, stack: np.ndarray, labels: tuple, index_shape, tol) -> "PovmMeasure":
        """Set the fields from a stack known to be valid, with no check; returns self."""
        stack.setflags(write=False)
        self._stack = stack
        self.elements = tuple(stack)
        self.labels = labels
        self.index_shape = index_shape
        self.tol = float(tol)
        self._label_index = {label: k for k, label in enumerate(labels)}
        self._axis_labels = _per_axis_labels(labels, index_shape)
        return self

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
        times the number of elements summed into each marginal element.
        """
        if self.index_shape is None:
            raise ValidationError("marginal requires a multi-index measure")
        keep, drop = _split_axes(keep, self.index_shape)
        grid = self._stack.reshape(*self.index_shape, self.dim, self.dim)
        elements = grid.sum(axis=drop).reshape(-1, self.dim, self.dim)
        tol = self.tol * math.prod(self.index_shape[ax] for ax in drop)
        axis_labels = tuple(self._axis_labels[ax] for ax in keep)
        marginal = PovmMeasure.__new__(PovmMeasure)
        if len(keep) == 1:
            return marginal._init_valid(elements, axis_labels[0], None, tol)
        index_shape = tuple(self.index_shape[ax] for ax in keep)
        labels = tuple(itertools.product(*axis_labels))
        return marginal._init_valid(elements, labels, index_shape, tol)


class PvmMeasure(PovmMeasure):
    """POVM whose elements are mutually orthogonal projectors."""

    _PROJECTIVE = True

    def is_maximal(self) -> bool:
        """True when every projector is rank one, within the measure's ``tol``."""
        return bool(np.abs(np.trace(self._stack, axis1=1, axis2=2) - 1.0).max() <= self.tol)


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

    def __init__(
        self,
        apparatus_state: State,
        coupling,
        pointer: PvmMeasure,
        object_dim: int,
        *,
        tol: float = DEFAULT_TOL,
    ):
        self.apparatus_state = apparatus_state
        self.coupling = as_operator(coupling, name="coupling")
        self.pointer = pointer
        self.object_dim = int(object_dim)
        self.apparatus_dim = apparatus_state.dim
        self.tol = float(tol)

        if self.object_dim <= 0:
            raise ValidationError("object dimension must be positive")
        if pointer.dim != self.apparatus_dim:
            raise DimensionMismatchError(
                f"pointer acts on dimension {pointer.dim}, apparatus has {self.apparatus_dim}"
            )
        expected = self.object_dim * self.apparatus_dim
        if self.coupling.shape[0] != expected:
            raise DimensionMismatchError(
                f"coupling has dimension {self.coupling.shape[0]}, expected {expected}"
            )
        if not is_unitary(self.coupling, tol):
            raise ValidationError("coupling is not unitary within tolerance")


def _born_floor(probs: np.ndarray, tol: float) -> np.ndarray:
    """``probs`` once none is below ``-tol``, which validated inputs cannot produce; NaN fails."""
    if not probs.min() >= -tol:
        raise InternalConsistencyError(
            f"probability {probs.min():.3e} below -tol from validated inputs"
        )
    return probs


def born_probabilities(measure: PovmMeasure, rho: State) -> ProbabilityTable:
    """Outcome distribution ``p_k = Tr(rho M_k)`` of a measure on a state.

    The result is indexed like the measure (flat, or reshaped to its
    ``index_shape``) and carries the measure's outcome labels per axis.  It
    is checked at, and carries, ``max(measure.tol, rho.tol)``: a measure valid
    at its own tolerance (a marginal's is accumulated) yields its probabilities.

    Raises
    ------
    DimensionMismatchError
        If the state dimension differs from the measure dimension.
    InternalConsistencyError
        If any probability falls below ``-max(measure.tol, rho.tol)``, which
        signals corrupted inputs since validated measures and states cannot
        produce one.
    """
    if rho.dim != measure.dim:
        raise DimensionMismatchError(
            f"state dimension {rho.dim} does not match measure dimension {measure.dim}"
        )
    tol = max(measure.tol, rho.tol)
    probs = _born_floor(np.real(np.einsum("ij,kji->k", rho.matrix, measure.stack())), tol)
    if measure.index_shape is not None:
        probs = probs.reshape(measure.index_shape)
    return ProbabilityTable(probs, axis_labels=measure.axis_label_tuples(), tol=tol)


def povm_from_instrument(model: InstrumentModel) -> PovmMeasure:
    """Synthesize the object POVM realized by an instrument model.

    For each pointer element ``E`` the object-space element is the apparatus
    partial trace of ``(I (x) rho_a) U^dag (I (x) E) U``.  Probabilities of the
    returned measure on any object state agree with the full-space computation
    on the final object-apparatus state.  The model checked its coupling's
    unitarity at construction.
    """
    dims = (model.object_dim, model.apparatus_dim)
    identity = np.eye(model.object_dim)
    weighted = np.kron(identity, model.apparatus_state.matrix)
    u = model.coupling
    elements = []
    for pointer_element in model.pointer.elements:
        rotated = u.conj().T @ np.kron(identity, pointer_element) @ u
        element = partial_trace(weighted @ rotated, dims, keep=0)
        # Partial trace of a product of near-Hermitian factors carries
        # float-level asymmetry; symmetrize before validation.
        elements.append((element + element.conj().T) / 2.0)
    return PovmMeasure(
        elements,
        labels=model.pointer.labels,
        index_shape=model.pointer.index_shape,
        tol=model.tol,
    )


def is_complete(measure: PovmMeasure) -> bool:
    """True when the elements span the full operator space of their dimension.

    Elements are flattened to vectors and the rank is computed with singular
    values thresholded at ``measure.tol``; completeness requires rank ``d**2``.
    """
    d = measure.dim
    frame = measure.stack().reshape(measure.n_outcomes, d * d)
    rank = int(np.linalg.matrix_rank(frame, tol=measure.tol))
    return rank == d * d


def reconstruct_state(measure: PovmMeasure, probabilities: ProbabilityTable) -> State:
    """Recover the density operator from a complete measure's outcome distribution.

    Linear inversion on the flattened operator frame (least-squares
    pseudo-inverse) followed by Hermitization.  No positivity projection is
    applied: probabilities that fail to produce a density operator within the
    inputs' larger ``tol`` raise instead of being silently repaired.

    Raises
    ------
    IncompleteMeasureError
        If the measure does not span operator space.
    InfeasibleProbabilitiesError
        If the inverted matrix violates positivity or unit trace beyond
        tolerance, or cannot reproduce the given probabilities.
    """
    if not is_complete(measure):
        raise IncompleteMeasureError(
            "measure elements do not span operator space; inversion is underdetermined"
        )
    p = np.asarray(probabilities.values, dtype=float).reshape(-1)
    if p.size != measure.n_outcomes:
        raise DimensionMismatchError(
            f"{p.size} probabilities given for {measure.n_outcomes} outcomes"
        )
    d = measure.dim
    tol = max(measure.tol, probabilities.tol)
    # Tr(rho M) is linear in row-major vec(rho) with coefficient row vec(M^T).
    frame = np.swapaxes(measure.stack(), 1, 2).reshape(measure.n_outcomes, d * d)
    solution, *_ = np.linalg.lstsq(frame, p.astype(complex), rcond=None)
    rho = solution.reshape(d, d)
    rho = (rho + rho.conj().T) / 2.0

    residual = float(np.max(np.abs(frame @ rho.reshape(-1) - p)))
    if residual > RECONSTRUCTION_TOL:
        raise InfeasibleProbabilitiesError(
            f"probabilities are outside the measure's range (residual {residual:.3e})"
        )
    lowest = _lowest_eigenvalues(rho)
    if lowest < -tol:
        raise InfeasibleProbabilitiesError(
            f"inverted matrix fails positivity (eigenvalue {lowest:.3e})"
        )
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > max(tol, RECONSTRUCTION_TOL):
        raise InfeasibleProbabilitiesError(f"inverted matrix has trace {tr!r}")
    return State(rho, tol=max(tol, RECONSTRUCTION_TOL))
