"""Dense complex-matrix kernel: predicates, composition and density operators.

All operators are plain ``numpy`` arrays of shape ``(d, d)``; the helpers in
this module validate shape and algebraic properties under a configurable
tolerance.  Every value returned here is a read-only array, safe to share
between callers.  One Hermitian-defect and one lowest-eigenvalue kernel (closed
form for qubits) serve ``State``, the ``is_*`` predicates and the measures.
``_checked_tol``, ``_checked_unit``, ``_checked_finite``, ``_checked_labels`` and ``_checked_dim`` are the
one check of a raw ``tol``, weight in [0, 1], angle or phase, label sequence and dimension.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, ValidationError

#: Default tolerance for all algebraic predicates.  Matrices in this package
#: are at most 16 x 16, so double precision leaves ample headroom.
DEFAULT_TOL = 1e-9


def _checked_tol(tol) -> float:
    """``tol`` as a float in (0, inf); anything else, a non-number included, raises ValidationError.

    A zero, negative, infinite or NaN ``tol`` would let every check pass or fail
    whatever its input, so each value built from raw input checks its ``tol`` first.
    """
    try:
        if 0.0 < (number := float(tol)) < np.inf:
            return number
    except (OverflowError, TypeError, ValueError):
        pass
    raise ValidationError(f"tol must be a finite number greater than 0, got {tol!r}")


def _checked_unit(value, name: str) -> float:
    """``value`` as a float in [0, 1]; anything else, a non-number included, raises ValidationError."""
    try:
        if 0.0 <= (number := float(value)) <= 1.0:
            return number
    except (OverflowError, TypeError, ValueError):
        number = value
    raise ValidationError(f"{name} must lie in [0, 1], got {number!r}")


def _checked_finite(value, name: str) -> float:
    """``value`` as a finite float; anything else, a non-number included, raises ValidationError."""
    try:
        if -np.inf < (number := float(value)) < np.inf:
            return number
    except (OverflowError, TypeError, ValueError):
        number = value
    raise ValidationError(f"{name} is non-finite: {number!r}")


def _checked_labels(labels, size: int, message: str) -> tuple:
    """``labels`` as a tuple of ``size`` hashables; anything else raises ValidationError(message)."""
    try:
        if len(checked := tuple(labels)) == size and hash(checked) is not None:  # hash each label
            return checked
    except TypeError:  # not iterable, or a label is unhashable
        pass
    raise ValidationError(message)


def _checked_dim(value, name: str) -> int:
    """``value`` as a positive int read by ``operator.index``; a bool or anything else raises ValidationError."""
    try:
        if not isinstance(value, bool) and (number := operator.index(value)) > 0:
            return number
    except TypeError:
        pass
    raise ValidationError(f"{name} must be a positive integer, got {value!r}")


def _as_array(values, dtype, what: str) -> np.ndarray:
    """A fresh ``dtype`` array of ``values``; input numpy cannot convert raises ValidationError.

    Complex input to a real ``dtype`` raises too, rather than losing its imaginary part.
    """
    try:
        if dtype is not complex and np.iscomplexobj(values):
            raise TypeError("complex entries")
        return np.array(values, dtype=dtype)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"{what} cannot be read as a {dtype.__name__} array: {exc}") from None


def as_operator(matrix, *, name: str = "operator") -> np.ndarray:
    """Coerce ``matrix`` to a read-only square complex array.

    Parameters
    ----------
    matrix : array_like
        Square matrix of real or complex entries.
    name : str
        Label used in error messages.

    Returns
    -------
    np.ndarray
        A frozen ``complex128`` copy of the input.

    Raises
    ------
    ValidationError
        If an entry is not a number, or one beyond the float range.
    DimensionMismatchError
        If the input is not a non-empty square 2-D matrix.
    """
    arr = _as_array(matrix, complex, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimensionMismatchError(
            f"{name} must be a non-empty square matrix, got shape {arr.shape}"
        )
    arr.setflags(write=False)
    return arr


def _hermitian_defect(stack: np.ndarray) -> np.ndarray:
    """Entrywise ``|A - A^dag|`` of a ``(..., d, d)`` stack."""
    return np.abs(stack - stack.conj().swapaxes(-1, -2))


def _lowest_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of the Hermitian part of each matrix in a ``(..., d, d)`` stack.

    The stack is halved before ``A / 2 + A^dag / 2`` is summed, so the
    Hermitian part is formed without overflow.  Qubits take the closed form
    ``(a + d)/2 - hypot((a - d)/2, |b|)`` of ``[[a, b], [b*, d]]``, accurate
    to a few ulps of the matrix norm; every other dimension goes through ``eigvalsh``.
    """
    half = stack * 0.5
    if stack.shape[-1] != 2:
        return np.linalg.eigvalsh(half + half.conj().swapaxes(-1, -2))[..., 0]
    a, d = half[..., 0, 0].real, half[..., 1, 1].real
    return a + d - np.hypot(a - d, np.abs(half[..., 0, 1] + half[..., 1, 0].conj()))


def is_hermitian(op, tol: float = DEFAULT_TOL) -> bool:
    """Return True when ``op`` is finite and equals its conjugate transpose within ``tol``."""
    tol = _checked_tol(tol)
    arr = as_operator(op)
    with np.errstate(over="ignore"):  # a defect beyond the float range reads as inf
        return bool(np.isfinite(arr).all() and _hermitian_defect(arr).max() <= tol)


def is_positive(op, tol: float = DEFAULT_TOL) -> bool:
    """Return True when ``op`` is finite and Hermitian within ``tol`` with spectrum >= -tol."""
    tol, arr = _checked_tol(tol), as_operator(op)
    with np.errstate(over="ignore"):  # an eigenvalue below the float range reads as -inf
        return is_hermitian(arr, tol) and bool(_lowest_eigenvalues(arr) >= -tol)


def is_projector(op, tol: float = DEFAULT_TOL) -> bool:
    """Return True when ``op`` is finite, Hermitian and idempotent within ``tol``."""
    tol, arr = _checked_tol(tol), as_operator(op)
    with np.errstate(over="ignore", invalid="ignore"):  # a square beyond float range: inf or nan
        return is_hermitian(arr, tol) and bool(np.abs(arr @ arr - arr).max() <= tol)


def is_unitary(op, tol: float = DEFAULT_TOL) -> bool:
    """Return True when ``op.conj().T @ op`` is the identity within ``tol``."""
    tol = _checked_tol(tol)
    arr = as_operator(op)
    with np.errstate(over="ignore", invalid="ignore"):  # a product beyond float range: inf or nan
        gram = arr.conj().T @ arr
        return bool(np.max(np.abs(gram - np.eye(arr.shape[0]))) <= tol)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two square operators.

    The result acts on the composite space and satisfies
    ``trace(tensor(a, b)) == trace(a) * trace(b)``.
    """
    left = as_operator(a, name="left factor")
    right = as_operator(b, name="right factor")
    out = np.kron(left, right)
    out.setflags(write=False)
    return out


def trace_distance(a, b) -> float:
    """Trace distance ``0.5 * ||a - b||_1`` between two Hermitian operators."""
    left = a.matrix if isinstance(a, State) else as_operator(a)
    right = b.matrix if isinstance(b, State) else as_operator(b)
    if left.shape != right.shape:
        raise DimensionMismatchError("operands must share the same dimension")
    if not (np.isfinite(left).all() and np.isfinite(right).all()):
        raise ValidationError("trace distance operands have non-finite entries")
    diff = (left - right + (left - right).conj().T) / 2.0
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


@dataclass(frozen=True, eq=False)
class State:
    """Density operator: Hermitian, positive semidefinite, unit trace.

    Invariants are checked eagerly; an invalid state cannot exist as a value.
    A state compares and hashes by identity: its array field has no truth value.
    """

    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "tol", _checked_tol(self.tol))
        arr = as_operator(self.matrix, name="state")
        if not np.isfinite(arr).all():
            raise ValidationError("state has non-finite entries")
        with np.errstate(over="ignore"):  # beyond the float range, each check reads +-inf
            if not _hermitian_defect(arr).max() <= self.tol:
                raise ValidationError("state is not Hermitian within tolerance")
            lowest = _lowest_eigenvalues(arr)
            if lowest < -self.tol:
                raise ValidationError(f"state has negative eigenvalue {lowest:.3e}")
            tr = complex(np.trace(arr))
        if abs(tr - 1.0) > self.tol:
            raise ValidationError(f"state trace {tr} differs from 1")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, vector, tol: float = DEFAULT_TOL) -> "State":
        """Build the projector state ``|v><v| / <v|v>`` from a state vector."""
        vec = _as_array(vector, complex, "state vector").reshape(-1)
        if not np.isfinite(vec).all():
            raise ValidationError("state vector has non-finite entries")
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValidationError("cannot normalize the zero vector")
        vec = vec / norm
        return cls(np.outer(vec, vec.conj()), tol=tol)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "State":
        dim = _checked_dim(dim, "dimension")
        return cls(np.eye(dim) / dim)

    def expectation(self, op) -> float:
        """Real expectation value ``Tr(rho A)`` of a Hermitian operator."""
        arr = as_operator(op)
        if arr.shape != self.matrix.shape:
            raise DimensionMismatchError("observable dimension does not match state")
        return float(np.real(np.trace(self.matrix @ arr)))


class UncertaintyComparison(NamedTuple):
    """Standard-deviation product and its commutator lower bound."""

    product: float
    bound: float


def commutator_bound(a, b, rho: State, tol: float = DEFAULT_TOL) -> UncertaintyComparison:
    """Uncertainty product of two Hermitian operators against its commutator bound.

    Returns the pair ``(dA * dB, 0.5 * |Tr rho [A, B]|)`` and checks the
    defining inequality ``dA * dB >= bound - tol`` before returning.

    Raises
    ------
    ValidationError
        If either operator fails the Hermiticity check.
    DimensionMismatchError
        If dimensions are incompatible with the state.
    """
    tol, op_a, op_b = _checked_tol(tol), as_operator(a, name="A"), as_operator(b, name="B")
    if not is_hermitian(op_a, tol) or not is_hermitian(op_b, tol):
        raise ValidationError("commutator_bound requires Hermitian operators")
    if op_a.shape != op_b.shape or op_a.shape != rho.matrix.shape:
        raise DimensionMismatchError("operators and state must share one dimension")

    var_a = rho.expectation(op_a @ op_a) - rho.expectation(op_a) ** 2
    var_b = rho.expectation(op_b @ op_b) - rho.expectation(op_b) ** 2
    product = float(np.sqrt(max(var_a, 0.0)) * np.sqrt(max(var_b, 0.0)))

    commutator = op_a @ op_b - op_b @ op_a
    bound = float(0.5 * abs(np.trace(rho.matrix @ commutator)))

    if product < bound - tol:
        raise ValidationError(
            f"uncertainty product {product:.3e} fell below its bound {bound:.3e}; "
            "inputs violate the operator preconditions"
        )
    return UncertaintyComparison(product=product, bound=bound)
