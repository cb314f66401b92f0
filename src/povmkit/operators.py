"""Dense complex-matrix kernel: predicates, composition and density operators.

All operators are plain ``numpy`` arrays of shape ``(d, d)``; the helpers in
this module validate shape and algebraic properties under a configurable
tolerance.  Every value returned here is a read-only array, safe to share
between callers.  One Hermitian-defect and one lowest-eigenvalue kernel (closed
form for qubits) serve ``State``, the ``is_*`` predicates and the measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, ValidationError

#: Default tolerance for all algebraic predicates.  Matrices in this package
#: are at most 16 x 16, so double precision leaves ample headroom.
DEFAULT_TOL = 1e-9


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


def _hermitian_defect(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise ``|A - A^dag|`` and Hermitian part ``(A + A^dag) / 2`` of a (..., d, d) stack."""
    adjoint = stack.conj().swapaxes(-1, -2)
    return np.abs(stack - adjoint), (stack + adjoint) / 2.0


def _lowest_eigenvalues(hermitian: np.ndarray) -> np.ndarray:
    """Lowest eigenvalue of each matrix in a ``(..., d, d)`` Hermitian stack.

    Qubits take the closed form ``(a + d)/2 - hypot((a - d)/2, |b|)`` of
    ``[[a, b], [b*, d]]``, accurate to a few ulps of the matrix norm;
    every other dimension goes through ``eigvalsh``.
    """
    if hermitian.shape[-1] != 2:
        return np.linalg.eigvalsh(hermitian)[..., 0]
    a = hermitian[..., 0, 0].real
    d = hermitian[..., 1, 1].real
    return (a + d) / 2.0 - np.hypot((a - d) / 2.0, np.abs(hermitian[..., 0, 1]))


def is_hermitian(op, tol: float = DEFAULT_TOL) -> bool:
    """Return True when ``op`` equals its conjugate transpose within ``tol``."""
    return bool(_hermitian_defect(as_operator(op))[0].max() <= tol)


def is_positive(op, tol: float = DEFAULT_TOL) -> bool:
    """Return True when ``op`` is Hermitian within ``tol`` with spectrum >= -tol."""
    defect, hermitian = _hermitian_defect(as_operator(op))
    return bool(defect.max() <= tol and _lowest_eigenvalues(hermitian) >= -tol)


def is_projector(op, tol: float = DEFAULT_TOL) -> bool:
    """Return True when ``op`` is Hermitian and idempotent within ``tol``."""
    arr = as_operator(op)
    return bool(_hermitian_defect(arr)[0].max() <= tol and np.abs(arr @ arr - arr).max() <= tol)


def is_unitary(op, tol: float = DEFAULT_TOL) -> bool:
    """Return True when ``op.conj().T @ op`` is the identity within ``tol``."""
    arr = as_operator(op)
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


def partial_trace(op, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one tensor factor of a bipartite operator.

    Parameters
    ----------
    op : array_like
        Operator on a space of dimension ``dims[0] * dims[1]``.
    dims : (int, int)
        Dimensions of the two tensor factors.
    keep : int
        Index (0 or 1) of the subsystem to keep.

    Returns
    -------
    np.ndarray
        Operator on the kept subsystem; the full trace is preserved.
    """
    arr = as_operator(op)
    d0, d1 = int(dims[0]), int(dims[1])
    if d0 <= 0 or d1 <= 0 or d0 * d1 != arr.shape[0]:
        raise DimensionMismatchError(
            f"operator of dimension {arr.shape[0]} does not factor as {d0} x {d1}"
        )
    if keep not in (0, 1):
        raise DimensionMismatchError(f"keep must be 0 or 1, got {keep!r}")
    blocks = arr.reshape(d0, d1, d0, d1)
    if keep == 0:
        out = np.einsum("ijkj->ik", blocks)
    else:
        out = np.einsum("ijil->jl", blocks)
    out.setflags(write=False)
    return out


def trace_distance(a, b) -> float:
    """Trace distance ``0.5 * ||a - b||_1`` between two Hermitian operators."""
    left = a.matrix if isinstance(a, State) else as_operator(a)
    right = b.matrix if isinstance(b, State) else as_operator(b)
    if left.shape != right.shape:
        raise DimensionMismatchError("operands must share the same dimension")
    diff = (left - right + (left - right).conj().T) / 2.0
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


@dataclass(frozen=True)
class State:
    """Density operator: Hermitian, positive semidefinite, unit trace.

    Invariants are checked eagerly; an invalid state cannot exist as a value.
    """

    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        arr = as_operator(self.matrix, name="state")
        if not np.isfinite(arr).all():
            raise ValidationError("state has non-finite entries")
        defect, hermitian = _hermitian_defect(arr)
        if not defect.max() <= self.tol:
            raise ValidationError("state is not Hermitian within tolerance")
        lowest = _lowest_eigenvalues(hermitian)
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
    op_a = as_operator(a, name="A")
    op_b = as_operator(b, name="B")
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
