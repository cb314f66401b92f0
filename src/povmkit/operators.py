"""Dense complex-matrix kernel: predicates, composition and density operators.

All operators are plain ``numpy`` arrays of shape ``(d, d)``; the helpers in
this module validate shape and algebraic properties under a configurable
tolerance.  Every value returned here is a read-only array, safe to share
between callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, ValidationError

#: Default tolerance for all algebraic predicates.  Matrices in this package
#: are at most 16 x 16, so double precision leaves ample headroom.
DEFAULT_TOL = 1e-9


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
    DimensionMismatchError
        If the input is not a non-empty square 2-D matrix.
    """
    arr = np.array(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimensionMismatchError(
            f"{name} must be a non-empty square matrix, got shape {arr.shape}"
        )
    arr.setflags(write=False)
    return arr


def is_hermitian(op, tol: float = DEFAULT_TOL) -> bool:
    """Return True when ``op`` equals its conjugate transpose within ``tol``."""
    arr = as_operator(op)
    return bool(np.max(np.abs(arr - arr.conj().T)) <= tol)


def is_positive(op, tol: float = DEFAULT_TOL) -> bool:
    """Return True when ``op`` is Hermitian within ``tol`` with spectrum >= -tol.

    Positivity is decided through the Hermitian eigendecomposition so that
    rank-deficient elements (rank-one POVM elements, the zero operator) are
    handled uniformly.
    """
    arr = as_operator(op)
    if not is_hermitian(arr, tol):
        return False
    eigenvalues = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)
    return bool(eigenvalues[0] >= -tol)


def is_projector(op, tol: float = DEFAULT_TOL) -> bool:
    """Return True when ``op`` is Hermitian and idempotent within ``tol``."""
    arr = as_operator(op)
    if not is_hermitian(arr, tol):
        return False
    return bool(np.max(np.abs(arr @ arr - arr)) <= tol)


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
        if not is_hermitian(arr, self.tol):
            raise ValidationError("state is not Hermitian within tolerance")
        eigenvalues = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)
        if eigenvalues[0] < -self.tol:
            raise ValidationError(
                f"state has negative eigenvalue {eigenvalues[0]:.3e}"
            )
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
        vec = np.asarray(vector, dtype=complex).reshape(-1)
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
