import numpy as np
import pytest

from povmkit import (
    DimensionMismatchError,
    State,
    ValidationError,
    commutator_bound,
    is_positive,
    is_projector,
    partial_trace,
    tensor,
    trace_distance,
)
from povmkit.sampling import random_density_matrix, random_hermitian, random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestPositivity:
    def test_identity_is_positive(self):
        assert is_positive(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        assert not is_positive(np.diag([1.0, -0.1]))

    def test_rank_one_absorber_element_is_positive(self):
        # 0.5 |v><v| with v = |+> + sqrt(a) |-> at a = 0.5: rank one, so
        # positive despite being singular.
        v = np.array([1.0, np.sqrt(0.5)])
        element = 0.5 * np.outer(v, v)
        assert is_positive(element)
        eigenvalues = np.linalg.eigvalsh(element)
        assert eigenvalues[0] == pytest.approx(0.0, abs=1e-12)

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatchError):
            is_positive(np.ones((2, 3)))

    def test_non_hermitian_is_not_positive(self):
        assert not is_positive(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestTensor:
    def test_identity_tensor_identity(self):
        assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_bookkeeping(self):
        result = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(result, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_trace_multiplicative(self, rng):
        for _ in range(25):
            a = random_hermitian(2, rng)
            b = random_hermitian(2, rng)
            lhs = np.trace(tensor(a, b))
            rhs = np.trace(a) * np.trace(b)
            assert abs(lhs - rhs) < 1e-12


class TestPartialTrace:
    def test_tensor_then_trace_oracle(self, rng):
        for _ in range(25):
            a = random_hermitian(2, rng)
            b = random_hermitian(2, rng)
            reduced = partial_trace(tensor(a, b), (2, 2), keep=0)
            assert np.max(np.abs(reduced - a * np.trace(b))) < 1e-12
            reduced = partial_trace(tensor(a, b), (2, 2), keep=1)
            assert np.max(np.abs(reduced - b * np.trace(a))) < 1e-12

    def test_identity(self):
        assert np.allclose(partial_trace(np.eye(4), (2, 2), keep=1), 2 * np.eye(2))

    def test_maximally_entangled_reduction(self):
        vec = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        rho = np.outer(vec, vec)
        reduced = partial_trace(rho, (2, 2), keep=0)
        assert np.max(np.abs(reduced - np.eye(2) / 2)) < 1e-12

    def test_linear_and_trace_preserving(self, rng):
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        s, t = rng.standard_normal(2)
        combined = partial_trace(s * a + t * b, (2, 2), keep=0)
        separate = s * partial_trace(a, (2, 2), 0) + t * partial_trace(b, (2, 2), 0)
        assert np.max(np.abs(combined - separate)) < 1e-12
        assert abs(np.trace(partial_trace(a, (2, 2), 1)) - np.trace(a)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(6), (2, 2), keep=0)


def test_projector_implies_positive(rng):
    for _ in range(20):
        u = random_unitary(3, rng)
        p = np.outer(u[:, 0], u[:, 0].conj()) + np.outer(u[:, 1], u[:, 1].conj())
        assert is_projector(p)
        assert is_positive(p)
        assert np.max(np.abs(p @ p - p)) <= 1e-9


def test_eigendecomposition_residual(rng):
    for _ in range(20):
        h = random_hermitian(4, rng)
        eigenvalues, vectors = np.linalg.eigh(h)
        residual = h @ vectors - vectors * eigenvalues
        assert np.max(np.abs(residual)) <= 1e-10


class TestState:
    def test_valid_states(self):
        State(np.eye(2) / 2)
        State.pure([1.0, 1.0])

    def test_trace_must_be_one(self):
        with pytest.raises(ValidationError):
            State(np.eye(2))

    def test_positivity_required(self):
        with pytest.raises(ValidationError):
            State(np.diag([1.5, -0.5]))

    def test_hermiticity_required(self):
        with pytest.raises(ValidationError):
            State(np.array([[0.5, 0.3], [0.0, 0.5]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "build",
        [
            lambda: State(np.full((2, 2), np.nan)),
            lambda: State(np.array([[np.inf, 0.0], [0.0, 0.0]])),
            lambda: State.pure([np.inf, 0.0]),
            lambda: State.pure([1.0, np.nan]),
        ],
        ids=["nan-matrix", "inf-matrix", "inf-vector", "nan-vector"],
    )
    def test_non_finite_entries_rejected_by_name(self, build):
        with pytest.raises(ValidationError, match="non-finite"):
            build()

    def test_trace_distance_of_orthogonal_pure_states(self):
        assert trace_distance(State.pure([1, 0]), State.pure([0, 1])) == pytest.approx(1.0)


class TestCommutatorBound:
    def test_equal_operators_trivial_bound(self, rng):
        a = random_hermitian(2, rng)
        result = commutator_bound(a, a, random_density_matrix(2, rng))
        assert result.bound == pytest.approx(0.0, abs=1e-12)
        assert result.product >= 0.0

    def test_pauli_pair_on_basis_state(self):
        # <sz> = 1 so the bound is 1; both deviations are exactly 1.
        result = commutator_bound(SX, SY, State.pure([1.0, 0.0]))
        assert result.bound == pytest.approx(1.0, abs=1e-12)
        assert result.product == pytest.approx(1.0, abs=1e-12)

    def test_commuting_diagonals(self, rng):
        a = np.diag(rng.standard_normal(3))
        b = np.diag(rng.standard_normal(3))
        result = commutator_bound(a, b, random_density_matrix(3, rng))
        assert result.bound == pytest.approx(0.0, abs=1e-12)

    def test_non_hermitian_rejected(self, rng):
        with pytest.raises(ValidationError):
            commutator_bound(np.array([[0, 1], [0, 0]]), SX, random_density_matrix(2, rng))

    def test_bound_holds_on_random_triples(self, rng):
        for _ in range(300):
            a = random_hermitian(2, rng)
            b = random_hermitian(2, rng)
            result = commutator_bound(a, b, random_density_matrix(2, rng))
            assert result.product >= result.bound - 1e-9
