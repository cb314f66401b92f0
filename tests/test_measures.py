import itertools

import numpy as np
import pytest

from povmkit import (
    DimensionMismatchError,
    IncompleteMeasureError,
    InfeasibleProbabilitiesError,
    InstrumentModel,
    PovmMeasure,
    ProbabilityTable,
    PvmMeasure,
    State,
    ValidationError,
    born_probabilities,
    is_complete,
    povm_from_instrument,
    reconstruct_state,
    tetrahedral_qubit_povm,
    trace_distance,
)
from povmkit.measures import _coerce_stack
from povmkit.srt import SrtConfig, srt_povm
from povmkit.sampling import (
    random_basis_pvm,
    random_density_matrix,
    random_pure_state,
    random_unitary,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def swap_gate() -> np.ndarray:
    gate = np.zeros((4, 4), dtype=complex)
    for i, j in itertools.product(range(2), range(2)):
        gate[j * 2 + i, i * 2 + j] = 1.0
    return gate


class TestMeasureValidation:
    def test_valid_povm(self):
        PovmMeasure([0.3 * np.eye(2), 0.7 * np.eye(2)])

    @pytest.mark.parametrize(
        "elements", [[[[10**400]]], [[["x"]]]], ids=["beyond-float-range", "not-a-number"]
    )
    def test_unreadable_element_raises_validation_error(self, elements):
        with pytest.raises(ValidationError, match="element 0 cannot be read"):
            PovmMeasure(elements)

    def test_coerced_stack_is_the_same_for_every_container(self):
        first, second = [[0.5, 0.25j], [-0.25j, 0.25]], [[0.5, 0.0], [0.0, 0.75]]
        want = np.stack([np.array(first, dtype=complex), np.array(second, dtype=complex)])
        inputs = {
            "list": [first, second],
            "tuple": (tuple(map(tuple, first)), tuple(map(tuple, second))),
            "ndarray": want.copy(),
            "mixed": [np.array(first, dtype=np.complex64), tuple(map(tuple, second))],
        }
        for kind, elements in inputs.items():
            stack = _coerce_stack(elements)
            assert stack.dtype == np.complex128, kind
            assert stack.tobytes() == want.tobytes(), kind
            assert stack.flags.writeable and stack.flags.owndata, kind
        assert not np.shares_memory(_coerce_stack(inputs["ndarray"]), inputs["ndarray"])

    def test_generator_of_elements_goes_element_by_element(self):
        # numpy cannot read a generator as a stack, so each element is coerced on its own.
        measure = PovmMeasure(element for element in (P0, P1))
        assert measure.stack().tobytes() == np.stack([P0, P1]).tobytes()

    def test_negative_element_rejected(self):
        with pytest.raises(ValidationError, match="not positive"):
            PovmMeasure([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])])

    def test_incomplete_sum_rejected(self):
        with pytest.raises(ValidationError, match="sum to identity"):
            PovmMeasure([0.5 * np.eye(2), 0.4 * np.eye(2)])

    def test_pvm_requires_projectors(self):
        with pytest.raises(ValidationError, match="projector"):
            PvmMeasure([0.5 * np.eye(2), 0.5 * np.eye(2)])

    def test_orthogonality_defect_reported(self):
        # Projector families summing to identity are automatically orthogonal,
        # so the overlap check is probed through the violation report.
        from povmkit import pvm_violations

        plus = np.full((2, 2), 0.5)
        report = pvm_violations([P0, plus])
        assert any("orthogonal" in line for line in report)
        assert any("identity" in line for line in report)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_element_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            PovmMeasure([np.full((2, 2), bad)])
        with pytest.raises(ValidationError, match="non-finite"):
            PvmMeasure([P0, np.where(P1 > 0, bad, 0.0)])

    def test_non_finite_element_reported(self):
        from povmkit import povm_violations

        report = povm_violations([np.full((2, 2), np.nan)])
        assert report[0] == "element 0 has non-finite entries"
        # The completeness defect is NaN, which no tolerance accepts.
        assert any("sum to identity" in line for line in report)

    def test_nan_tolerance_accepts_nothing(self):
        from povmkit import povm_violations

        assert povm_violations([P0, P1], tol=np.nan)

    def test_index_shape_must_match(self):
        with pytest.raises(ValidationError):
            PovmMeasure([np.eye(2)], index_shape=(2, 2))

    def test_labels_address_elements(self):
        measure = PovmMeasure([P0, P1], labels=("up", "down"))
        assert np.array_equal(measure.element("down"), P1)
        with pytest.raises(KeyError):
            measure.element("sideways")


class TestMarginal:
    def test_marginal_sums_elements(self):
        quarters = [0.25 * np.eye(2)] * 4
        measure = PovmMeasure(
            quarters,
            labels=(("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")),
            index_shape=(2, 2),
        )
        marg = measure.marginal(keep=0)
        assert marg.labels == ("a", "b")
        assert np.allclose(marg.elements[0], 0.5 * np.eye(2))

    def test_marginal_requires_multi_index(self):
        with pytest.raises(ValidationError):
            PovmMeasure([np.eye(2)]).marginal(keep=0)

    def test_marginal_of_a_valid_measure_at_the_tolerance_edge(self):
        # Each element's lowest eigenvalue is -eps, inside tol = 1e-9; summing
        # two of them gives -2 eps, which a re-check at tol would reject.
        eps = 0.9e-9
        low, high = 0.5 * P0 - eps * P1, (0.5 + eps) * P1
        measure = PovmMeasure([low, low, high, high], index_shape=(2, 2))
        marg = measure.marginal(keep=0)
        assert marg.labels == (0, 1)
        assert np.array_equal(marg.elements[0], 2.0 * low)
        assert np.array_equal(marg.elements[1], 2.0 * high)
        assert not marg.stack().flags.writeable

    def test_axis_labels_stored_per_axis(self):
        labels = tuple(itertools.product("ab", "xyz", "uv"))
        measure = PovmMeasure([np.eye(2) / 12] * 12, labels=labels, index_shape=(2, 3, 2))
        assert measure.axis_label_tuples() == (("a", "b"), ("x", "y", "z"), ("u", "v"))
        marg = measure.marginal(keep=(0, 2))
        assert marg.index_shape == (2, 2)
        assert marg.labels == (("a", "u"), ("a", "v"), ("b", "u"), ("b", "v"))
        assert marg.axis_label_tuples() == (("a", "b"), ("u", "v"))
        # Labels that are not one tuple entry per axis fall back to positions.
        flat = PovmMeasure([np.eye(2) / 4] * 4, labels="pqrs", index_shape=(2, 2))
        assert flat.axis_label_tuples() == ((0, 1), (0, 1))
        assert flat.marginal(keep=1).labels == (0, 1)


class TestBornRule:
    def test_single_element_identity(self, rng):
        measure = PovmMeasure([np.eye(3)])
        table = born_probabilities(measure, random_density_matrix(3, rng))
        assert table.values == pytest.approx([1.0])

    def test_basis_measurement_on_basis_state(self):
        measure = PvmMeasure([P0, P1])
        table = born_probabilities(measure, State.pure([1.0, 0.0]))
        assert table.values == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_absorber_povm_on_open_path_state(self):
        # With the neutron certain to take the open path, the absorber never
        # fires and the two detectors split the probability evenly.
        table = born_probabilities(srt_povm(SrtConfig(0.5)), State.pure([1.0, 0.0]))
        assert table.values == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            born_probabilities(PvmMeasure([P0, P1]), random_density_matrix(3, rng))

    def test_marginal_at_the_tolerance_edge_takes_both_routes(self):
        # Each marginal element sums two elements at eigenvalue -eps, so the
        # marginal carries tolerance 2 tol and its Born rule returns the
        # same -2 eps as the marginal of the Born table.
        eps = 0.9e-9
        low, high = 0.5 * P0 - eps * P1, (0.5 + eps) * P1
        measure = PovmMeasure([low, low, high, high], index_shape=(2, 2))
        marg = measure.marginal(keep=0)
        assert marg.tol == 2e-9
        rho = State.pure([0.0, 1.0])
        direct = born_probabilities(marg, rho)
        via_table = born_probabilities(measure, rho).marginal(keep=0)
        assert np.array_equal(direct.values, via_table.values)
        assert direct.values[0] == pytest.approx(-2 * eps, rel=1e-12)

    def test_measure_tolerance_bounds_the_negative_probability_guard(self):
        # Valid at its own tolerance of 1e-6, so a probability of -5e-7 is
        # inside what the measure promises, whatever the call's tol.
        measure = PovmMeasure([P0 - 5e-7 * P1, (1 + 5e-7) * P1], tol=1e-6)
        table = born_probabilities(measure, State.pure([0.0, 1.0]))
        assert table.values[0] == pytest.approx(-5e-7, rel=1e-12)
        assert table.tol == 1e-6

    def test_relabeling_invariance(self, rng):
        pvm = random_basis_pvm(3, rng)
        rho = random_density_matrix(3, rng)
        table = born_probabilities(pvm, rho)
        permutation = [2, 0, 1]
        permuted = PvmMeasure(
            [pvm.elements[k] for k in permutation],
            labels=tuple(pvm.labels[k] for k in permutation),
        )
        permuted_table = born_probabilities(permuted, rho)
        for new_index, old_index in enumerate(permutation):
            assert permuted_table.values[new_index] == pytest.approx(
                table.values[old_index], abs=1e-14
            )


class TestInstrumentModel:
    def test_non_unitary_coupling_rejected(self, rng):
        pointer = PvmMeasure([P0, P1])
        with pytest.raises(ValidationError, match="unitary"):
            InstrumentModel(
                random_density_matrix(2, rng), np.eye(4) * 1.5, pointer, object_dim=2
            )

    def test_trivial_coupling_gives_state_independent_povm(self, rng):
        pointer = PvmMeasure([P0, P1])
        apparatus = random_density_matrix(2, rng)
        povm = povm_from_instrument(
            InstrumentModel(apparatus, np.eye(4), pointer, object_dim=2)
        )
        for element, pointer_element in zip(povm.elements, pointer.elements):
            weight = np.real(np.trace(apparatus.matrix @ pointer_element))
            assert np.max(np.abs(element - weight * np.eye(2))) < 1e-12

    def test_swap_reads_out_object_basis(self, rng):
        pointer = PvmMeasure([P0, P1])
        povm = povm_from_instrument(
            InstrumentModel(random_density_matrix(2, rng), swap_gate(), pointer, object_dim=2)
        )
        assert np.max(np.abs(povm.elements[0] - P0)) < 1e-12
        assert np.max(np.abs(povm.elements[1] - P1)) < 1e-12

    def test_agrees_with_full_space_probabilities(self, rng):
        # Independent oracle: evolve object x apparatus, then measure the
        # pointer on the full space.
        worst = 0.0
        for _ in range(100):
            coupling = random_unitary(4, rng)
            apparatus = random_density_matrix(2, rng)
            pointer = random_basis_pvm(2, rng)
            model = InstrumentModel(apparatus, coupling, pointer, object_dim=2)
            povm = povm_from_instrument(model)
            rho = random_density_matrix(2, rng)
            final = coupling @ np.kron(rho.matrix, apparatus.matrix) @ coupling.conj().T
            from_povm = born_probabilities(povm, rho).values
            for k, pointer_element in enumerate(pointer.elements):
                full = np.real(np.trace(final @ np.kron(np.eye(2), pointer_element)))
                worst = max(worst, abs(full - from_povm[k]))
        assert worst < 1e-10

    def test_synthesized_povm_always_validates(self, rng):
        for _ in range(100):
            model = InstrumentModel(
                random_density_matrix(2, rng),
                random_unitary(4, rng),
                random_basis_pvm(2, rng),
                object_dim=2,
            )
            povm_from_instrument(model)  # construction validates


class TestCompleteness:
    def test_qubit_pvm_is_incomplete(self):
        assert not is_complete(PvmMeasure([P0, P1]))

    def test_tetrahedral_povm_is_complete(self):
        assert is_complete(tetrahedral_qubit_povm())

    def test_absorber_povm_spans_rank_three(self):
        measure = srt_povm(SrtConfig(0.5))
        frame = measure.stack().reshape(3, 4)
        assert np.linalg.matrix_rank(frame, tol=1e-9) == 3
        assert not is_complete(measure)


class TestReconstruction:
    def test_maximally_mixed_fixed_point(self):
        povm = tetrahedral_qubit_povm()
        rho = State.maximally_mixed(2)
        recovered = reconstruct_state(povm, born_probabilities(povm, rho))
        assert trace_distance(rho, recovered) < 1e-12

    def test_round_trip_random_states(self, rng):
        povm = tetrahedral_qubit_povm()
        for _ in range(50):
            rho = random_pure_state(2, rng) if rng.random() < 0.5 else random_density_matrix(2, rng)
            recovered = reconstruct_state(povm, born_probabilities(povm, rho))
            assert trace_distance(rho, recovered) < 1e-8

    def test_incomplete_measure_rejected(self, rng):
        pvm = PvmMeasure([P0, P1])
        with pytest.raises(IncompleteMeasureError):
            reconstruct_state(pvm, born_probabilities(pvm, random_density_matrix(2, rng)))

    def test_grossly_infeasible_probabilities_rejected(self):
        povm = tetrahedral_qubit_povm()
        skewed = ProbabilityTable([0.97, 0.01, 0.01, 0.01])
        with pytest.raises(InfeasibleProbabilitiesError):
            reconstruct_state(povm, skewed)

    def test_round_trip_with_random_rotated_frame(self, rng):
        base = tetrahedral_qubit_povm()
        u = random_unitary(2, rng)
        rotated = PovmMeasure([u @ e @ u.conj().T for e in base.elements])
        assert is_complete(rotated)
        rho = random_density_matrix(2, rng)
        recovered = reconstruct_state(rotated, born_probabilities(rotated, rho))
        assert trace_distance(rho, recovered) < 1e-8


def test_born_floor_rejects_nan_probabilities():
    # A corrupted state with NaN entries must fail the floor check, as a
    # negative probability does, in both Born kernels.
    from types import SimpleNamespace

    from povmkit import InternalConsistencyError
    from povmkit.aspect import _analyzer_stack, _born_products

    corrupted = SimpleNamespace(dim=2, tol=1e-9, matrix=np.diag([np.nan, 1.0]).astype(complex))
    with pytest.raises(InternalConsistencyError, match="probability nan below -tol"):
        born_probabilities(PovmMeasure([P0, P1]), corrupted)
    pvms = _analyzer_stack([0.0, 0.0], ("theta", "theta_p"), 1e-9)
    corrupted.dim, corrupted.matrix = 4, np.diag([np.nan, 0.5, 0.5, 0.0]).astype(complex)
    with pytest.raises(InternalConsistencyError, match="probability nan below -tol"):
        _born_products(corrupted, pvms[0], pvms[1], 1e-9)
