import itertools
import math
import re
import warnings

import numpy as np
import pytest

from povmkit import (
    AspectConfig,
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
    joint_probabilities,
    povm_from_instrument,
    reconstruct_state,
    standard_composite,
    tetrahedral_qubit_povm,
    trace_distance,
)
from povmkit import measures, serialize
from povmkit.measures import _coerce_stack, _stack_violations
from povmkit.srt import SrtConfig, path_pvm, srt_bivariate, srt_povm
from povmkit.sampling import (
    random_basis_pvm,
    random_density_matrix,
    random_pure_state,
    random_unitary,
)

from helpers import constructor_error, explicit_two_photon_tables, oracle_povm_from_instrument

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
#: The six-outcome Pauli POVM ``(I +- sigma_i) / 6``: an overcomplete frame for qubit operators.
PAULI_POVM = PovmMeasure([(np.eye(2) + sign * sigma) / 6.0 for sigma in PAULIS for sign in (1, -1)])


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

    @pytest.mark.parametrize("container", ["list", "tuple", "ndarray"])
    def test_square_stack_takes_the_whole_input_conversion(self, monkeypatch, container):
        # The element-by-element path calls as_operator; a square stack never reaches it.
        def refuse(*args, **kwargs):
            raise AssertionError("the per-element path ran")

        monkeypatch.setattr(measures, "as_operator", refuse)
        elements = {"list": [P0.tolist(), P1.tolist()],
                    "tuple": (tuple(map(tuple, P0)), tuple(map(tuple, P1))),
                    "ndarray": np.stack([P0, P1])}[container]
        assert PovmMeasure(elements).stack().tobytes() == np.stack([P0, P1]).tobytes()

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
        # The report checks its tol as the constructors do, so no tol can call 5 I valid.
        from povmkit import povm_violations, pvm_violations

        for report in (povm_violations, pvm_violations):
            for tol in (np.nan, np.inf, 0.0, -1.0):
                with pytest.raises(ValidationError, match=r"^tol must be a finite number greater "
                                   rf"than 0, got {re.escape(repr(tol))}$"):
                    report([5 * np.eye(2)], tol=tol)

    @pytest.mark.parametrize(
        ("elements", "expected"),
        [
            ([[[0, 1e308], [-1e308, 0]], np.eye(2)],
             ["element 0 is not Hermitian (defect inf)",
              "elements do not sum to identity (defect 1.000e+308)"]),
            ([np.diag([1e308, 0]), np.diag([-1e308, 1])],
             ["element 1 is not positive (eigenvalue -1.000e+308)",
              "elements do not sum to identity (defect 1.000e+00)"]),
        ],
        ids=["anti-hermitian", "diagonal"],
    )
    def test_entries_near_the_float_limit_raise_without_a_warning(self, elements, expected):
        # A - A^dag overflows on the first: the report reads inf, and numpy must not warn.
        from povmkit import povm_violations

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as caught:
                PovmMeasure(elements)
            assert str(caught.value) == "; ".join(expected)
            assert povm_violations(elements) == expected
            # Batched with a valid measure, only the overflowing one is reported.
            batch = np.array([elements, [P0, P1]], dtype=complex)
            assert _stack_violations(batch, 1e-9) == {(0,): expected}

    def test_index_shape_must_match(self):
        for index_shape in ((2, 2), (-1, -1), ("x",), 5):
            message = f"index_shape {index_shape} does not match 1 elements"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                PovmMeasure([np.eye(2)], index_shape=index_shape)

    def test_labels_address_elements(self):
        measure = PovmMeasure([P0, P1], labels=("up", "down"))
        assert np.array_equal(measure.element("down"), P1)
        with pytest.raises(KeyError):
            measure.element("sideways")


@pytest.mark.parametrize("field", ["elements", "labels", "index_shape", "tol", "dim", "n_outcomes"])
@pytest.mark.parametrize("build", [lambda: srt_bivariate(SrtConfig(0.5)), path_pvm], ids=["povm", "pvm"])
def test_measure_fields_cannot_be_reassigned(build, field):
    # A reassigned elements left stack() behind, and a reassigned tol moved what a
    # marginal carries; every field is read-only, and no new one can be added.
    measure = build()
    replacement = {"elements": (5 * np.eye(2), 0 * np.eye(2)), "labels": ("x", "y"),
                   "index_shape": (2, 1), "tol": 0.5, "dim": 3, "n_outcomes": 1}[field]
    with pytest.raises(AttributeError):
        setattr(measure, field, replacement)
    with pytest.raises(AttributeError):
        measure.extra = None
    recovered = serialize.measure_from_dict(serialize.measure_to_dict(measure),
                                            pvm=isinstance(measure, PvmMeasure))
    assert np.array_equal(recovered.stack(), measure.stack())
    assert measure.tol == 1e-9
    if measure.index_shape is not None:
        assert measure.marginal(0).tol == 2e-9


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

    def test_tuple_labels_off_the_product_grid_label_axes_by_position(self):
        # One entry per axis, but not the grid (a, b) x (x, y): reading axis
        # labels off them would name no "b", "d", "z" or "w".
        labels = (("a", "x"), ("b", "y"), ("c", "z"), ("d", "w"))
        measure = PovmMeasure([P0 / 2, P0 / 2, P1 / 2, P1 / 2], labels=labels, index_shape=(2, 2))
        assert measure.labels == labels
        assert measure.axis_label_tuples() == ((0, 1), (0, 1))
        table = born_probabilities(measure, State.pure([1.0, 0.0]))
        assert table.axis_labels == ((0, 1), (0, 1))
        assert measure.marginal((0, 1)).labels == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert measure.marginal(1).labels == (0, 1)


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
        # inside what the measure promises, whatever the call's tol.  The table
        # carries the derived d (tol_M + tol_rho).
        measure = PovmMeasure([P0 - 5e-7 * P1, (1 + 5e-7) * P1], tol=1e-6)
        table = born_probabilities(measure, State.pure([0.0, 1.0]))
        assert table.values[0] == pytest.approx(-5e-7, rel=1e-12)
        assert table.tol == 2 * (1e-6 + 1e-9)

    def test_a_table_of_edge_inputs_is_valid_at_the_tol_it_carries(self):
        # Measure and state each valid at 1e-9, with an entry -1.8e-9 in their Born table:
        # beyond the larger input tol, within the derived d (tol_M + tol_rho) = 4e-9.
        eps = 0.9e-9
        measure = PovmMeasure([np.diag([1.0, -eps]), np.diag([0.0, 1.0 + eps])])
        table = born_probabilities(measure, State(np.diag([-eps, 1.0 + eps])))
        assert table.values[0] == pytest.approx(-2 * eps, rel=1e-6)
        assert table.tol == 4e-9
        ProbabilityTable(table.values, tol=table.tol)

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

    def test_zero_object_dimension_rejected(self, rng):
        pointer = PvmMeasure([P0, P1])
        with pytest.raises(ValidationError, match="^object dimension must be a positive integer, got 0$"):
            InstrumentModel(random_density_matrix(2, rng), np.eye(2), pointer, object_dim=0)

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

    def test_contraction_equals_the_frozen_kron_route(self, rng):
        # Object and apparatus dimensions from 1 to 3; labels and tol carried over.
        for d_o, d_a in itertools.product(range(1, 4), repeat=2):
            for _ in range(10):
                model = InstrumentModel(random_density_matrix(d_a, rng), random_unitary(d_o * d_a, rng),
                                        random_basis_pvm(d_a, rng), object_dim=d_o)
                got, want = povm_from_instrument(model), oracle_povm_from_instrument(model)
                assert np.max(np.abs(got.stack() - want.stack())) <= 1e-15
                assert (got.labels, got.index_shape, got.tol) == (want.labels, want.index_shape, want.tol)

    def test_synthesized_povm_always_validates(self, rng):
        for _ in range(100):
            model = InstrumentModel(
                random_density_matrix(2, rng),
                random_unitary(4, rng),
                random_basis_pvm(2, rng),
                object_dim=2,
            )
            povm_from_instrument(model)  # construction validates

    @pytest.mark.parametrize("field", ["apparatus_state", "coupling", "pointer", "object_dim", "tol",
                                       "apparatus_dim"])
    def test_fields_cannot_be_reassigned(self, rng, field):
        # A pointer reassigned to a qutrit PVM made povm_from_instrument raise a builtin
        # ValueError, and a reassigned tol of NaN was accepted; every field is read-only.
        model = InstrumentModel(random_density_matrix(2, rng), np.eye(4), PvmMeasure([P0, P1]), object_dim=2)
        replacement = {"apparatus_state": random_density_matrix(3, rng), "coupling": np.eye(6),
                       "pointer": PvmMeasure(np.eye(3)[:, None, :] * np.eye(3)[:, :, None]),
                       "object_dim": 3, "tol": float("nan"), "apparatus_dim": 3}[field]
        with pytest.raises(AttributeError):
            setattr(model, field, replacement)
        with pytest.raises(AttributeError):
            model.extra = 1
        assert povm_from_instrument(model).dim == 2

    def test_dimension_errors_name_both_dimensions(self, rng):
        qutrit = PvmMeasure(np.eye(3)[:, None, :] * np.eye(3)[:, :, None])
        with pytest.raises(DimensionMismatchError, match=r"^pointer acts on dimension 3, apparatus has 2$"):
            InstrumentModel(random_density_matrix(2, rng), np.eye(4), qutrit, object_dim=2)
        with pytest.raises(DimensionMismatchError, match=r"^coupling has dimension 6, expected 4$"):
            InstrumentModel(random_density_matrix(2, rng), np.eye(6), PvmMeasure([P0, P1]), object_dim=2)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf")])
    def test_tol_is_checked_first(self, rng, tol):
        # A qutrit pointer on a qubit apparatus and a zero object dimension fail later checks.
        qutrit = PvmMeasure(np.eye(3)[:, None, :] * np.eye(3)[:, :, None])
        with pytest.raises(ValidationError, match=f"^tol must be a finite number greater than 0, got {tol!r}$"):
            InstrumentModel(random_density_matrix(2, rng), np.eye(5), qutrit, object_dim=0, tol=tol)


class TestCompleteness:
    def test_qubit_pvm_is_incomplete(self):
        assert not is_complete(PvmMeasure([P0, P1]))

    def test_tetrahedral_povm_is_complete(self):
        assert is_complete(tetrahedral_qubit_povm())

    def test_tetrahedral_povm_has_its_documented_bloch_vectors(self):
        # E_k = (I + n_k . sigma) / 4, so Tr(E_k sigma_i) = n_k[i] / 2.
        bloch = 2.0 * np.real(np.einsum("kab,iba->ki", tetrahedral_qubit_povm().stack(), PAULIS))
        signs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
        assert np.max(np.abs(bloch - signs / np.sqrt(3.0))) < 1e-12

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

    def test_the_state_carries_the_derived_bound(self, rng):
        # sqrt(d K) (tol_p + d tol_M / 2) / s_min, with the tetrahedral frame's s_min = 1 / sqrt(6).
        povm = tetrahedral_qubit_povm()
        table = born_probabilities(povm, random_density_matrix(2, rng))
        assert table.tol == 4e-9
        want = math.sqrt(2 * 4) * (4e-9 + 2 * 1e-9 / 2) * math.sqrt(6.0)
        assert reconstruct_state(povm, table).tol == pytest.approx(want, rel=1e-12)

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

    def test_overcomplete_frame_rejects_a_table_outside_its_range(self):
        # K = 6 > d**2 = 4: each +-pair of a Pauli POVM sums to 1/3 on every state.
        with pytest.raises(InfeasibleProbabilitiesError, match="outside the measure's range"):
            reconstruct_state(PAULI_POVM, ProbabilityTable([0.2, 0.2, 0.1, 0.1, 0.2, 0.2]))

    def test_overcomplete_frame_round_trip(self, rng):
        rho = random_density_matrix(2, rng)
        recovered = reconstruct_state(PAULI_POVM, born_probabilities(PAULI_POVM, rho))
        assert trace_distance(rho, recovered) < 1e-12
        State(recovered.matrix, tol=recovered.tol)

    def test_one_svd_per_reconstruction(self, rng, monkeypatch):
        calls = []

        def spy(name, kernel):
            def counted(*args, **kwargs):
                calls.append(name)
                return kernel(*args, **kwargs)
            return counted

        for name in ("svd", "matrix_rank", "lstsq", "pinv"):
            monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        povm = tetrahedral_qubit_povm()
        table = born_probabilities(povm, random_density_matrix(2, rng))
        calls.clear()
        reconstruct_state(povm, table)
        assert calls == ["svd"]

    def test_round_trip_with_random_rotated_frame(self, rng):
        base = tetrahedral_qubit_povm()
        u = random_unitary(2, rng)
        rotated = PovmMeasure([u @ e @ u.conj().T for e in base.elements])
        assert is_complete(rotated)
        rho = random_density_matrix(2, rng)
        recovered = reconstruct_state(rotated, born_probabilities(rotated, rho))
        assert trace_distance(rho, recovered) < 1e-8


def test_born_rule_rejects_nan_as_the_table_constructor():
    # A corrupted state with a NaN entry fails the one table check of each Born
    # kernel, with the error the constructor raises on the same values.
    from types import SimpleNamespace

    corrupted = SimpleNamespace(dim=2, tol=1e-9, matrix=np.diag([np.nan, 1.0]).astype(complex))
    measure = PovmMeasure([P0, P1])
    with pytest.raises(ValidationError) as born:
        born_probabilities(measure, corrupted)
    want = [[np.real(np.trace(corrupted.matrix @ e)) for e in measure.elements]]
    assert str(born.value) == constructor_error(want) == "probability table has non-finite entries"

    angles = (0.0, 0.3, 0.0, 0.3)
    corrupted.dim, corrupted.matrix = 4, np.diag([np.nan, 0.5, 0.5, 0.0]).astype(complex)
    with pytest.raises(ValidationError) as composite:
        standard_composite(*angles, state=corrupted)
    assert str(composite.value) == constructor_error(explicit_two_photon_tables(corrupted, angles))
    with pytest.raises(ValidationError) as joint:
        joint_probabilities(AspectConfig(0.5, 0.5, *angles, state=corrupted))
    want = explicit_two_photon_tables(corrupted, angles, (0.5, 0.5))
    assert str(joint.value) == constructor_error(want) == "probability table has non-finite entries"
