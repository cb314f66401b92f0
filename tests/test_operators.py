import dataclasses
import math
import re
from decimal import Decimal

import numpy as np
import pytest

from povmkit import (
    AspectConfig,
    DimensionMismatchError,
    InstrumentModel,
    MarginalSet,
    NonidealityMatrix,
    PovmMeasure,
    ProbabilityTable,
    SrtConfig,
    State,
    ValidationError,
    apply_nonideality,
    arm_povm,
    bell_state,
    commutator_bound,
    interference_nonideality_entropy,
    interference_nonideality_matrix,
    interference_pvm,
    is_hermitian,
    is_positive,
    is_projector,
    is_unitary,
    joint_probabilities,
    nonideality_entropy,
    path_nonideality_entropy,
    path_nonideality_matrix,
    path_pvm,
    polarization_pvm,
    povm_violations,
    srt_bivariate,
    standard_composite,
    tensor,
    trace_distance,
    tradeoff_sweep,
)
from povmkit import aspect, serialize
from povmkit.sampling import (mix_marginals, pr_box_marginals, random_basis_pvm, random_density_matrix,
                              random_hermitian, random_pure_state, random_unitary)

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

    def test_entries_near_the_float_limit_do_not_overflow(self):
        # A + A^dag overflows at 1e308; the stack is halved before the sum.
        assert is_hermitian(np.diag([1e308, 1e308]))
        assert is_positive(np.diag([1e308, 1e308]))
        assert is_positive(np.full((2, 2), 1e308))
        assert not is_positive(np.diag([-1e308, 1.0]))
        # Beyond qubits the Hermitian part goes to eigvalsh.
        assert is_positive(np.diag([1e308, 1e308, 1e308]))
        assert not is_positive(np.diag([1e308, -1e308, 1.0]))
        # A - A^dag, and here the lowest eigenvalue, lie beyond the float range: inf, no warning.
        assert not is_hermitian([[0, 1e308], [-1e308, 0]])
        assert not is_positive([[1.7e308, 1.7e308], [1.7e308, -1.7e308]])
        # Its square holds inf - inf here: a nan defect is not a projector, and numpy is silent.
        assert not is_projector([[1e300, 1e300], [1e300, -1e300]])
        assert not is_unitary([[1e300, 1e300], [1e300, -1e300]])


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

    @pytest.mark.parametrize(
        ("matrix", "message"),
        [
            (np.diag([1e308, 0.0]), r"state trace \(1e\+308\+0j\) differs from 1"),
            (np.diag([-1e308, 1.0]), "state has negative eigenvalue -1.000e\\+308"),
            (np.diag([1e308, 1e308]), r"state trace \(inf\+0j\) differs from 1"),
            ([[0, 1e308], [-1e308, 0]], "state is not Hermitian within tolerance"),
            ([[1.7e308, 1.7e308], [1.7e308, -1.7e308]], "state has negative eigenvalue -inf"),
        ],
        ids=["trace", "negative", "trace-beyond-range", "defect-beyond-range",
             "eigenvalue-beyond-range"],
    )
    def test_entries_near_the_float_limit_raise_without_a_warning(self, matrix, message):
        with pytest.raises(ValidationError, match=message):
            State(matrix)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: State([[10**400]]),
            lambda: State.pure([10**400, 0]),
            lambda: State.pure(["x", 1]),
        ],
        ids=["matrix-beyond-float-range", "vector-beyond-float-range", "vector-not-a-number"],
    )
    def test_unreadable_entries_raise_validation_error(self, build):
        with pytest.raises(ValidationError, match="cannot be read as a complex array"):
            build()

    def test_trace_distance_of_orthogonal_pure_states(self):
        assert trace_distance(State.pure([1, 0]), State.pure([0, 1])) == pytest.approx(1.0)


class TestCommutatorBound:
    def test_equal_operators_trivial_bound(self, rng):
        a = random_hermitian(2, rng)
        rho = random_density_matrix(2, rng)
        result = commutator_bound(a, a, rho)
        assert result.bound == pytest.approx(0.0, abs=1e-12)
        # The product of equal deviations is the variance <A^2> - <A>^2.
        assert result.product == pytest.approx(rho.expectation(a @ a) - rho.expectation(a) ** 2)

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


#: Every place a ``tol`` given with raw input is checked, each called on valid input,
#: so the ``tol`` is the only thing that can be wrong.
TOL_ENTRY_POINTS = {
    "State": lambda tol: State(np.eye(2) / 2, tol=tol),
    "PovmMeasure": lambda tol: PovmMeasure([np.eye(2)], tol=tol),
    "ProbabilityTable": lambda tol: ProbabilityTable([0.5, 0.5], tol=tol),
    "MarginalSet": lambda tol: MarginalSet(*[ProbabilityTable(np.full((2, 2), 0.25))] * 4, tol=tol),
    "NonidealityMatrix": lambda tol: NonidealityMatrix(np.eye(2), tol=tol),
    "is_hermitian": lambda tol: is_hermitian(np.eye(2), tol),
    "is_positive": lambda tol: is_positive(np.eye(2), tol),
    "is_projector": lambda tol: is_projector(np.eye(2), tol),
    "is_unitary": lambda tol: is_unitary(np.eye(2), tol),
    "arm_povm": lambda tol: arm_povm(0.5, 0.0, 0.0, tol),
    "standard_composite": lambda tol: standard_composite(0.0, 0.0, 0.0, 0.0, state=bell_state(), tol=tol),
    "joint_probabilities": lambda tol: joint_probabilities(
        AspectConfig(0.5, 0.5, 0.0, 0.0, 0.0, 0.0, state=bell_state()), tol=tol),
    # Builders that reach one of the checks above.
    "bell_state": bell_state,
    "commutator_bound": lambda tol: commutator_bound(SX, SZ, State(np.eye(2) / 2), tol),
    "apply_nonideality": lambda tol: apply_nonideality(path_pvm(), np.eye(2), tol=tol),
    "pr_box_marginals": pr_box_marginals,
    "srt_bivariate": lambda tol: srt_bivariate(SrtConfig(0.3), tol),
    "tradeoff_sweep": lambda tol: tradeoff_sweep([0.0, 0.5, 1.0], tol=tol),
}


@pytest.mark.parametrize("name", sorted(TOL_ENTRY_POINTS))
def test_a_tol_must_be_finite_and_greater_than_zero(name):
    build = TOL_ENTRY_POINTS[name]
    build(1e-9)
    for tol in (0.0, -0.0, -1.0, math.inf, -math.inf, math.nan, "x", None, 1j):
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(f'tol must be a finite number greater than 0, got {tol!r}')}$"):
            build(tol)


def _snapshot(value):
    """A comparable image of a result: arrays as dtype, shape and bytes, values field by field."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return type(value), tuple(map(_snapshot, value))
    if dataclasses.is_dataclass(value):
        return type(value), tuple(_snapshot(getattr(value, f.name)) for f in dataclasses.fields(value))
    slots = [slot for cls in type(value).__mro__ for slot in getattr(cls, "__slots__", ())]
    if slots:
        return type(value), tuple(_snapshot(getattr(value, slot)) for slot in slots)
    return type(value), value


@pytest.mark.parametrize("name", sorted(TOL_ENTRY_POINTS))
@pytest.mark.parametrize("tol", ["1e-9", np.float64(1e-9), Decimal("1e-9")], ids=["str", "float64", "Decimal"])
def test_a_tol_is_read_once_as_a_float(name, tol):
    # Each entry reads its tol once and computes with the float only: the result equals
    # the float call's field by field, and so every tol it carries is the float 1e-9.
    build = TOL_ENTRY_POINTS[name]
    assert _snapshot(build(tol)) == _snapshot(build(1e-9))


def test_the_private_two_photon_builders_read_no_tol(monkeypatch):
    # arm_povm, joint_probabilities and standard_composite each read tol once and
    # hand the analyzer builders the checked float.
    calls = []

    def spy(tol):
        calls.append(tol)
        return check(tol)

    check = aspect._checked_tol
    monkeypatch.setattr(aspect, "_checked_tol", spy)
    aspect._analyzer_stack([0.1, 0.2], ("theta", "theta_p"), 1e-9)
    aspect._analyzer_pairs(bell_state(), [0.1, 0.2, 0.3, 0.4], 1e-9)
    assert calls == []
    arm_povm(0.5, 0.1, 0.2, "1e-9")
    joint_probabilities(_config(), "1e-9")
    standard_composite(0.1, 0.2, 0.3, 0.4, state=bell_state(), tol="1e-9")
    assert calls == ["1e-9"] * 3


def test_an_infinite_tol_no_longer_passes_invalid_values():
    # Each of these was accepted, or True, with tol=inf.
    for build in (lambda: PovmMeasure([5 * np.eye(2)], tol=math.inf),
                  lambda: ProbabilityTable([[-5.0, 6.0]], tol=math.inf),
                  lambda: State(np.diag([3.0, -2.0]), tol=math.inf),
                  lambda: is_positive(np.diag([1.0, -7.0]), tol=math.inf)):
        with pytest.raises(ValidationError, match="^tol must be a finite number greater than 0, got inf$"):
            build()


def _config(gamma1=0.5, gamma2=0.5, theta1=0.1, theta1p=0.2, theta2=0.3, theta2p=0.4, state=None):
    return AspectConfig(gamma1, gamma2, theta1, theta1p, theta2, theta2p,
                        state=bell_state() if state is None else state)


#: Every public entry that takes a raw weight in [0, 1]: the parameter's name in the
#: message, and a build from one raw value.
WEIGHT_ENTRY_POINTS = {
    "SrtConfig(absorber)": ("absorber transmissivity", lambda v: SrtConfig(v)),
    "path_nonideality_matrix": ("absorber transmissivity", path_nonideality_matrix),
    "interference_nonideality_matrix": ("absorber transmissivity", interference_nonideality_matrix),
    "path_nonideality_entropy": ("absorber transmissivity", path_nonideality_entropy),
    "interference_nonideality_entropy": ("absorber transmissivity", interference_nonideality_entropy),
    "AspectConfig(gamma1)": ("gamma1", lambda v: _config(gamma1=v)),
    "AspectConfig(gamma2)": ("gamma2", lambda v: _config(gamma2=v)),
    "arm_povm(gamma)": ("mirror transmissivity", lambda v: arm_povm(v, 0.1, 0.2)),
    "mix_marginals(weight)": ("mixing weight", lambda v: mix_marginals(pr_box_marginals(), pr_box_marginals(), v)),
}

#: Every public entry that takes a raw angle or phase, which must be a finite real.
FINITE_ENTRY_POINTS = {
    "SrtConfig(phase)": ("phase", lambda v: SrtConfig(0.5, phase=v)),
    "interference_pvm(chi)": ("phase", interference_pvm),
    "tradeoff_sweep(chi)": ("phase", lambda v: tradeoff_sweep([0.5], chi=v)),
    "tradeoff_sweep(chi), empty grid": ("phase", lambda v: tradeoff_sweep([], chi=v)),
    "polarization_pvm(theta)": ("angle theta", polarization_pvm),
    "arm_povm(theta)": ("angle theta", lambda v: arm_povm(0.5, v, 0.2)),
    "arm_povm(theta_p)": ("angle theta_p", lambda v: arm_povm(0.5, 0.1, v)),
    **{f"AspectConfig({name})": (f"angle {name}", lambda v, name=name: _config(**{name: v}))
       for name in ("theta1", "theta1p", "theta2", "theta2p")},
    **{f"standard_composite({name})": (
        f"angle {name}",
        lambda v, k=k: standard_composite(*[v if j == k else 0.1 * j for j in range(4)]))
       for k, name in enumerate(("theta1", "theta1p", "theta2", "theta2p"))},
}


@pytest.mark.parametrize("entry", sorted(WEIGHT_ENTRY_POINTS))
def test_a_weight_must_be_a_number_in_the_unit_interval(entry):
    name, build = WEIGHT_ENTRY_POINTS[entry]
    for value in (0.0, 0.5, 1.0, np.float64(0.25), 1):
        build(value)
    for value in (math.nan, math.inf, -math.inf, -0.1, 1.1, 2.0, "x", None, 1j):
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{name} must lie in [0, 1], got {value!r}')}$"):
            build(value)


@pytest.mark.parametrize("entry", sorted(FINITE_ENTRY_POINTS))
def test_an_angle_or_phase_must_be_a_finite_number(entry):
    name, build = FINITE_ENTRY_POINTS[entry]
    for value in (0.0, -2.5, 1e6, np.float64(0.25), 3):
        build(value)
    for value in (math.nan, math.inf, -math.inf, "x", None, 1j):
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{name} is non-finite: {value!r}')}$"):
            build(value)


def _pointer_model(object_dim):
    return InstrumentModel(State(np.eye(2) / 2), np.eye(4), path_pvm(), object_dim=object_dim)


#: Raw labels, dimensions, element sequences and matrices that no rule read before: each
#: raised a builtin error, returned NaN or was accepted.  Every case names its error and
#: exact message.
RAW_INPUT_CASES = {
    "PovmMeasure(labels=5)": (lambda: PovmMeasure([np.eye(2)], labels=5),
                              ValidationError, "one hashable label is required per element"),
    "PovmMeasure(labels=[[1]])": (lambda: PovmMeasure([np.eye(2)], labels=[[1]]),
                                  ValidationError, "one hashable label is required per element"),
    "NonidealityMatrix(row_labels=5)": (lambda: NonidealityMatrix(np.eye(2), row_labels=5),
                                        ValidationError, "row_labels do not match the matrix shape"),
    "NonidealityMatrix(col_labels=5)": (lambda: NonidealityMatrix(np.eye(2), col_labels=5),
                                        ValidationError, "col_labels do not match the matrix shape"),
    "NonidealityMatrix(row_labels=[[1], [2]])": (
        lambda: NonidealityMatrix(np.eye(2), row_labels=[[1], [2]]),
        ValidationError, "row_labels do not match the matrix shape"),
    "ProbabilityTable(unhashable axis labels)": (
        lambda: ProbabilityTable([0.5, 0.5], axis_labels=[[[1], [2]]]),
        ValidationError, "axis_labels do not match the table shape"),
    "ProbabilityTable(0-d, axis_labels=5)": (lambda: ProbabilityTable(1.0, axis_labels=5),
                                             ValidationError, "axis_labels do not match the table shape"),
    **{f"State.maximally_mixed({dim!r})": (lambda dim=dim: State.maximally_mixed(dim), ValidationError,
                                           f"dimension must be a positive integer, got {dim!r}")
       for dim in (2.5, "2", -1, 0, True, np.float64(2.0), None)},
    **{f"InstrumentModel(object_dim={dim!r})": (
        lambda dim=dim: _pointer_model(dim), ValidationError,
        f"object dimension must be a positive integer, got {dim!r}")
       for dim in ("x", 2.5, 0, -2, True)},
    **{f"PovmMeasure(index_shape={shape!r})": (
        lambda shape=shape: PovmMeasure([np.eye(2) / 2] * 2, index_shape=shape), ValidationError,
        f"index_shape {shape!r} does not match 2 elements")
       for shape in ((2.5,), (True,), ("2",), (0,), (-1,), (True, 2))},
    **{f"matrix_from_dict(dim={dim!r})": (
        lambda dim=dim: serialize.matrix_from_dict({"dim": dim, "entries": [[1, 0]]}), ValidationError,
        f"matrix 'dim' must be a positive integer, got {dim!r}")
       for dim in (1.7, 2.5, True, "2", 0, -1)},
    **{f"table_from_dict(shape={shape!r})": (
        lambda shape=shape: serialize.table_from_dict({"shape": shape, "values": [0.5, 0.5]}),
        ValidationError, f"table 'shape' entry must be a positive integer, got {shape[0]!r}")
       for shape in ([2.5], [True], ["2"], [0], [-1], [True, 2])},
    **{f"{generate.__name__}({dim!r})": (
        lambda generate=generate, dim=dim: generate(dim, np.random.default_rng(0)), ValidationError,
        f"dimension must be a positive integer, got {dim!r}")
       for generate in (random_unitary, random_pure_state, random_density_matrix, random_hermitian,
                        random_basis_pvm)
       for dim in (2.5, True, "2", 0, -1)},
    "PovmMeasure(5)": (lambda: PovmMeasure(5), ValidationError, "measure elements must be a sequence, got int"),
    "PovmMeasure(None)": (lambda: PovmMeasure(None), ValidationError,
                          "measure elements must be a sequence, got NoneType"),
    "MarginalSet.from_tables(5)": (lambda: MarginalSet.from_tables(5),
                                   DimensionMismatchError, "exactly four tables are required"),
    "nonideality_entropy([[nan]])": (lambda: nonideality_entropy([[math.nan]]),
                                     ValidationError, "nonideality entropy requires finite entries"),
    "nonideality_entropy([[inf, 1]])": (lambda: nonideality_entropy([[math.inf, 1.0]]),
                                        ValidationError, "nonideality entropy requires finite entries"),
    "nonideality_entropy('x')": (lambda: nonideality_entropy("x"), ValidationError,
                                 "nonideality matrix cannot be read as a float array: "
                                 "could not convert string to float: 'x'"),
    "trace_distance([[nan]], [[0]])": (lambda: trace_distance([[math.nan]], [[0.0]]),
                                       ValidationError, "trace distance operands have non-finite entries"),
    "trace_distance([[inf]], [[0]])": (lambda: trace_distance([[math.inf]], [[0.0]]),
                                       ValidationError, "trace distance operands have non-finite entries"),
    "trace_distance([[0]], [[-inf]])": (lambda: trace_distance([[0.0]], [[-math.inf]]),
                                        ValidationError, "trace distance operands have non-finite entries"),
}


@pytest.mark.parametrize("case", sorted(RAW_INPUT_CASES))
def test_raw_input_raises_its_rule_error(case):
    # The suite turns warnings into errors, so no numpy RuntimeWarning may come first.
    build, error, message = RAW_INPUT_CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is error


def test_valid_labels_and_dimensions_read_as_before():
    assert NonidealityMatrix(np.eye(2), row_labels=["a", "b"]).row_labels == ("a", "b")
    assert NonidealityMatrix(np.eye(2), col_labels=iter("xy")).col_labels == ("x", "y")
    assert NonidealityMatrix(np.eye(2)).row_labels == ()
    assert PovmMeasure([np.eye(2)], labels=["only"]).labels == ("only",)
    assert ProbabilityTable([0.5, 0.5], axis_labels=[["a", "b"]]).axis_labels == (("a", "b"),)
    for dim in (1, 3, np.int64(2)):
        state = State.maximally_mixed(dim)
        assert state.dim == dim and type(state.dim) is int
    assert _pointer_model(np.int64(2)).object_dim == 2
    assert povm_violations(5) == ["measure elements must be a sequence, got int"]
    assert nonideality_entropy(np.eye(2)) == 0.0


def test_each_raw_angle_is_checked_once_per_public_entry(monkeypatch):
    # The private builders take checked floats: a fixed arrangement checks its four
    # angles in its config, and its joint table checks none of them again.
    calls = []

    def spy(value, name):
        calls.append(name)
        return check(value, name)

    check = aspect._checked_finite
    monkeypatch.setattr(aspect, "_checked_finite", spy)
    config = _config()
    assert calls == ["angle theta1", "angle theta1p", "angle theta2", "angle theta2p"]
    joint_probabilities(config)
    standard_composite(0.1, 0.2, 0.3, 0.4)
    assert calls == ["angle theta1", "angle theta1p", "angle theta2", "angle theta2p"] * 2


def test_states_compare_and_hash_by_identity():
    # An array field has no truth value, so value equality raised on two states.
    first, second = bell_state(), bell_state()
    assert first == first and first != second
    assert hash(first) == hash(first) and len({first, second}) == 2
    assert _config(state=first) == _config(state=first)
    assert _config(state=first) != _config(state=second)


def test_a_new_state_of_the_same_matrix_reuses_the_analyzer_pairs():
    # The kept table's key holds the state's matrix bytes, not the state object.
    first = bell_state()
    standard_composite(0.1, 0.2, 0.3, 0.4, state=first)
    kept = aspect._latest_pairs
    joint_probabilities(_config(state=State(first.matrix)))
    assert aspect._latest_pairs is kept
