"""Property tests of the stacked kernels against their per-point references."""

import contextlib
import io
import itertools
import json
import math
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from povmkit import (
    AspectConfig,
    MarginalSet,
    PovmMeasure,
    PvmMeasure,
    ProbabilityTable,
    STANDARD_GAMMA_PAIRS,
    State,
    SrtConfig,
    apply_nonideality,
    arm_povm,
    bell_state,
    born_probabilities,
    check_martens,
    check_no_signaling,
    chsh_value,
    joint_probabilities,
    interference_pvm,
    is_hermitian,
    is_positive,
    is_projector,
    joint_exists,
    martens_bound,
    path_pvm,
    povm_violations,
    pvm_violations,
    quadrivariate_povm,
    solve_nonideality,
    srt_bivariate,
    standard_composite,
    tradeoff_sweep,
)
from povmkit import (InternalConsistencyError, NoSignalingError, ValidationError, feasibility,
                     measures, nonideality, serialize)
from povmkit.aspect import _ANGLE_NAMES, _polarization_stack
from povmkit.cli import main
from povmkit.feasibility import _KEEP, _REDUCED, phase1_simplex
from povmkit.measures import _lowest_eigenvalues, _stack_accepts, _stack_violations
from povmkit.sampling import (
    mix_marginals,
    pr_box_marginals,
    random_density_matrix,
    random_no_signaling_marginals,
    random_unitary,
)
from povmkit.tables import _check_tables

from helpers import (
    oracle_arm,
    oracle_is_hermitian,
    oracle_is_positive,
    oracle_is_projector,
    oracle_chsh_value,
    oracle_joint_exists,
    oracle_joint_probabilities,
    oracle_polarization_stack,
    oracle_quadrivariate_povm,
    oracle_no_signaling,
    oracle_phase1_simplex,
    oracle_setting_pair_tables,
    oracle_solve_stack,
    oracle_stack_violations,
    oracle_state_check,
    oracle_stochastic_violation,
    oracle_table_check,
    oracle_tradeoff_sweep,
)

#: Derandomized so every run draws the same examples; no example database.
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

TOL = 1e-9
DEFECTS = ("none", "non-hermitian", "negative", "incomplete", "non-projector",
           "non-orthogonal", "nan", "inf")


# -- (a) the batched sweep against the public per-point chain ---------------

absorbers = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@PROPERTY_SETTINGS
@given(
    # Repeating a drawn prefix makes duplicate grid values common.
    grid=st.lists(absorbers, max_size=12).map(lambda values: values + values[: len(values) // 2]),
    chi=st.floats(min_value=-2.0 * np.pi, max_value=2.0 * np.pi, allow_nan=False),
)
def test_sweep_matches_per_point_chain(grid, chi):
    points = tradeoff_sweep(grid, chi)
    assert len(points) == len(grid)
    target_path = path_pvm()
    target_interference = interference_pvm(chi)
    for a, point in zip(grid, points):
        bivariate = srt_bivariate(SrtConfig(a, chi))
        lam = solve_nonideality(bivariate.marginal(keep=0), target_path)
        mu = solve_nonideality(bivariate.marginal(keep=1), target_interference)
        report = check_martens(lam, mu, target_path, target_interference)
        assert point.absorber == a
        for got, want in zip(point[1:], (report.j_lambda, report.j_mu, report.bound, report.slack)):
            assert abs(got - want) <= 1e-12


# -- (b) the stacked validator against a plain per-element loop ------------

def reference_violations(elements, tol, projective):
    """Per-element validation loop: the specification of the stacked validator."""
    lines = []
    finite = [bool(np.isfinite(e).all()) for e in elements]
    for k, element in enumerate(elements):
        if not finite[k]:
            lines.append(f"element {k} has non-finite entries")
            continue
        herm = float(np.max(np.abs(element - element.conj().T)))
        if not herm <= tol:
            lines.append(f"element {k} is not Hermitian (defect {herm:.3e})")
            continue
        lowest = np.linalg.eigvalsh((element + element.conj().T) / 2.0)[0]
        if not lowest >= -tol:
            lines.append(f"element {k} is not positive (eigenvalue {lowest:.3e})")
    completeness = float(np.max(np.abs(sum(elements) - np.eye(elements[0].shape[0]))))
    if not completeness <= tol:
        lines.append(f"elements do not sum to identity (defect {completeness:.3e})")
    if projective:
        for k, element in enumerate(elements):
            if finite[k]:
                defect = float(np.max(np.abs(element @ element - element)))
                if not defect <= tol:
                    lines.append(f"element {k} is not a projector (defect {defect:.3e})")
        for j in range(len(elements)):
            for k in range(j + 1, len(elements)):
                if finite[j] and finite[k]:
                    overlap = abs(complex(np.trace(elements[j] @ elements[k])))
                    if not overlap <= tol:
                        lines.append(
                            f"elements {j} and {k} are not orthogonal (Tr = {overlap:.3e})"
                        )
    return lines


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d+e[-+]\d+|\bnan\b|\binf\b)")


def assert_same_report(got, want):
    """Same messages in the same order; printed defects equal to display precision."""
    assert [_NUMBER.sub("#", line) for line in got] == [_NUMBER.sub("#", line) for line in want]
    for line_got, line_want in zip(got, want):
        np.testing.assert_allclose(
            [float(x) for x in _NUMBER.findall(line_got)],
            [float(x) for x in _NUMBER.findall(line_want)],
            rtol=2e-3,
        )


def random_measure(rng, n_elements, dim, projective):
    """A valid POVM (random positive elements, whitened) or a random-basis PVM."""
    if projective:
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        return np.stack([np.outer(basis[:, k], basis[:, k].conj()) for k in range(dim)])
    raw = rng.normal(size=(n_elements, dim, dim)) + 1j * rng.normal(size=(n_elements, dim, dim))
    positive = raw @ np.conj(np.swapaxes(raw, -1, -2))
    values, vectors = np.linalg.eigh(positive.sum(axis=0))
    whiten = vectors @ np.diag(values ** -0.5) @ vectors.conj().T
    elements = whiten @ positive @ whiten
    return (elements + np.conj(np.swapaxes(elements, -1, -2))) / 2.0


def inject(rng, elements, defect, magnitude):
    out = elements.copy()
    k = int(rng.integers(len(out)))
    dim = out.shape[-1]
    if defect == "non-hermitian" and dim > 1:
        out[k, 0, 1] += magnitude
    elif defect == "negative":
        out[k] -= 2.0 * magnitude * np.eye(dim) + np.max(np.linalg.eigvalsh(out[k])) * np.eye(dim)
    elif defect == "incomplete":
        out[k] *= 1.0 - magnitude
    elif defect == "non-projector":
        out[k] = out[k] * (1.0 - magnitude) + magnitude * np.eye(dim) / dim
    elif defect == "non-orthogonal" and len(out) > 1:
        j = (k + 1) % len(out)
        out[j] = out[k]
    elif defect == "nan":
        out[k, 0, 0] = np.nan
    elif defect == "inf":
        out[k, -1, -1] = np.inf
    return out


@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    projective=st.booleans(),
    dim=st.integers(min_value=1, max_value=3),
    n_elements=st.integers(min_value=1, max_value=4),
    defects=st.lists(st.sampled_from(DEFECTS), min_size=1, max_size=4),
    magnitude=st.floats(min_value=1e-6, max_value=0.5),
)
def test_stacked_validator_matches_per_element_reference(
    seed, projective, dim, n_elements, defects, magnitude
):
    rng = np.random.default_rng(seed)
    batch = np.stack([
        inject(rng, random_measure(rng, n_elements, dim, projective), defect, magnitude)
        for defect in defects
    ])
    found = _stack_violations(batch, TOL, projective)
    single = pvm_violations if projective else povm_violations
    for n, elements in enumerate(batch):
        want = reference_violations(list(elements), TOL, projective)
        assert_same_report(found.get((n,), []), want)
        assert (n,) in found or not want
        assert_same_report(single(list(elements), TOL), want)


@pytest.mark.parametrize("projective", [False, True])
def test_batch_keys_follow_c_order(projective):
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    valid = np.stack([p0, p1])
    broken = np.stack([p0, 0.5 * p1])
    batch = np.stack([[valid, broken, valid], [broken, valid, broken]])
    found = _stack_violations(batch, TOL, projective)
    assert list(found) == [(0, 1), (1, 0), (1, 2)]


# -- (c) the product Born rule against the explicit 16x16 measure ----------

transmissivities = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
angle = st.floats(min_value=-2.0 * np.pi, max_value=2.0 * np.pi, allow_nan=False)


@st.composite
def two_photon_states(draw):
    """The singlet, or ``G G^dag / Tr`` from a drawn complex 4 x rank block."""
    rank = draw(st.integers(min_value=0, max_value=4))
    if rank == 0:
        return bell_state()
    entries = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=32, max_size=32))
    block = (np.array(entries[:16]) + 1j * np.array(entries[16:])).reshape(4, 4)[:, :rank]
    gram = block @ block.conj().T
    trace = float(np.real(np.trace(gram)))
    assume(trace > 1e-3)
    return State(gram / trace)


@PROPERTY_SETTINGS
@given(
    gamma1=transmissivities,
    gamma2=transmissivities,
    angles=st.tuples(angle, angle, angle, angle),
    state=two_photon_states(),
)
def test_joint_probabilities_match_quadrivariate_born_rule(gamma1, gamma2, angles, state):
    config = AspectConfig(gamma1, gamma2, *angles, state=state)
    got = joint_probabilities(config)
    want = born_probabilities(quadrivariate_povm(config), state)
    assert got.shape == want.shape == (2, 2, 2, 2)
    assert np.max(np.abs(got.values - want.values)) <= 1e-12
    assert got.axis_labels == want.axis_labels


@PROPERTY_SETTINGS
@given(angles=st.tuples(angle, angle, angle, angle), state=two_photon_states())
def test_standard_composite_matches_four_explicit_arrangements(angles, state):
    result = standard_composite(*angles, state=state)
    kept = ((0, 2), (0, 3), (1, 2), (1, 3))
    limits = ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0))
    assert len(result.tables) == 4
    for table, (gamma1, gamma2), axes in zip(result.tables, limits, kept):
        config = AspectConfig(gamma1, gamma2, *angles, state=state)
        want = born_probabilities(quadrivariate_povm(config), state).marginal(keep=axes)
        assert np.max(np.abs(table.values - want.values)) <= 1e-12
        assert table.axis_labels == want.axis_labels


@PROPERTY_SETTINGS
@given(angles=st.tuples(angle, angle, angle, angle), state=two_photon_states())
def test_composite_is_the_fixed_arrangement_at_the_mirror_limits(angles, state):
    # Bit for bit: at gamma in {0, 1} an arm is its analyzer PVM padded with
    # exact zeros, which is why the composite needs no arm POVMs.
    result = standard_composite(*angles, state=state)
    for k, gammas in enumerate(STANDARD_GAMMA_PAIRS):
        config = AspectConfig(*gammas, *angles, state=state)
        fixed = MarginalSet.from_quadrivariate(joint_probabilities(config))
        assert np.array_equal(result.tables[k].values, fixed.values[k])


@PROPERTY_SETTINGS
@given(
    gamma1=transmissivities,
    gamma2=transmissivities,
    angles=st.tuples(angle, angle, angle, angle),
    state=two_photon_states(),
)
def test_mirror_weights_match_the_elementwise_arm_oracle(gamma1, gamma2, angles, state):
    # The weight-matrix kernels against the explicit Born rule on the frozen
    # elementwise arms, at interior mirrors as well as at the limits.
    arms = (oracle_arm(gamma1, *angles[:2]), oracle_arm(gamma2, *angles[2:]))
    want = np.array([[np.real(np.trace(state.matrix @ np.kron(e1, e2))) for e2 in arms[1]]
                     for e1 in arms[0]]).reshape(2, 2, 2, 2)
    got = joint_probabilities(AspectConfig(gamma1, gamma2, *angles, state=state))
    assert np.max(np.abs(got.values - want)) <= 1e-12
    for gamma, pair, arm in zip((gamma1, gamma2), (angles[:2], angles[2:]), arms):
        assert np.max(np.abs(arm_povm(gamma, *pair).stack() - arm)) <= 1e-15


#: Angles that make exact zeros and ties: signed zeros and multiples of pi/4.
edge_angles = st.one_of(st.sampled_from([0.0, -0.0] + [k * np.pi / 4 for k in range(-8, 9)]), angle)
edge_gammas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


def assert_same_bits(got, want):
    """Equal dtype, shape and values, and equal sign bits, so 0.0 and -0.0 are told apart."""
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    stack_angles=st.lists(edge_angles, min_size=1, max_size=4),
    angles=st.tuples(edge_angles, edge_angles, edge_angles, edge_angles),
    gamma1=edge_gammas,
    gamma2=edge_gammas,
    state=st.one_of(st.just(bell_state()), two_photon_states()),
)
def test_two_photon_kernels_are_byte_identical_to_their_frozen_copies(
    stack_angles, angles, gamma1, gamma2, state
):
    names = [f"angle {k}" for k in range(len(stack_angles))]
    assert_same_bits(_polarization_stack(stack_angles, names),
                     oracle_polarization_stack(stack_angles, names))
    config = AspectConfig(gamma1, gamma2, *angles, state=state)
    got, want = joint_probabilities(config), oracle_joint_probabilities(config)
    assert_same_bits(got.values, want.values)
    assert (got.axis_labels, got.tol) == (want.axis_labels, want.tol)


@PROPERTY_SETTINGS
@given(
    angles=st.tuples(*[st.one_of(edge_angles, st.floats(-1e6, 1e6))] * 4),
    gamma1=edge_gammas,
    gamma2=edge_gammas,
)
def test_two_photon_kernels_take_the_accept_first_path(angles, gamma1, gamma2):
    # Analyzer PVMs at finite angles are valid, so the whole-stack pass must take
    # them: the per-measure reading would give the same verdict, only slower.
    def refuse(*args):
        raise AssertionError("the per-measure check ran")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(measures, "_measure_violations", refuse)
        standard_composite(*angles)
        joint_probabilities(AspectConfig(gamma1, gamma2, *angles, state=bell_state()))


# -- (d) joint_exists witnesses against their input tables ------------------

joint_weights = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=16, max_size=16)


@PROPERTY_SETTINGS
@given(
    weights=joint_weights,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    pr_weight=st.floats(min_value=0.0, max_value=1.0),
    explicit=st.booleans(),
)
def test_witness_reproduces_its_four_tables(weights, seed, pr_weight, explicit):
    # Explicit joints are always feasible; PR-box mixtures of random
    # no-signaling boxes land on both sides of |S| = 2.
    if explicit:
        raw = np.array(weights).reshape(2, 2, 2, 2)
        assume(raw.sum() > 0.0)
        marginals = MarginalSet.from_quadrivariate(ProbabilityTable(raw / raw.sum()))
    else:
        box = random_no_signaling_marginals(np.random.default_rng(seed))
        marginals = mix_marginals(pr_box_marginals(), box, pr_weight)
    decision = joint_exists(marginals)
    assert decision.feasible or not explicit
    if decision.feasible:
        witness = decision.joint.values
        assert witness.min() >= 0.0
        for table, axes in zip(marginals.tables(), ((0, 2), (0, 3), (1, 2), (1, 3))):
            dropped = tuple(ax for ax in range(4) if ax not in axes)
            assert np.max(np.abs(witness.sum(axis=dropped) - table.values)) <= TOL


# -- (e) a marginal of a valid measure or table is valid ----------------------

index_shapes = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3).map(tuple)


def ascending_keep(data, ndim):
    return tuple(sorted(data.draw(st.sets(st.integers(min_value=0, max_value=ndim - 1)))))


def drawn_labels(data, shape):
    """Default positions, per-axis names, or flat names that carry no axis structure."""
    kind = data.draw(st.sampled_from(["default", "structured", "flat"]))
    if kind == "default":
        return None
    if kind == "structured":
        return tuple(itertools.product(*(
            tuple(f"{chr(97 + axis)}{i}" for i in range(size)) for axis, size in enumerate(shape)
        )))
    return tuple(f"o{k}" for k in range(math.prod(shape)))


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    shape=index_shapes,
    dim=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    completeness_edge=st.sampled_from([-0.9 * TOL, 0.0, 0.9 * TOL]),
    edge_state=st.booleans(),
)
def test_measure_marginal_is_a_povm_and_commutes_with_born_rule(
    data, shape, dim, seed, completeness_edge, edge_state
):
    rng = np.random.default_rng(seed)
    n = math.prod(shape)
    # Before one common random rotation, every element is a random POVM
    # element on the first dim - 1 basis vectors plus a weight on the last
    # one.  Drawn weights sit at -0.9 tol, so their sums in a marginal go
    # below -tol along that one direction; the largest weight takes up the
    # rest and a completeness defect.
    weights = rng.random(n) + 0.1
    weights /= weights.sum()
    keeper = int(np.argmax(weights))
    edge = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    edge[keeper] = False
    weights[edge] = -0.9 * TOL
    weights[keeper] += 1.0 + completeness_edge - weights.sum()
    elements = np.zeros((n, dim, dim), dtype=complex)
    elements[:, -1, -1] = weights
    if dim > 1:
        elements[:, :-1, :-1] = random_measure(rng, n, dim - 1, projective=False)
    u = random_unitary(dim, rng)
    elements = u @ elements @ u.conj().T
    measure = PovmMeasure(elements, labels=drawn_labels(data, shape), index_shape=shape, tol=TOL)

    keep = ascending_keep(data, len(shape))
    marg = measure.marginal(keep)
    # A marginal element sums at most n elements, so its defects stay within n tol.
    assert not povm_violations(list(marg.elements), tol=n * TOL)
    rho = State.pure(u[:, -1]) if edge_state else random_density_matrix(dim, rng)
    got = born_probabilities(marg, rho)
    want = born_probabilities(measure, rho).marginal(keep)
    assert got.shape == want.shape
    assert np.max(np.abs(got.values - want.values), initial=0.0) <= 1e-12
    assert got.axis_labels == want.axis_labels


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    shape=index_shapes,
    total_edge=st.sampled_from([-0.9, 0.0, 0.9]),
)
def test_table_marginal_never_raises(data, shape, total_edge):
    n = math.prod(shape)
    weights = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n
    )))
    assume(weights.sum() > 0.0)
    values = weights / weights.sum()
    # Drawn entries sit at -0.9 tol and the total is off by up to 0.9 tol per
    # entry, inside the bounds of the whole table but not of every marginal.
    keeper = int(np.argmax(values))
    edge = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    edge[keeper] = False
    values[edge] = -0.9 * TOL
    values[keeper] += 1.0 + total_edge * TOL * n - values.sum()
    values = values.reshape(shape)
    axis_labels = tuple(tuple(f"{axis}:{i}" for i in range(size)) for axis, size in enumerate(shape))
    table = ProbabilityTable(values, axis_labels=axis_labels, tol=TOL)

    keep = ascending_keep(data, len(shape))
    marg = table.marginal(keep)
    dropped = tuple(ax for ax in range(len(shape)) if ax not in keep)
    assert np.array_equal(marg.values, values.sum(axis=dropped))
    assert marg.axis_labels == tuple(axis_labels[ax] for ax in keep)
    assert marg.tol == TOL


# -- (f) the closed-form qubit spectrum against eigvalsh ---------------------

QUBIT_KINDS = ("general", "degenerate", "diagonal", "rank-one")
exponent = st.integers(min_value=-12, max_value=3)


def qubit_hermitian_stack(rng, kind, exponents):
    """``(n, 2, 2)`` Hermitian matrices of one kind; row k of ``exponents``
    scales the entries a, d and b of ``[[a, b], [b*, d]]`` by powers of ten."""
    scale = 10.0 ** np.asarray(exponents, dtype=float)
    n = len(scale)
    a, d = rng.normal(size=n) * scale[:, 0], rng.normal(size=n) * scale[:, 1]
    b = (rng.normal(size=n) + 1j * rng.normal(size=n)) * scale[:, 2]
    if kind == "degenerate":
        d, b = a, 0.0 * b
    elif kind == "diagonal":
        b = 0.0 * b
    h = np.zeros((n, 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 1, 1], h[:, 0, 1], h[:, 1, 0] = a, d, b, np.conj(b)
    if kind == "rank-one":
        v = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        h = a[:, None, None] * v[:, :, None] * v[:, None, :].conj()
    return h


@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(QUBIT_KINDS),
    exponents=st.lists(st.tuples(exponent, exponent, exponent), min_size=1, max_size=8),
    non_finite=st.lists(st.sampled_from([None, np.nan, np.inf]), min_size=8, max_size=8),
)
def test_qubit_closed_form_spectrum_matches_eigvalsh(seed, kind, exponents, non_finite):
    rng = np.random.default_rng(seed)
    h = qubit_hermitian_stack(rng, kind, exponents)
    got = _lowest_eigenvalues(h)
    want = np.linalg.eigvalsh(h)[:, 0]
    bound = 1e-12 * np.maximum(1.0, np.linalg.norm(h, axis=(-2, -1)))
    assert np.all(np.abs(got - want) <= bound)

    # As elements of one measure, non-finite entries are masked out of the
    # spectrum, with no floating-point warning, and reported by name.
    elements = h.copy()
    for k, value in enumerate(non_finite[: len(elements)]):
        if value is not None:
            elements[k, k % 2, (k // 2) % 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = _stack_violations(elements, TOL).get((), [])
    assert_same_report(found, reference_violations(list(elements), TOL, False))


def test_lowest_eigenvalues_beyond_qubits_is_eigvalsh():
    rng = np.random.default_rng(8)
    for dim in (1, 3, 4):
        raw = rng.normal(size=(5, dim, dim)) + 1j * rng.normal(size=(5, dim, dim))
        h = raw + np.conj(np.swapaxes(raw, -1, -2))
        assert np.array_equal(_lowest_eigenvalues(h), np.linalg.eigvalsh(h)[:, 0])
        # A raw stack reads as its Hermitian part, not as its lower triangle.
        assert np.array_equal(_lowest_eigenvalues(raw), np.linalg.eigvalsh(h / 2.0)[:, 0])


# -- (g) the accept-first validator against the per-element oracle ----------

EDGE_KINDS = ("none", "non-hermitian", "negative", "incomplete", "non-projector",
              "non-orthogonal", "nan", "inf")
#: Each defect sits just inside or just outside the tolerance, on either side.
EDGE_SCALES = (-1.1, -0.9, 0.9, 1.1)


def edge_base(rng, n_elements, dim, projective, spare):
    """A valid measure: computational-basis projectors plus ``spare`` zero
    elements, or a random positive family whitened to sum to the identity."""
    if projective:
        basis = [np.diag(np.eye(dim)[k]).astype(complex) for k in range(dim)]
        return np.stack(basis + [np.zeros((dim, dim), dtype=complex)] * spare)
    return random_measure(rng, n_elements, dim, False)


def edge_defect(rng, elements, kind, scale, tol, projective):
    """Move one predicate of ``elements`` to ``scale * tol``, keeping the
    others within about half the tolerance where the family allows it."""
    out = elements.copy()
    t = scale * tol
    n_elements, dim = out.shape[0], out.shape[-1]
    k = int(rng.integers(n_elements))
    if kind == "non-hermitian" and dim > 1:
        # An anti-Hermitian part: Hermitian defect |t|, completeness |t| / 2.
        out[k, 0, 1] += t / 2.0
        out[k, 1, 0] -= t / 2.0
    elif kind == "negative" and n_elements > 1:
        # Lowest eigenvalue -t; the shift moves to another element.
        shift = np.linalg.eigvalsh(out[k])[0] + t
        out[k] -= shift * np.eye(dim)
        out[(k + 1) % n_elements] += shift * np.eye(dim)
    elif kind == "incomplete":
        out[k, 0, 0] += t
    elif kind == "non-projector" and projective and n_elements == dim + 2:
        # Projector 0 gives weight eps to two zero elements: idempotence of
        # element 0 is eps (1 - eps), every overlap about eps / 2.
        eps = t
        out[0] = (1.0 - eps) * elements[0]
        out[dim] = out[dim + 1] = (eps / 2.0) * elements[0]
    elif kind == "non-orthogonal" and dim > 1 and n_elements > 1:
        # A symmetric exchange between projectors 0 and 1: overlap |t|,
        # idempotence and lowest eigenvalue |t| / 2, completeness exact.
        delta = np.sign(t) * np.sqrt(abs(t) / 2.0)
        out[0, 0, 1] += delta
        out[0, 1, 0] += delta
        out[1, 0, 1] -= delta
        out[1, 1, 0] -= delta
    elif kind == "nan":
        out[k, 0, 0] = np.nan
    elif kind == "inf":
        out[k, -1, -1] = np.inf
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(EDGE_KINDS),
    projective=st.booleans(),
    dim=st.integers(min_value=1, max_value=3),
    n_elements=st.integers(min_value=1, max_value=4),
    spare=st.sampled_from([0, 2]),
    batch=st.sampled_from([(), (1,), (3,), (2, 2), (0,), (2, 0)]),
)
def test_accept_first_validator_equals_per_element_oracle(
    seed, kind, projective, dim, n_elements, spare, batch
):
    # One defect kind per stack, at a drawn edge scale per measure, so a stack
    # can fail on one predicate alone and reach the accept pass's last test.
    rng = np.random.default_rng(seed)
    measures = [
        edge_defect(rng, edge_base(rng, n_elements, dim, projective, spare),
                    kind, rng.choice(EDGE_SCALES), TOL, projective)
        for _ in range(math.prod(batch))
    ]
    shape = (dim + spare if projective else n_elements, dim, dim)
    stack = np.array(measures, dtype=complex).reshape(batch + shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = _stack_violations(stack, TOL, projective)
    assert found == oracle_stack_violations(stack, TOL, projective)


# -- (h) the trace form on PVM targets against the pseudo-inverse oracle ----

def grouped_pvm(rng, dim, ranks):
    """PVM of rank-``ranks`` projectors onto consecutive columns of a Haar unitary."""
    columns = random_unitary(dim, rng)
    edges = np.cumsum([0, *ranks])
    blocks = [columns[:, a:b] for a, b in zip(edges, edges[1:])]
    return PvmMeasure([block @ block.conj().T for block in blocks])


@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=2, max_value=4),
    splits=st.lists(st.sampled_from([1, 2]), min_size=4, max_size=4),
    n_elements=st.integers(min_value=1, max_value=4),
)
def test_pvm_targets_take_the_trace_form(seed, dim, splits, n_elements):
    rng = np.random.default_rng(seed)
    ranks = []
    for r in splits:
        if sum(ranks) < dim:
            ranks.append(min(r, dim - sum(ranks)))
    target = grouped_pvm(rng, dim, ranks)
    observed = PovmMeasure(random_measure(rng, n_elements, dim, False))
    trace_form = np.real(np.einsum("iab,jba->ij", observed.stack(), target.stack())) / ranks
    oracle = oracle_solve_stack(observed.stack()[None], target.stack(), TOL)[0]

    result = solve_nonideality(observed, target)
    assert np.abs(result.matrix - trace_form).max() <= 1e-12
    assert np.abs(result.matrix - oracle).max() <= 1e-12
    assert result.matrix.min() >= -1e-12
    assert np.abs(result.matrix.sum(axis=0) - 1.0).max() <= 1e-12
    assert result.unique


# -- (i) the accept-first stochasticity check against its per-matrix oracle --

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shape=st.tuples(*(st.integers(min_value=1, max_value=3),) * 3),
    kind=st.sampled_from(["none", "negative", "column-sum", "nan"]),
    scale=st.sampled_from(EDGE_SCALES),
)
def test_accept_first_stochastic_check_equals_per_matrix_oracle(seed, shape, kind, scale):
    # One entry per stack sits just inside or just outside the bound of one test.
    rng = np.random.default_rng(seed)
    matrices = rng.dirichlet(np.ones(shape[1]), size=(shape[0], shape[2])).swapaxes(1, 2)
    n, i, j = (int(rng.integers(size)) for size in shape)
    if kind == "negative":
        shift = matrices[n, i, j] - scale * TOL
        matrices[n, i, j] -= shift
        matrices[n, (i + 1) % shape[1], j] += shift
    elif kind == "column-sum":
        matrices[n, i, j] += scale * max(TOL, TOL * shape[1])
    elif kind == "nan":
        matrices[n, i, j] = np.nan
    found = nonideality._stochastic_violation(matrices, TOL)
    assert found == oracle_stochastic_violation(matrices, TOL)


# -- (j) the array set against the frozen per-table loops ---------------------

@st.composite
def boxes(draw):
    """Four 2x2 tables: random (mostly signaling), dyadic (exact ties), or no-signaling."""
    kind = draw(st.sampled_from(["random", "dyadic", "no-signaling", "uniform"]))
    if kind == "random":
        raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=16, max_size=16))).reshape(4, 4)
        assume((raw.sum(axis=1) > 0.0).all())
        return (raw / raw.sum(axis=1, keepdims=True)).reshape(4, 2, 2)
    if kind == "dyadic":
        # Eighths are exact, so correlators and CHSH sums tie exactly.
        quanta = draw(st.lists(st.integers(0, 3), min_size=32, max_size=32))
        return np.array([np.bincount(quanta[t::4], minlength=4) / 8.0 for t in range(4)]).reshape(4, 2, 2)
    if kind == "uniform":
        return np.full((4, 2, 2), 0.25)  # all eight CHSH values are 0
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    box = random_no_signaling_marginals(np.random.default_rng(seed))
    return mix_marginals(pr_box_marginals(), box, draw(st.floats(0.0, 1.0))).values


def assert_array_set(marginals, labels):
    tables = marginals.tables()
    assert marginals.tables() is tables
    assert np.array_equal(marginals.values, np.stack([table.values for table in tables]))
    assert not marginals.values.flags.writeable
    for table, want, name in zip(tables, labels, ("ab", "abp", "apb", "apbp")):
        assert getattr(marginals, name) is table
        assert not table.values.flags.writeable
        assert table.axis_labels == want


def assert_same_chsh(got, want):
    assert got == want
    assert repr(got) == repr(want)  # also tells 0.0 from -0.0


@PROPERTY_SETTINGS
@given(box=boxes(), labelled=st.booleans())
def test_array_set_equals_per_table_oracle(box, labelled):
    labels = (("+", "-"), (0, 1)) if labelled else None
    tables = [ProbabilityTable(table, axis_labels=labels) for table in box]
    marginals = MarginalSet.from_tables(tables)
    want = oracle_chsh_value(tables)
    assert_same_chsh(chsh_value(marginals), want)
    assert_same_chsh(chsh_value(tables), want)
    signaling = check_no_signaling(marginals)
    assert list(signaling.discrepancies.items()) == list(oracle_no_signaling(tables).items())
    assert_array_set(marginals, [labels] * 4)
    if signaling.passed:
        decision = joint_exists(marginals)
        assert_same_chsh(decision.chsh, want)
        if not decision.feasible:
            assert decision.certificate == max(want.values, key=lambda item: abs(item[1]))


#: 2x2 tables valid at tol 1: signed zeros, whose correlator is -0.0, plus exact ones.
SIGNED_ZERO_TABLES = ([[-0.0, 0.0], [0.0, -0.0]], [[0.0, 0.0], [0.0, 0.0]],
                      [[0.25, 0.25], [0.25, 0.25]], [[0.5, 0.0], [0.0, 0.5]], [[0.0, 0.5], [0.5, 0.0]])


@PROPERTY_SETTINGS
@given(box=st.tuples(*[st.sampled_from(SIGNED_ZERO_TABLES)] * 4))
@example(box=(SIGNED_ZERO_TABLES[0],) * 3 + (SIGNED_ZERO_TABLES[2],))
def test_signed_zero_box_equals_the_oracle(box):
    # The oracle's builtin sum starts at 0, so a placement whose four terms are
    # all -0.0, as (1, 1, 1, -1) on the example, reads 0.0 there and must here.
    tables = [ProbabilityTable(table, tol=1.0) for table in box]
    assert_same_chsh(chsh_value(tables), oracle_chsh_value(tables))


@PROPERTY_SETTINGS
@given(weights=joint_weights, labelled=st.booleans())
def test_from_quadrivariate_equals_per_table_oracle(weights, labelled):
    raw = np.array(weights).reshape(2, 2, 2, 2)
    assume(raw.sum() > 0.0)
    labels = (("+", "-"), ("u", "d"), (0, 1), ("x", "y")) if labelled else None
    joint = ProbabilityTable(raw / raw.sum(), axis_labels=labels)
    marginals = MarginalSet.from_quadrivariate(joint)
    want = oracle_setting_pair_tables(joint)
    assert np.array_equal(marginals.values, np.stack([values for values, _ in want]))
    assert_array_set(marginals, [pair_labels for _, pair_labels in want])
    assert_same_chsh(chsh_value(marginals), oracle_chsh_value(marginals.tables()))
    got = check_no_signaling(marginals).discrepancies
    assert list(got.items()) == list(oracle_no_signaling(marginals.tables()).items())


# -- (k) CHSH relabeling symmetry ----------------------------------------------

#: Outcome flips of (A, A', B, B'), a setting swap per party, and the party swap.
RELABELINGS = tuple(itertools.product(
    itertools.product((False, True), repeat=4), (False, True), (False, True), (False, True)
))


def relabel_box(box, flips, swap_a, swap_b, swap_parties):
    """The (4, 2, 2) box seen through one relabeling; ``p[x, y]`` is the table of (A_x, B_y)."""
    p = box.reshape(2, 2, 2, 2)
    p = np.stack([np.flip(p[x], axis=1) if flips[x] else p[x] for x in range(2)])
    p = np.stack([np.flip(p[:, y], axis=2) if flips[2 + y] else p[:, y] for y in range(2)], axis=1)
    if swap_a:
        p = p[::-1]
    if swap_b:
        p = p[:, ::-1]
    if swap_parties:
        p = p.transpose(1, 0, 3, 2)
    return np.ascontiguousarray(p).reshape(4, 2, 2)


def relabel_joint(joint, flips, swap_a, swap_b, swap_parties):
    """The same relabeling of a joint over (A, A', B, B')."""
    j = np.flip(joint, axis=tuple(ax for ax in range(4) if flips[ax]))
    if swap_a:
        j = j.transpose(1, 0, 2, 3)
    if swap_b:
        j = j.transpose(0, 1, 3, 2)
    if swap_parties:
        j = j.transpose(2, 3, 0, 1)
    return j


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), pr_weight=st.floats(0.0, 1.0))
def test_chsh_relabelings_keep_the_decision(seed, pr_weight):
    box = mix_marginals(pr_box_marginals(), random_no_signaling_marginals(np.random.default_rng(seed)),
                        pr_weight)
    base = joint_exists(box)
    assume(abs(base.chsh.max_abs - 2.0) >= 1e-6)
    assert len(set(RELABELINGS)) == 128
    for relabeling in RELABELINGS:
        values = relabel_box(box.values, *relabeling)
        decision = joint_exists(MarginalSet(*values))
        assert (decision.feasible, decision.boundary) == (base.feasible, base.boundary)
        if base.feasible:
            witness = relabel_joint(base.joint.values, *relabeling)
            assert witness.min() >= 0.0
            for table, axes in zip(values, ((0, 2), (0, 3), (1, 2), (1, 3))):
                dropped = tuple(ax for ax in range(4) if ax not in axes)
                assert np.max(np.abs(witness.sum(axis=dropped) - table)) <= TOL
        else:
            assert abs(decision.certificate[1]) == pytest.approx(abs(base.certificate[1]), abs=1e-12)


# -- (l) every CLI file option against malformed JSON -------------------------

#: Non-finite numbers as a user might spell them (json also reads the bare
#: tokens NaN and Infinity), and an integer beyond the float range.
EXTREME_LEAVES = ("NaN", "Infinity", "-Infinity", "nan", "inf", "-inf", "1e999",
                  math.nan, math.inf, -math.inf, 10**400, -10**400)
json_leaves = st.one_of(
    st.sampled_from(EXTREME_LEAVES), st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=6),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def mutated(draw, template):
    """A valid file object with one to three fields deleted or replaced.

    Each edit walks down from the top and stops at each level below it with even
    odds, so half the edits hit a top-level field; half the replacements are
    extreme leaves.
    """
    data = json.loads(json.dumps(template))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        container, key, node = None, None, data
        while isinstance(node, (dict, list)) and node and (key is None or draw(st.booleans())):
            container = node
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            node = container[key]
        if container is None:
            break
        if draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(st.sampled_from(EXTREME_LEAVES) | json_values)
    return data


#: A valid file for each option: aspect and srt states, martens measures, fine marginals.
CLI_TEMPLATES = {
    "state": serialize.state_to_dict(bell_state()),
    "qubit state": serialize.state_to_dict(State.maximally_mixed(2)),
    "bivariate": serialize.measure_to_dict(srt_bivariate(SrtConfig(0.5))),
    "pvm": serialize.measure_to_dict(path_pvm()),
    "marginals": serialize.marginals_to_dict(MarginalSet(*(np.full((2, 2), 0.25),) * 4)),
}
CLI_EXIT_CODES = {0, 1, 2, 3, 65}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=json_values | st.sampled_from(sorted(CLI_TEMPLATES)).flatmap(
    lambda name: mutated(CLI_TEMPLATES[name])))
# Each of these once ended in an OverflowError traceback.
@example(data={"dim": math.inf, "entries": []})
@example(data={"dim": 1, "entries": [[10**400, 0]]})
@example(data={"AB": 10**400, "ABp": 0, "ApB": 0, "ApBp": 0})
def test_cli_file_options_never_show_a_traceback(data):
    angles = "0,0.7853981633974483,0.39269908169872414,1.1780972450961724"
    with tempfile.TemporaryDirectory() as directory:
        paths = {}
        for name in ("fuzz", "bivariate", "pvm"):
            paths[name] = f"{directory}/{name}.json"
            with open(paths[name], "w", encoding="utf-8") as handle:
                json.dump(data if name == "fuzz" else CLI_TEMPLATES[name], handle)
        fuzz, biv, pvm = paths["fuzz"], paths["bivariate"], paths["pvm"]
        commands = (
            ["measure", "validate", fuzz],
            ["martens", "--bivariate", fuzz, "--pvm1", pvm, "--pvm2", pvm],
            ["martens", "--bivariate", biv, "--pvm1", fuzz, "--pvm2", pvm],
            ["martens", "--bivariate", biv, "--pvm1", pvm, "--pvm2", fuzz],
            ["aspect", "standard-composite", "--angles", angles, "--state", fuzz],
            ["aspect", "--gamma1", "0.5", "--gamma2", "0.5", "--angles", angles,
             "--emit", "chsh", "--state", fuzz],
            ["srt", "--absorber", "0.5", "--emit", "probabilities", "--state", fuzz],
            ["fine", "--marginals", fuzz],
        )
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in CLI_EXIT_CODES, (argv, code, err.getvalue())
            assert "Traceback" not in err.getvalue()


# -- (m) the rank-1 simplex against the frozen row-by-row oracle ---------------

#: Small integers, so ratio ties and degenerate pivots are common; zeros come
#: in both signs, as a JSON file may spell them.
LP_ENTRIES = (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0)


@st.composite
def lp_systems(draw):
    """``(constraints, rhs)``: the Fine system of a box, or a small integer system."""
    kind = draw(st.sampled_from(["integer", "random box", "PR mixture", "arrangement", "local"]))
    if kind == "integer":
        m, n = draw(st.integers(1, 9)), draw(st.integers(1, 16))
        entries = st.lists(st.sampled_from(LP_ENTRIES), min_size=m * (n + 1), max_size=m * (n + 1))
        system = np.array(draw(entries)).reshape(m, n + 1)
        return system[:, :n], system[:, n]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "arrangement":
        gammas = draw(st.tuples(absorbers, absorbers))
        angles = rng.uniform(-np.pi, np.pi, 4)
        config = AspectConfig(*gammas, *angles, state=random_density_matrix(4, rng))
        box = MarginalSet.from_quadrivariate(joint_probabilities(config)).values
    elif kind == "local":
        # A joint of dyadic-like weights, its zero cells written as -0.0.
        weights = rng.integers(0, 3, size=16).astype(float)
        assume(weights.sum() > 0.0)
        joint = ProbabilityTable((weights / weights.sum()).reshape(2, 2, 2, 2))
        box = MarginalSet.from_quadrivariate(joint).values.copy()
        box[box == 0.0] = -0.0
    else:
        weight = draw(st.floats(0.0, 1.0)) if kind == "PR mixture" else 0.0
        box = mix_marginals(pr_box_marginals(), random_no_signaling_marginals(rng), weight).values
    return _REDUCED, np.append(box, 1.0).take(_KEEP)


def simplex_outcome(solver, constraints, rhs):
    """The optimum and point as bytes, so -0.0 differs from 0.0, or the error raised."""
    try:
        optimum, x = solver(constraints, rhs)
    except InternalConsistencyError as exc:
        return type(exc), str(exc)
    assert type(optimum) is float and x.dtype == np.float64
    return np.float64(optimum).tobytes(), x.shape, x.tobytes()


#: A local box whose one zero cell is -0.0; its witness holds a -0.0, and ``fine`` prints it.
SIGNED_ZERO_BOX = np.array([[[6, 1], [7, 1]], [[2, 5], [4, 4]],
                            [[8, -0.0], [5, 2]], [[4, 4], [2, 5]]]) / 15


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(system=lp_systems())
@example(system=(_REDUCED, np.append(SIGNED_ZERO_BOX, 1.0).take(_KEEP)))
def test_rank1_simplex_is_byte_identical_to_the_row_by_row_oracle(system):
    constraints, rhs = system
    before = (constraints.tobytes(), rhs.tobytes())
    got = simplex_outcome(phase1_simplex, constraints, rhs)
    assert (constraints.tobytes(), rhs.tobytes()) == before
    assert got == simplex_outcome(oracle_phase1_simplex, constraints, rhs)


#: Flat cells of ``MarginalSet.values`` that reach the rhs of the reduced system.
KEPT_CELLS = tuple(k for k in _KEEP if k < 16)


def local_box(rng):
    """The four tables of a joint with one to four nonzero integer weights: many zero cells."""
    weights, cells = np.zeros(16), rng.choice(16, size=int(rng.integers(1, 5)), replace=False)
    weights[cells] = rng.integers(1, 4, size=cells.size)
    joint = ProbabilityTable((weights / weights.sum()).reshape(2, 2, 2, 2))
    return MarginalSet.from_quadrivariate(joint).values.copy()


def pr_crossing(base):
    """The PR-box weight at which the mixture with ``base`` (|S| < 2) reaches |S| = 2."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if chsh_value(mix_marginals(pr_box_marginals(), base, mid)).max_abs < 2.0:
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def fine_boxes(draw):
    """Raw ``(4, 2, 2)`` boxes for the Fine decision, each kind aimed at one route.

    ``negative`` moves a kept zero cell to ``-0.9 tol`` with margins kept, so
    its simplex row is negated; ``signed zero`` writes zero cells as -0.0;
    ``near boundary`` is a PR mixture within about 1e-6 of |S| = 2;
    ``signaling`` draws four unrelated tables; ``mixture`` is a PR mixture at
    any weight.
    """
    kind = draw(st.sampled_from(["negative", "signed zero", "near boundary", "signaling", "mixture"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "signaling":
        return rng.dirichlet(np.ones(4), size=4).reshape(4, 2, 2)
    if kind == "mixture":
        weight = draw(st.floats(0.0, 1.0))
        return mix_marginals(pr_box_marginals(), random_no_signaling_marginals(rng), weight).values
    if kind == "near boundary":
        base = random_no_signaling_marginals(rng)
        assume(chsh_value(base).max_abs < 2.0)
        weight = pr_crossing(base) + draw(st.floats(-1.5e-7, 1.5e-7))
        return mix_marginals(pr_box_marginals(), base, weight).values
    box = local_box(rng)
    if kind == "signed zero":
        box[box == 0.0] = -0.0
        return box
    zeros = [k for k in KEPT_CELLS if box.flat[k] == 0.0]
    assume(zeros)
    k = zeros[draw(st.integers(0, len(zeros) - 1))]
    t, i, j = np.unravel_index(k, box.shape)
    # A +-e pattern on one table keeps its row and column sums.
    pattern = np.array([[1.0, -1.0], [-1.0, 1.0]]) * (1.0 if i != j else -1.0)
    box[t] += 0.9 * TOL * pattern
    return box


def decision_outcome(decide, marginals):
    """A decision as reprs and bytes, so -0.0 differs from 0.0, or the error raised."""
    try:
        d = decide(marginals)
    except (InternalConsistencyError, NoSignalingError) as exc:
        return type(exc), str(exc)
    joint = None if d.joint is None else (
        d.joint.values.tobytes(), d.joint.shape, d.joint.values.flags.writeable,
        d.joint.axis_labels, repr(d.joint.tol))
    return d.feasible, d.boundary, repr(d.chsh), joint, repr(d.residual), repr(d.certificate)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(box=fine_boxes())
@example(box=SIGNED_ZERO_BOX)
def test_fine_decision_is_byte_identical_to_the_frozen_oracle(box):
    marginals = MarginalSet(*box, tol=TOL)
    # Whichever route set it up, the tableau pivoted is the one phase1_simplex builds.
    pivoted = []
    with pytest.MonkeyPatch.context() as patch:
        pivot = feasibility._pivot
        patch.setattr(feasibility, "_pivot",
                      lambda tableau, *args: pivoted.append(tableau.tobytes()) or pivot(tableau, *args))
        got = decision_outcome(joint_exists, marginals)
    assert got == decision_outcome(oracle_joint_exists, marginals)
    if pivoted:
        rhs = np.append(marginals.values, 1.0).take(_KEEP)
        assert pivoted == [feasibility._phase1_tableau(_REDUCED, rhs).tobytes()]


def test_nonnegative_boxes_never_build_a_tableau(monkeypatch):
    # Every nonnegative rhs shares the prebuilt tableau; it is copied, never written.
    def refuse(*args):
        raise AssertionError("the generic tableau setup ran")

    monkeypatch.setattr(feasibility, "_phase1_tableau", refuse)
    template = feasibility._TABLEAU
    before = template.tobytes()
    rng = np.random.default_rng(19)
    boxes = [SIGNED_ZERO_BOX, local_box(rng)] + [
        mix_marginals(pr_box_marginals(), random_no_signaling_marginals(rng), w).values
        for w in np.linspace(0.0, 1.0, 30)]
    decisions = [joint_exists(MarginalSet(*box)) for box in boxes]
    assert {d.feasible for d in decisions} == {True, False}
    assert feasibility._TABLEAU is template and not template.flags.writeable
    assert template.tobytes() == before


# -- (n) unitary covariance and the smearing round trip ------------------------

def conjugated(measure, u):
    """``U M U^dag`` of every element, with the labels and index shape kept."""
    return type(measure)(u @ measure.stack() @ u.conj().T, labels=measure.labels,
                         index_shape=measure.index_shape)


@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=2, max_value=4),
    n_elements=st.integers(min_value=1, max_value=5),
    projective=st.booleans(),
)
def test_born_rule_is_unitarily_covariant(seed, dim, n_elements, projective):
    rng = np.random.default_rng(seed)
    measure = PovmMeasure(random_measure(rng, n_elements, dim, projective))
    rho = random_density_matrix(dim, rng)
    u = random_unitary(dim, rng)
    got = born_probabilities(conjugated(measure, u), State(u @ rho.matrix @ u.conj().T))
    want = born_probabilities(measure, rho)
    assert got.axis_labels == want.axis_labels
    assert np.max(np.abs(got.values - want.values)) <= 1e-12


@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=2, max_value=3),
    n_observed=st.integers(min_value=1, max_value=4),
)
def test_nonideality_and_martens_bound_are_unitarily_covariant(seed, dim, n_observed):
    rng = np.random.default_rng(seed)
    observed = PovmMeasure(random_measure(rng, n_observed, dim, False))
    target = PvmMeasure(random_measure(rng, dim, dim, True))
    u = random_unitary(dim, rng)
    got = solve_nonideality(conjugated(observed, u), conjugated(target, u))
    want = solve_nonideality(observed, target)
    assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-9
    assert abs(got.residual - want.residual) <= 1e-9
    assert got.unique == want.unique

    first, second = (PvmMeasure(random_measure(rng, dim, dim, True)) for _ in range(2))
    assert abs(martens_bound(conjugated(first, u), conjugated(second, u))
               - martens_bound(first, second)) <= 1e-12


@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=2, max_value=3),
    n_observed=st.integers(min_value=1, max_value=5),
)
def test_smearing_round_trip_recovers_the_matrix(seed, dim, n_observed):
    rng = np.random.default_rng(seed)
    target = PvmMeasure(random_measure(rng, dim, dim, True))
    raw = rng.random((n_observed, target.n_outcomes))
    lam = raw / raw.sum(axis=0, keepdims=True)
    result = solve_nonideality(apply_nonideality(target, lam), target)
    assert result.unique and result.is_exact
    assert np.max(np.abs(result.matrix - lam)) <= 1e-9


# -- (o) the sweep against the frozen two-build pipeline ------------------------

def sweep_outcome(sweep, grid, chi):
    """The rows with every field as ``float.hex``, so -0.0 differs from 0.0, or the error raised."""
    try:
        rows = sweep(grid, chi)
    except (InternalConsistencyError, ValidationError) as exc:
        return type(exc), str(exc)
    return rows, [tuple(map(float.hex, row)) for row in rows]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    # 0 and 1 in every grid, a repeated prefix for duplicates, in drawn order.
    grid=st.lists(absorbers, max_size=12)
    .map(lambda values: values + [0.0, 1.0] + values[: len(values) // 2 + 1])
    .flatmap(st.permutations),
    chi=st.sampled_from([0.0, np.pi / 2, np.pi, -np.pi])
    | st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
@example(grid=np.linspace(0.0, 1.0, 101).tolist(), chi=0.7)
@example(grid=[0.5, 0.5], chi=math.nan)
@example(grid=[0.5, 1.5], chi=0.0)
def test_sweep_rows_equal_the_frozen_pipeline_oracle(grid, chi):
    got, want = (sweep_outcome(sweep, grid, chi) for sweep in (tradeoff_sweep, oracle_tradeoff_sweep))
    assert got == want


# -- (p) a common rotation of the four analyzers -------------------------------

@PROPERTY_SETTINGS
@given(angles=st.tuples(angle, angle, angle, angle), shift=angle)
def test_common_analyzer_rotation_leaves_the_singlet_composite_unchanged(angles, shift):
    # The singlet is invariant under R(shift) (x) R(shift), so only angle
    # differences between the arms can reach the four tables.
    base = standard_composite(*angles, state=bell_state())
    rotated = standard_composite(*(theta + shift for theta in angles), state=bell_state())
    for got, want in zip(rotated.tables, base.tables):
        assert np.max(np.abs(got.values - want.values)) <= 1e-12
    assert np.max(np.abs(np.subtract(rotated.chsh.correlators, base.chsh.correlators))) <= 1e-12


# -- (q) Martens slack on post-processed exact joints --------------------------

@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    absorber=absorbers,
    chi=angle,
)
def test_martens_slack_holds_on_post_processed_exact_joints(seed, absorber, chi):
    # Smearing each outcome index of one bivariate POVM by a column-stochastic
    # matrix gives another bivariate POVM whose marginals are exact smearings
    # of the same PVMs (lambda -> S1 lambda, mu -> S2 mu), so the bound holds.
    rng = np.random.default_rng(seed)
    first, second = (raw / raw.sum(axis=0) for raw in rng.random((2, 2, 2)))
    cells = srt_bivariate(SrtConfig(absorber, chi)).stack().reshape(2, 2, 2, 2)
    smeared = np.einsum("pm,qn,mnab->pqab", first, second, cells).reshape(4, 2, 2)
    joint = PovmMeasure(smeared, index_shape=(2, 2))
    target_path, target_interference = path_pvm(), interference_pvm(chi)
    lam = solve_nonideality(joint.marginal(keep=0), target_path)
    mu = solve_nonideality(joint.marginal(keep=1), target_interference)
    report = check_martens(lam, mu, target_path, target_interference)
    assert report.applicable
    assert report.slack >= -TOL


# -- (r) the shared operator defect kernels against the frozen eigvalsh checks --

OPERATOR_KINDS = ("none", "non-hermitian", "negative", "non-projector", "trace", "nan", "inf")


def edge_operator(rng, dim, kind, t):
    """A rotated projector or density matrix with one defect of size ``t``: an
    anti-Hermitian part, a lowest eigenvalue ``-t`` at unit trace, an
    eigenvalue off 0 or 1, a trace of ``1 + t``, or a non-finite entry."""
    if kind in ("negative", "trace") or rng.integers(2):
        eigenvalues = rng.dirichlet(np.ones(dim))
    else:
        eigenvalues = (np.arange(dim) < rng.integers(dim + 1)).astype(float)
    k = int(rng.integers(dim))
    if kind == "negative" and dim > 1:
        eigenvalues[k] = 0.0
        eigenvalues *= (1.0 + t) / eigenvalues.sum()
        eigenvalues[k] = -t
    elif kind == "non-projector":
        eigenvalues[k] += t
    elif kind == "trace":
        eigenvalues *= 1.0 + t
    u = random_unitary(dim, rng)
    op = u @ np.diag(eigenvalues) @ u.conj().T
    if kind == "non-hermitian":
        if dim == 1:
            op[0, 0] += 0.5j * t
        else:
            op[0, 1] += t / 2.0
            op[1, 0] -= t / 2.0
    elif kind in ("nan", "inf"):
        op[k, int(rng.integers(dim))] = float(kind)
    return op


def same_outcome(call, oracle):
    """The outcomes of ``call`` and ``oracle``, each ``("value", result)`` or
    ``(error type, message)``, for the caller to compare."""
    try:
        want = ("value", oracle())
    except Exception as exc:
        want = (type(exc), str(exc))
    try:
        got = ("value", call())
    except Exception as exc:
        got = (type(exc), str(exc))
    return got, want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from(OPERATOR_KINDS),
    scale=st.sampled_from(EDGE_SCALES),
)
def test_state_and_predicates_equal_the_eigvalsh_oracle(seed, dim, kind, scale):
    # Each defect sits at +-0.9 or +-1.1 tol: both routes must draw the line in
    # one place, and a rejected state must carry the oracle's message.
    op = edge_operator(np.random.default_rng(seed), dim, kind, scale * TOL)
    got, want = same_outcome(lambda: State(op, tol=TOL).matrix.shape,
                             lambda: oracle_state_check(op, TOL) or op.shape)
    assert got == want
    if kind == "inf":
        # A non-finite operator is none of the three (the oracles warn on inf - inf).
        assert (is_hermitian(op, TOL), is_positive(op, TOL), is_projector(op, TOL)) == (False,) * 3
        return
    assert is_hermitian(op, TOL) == oracle_is_hermitian(op, TOL)
    assert is_positive(op, TOL) == oracle_is_positive(op, TOL)
    assert is_projector(op, TOL) == oracle_is_projector(op, TOL)


# -- (s) the stacked table validator against the frozen constructor checks ----

#: Defect kinds per table; the finite kinds are drawn twice as often as each non-finite one.
TABLE_KINDS = ("none", "none", "negative", "negative", "total", "total", "nan", "inf", "-inf")


def edge_table(rng, shape, kind, t):
    """A random table of ``shape`` with one defect: an entry at ``-t`` (its
    mass moved to another entry), a total off 1 by ``t`` times the size, or
    a non-finite entry."""
    values = rng.dirichlet(np.ones(math.prod(shape)))
    k = int(rng.integers(values.size))
    if kind == "negative" and values.size > 1:
        values[(k + 1) % values.size] += values[k] + t
        values[k] = -t
    elif kind == "total":
        values[k] += t * values.size
    elif kind in ("nan", "inf", "-inf"):
        values[k] = float(kind)
    return values.reshape(shape)


#: Stacks of one to four tables of one drawn shape, one defect kind per table.
tables_of_one_shape = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    st.lists(st.tuples(st.sampled_from(TABLE_KINDS), st.sampled_from(EDGE_SCALES)),
             min_size=1, max_size=4),
).map(lambda drawn: np.stack([
    edge_table(np.random.default_rng(drawn[0] + n), tuple(drawn[1]), kind, scale * TOL)
    for n, (kind, scale) in enumerate(drawn[2])
]))


def first_table_error(stack):
    """The frozen constructor's error on the first table of ``stack`` it rejects."""
    for table in stack:
        oracle_table_check(table, TOL)


def oracle_accepts_table(table):
    try:
        oracle_table_check(table, TOL)
    except ValidationError:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stack=tables_of_one_shape)
def test_table_checks_equal_the_frozen_constructor(stack):
    for table in stack:
        got, want = same_outcome(lambda: ProbabilityTable(table, tol=TOL).shape,
                                 lambda: oracle_table_check(table, TOL) or table.shape)
        assert got == want
    got, want = same_outcome(lambda: _check_tables(stack, TOL), lambda: first_table_error(stack))
    assert got == want


# -- (t) the accept-first passes accept exactly what their oracles accept ------

class _NoTableLoop(np.ndarray):
    """A table stack that raises when read table by table: only whole-stack
    reductions can accept it."""

    def __iter__(self):
        raise LookupError("the per-table loop ran")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(stack=tables_of_one_shape)
# Valid, with an entry above 1 + bound: the accept pass's entry gate must take it.
@example(stack=np.array([[1.0 + 2.5 * TOL, -0.9 * TOL]]))
def test_table_accept_pass_takes_every_valid_stack(stack):
    # A rejected stack reaches the per-table loop; so does a valid stack
    # whose whole-stack pass stopped accepting, which only speed would show.
    try:
        _check_tables(stack.view(_NoTableLoop), TOL)
        accepted = True
    except LookupError:
        accepted = False
    assert accepted == all(map(oracle_accepts_table, stack))


def grouped_projectors(rng, dim, ranks):
    """Projectors of the given ranks onto consecutive columns of a Haar unitary."""
    columns = random_unitary(dim, rng)
    edges = np.cumsum([0, *ranks])
    return np.stack([columns[:, a:b] @ columns[:, a:b].conj().T
                     for a, b in zip(edges, edges[1:])])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(EDGE_KINDS),
    projective=st.booleans(),
    dim=st.sampled_from([2, 3]),
    ranks=st.sampled_from([(1, 1), (2,), (1, 2), (2, 1), (1, 1, 1)]),
    n_elements=st.integers(min_value=2, max_value=4),
    batch=st.integers(min_value=1, max_value=3),
)
def test_stack_accept_pass_takes_every_valid_stack(
    seed, kind, projective, dim, ranks, n_elements, batch
):
    # POVMs, and PVMs of rank-1 and rank-2 projectors, with one defect per
    # stack at +-0.9 or +-1.1 tol: the whole-stack pass accepts a stack
    # exactly when the per-measure oracle finds nothing.
    assume(not projective or sum(ranks) == dim)
    rng = np.random.default_rng(seed)
    measures = [
        edge_defect(rng, grouped_projectors(rng, dim, ranks) if projective
                    else random_measure(rng, n_elements, dim, False),
                    kind, rng.choice(EDGE_SCALES), TOL, projective)
        for _ in range(batch)
    ]
    stack = np.array(measures, dtype=complex)
    assert _stack_accepts(stack, TOL, projective) == (
        oracle_stack_violations(stack, TOL, projective) == {}
    )


# -- (u) the product POVM against the frozen tensor route ----------------------

@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    gammas=st.tuples(edge_gammas, edge_gammas),
    angles=st.tuples(edge_angles, edge_angles, edge_angles, edge_angles),
)
def test_quadrivariate_povm_equals_the_tensor_oracle(gammas, angles):
    # Equal by value, not by bits: one einsum may sign some zeros unlike np.kron.
    config = AspectConfig(*gammas, *angles, state=bell_state())
    got, want = quadrivariate_povm(config), oracle_quadrivariate_povm(config)
    assert np.array_equal(got.stack(), want.stack())
    assert (got.labels, got.index_shape, got.tol) == (want.labels, want.index_shape, want.tol)
