"""Property tests of the stacked kernels against their per-point references."""

import contextlib
import functools
import io
import itertools
import json
import math
import re
import tempfile
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from povmkit import (
    AspectConfig,
    MarginalSet,
    NonidealityMatrix,
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
    reconstruct_state,
    solve_nonideality,
    srt_bivariate,
    srt_povm,
    standard_composite,
    tetrahedral_qubit_povm,
    tradeoff_sweep,
)
from povmkit import (InternalConsistencyError, NoSignalingError, ValidationError,
                     feasibility, measures, serialize, srt)
from povmkit.aspect import _ANGLE_NAMES, ANALYZER_ROUNDING, CHSH_SIGN_PATTERNS, _analyzer_stack
from povmkit.cli import main
from povmkit.feasibility import _KEEP, _REDUCED, BOUNDARY_TOL, phase1_simplex
from povmkit.measures import _lowest_eigenvalues, _stack_violations
from povmkit.nonideality import _row_entropy
from povmkit.sampling import (
    mix_marginals,
    pr_box_marginals,
    random_density_matrix,
    random_hermitian,
    random_no_signaling_marginals,
    random_pure_state,
    random_unitary,
)
from povmkit.srt import INTERFERENCE_ROUNDING
from povmkit.tables import _check_tables, _reduce_trailing, _table_violation

from helpers import (
    NEGATIVE_CELL_BOX,
    exact_joint_exists,
    oracle_arm,
    oracle_born_probabilities,
    oracle_is_hermitian,
    oracle_is_positive,
    oracle_is_projector,
    oracle_chsh_value,
    oracle_joint_exists,
    oracle_joint_probabilities,
    oracle_polarization_stack,
    oracle_quadrivariate_povm,
    oracle_no_signaling,
    oracle_row_entropy,
    oracle_phase1_simplex,
    oracle_setting_pair_tables,
    oracle_solve_stack,
    oracle_stack_violations,
    oracle_standard_composite,
    oracle_state_check,
    oracle_stochastic_violation,
    oracle_table_accept_pass,
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
    assert_same_bits(_analyzer_stack(stack_angles, _ANGLE_NAMES, TOL), oracle_polarization_stack(stack_angles))
    config = AspectConfig(gamma1, gamma2, *angles, state=state)
    got, want = joint_probabilities(config), oracle_joint_probabilities(config)
    assert_same_bits(got.values, want.values)
    assert (got.axis_labels, got.tol) == (want.axis_labels, want.tol)


ANALYZER_FILTER_TOLS = {"1e-9": 1e-9, "1e-12": 1e-12, "1e-15": 1e-15, "rounding": ANALYZER_ROUNDING,
                        "rounding+4u": ANALYZER_ROUNDING + 4 * 2.0**-53, "1e-300": 1e-300}


@pytest.fixture(scope="module")
def analyzer_filter_angles() -> list[float]:
    """106,008 seeded angles: uniform in +-10 and in +-1e15, magnitudes log-uniform from 1e-304
    to 1e15 with either sign, signed zeros, subnormals and multiples of pi/4 up to 1e15.

    They are ordered by their analyzers' completeness defect, so each stack of 256 holds
    analyzers of one rounding (0, 1 or 2 units of 2**-53) but at the borders between them.
    """
    rng = np.random.default_rng(31)
    magnitudes = 10.0 ** rng.uniform(-304.0, 15.0, 30_000) * rng.choice([-1.0, 1.0], 30_000)
    steps = np.concatenate([np.arange(-1_000, 1_001), np.round(np.geomspace(1e3, 1.27e15, 1_000))])
    quarters = np.concatenate([steps, -steps]) * (np.pi / 4)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308]
    angles = np.concatenate([rng.uniform(-10.0, 10.0, 40_000), rng.uniform(-1e15, 1e15, 30_000),
                             magnitudes, quarters, edges])
    # At tol 1 the filter or the generic check accepts any finite angle: the unchecked stack.
    defects = measures._completeness_defect(_analyzer_stack(angles.tolist(), None, 1.0)).max(axis=-1)
    return angles[np.argsort(defects, kind="stable")].tolist()


@pytest.mark.parametrize("tol", ANALYZER_FILTER_TOLS.values(), ids=ANALYZER_FILTER_TOLS.keys())
def test_the_analyzer_filter_decides_as_the_generic_check(analyzer_filter_angles, tol):
    # _analyzer_stack raises exactly when the generic check rejects a stack of analyzers,
    # with its message.  At 1e-300 the filter cannot accept and nearly every analyzer is
    # rejected and worded by the generic check, so every 20th angle keeps the run short.
    angles = analyzer_filter_angles if tol > 1e-300 else analyzer_filter_angles[::20]
    for start in range(0, len(angles), 256):
        chunk = angles[start:start + 256]
        names = [repr(theta) for theta in chunk]
        invalid = _stack_violations(_analyzer_stack(chunk, names, 1.0), tol, True)
        want = None
        if invalid:
            index, lines = next(iter(invalid.items()))
            want = f"angle {names[index[0]]}: " + "; ".join(lines)
        try:
            _analyzer_stack(chunk, names, tol)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    states=st.lists(st.one_of(st.just(bell_state()), two_photon_states()), min_size=1, max_size=2),
    angle_sets=st.lists(st.tuples(*[edge_angles] * 4), min_size=1, max_size=2),
    tols=st.lists(st.sampled_from([1e-9, 1e-7, 1e-6]), min_size=1, max_size=2),
    calls=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
                             edge_gammas, edge_gammas, st.booleans()), min_size=1, max_size=8),
)
def test_kept_analyzer_pairs_give_the_bits_of_a_fresh_computation(states, angle_sets, tols, calls):
    # A sequence of two-photon calls over a few states, angle sets and tols, so
    # consecutive calls share some inputs, all of them or none: no call depends on
    # the ones before it, so each result equals its repeat and the frozen oracle.
    for s, a, t, gamma1, gamma2, composite in calls:
        state, angles, tol = states[s % len(states)], angle_sets[a % len(angle_sets)], tols[t % len(tols)]
        if composite:
            def run():
                return standard_composite(*angles, state=state, tol=tol).tables
            want = oracle_standard_composite(angles, state, tol)
        else:
            config = AspectConfig(gamma1, gamma2, *angles, state=state)

            def run():
                return [joint_probabilities(config, tol)]
            want = [oracle_joint_probabilities(config, tol)]
        got, fresh = run(), run()
        for g, f, w in zip(got, fresh, want, strict=True):
            assert_same_bits(g.values, f.values)
            assert_same_bits(g.values, w.values)
            assert (g.axis_labels, g.tol) == (f.axis_labels, f.tol) == (w.axis_labels, w.tol)


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
    shape=st.one_of(st.none(), index_shapes),
    dim=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tols=st.tuples(*[st.sampled_from([1e-12, 1e-9, 1e-6])] * 2),
)
def test_born_table_is_byte_identical_to_the_frozen_constructor_route(data, shape, dim, seed, tols):
    # Flat measures, and multi-index ones labelled by a grid, by positions or by
    # flat names, on random states: values and axis labels as the floor check and
    # the public constructor gave them, and the derived tol d (tol_M + tol_rho).
    rng = np.random.default_rng(seed)
    if shape is None:
        n, labels = data.draw(st.integers(min_value=1, max_value=5)), None
    else:
        n, labels = math.prod(shape), drawn_labels(data, shape)
    measure = PovmMeasure(random_measure(rng, n, dim, projective=False), labels=labels,
                          index_shape=shape, tol=tols[0])
    rho = State(random_density_matrix(dim, rng).matrix, tol=tols[1])
    got, want = born_probabilities(measure, rho), oracle_born_probabilities(measure, rho)
    assert_same_bits(got.values, want.values)
    assert got.values.flags.c_contiguous and not got.values.flags.writeable
    assert (got.axis_labels, got.tol) == (want.axis_labels, dim * (tols[0] + tols[1]))


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
    # A marginal carries tol times the cells summed into each of its cells, and is valid there.
    assert marg.tol == TOL * math.prod(shape[ax] for ax in dropped)
    ProbabilityTable(marg.values, axis_labels=marg.axis_labels, tol=marg.tol)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    edge_share=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    total_edge=st.sampled_from([-0.9, 0.0, 0.9]),
)
def test_joint_marginals_are_valid_at_the_tol_they_carry(seed, edge_share, total_edge):
    # The edge family above on (2, 2, 2, 2) joints: every table marginal and every
    # setting-pair set passes its own constructor at the tol it carries.
    rng = np.random.default_rng(seed)
    values = rng.random(16)
    values /= values.sum()
    keeper = int(np.argmax(values))
    edge = rng.random(16) < edge_share
    edge[keeper] = False
    values[edge] = -0.9 * TOL
    values[keeper] += 1.0 + total_edge * TOL * 16 - values.sum()
    joint = ProbabilityTable(values.reshape(2, 2, 2, 2), tol=TOL)

    for keep in itertools.chain.from_iterable(itertools.combinations(range(4), r) for r in range(5)):
        marg = joint.marginal(keep)
        assert marg.tol == TOL * 2 ** (4 - len(keep))
        ProbabilityTable(marg.values, tol=marg.tol)
    marginals = MarginalSet.from_quadrivariate(joint)
    assert marginals.tol == 4 * TOL
    assert all(table.tol == 4 * TOL for table in marginals.tables())
    MarginalSet(*marginals.values, tol=marginals.tol)


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


# -- (g) the stack validator against the per-element oracle -----------------

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
def test_stack_validator_equals_per_element_oracle(
    seed, kind, projective, dim, n_elements, spare, batch
):
    # One defect kind per stack, at a drawn edge scale per measure, so a stack
    # can fail on one predicate alone.
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


# -- (i) a nonideality matrix's columns go through the one table rule ----------

def first_column_error(matrix):
    """The table constructor's reason for the first column it rejects, named as the matrix names it."""
    for j, column in enumerate(matrix.T):
        try:
            ProbabilityTable(column, tol=TOL)
        except ValidationError as exc:
            return f"nonideality matrix column {j} " + str(exc).removeprefix("probability table ")
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    shape=st.tuples(*(st.integers(min_value=1, max_value=3),) * 2),
    defects=st.lists(st.tuples(st.sampled_from(["negative", "column-sum", "nan", "inf", "overflow"]),
                               st.sampled_from(EDGE_SCALES)), max_size=2),
)
def test_nonideality_matrix_accepts_exactly_the_columns_the_table_rule_accepts(seed, shape, defects):
    # Each defect puts one entry just inside or just outside the bound of one test.
    rng = np.random.default_rng(seed)
    matrix = rng.dirichlet(np.ones(shape[0]), size=shape[1]).T
    # Two defects on one entry may stack into inf or nan, and the frozen check's column
    # sums may overflow; the library itself must warn about none of it.
    with np.errstate(over="ignore", invalid="ignore"):
        for kind, scale in defects:
            i, j = (int(rng.integers(size)) for size in shape)
            if kind == "negative":
                shift = matrix[i, j] - scale * TOL
                matrix[i, j] -= shift
                matrix[(i + 1) % shape[0], j] += shift
            elif kind == "column-sum":
                matrix[i, j] += scale * max(TOL, TOL * shape[0])
            elif kind == "overflow":
                matrix[i, j] = matrix[(i + 1) % shape[0], j] = 1e308
            else:
                matrix[i, j] = np.nan if kind == "nan" else np.inf
        oracle_accepts = oracle_stochastic_violation(matrix[None], TOL) is None
    want = first_column_error(matrix)
    assert (want is None) == oracle_accepts
    try:
        NonidealityMatrix(matrix, tol=TOL)
        got = None
    except ValidationError as exc:
        got = str(exc)
    assert got == want


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
def fine_boxes(draw, kinds=("signed zero", "near boundary", "signaling", "mixture")):
    """Raw ``(4, 2, 2)`` boxes for the Fine decision, each kind aimed at one route.

    ``negative`` moves a kept zero cell to ``-0.9 tol`` with margins kept, so
    the box is decided by its white-noise mixture at ``nu = 0.9 tol``;
    ``signed zero`` writes zero cells as -0.0; ``near boundary`` is a PR
    mixture within about 1e-6 of |S| = 2; ``signaling`` draws four unrelated
    tables; ``mixture`` is a PR mixture at any weight.  Only ``negative``
    draws a cell below zero.
    """
    kind = draw(st.sampled_from(kinds))
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


def with_pivots(decide, marginals):
    """``decide(marginals)`` and the bytes of every tableau ``feasibility._pivot`` got meanwhile."""
    pivoted = []
    with pytest.MonkeyPatch.context() as patch:
        pivot = feasibility._pivot
        patch.setattr(feasibility, "_pivot",
                      lambda tableau, *args: pivoted.append(tableau.tobytes()) or pivot(tableau, *args))
        return decide(marginals), pivoted


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(box=fine_boxes())
@example(box=SIGNED_ZERO_BOX)
def test_fine_decision_is_byte_identical_to_the_frozen_oracle(box):
    # Boxes with no cell below zero: the white-noise mixture is the box itself.
    marginals = MarginalSet(*box, tol=TOL)
    got, pivoted = with_pivots(lambda m: decision_outcome(joint_exists, m), marginals)
    assert got == decision_outcome(oracle_joint_exists, marginals)
    if pivoted:
        rhs = np.append(marginals.values, 1.0).take(_KEEP)
        assert pivoted == [feasibility._phase1_tableau(_REDUCED, rhs).tobytes()]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(box=fine_boxes(kinds=("negative",)))
def test_negative_cell_decision_equals_the_exact_mixture_decision(box):
    # A cell in [-tol, 0) is decided on b' = (b + nu) / (1 + 4 nu): outside the band as exact
    # arithmetic decides it, with the tableau phase1_simplex builds for b + nu.
    marginals = MarginalSet(*box, tol=TOL)
    decision, pivoted = with_pivots(joint_exists, marginals)
    feasible, _ = exact_joint_exists(box)
    assert decision.boundary or decision.feasible == feasible
    nu = -float(box.min())
    rhs = np.append(box + nu, 1.0 + 4.0 * nu).take(_KEEP)
    assert pivoted == [feasibility._phase1_tableau(_REDUCED, rhs).tobytes()]
    if decision.feasible:
        assert np.abs(MarginalSet.from_quadrivariate(decision.joint).values - box).max() <= TOL
        assert decision.joint.values.min() >= -nu / 4.0


def test_valid_boxes_never_build_a_tableau(monkeypatch):
    # Every valid box, cells in [-tol, 0) included, shares the prebuilt tableau; it is
    # copied, never written.
    def refuse(*args):
        raise AssertionError("the generic tableau setup ran")

    monkeypatch.setattr(feasibility, "_phase1_tableau", refuse)
    template = feasibility._TABLEAU
    before = template.tobytes()
    rng = np.random.default_rng(19)
    boxes = [SIGNED_ZERO_BOX, local_box(rng), NEGATIVE_CELL_BOX] + [
        mix_marginals(pr_box_marginals(), random_no_signaling_marginals(rng), w).values
        for w in np.linspace(0.0, 1.0, 30)] + [
        (1.0 + 4.0 * nu) * pr_box_marginals().values - nu for nu in (1e-10, 1e-9)]
    decisions = [joint_exists(MarginalSet(*box)) for box in boxes]
    assert {d.feasible for d in decisions} == {True, False}
    assert decisions[2].feasible and not decisions[-1].feasible
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


# -- (t) the accept-first table pass accepts exactly what its oracle accepts ----

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


# -- (v) the Fine decision against exact arithmetic at |S| = 2 -------------------

#: White noise of the shifted pinned boxes: 2^-31 < tol, so a cell reads -4.7e-10.
SHIFT_NU = Fraction(1, 2**31)


@st.composite
def rational_boxes(draw, pinned):
    """``(4, 2, 2)`` no-signaling boxes from rational means and correlators.

    A table of means ``x``, ``y`` and correlator ``E`` holds ``(1 + a x + b y + a b E) / 4`` at
    outcomes ``a, b = +-1``, nonnegative for ``E`` in ``[-1 + |x + y|, 1 - |x - y|]``.  One
    CHSH placement is set to a target ``T`` by drawing three correlators, each within what
    leaves ``T`` reachable, and solving for the fourth.  ``pinned`` boxes are dyadic, so every
    cell is a float, with ``|T| = 2``; half of those with a zero cell are shifted to
    ``(1 + 4 nu) b - nu``, whose white-noise mixture is ``b``.  Other boxes draw any rational
    ``T`` in ``[-4, 4]``, most within 2e-6 of +-2, and round each cell to the nearest float.
    """
    def fraction(scale):
        den = 16 if pinned else draw(st.integers(1, 97))
        return Fraction(draw(st.integers(0, den)), den) * scale

    means = [fraction(2) - 1 for _ in range(4)]  # A, A', B, B'
    pairs = [(means[x], means[y]) for x in (0, 1) for y in (2, 3)]
    signs = draw(st.sampled_from(CHSH_SIGN_PATTERNS))
    # The range of sign * E of each pair, then T.
    spans = [sorted((s * (abs(x + y) - 1), s * (1 - abs(x - y)))) for s, (x, y) in zip(signs, pairs)]
    offset = Fraction(0) if pinned else fraction(4) - 2
    target = (2 + offset / 10 ** draw(st.integers(0, 12))) * draw(st.sampled_from((1, -1)))
    shifted = pinned and draw(st.booleans())
    terms, rest = [], target
    for k in range(3):
        lo = max(spans[k][0], rest - sum(hi for _, hi in spans[k + 1:]))
        hi = min(spans[k][1], rest - sum(lo for lo, _ in spans[k + 1:]))
        assume(lo <= hi)
        # At an end of the first term's range some table reaches a zero cell.
        step = Fraction(draw(st.integers(0, 1))) if shifted and k == 0 else fraction(1)
        terms.append(lo + (hi - lo) * step)
        rest -= terms[-1]
    correlators = [s * t for s, t in zip(signs, terms + [rest])]
    cells = [(1 + a * x + b * y + a * b * e) / 4
             for (x, y), e in zip(pairs, correlators) for a in (1, -1) for b in (1, -1)]
    if shifted:
        assert min(cells) == 0
        cells = [(1 + 4 * SHIFT_NU) * c - SHIFT_NU for c in cells]
    box = np.array([float(c) for c in cells]).reshape(4, 2, 2)
    if pinned:
        assert [Fraction(v) for v in box.ravel()] == cells
    return box


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
@pytest.mark.parametrize("family", ["pinned", "rational", "negative cell"])
def test_fine_decision_agrees_with_exact_arithmetic_at_the_boundary(family, data):
    # The decision outside the band and the band at exact |S| = 2 follow exact arithmetic on
    # the floats given, and the reported |S| is within 8 ulps of 2.0 of its exact value.
    if family == "negative cell":
        box = data.draw(fine_boxes(kinds=("negative",)))
    else:
        box = data.draw(rational_boxes(pinned=family == "pinned"))
    decision = joint_exists(MarginalSet(*box, tol=TOL))
    feasible, s = exact_joint_exists(box)
    # |S(b)| is (1 + 4 nu) |S(b')|: b + nu has the correlators of b.
    nu = max(Fraction(0), -min(Fraction(v) for v in box.ravel()))
    ulps = Fraction(8 * np.spacing(2.0))
    assert abs(Fraction(decision.chsh.max_abs) - (1 + 4 * nu) * s) <= ulps
    if family == "pinned":
        assert s == 2
    if s == 2:
        assert decision.boundary
    # Twice the ulps above cover the rounding of |S(b')| in the float route.
    if abs(s - 2) > Fraction(max(TOL, BOUNDARY_TOL)) + 2 * ulps:
        assert not decision.boundary and decision.feasible == feasible


# -- (w) the interference filter against the generic check -----------------------

INTERFERENCE_FILTER_TOLS = {"1e-9": 1e-9, "1e-12": 1e-12, "1e-15": 1e-15, "rounding": INTERFERENCE_ROUNDING,
                            "rounding+4u": INTERFERENCE_ROUNDING + 4 * 2.0**-53, "1e-300": 1e-300}

#: Absorbers at and next to both ends of [0, 1], where a bivariate cell's eigenvalue and total
#: round the most, and between them.
FILTER_ABSORBERS = [0.0, 5e-324, 1e-300, 1e-9, 0.25, 0.5, 0.9, 0.999999, 1.0 - 1e-16, 1.0]


@pytest.fixture(scope="module")
def interference_filter_phases() -> list[float]:
    """101,008 seeded phases: uniform in +-10 and in +-1e6, magnitudes log-uniform from 1e-300
    to 1e6 with either sign, multiples of pi/4 up to 1e6, signed zeros and subnormals.

    They are ordered by the filter's bound, so each chunk of 256 holds PVMs of one rounding
    but at the borders between them.
    """
    rng = np.random.default_rng(32)
    magnitudes = 10.0 ** rng.uniform(-300.0, 6.0, 25_000) * rng.choice([-1.0, 1.0], 25_000)
    steps = np.concatenate([np.arange(-2_000, 2_001), np.round(np.geomspace(2e3, 1.27e6, 1_000))])
    quarters = np.concatenate([steps, -steps[4_001:]]) * (np.pi / 4)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2e-308, -1e-300]
    phases = np.concatenate([rng.uniform(-10.0, 10.0, 40_000), rng.uniform(-1e6, 1e6, 30_000),
                             magnitudes, quarters, edges])
    bounds = [srt._interference_projectors(chi)[1] for chi in phases.tolist()]
    return phases[np.argsort(bounds, kind="stable")].tolist()


def raised(build):
    """The message of the ``ValidationError`` that ``build()`` raises, or None."""
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("tol", INTERFERENCE_FILTER_TOLS.values(), ids=INTERFERENCE_FILTER_TOLS.keys())
def test_the_interference_filter_decides_as_the_generic_check(interference_filter_phases, tol):
    # interference_pvm raises exactly when the generic check rejects the PVM, with its message;
    # every bivariate stack on a PVM the filter accepts passes the generic check; and on every
    # 500th phase the sweep's rows or error equal the frozen pipeline's.  The filter's bound is
    # at least 6 units of 2**-53, so at the two smallest tols it accepts nothing and every
    # interference_pvm call runs the generic check: every 20th phase keeps the run short.
    phases = interference_filter_phases if tol > 6 * 2.0**-53 else interference_filter_phases[::20]
    for start in range(0, len(phases), 256):
        chunk = phases[start:start + 256]
        built = [srt._interference_projectors(chi) for chi in chunk]
        invalid = _stack_violations(np.array([q for q, _ in built]), tol, True)
        for i, chi in enumerate(chunk):
            assert raised(lambda: interference_pvm(chi, tol)) == ("; ".join(invalid[(i,)]) if (i,) in invalid
                                                                    else None)
        accepted = np.array([q for q, bound in built if bound <= tol]).reshape(-1, 2, 2, 2)
        # The builder is elementwise, so one call builds every accepted PVM's stack at once.
        stacks = srt._bivariate_stack(FILTER_ABSORBERS * len(accepted),
                                      np.repeat(accepted, len(FILTER_ABSORBERS), axis=0).swapaxes(0, 1))
        assert _stack_violations(stacks, tol) == {}
        # srt_povm's stack: the two detector cells and twice an absorption cell.
        assert _stack_violations(np.concatenate([stacks[:, :2], 2.0 * stacks[:, 2:3]], axis=1), tol) == {}
    for chi in interference_filter_phases[::500]:
        got, want = (sweep_outcome(functools.partial(sweep, tol=tol), FILTER_ABSORBERS, chi)
                     for sweep in (tradeoff_sweep, oracle_tradeoff_sweep))
        assert got == want


def test_the_sweep_bound_is_martens_bound_bit_for_bit(interference_filter_phases):
    # At the default tol the filter accepts every phase, and the sweep reads the bound off the
    # interference projectors' diagonal; it must equal the generic overlap maximum's bits.
    path = path_pvm()
    for chi in interference_filter_phases[::10]:
        (point,) = tradeoff_sweep([0.5], chi)
        assert point.bound.hex() == martens_bound(path, interference_pvm(chi)).hex()


def test_srt_povm_is_bit_identical_to_the_constructor_route():
    # The filter route keeps the elements the constructor took, the detector cells and the sum
    # of the two absorption cells, and raises the constructor's message where the filter cannot vouch.
    for absorber, phase in itertools.product(FILTER_ABSORBERS, [0.0, 0.1, -2.5, np.pi / 4, 1e6]):
        m1, m2, absorbed_1, absorbed_2 = srt._bivariate_stack([absorber], srt._interference_projectors(phase)[0])[0]
        config = SrtConfig(absorber, phase)
        for tol in (1e-9, 2.0**-52, 1e-300):
            want = raised(lambda: PovmMeasure([m1, m2, absorbed_1 + absorbed_2], labels=("1", "2", "3"), tol=tol))
            assert raised(lambda: srt_povm(config, tol)) == want
            if want is None:
                got = srt_povm(config, tol)
                assert_same_bits(got.stack(), np.array([m1, m2, absorbed_1 + absorbed_2]))
                assert (got.labels, got.index_shape, got.tol) == (("1", "2", "3"), None, tol)


# -- (x) derived tolerances of Born tables and reconstructions ----------------------

def edge_multiple(accepts, tol: float) -> float:
    """The largest ``t`` that ``accepts`` takes, by doubling from ``tol`` and 40 bisections."""
    low, high = 0.0, tol
    while accepts(high):
        low, high = high, 2.0 * high
    for _ in range(40):
        middle = (low + high) / 2.0
        low, high = (middle, high) if accepts(middle) else (low, middle)
    return low


def edge_direction(rng, dim: int, count: int, anti_hermitian: bool) -> np.ndarray:
    """``count`` random Hermitian matrices, or ``-I`` each, with an optional anti-Hermitian part; max entry 1."""
    if rng.random() < 0.25:
        direction = np.broadcast_to(-np.eye(dim, dtype=complex), (count, dim, dim)).copy()
    else:
        direction = np.array([random_hermitian(dim, rng) for _ in range(count)])
    if anti_hermitian and rng.random() < 0.5:
        direction = direction + 1j * np.array([random_hermitian(dim, rng) for _ in range(count)])
    return direction / np.abs(direction).max()


def test_born_tables_of_edge_inputs_pass_at_the_tol_they_carry():
    # 1,200 seeded draws: d in 2-4, K in 1-4, a POVM that splits a random basis PVM by random
    # weights and a pure state, each pushed along a random direction to the largest multiple its
    # own validator accepts at a tol log-uniform in [1e-12, 1e-6].  Every Born table builds and
    # passes the table constructor at the tol it carries, d (tol_M + tol_rho).
    rng = np.random.default_rng(9)
    for _ in range(1_200):
        dim, n_outcomes = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        tol_m, tol_rho = 10.0 ** rng.uniform(-12.0, -6.0, 2)
        basis = random_unitary(dim, rng)
        projectors = np.einsum("ai,bi->iab", basis, basis.conj())
        weights = rng.dirichlet(np.ones(n_outcomes), dim).T
        base = np.einsum("ki,iab->kab", weights, projectors)
        direction = edge_direction(rng, dim, n_outcomes, anti_hermitian=True)
        t = edge_multiple(lambda t: _stack_violations(base + t * direction, tol_m) == {}, tol_m)
        measure = PovmMeasure(base + t * direction, tol=tol_m)
        pure = random_pure_state(dim, rng).matrix
        direction = edge_direction(rng, dim, 1, anti_hermitian=False)[0]
        t = edge_multiple(lambda t: raised(lambda: State(pure + t * direction, tol=tol_rho)) is None, tol_rho)
        table = born_probabilities(measure, State(pure + t * direction, tol=tol_rho))
        assert table.tol == dim * (tol_m + tol_rho)
        ProbabilityTable(table.values, tol=table.tol)


def test_tomography_of_perturbed_born_tables_reconstructs():
    # 1,200 seeded draws: Born tables of pure states on the tetrahedral POVM, each moved by a
    # zero-sum perturbation whose largest cell is 0.9e-9, so each is valid at 1e-9.  Every one
    # reconstructs, and the state passes its own constructor at the tol it carries.
    rng = np.random.default_rng(3)
    tetra = tetrahedral_qubit_povm()
    for _ in range(1_200):
        exact = born_probabilities(tetra, random_pure_state(2, rng)).values
        shift = rng.normal(size=4)
        shift -= shift.mean()
        state = reconstruct_state(tetra, ProbabilityTable(exact + shift * (0.9e-9 / np.abs(shift).max())))
        State(state.matrix, tol=state.tol)


# -- (y) the short-axis reductions against numpy's own and the frozen kernels ------

#: Entries where a reduction's bits can differ: signed zeros, subnormals, 1 +- ulp, entries
#: whose sums overflow, infinities and NaN.
REDUCE_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53,
                -1.0, 1e-300, 1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan)


def reduction_outcome(reduce):
    """The dtype, shape and bytes of ``reduce()``, or its error type and message."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = np.asarray(reduce())
    except ValueError as exc:
        return ValueError, str(exc)
    return result.dtype, result.shape, result.tobytes()


def edge_array(seed, shape, edge_share, layout):
    """Random entries of mixed scale, a share of them ``REDUCE_EDGES``, in C or Fortran order or as a strided view."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    x = np.where(rng.random(shape) < edge_share, rng.choice(REDUCE_EDGES, size=shape), x)
    if layout == "F":
        return np.asfortranarray(x)
    return np.repeat(x, 2, axis=0)[::2] if layout == "strided" else x


#: Row axes on both sides of the helper's 64-row switch.
ROW_SIZES = (1, 2, 3, 4, 63, 64, 101)


@settings(max_examples=1_200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=0, max_value=9),
       rows=st.lists(st.sampled_from(ROW_SIZES), max_size=2),
       edge_share=st.sampled_from([0.0, 0.3, 1.0]), layout=st.sampled_from(["C", "F", "strided"]))
def test_short_axis_reductions_have_numpys_bits(seed, n, rows, edge_share, layout):
    # From 64 rows of up to 7 entries the helper's slice arithmetic must give the bits of numpy's
    # own reduction, sign bit and NaN included; fewer rows and a longer or empty axis go to numpy
    # (the maximum of an empty axis raises numpy's error).
    x = edge_array(seed, (*rows, n), edge_share, layout)
    for ufunc, data, method in ((np.add, x, "sum"), (np.maximum, x, "max"),
                                (np.logical_and, np.isfinite(x), "all")):
        assert (reduction_outcome(lambda: _reduce_trailing(ufunc, data))
                == reduction_outcome(lambda: getattr(data, method)(axis=-1)))


@settings(max_examples=1_000, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), stack=st.lists(st.sampled_from(ROW_SIZES), max_size=2),
       matrix=st.tuples(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)),
       zero_share=st.sampled_from([0.0, 0.3, 1.0]), layout=st.sampled_from(["C", "F", "strided"]))
def test_row_entropies_equal_the_frozen_kernel_bit_for_bit(seed, stack, matrix, zero_share, layout):
    # Nonnegative entries of every scale, with zeros of either sign, subnormals, 1 +- ulp and
    # entries a few tol below 0 that the entropy clips; Fortran order is what a transposed
    # matrix passed to nonideality_entropy gives.
    rng = np.random.default_rng(seed)
    shape = (*stack, *matrix)
    m = np.abs(rng.normal(size=shape)) * 10.0 ** rng.integers(-8, 2, size=shape)
    edges = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, -1e-9]
    m = np.where(rng.random(shape) < zero_share, rng.choice(edges, size=shape), m)
    m = np.asfortranarray(m) if layout == "F" else np.repeat(m, 2, axis=-1)[..., ::2] if layout == "strided" else m
    assert np.asarray(_row_entropy(m)).tobytes() == np.asarray(oracle_row_entropy(m)).tobytes()


def near_total_tables(seed, n_tables, size, offsets, layout):
    """``n_tables`` tables of ``size`` entries whose totals sit ``offset`` bounds (plus a few ulps) from 1,
    some with an entry near ``-TOL``."""
    rng = np.random.default_rng(seed)
    bound = max(TOL, TOL * size)
    stack = rng.dirichlet(np.ones(size), n_tables)
    for table, offset in zip(stack, itertools.cycle(offsets)):
        k = int(rng.integers(size))
        table[k] += offset * bound + int(rng.integers(-3, 4)) * 2.0**-52
        if size > 1 and rng.random() < 0.3:
            table[(k + 1) % size] += table[k - 1] + float(rng.choice([0.9, 1.0, 1.1])) * TOL
            table[k - 1] = -float(rng.choice([0.9, 1.0, 1.1])) * TOL
    return np.asfortranarray(stack) if layout == "F" else stack


@settings(max_examples=1_000, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n_tables=st.sampled_from([1, 2, 5, 63, 64, 404]),
       size=st.integers(min_value=1, max_value=9),
       offsets=st.lists(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5]), min_size=1, max_size=3),
       layout=st.sampled_from(["C", "F"]))
def test_table_accept_pass_decides_as_its_frozen_copy(seed, n_tables, size, offsets, layout):
    # Totals at, next to and beyond the bound, in the (N, 2) column layout of the sweep's
    # nonideality matrices and in longer rows: the whole-stack pass accepts exactly the
    # stacks its frozen copy accepted.
    stack = near_total_tables(seed, n_tables, size, offsets, layout)
    try:
        _table_violation(stack.view(_NoTableLoop), TOL)
        accepted = True
    except LookupError:
        accepted = False
    assert accepted == oracle_table_accept_pass(stack, TOL)
