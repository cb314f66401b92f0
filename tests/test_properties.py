"""Property tests of the stacked kernels against their per-point references."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from povmkit import (
    AspectConfig,
    MarginalSet,
    ProbabilityTable,
    State,
    SrtConfig,
    bell_state,
    born_probabilities,
    check_martens,
    joint_probabilities,
    interference_pvm,
    joint_exists,
    path_pvm,
    povm_violations,
    pvm_violations,
    quadrivariate_povm,
    solve_nonideality,
    srt_bivariate,
    standard_composite,
    tradeoff_sweep,
)
from povmkit.measures import _stack_violations
from povmkit.sampling import mix_marginals, pr_box_marginals, random_no_signaling_marginals

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
    decision = joint_exists(marginals, tol=TOL)
    assert decision.feasible or not explicit
    if decision.feasible:
        witness = decision.joint.values
        assert witness.min() >= 0.0
        for table, axes in zip(marginals.tables(), ((0, 2), (0, 3), (1, 2), (1, 3))):
            dropped = tuple(ax for ax in range(4) if ax not in axes)
            assert np.max(np.abs(witness.sum(axis=dropped) - table.values)) <= TOL
