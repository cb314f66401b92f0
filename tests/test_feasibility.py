from fractions import Fraction

import numpy as np
import pytest

from povmkit import (
    DimensionMismatchError,
    MarginalSet,
    NoSignalingError,
    ProbabilityTable,
    ValidationError,
    bell_state,
    check_no_signaling,
    chsh_value,
    joint_exists,
    joint_probabilities,
    phase1_simplex,
    standard_composite,
)
from povmkit import feasibility
from povmkit.sampling import (
    mix_marginals,
    pr_box_marginals,
    random_density_matrix,
    random_no_signaling_marginals,
)
from helpers import NEGATIVE_CELL_BOX, TSIRELSON, TSIRELSON_ANGLES, exact_joint_exists, make_config


def white_noise_shifted_box(rng):
    """``(1 + 4 nu) base - nu`` with ``nu`` uniform in ``[0, 1e-9]``: cells down to ``-nu``.

    ``base = (1 - w) det + w noise``: ``det`` a random deterministic box,
    ``noise`` the PR box or the uniform one, and ``w`` one of 0, 1 or uniform
    in ``(0, 1)``.  Its nearest nonnegative white-noise mixture is ``base``
    whenever ``base`` has a zero cell.
    """
    a, ap, b, bp = rng.integers(2, size=4)
    det = np.zeros((4, 2, 2))
    for table, cell in zip(det, ((a, b), (a, bp), (ap, b), (ap, bp))):
        table[cell] = 1.0
    noise = pr_box_marginals().values if rng.integers(2) else np.full((4, 2, 2), 0.25)
    w = (0.0, 1.0, rng.random())[rng.integers(3)]
    nu = rng.uniform(0.0, 1e-9)
    return (1.0 + 4.0 * nu) * ((1.0 - w) * det + w * noise) - nu


def product_coin_marginals(p_a=0.3, p_ap=0.6, p_b=0.7, p_bp=0.45):
    """Independent biased coins: a product joint trivially exists."""

    def table(p, q):
        return ProbabilityTable(
            [[p * q, p * (1 - q)], [(1 - p) * q, (1 - p) * (1 - q)]]
        )

    return MarginalSet(
        ab=table(p_a, p_b),
        abp=table(p_a, p_bp),
        apb=table(p_ap, p_b),
        apbp=table(p_ap, p_bp),
    )


class TestMarginalSet:
    def test_from_quadrivariate_matches_manual_sums(self, rng):
        raw = rng.random((2, 2, 2, 2))
        raw /= raw.sum()
        joint = ProbabilityTable(raw)
        marginals = MarginalSet.from_quadrivariate(joint)
        assert np.allclose(marginals.ab.values, raw.sum(axis=(1, 3)))
        assert np.allclose(marginals.abp.values, raw.sum(axis=(1, 2)))
        assert np.allclose(marginals.apb.values, raw.sum(axis=(0, 3)))
        assert np.allclose(marginals.apbp.values, raw.sum(axis=(0, 2)))

    def test_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            MarginalSet.from_quadrivariate(ProbabilityTable(np.full((2, 2), 0.25)))

    def test_from_quadrivariate_carries_four_times_the_joint_tol(self):
        # Four joint cells at -0.9 tol under the AB cell (1, 1) sum to -3.6 tol.
        raw = np.zeros((2, 2, 2, 2))
        raw[1, :, 1, :] = -0.9e-9
        raw[raw == 0.0] = (1.0 + 3.6e-9) / 12
        marginals = MarginalSet.from_quadrivariate(ProbabilityTable(raw))
        assert marginals.ab.values[1, 1] == pytest.approx(-3.6e-9, rel=1e-12)
        assert marginals.tol == 4e-9
        assert all(table.tol == 4e-9 for table in marginals.tables())
        rebuilt = MarginalSet(*marginals.values, tol=marginals.tol)
        assert np.array_equal(rebuilt.values, marginals.values)
        assert joint_exists(marginals).feasible

    @pytest.mark.parametrize("raw", [[0.25] * 4, np.full((1, 4), 0.25), np.full((2, 2, 1), 0.25)])
    def test_raw_arrays_shape_checked(self, raw):
        good = np.full((2, 2), 0.25)
        with pytest.raises(DimensionMismatchError, match="expected a 2x2 table"):
            MarginalSet(raw, raw, raw, raw)
        with pytest.raises(DimensionMismatchError, match="expected a 2x2 table"):
            MarginalSet(good, good, good, raw)

    def test_unreadable_table_raises_validation_error(self):
        good = [[0.25, 0.25], [0.25, 0.25]]
        with pytest.raises(ValidationError, match="probability table cannot be read"):
            MarginalSet.from_tables([good, good, good, [[10**400, 0], [0, 0]]])

    @pytest.mark.parametrize("name", ["values", "tol"])
    def test_fields_cannot_be_reassigned(self, name):
        uniform = np.full((2, 2), 0.25)
        marginals = MarginalSet(uniform, uniform, uniform, uniform)
        with pytest.raises(AttributeError):
            setattr(marginals, name, getattr(marginals, name))
        assert not marginals.values.flags.writeable


class TestNoSignaling:
    def test_quantum_marginals_pass(self):
        joint = joint_probabilities(make_config(0.3, 0.8))
        report = check_no_signaling(MarginalSet.from_quadrivariate(joint))
        assert report.passed
        assert report.max_discrepancy < 1e-12

    def test_handcrafted_violation_detected(self):
        biased_06 = ProbabilityTable([[0.3, 0.3], [0.2, 0.2]])  # A marginal 0.6
        biased_04 = ProbabilityTable([[0.2, 0.2], [0.3, 0.3]])  # A marginal 0.4
        uniform = ProbabilityTable(np.full((2, 2), 0.25))
        marginals = MarginalSet(ab=biased_06, abp=biased_04, apb=uniform, apbp=uniform)
        report = check_no_signaling(marginals)
        assert not report.passed
        assert report.discrepancies["A"] == pytest.approx(0.2, abs=1e-12)

    def test_uniform_tables_pass(self):
        uniform = ProbabilityTable(np.full((2, 2), 0.25))
        report = check_no_signaling(MarginalSet(uniform, uniform, uniform, uniform))
        assert report.passed


class TestSimplex:
    def test_solvable_system(self):
        a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 1.5])
        optimum, x = phase1_simplex(a, b)
        assert optimum <= 1e-12
        assert np.allclose(a @ x, b)
        assert x.min() >= 0.0

    def test_unsolvable_system(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold.
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        optimum, _ = phase1_simplex(a, b)
        assert optimum > 0.5

    def test_nonnegativity_binding(self):
        # Sum must be -1: impossible with nonnegative variables.
        a = np.array([[1.0, 1.0]])
        b = np.array([-1.0])
        optimum, _ = phase1_simplex(a, b)
        assert optimum > 0.5

    @pytest.mark.parametrize(
        "constraints, rhs, name",
        [
            ([[np.nan, 1.0, 1.0], [1.0, 0.0, 2.0]], [1.0, 1.0], "constraint matrix"),
            ([[np.inf, 1.0]], [1.0], "constraint matrix"),
            ([[1.0, 1.0]], [np.nan], "rhs"),
        ],
        ids=["nan-constraint", "inf-constraint", "nan-rhs"],
    )
    def test_non_finite_input_is_rejected_before_any_pivot(self, constraints, rhs, name):
        with pytest.raises(ValidationError, match=f"^{name} has non-finite entries$"):
            phase1_simplex(constraints, rhs)


class TestEquationStructure:
    def test_kept_rows_span_every_equation(self):
        rank = np.linalg.matrix_rank(feasibility._EQUATIONS)
        assert rank == 9
        assert np.linalg.matrix_rank(feasibility._EQUATIONS[list(feasibility._KEEP)]) == rank

    def test_kept_rows_are_the_pivoted_qr_selection(self):
        # The rows a column-pivoted QR of the transpose picks, so the simplex
        # sees the same reduced system as a per-call rank reduction would.
        import scipy.linalg

        _, r, pivots = scipy.linalg.qr(feasibility._EQUATIONS.T, pivoting=True)
        diagonal = np.abs(np.diag(r))
        rank = int(np.sum(diagonal > diagonal[0] * 1e-12))
        assert feasibility._KEEP == tuple(sorted(int(k) for k in pivots[:rank]))

    def test_rows_follow_table_order(self, rng):
        raw = rng.random((2, 2, 2, 2))
        raw /= raw.sum()
        marginals = MarginalSet.from_quadrivariate(ProbabilityTable(raw))
        expected = [t.values.reshape(-1) for t in marginals.tables()] + [[raw.sum()]]
        assert np.allclose(feasibility._EQUATIONS @ raw.reshape(-1), np.concatenate(expected))


class TestJointExists:
    def test_quantum_fixed_arrangement_is_feasible(self):
        joint = joint_probabilities(make_config(0.5, 0.5))
        decision = joint_exists(MarginalSet.from_quadrivariate(joint))
        assert decision.feasible
        assert decision.residual <= 1e-9
        witness = decision.joint
        recovered = MarginalSet.from_quadrivariate(witness)
        original = MarginalSet.from_quadrivariate(joint)
        for got, want in zip(recovered.tables(), original.tables()):
            assert np.max(np.abs(got.values - want.values)) <= 1e-9

    def test_limiting_composite_is_infeasible_with_certificate(self):
        result = standard_composite(*TSIRELSON_ANGLES)
        decision = joint_exists(MarginalSet.from_tables(result.tables))
        assert not decision.feasible
        signs, value = decision.certificate
        assert abs(value) == pytest.approx(TSIRELSON, abs=1e-9)
        assert abs(value) > 2.0

    def test_witness_carries_four_times_its_residual_as_tol(self):
        # At tol 1e-15 the LP residual of these coins (about 3.9e-16) still
        # decides feasible, and four times it exceeds tol, so the witness
        # table carries 4 * residual.
        coins = product_coin_marginals(0.1, 0.2, 0.3, 0.4)
        strict = MarginalSet(*(table.values for table in coins.tables()), tol=1e-15)
        decision = joint_exists(strict)
        assert decision.feasible
        assert 4 * decision.residual > 1e-15
        assert decision.joint.tol == max(1e-15, 4 * decision.residual)

    def test_product_coins_feasible(self):
        decision = joint_exists(product_coin_marginals())
        assert decision.feasible

    def test_pr_box_infeasible(self):
        decision = joint_exists(pr_box_marginals())
        assert not decision.feasible
        assert decision.certificate[1] == pytest.approx(4.0, abs=1e-12)

    def test_explicit_joint_always_feasible(self, rng):
        # Soundness: marginals extracted from an explicit joint table always
        # admit one (at least the table itself).
        for _ in range(100):
            raw = rng.random((2, 2, 2, 2))
            raw /= raw.sum()
            marginals = MarginalSet.from_quadrivariate(ProbabilityTable(raw))
            decision = joint_exists(marginals)
            assert decision.feasible
            assert decision.residual <= 1e-9

    def test_local_deterministic_vertex_is_boundary(self):
        # Perfectly correlated deterministic tables sit exactly on |S| = 2.
        deterministic = ProbabilityTable([[1.0, 0.0], [0.0, 0.0]])
        marginals = MarginalSet(*([deterministic] * 4))
        decision = joint_exists(marginals)
        assert decision.feasible
        assert decision.boundary

    def test_cell_below_zero_is_decided_on_its_white_noise_mixture(self):
        # nu = 9e-10: the LP solves the box plus nu, and the witness gives nu / 4 back per cell.
        decision = joint_exists(MarginalSet(*NEGATIVE_CELL_BOX))
        assert decision.feasible and not decision.boundary
        assert decision.residual <= 1e-15
        assert decision.joint.values.min() == pytest.approx(-9e-10 / 4, rel=1e-6)
        assert decision.chsh.max_abs == pytest.approx(3.6e-9)

    def test_chsh_route_reads_the_mixture_not_the_raw_box(self):
        # b' mixes perfect correlation with weight w of perfect anticorrelation: every
        # correlator is 1 - 2w, so |S(b')| = 2 - 4w = 2 - 2e-9, and each table keeps zero
        # cells, so nu is exactly 1e-9.  The raw box reads |S(b)| = (1 + 4 nu) |S(b')| > 2 + tol.
        w, nu = 5e-10, 1e-9
        box = (1.0 + 4.0 * nu) * np.array([[[1.0 - w, w], [0.0, 0.0]]] * 4) - nu
        marginals = MarginalSet(*box)
        decision = joint_exists(marginals)
        assert decision.chsh.max_abs > 2.0 + marginals.tol
        assert decision.feasible and not decision.boundary
        feasible, s = exact_joint_exists(box)
        assert feasible and abs(s - (2 - 4 * Fraction(w))) < 1e-15

    def test_white_noise_shifted_boxes_decide_their_mixture_exactly(self):
        rng = np.random.default_rng(22)
        band = max(1e-9, feasibility.BOUNDARY_TOL)
        decided = set()
        for _ in range(3000):
            marginals = MarginalSet(*white_noise_shifted_box(rng))
            decision = joint_exists(marginals)
            feasible, s = exact_joint_exists(marginals.values)
            if abs(abs(s - 2) - band) > 1e-12:  # clear of the band's own edge
                assert decision.boundary == (abs(s - 2) <= band)
            assert decision.boundary or decision.feasible == feasible
            decided.add((decision.feasible, decision.boundary))
        assert decided == {(True, True), (True, False), (False, False)}

    def test_classification_across_the_chsh_boundary(self):
        # Mixing the extremal box with white noise at weight w gives
        # |S| = 4w, crossing the local boundary at w = 1/2.
        uniform = ProbabilityTable(np.full((2, 2), 0.25))
        noise = MarginalSet(uniform, uniform, uniform, uniform)
        extremal = pr_box_marginals()

        inside = joint_exists(mix_marginals(extremal, noise, 0.5 - 1e-6))
        assert inside.feasible and not inside.boundary
        outside = joint_exists(mix_marginals(extremal, noise, 0.5 + 1e-6))
        assert not outside.feasible and not outside.boundary
        exact = joint_exists(mix_marginals(extremal, noise, 0.5))
        assert exact.boundary

    def test_no_signaling_checked_at_the_set_tolerance(self):
        # The A-marginals of AB and AB' differ by 1e-11.
        tables = [
            [[0.25 + 1e-11, 0.25], [0.25 - 1e-11, 0.25]],
            np.full((2, 2), 0.25),
            np.full((2, 2), 0.25),
            np.full((2, 2), 0.25),
        ]
        assert joint_exists(MarginalSet(*tables)).feasible
        with pytest.raises(NoSignalingError):
            joint_exists(MarginalSet(*tables, tol=1e-12))

    def test_set_carries_the_tolerance_its_tables_were_checked_at(self):
        # Each table is valid at 1e-6 with cells of -5e-7; at the set's own 1e-9
        # the witness check would reject the decision's own mixture.
        table = ProbabilityTable([[1 + 1.5e-6, -5e-7], [-5e-7, -5e-7]], tol=1e-6)
        marginals = MarginalSet(table, table, table, table, tol=1e-9)
        assert marginals.tol == 1e-6
        assert joint_exists(marginals).feasible
        assert MarginalSet(table, table, table, table, tol=1e-5).tol == 1e-5

    def test_mixture_carries_the_larger_tolerance(self):
        strict = pr_box_marginals(tol=1e-12)
        assert mix_marginals(strict, strict, 0.5).tol == 1e-12
        assert mix_marginals(strict, pr_box_marginals(tol=1e-7), 0.5).tol == 1e-7

    def test_no_signaling_violation_raises(self):
        biased_06 = ProbabilityTable([[0.3, 0.3], [0.2, 0.2]])
        biased_04 = ProbabilityTable([[0.2, 0.2], [0.3, 0.3]])
        uniform = ProbabilityTable(np.full((2, 2), 0.25))
        marginals = MarginalSet(ab=biased_06, abp=biased_04, apb=uniform, apbp=uniform)
        with pytest.raises(NoSignalingError):
            joint_exists(marginals)


class TestLpChshEquivalence:
    def test_random_no_signaling_boxes(self, rng):
        # joint_exists raises InternalConsistencyError on any disagreement
        # outside the boundary band, so a clean pass is the assertion.
        feasible = infeasible = 0
        for _ in range(300):
            marginals = random_no_signaling_marginals(rng)
            decision = joint_exists(marginals)
            feasible += decision.feasible
            infeasible += not decision.feasible
        assert feasible > 0

    def test_mixed_nonlocal_ensemble(self, rng):
        extremal = pr_box_marginals()
        feasible = infeasible = 0
        for _ in range(200):
            weight = rng.random()
            marginals = mix_marginals(extremal, random_no_signaling_marginals(rng), weight)
            decision = joint_exists(marginals)
            expected = chsh_value(marginals.tables()).max_abs <= 2.0 + 1e-9
            if not decision.boundary:
                assert decision.feasible == expected
            feasible += decision.feasible
            infeasible += not decision.feasible
        assert feasible > 10
        assert infeasible > 10

    def test_quantum_generated_marginals(self, rng):
        for _ in range(50):
            config = make_config(
                rng.random(),
                rng.random(),
                state=random_density_matrix(4, rng),
                angles=tuple(rng.uniform(0, np.pi, size=4)),
            )
            joint = joint_probabilities(config)
            decision = joint_exists(MarginalSet.from_quadrivariate(joint))
            assert decision.feasible


def test_composite_marginals_pass_no_signaling():
    # The four limiting experiments share their single-variable marginals,
    # so the composite is a well-posed marginal problem.
    result = standard_composite(*TSIRELSON_ANGLES, state=bell_state())
    report = check_no_signaling(MarginalSet.from_tables(result.tables))
    assert report.passed
    assert report.max_discrepancy < 1e-12
