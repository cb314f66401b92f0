import numpy as np
import pytest

from povmkit import (
    AspectConfig,
    DimensionMismatchError,
    ProbabilityTable,
    State,
    ValidationError,
    arm_povm,
    bell_state,
    chsh_value,
    correlator,
    joint_probabilities,
    polarization_pvm,
    quadrivariate_povm,
    solve_nonideality,
    standard_composite,
    tensor,
)
from povmkit.sampling import random_density_matrix

from helpers import TSIRELSON, TSIRELSON_ANGLES, make_config


class TestArmPovm:
    def test_transparent_mirror_marginals(self):
        povm = arm_povm(1.0, 0.3, 1.1)
        analyzer = polarization_pvm(0.3)
        direct = povm.marginal(keep=0)
        assert np.max(np.abs(direct.elements[0] - analyzer.elements[0])) < 1e-12
        assert np.max(np.abs(direct.elements[1] - analyzer.elements[1])) < 1e-12
        reflected = povm.marginal(keep=1)
        assert np.max(np.abs(reflected.elements[0])) < 1e-12
        assert np.max(np.abs(reflected.elements[1] - np.eye(2))) < 1e-12

    def test_half_mirror_nonideality_matrices(self):
        povm = arm_povm(0.5, 0.2, 0.9)
        lam = solve_nonideality(povm.marginal(keep=0), polarization_pvm(0.2))
        assert lam.matrix == pytest.approx(np.array([[0.5, 0.0], [0.5, 1.0]]), abs=1e-10)
        mu = solve_nonideality(povm.marginal(keep=1), polarization_pvm(0.9))
        assert mu.matrix == pytest.approx(np.array([[0.5, 0.0], [0.5, 1.0]]), abs=1e-10)

    @pytest.mark.parametrize("gamma", np.linspace(0.0, 1.0, 11))
    def test_nonideality_matrices_across_grid(self, gamma):
        povm = arm_povm(gamma, 0.4, 1.2)
        lam = solve_nonideality(povm.marginal(keep=0), polarization_pvm(0.4))
        expected = np.array([[gamma, 0.0], [1.0 - gamma, 1.0]])
        assert np.max(np.abs(lam.matrix - expected)) < 1e-10
        mu = solve_nonideality(povm.marginal(keep=1), polarization_pvm(1.2))
        expected = np.array([[1.0 - gamma, 0.0], [gamma, 1.0]])
        assert np.max(np.abs(mu.matrix - expected)) < 1e-10

    def test_out_of_range_transmissivity(self):
        with pytest.raises(ValidationError):
            arm_povm(1.5, 0.0, 1.0)

    @pytest.mark.parametrize("theta,theta_p", [(0.0, np.pi / 4), (0.3, 1.2), (0.1, 0.15)])
    def test_martens_slack_across_mirror_grid(self, theta, theta_p):
        # The joint-smearing bound holds for every mirror setting, with the
        # smallest slack at the two ideal limits.
        from povmkit import check_martens

        direct = polarization_pvm(theta)
        reflected = polarization_pvm(theta_p)
        for gamma in np.linspace(0.0, 1.0, 101):
            povm = arm_povm(gamma, theta, theta_p)
            lam = solve_nonideality(povm.marginal(keep=0), direct)
            mu = solve_nonideality(povm.marginal(keep=1), reflected)
            report = check_martens(lam, mu, direct, reflected)
            assert report.slack >= -1e-9

    def test_random_settings_validate(self, rng):
        for _ in range(100):
            arm_povm(rng.random(), rng.uniform(0, np.pi), rng.uniform(0, np.pi))


class TestQuadrivariate:
    def test_transparent_mirrors_collapse_to_product_analyzers(self):
        povm = quadrivariate_povm(make_config(1.0, 1.0))
        e1 = polarization_pvm(TSIRELSON_ANGLES[0])
        e2 = polarization_pvm(TSIRELSON_ANGLES[2])
        # Informative outcomes sit in the reflected-arm 'no click' cells.
        element = povm.element(("+", "-", "+", "-"))
        assert np.max(np.abs(element - tensor(e1.elements[0], e2.elements[0]))) < 1e-12
        for label in povm.labels:
            if label[1] == "+" or label[3] == "+":
                assert np.max(np.abs(povm.element(label))) < 1e-12

    def test_product_cell_formula(self):
        gamma1, gamma2 = 0.3, 0.8
        povm = quadrivariate_povm(make_config(gamma1, gamma2))
        e1 = polarization_pvm(TSIRELSON_ANGLES[0])
        e2 = polarization_pvm(TSIRELSON_ANGLES[2])
        element = povm.element(("+", "-", "+", "-"))
        expected = gamma1 * gamma2 * tensor(e1.elements[0], e2.elements[0])
        assert np.max(np.abs(element - expected)) < 1e-12

    def test_completeness_for_random_settings(self, rng):
        for _ in range(100):
            config = make_config(
                rng.random(),
                rng.random(),
                angles=tuple(rng.uniform(0, np.pi, size=4)),
            )
            povm = quadrivariate_povm(config)
            total = sum(povm.elements)
            assert np.max(np.abs(total - np.eye(4))) < 1e-12


class TestJointProbabilities:
    def test_product_state_factorizes(self, rng):
        rho1 = random_density_matrix(2, rng)
        rho2 = random_density_matrix(2, rng)
        product = State(tensor(rho1.matrix, rho2.matrix))
        config = make_config(0.4, 0.7, state=product)
        joint = joint_probabilities(config)
        arm1 = arm_povm(0.4, TSIRELSON_ANGLES[0], TSIRELSON_ANGLES[1])
        arm2 = arm_povm(0.7, TSIRELSON_ANGLES[2], TSIRELSON_ANGLES[3])
        from povmkit import born_probabilities

        p1 = born_probabilities(arm1, rho1).values
        p2 = born_probabilities(arm2, rho2).values
        expected = np.einsum("ab,cd->abcd", p1, p2)
        assert np.max(np.abs(joint.values - expected)) < 1e-12

    def test_singlet_correlator_convention(self):
        # Ideal analyzers on the maximally entangled pair: correlator
        # -cos 2(theta1 - theta2).
        for theta1, theta2 in [(0.0, np.pi / 8), (0.3, 1.2), (np.pi / 4, np.pi / 4)]:
            config = AspectConfig(1.0, 1.0, theta1, 0.9, theta2, 0.1, bell_state())
            table = joint_probabilities(config).marginal(keep=(0, 2))
            assert correlator(table) == pytest.approx(
                -np.cos(2 * (theta1 - theta2)), abs=1e-12
            )

    def test_remote_marginal_untouched_by_mirror_setting(self):
        # Arm 2 statistics cannot depend on arm 1's mirror.
        reference = None
        for gamma1 in (0.0, 0.5, 1.0):
            joint = joint_probabilities(make_config(gamma1, 0.6))
            arm2 = joint.marginal(keep=(2, 3))
            if reference is None:
                reference = arm2.values
            else:
                assert np.max(np.abs(arm2.values - reference)) < 1e-12

    def test_continuity_in_transmissivities(self):
        # Joint probabilities are polynomial in the transmissivities, so
        # nearby settings give nearby tables.
        step = 0.01
        previous = None
        for gamma in np.arange(0.0, 1.0 + step / 2, step):
            values = joint_probabilities(make_config(gamma, 1.0 - gamma)).values
            if previous is not None:
                assert np.max(np.abs(values - previous)) < 10 * step
            previous = values


class TestChsh:
    def test_uniform_tables_give_zero(self):
        uniform = ProbabilityTable(np.full((2, 2), 0.25))
        report = chsh_value([uniform] * 4)
        assert report.canonical == pytest.approx(0.0, abs=1e-15)
        assert report.max_abs == pytest.approx(0.0, abs=1e-15)

    def test_eight_sign_placements(self):
        tables = [
            ProbabilityTable([[0.5, 0.0], [0.0, 0.5]]),
            ProbabilityTable([[0.25, 0.25], [0.25, 0.25]]),
            ProbabilityTable([[0.0, 0.5], [0.5, 0.0]]),
            ProbabilityTable([[0.4, 0.1], [0.1, 0.4]]),
        ]
        report = chsh_value(tables)
        assert len(report.values) == 8
        correlators = report.correlators
        lookup = dict(report.values)
        for signs, value in report.values:
            assert value == pytest.approx(
                sum(s * e for s, e in zip(signs, correlators)), abs=1e-15
            )
            mirrored = tuple(-s for s in signs)
            assert lookup[mirrored] == pytest.approx(-value, abs=1e-15)

    def test_tsirelson_composite(self):
        result = standard_composite(*TSIRELSON_ANGLES)
        assert result.chsh.max_abs == pytest.approx(TSIRELSON, abs=1e-9)
        expected = np.array([-1, 1, -1, -1]) / np.sqrt(2.0)
        assert np.max(np.abs(np.array(result.chsh.correlators) - expected)) < 1e-12

    def test_fixed_arrangement_marginals_never_violate(self, rng):
        for _ in range(50):
            config = make_config(
                rng.random(),
                rng.random(),
                state=random_density_matrix(4, rng),
                angles=tuple(rng.uniform(0, np.pi, size=4)),
            )
            joint = joint_probabilities(config)
            from povmkit import MarginalSet

            report = chsh_value(MarginalSet.from_quadrivariate(joint).tables())
            assert report.max_abs <= 2.0 + 1e-9

    def test_requires_four_tables(self):
        uniform = ProbabilityTable(np.full((2, 2), 0.25))
        with pytest.raises(DimensionMismatchError):
            chsh_value([uniform] * 3)


def test_config_validation():
    with pytest.raises(ValidationError):
        make_config(-0.2, 0.5)
    with pytest.raises(DimensionMismatchError):
        AspectConfig(0.5, 0.5, 0.0, 0.0, 0.0, 0.0, State.maximally_mixed(2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
def test_non_finite_polarization_angle_rejected(theta):
    with pytest.raises(ValidationError, match="angle theta is non-finite"):
        polarization_pvm(theta)
    with pytest.raises(ValidationError, match="angle theta_p is non-finite"):
        arm_povm(0.5, 0.0, theta)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("position", range(4))
def test_non_finite_arrangement_angle_named_before_any_trig(position, value):
    # Rejected up front, so numpy never warns about cos(inf).
    angles = [0.1, 0.2, 0.3, 0.4]
    angles[position] = value
    name = ("theta1", "theta1p", "theta2", "theta2p")[position]
    with pytest.raises(ValidationError, match=f"angle {name} is non-finite"):
        make_config(0.5, 0.5, angles=angles)
    with pytest.raises(ValidationError, match=f"angle {name} is non-finite"):
        standard_composite(*angles)


def test_standard_composite_requires_two_photon_state():
    with pytest.raises(DimensionMismatchError, match="dimension 4"):
        standard_composite(*TSIRELSON_ANGLES, state=State.maximally_mixed(2))


def test_born_kernel_rejects_negative_probability():
    # Validated inputs cannot produce one; a corrupted state must not pass.
    from types import SimpleNamespace

    from povmkit import InternalConsistencyError
    from povmkit.aspect import _arm_stacks, _born_products

    names = ("theta1", "theta1p", "theta2", "theta2p")
    arms = _arm_stacks([[1.0], [1.0]], [0.0, 0.0, 0.0, 0.0], names, 1e-9)
    corrupted = SimpleNamespace(dim=4, matrix=np.diag([-0.5, 0.5, 0.5, 0.5]).astype(complex))
    with pytest.raises(InternalConsistencyError, match="below -tol"):
        _born_products(corrupted, arms[0, 0], arms[1, 0], 1e-9)
