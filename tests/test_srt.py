import numpy as np
import pytest

from povmkit import InternalConsistencyError, ValidationError
from povmkit import nonideality, srt
from povmkit.srt import (
    SrtConfig,
    interference_nonideality_entropy,
    interference_pvm,
    path_nonideality_entropy,
    path_pvm,
    srt_bivariate,
    srt_povm,
    tradeoff_sweep,
)

LN2 = np.log(2.0)
PHASES = (0.0, np.pi / 4, np.pi / 2, np.pi)


def test_config_rejects_out_of_range_absorber():
    with pytest.raises(ValidationError):
        SrtConfig(-0.1)
    with pytest.raises(ValidationError):
        SrtConfig(1.0 + 1e-6)


@pytest.mark.parametrize("absorber", [-0.5, 1.5, float("nan")])
@pytest.mark.parametrize("entropy", [path_nonideality_entropy, interference_nonideality_entropy])
def test_closed_form_entropies_reject_out_of_range_absorber(entropy, absorber):
    # x log x is taken as 0 for x = 0 only; outside [0, 1] a closed form
    # would print a number the model does not back.
    with pytest.raises(ValidationError, match="absorber"):
        entropy(absorber)


class TestObservables:
    @pytest.mark.parametrize("chi", PHASES)
    def test_path_interference_overlaps_are_half(self, chi):
        p = path_pvm()
        q = interference_pvm(chi)
        for pm in p.elements:
            for qn in q.elements:
                assert np.real(np.trace(pm @ qn)) == pytest.approx(0.5, abs=1e-12)

    def test_interference_completeness_and_orthogonality(self):
        q = interference_pvm(0.7)
        assert np.max(np.abs(q.elements[0] + q.elements[1] - np.eye(2))) < 1e-12
        assert np.max(np.abs(q.elements[0] @ q.elements[1])) < 1e-12

    def test_zero_phase_difference_operator(self):
        q = interference_pvm(0.0)
        off_diagonal = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.max(np.abs(q.elements[0] - q.elements[1] - off_diagonal)) < 1e-12


class TestAbsorberPovm:
    def test_full_transmission_reduces_to_interference(self):
        povm = srt_povm(SrtConfig(1.0, 0.3))
        q = interference_pvm(0.3)
        assert np.max(np.abs(povm.elements[0] - q.elements[0])) < 1e-12
        assert np.max(np.abs(povm.elements[1] - q.elements[1])) < 1e-12
        assert np.max(np.abs(povm.elements[2])) < 1e-12

    def test_opaque_absorber_splits_path_outcome(self):
        povm = srt_povm(SrtConfig(0.0))
        p = path_pvm()
        assert np.max(np.abs(povm.elements[0] - 0.5 * p.elements[0])) < 1e-12
        assert np.max(np.abs(povm.elements[1] - 0.5 * p.elements[0])) < 1e-12
        assert np.max(np.abs(povm.elements[2] - p.elements[1])) < 1e-12

    def test_midpoint_elements_sum_to_identity(self):
        povm = srt_povm(SrtConfig(0.5))
        total = sum(povm.elements)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("chi", PHASES)
    def test_validation_across_grid(self, chi):
        # Construction validates positivity and completeness at tol 1e-9.
        for a in np.linspace(0.0, 1.0, 21):
            srt_povm(SrtConfig(a, chi))

    def test_detector_elements_are_rank_one(self):
        for a in (1e-6, 0.1, 0.5, 0.999, 1.0):
            povm = srt_povm(SrtConfig(a))
            for element in povm.elements[:2]:
                eigenvalues = np.linalg.eigvalsh(element)
                assert abs(eigenvalues[0]) < 1e-12
                assert eigenvalues[1] > 0.0


class TestBivariate:
    def test_cell_layout(self):
        config = SrtConfig(0.37, 0.2)
        povm = srt_povm(config)
        bivariate = srt_bivariate(config)
        assert bivariate.index_shape == (2, 2)
        assert np.array_equal(bivariate.element(("+", "1")), povm.elements[0])
        assert np.array_equal(bivariate.element(("+", "2")), povm.elements[1])
        assert np.max(np.abs(bivariate.element(("-", "1")) - 0.5 * povm.elements[2])) < 1e-15
        assert np.max(np.abs(bivariate.element(("-", "2")) - 0.5 * povm.elements[2])) < 1e-15

    def test_interference_marginal_is_smeared_interference(self):
        # Independent check of the marginal identity: sum over the path index
        # equals the closed-form mixture of the interference projectors.
        a = 0.6
        bivariate = srt_bivariate(SrtConfig(a))
        q = interference_pvm()
        marginal = bivariate.marginal(keep=1)
        root = np.sqrt(a)
        expected_first = 0.5 * ((1 + root) * q.elements[0] + (1 - root) * q.elements[1])
        assert np.max(np.abs(marginal.elements[0] - expected_first)) < 1e-12

    def test_path_marginal_is_smeared_path(self):
        a = 0.6
        bivariate = srt_bivariate(SrtConfig(a))
        p = path_pvm()
        marginal = bivariate.marginal(keep=0)
        assert np.max(np.abs(marginal.elements[0] - (p.elements[0] + a * p.elements[1]))) < 1e-12
        assert np.max(np.abs(marginal.elements[1] - (1 - a) * p.elements[1])) < 1e-12


class TestTradeoffSweep:
    def test_endpoints(self):
        points = tradeoff_sweep([0.0, 1.0])
        assert points[0].j_lambda == pytest.approx(0.0, abs=1e-12)
        assert points[0].j_mu == pytest.approx(LN2, abs=1e-12)
        assert points[1].j_lambda == pytest.approx(LN2, abs=1e-12)
        assert points[1].j_mu == pytest.approx(0.0, abs=1e-12)
        for point in points:
            assert point.slack == pytest.approx(0.0, abs=1e-9)

    def test_interior_point_against_closed_forms(self):
        (point,) = tradeoff_sweep([0.5])
        assert point.j_lambda == pytest.approx(
            0.5 * (1.5 * np.log(1.5) - 0.5 * np.log(0.5)), abs=1e-12
        )
        root = np.sqrt(0.5)
        expected_mu = 0.5 * (
            2 * LN2 - (1 + root) * np.log(1 + root) - (1 - root) * np.log(1 - root)
        )
        assert point.j_mu == pytest.approx(expected_mu, abs=1e-12)

    def test_pipeline_matches_closed_forms_on_grid(self):
        grid = np.linspace(0.0, 1.0, 41)
        points = tradeoff_sweep(grid)
        for point in points:
            assert abs(point.j_lambda - path_nonideality_entropy(point.absorber)) < 1e-8
            assert abs(point.j_mu - interference_nonideality_entropy(point.absorber)) < 1e-8
            assert point.bound == pytest.approx(LN2, abs=1e-12)
            assert point.slack >= -1e-9

    def test_monotone_complementary_tradeoff(self):
        grid = np.linspace(0.0, 1.0, 41)
        points = tradeoff_sweep(grid)
        j_lambda = [p.j_lambda for p in points]
        j_mu = [p.j_mu for p in points]
        assert all(b > a for a, b in zip(j_lambda, j_lambda[1:]))
        assert all(b < a for a, b in zip(j_mu, j_mu[1:]))

    @pytest.mark.parametrize("chi", PHASES[1:])
    def test_phase_independence(self, chi):
        base = tradeoff_sweep([0.3, 0.8])
        shifted = tradeoff_sweep([0.3, 0.8], chi=chi)
        for a, b in zip(base, shifted):
            assert b.j_lambda == pytest.approx(a.j_lambda, abs=1e-10)
            assert b.j_mu == pytest.approx(a.j_mu, abs=1e-10)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            tradeoff_sweep([0.5, 1.2])
        for bad in (np.nan, -0.1, np.inf):
            with pytest.raises(ValidationError, match="outside"):
                tradeoff_sweep([0.5, bad])

    def test_non_finite_phase_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            tradeoff_sweep([0.5], chi=np.nan)

    @pytest.mark.parametrize("chi", [np.inf, -np.inf])
    def test_infinite_phase_takes_the_nan_rejection(self, chi):
        # exp(1j * inf) would warn; the phase reads as NaN instead, so the
        # error is the NaN phase's and no warning escapes (warnings fail tier-1).
        with pytest.raises(ValidationError) as nan_phase:
            tradeoff_sweep([0.5], chi=np.nan)
        with pytest.raises(ValidationError) as infinite_phase:
            tradeoff_sweep([0.5], chi=chi)
        assert str(infinite_phase.value) == str(nan_phase.value)

    def test_invalid_bivariate_cell_names_its_absorber(self, monkeypatch):
        # At a = 0.5 both absorption cells are 0.25 P-; moving 0.5 P- from the
        # second to the first leaves the sum the identity and one cell negative.
        build = srt._bivariate_stack

        def corrupted(absorbers, projectors):
            cells = build(absorbers, projectors)
            cells[1, 2] += 0.5 * srt._P_MINUS
            cells[1, 3] -= 0.5 * srt._P_MINUS
            return cells

        monkeypatch.setattr(srt, "_bivariate_stack", corrupted)
        with pytest.raises(ValidationError) as excinfo:
            tradeoff_sweep([0.0, 0.5, 1.0])
        assert str(excinfo.value) == "absorber=0.5: element 3 is not positive (eigenvalue -2.500e-01)"

    def test_empty_grid(self):
        assert tradeoff_sweep([]) == []

    @pytest.mark.parametrize("chi", PHASES + (-2.3,))
    def test_whole_stack_exits_accept_the_sweep(self, monkeypatch, chi):
        # The stochasticity check accepts the sweep's whole stack in one call;
        # a call per matrix would mean the exit stopped accepting, which only
        # speed would otherwise show.  The trace-form solve itself checks nothing.
        calls = []
        accepts = nonideality._stochastic_accepts

        def recorded(matrices, tol):
            calls.append((matrices.shape, accepts(matrices, tol)))
            return calls[-1][-1]

        monkeypatch.setattr(nonideality, "_stochastic_accepts", recorded)
        tradeoff_sweep(np.linspace(0.0, 1.0, 101), chi=chi)
        assert calls == [((202, 2, 2), True)]

    def test_drift_names_the_first_failing_absorber(self, monkeypatch):
        path_entropy = srt._path_entropy

        def shifted(a):
            return path_entropy(a) + 1e-6 * (np.asarray(a) >= 0.5)

        monkeypatch.setattr(srt, "_path_entropy", shifted)
        with pytest.raises(InternalConsistencyError, match=r"drifted.*absorber=0\.5\b"):
            tradeoff_sweep([0.25, 0.5, 0.75])

    def test_stochastic_failure_names_the_path_marginal_first(self, monkeypatch):
        # Both marginals are solved in one batched call; a failing path matrix
        # is reported before a failing interference matrix at a lower index.
        solve = srt._solve_stack

        def corrupted(observed, target, tol):
            matrices, zero = solve(observed, target, tol)
            for problem, elements in enumerate(target):
                n = 2 if np.array_equal(elements, path_pvm().stack()) else 0
                matrices[problem, n, 0, 0] -= 1e-3
            return matrices, zero

        monkeypatch.setattr(srt, "_solve_stack", corrupted)
        with pytest.raises(ValidationError, match=r"absorber=0\.75\b.*columns must sum"):
            tradeoff_sweep([0.25, 0.5, 0.75])

    def test_slack_violation_names_the_first_failing_absorber(self, monkeypatch):
        # J_lambda + J_mu is ln 2 at the endpoints and about 0.894 at a = 0.5,
        # so a bound of 0.8 holds in the interior and fails at a = 1.
        monkeypatch.setattr(srt, "martens_bound", lambda *args: 0.8)
        with pytest.raises(InternalConsistencyError, match=r"slack.*absorber=1\.0\b"):
            tradeoff_sweep([0.5, 1.0])
