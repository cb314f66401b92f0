import numpy as np
import pytest

from povmkit import (
    DimensionMismatchError,
    NonidealityMatrix,
    PovmMeasure,
    PvmMeasure,
    UnsupportedMeasureError,
    ValidationError,
    apply_nonideality,
    check_martens,
    martens_bound,
    nonideality_entropy,
    solve_nonideality,
    tetrahedral_qubit_povm,
)
from povmkit.srt import (
    SrtConfig,
    interference_nonideality_matrix,
    interference_pvm,
    path_nonideality_matrix,
    path_pvm,
    srt_bivariate,
)
from povmkit import nonideality
from povmkit.sampling import random_basis_pvm


LN2 = np.log(2.0)


class TestMatrixValidation:
    def test_columns_must_be_stochastic(self):
        with pytest.raises(ValidationError):
            NonidealityMatrix([[0.5, 0.5], [0.4, 0.5]])

    def test_entries_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            NonidealityMatrix([[1.2, 0.0], [-0.2, 1.0]])

    def test_nan_entries_rejected(self):
        with pytest.raises(ValidationError):
            NonidealityMatrix([[np.nan, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("container", [list, np.array], ids=["list", "ndarray"])
    def test_complex_matrix_is_rejected_not_truncated(self, container):
        matrix = container([[1 + 1j, 0], [0, 1]])
        with pytest.raises(ValidationError, match="nonideality matrix cannot be read.*complex"):
            NonidealityMatrix(matrix)
        with pytest.raises(ValidationError, match="nonideality matrix cannot be read.*complex"):
            apply_nonideality(path_pvm(), matrix)

    def test_labels_must_match(self):
        with pytest.raises(ValidationError):
            NonidealityMatrix(np.eye(2), row_labels=("only-one",))

    def test_is_exact_honours_its_own_tolerance(self):
        assert NonidealityMatrix(np.eye(2), residual=5e-8, tol=1e-7).is_exact
        assert not NonidealityMatrix(np.eye(2), residual=5e-8).is_exact
        # DECOMPOSITION_TOL stays the floor below a looser matrix tolerance.
        assert NonidealityMatrix(np.eye(2), residual=1e-8, tol=1e-12).is_exact
        assert not NonidealityMatrix(np.eye(2), residual=2e-7, tol=1e-7).is_exact


class TestSolver:
    def test_identity_for_matching_measures(self, rng):
        pvm = random_basis_pvm(3, rng)
        result = solve_nonideality(pvm, pvm)
        assert np.max(np.abs(result.matrix - np.eye(3))) < 1e-10
        assert result.residual < 1e-12
        assert result.is_exact
        assert result.unique

    @pytest.mark.parametrize("absorber", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_absorber_marginals_recover_closed_forms(self, absorber):
        bivariate = srt_bivariate(SrtConfig(absorber))
        lam = solve_nonideality(bivariate.marginal(keep=0), path_pvm())
        mu = solve_nonideality(bivariate.marginal(keep=1), interference_pvm())
        assert np.max(np.abs(lam.matrix - path_nonideality_matrix(absorber).matrix)) < 1e-8
        assert np.max(np.abs(mu.matrix - interference_nonideality_matrix(absorber).matrix)) < 1e-8

    def test_quarter_absorber_reference_entries(self):
        # At transmissivity 0.25 the interference smearing has entries
        # {0.75, 0.25} and the path smearing is [[1, 0.25], [0, 0.75]].
        bivariate = srt_bivariate(SrtConfig(0.25))
        mu = solve_nonideality(bivariate.marginal(keep=1), interference_pvm())
        assert mu.matrix == pytest.approx(np.array([[0.75, 0.25], [0.25, 0.75]]), abs=1e-10)
        lam = solve_nonideality(bivariate.marginal(keep=0), path_pvm())
        assert lam.matrix == pytest.approx(np.array([[1.0, 0.25], [0.0, 0.75]]), abs=1e-10)

    def test_fully_transparent_absorber_degenerates(self):
        bivariate = srt_bivariate(SrtConfig(1.0))
        lam = solve_nonideality(bivariate.marginal(keep=0), path_pvm())
        assert lam.matrix == pytest.approx(np.array([[1.0, 1.0], [0.0, 0.0]]), abs=1e-10)

    def test_exact_recovery_of_random_stochastic_matrices(self, rng):
        # Build a smeared measure from a known matrix and solve it back.
        for _ in range(30):
            target = random_basis_pvm(3, rng)
            raw = rng.random((4, 3))
            matrix = raw / raw.sum(axis=0, keepdims=True)
            observed = apply_nonideality(target, matrix)
            result = solve_nonideality(observed, target)
            assert np.max(np.abs(result.matrix - matrix)) < 1e-8
            assert result.is_exact

    def test_incompatible_measures_are_flagged(self):
        result = solve_nonideality(interference_pvm(), path_pvm())
        assert not result.is_exact
        assert result.residual > 1e-3
        # The best feasible approximation is still column stochastic.
        assert result.matrix.min() >= -1e-9
        assert np.max(np.abs(result.matrix.sum(axis=0) - 1.0)) < 1e-9

    def test_dependent_targets_flagged_non_unique(self):
        # A zero element of a PVM target is linearly dependent on the others and
        # constrains nothing: its column is exactly 1 / I, the other columns keep
        # the trace form, and the exact decomposition is flagged not unique.
        observed = PovmMeasure([np.diag([0.5, 0.0]), np.diag([0.5, 0.0]), np.diag([0.0, 1.0])])
        target = PvmMeasure([np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([0.0, 1.0])])
        result = solve_nonideality(observed, target)
        assert not result.unique
        assert result.residual == 0.0
        assert result.matrix.tolist() == [[0.5, 1 / 3, 0.0], [0.5, 1 / 3, 0.0], [0.0, 1 / 3, 1.0]]

    def test_pvm_with_a_zero_element_keeps_the_pseudo_inverse(self):
        # A zero projector has a zero Gram diagonal entry: the minimum-norm
        # (pseudo-inverse) solve fixes every other column and leaves its column
        # free; the trace form must agree with that reference there and fill
        # the free column uniformly, so the matrix stays stochastic.
        observed = path_pvm()
        target = PvmMeasure([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))])
        result = solve_nonideality(observed, target)
        target_stack = target.stack()
        gram = np.einsum("jab,kba->jk", target_stack, target_stack).real
        overlaps = np.einsum("iab,jba->ij", observed.stack(), target_stack).real
        reference = overlaps @ np.linalg.pinv(gram)
        assert np.max(np.abs(result.matrix[:, :2] - reference[:, :2])) < 1e-12
        assert result.matrix[:, 2].tolist() == [0.5, 0.5]
        assert not result.unique
        assert result.matrix.min() >= -1e-9
        assert np.max(np.abs(result.matrix.sum(axis=0) - 1.0)) < 1e-9

    def test_povm_target_is_unsupported(self):
        for target in (PovmMeasure([0.5 * np.eye(2), 0.5 * np.eye(2)]), tetrahedral_qubit_povm()):
            with pytest.raises(UnsupportedMeasureError) as excinfo:
                solve_nonideality(path_pvm(), target)
            assert str(excinfo.value) == (
                "target must be a PVM, not a PovmMeasure; "
                "nonideality is solved against standard observables only"
            )

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            solve_nonideality(random_basis_pvm(2, rng), random_basis_pvm(3, rng))

    def test_constrained_path_still_feasible(self, rng):
        # Observed measures that are not smeared versions of the target still
        # get a nonnegative matrix with unit column sums from the trace form.
        for _ in range(20):
            observed = random_basis_pvm(2, rng)
            target = random_basis_pvm(2, rng)
            result = solve_nonideality(observed, target)
            assert result.matrix.min() >= -1e-9
            assert np.max(np.abs(result.matrix.sum(axis=0) - 1.0)) < 1e-7


class TestEntropy:
    def test_xlogx_matches_scipy_xlogy(self, rng):
        # numpy's vectorized log and the C library's log differ by at most
        # one ulp of log(x) on a fraction of a percent of inputs; the product
        # with x carries that to at most two ulps of x log x.
        from scipy.special import xlogy

        x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 2.0, size=100000)])
        got = nonideality._xlogx(x)
        assert got[0] == 0.0 and got[1] == 0.0
        np.testing.assert_array_max_ulp(got, xlogy(x, x), maxulp=2)

    def test_identity_has_zero_entropy(self):
        assert nonideality_entropy(np.eye(3)) == 0.0

    def test_path_matrix_at_full_transmission(self):
        assert nonideality_entropy(path_nonideality_matrix(1.0)) == pytest.approx(LN2, abs=1e-12)

    def test_interference_matrix_endpoints(self):
        assert nonideality_entropy(interference_nonideality_matrix(0.0)) == pytest.approx(
            LN2, abs=1e-12
        )
        assert nonideality_entropy(interference_nonideality_matrix(1.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_nonnegative_on_random_matrices(self, rng):
        for _ in range(50):
            raw = rng.random((3, 4))
            matrix = raw / raw.sum(axis=0, keepdims=True)
            assert nonideality_entropy(matrix) >= 0.0

    def test_zero_iff_single_support_rows(self):
        # One nonzero entry per row: zero entropy regardless of scale.
        matrix = np.array([[0.5, 0.0, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 2.0]])
        assert nonideality_entropy(matrix) == 0.0
        spread = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert nonideality_entropy(spread) > 0.0

    def test_all_zero_rows_contribute_nothing(self):
        # A zero row enlarges the averaging constant but adds no entropy.
        row = np.array([[0.3, 0.7]])
        padded = np.array([[0.3, 0.7], [0.0, 0.0]])
        assert nonideality_entropy(padded) == pytest.approx(
            nonideality_entropy(row) / 2.0, abs=1e-15
        )

    def test_degenerate_full_transmission_row(self):
        # The smeared path family at full transmission has the uninformative
        # row (1, 1), whose normalized entropy is ln 2.
        assert nonideality_entropy(np.array([[1.0, 1.0], [0.0, 0.0]])) == pytest.approx(
            LN2, abs=1e-12
        )


class TestMartensBound:
    def test_identical_pvms(self, rng):
        pvm = random_basis_pvm(2, rng)
        assert martens_bound(pvm, pvm) == pytest.approx(0.0, abs=1e-12)

    def test_mutually_unbiased_qubit_pair(self):
        assert martens_bound(path_pvm(), interference_pvm()) == pytest.approx(LN2, abs=1e-12)
        assert martens_bound(path_pvm(), interference_pvm(1.3)) == pytest.approx(LN2, abs=1e-12)

    @pytest.mark.parametrize("bloch_angle", [0.1, 0.5, np.pi / 2, 2.0, 3.0])
    def test_closed_form_overlap(self, bloch_angle):
        # Qubit PVMs whose Bloch axes subtend a given angle: the largest
        # projector overlap is max(cos^2, sin^2) of half that angle.
        plane_angle = bloch_angle / 2.0
        c, s = np.cos(plane_angle), np.sin(plane_angle)
        first = PvmMeasure([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        second = PvmMeasure(
            [np.outer([c, s], [c, s]), np.outer([-s, c], [-s, c])]
        )
        expected = -np.log(max(np.cos(bloch_angle / 2) ** 2, np.sin(bloch_angle / 2) ** 2))
        assert martens_bound(first, second) == pytest.approx(expected, abs=1e-12)

    def test_nonmaximal_pvm_rejected(self):
        coarse = PvmMeasure([np.eye(2)])
        with pytest.raises(UnsupportedMeasureError):
            martens_bound(coarse, coarse)

    def test_povm_input_rejected(self):
        povm = PovmMeasure([0.5 * np.eye(2), 0.5 * np.eye(2)])
        with pytest.raises(UnsupportedMeasureError):
            martens_bound(povm, povm)

    def test_maximality_checked_at_each_pvm_tolerance(self):
        # Accepted at tol 1e-6, the PVM stays maximal at that tolerance.
        loose = PvmMeasure([np.diag([1.0 + 1e-7, 0.0]), np.diag([0.0, 1.0])], tol=1e-6)
        assert loose.is_maximal()
        assert martens_bound(loose, interference_pvm(tol=1e-6)) == pytest.approx(LN2, abs=1e-6)


class TestCheckMartens:
    def test_marginal_tolerance_carries_through(self):
        # A bivariate marginal sums two elements, so it carries 2 tol, and
        # the matrices solved from it and the report are checked at that.
        bivariate = srt_bivariate(SrtConfig(0.5), tol=1e-7)
        lam = solve_nonideality(bivariate.marginal(keep=0), path_pvm())
        mu = solve_nonideality(bivariate.marginal(keep=1), interference_pvm())
        assert lam.tol == mu.tol == 2e-7
        report = check_martens(lam, mu, path_pvm(), interference_pvm())
        assert report.slack > 0.1

    @pytest.mark.parametrize(
        "absorber,expected_slack",
        [(1.0, 0.0), (0.0, 0.0)],
    )
    def test_slack_vanishes_at_endpoints(self, absorber, expected_slack):
        lam = path_nonideality_matrix(absorber)
        mu = interference_nonideality_matrix(absorber)
        report = check_martens(lam, mu, path_pvm(), interference_pvm())
        assert report.bound == pytest.approx(LN2, abs=1e-12)
        assert report.slack == pytest.approx(expected_slack, abs=1e-9)

    def test_strict_slack_in_the_interior(self):
        report = check_martens(
            path_nonideality_matrix(0.5),
            interference_nonideality_matrix(0.5),
            path_pvm(),
            interference_pvm(),
        )
        assert report.slack > 0.1

    def test_endpoint_entropies(self):
        report = check_martens(
            path_nonideality_matrix(1.0),
            interference_nonideality_matrix(1.0),
            path_pvm(),
            interference_pvm(),
        )
        assert report.j_lambda == pytest.approx(LN2, abs=1e-12)
        assert report.j_mu == pytest.approx(0.0, abs=1e-12)

    def test_exact_report_applies_and_carries_residuals(self):
        bivariate = srt_bivariate(SrtConfig(0.5))
        lam = solve_nonideality(bivariate.marginal(keep=0), path_pvm())
        mu = solve_nonideality(bivariate.marginal(keep=1), interference_pvm())
        report = check_martens(lam, mu, path_pvm(), interference_pvm())
        assert report.applicable
        assert (report.lambda_residual, report.mu_residual) == (lam.residual, mu.residual)

    def test_inexact_decomposition_does_not_apply(self):
        # The path marginal is no smearing of a polarization PVM at 0.3 rad:
        # its residual is about 0.282, so the slack is not backed by the bound.
        from povmkit import polarization_pvm

        bivariate = srt_bivariate(SrtConfig(0.5))
        target = polarization_pvm(0.3)
        lam = solve_nonideality(bivariate.marginal(keep=0), target)
        mu = solve_nonideality(bivariate.marginal(keep=1), interference_pvm())
        report = check_martens(lam, mu, target, interference_pvm())
        assert not report.applicable
        assert report.lambda_residual == pytest.approx(0.282, abs=1e-3)
        assert report.mu_residual == mu.residual <= nonideality.DECOMPOSITION_TOL

    def test_inapplicable_report_does_not_raise_on_negative_slack(self):
        # The bound is a theorem about exact decompositions only.
        lam = NonidealityMatrix(np.eye(2), residual=0.5)
        report = check_martens(lam, lam, path_pvm(), interference_pvm())
        assert report.slack < 0.0
        assert not report.applicable
