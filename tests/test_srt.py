import math

import numpy as np
import pytest

from povmkit import InternalConsistencyError, ValidationError, martens_bound
from povmkit import srt
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
        # Both endpoints lie inside [0, 1]: the error names the first value outside it.
        for grid, bad in (([0.0, 1.0, 1.5], "1.5"), ([1.0, 0.0, -0.5], "-0.5")):
            with pytest.raises(ValidationError, match=rf"^grid value {bad} outside \[0, 1\]$"):
                tradeoff_sweep(grid)
        with pytest.raises(ValidationError, match="^grid cannot be read as a float array: "):
            tradeoff_sweep(["a"])

    @pytest.mark.parametrize(("grid", "reason"), [
        ("01", "a str is not a sequence of numbers"),
        (b"\x00\x01", "a bytes is not a sequence of numbers"),
        (bytearray(b"\x00"), "a bytearray is not a sequence of numbers"),
        (np.array([0.5 + 1j]), "complex entries"),
        (np.array([0.5 + 0j]), "complex entries"),
    ])
    def test_strings_bytes_and_complex_arrays_are_not_grids(self, grid, reason):
        # numpy reads a string's characters and the integers of bytes as absorbers, and a complex
        # array's real part with a ComplexWarning (an error under tier-1's warning filter).
        with pytest.raises(ValidationError, match=rf"^grid cannot be read as a float array: {reason}$"):
            tradeoff_sweep(grid, 0.3)

    def test_a_float_array_grid_gives_the_rows_of_its_entries(self):
        # A plain 1-D float array converts as a whole; a 2-D one is read row by row and fails.
        grid = np.array([0.0, 1e-300, 0.3, 1.0 - 2.0**-53, 1.0], dtype=np.float64)
        for array in (grid, grid.astype(np.float32), grid[::-1]):
            want = [tuple(map(float.hex, row)) for row in tradeoff_sweep(list(array), 0.3)]
            assert [tuple(map(float.hex, row)) for row in tradeoff_sweep(array, 0.3)] == want
        with pytest.raises(ValidationError, match="^grid cannot be read as a float array: "):
            tradeoff_sweep(grid.reshape(1, -1), 0.3)

    def test_non_finite_phase_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            tradeoff_sweep([0.5], chi=np.nan)

    @pytest.mark.parametrize("chi", [np.inf, -np.inf])
    def test_infinite_phase_takes_the_nan_rejection(self, chi):
        # exp(1j * inf) would warn; the finite-real rule rejects the phase first,
        # with the NaN phase's message shape, so no warning escapes (warnings fail tier-1).
        with pytest.raises(ValidationError, match=r"^phase is non-finite: nan$"):
            tradeoff_sweep([0.5], chi=np.nan)
        with pytest.raises(ValidationError, match=rf"^phase is non-finite: {chi!r}$"):
            tradeoff_sweep([0.5], chi=chi)

    def test_invalid_bivariate_cell_names_its_absorber(self, monkeypatch):
        # At a = 0.5 both absorption cells are 0.25 P-; moving 0.5 P- from the
        # second to the first leaves the sum the identity and one cell negative.
        # The closed-form filter vouches for the real builder only, so it is
        # turned off here and the generic check finds the defect and words it.
        build = srt._bivariate_stack
        monkeypatch.setattr(srt, "INTERFERENCE_ROUNDING", math.inf)

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
        # The table rule accepts the columns of all 202 nonideality matrices in
        # one call; a call per matrix would mean the exit stopped accepting, which
        # only speed would otherwise show.  The trace-form solve itself checks nothing.
        calls = []
        violation = srt._table_violation

        def recorded(stack, tol):
            calls.append((stack.shape, violation(stack, tol)))
            return calls[-1][-1]

        monkeypatch.setattr(srt, "_table_violation", recorded)
        tradeoff_sweep(np.linspace(0.0, 1.0, 101), chi=chi)
        assert calls == [((404, 2), None)]

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
        with pytest.raises(ValidationError,
                           match=r"^absorber=0\.75: nonideality matrix column 0 sums to 0\.999, not 1$"):
            tradeoff_sweep([0.25, 0.5, 0.75])

    @staticmethod
    def lower_the_path_entropy(monkeypatch, shift):
        """Lower the solved and the closed-form path entropy by ``shift``: the slack moves, the drift does not."""
        row_entropy, path_entropy = srt._row_entropy, srt._path_entropy

        def lowered(matrices):
            j_lambda, j_mu = row_entropy(matrices)
            return j_lambda - shift, j_mu

        monkeypatch.setattr(srt, "_row_entropy", lowered)
        monkeypatch.setattr(srt, "_path_entropy", lambda a: path_entropy(a) - shift)

    @pytest.mark.parametrize("check", ["stochastic", "slack"])
    @pytest.mark.parametrize(("shift", "fails"), [(1.5e-9, False), (2.5e-9, True)])
    def test_marginal_checks_run_at_twice_tol(self, monkeypatch, check, shift, fails):
        # Each marginal element sums two cells, so the single-point chain checks the
        # nonideality matrices and the Martens slack at 2 tol; the sweep does the same.
        # At a = 1 the path matrix is [[1, 1], [0, 0]]; a zero entry moved below 0 is
        # clipped out of the row entropy, so the drift check, a few ulps wide, stays
        # quiet and the column's table check decides.  There J_lambda + J_mu equals the
        # bound, ln 2, so the slack case lowers the entropies by the shift.
        if check == "stochastic":
            solve = srt._solve_stack

            def shifted(observed, target, tol):
                matrices, zero = solve(observed, target, tol)
                matrices[0, :, 1, 0] -= shift
                return matrices, zero

            monkeypatch.setattr(srt, "_solve_stack", shifted)
            error = ValidationError
        else:
            self.lower_the_path_entropy(monkeypatch, shift)
            error = InternalConsistencyError
        if fails:
            with pytest.raises(error, match=r"absorber=1\.0\b"):
                tradeoff_sweep([1.0], tol=1e-9)
        else:
            (point,) = tradeoff_sweep([1.0], tol=1e-9)
            assert point.absorber == 1.0

    def test_slack_violation_names_the_first_failing_absorber(self, monkeypatch):
        # J_lambda + J_mu is ln 2 at the endpoints and about 0.894 at a = 0.5, so
        # lowered by 0.8 - ln 2 it stays above the bound ln 2 in the interior and
        # falls below it at a = 1.
        self.lower_the_path_entropy(monkeypatch, 0.8 - LN2)
        with pytest.raises(InternalConsistencyError, match=r"slack.*absorber=1\.0\b"):
            tradeoff_sweep([0.5, 1.0])


class TestInterferenceFilter:
    @staticmethod
    def validations(monkeypatch, chi, tol):
        """Generic-check calls made by the sweep, ``interference_pvm``, ``srt_bivariate`` and ``srt_povm`` at ``tol``."""
        calls = []
        validate = srt._stack_violations

        def spy(*args):
            calls.append(args)
            return validate(*args)

        monkeypatch.setattr(srt, "_stack_violations", spy)
        counts = []
        for build in (lambda: tradeoff_sweep(np.linspace(0.0, 1.0, 101), chi, tol=tol),
                      lambda: interference_pvm(chi, tol),
                      lambda: srt_bivariate(SrtConfig(0.3, chi), tol),
                      lambda: srt_povm(SrtConfig(0.3, chi), tol)):
            calls.clear()
            try:
                build()
            except ValidationError:
                pass
            counts.append(len(calls))
        return counts

    @pytest.mark.parametrize("chi", PHASES + (-2.3, 1e6))
    def test_closed_form_pvms_and_stacks_take_no_generic_check(self, monkeypatch, chi):
        assert self.validations(monkeypatch, chi, 1e-9) == [0, 0, 0, 0]
        # The filter's bound is reached exactly: still accepted.
        assert self.validations(monkeypatch, chi, srt._interference_projectors(chi)[1]) == [0, 0, 0, 0]

    def test_a_tol_below_the_filter_bound_runs_the_generic_check(self, monkeypatch):
        # At chi = 0 every defect is within 2 units of 2**-53, so at 5 units the filter
        # rejects and the generic check accepts: the sweep checks the PVM and its stack.
        # At 1e-300 the generic check rejects the PVM, and each builder raises its error but srt_povm.
        assert self.validations(monkeypatch, 0.0, 5 * 2.0**-53) == [2, 1, 1, 1]
        assert self.validations(monkeypatch, 0.0, 1e-300) == [1, 1, 1, 1]
        with pytest.raises(ValidationError) as pvm:
            interference_pvm(0.0, 1e-300)
        assert str(pvm.value) == ("elements do not sum to identity (defect 2.220e-16); element 0 is not a "
                                  "projector (defect 1.110e-16); element 1 is not a projector (defect 1.110e-16)")
        with pytest.raises(ValidationError, match=r"^elements do not sum to identity \(defect 1\.110e-16\)$"):
            srt_bivariate(SrtConfig(0.3, 0.0), 1e-300)
        # srt_povm's total, with 0.3 + 0.7 summed once, is exact: the generic check accepts it.
        assert srt_povm(SrtConfig(0.3, 0.0), 1e-300).tol == 1e-300

    def test_a_generic_route_sweep_gives_the_rows_of_the_filter_route(self, monkeypatch):
        grid = np.linspace(0.0, 1.0, 101)
        want = [tuple(map(float.hex, row)) for row in tradeoff_sweep(grid, 0.7)]
        monkeypatch.setattr(srt, "INTERFERENCE_ROUNDING", math.inf)
        assert [tuple(map(float.hex, row)) for row in tradeoff_sweep(grid, 0.7)] == want

    def test_a_sweep_at_two_ulps_reads_the_bound_off_the_diagonal(self):
        # At tol 2**-52 the generic check accepts the interference PVM at phase 0.1, whose
        # traces are 1 - 2.22e-16 - 2.97e-18j.  The sweep reads the bound off the diagonal,
        # tests no rank, and gives the default-tol rows.
        grid, tol = [0.0, 0.5, 1.0], 2.0**-52
        assert interference_pvm(0.1, tol).tol == tol
        assert tradeoff_sweep(grid, 0.1, tol=tol) == tradeoff_sweep(grid, 0.1)

    def test_martens_bound_at_two_ulps_equals_the_sweep_bound(self):
        # is_maximal reads the real part of each trace, 1 - 2.22e-16, within tol 2**-52; the
        # imaginary -2.97e-18 is bounded by the Hermitian check, so the PVM is maximal.
        tol = 2.0**-52
        pvm = interference_pvm(0.1, tol)
        assert pvm.is_maximal()
        (point,) = tradeoff_sweep([0.5], 0.1, tol=tol)
        assert martens_bound(path_pvm(tol), pvm) == point.bound

    def test_rows_are_tradeoff_points(self):
        (point,) = tradeoff_sweep([0.5])
        assert type(point) is srt.TradeoffPoint and point.absorber == 0.5


def test_a_drift_of_1e_12_raises(monkeypatch):
    # The drift bound is a few ulps times 1 + max |ln x|, at most ~7e-13 even at
    # subnormal entries; the 1e-8 floor it replaced let this drift through.
    path_entropy = srt._path_entropy
    monkeypatch.setattr(srt, "_path_entropy", lambda a: path_entropy(a) + 1e-12)
    with pytest.raises(InternalConsistencyError,
                       match=r"^solver pipeline drifted 1\.000e-12 from the closed-form entropies at absorber=0\.25$"):
        tradeoff_sweep([0.25, 0.5, 0.75])
