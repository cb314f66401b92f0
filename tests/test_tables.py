import numpy as np
import pytest

from povmkit import DimensionMismatchError, ProbabilityTable, ValidationError


def test_validation():
    ProbabilityTable([0.25, 0.25, 0.5])
    with pytest.raises(ValidationError):
        ProbabilityTable([0.6, 0.6])
    with pytest.raises(ValidationError):
        ProbabilityTable([1.2, -0.2])
    with pytest.raises(ValidationError):
        ProbabilityTable([])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_rejected(bad):
    with pytest.raises(ValidationError, match="non-finite"):
        ProbabilityTable([bad, 1.0])


@pytest.mark.parametrize(
    "values", [[10**400, 0], ["x"]], ids=["beyond-float-range", "not-a-number"]
)
def test_unreadable_values_raise_validation_error(values):
    with pytest.raises(ValidationError, match="probability table cannot be read"):
        ProbabilityTable(values)


@pytest.mark.parametrize("container", [list, np.array], ids=["list", "ndarray"])
def test_complex_values_are_rejected_not_truncated(container):
    # numpy would drop the imaginary part of a complex array with only a warning.
    with pytest.raises(ValidationError, match="probability table cannot be read.*complex"):
        ProbabilityTable(container([0.5 + 0.1j, 0.5]))


def test_axis_labels_checked():
    ProbabilityTable([[0.5, 0.0], [0.0, 0.5]], axis_labels=(("+", "-"), ("1", "2")))
    with pytest.raises(ValidationError):
        ProbabilityTable([[0.5, 0.0], [0.0, 0.5]], axis_labels=(("+",), ("1", "2")))


def test_marginal_against_brute_force(rng):
    raw = rng.random((2, 3, 2))
    raw /= raw.sum()
    table = ProbabilityTable(raw)
    marg = table.marginal(keep=(0, 2))
    expected = np.zeros((2, 2))
    for i in range(2):
        for j in range(3):
            for k in range(2):
                expected[i, k] += raw[i, j, k]
    assert np.max(np.abs(marg.values - expected)) < 1e-15
    assert table.marginal(keep=1).values == pytest.approx(raw.sum(axis=(0, 2)))


def test_marginal_axis_checks():
    table = ProbabilityTable(np.full((2, 2), 0.25))
    with pytest.raises(DimensionMismatchError):
        table.marginal(keep=(1, 0))
    with pytest.raises(DimensionMismatchError):
        table.marginal(keep=5)


def test_marginal_of_a_valid_table_at_the_tolerance_edge():
    # The total is off by 1.5e-8, inside the 16-entry bound tol * 16 but not
    # inside tol * 4, which a re-check of the 2x2 marginal would apply.
    table = ProbabilityTable(np.full((2, 2, 2, 2), (1.0 + 1.5e-8) / 16))
    marg = table.marginal(keep=(0, 2))
    assert marg.shape == (2, 2)
    assert marg.values.sum() == pytest.approx(1.0 + 1.5e-8, abs=1e-15)
    assert not marg.values.flags.writeable


def test_values_read_only():
    table = ProbabilityTable([0.5, 0.5])
    with pytest.raises(ValueError):
        table.values[0] = 1.0


@pytest.mark.parametrize("field", ["values", "tol", "axis_labels"])
def test_fields_cannot_be_reassigned(field):
    # A MarginalSet stacks its tables' values once; a reassigned field would let
    # chsh_value (which reads the tables) and check_no_signaling (the stack) disagree.
    table = ProbabilityTable([[0.5, 0.0], [0.0, 0.5]], axis_labels=(("+", "-"), ("+", "-")))
    replacement = {"values": np.full((2, 2), 0.25), "tol": 1.0, "axis_labels": None}[field]
    with pytest.raises(AttributeError):
        setattr(table, field, replacement)
    assert table.values.tolist() == [[0.5, 0.0], [0.0, 0.5]]
    assert table.tol == 1e-9
    assert table.axis_labels == (("+", "-"), ("+", "-"))
