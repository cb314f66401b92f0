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


def test_values_read_only():
    table = ProbabilityTable([0.5, 0.5])
    with pytest.raises(ValueError):
        table.values[0] = 1.0
