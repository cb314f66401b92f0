import numpy as np
import pytest

from povmkit import aspect

#: One fixed seed keeps every randomized property test reproducible.
DEFAULT_SEED = 20240817


@pytest.fixture
def rng():
    return np.random.default_rng(DEFAULT_SEED)


@pytest.fixture(autouse=True)
def no_kept_analyzer_pairs(monkeypatch):
    """Start each test with no analyzer-pair table kept from an earlier one.

    A kept table would let a test that patches the Born kernel read the table
    an earlier test built instead of its patch.
    """
    monkeypatch.setattr(aspect, "_latest_pairs", (None, None))
