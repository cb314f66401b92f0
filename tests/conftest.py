import numpy as np
import pytest

#: One fixed seed keeps every randomized property test reproducible.
DEFAULT_SEED = 20240817


@pytest.fixture
def rng():
    return np.random.default_rng(DEFAULT_SEED)
