import numpy as np
import pytest

from logalg.selftest import random_matrix as make_random_matrix  # noqa: F401
from logalg.selftest import random_step as make_random_step  # noqa: F401


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
