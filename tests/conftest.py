from itertools import islice

import pytest

from demazure_sl2 import HighestWeight, distribution_chain


@pytest.fixture(scope="session")
def chain41():
    """mu_0 .. mu_41 for hw = L0, first letter 0 (one recursion pass)."""
    hw = HighestWeight.fundamental(0)
    return list(islice(distribution_chain(hw, 0), 42))


@pytest.fixture(scope="session")
def chain40_j1():
    """mu_0 .. mu_40 for hw = L1, first letter 1."""
    hw = HighestWeight.fundamental(1)
    return list(islice(distribution_chain(hw, 1), 41))
