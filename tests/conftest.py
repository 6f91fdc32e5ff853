import numpy as np
import pytest

from aggsep.mpsio import parse_mps_file
from aggsep.preprocess import preprocess

from helpers import EXAMPLE1_MPS


@pytest.fixture(scope="session")
def example1():
    return parse_mps_file(EXAMPLE1_MPS)


@pytest.fixture(scope="session")
def example1_point(example1):
    return np.zeros(example1.n_vars)


@pytest.fixture()
def example1_ctx(example1, example1_point):
    """The separation context both aggregators run in."""
    return preprocess(example1, example1_point)
