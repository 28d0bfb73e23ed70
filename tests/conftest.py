import numpy as np
import pytest

from andex import covariance as cov


@pytest.fixture
def iid1():
    return cov.CovarianceModel("iid", 1, {})


@pytest.fixture
def cube2():
    return cov.CovarianceModel("cube_indicator", 1, {"m": 2})


@pytest.fixture
def cube4():
    return cov.CovarianceModel("cube_indicator", 1, {"m": 4})


@pytest.fixture
def gauss5():
    return cov.CovarianceModel("gaussian_kernel", 1, {"ell": 5.0})


def random_lattice_points(d, n, half=20, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(-half, half + 1, size=(n, d))
