import numpy as np
import pytest

from andex import covariance as cov, field


@pytest.fixture(autouse=True)
def cold_draw_memo():
    """Each test starts without the fields the last one drew, so a test
    that patches a sampler's internals sees them run."""
    field._draw_batch.cache_clear()


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
