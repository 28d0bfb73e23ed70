import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andex import stats


class TestKS:
    def test_single_point_hand_value(self):
        # one sample at the median of U(0,1): D = 0.5 exactly
        assert stats.ks_statistic(np.array([0.5]), lambda x: x) == pytest.approx(0.5)

    def test_perfect_grid(self):
        # samples at the (i - 1/2)/n quantiles: D = 1/(2n)
        n = 10
        x = (np.arange(1, n + 1) - 0.5) / n
        assert stats.ks_statistic(x, lambda t: t) == pytest.approx(0.05)

    def test_against_scipy(self):
        from scipy import stats as sps

        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(size=500))
        ours = stats.ks_statistic(x, lambda t: np.clip(t, 0, 1))
        ref = sps.kstest(x, "uniform").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_uniform_null_small(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(size=2000))
        d = stats.ks_statistic(x, lambda t: np.clip(t, 0, 1))
        assert d < 1.63 / math.sqrt(2000)

    def test_wrong_law_detected(self):
        rng = np.random.default_rng(2)
        x = np.sort(rng.normal(0.5, size=2000))
        d = stats.ks_statistic(x, stats.gumbel_cdf)
        assert d > 0.05

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            stats.ks_statistic(np.array([2.0, 1.0]), lambda x: x)

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            stats.ks_statistic(np.array([]), lambda x: x)

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, xs):
        x = np.sort(np.asarray(xs))
        d = stats.ks_statistic(x, stats.gumbel_cdf)
        assert 0.0 <= d <= 1.0


class TestGumbelCDF:
    def test_values(self):
        assert stats.gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0))
        assert stats.gumbel_cdf(np.inf) == 1.0
        assert float(stats.gumbel_cdf(-40.0)) == 0.0

    def test_median(self):
        assert stats.gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5)

    def test_vectorized_monotone(self):
        u = np.linspace(-5, 10, 100)
        F = stats.gumbel_cdf(u)
        assert np.all(np.diff(F) >= 0)


class TestPoissonDispersion:
    def test_poisson_counts_pass(self):
        rng = np.random.default_rng(3)
        counts = rng.poisson(2.0, size=500)
        rep = stats.poisson_dispersion(counts)
        assert rep.passed
        assert rep.statistic <= 0.0
        assert rep.threshold == 0.0

    def test_overdispersed_fails(self):
        rng = np.random.default_rng(4)
        counts = rng.poisson(rng.gamma(0.5, 4.0, size=500))
        rep = stats.poisson_dispersion(counts)
        assert not rep.passed

    def test_constant_counts_fail(self):
        rep = stats.poisson_dispersion(np.full(100, 3))
        assert not rep.passed  # dispersion 0 < 0.8
        assert rep.description == (
            "index of dispersion 0.0000 (mean 3.0000), band [0.8, 1.2], min mean 0.2"
        )

    def test_tiny_mean_inconclusive(self):
        counts = np.zeros(200, dtype=int)
        counts[:10] = 1
        rep = stats.poisson_dispersion(counts)
        assert rep.statistic == math.inf
        assert not rep.passed

    def test_validation(self):
        with pytest.raises(ValueError):
            stats.poisson_dispersion(np.ones(10))
        with pytest.raises(ValueError):
            stats.poisson_dispersion(np.full(100, 1.5))
        with pytest.raises(ValueError):
            stats.poisson_dispersion(np.zeros(100))


class TestTailFrequency:
    def test_hand_case(self):
        x = np.concatenate([np.zeros(90), np.ones(10) * 5.0])
        val, se = stats.tail_frequency(x, level=1.0)
        assert val == pytest.approx(0.1)
        assert se == pytest.approx(math.sqrt(0.1 * 0.9 / 100))

    def test_gaussian_tail(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200000)
        p, se = stats.tail_frequency(x, level=2.0)
        from andex import scales

        assert abs(p - float(scales.normal_sf(2.0))) < 4 * se

    def test_needs_data(self):
        with pytest.raises(ValueError):
            stats.tail_frequency(np.zeros(10), 0.0)


class TestTestReport:
    def test_consistency_enforced(self):
        # the verdict follows the statistic: it can be neither passed in nor set
        with pytest.raises(TypeError):
            stats.TestReport(
                statistic=2.0, n=10, threshold=1.0, passed=True, description="x"
            )
        rep = stats.TestReport(statistic=2.0, n=10, threshold=1.0, description="x")
        with pytest.raises(AttributeError):
            rep.passed = True
        assert not rep.passed

    def test_pass_is_statistic_at_most_threshold_and_json(self):
        import json

        rep = stats.TestReport(0.5, 100, 1.0, "demo")
        assert rep.passed
        data = json.loads(rep.to_json())
        assert data["pass"] is True
        assert data["n"] == 100
        assert stats.TestReport(1.0, 10, 1.0, "x").passed
        assert json.loads(stats.TestReport(2.0, 10, 1.0, "x").to_json())["pass"] is False
