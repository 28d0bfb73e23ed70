import math

import numpy as np
import pytest

from andex import covariance as cov, field, scales
from andex.errors import EmbeddingInvalidError

from conftest import random_lattice_points
from oracles import check_hypotheses

ALL_FAMILIES = [
    ("iid", 1, {}),
    ("iid", 2, {}),
    ("cube_indicator", 1, {"m": 4}),
    ("cube_indicator", 2, {"m": 2}),
    ("cube_indicator", 1, {"m": 0.5}),
    ("gaussian_kernel", 1, {"ell": 5.0}),
    ("gaussian_kernel", 2, {"ell": 1.5}),
    ("exponential", 1, {"alpha": 0.3}),
    ("exponential", 2, {"alpha": 0.05}),
]


# (family, params) of each model, and (family, d, params, L) at which the
# field sampler embeds it
FAMILY_GRID = [("iid", {})] + [
    (family, {key: value})
    for family, key, values in (
        ("cube_indicator", "m", (0.5, 1, 1.5, 2, 2.5, 4, 7.3)),
        ("gaussian_kernel", "ell", (0.5, 1.5, 5)),
        ("exponential", "alpha", (0.1, 1, 5)),
    )
    for value in values
]
SAMPLER_GRID = [
    (family, d, params, L)
    for d, Ls in ((1, (2, 9, 40, 129)), (2, (2, 9, 40, 129)), (3, (2, 9)))
    for family, params in FAMILY_GRID
    for L in Ls
]


def test_every_family_is_covered():
    # each table entry is in the sampler grid and in the property tests
    assert set(cov.FAMILIES) == {family for family, _ in FAMILY_GRID}
    assert set(cov.FAMILIES) == {family for family, _, _ in ALL_FAMILIES}


class TestEvalCov:
    def test_iid_unit_vector(self, iid1):
        assert cov.eval_cov_offsets(iid1, [[1], [0]]).tolist() == [0.0, 1.0]

    def test_cube_tent(self, cube4):
        half, zero = cov.eval_cov_offsets(cube4, [[2], [4]])
        assert half == pytest.approx(0.5)
        assert zero == 0.0

    def test_gaussian(self, gauss5):
        (v,) = cov.eval_cov_offsets(gauss5, [[1]])
        assert v == pytest.approx(math.exp(-0.02))
        assert v == pytest.approx(0.980199, abs=1e-6)

    def test_cube_product_structure(self):
        m = cov.CovarianceModel("cube_indicator", 2, {"m": 4})
        assert cov.eval_cov_offsets(m, [[2, 1]])[0] == pytest.approx(0.5 * 0.75)

    @pytest.mark.parametrize("family,d,params", ALL_FAMILIES)
    def test_basic_properties(self, family, d, params):
        m = cov.CovarianceModel(family, d, params)
        pts = random_lattice_points(d, 100, seed=42)
        v = cov.eval_cov_offsets(m, pts)
        v_neg = cov.eval_cov_offsets(m, -pts)
        assert np.allclose(v, v_neg, atol=0)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)
        assert cov.eval_cov_offsets(m, [[0] * d])[0] == 1.0

    @pytest.mark.parametrize("family,d,params", ALL_FAMILIES)
    def test_off_origin_upper_bound(self, family, d, params):
        # v(x) <= 1 - 1/d_L off the origin for these unimodal families
        m = cov.CovarianceModel(family, d, params)
        d_L = cov.derive_dL(m)
        pts = random_lattice_points(d, 200, seed=3)
        pts = pts[np.any(pts != 0, axis=1)]
        v = cov.eval_cov_offsets(m, pts)
        assert np.all(v <= 1.0 - 1.0 / d_L + 1e-12)


class TestDeriveDL:
    def test_iid(self, iid1):
        assert cov.derive_dL(iid1) == 1.0

    def test_cube_exact(self, cube4):
        assert cov.derive_dL(cube4) == 4.0

    def test_gaussian(self, gauss5):
        expected = 1.0 / (1.0 - math.exp(-0.02))
        assert cov.derive_dL(gauss5) == pytest.approx(expected, rel=1e-14)
        assert cov.derive_dL(gauss5) == pytest.approx(50.5017, abs=5e-4)

    @pytest.mark.parametrize("family,d,params", ALL_FAMILIES)
    def test_consistency_with_eval(self, family, d, params):
        m = cov.CovarianceModel(family, d, params)
        e = np.eye(d, dtype=int)
        units = cov.eval_cov_offsets(m, np.concatenate([e, -e]))
        assert 1.0 - 1.0 / cov.derive_dL(m) == pytest.approx(
            np.max(units), abs=1e-12
        )


class TestShape:
    # shape_grid(model, a_L, half)[half + x] is the shape at x in d = 1
    def test_origin(self, cube4):
        assert cov.shape_grid(cube4, 6.0, 0).tolist() == [0.0]

    def test_iid(self, iid1):
        assert cov.shape_grid(iid1, 6.0, 3)[3 + 3] == 6.0

    def test_cube(self, cube4):
        assert cov.shape_grid(cube4, 6.0, 1)[1 + 1] == pytest.approx(1.5)

    def test_zero_iff_cov_one(self, cube4):
        s = cov.shape_grid(cube4, 6.0, 6)
        v = cov.eval_cov_offsets(cube4, np.arange(-6, 7)[:, None])
        assert np.array_equal(s == 0.0, v == 1.0)

    @pytest.mark.parametrize("a_L", [-1.0, float("nan")])
    def test_bad_a_L_rejected(self, cube4, a_L):
        with pytest.raises(ValueError, match="nonnegative"):
            cov.shape_grid(cube4, a_L, 4)


class TestCheckHypotheses:
    def _scales_for(self, m, L):
        d_L = cov.derive_dL(m)
        a_L = max(scales.compute_aL(L, m.d), d_L + 1.0)
        return scales.ScaleSet(
            L=L, d=m.d, a_L=a_L, tau_L=0.0,
            R_L=max(5, L // 4 - 1 + (L // 4) % 2), r_L=3, d_L=d_L,
        )

    def test_iid_tail_zero(self, iid1):
        rep = check_hypotheses(iid1, 1024, self._scales_for(iid1, 1024))
        assert rep.tail_stat == 0.0
        assert rep.shortrange_ok

    def test_cube_compact_support(self, cube4):
        rep = check_hypotheses(cube4, 1024, self._scales_for(cube4, 1024))
        assert rep.tail_stat == 0.0

    def test_exponential_positive_tail(self):
        m = cov.CovarianceModel("exponential", 1, {"alpha": 0.05})
        rep = check_hypotheses(m, 64, self._scales_for(m, 64))
        assert rep.tail_stat > 0.0
        assert np.isfinite(rep.assumption14_ratio)

    def test_json(self, iid1):
        rep = check_hypotheses(iid1, 256, self._scales_for(iid1, 256))
        import json

        assert "tail_stat" in json.loads(rep.to_json())


class TestCirculantSpectrum:
    def test_iid_delta(self, iid1):
        spec = cov.circulant_spectrum(iid1, 8)
        assert np.allclose(spec, 1.0, atol=1e-14)

    def test_cube2_closed_form(self, cube2):
        spec = cov.circulant_spectrum(cube2, 16)
        k = np.arange(16)
        assert np.allclose(spec, 1.0 + np.cos(2 * np.pi * k / 16), atol=1e-12)
        assert np.all(spec >= -1e-12)

    def test_exponential_underpadded_invalid(self):
        # the two-dimensional exponential kernel wrapped onto a tiny torus
        # has a genuinely negative spectral entry
        m = cov.CovarianceModel("exponential", 2, {"alpha": 0.01})
        with pytest.raises(EmbeddingInvalidError):
            cov.circulant_spectrum(m, 8)

    @pytest.mark.parametrize("family,d,params,L", SAMPLER_GRID)
    def test_bochner_positivity_when_padded(self, family, d, params, L):
        # every family's lattice spectrum is nonnegative, so the sampler's
        # circulant embedding is valid up to roundoff on its own torus
        m = cov.CovarianceModel(family, d, params)
        M = field.grid_side(L) + 2 * cov.effective_radius(m)
        if M**d > 2e6:
            pytest.skip(f"torus of {M}^{d} sites")
        spec = cov.circulant_spectrum(m, M)
        assert np.min(spec) >= -1e-12 * np.max(spec)

    @pytest.mark.parametrize("shape", [(8193,), (4101,), (61, 61), (64, 65), (17, 17, 17)])
    def test_fftn_equals_numpy_bit_for_bit(self, shape):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(shape)
        z = x + 1j * rng.standard_normal(shape)
        # fftn transforms its complex argument in place: hand it a copy
        assert np.array_equal(cov.fftn(x.astype(complex), x.ndim), np.fft.fftn(x))
        assert np.array_equal(cov.fftn(z.copy(), z.ndim), np.fft.fftn(z))


class TestModelConstruction:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            cov.CovarianceModel("triangular", 1, {})

    def test_missing_param(self):
        with pytest.raises(ValueError):
            cov.CovarianceModel("cube_indicator", 1, {})

    @pytest.mark.parametrize(
        "family,params",
        [
            ("iid", {"m": 3}),
            ("cube_indicator", {"m": 2, "ell": 1.0}),
            ("iid", {None: 3}),
            ("cube_indicator", {"m": 2, 1: 3}),
        ],
    )
    def test_parameter_the_family_does_not_take(self, family, params):
        with pytest.raises(ValueError, match="takes no parameter"):
            cov.CovarianceModel(family, 1, params)

    def test_config_without_family(self):
        with pytest.raises(ValueError, match="family"):
            cov.CovarianceModel.from_config({"m": 2}, 1)

    def test_config_roundtrip(self):
        m = cov.CovarianceModel.from_config({"family": "cube_indicator", "m": 4}, 2)
        assert m.family == "cube_indicator"
        assert m.d == 2
        assert m.to_config() == {"family": "cube_indicator", "m": 4}

    def test_dL_property(self, cube4):
        assert cov.derive_dL(cube4) == 4.0
