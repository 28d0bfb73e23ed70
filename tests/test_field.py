import dataclasses
import itertools
import math

import numpy as np
import pytest

from andex import covariance as cov, field, scales, spectrum


def normalized_profile(side, d, seed=7):
    rng = np.random.default_rng(seed)
    g = np.abs(rng.standard_normal((side,) * d)) + 0.1
    return g / np.linalg.norm(g)


class TestGeometry:
    def test_box_half(self):
        assert field.box_half(64) == 32
        assert field.box_half(65) == 32
        assert field.grid_side(64) == 65
        assert field.grid_side(7) == 7

    def test_point_to_index(self):
        assert field.point_to_index([0], 3) == (3,)
        assert field.point_to_index([-3, 3], 3) == (0, 6)
        with pytest.raises(ValueError):
            field.point_to_index([4], 3)


class TestSamplers:
    def test_deterministic(self, cube4):
        s1 = field.sample_field(cube4, 32, seed=11)
        s2 = field.sample_field(cube4, 32, seed=11)
        assert np.array_equal(s1.values, s2.values)
        s3 = field.sample_field(cube4, 32, seed=12)
        assert not np.array_equal(s1.values, s3.values)

    def test_iid_matches_raw_normals_statistics(self, iid1):
        s = field.sample_field(iid1, 4096, seed=0)
        assert s.values.shape == (4097,)
        assert abs(np.mean(s.values)) < 0.1
        assert abs(np.var(s.values) - 1.0) < 0.1

    @pytest.mark.parametrize(
        "family,d,params,L",
        [
            ("iid", 1, {}, 33),
            ("cube_indicator", 1, {"m": 4}, 41),
            ("cube_indicator", 2, {"m": 2}, 13),
            ("gaussian_kernel", 1, {"ell": 2.0}, 41),
        ],
    )
    def test_samplers_agree_on_law(self, family, d, params, L):
        # Monte Carlo second moments of both samplers against the kernel.
        m = cov.CovarianceModel(family, d, params)
        n = 4000
        for hint in ("dense", "circulant"):
            draws = np.stack(
                [
                    field.sample_field(m, L, seed=s, sampler_hint=hint).values
                    for s in range(n)
                ]
            )
            flat = draws.reshape(n, -1)
            emp = flat.T @ flat / n
            h = field.box_half(L)
            side = 2 * h + 1
            pts = np.stack(
                np.meshgrid(*[np.arange(-h, h + 1)] * d, indexing="ij"), axis=-1
            ).reshape(-1, d)
            exact = cov.eval_cov_offsets(m, pts[:, None, :] - pts[None, :, :])
            # SE of a covariance entry is ~ 1/sqrt(n)
            assert np.max(np.abs(emp - exact)) < 6.0 / math.sqrt(n)
            assert abs(np.mean(flat)) < 4.0 / math.sqrt(n * side**d)

    def test_circulant_exact_marginal_variance(self, gauss5):
        n = 3000
        vals = np.array(
            [field.sample_field(gauss5, 65, seed=s).at([0]) for s in range(n)]
        )
        assert abs(np.var(vals) - 1.0) < 5.0 / math.sqrt(n)

    def test_dense_site_limit(self, iid1):
        with pytest.raises(ValueError):
            field.sample_field(iid1, 10**5, seed=0, sampler_hint="dense")

    def test_bad_hint(self, iid1):
        with pytest.raises(ValueError):
            field.sample_field(iid1, 32, seed=0, sampler_hint="magic")

    def test_fallback_to_dense(self, cube4, monkeypatch):
        # when the spectral path reports an invalid embedding the sampler
        # falls back to the dense factorization on small boxes
        from andex.errors import EmbeddingInvalidError

        def boom(model, L, rng):
            raise EmbeddingInvalidError("forced")

        monkeypatch.setattr(field, "_circulant_draw", boom)
        s = field.sample_field(cube4, 9, seed=0)
        assert s.sampler == "dense"
        with pytest.raises(EmbeddingInvalidError):
            field.sample_field(cube4, 9, seed=0, sampler_hint="circulant")

    def test_values_read_only(self, iid1):
        s = field.sample_field(iid1, 32, seed=0)
        with pytest.raises(ValueError):
            s.values[0] = 1.0

    def test_export_binary(self, iid1, tmp_path):
        s = field.sample_field(iid1, 8, seed=5)
        prefix = str(tmp_path / "f")
        s.export_binary(prefix)
        back = np.fromfile(prefix + ".bin", dtype="<f8")
        assert np.array_equal(back, s.values)
        import json

        with open(prefix + ".json") as fh:
            meta = json.load(fh)
        assert meta["seed"] == 5 and meta["L"] == 8


def v1_circulant_values(model, L, seed):
    """Sampler v1's circulant synthesis, written out with numpy's FFT."""
    side = field.grid_side(L)
    M = side + 2 * cov.effective_radius(model)
    k = np.arange(M)
    signed = np.where(k <= M // 2, k, k - M)
    offs = np.stack(np.meshgrid(*[signed] * model.d, indexing="ij"), axis=-1)
    spec = np.fft.fftn(cov.eval_cov_offsets(model, offs)).real
    amp = np.sqrt(np.clip(spec, 0.0, None))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    a = rng.standard_normal((M,) * model.d)
    b = rng.standard_normal((M,) * model.d)
    X = np.fft.fftn(amp * (a + 1j * b)) / M ** (model.d / 2.0)
    return X.real[(slice(0, side),) * model.d]


class TestSamplerContract:
    """The seed -> field mapping of sampler v1 holds bit for bit."""

    @pytest.mark.parametrize("d,L", [(1, 8192), (1, 4100), (2, 60), (3, 16)])
    @pytest.mark.parametrize(
        "family,params",
        [("iid", {}), ("cube_indicator", {"m": 2}), ("gaussian_kernel", {"ell": 2.0})],
    )
    def test_circulant_draw_equals_v1(self, family, params, d, L):
        m = cov.CovarianceModel(family, d, params)
        for seed in (0, 1, 2024):
            s = field.sample_field(m, L, seed, sampler_hint="circulant")
            assert np.array_equal(s.values, v1_circulant_values(m, L, seed))

    def test_cached_factors_are_shared_and_read_only(self, cube4):
        same = cov.CovarianceModel("cube_indicator", 1, {"m": 4})
        for factor, n in ((field._circulant_amplitude, 41), (field._dense_factor, 9)):
            F = factor(cube4, n)
            assert factor(same, n) is F
            assert not F.flags.writeable
            with pytest.raises(ValueError):
                F[0] = 1.0


class TestPeakConditioning:
    def test_exact_value_at_x0(self, cube4):
        s = field.peak_conditioned_sample(cube4, 33, [2], 6.0, seed=3).base
        assert s.at([2]) == 6.0
        assert s.conditioned_at == ((2,), 6.0)

    def test_conditional_mean_profile(self, cube4):
        # E[xi(x) | xi(0) = v] = v * v_cov(x)
        n = 5000
        acc = np.zeros(field.grid_side(25))
        for seed in range(n):
            acc += field.peak_conditioned_sample(cube4, 25, [0], 5.0, seed).base.values
        mean = acc / n
        h = 12
        prof = cov.eval_cov_offsets(cube4, np.arange(-h, h + 1)[:, None])
        assert np.max(np.abs(mean - 5.0 * prof)) < 5.0 / math.sqrt(n) * 3

    def test_conditional_variance(self, cube4):
        # Var(xi(x) | xi(0)) = 1 - v(x)^2
        n = 5000
        vals = np.stack(
            [
                field.peak_conditioned_sample(cube4, 25, [0], 5.0, seed).base.values
                for seed in range(n)
            ]
        )
        var = np.var(vals, axis=0)
        h = 12
        prof = cov.eval_cov_offsets(cube4, np.arange(-h, h + 1)[:, None])
        assert np.max(np.abs(var - (1.0 - prof**2))) < 8.0 / math.sqrt(n)


class TestFluctuation:
    def test_zeta_zero_at_base(self, cube4):
        s = field.sample_field(cube4, 33, seed=1)
        view = field.fluctuation_view(s, [4])
        assert view.zeta[field.point_to_index([4], s.half)] == 0.0

    def test_decomposition_reassembles(self, cube4):
        s = field.sample_field(cube4, 33, seed=1)
        view = field.fluctuation_view(s, [4])
        h = s.half
        offs = np.arange(-h, h + 1)[:, None] - np.array([4])
        prof = cov.eval_cov_offsets(cube4, offs)
        rebuilt = s.at([4]) * prof + view.zeta
        assert np.allclose(rebuilt, s.values, atol=1e-12)

    def test_cov_zeta_formula(self, cube4):
        got = field.cov_zeta(cube4, [0], [1], [2])
        expect = cov.eval_cov(cube4, [-1]) - cov.eval_cov(
            cube4, [1]
        ) * cov.eval_cov(cube4, [2])
        assert got == pytest.approx(expect)

    def test_cov_zeta_monte_carlo(self, cube4):
        n = 8000
        z1 = np.empty(n)
        z2 = np.empty(n)
        for seed in range(n):
            s = field.sample_field(cube4, 17, seed=seed)
            v = field.fluctuation_view(s, [0])
            z1[seed] = v.zeta[field.point_to_index([1], s.half)]
            z2[seed] = v.zeta[field.point_to_index([3], s.half)]
        emp = float(np.mean(z1 * z2) - np.mean(z1) * np.mean(z2))
        assert emp == pytest.approx(field.cov_zeta(cube4, [0], [1], [3]), abs=0.06)

    def test_zeta_independent_of_peak(self, cube4):
        # zeta is unchanged when the conditioning value changes
        v5 = field.peak_conditioned_sample(cube4, 25, [0], 5.0, seed=9)
        v7 = field.peak_conditioned_sample(cube4, 25, [0], 7.0, seed=9)
        assert np.allclose(v5.zeta, v7.zeta, atol=1e-12)


VIEW_FAMILIES = pytest.mark.parametrize(
    "family,params", [("iid", {}), ("cube_indicator", {"m": 2})]
)
VIEW_BOXES = pytest.mark.parametrize("d,L,x0", [(1, 33, [3]), (2, 13, [1, -2])])


class TestViewConsumers:
    @VIEW_FAMILIES
    @VIEW_BOXES
    def test_peak_conditioned_is_the_view_reassembled(self, family, params, d, L, x0):
        model = cov.CovarianceModel(family, d, params)
        v = field.fluctuation_view(field.sample_field(model, L, seed=5), x0)
        expect = 5.5 * v.profile + v.zeta
        expect[field.point_to_index(x0, v.base.half)] = 5.5
        got = field.peak_conditioned_sample(model, L, x0, 5.5, seed=5).base
        assert np.array_equal(got.values, expect)
        assert got.sampler == v.base.sampler
        assert got.conditioned_at == (tuple(x0), 5.5)

    @VIEW_FAMILIES
    @VIEW_BOXES
    def test_conditioned_view_is_the_view_of_its_field(self, family, params, d, L, x0):
        model = cov.CovarianceModel(family, d, params)
        got = field.peak_conditioned_sample(model, L, x0, 5.5, seed=5)
        expect = field.fluctuation_view(got.base, x0)
        assert got.x0 == expect.x0
        assert np.array_equal(got.profile, expect.profile)
        assert np.array_equal(got.zeta, expect.zeta)
        assert not got.profile.flags.writeable and not got.zeta.flags.writeable

    def test_view_is_frozen_and_read_only(self, cube4):
        view = field.fluctuation_view(field.sample_field(cube4, 33, seed=1), [4])
        with pytest.raises(ValueError):
            view.profile[0] = 1.0
        with pytest.raises(ValueError):
            view.zeta[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            view.x0 = (0,)


class TestTau:
    def test_iid_closed_form(self, iid1):
        # with no correlations tau^2 collapses to sum_{x != 0} w(x)^2
        prof = normalized_profile(5, 1)
        w = np.delete(prof**2, 2)
        assert field.compute_tau(iid1, prof) == pytest.approx(
            math.sqrt(np.sum(w**2)), rel=1e-12
        )

    def test_brute_force(self, cube4):
        prof = normalized_profile(7, 1, seed=2)
        rh = 3
        w = prof**2
        acc = 0.0
        for i in range(-rh, rh + 1):
            if i == 0:
                continue
            for j in range(-rh, rh + 1):
                if j == 0:
                    continue
                acc += (
                    w[i + rh]
                    * w[j + rh]
                    * (
                        cov.eval_cov(cube4, [i - j])
                        - cov.eval_cov(cube4, [i]) * cov.eval_cov(cube4, [j])
                    )
                )
        assert field.compute_tau(cube4, prof) == pytest.approx(
            math.sqrt(acc), rel=1e-12
        )

    def test_monte_carlo_phi_variance(self, cube4):
        # tau^2 is the variance of Phi(0); verify by simulation
        prof = normalized_profile(7, 1, seed=2)
        tau = field.compute_tau(cube4, prof)
        weights = field.ProfileWeights.of(prof, 1)
        n = 6000
        phis = np.empty(n)
        for seed in range(n):
            s = field.sample_field(cube4, 17, seed=seed)
            phis[seed] = field.phi_at(field.fluctuation_view(s, [0]), weights)
        assert np.var(phis) == pytest.approx(tau**2, abs=0.05)
        assert abs(np.mean(phis)) < 0.05

    def test_unnormalized_profile_rejected(self, cube4):
        with pytest.raises(ValueError):
            field.compute_tau(cube4, np.ones(5))

    def test_even_profile_rejected(self, cube4):
        prof = np.ones(4) / 2.0
        with pytest.raises(ValueError):
            field.compute_tau(cube4, prof)


class TestPhiAndXiCap:
    def test_phi_brute_force(self, cube4):
        s = field.sample_field(cube4, 33, seed=4)
        prof = normalized_profile(7, 1, seed=2)
        w = prof**2
        y = 3
        acc = 0.0
        for i in range(-3, 4):
            if i == 0:
                continue
            zeta_y = s.at([i + y]) - s.at([y]) * cov.eval_cov(cube4, [i])
            acc += w[i + 3] * zeta_y
        view = field.fluctuation_view(s, [y])
        weights = field.ProfileWeights.of(prof, 1)
        assert field.phi_at(view, weights) == pytest.approx(acc, rel=1e-12)

    def test_phi_out_of_box(self, cube4):
        s = field.sample_field(cube4, 17, seed=4)
        view = field.fluctuation_view(s, [7])
        weights = field.ProfileWeights.of(normalized_profile(7, 1), 1)
        with pytest.raises(ValueError):
            field.phi_at(view, weights)

    def test_xi_cap_matches_pointwise(self, cube4):
        s = field.sample_field(cube4, 33, seed=4)
        view = field.fluctuation_view(s, [0])
        weights = field.ProfileWeights.of(normalized_profile(7, 1, seed=2), 1)
        grid, sub_half = field.xi_cap(view, weights)
        assert sub_half == s.half - 3
        for y in (-sub_half, -2, 0, 5, sub_half):
            expect = s.at([y]) + field.phi_at(field.fluctuation_view(s, [y]), weights)
            assert grid[y + sub_half] == pytest.approx(expect, rel=1e-12)

    def test_xi_cap_variance(self, cube4):
        # Var Xi(y) = 1 + tau^2
        prof = normalized_profile(7, 1, seed=2)
        tau = field.compute_tau(cube4, prof)
        weights = field.ProfileWeights.of(prof, 1)
        n = 6000
        vals = np.empty(n)
        for seed in range(n):
            s = field.sample_field(cube4, 17, seed=seed)
            grid, sh = field.xi_cap(field.fluctuation_view(s, [0]), weights)
            vals[seed] = grid[sh]
        assert np.var(vals) == pytest.approx(1.0 + tau**2, abs=0.08)


class TestEventCheck:
    def _scales(self, model, L=41, a_L=6.0, R_L=9, r_L=3):
        return scales.ScaleSet(
            L=L, d=model.d, a_L=a_L, tau_L=0.0, R_L=R_L, r_L=r_L, d_L=cov.derive_dL(model)
        )

    def test_e1_deterministic(self, cube4):
        ss = self._scales(cube4)
        good = field.peak_conditioned_sample(cube4, 41, [0], 6.5, seed=0)
        rep = field.event_check(good, ss)
        assert rep.in_E1 and rep.margins[0] == pytest.approx(2.5)
        bad = field.peak_conditioned_sample(cube4, 41, [0], 12.0, seed=0)
        assert not field.event_check(bad, ss).in_E1

    def test_constructed_member(self, cube4):
        # A hand-built field: exact profile plus a tiny admissible wiggle.
        ss = self._scales(cube4)
        h = field.box_half(41)
        offs = np.arange(-h, h + 1)[:, None]
        vals = 6.0 * cov.eval_cov_offsets(cube4, offs)
        vals[h + 5] += 0.01
        s = field.FieldSample(
            values=vals, L=41, d=1, model=cube4, seed=0, sampler="dense"
        )
        rep = field.event_check(field.fluctuation_view(s, [0]), ss)
        assert rep.in_event
        assert all(m > 0 for m in rep.margins)

    def test_zero_fluctuation_margins(self, cube4):
        ss = self._scales(cube4)
        h = field.box_half(41)
        vals = 6.0 * cov.eval_cov_offsets(cube4, np.arange(-h, h + 1)[:, None])
        s = field.FieldSample(
            values=vals, L=41, d=1, model=cube4, seed=0, sampler="dense"
        )
        rep = field.event_check(field.fluctuation_view(s, [0]), ss)
        # zeta vanishes identically, so E2/E3 hold with full slack
        assert rep.in_E2 and rep.in_E3
        assert rep.margins[1] == pytest.approx(0.1 * 6.0 * 0.25)  # min shape
        assert rep.margins[2] > 0

    def test_e2_violated_by_large_wiggle(self, cube4):
        ss = self._scales(cube4)
        h = field.box_half(41)
        vals = 6.0 * cov.eval_cov_offsets(cube4, np.arange(-h, h + 1)[:, None])
        vals[h + 2] += 1.0  # S(2) = 6 * 0.5 = 3; bound is 0.3
        s = field.FieldSample(
            values=vals, L=41, d=1, model=cube4, seed=0, sampler="dense"
        )
        rep = field.event_check(field.fluctuation_view(s, [0]), ss)
        assert not rep.in_E2
        assert rep.margins[1] == pytest.approx(0.3 - 1.0)

    def test_event_at_offset_base_point(self, cube4):
        ss = self._scales(cube4)
        view = field.peak_conditioned_sample(cube4, 61, [7], 6.0, seed=2)
        rep = field.event_check(view, ss)
        assert rep.x0 == (7,)
        assert rep.in_E1

    def test_window_leaves_box(self, cube4):
        ss = self._scales(cube4)
        s = field.sample_field(cube4, 41, seed=0)
        with pytest.raises(ValueError):
            field.event_check(field.fluctuation_view(s, [18]), ss)

    def test_member_implies_local_max_with_gap(self, cube4):
        # On the event the base point dominates the window by a margin.
        ss = self._scales(cube4)
        h = field.box_half(41)
        vals = 6.0 * cov.eval_cov_offsets(cube4, np.arange(-h, h + 1)[:, None])
        rng = np.random.default_rng(8)
        vals += 0.01 * rng.standard_normal(vals.shape)
        vals[h] = 6.0
        s = field.FieldSample(
            values=vals, L=41, d=1, model=cube4, seed=0, sampler="dense"
        )
        rep = field.event_check(field.fluctuation_view(s, [0]), ss)
        assert rep.in_event
        window = s.values[h - 9 : h + 10]
        gap = s.at([0]) - np.max(np.delete(window, 9))
        assert gap >= 0.5 * ss.a_L / ss.d_L


def _event_check_uncached(view, ss):
    """event_check from a freshly evaluated profile and windows, as every
    trial computed it before they were cached."""
    s, x0 = view.base, view.x0
    offs = cov._offset_grid(s.d, s.half) - np.asarray(x0)
    prof = cov.eval_cov_offsets(s.model, offs)
    zeta = view.zeta
    dev = abs(s.at(x0) - ss.a_L)
    sup = np.max(np.abs(offs), axis=-1)
    sel2 = (sup <= (2 * ss.R_L) // 2) & (sup > 0)
    S = ss.a_L * (1.0 - prof)
    margin2 = float(np.min(0.1 * S[sel2] - np.abs(zeta[sel2])))
    sel3 = (sup <= ss.R_L // 2) & (sup > 0)
    sd = np.sqrt(np.clip(1.0 - prof[sel3] ** 2, 0.0, None))
    ratio = np.zeros_like(sd)
    pos = sd > 0
    ratio[pos] = np.abs(zeta[sel3][pos]) / sd[pos]
    l1 = np.sum(np.abs(offs[sel3]), axis=-1)
    bound = (ss.a_L / ss.d_L) ** (ss.kappa * l1) * math.sqrt(max(1.0, dev * ss.a_L))
    margin3 = float(np.min(bound - ratio))
    return field.EventReport(
        x0=x0,
        in_E1=bool(dev < ss.theta),
        in_E2=bool(margin2 >= 0.0),
        in_E3=bool(margin3 >= 0.0),
        margins=(float(ss.theta - dev), margin2, margin3),
    ), prof


class TestRunCaches:
    # (d, L, R_L, x0) with two L and two R_L per d, for two models: 16
    # geometries, twice the size of each cache, visited twice
    GEOMETRIES = [
        (d, L, R_L, x0)
        for d, Ls, R_Ls, x0 in [
            (1, (41, 61), (9, 13), (3,)),
            (2, (21, 25), (5, 7), (1, -2)),
        ]
        for L in Ls
        for R_L in R_Ls
    ]
    MODELS = [("cube_indicator", {"m": 2}), ("gaussian_kernel", {"ell": 1.5})]

    def test_cached_geometry_equals_a_fresh_computation(self):
        weights = {d: field.ProfileWeights.of(normalized_profile(5, d), d) for d in (1, 2)}
        for sweep, (family, params), (d, L, R_L, x0) in itertools.product(
            range(2), self.MODELS, self.GEOMETRIES
        ):
            model = cov.CovarianceModel(family, d, params)
            s = field.sample_field(model, L, seed=100 * sweep + L + R_L)
            view = field.fluctuation_view(s, x0)
            ss = scales.ScaleSet(L=L, d=d, a_L=6.0, tau_L=0.0, R_L=R_L, r_L=3, d_L=cov.derive_dL(model))
            want, prof = _event_check_uncached(view, ss)
            assert field.event_check(view, ss) == want
            assert view.profile.tobytes() == prof.tobytes()
            # Phi(x0) from a fresh zeta and fresh weights
            zeta = s.values - s.at(x0) * prof
            zeta[field.point_to_index(x0, s.half)] = 0.0
            fresh = field.ProfileWeights.of(normalized_profile(5, d), d)
            idx = fresh.offsets + np.array(x0) + s.half
            w = weights[d]
            assert field.phi_at(view, w) == float(fresh.weights @ zeta[tuple(idx.T)])
            windows = field._event_windows(model, L, x0, R_L)
            cached = (view.profile, w.offsets, w.weights, *windows)
            assert not any(a.flags.writeable for a in cached)
