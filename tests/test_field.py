import itertools
import math
import tracemalloc

import numpy as np
import pytest

from andex import covariance as cov, field, harness, scales, spectrum

from oracles import xi_cap


def normalized_profile(side, d, seed=7):
    rng = np.random.default_rng(seed)
    g = np.abs(rng.standard_normal((side,) * d)) + 0.1
    return g / np.linalg.norm(g)


def at(s, x):
    """The value at x of the one field of ``s``, a block of one."""
    return s.values[field._at(s.L, x)].item()


def zeta_of(s, x0):
    """The zeta around x0 of the one field of ``s``, a block of one."""
    return field.fluctuations(s.values, s.L, x0, field._profile_grid(s.model, s.L, x0))


def phi_of(s, x0, weights):
    """Phi(x0) of the one field of ``s``."""
    return field.phi(zeta_of(s, x0), s.L, x0, weights).item()


def margins_of(s, x0, ss):
    """The E1, E2 and E3 margins around x0 of the one field of ``s``."""
    peak = np.array([at(s, x0)])
    return field.event_margins(peak, zeta_of(s, x0), s.model, s.L, x0, ss)[0].tolist()


class TestGeometry:
    def test_box_half(self):
        assert field.box_half(64) == 32
        assert field.box_half(65) == 32
        assert field.grid_side(64) == 65
        assert field.grid_side(7) == 7

    def test_window(self):
        assert field.window(7, [0], 0) == (slice(3, 4),)
        assert field.window(7, [-3, 3], 0) == (slice(0, 1), slice(6, 7))
        assert field.window(6, [1], 2) == (slice(2, 7),)
        with pytest.raises(ValueError, match="leaves the box"):
            field.window(7, [4], 0)


# (d, L, x0, half): odd and even L, a cube touching a face, a point cube
WINDOW_CASES = [
    (1, 9, (2,), 2),
    (1, 10, (-5,), 0),
    (2, 11, (1, -2), 3),
    (2, 12, (0, 0), 6),
    (3, 7, (0, 1, -1), 2),
    (3, 8, (-3, 2, 0), 1),
]


def _face_points(d, L, half):
    """For each axis and side, the point whose cube of half-width ``half``
    touches that face of Q_L, and the point one site further out."""
    h = L // 2
    for axis, sign in itertools.product(range(d), (-1, 1)):
        touch, beyond = [0] * d, [0] * d
        touch[axis] = sign * (h - half)
        beyond[axis] = sign * (h - half + 1)
        yield touch, beyond


class TestWindow:
    @pytest.mark.parametrize("d,L,x0,half", WINDOW_CASES)
    def test_selects_the_offset_block_in_c_order(self, d, L, x0, half):
        side = field.grid_side(L)
        sites = np.arange(side**d).reshape((side,) * d)
        idx = cov._offset_grid(d, half) + np.asarray(x0) + L // 2
        want = sites[tuple(np.moveaxis(idx, -1, 0))]
        got = sites[field.window(L, x0, half)]
        assert got.shape == (2 * half + 1,) * d
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d,L,half", [(1, 9, 2), (2, 12, 3), (3, 7, 1)])
    def test_touching_each_face_is_accepted_one_site_further_raises(self, d, L, half):
        side = field.grid_side(L)
        for touch, beyond in _face_points(d, L, half):
            sl = field.window(L, touch, half)
            assert any(s.start == 0 or s.stop == side for s in sl)
            assert all(0 <= s.start and s.stop <= side for s in sl)
            with pytest.raises(ValueError, match="leaves the box"):
                field.window(L, beyond, half)

    def test_phi_follows_the_window_rule(self, cube4):
        s = field.sample_field(cube4, 17, [4])
        weights = field.ProfileWeights.of(normalized_profile(7, 1), 1)
        for touch, beyond in _face_points(1, 17, 3):
            touch, beyond = tuple(touch), tuple(beyond)
            idx = weights.offsets + np.array(touch) + s.half
            want = float(weights.weights @ zeta_of(s, touch)[0][tuple(idx.T)])
            assert phi_of(s, touch, weights) == want
            with pytest.raises(ValueError, match="leaves the box"):
                phi_of(s, beyond, weights)

    def test_event_check_follows_the_window_rule(self):
        model = cov.CovarianceModel("cube_indicator", 2, {"m": 2})
        ss = scales.ScaleSet(
            L=21, d=2, a_L=6.0, tau_L=0.0, R_L=5, r_L=3, d_L=cov.derive_dL(model)
        )
        s = field.sample_field(model, 21, [6])
        # Q_{2R_L} has half-width R_L = 5
        for touch, beyond in _face_points(2, 21, 5):
            touch, beyond = tuple(touch), tuple(beyond)
            want, _ = _margins_uncached(s, touch, ss)
            assert margins_of(s, touch, ss) == want
            with pytest.raises(ValueError, match="leaves the box"):
                margins_of(s, beyond, ss)

    def test_xi_cap_follows_the_window_rule(self, cube4):
        # a profile as wide as the box leaves one admissible point
        s = field.sample_field(cube4, 7, [4])
        touching = field.ProfileWeights.of(normalized_profile(7, 1), 1)
        grid, sub_half = xi_cap(s, touching)
        assert sub_half == 0
        expect = at(s, [0]) + phi_of(s, (0,), touching)
        assert grid.shape == (1,) and grid[0] == pytest.approx(expect, rel=1e-12)
        beyond = field.ProfileWeights.of(normalized_profile(9, 1), 1)
        with pytest.raises(ValueError, match="larger than the box"):
            xi_cap(s, beyond)


class TestSamplers:
    def test_deterministic(self, cube4):
        s1 = field.sample_field(cube4, 32, [11])
        s2 = field.sample_field(cube4, 32, [11])
        assert np.array_equal(s1.values, s2.values)
        s3 = field.sample_field(cube4, 32, [12])
        assert not np.array_equal(s1.values, s3.values)

    def test_iid_matches_raw_normals_statistics(self, iid1):
        s = field.sample_field(iid1, 4096, [0])
        assert s.values.shape == (1, 4097)
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
        for sampler in ("dense", "circulant"):
            draws = field.sample_field(m, L, range(n), sampler=sampler).values
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
        vals = field.sample_field(gauss5, 65, range(n)).values[:, 32]
        assert abs(np.var(vals) - 1.0) < 5.0 / math.sqrt(n)

    def test_dense_site_limit(self, iid1):
        with pytest.raises(ValueError):
            field.sample_field(iid1, 10**5, [0], sampler="dense")

    def test_bad_hint(self, iid1):
        with pytest.raises(ValueError):
            field.sample_field(iid1, 32, [0], sampler="magic")

    def test_dense_factor_falls_back_to_eigh(self):
        # gaussian_kernel ell = 4 on 41 sites is positive semi-definite only
        # to rounding: Cholesky fails, and F = V sqrt(max(w, 0)) from eigh
        # reproduces C
        model = cov.CovarianceModel("gaussian_kernel", 1, {"ell": 4.0})
        offs = np.arange(-20, 21)[:, None]
        C = cov.eval_cov_offsets(model, offs[:, None, :] - offs[None, :, :])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(C)
        F = field._dense_factor(model, 41)
        assert np.max(np.abs(F @ F.T - C)) < 1e-12
        s = field.sample_field(model, 41, [0], sampler="dense")
        assert np.isfinite(s.values).all()

    def test_dense_factor_refuses_an_indefinite_covariance(self, monkeypatch):
        from andex.errors import CovarianceInconsistencyError

        # 1 on the diagonal and 0.9 between neighbours: eigenvalues down to -0.8
        def indefinite(model, offs):
            dist = np.abs(offs).sum(axis=-1)
            return np.where(dist == 0, 1.0, np.where(dist == 1, 0.9, 0.0))

        monkeypatch.setattr(cov, "eval_cov_offsets", indefinite)
        model = cov.CovarianceModel("exponential", 1, {"alpha": 0.37})
        field._dense_factor.cache_clear()
        with pytest.raises(CovarianceInconsistencyError, match="eigenvalue"):
            field.sample_field(model, 9, [0], sampler="dense")

    def test_invalid_embedding_raises(self, cube4, monkeypatch):
        # the default sampler is the circulant one, and an invalid
        # embedding is an error, not a switch to the dense sampler
        from andex.errors import EmbeddingInvalidError

        def invalid(model, M):
            raise EmbeddingInvalidError("forced")

        monkeypatch.setattr(field, "_circulant_amplitude", invalid)
        monkeypatch.setitem(field.SAMPLERS, "dense", None)
        with pytest.raises(EmbeddingInvalidError, match="forced"):
            field.sample_field(cube4, 9, [0])

    def test_values_read_only(self, iid1):
        s = field.sample_field(iid1, 32, [0])
        with pytest.raises(ValueError):
            s.values[0] = 1.0

    def test_dimension_is_the_models(self, iid1):
        # a d = 2 model's sample is a 5 x 5 grid for L = 4, not a line
        iid2 = cov.CovarianceModel("iid", 2)
        with pytest.raises(ValueError, match="grid shape"):
            field.FieldSample(values=np.zeros((1, 5)), L=4, model=iid2, seeds=(0,), sampler="dense")
        with pytest.raises(ValueError, match="grid shape"):
            field.FieldSample(values=np.zeros((1, 5)), L=4, model=iid1, seeds=(0, 1), sampler="dense")
        s = field.FieldSample(values=np.zeros((1, 5)), L=4, model=iid1, seeds=(0,), sampler="dense")
        assert s.d == 1

    def test_export_binary(self, iid1, tmp_path):
        s = field.sample_field(iid1, 8, [5])
        prefix = str(tmp_path / "f")
        s.export_binary(prefix)
        back = np.fromfile(prefix + ".bin", dtype="<f8")
        assert np.array_equal(back, s.values[0])
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
        for seed in (0, 1, 2024, 2**32, 2**64 - 1):
            s = field.sample_field(m, L, [seed], sampler="circulant")
            assert np.array_equal(s.values[0], v1_circulant_values(m, L, seed))

    def test_cached_factors_are_shared_and_read_only(self, cube4):
        same = cov.CovarianceModel("cube_indicator", 1, {"m": 4})
        for factor, n in ((field._circulant_amplitude, 41), (field._dense_factor, 9)):
            F = factor(cube4, n)
            assert factor(same, n) is F
            assert not F.flags.writeable
            with pytest.raises(ValueError):
                F[0] = 1.0


def seed_words(entropy, n):
    """numpy's SeedSequence(entropy).generate_state(n, np.uint64), the
    oracle of the seeding pass."""
    return np.random.SeedSequence(entropy).generate_state(n, np.uint64)


class TestSeedingPass:
    """The block seeding pass (field._seed_state) gives numpy's SeedSequence
    words bit for bit: the trial seeds of a block and the PCG64 words of a
    block's generators."""

    MASTERS = (0, 1, 2024, 2**32 - 1, 2**32, 2**64 + 3)  # 2**64 + 3: five entropy words

    @pytest.mark.parametrize("master", MASTERS)
    @pytest.mark.parametrize(
        "start,stop", [(0, 32), (0, 1), (45, 77), (2**32 - 5, 2**32 + 27)]
    )
    def test_trial_seeds(self, master, start, stop):
        # blocks from 0 and from mid-run, and one whose indices reach two
        # entropy words at 2**32
        want = [int(seed_words((master, i, 0), 1)[0]) for i in range(start, stop)]
        assert harness.trial_seeds(master, start, stop) == want

    def test_generator_words(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        words, counts = field._int_words(seeds)
        state = field._seed_state(words, counts, 4)
        assert state.dtype == np.uint64 and state.flags.c_contiguous
        for row, seed in zip(state, seeds):
            assert np.array_equal(row, seed_words(seed, 4))

    def test_generators_equal_default_rng(self):
        seeds = [0, 2**32, 2**64 - 1, 2**70 + 9, 123456789]
        for gen, seed in zip(field._generators(seeds), seeds):
            ref = np.random.default_rng(np.random.SeedSequence(seed))
            assert np.array_equal(gen.standard_normal(8), ref.standard_normal(8))

    def test_entropy_beyond_the_pool(self):
        # columns of 1 to 9 words in one pass: those past the pool of 4 mix
        # their further words in, the others stop at their length
        rng = np.random.default_rng(8)
        cols = [rng.integers(0, 2**32, size=n, dtype=np.uint32) for n in range(1, 10)]
        entropy = np.zeros((9, len(cols)), np.uint32)
        for j, col in enumerate(cols):
            entropy[: col.size, j] = col
        state = field._seed_state(entropy, np.arange(1, 10), 3)
        for row, col in zip(state, cols):
            assert np.array_equal(row, seed_words(col, 3))

    def test_negative_seed_rejected_as_numpy_does(self):
        with pytest.raises(ValueError, match="non-negative"):
            field.sample_field(cov.CovarianceModel("iid", 1, {}), 9, [-1])


BATCH_SEEDS = (3, 11, 2024, 0, 7, 123456789, 42)
BATCH_FAMILIES = [
    ("iid", {}),
    ("cube_indicator", {"m": 2}),
    ("gaussian_kernel", {"ell": 1.5}),
    ("exponential", {"alpha": 2.0}),
]


def assert_batches_equal_single_draws(model, L, sampler):
    """Each field of a block of 1, 2 or 7 seeds equals the block of one of
    its seed byte for byte."""
    singles = {s: field.sample_field(model, L, [s], sampler).values[0] for s in BATCH_SEEDS}
    for n in (1, 2, 7):
        block = field.sample_field(model, L, BATCH_SEEDS[:n], sampler)
        assert (block.seeds, block.sampler) == (BATCH_SEEDS[:n], sampler)
        for seed, values in zip(block.seeds, block.values, strict=True):
            assert values.tobytes() == singles[seed].tobytes()


class TestBatchDraw:
    @pytest.mark.parametrize("sampler", ["circulant", "dense"])
    @pytest.mark.parametrize("d,L", [(1, 40), (2, 12), (3, 4)])
    @pytest.mark.parametrize("family,params", BATCH_FAMILIES)
    def test_batch_equals_single_draws(self, family, params, d, L, sampler):
        assert field.grid_side(L) ** d <= field.DENSE_SITE_LIMIT
        assert_batches_equal_single_draws(cov.CovarianceModel(family, d, params), L, sampler)

    @pytest.mark.parametrize(
        "family,params,L,M",
        [
            ("iid", {}, 8192, 8193),
            ("iid", {}, 4100, 4101),
            ("cube_indicator", {"m": 2}, 4096, 4101),
        ],
    )
    def test_batch_equals_single_draws_at_large_prime_torus(self, family, params, L, M):
        # 8193 = 3 * 2731 and 4101 = 3 * 1367: the FFT runs Bluestein's
        # algorithm on these sides
        model = cov.CovarianceModel(family, 1, params)
        assert field.torus_side(model, L) == M
        assert_batches_equal_single_draws(model, L, "circulant")

    @pytest.mark.parametrize(
        "family,d,params,L",
        [
            ("iid", 1, {}, 8192),
            ("cube_indicator", 1, {"m": 2}, 83),
            ("iid", 1, {}, 200000),
            ("cube_indicator", 2, {"m": 2}, 40),
            ("iid", 2, {}, 128),
            ("iid", 3, {}, 16),
        ],
    )
    def test_draw_bytes_bounds_the_block_draw(self, family, d, params, L):
        # the memory model of a block of circulant draws against its
        # measured peak: blocks of 32 small grids (the generators and
        # numpy's buffer for the real part count there), of 15 and 7, and
        # of one large one
        model = cov.CovarianceModel(family, d, params)
        B = field.batch_size(model, L)
        field.sample_field(model, L, range(B))  # the cached factors are not the draw's
        tracemalloc.start()
        try:
            field.sample_field(model, L, range(B, 2 * B))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= field.draw_bytes(model, L)

    def test_batch_size(self, iid1):
        # a complex grid of 8193 sites takes 131088 bytes: 15 fit in 2 MiB
        # (2097152 bytes), 16 take 2097408
        assert field.batch_size(iid1, 8192) == 15
        assert field.batch_size(iid1, 2**20) == 1
        assert field.batch_size(iid1, 64) == field.DRAW_BATCH_MAX


class TestPeakConditioning:
    def test_exact_value_at_x0(self, cube4):
        s = field.sample_field(cube4, 33, [3])
        vals, _ = field.condition(s.values, cube4, 33, (2,), 6.0)
        assert vals[0][field.window(33, [2], 0)].item() == 6.0

    def test_conditional_mean_profile(self, cube4):
        # E[xi(x) | xi(0) = v] = v * v_cov(x)
        n = 5000
        draws = field.sample_field(cube4, 25, range(n)).values
        vals, _ = field.condition(draws, cube4, 25, (0,), 5.0)
        mean = np.mean(vals, axis=0)
        h = 12
        prof = cov.eval_cov_offsets(cube4, np.arange(-h, h + 1)[:, None])
        assert np.max(np.abs(mean - 5.0 * prof)) < 5.0 / math.sqrt(n) * 3

    def test_conditional_variance(self, cube4):
        # Var(xi(x) | xi(0)) = 1 - v(x)^2
        n = 5000
        draws = field.sample_field(cube4, 25, range(n)).values
        vals, _ = field.condition(draws, cube4, 25, (0,), 5.0)
        var = np.var(vals, axis=0)
        h = 12
        prof = cov.eval_cov_offsets(cube4, np.arange(-h, h + 1)[:, None])
        assert np.max(np.abs(var - (1.0 - prof**2))) < 8.0 / math.sqrt(n)


class TestFluctuation:
    def test_zeta_zero_at_base(self, cube4):
        s = field.sample_field(cube4, 33, [1])
        assert zeta_of(s, (4,))[0][field.window(33, [4], 0)] == 0.0

    def test_decomposition_reassembles(self, cube4):
        s = field.sample_field(cube4, 33, [1])
        h = s.half
        offs = np.arange(-h, h + 1)[:, None] - np.array([4])
        prof = cov.eval_cov_offsets(cube4, offs)
        rebuilt = at(s, [4]) * prof + zeta_of(s, (4,))[0]
        assert np.allclose(rebuilt, s.values[0], atol=1e-12)

    def test_cov_zeta_monte_carlo(self, cube4):
        n = 8000
        draws = field.sample_field(cube4, 17, range(n)).values
        zeta = field.fluctuations(draws, 17, (0,), field._profile_grid(cube4, 17, (0,)))
        z1 = zeta[(slice(None),) + field.window(17, [1], 0)].ravel()
        z2 = zeta[(slice(None),) + field.window(17, [3], 0)].ravel()
        emp = float(np.mean(z1 * z2) - np.mean(z1) * np.mean(z2))
        # Cov(zeta(x), zeta(y)) = v(x - y) - v(x - x0) v(y - x0), here x0 = 0
        cv = cov.eval_cov_offsets(cube4, [[1 - 3], [1], [3]])
        assert emp == pytest.approx(cv[0] - cv[1] * cv[2], abs=0.06)

    def test_zeta_independent_of_peak(self, cube4):
        # zeta is unchanged when the conditioning value changes
        draw = field.sample_field(cube4, 25, [9]).values
        _, z5 = field.condition(draw, cube4, 25, (0,), 5.0)
        _, z7 = field.condition(draw, cube4, 25, (0,), 7.0)
        assert np.allclose(z5, z7, atol=1e-12)


BLOCK_FAMILIES = pytest.mark.parametrize(
    "family,params", [("iid", {}), ("cube_indicator", {"m": 2})]
)
BLOCK_BOXES = pytest.mark.parametrize("d,L,x0", [(1, 33, (3,)), (2, 13, (1, -2))])


class TestConditioning:
    @BLOCK_FAMILIES
    @BLOCK_BOXES
    def test_conditioned_field_is_the_decomposition_reassembled(self, family, params, d, L, x0):
        model = cov.CovarianceModel(family, d, params)
        s = field.sample_field(model, L, [5])
        expect = 5.5 * field._profile_grid(model, L, x0) + zeta_of(s, x0)[0]
        expect[field.window(L, x0, 0)] = 5.5
        got, _ = field.condition(s.values, model, L, x0, 5.5)
        assert np.array_equal(got[0], expect)

    @BLOCK_FAMILIES
    @BLOCK_BOXES
    def test_conditioned_zeta_is_the_zeta_of_its_field(self, family, params, d, L, x0):
        model = cov.CovarianceModel(family, d, params)
        s = field.sample_field(model, L, [5])
        vals, zeta = field.condition(s.values, model, L, x0, 5.5)
        prof = field._profile_grid(model, L, x0)
        assert np.array_equal(zeta, field.fluctuations(vals, L, x0, prof))
        assert not prof.flags.writeable


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
        # v at offsets -2rh .. 2rh: v(x) is v[x + 2 * rh]
        v = cov.eval_cov_offsets(cube4, np.arange(-2 * rh, 2 * rh + 1)[:, None])
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
                    * (v[i - j + 2 * rh] - v[i + 2 * rh] * v[j + 2 * rh])
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
        draws = field.sample_field(cube4, 17, range(n)).values
        zeta = field.fluctuations(draws, 17, (0,), field._profile_grid(cube4, 17, (0,)))
        phis = field.phi(zeta, 17, (0,), weights)
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
        s = field.sample_field(cube4, 33, [4])
        prof = normalized_profile(7, 1, seed=2)
        w = prof**2
        y = 3
        v = cov.eval_cov_offsets(cube4, np.arange(-3, 4)[:, None])
        acc = 0.0
        for i in range(-3, 4):
            if i == 0:
                continue
            zeta_y = at(s, [i + y]) - at(s, [y]) * v[i + 3]
            acc += w[i + 3] * zeta_y
        weights = field.ProfileWeights.of(prof, 1)
        assert phi_of(s, (y,), weights) == pytest.approx(acc, rel=1e-12)

    def test_phi_out_of_box(self, cube4):
        s = field.sample_field(cube4, 17, [4])
        weights = field.ProfileWeights.of(normalized_profile(7, 1), 1)
        with pytest.raises(ValueError):
            phi_of(s, (7,), weights)

    def test_xi_cap_matches_pointwise(self, cube4):
        s = field.sample_field(cube4, 33, [4])
        weights = field.ProfileWeights.of(normalized_profile(7, 1, seed=2), 1)
        grid, sub_half = xi_cap(s, weights)
        assert sub_half == s.half - 3
        for y in (-sub_half, -2, 0, 5, sub_half):
            expect = at(s, [y]) + phi_of(s, (y,), weights)
            assert grid[y + sub_half] == pytest.approx(expect, rel=1e-12)

    def test_xi_cap_variance(self, cube4):
        # Var Xi(y) = 1 + tau^2
        prof = normalized_profile(7, 1, seed=2)
        tau = field.compute_tau(cube4, prof)
        weights = field.ProfileWeights.of(prof, 1)
        n = 6000
        vals = np.empty(n)
        for seed in range(n):
            s = field.sample_field(cube4, 17, [seed])
            grid, sh = xi_cap(s, weights)
            vals[seed] = grid[sh]
        assert np.var(vals) == pytest.approx(1.0 + tau**2, abs=0.08)


class TestEventCheck:
    def _scales(self, model, L=41, a_L=6.0, R_L=9, r_L=3):
        return scales.ScaleSet(
            L=L, d=model.d, a_L=a_L, tau_L=0.0, R_L=R_L, r_L=r_L, d_L=cov.derive_dL(model)
        )

    def _conditioned(self, s, x0, value, ss):
        """The margins around x0 of ``s`` conditioned on xi(x0) = value."""
        vals, zeta = field.condition(s.values, s.model, s.L, x0, value)
        peak = vals[(slice(None),) + field.window(s.L, x0, 0)].reshape(-1)
        return field.event_margins(peak, zeta, s.model, s.L, x0, ss)[0].tolist()

    def test_e1_deterministic(self, cube4):
        ss = self._scales(cube4)
        s = field.sample_field(cube4, 41, [0])
        m1 = self._conditioned(s, (0,), 6.5, ss)[0]
        assert m1 > 0 and m1 == pytest.approx(2.5)
        assert self._conditioned(s, (0,), 12.0, ss)[0] <= 0

    def test_constructed_member(self, cube4):
        # A hand-built field: exact profile plus a tiny admissible wiggle.
        ss = self._scales(cube4)
        h = field.box_half(41)
        offs = np.arange(-h, h + 1)[:, None]
        vals = 6.0 * cov.eval_cov_offsets(cube4, offs)
        vals[h + 5] += 0.01
        s = field.FieldSample(values=vals[None], L=41, model=cube4, seeds=(0,), sampler="dense")
        assert all(m > 0 for m in margins_of(s, (0,), ss))

    def test_zero_fluctuation_margins(self, cube4):
        ss = self._scales(cube4)
        h = field.box_half(41)
        vals = 6.0 * cov.eval_cov_offsets(cube4, np.arange(-h, h + 1)[:, None])
        s = field.FieldSample(values=vals[None], L=41, model=cube4, seeds=(0,), sampler="dense")
        margins = margins_of(s, (0,), ss)
        # zeta vanishes identically, so E2/E3 hold with full slack
        assert margins[1] == pytest.approx(0.1 * 6.0 * 0.25)  # min shape
        assert margins[2] > 0

    def test_e2_violated_by_large_wiggle(self, cube4):
        ss = self._scales(cube4)
        h = field.box_half(41)
        vals = 6.0 * cov.eval_cov_offsets(cube4, np.arange(-h, h + 1)[:, None])
        vals[h + 2] += 1.0  # S(2) = 6 * 0.5 = 3; bound is 0.3
        s = field.FieldSample(values=vals[None], L=41, model=cube4, seeds=(0,), sampler="dense")
        assert margins_of(s, (0,), ss)[1] == pytest.approx(0.3 - 1.0)

    def test_event_at_offset_base_point(self, cube4):
        ss = self._scales(cube4)
        assert self._conditioned(field.sample_field(cube4, 61, [2]), (7,), 6.0, ss)[0] > 0

    def test_window_leaves_box(self, cube4):
        ss = self._scales(cube4)
        s = field.sample_field(cube4, 41, [0])
        with pytest.raises(ValueError):
            margins_of(s, (18,), ss)

    def test_member_implies_local_max_with_gap(self, cube4):
        # On the event the base point dominates the window by a margin.
        ss = self._scales(cube4)
        h = field.box_half(41)
        vals = 6.0 * cov.eval_cov_offsets(cube4, np.arange(-h, h + 1)[:, None])
        rng = np.random.default_rng(8)
        vals += 0.01 * rng.standard_normal(vals.shape)
        vals[h] = 6.0
        s = field.FieldSample(values=vals[None], L=41, model=cube4, seeds=(0,), sampler="dense")
        m1, m2, m3 = margins_of(s, (0,), ss)
        assert m1 > 0 and m2 >= 0 and m3 >= 0
        window = vals[h - 9 : h + 10]
        gap = at(s, [0]) - np.max(np.delete(window, 9))
        assert gap >= 0.5 * ss.a_L / ss.d_L


def _margins_uncached(s, x0, ss):
    """margins_of from a freshly evaluated profile and windows, as every
    trial computed them before they were cached: ([m1, m2, m3], profile)."""
    offs = cov._offset_grid(s.d, s.half) - np.asarray(x0)
    prof = cov.eval_cov_offsets(s.model, offs)
    zeta = zeta_of(s, x0)[0]
    dev = abs(at(s, x0) - ss.a_L)
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
    return [float(ss.theta - dev), margin2, margin3], prof


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
            s = field.sample_field(model, L, [100 * sweep + L + R_L])
            ss = scales.ScaleSet(L=L, d=d, a_L=6.0, tau_L=0.0, R_L=R_L, r_L=3, d_L=cov.derive_dL(model))
            want, prof = _margins_uncached(s, x0, ss)
            assert margins_of(s, x0, ss) == want
            cached_prof = field._profile_grid(model, L, x0)
            assert cached_prof.tobytes() == prof.tobytes()
            # Phi(x0) from a fresh zeta and fresh weights
            zeta = s.values[0] - at(s, x0) * prof
            zeta[field.window(L, x0, 0)] = 0.0
            fresh = field.ProfileWeights.of(normalized_profile(5, d), d)
            idx = fresh.offsets + np.array(x0) + s.half
            w = weights[d]
            assert phi_of(s, x0, w) == float(fresh.weights @ zeta[tuple(idx.T)])
            windows = field._event_windows(model, L, x0, R_L)
            cached = (cached_prof, w.offsets, w.weights, *windows)
            assert not any(a.flags.writeable for a in cached)
