import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_array
from scipy.sparse.linalg import ArpackNoConvergence

from andex import covariance as cov, field, scales, spectrum
from andex.errors import SolverConvergenceError

from oracles import dense_eigs, dstebz_count_above, form_gradient, quadratic_form, tied_blocks


def laplacian_matrix_1d(n):
    A = -2.0 * np.eye(n)
    A += np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    return A


class TestApplyHamiltonian:
    def test_matches_dense_matrix_1d(self):
        rng = np.random.default_rng(0)
        V = rng.standard_normal(9)
        psi = rng.standard_normal(9)
        H = laplacian_matrix_1d(9) + np.diag(V)
        assert np.allclose(spectrum.apply_hamiltonian(V, psi), H @ psi, atol=1e-13)

    def test_matches_dense_matrix_2d(self):
        rng = np.random.default_rng(1)
        V = rng.standard_normal((5, 5))
        psi = rng.standard_normal((5, 5))
        H = spectrum._assemble_dense(V)
        got = spectrum.apply_hamiltonian(V, psi)
        assert np.allclose(got.ravel(), H @ psi.ravel(), atol=1e-13)

    def test_dirichlet_single_site(self):
        # one site: Delta psi = -2 d psi
        V = np.array([3.0])
        psi = np.array([1.0])
        assert spectrum.apply_hamiltonian(V, psi) == pytest.approx([1.0])

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        V = rng.standard_normal((7, 7))
        a = rng.standard_normal((7, 7))
        b = rng.standard_normal((7, 7))
        lhs = float(np.sum(a * spectrum.apply_hamiltonian(V, b)))
        rhs = float(np.sum(b * spectrum.apply_hamiltonian(V, a)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            spectrum.apply_hamiltonian(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            spectrum.apply_hamiltonian(np.zeros(3), np.zeros((2, 2, 3)))
        # a block of 2 potentials needs 2 blocks of functions on its grid
        with pytest.raises(ValueError):
            spectrum.apply_hamiltonian(np.zeros((2, 3)), np.zeros((3, 2, 3)))
        with pytest.raises(ValueError):
            spectrum.apply_hamiltonian(np.zeros((2, 3)), np.zeros((2, 4, 4)))

    @pytest.mark.parametrize("shape", [(9,), (5, 6), (3, 4, 5)])
    def test_batch_axis_is_one_call_per_row(self, shape):
        # a block of 3 potentials, 4 functions each: each function is
        # one call with its own potential
        rng = np.random.default_rng(3)
        V = rng.standard_normal((3,) + shape)
        psi = rng.standard_normal((3, 4) + shape)
        got = spectrum.apply_hamiltonian(V, psi)
        assert got.shape == psi.shape
        for b in range(3):
            for j in range(4):
                one = spectrum.apply_hamiltonian(V[b], psi[b, j])
                assert got[b, j].tobytes() == one.tobytes()


class TestDenseEigs:
    def test_free_chain_closed_form(self):
        # Dirichlet Laplacian on n sites: lambda_j = -2 + 2 cos(pi j/(n+1))
        n = 11
        res = dense_eigs(np.zeros(n))
        j = np.arange(1, n + 1)
        expect = np.sort(-2.0 + 2.0 * np.cos(np.pi * j / (n + 1)))[::-1]
        assert np.allclose(res.eigenvalues, expect, atol=1e-12)

    def test_two_site_closed_form(self):
        # H = [[-2, 1], [1, -2]] + diag(v): analytic 2x2 eigenvalues
        V = np.array([0.5, -0.3])
        res = dense_eigs(V)
        mean = -2.0 + 0.1
        disc = math.sqrt(0.4**2 + 1.0)
        assert res.eigenvalues[0] == pytest.approx(mean + disc, rel=1e-12)
        assert res.eigenvalues[1] == pytest.approx(mean - disc, rel=1e-12)

    def test_potential_shift_identity(self):
        rng = np.random.default_rng(3)
        V = rng.standard_normal(15)
        a = dense_eigs(V).eigenvalues
        b = dense_eigs(V + 2.5).eigenvalues
        assert np.allclose(b, a + 2.5, atol=1e-10)

    def test_residuals_tiny(self):
        rng = np.random.default_rng(4)
        res = dense_eigs(rng.standard_normal((6, 6)), k=4)
        assert np.max(res.residuals) < 1e-11

    def test_deep_site_localizes(self):
        V = np.zeros(21)
        V[15] = 50.0
        res = dense_eigs(V, k=1)
        assert res.centers[0] == 15
        assert res.center_coords(0) == (5,)
        assert res.eigenvalues[0] == pytest.approx(50.0 - 2.0, abs=0.05)

    def test_deep_site_localizes_in_two_dimensions(self):
        # grid index (2, 7) of a 9 x 11 box: flat 2 * 11 + 7, coordinates
        # (2 - 4, 7 - 5)
        V = np.zeros((9, 11))
        V[2, 7] = 50.0
        res = dense_eigs(V, k=1)
        assert res.centers[0] == 29
        assert res.center_coords(0) == (-2, 2)

    def test_site_limit(self):
        with pytest.raises(ValueError):
            dense_eigs(np.zeros((70, 70)))

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        res = dense_eigs(rng.standard_normal(15), k=3)
        for i in range(3):
            phi = res.eigenfunctions[i]
            assert phi[res.centers[i]] > 0


class TestLanczos:
    def test_agrees_with_dense(self):
        rng = np.random.default_rng(6)
        V = 3.0 * rng.standard_normal(401)
        top = spectrum.top_k_eigs(V, 5)
        oracle = dense_eigs(V, 5)
        assert np.allclose(top.eigenvalues, oracle.eigenvalues, atol=1e-9)
        for i in range(5):
            overlap = abs(float(np.sum(top.eigenfunctions[i] * oracle.eigenfunctions[i])))
            assert overlap > 1.0 - 1e-9

    def test_agrees_with_dense_2d(self):
        rng = np.random.default_rng(7)
        V = 3.0 * rng.standard_normal((21, 21))
        top = spectrum.top_k_eigs(V, 3)
        oracle = dense_eigs(V, 3)
        assert np.allclose(top.eigenvalues, oracle.eigenvalues, atol=1e-9)

    def test_residual_guarantee(self):
        rng = np.random.default_rng(8)
        V = 2.0 * rng.standard_normal(1001)
        res = spectrum.top_k_eigs(V, 4)
        assert np.max(res.residuals) <= 1e-10

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        V = rng.standard_normal(301)
        a = spectrum.top_k_eigs(V, 2)
        b = spectrum.top_k_eigs(V, 2)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenfunctions, b.eigenfunctions)

    def test_degenerate_spectrum_returns_true_pairs(self):
        # constant potential in 2d has eigenvalue multiplicities; a
        # single-vector Krylov space holds one copy per distinct eigenvalue,
        # so every returned pair must still be a genuine eigenpair
        V = np.full((9, 9), 0.0)
        res = spectrum.top_k_eigs(V, 4)
        assert np.max(res.residuals) <= 1e-9
        distinct = np.unique(np.round(dense_eigs(V).eigenvalues, 10))
        for lam in res.eigenvalues:
            assert np.min(np.abs(distinct - lam)) < 1e-8

    def test_tied_blocks(self):
        # exact double eigenvalue from two decoupled identical deep sites
        V = np.zeros(21)
        V[3] = V[17] = 40.0
        res = dense_eigs(V, k=3)
        assert res.eigenvalues[0] == pytest.approx(res.eigenvalues[1], abs=1e-9)
        blocks = tied_blocks(res, tol=1e-8)
        assert blocks[0] == [0, 1]

    def test_small_problem_delegates(self):
        V = np.zeros(10)
        res = spectrum.top_k_eigs(V, 2)
        oracle = dense_eigs(V, 2)
        assert np.allclose(res.eigenvalues, oracle.eigenvalues, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            spectrum.top_k_eigs(np.zeros(100), 33)
        for V in (np.zeros(100), np.zeros((33, 33))):
            with pytest.raises(ValueError, match="k must be >= 1"):
                spectrum.top_k_eigs(V, 0)
        with pytest.raises(ValueError):
            spectrum.top_k_eigs(np.zeros(4), 5)

    def test_clustered_2d_spectrum_converges_past_former_cap(self):
        # macro_meso field (iid, d=2, L=60, k=3) at master seed 710005,
        # trial 0: lambda_4 and lambda_5 lie 6e-4 apart, and lambda_4 needs
        # more than 300 Lanczos steps to reach tol
        model = cov.CovarianceModel("iid", 2, {})
        V = np.array(field.sample_field(model, 60, field.trial_seeds(710005, 0, 1)).values[0])
        top = spectrum.top_k_eigs(V, 4)
        oracle = dense_eigs(V, 4)
        assert top.k == 4
        assert np.max(top.residuals) <= 1e-10
        assert np.max(np.abs(top.eigenvalues - oracle.eigenvalues)) <= 1e-9

    def test_nonconvergence_raises(self, monkeypatch):
        # ARPACK giving up on the large d >= 2 path surfaces as a
        # SolverConvergenceError
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spectrum, "eigsh", no_convergence)
        V = np.random.default_rng(10).standard_normal((25, 25))
        with pytest.raises(SolverConvergenceError):
            spectrum.top_k_eigs(V, 8)

    def test_residual_above_tol_raises(self, monkeypatch):
        # a pair whose true residual exceeds RESIDUAL_TOL is refused on every path
        real = spectrum._tridiagonal_top

        def off_by_1e6(*args):
            w, U = real(*args)
            return w + 1e-6, U

        monkeypatch.setattr(spectrum, "_tridiagonal_top", off_by_1e6)
        V = np.random.default_rng(10).standard_normal(201)
        with pytest.raises(SolverConvergenceError):
            spectrum.top_k_eigs(V, 3)


# Box shapes for the oracle matrix: d = 1, and for d = 2, 3 one box on each
# side of the switch from the dense subset eigh to ARPACK.
ORACLE_SHAPES = [(301,), (19, 19), (21, 21), (7, 7, 7), (9, 9, 9)]


def _flat(res, idx):
    return res.eigenfunctions[idx].reshape(len(idx), -1)


class TestTopKEigsOracle:
    def test_shapes_straddle_the_switch(self):
        limit = spectrum.SUBSET_SITE_LIMIT
        assert 19**2 <= limit < 21**2
        assert 7**3 <= limit < 9**3

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_random_potential_matches_oracle(self, shape, k):
        V = 3.0 * np.random.default_rng(math.prod(shape)).standard_normal(shape)
        top = spectrum.top_k_eigs(V, k)
        oracle = dense_eigs(V, k)
        assert top.k == k
        assert np.max(top.residuals) <= 1e-10
        assert np.max(np.abs(top.eigenvalues - oracle.eigenvalues)) <= 1e-9
        overlaps = np.abs(np.sum(_flat(top, range(k)) * _flat(oracle, range(k)), axis=1))
        assert np.min(overlaps) >= 1.0 - 1e-8
        assert top.centers == oracle.centers

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_degenerate_box_matches_oracle_projectors(self, shape, k):
        # V = 0 has multiple eigenvalues for d >= 2, so eigenvectors are not
        # unique: compare eigenvalues, and the projector onto the returned
        # vectors of each eigenvalue with the oracle's eigenspace projector
        V = np.zeros(shape)
        top = spectrum.top_k_eigs(V, k)
        oracle = dense_eigs(V)
        assert np.max(top.residuals) <= 1e-10
        assert np.max(np.abs(top.eigenvalues - oracle.eigenvalues[:k])) <= 1e-9
        for block in tied_blocks(top, tol=1e-8):
            Q = _flat(top, block)
            space = np.flatnonzero(np.abs(oracle.eigenvalues - top.eigenvalues[block[0]]) <= 1e-8)
            U = _flat(oracle, space)
            # the returned vectors lie in the eigenspace ...
            assert np.linalg.norm(U @ Q.T) ** 2 >= len(block) - 1e-8
            if len(space) == len(block):
                # ... and span all of it when the block is whole
                assert np.linalg.norm(Q.T @ Q - U.T @ U) <= 1e-8

    @pytest.mark.parametrize("shape", [(21, 21), (9, 9, 9)])
    def test_arpack_path_is_bit_reproducible(self, shape):
        V = np.random.default_rng(11).standard_normal(shape)
        assert V.size > spectrum.SUBSET_SITE_LIMIT
        a = spectrum.top_k_eigs(V, 5)
        b = spectrum.top_k_eigs(V, 5)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenfunctions, b.eigenfunctions)
        assert np.array_equal(a.residuals, b.residuals)


FILTER_FAMILIES = [
    ("iid", {}),
    ("cube_indicator", {"m": 2}),
    ("exponential", {"alpha": 1.0}),
    ("gaussian_kernel", {"ell": 1.0}),
]


def _plateau(shape=(25, 25)):
    V = np.zeros(shape)
    V[5:12, 8:15] = 2.0
    return V


def _two_equal_peaks(shape=(25, 25)):
    V = np.random.default_rng(12).standard_normal(shape)
    V[4, 6] = V[17, 19] = 5.0
    return V


def _spikes(shape=(21, 21)):
    # isolated sites so high that the top eigenvalue of H on a box around
    # one equals lambda_k to rounding: only the margin keeps c below it
    V = np.zeros(shape)
    V[3, 3] = V[3, 15] = V[15, 3] = V[15, 15] = 1e9
    return V


# (name, potential, k): potentials on which the cut is tight, tied or falls
# back to Weyl's bound
ADVERSARIAL = [
    ("zero", np.zeros((21, 21)), 4),
    ("constant", np.full((23, 23), 3.5), 8),
    ("plateau", _plateau(), 4),
    ("two_equal_peaks", _two_equal_peaks(), 2),
    ("two_equal_peaks", _two_equal_peaks(), 5),
    ("spikes", _spikes(), 1),
    ("spikes", _spikes(), 4),
    ("weyl_fallback", np.random.default_rng(13).standard_normal((21, 21)), 32),
    ("weyl_fallback_zero", np.zeros((21, 21)), 32),
]
ADVERSARIAL_SOLVES = [case for case in ADVERSARIAL if case[0] != "spikes"]


def _assert_interval_below(V, k):
    """a below the spectrum and c below lambda_k, strictly, by dense eigvalsh."""
    a, c = spectrum._filter_interval(V, k)
    w = np.linalg.eigvalsh(spectrum._assemble_dense(V))
    assert a < w[0]
    assert c < w[-k]
    weyl = np.sort(V, axis=None)[-k] - 4.0 * V.ndim
    assert c >= weyl - spectrum._FILTER_MARGIN * (weyl - a)


def _traced_block_solve(V, k):
    """tracemalloc's peak over _top_k_block(V, k), and the solvers' paths."""
    spectrum._top_k_block(V, k)  # scipy's first-call imports are not the solve's
    tracemalloc.start()
    try:
        solvers = spectrum._top_k_block(V, k)[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, solvers


class TestChebyshevFilter:
    def test_cut_below_lambda_k_across_families(self):
        # 200 d = 2 fields, 50 per family, and 8 d = 3 fields
        cases = [
            (cov.CovarianceModel(fam, 2, params), 20, i)
            for fam, params in FILTER_FAMILIES
            for i in range(50)
        ] + [
            (cov.CovarianceModel(fam, 3, params), 8, i)
            for fam, params in FILTER_FAMILIES
            for i in range(2)
        ]
        for model, L, i in cases:
            V = np.array(field.sample_field(model, L, field.trial_seeds(99, i, i + 1)).values[0])
            assert V.size > spectrum.SUBSET_SITE_LIMIT
            _assert_interval_below(V, (1, 2, 4, 8)[i % 4])

    @pytest.mark.parametrize(
        "name,V,k", ADVERSARIAL, ids=[f"{c[0]}-k{c[2]}" for c in ADVERSARIAL]
    )
    def test_cut_below_lambda_k_on_adversarial_potentials(self, name, V, k):
        _assert_interval_below(V, k)

    def test_weyl_alone_when_the_boxes_do_not_fit(self):
        # 32 boxes of side 5 that share no site or bond do not fit in 21 x 21
        V = np.random.default_rng(13).standard_normal((21, 21))
        a, c = spectrum._filter_interval(V, 32)
        weyl = np.sort(V, axis=None)[-32] - 8.0
        assert c == weyl - spectrum._FILTER_MARGIN * (weyl - a)

    def test_cut_from_separated_boxes(self):
        # the two peaks' boxes are far apart: c is the smaller of their top
        # eigenvalues, above Weyl's bound
        V = _two_equal_peaks()
        a, c = spectrum._filter_interval(V, 2)
        tops = []
        for x in ((4, 6), (17, 19)):
            box = tuple(slice(max(i - 2, 0), i + 3) for i in x)
            tops.append(np.linalg.eigvalsh(spectrum._assemble_dense(V[box]))[-1])
        cut = min(tops)
        assert cut > 5.0 - 8.0
        assert c == pytest.approx(cut - spectrum._FILTER_MARGIN * (cut - a), abs=1e-12)

    # not the spikes: at 1e9, rounding alone moves residuals and eigenvalues
    # by about 1e-6
    @pytest.mark.parametrize(
        "name,V,k", ADVERSARIAL_SOLVES, ids=[f"{c[0]}-k{c[2]}" for c in ADVERSARIAL_SOLVES]
    )
    def test_adversarial_potentials_match_oracle(self, name, V, k):
        top = spectrum.top_k_eigs(V, k)
        w = np.linalg.eigvalsh(spectrum._assemble_dense(V))[::-1][:k]
        assert top.solver == "arpack"
        assert np.max(top.residuals) <= 1e-10
        assert np.max(np.abs(top.eigenvalues - w)) <= 1e-9

    def test_filter_is_the_chebyshev_polynomial(self):
        # T_m(S) x by the recurrence equals U T_m(w) U^T x on the spectrum
        # of S, m the filter's degree: lower on the small box, whose top
        # site maps far above 1
        for shape, m in (((6, 6), 8), ((21, 21), spectrum.FILTER_DEGREE)):
            V = np.random.default_rng(14).standard_normal(shape)
            a, c = spectrum._filter_interval(V, 3)
            assert spectrum._filter_degree(float(V.max()), a, c) == m
            S = spectrum._assemble_scaled(V, a, c)
            w, U = np.linalg.eigh(S.toarray())
            x = np.random.default_rng(15).standard_normal(V.size)
            coef = np.zeros(m + 1)
            coef[-1] = 1.0
            want = U @ (np.polynomial.chebyshev.chebval(w, coef) * (U.T @ x))
            got = spectrum._chebyshev_filter(V, a, c) @ x
            assert np.allclose(got, want, rtol=1e-10, atol=1e-10)
            # [a, c] maps onto [-1, 1]
            H = spectrum._assemble_dense(V)
            assert np.allclose(S.toarray(), (2 * H - (c + a) * np.eye(V.size)) / (c - a))

    def test_high_site_lowers_the_degree(self):
        # a site 1e4 above a standard-normal field: at degree 12 the top pair
        # swamps the others; the degree drops to 2 and the solve passes
        V = np.random.default_rng(3).standard_normal((31, 31))
        V[15, 15] = 1e4
        a, c = spectrum._filter_interval(V, 4)
        assert spectrum._filter_degree(float(V.max()), a, c) == 2
        top = spectrum.top_k_eigs(V, 4)
        w = np.linalg.eigvalsh(spectrum._assemble_dense(V))[::-1][:4]
        assert top.solver == "arpack"
        assert np.max(top.residuals) <= 1e-10
        assert np.max(np.abs(top.eigenvalues - w)) <= 1e-10

    @pytest.mark.parametrize("spike", [1e5, 1e6])
    def test_site_far_above_passes_on_the_rounding_floor(self, spike):
        # rounding alone puts the top residual above RESIDUAL_TOL = 1e-10 (1.03e-10
        # at 1e5, 2.4e-10 at 1e6; the dense oracle's is 4.4e-10 at 1e6),
        # within RESIDUAL_ULPS eps ||H||
        V = np.random.default_rng(7).standard_normal((31, 31))
        V[15, 15] = spike
        top = spectrum.top_k_eigs(V, 4)
        oracle = dense_eigs(V, 4)
        floor = spectrum.RESIDUAL_ULPS * np.finfo(float).eps * (spike + 8.0)
        assert top.solver == "arpack"
        assert 1e-10 < np.max(top.residuals) <= floor
        assert np.max(np.abs(top.eigenvalues - oracle.eigenvalues)) <= 1e-9
        assert top.centers == oracle.centers

    def test_degree_is_the_largest_within_the_growth_limit(self):
        for top in (3.0, 50.0, 1e3, 1e4, 1e6, 1e12):
            a, c = -10.0, 1.0
            m = spectrum._filter_degree(top, a, c)
            x = 1.0 + 2.0 * (top - c) / (c - a)
            t = np.polynomial.chebyshev.chebval(x, [0.0] * m + [1.0])
            assert 1 <= m <= spectrum.FILTER_DEGREE
            assert m == 1 or t <= spectrum._FILTER_GROWTH_LIMIT
            if m < spectrum.FILTER_DEGREE:
                grown = np.polynomial.chebyshev.chebval(x, [0.0] * (m + 1) + [1.0])
                assert grown > spectrum._FILTER_GROWTH_LIMIT

    def test_gluing_fields_keep_the_full_degree(self):
        # the fields the d = 2 macro-meso experiment solves (iid, L = 60,
        # top 4) stay at FILTER_DEGREE, so their records do not change
        model = cov.CovarianceModel("iid", 2, {})
        for V in field.sample_field(model, 60, field.trial_seeds(2024, 0, 200)).values:
            a, c = spectrum._filter_interval(V, 4)
            assert spectrum._filter_degree(float(V.max()), a, c) == spectrum.FILTER_DEGREE

    @pytest.mark.parametrize("shape", [(21, 21), (7, 7, 7)])
    def test_dia_matrix_is_the_scaled_operator(self, shape):
        # ascending offsets, zeros where a bond leaves the box; its matvec
        # is bit for bit that of the canonical CSR matrix of the same entries
        V = np.random.default_rng(16).standard_normal(shape)
        a, c = spectrum._filter_interval(V, 3)
        S = spectrum._assemble_scaled(V, a, c)
        n, d = V.size, V.ndim
        H = spectrum._assemble_dense(V)
        assert S.format == "dia"
        assert list(S.offsets) == sorted(S.offsets) and len(S.offsets) == 2 * d + 1
        assert np.allclose(S.toarray(), (2 * H - (c + a) * np.eye(n)) / (c - a), rtol=0, atol=1e-14)
        assert np.array_equal(S.toarray() != 0, H != 0)
        i, j = spectrum._bonds(shape)
        sites = np.arange(n)
        scale = 2.0 / (c - a)
        diag = scale * (V.ravel() - 2.0 * d) - (c + a) / (c - a)
        C = csr_array(
            (
                np.concatenate([diag, np.full(2 * i.size, scale)]),
                (np.concatenate([sites, i, j]), np.concatenate([sites, j, i])),
            ),
            shape=(n, n),
        )
        assert np.array_equal(S.toarray(), C.toarray())
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal(n)
            assert np.array_equal(S @ x, C @ x)

    @pytest.mark.parametrize(
        "shape,k", [((32, 41), 2), ((320, 41), 2), ((32, 13, 13), 4), ((2, 61, 61), 4), ((2, 4097), 4)]
    )
    def test_solver_bytes_bounds_the_block_solve(self, shape, k):
        # the memory model of a block solve against its measured peak: the
        # tridiagonal, subset, ARPACK and window paths
        V = 3.0 * np.random.default_rng(math.prod(shape)).standard_normal(shape)
        peak, _ = _traced_block_solve(V, k)
        assert peak <= spectrum.solver_bytes(math.prod(shape[1:]), len(shape) - 1, k, shape[0])

    @pytest.mark.parametrize(
        "shape,k,reliable",
        [((2, 4097), 4, False), ((1, 2**20 + 1), 2, True), ((1, 2**20 + 1), 2, False)],
        ids=["4097-fallback", "2p20-window", "2p20-fallback"],
    )
    def test_solver_bytes_bounds_the_window_paths(self, monkeypatch, shape, k, reliable):
        # windows certified, or refused by an unreliable count and solved
        # again on the whole chain (the window case at 4097 sites is above)
        if not reliable:
            monkeypatch.setattr(spectrum, "dpttrf", lambda d, e, **kw: (d, e, -1))
        V = 3.0 * np.random.default_rng(math.prod(shape)).standard_normal(shape)
        peak, solvers = _traced_block_solve(V, k)
        assert solvers == [("window" if reliable else "tridiagonal")] * shape[0]
        assert peak <= spectrum.solver_bytes(shape[1], 1, k, shape[0])

    def test_dia_bytes_within_solver_bytes(self):
        for shape in ((21, 21), (9, 9, 9)):
            V = np.zeros(shape)
            S = spectrum._assemble_scaled(V, -20.0, 1.0)
            n, d = V.size, V.ndim
            held = S.data.nbytes + S.offsets.nbytes
            vectors = 8 * n * (spectrum._arpack_ncv(n, 4) + 3)
            assert held <= spectrum.solver_bytes(n, d, 4) - vectors


class TestCertifyBelow:
    # cores of the shapes macro_meso solves, and a d = 1 chain
    SHAPES = [(31,), (13, 13), (27, 27), (7, 7, 7)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_certifies_above_lambda_1_only(self, shape):
        for seed in range(4):
            V = 2.0 * np.random.default_rng(seed).standard_normal(shape)
            lam1 = float(np.linalg.eigvalsh(spectrum._assemble_dense(V))[-1])
            assert spectrum.certify_below(V, lam1 + 1e-6)
            assert spectrum.certify_below(V, lam1 + 1.0)
            for theta in (lam1 - 1.0, lam1 - 1e-9, float(np.max(V)) - 2.0 * V.ndim):
                assert not spectrum.certify_below(V, theta)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_needs_a_margin_above_lambda_1(self, shape):
        # theta within a few ulps of the computed lambda_1, which itself is
        # off by rounding: a certificate there would prove nothing
        for seed in range(4):
            V = 2.0 * np.random.default_rng(seed).standard_normal(shape)
            lam1 = float(np.linalg.eigvalsh(spectrum._assemble_dense(V))[-1])
            for steps in range(-4, 9):
                theta = lam1 + steps * math.ulp(lam1)
                assert not spectrum.certify_below(V, theta)

    def test_single_site(self):
        V = np.array([[1.5]])
        assert not spectrum.certify_below(V, 1.5 - 4.0)
        assert spectrum.certify_below(V, 1.5 - 4.0 + 1e-9)

    def test_leaves_V_alone(self):
        V = np.random.default_rng(5).standard_normal((13, 13))
        before = V.copy()
        spectrum.certify_below(V, 10.0)
        assert np.array_equal(V, before)


@pytest.fixture(scope="module")
def oracle_3721():
    V = 3.0 * np.random.default_rng(16).standard_normal((61, 61))
    return V, dense_eigs(V, 8)


class TestFilteredMatchesDense:
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_441_sites(self, k):
        for fam, params in FILTER_FAMILIES:
            model = cov.CovarianceModel(fam, 2, params)
            V = np.array(field.sample_field(model, 20, field.trial_seeds(17, k, k + 1)).values[0])
            _assert_matches(spectrum.top_k_eigs(V, k), dense_eigs(V, k), k)

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_3721_sites(self, oracle_3721, k):
        V, oracle = oracle_3721
        top = spectrum.top_k_eigs(V, k)
        _assert_matches(top, oracle, k)


def _assert_matches(top, oracle, k):
    assert top.solver == "arpack" and top.k == k
    assert np.max(top.residuals) <= 1e-10
    assert np.max(np.abs(top.eigenvalues - oracle.eigenvalues[:k])) <= 1e-9
    overlaps = np.abs(np.sum(_flat(top, range(k)) * _flat(oracle, range(k)), axis=1))
    assert np.min(overlaps) >= 1.0 - 1e-8
    assert top.centers == oracle.centers[:k]


def _global_1d(V, k):
    """Top-k pairs of the whole d = 1 chain, descending: the fallback path."""
    n = V.size
    w, U = eigh_tridiagonal(V - 2.0, np.ones(n - 1), select="i", select_range=(n - k, n - 1))
    return w[::-1], U[:, ::-1].T


def _assert_agrees_with_global(res, V, k):
    lams, U = _global_1d(V, k)
    assert res.k == k
    assert np.max(res.residuals) <= 1e-10
    assert np.max(np.abs(res.eigenvalues - lams)) <= 1e-12
    assert res.centers == tuple(int(np.argmax(np.abs(u))) for u in U)
    overlaps = np.abs(np.sum(res.eigenfunctions * U, axis=1))
    assert np.min(overlaps) >= 1.0 - 1e-10


@pytest.fixture
def sturm_counts(monkeypatch):
    """Wraps spectrum._count_above; records (theta, count) of every call."""
    calls = []
    real = spectrum._count_above

    def recording(V, theta):
        count = real(V, theta)
        calls.append((theta, count))
        return count

    monkeypatch.setattr(spectrum, "_count_above", recording)
    return calls


WINDOW_MODELS = [
    cov.CovarianceModel("iid", 1, {}),
    cov.CovarianceModel("cube_indicator", 1, {"m": 2}),
    cov.CovarianceModel("gaussian_kernel", 1, {"ell": 2.0}),
]


class TestWindowPath:
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("model", WINDOW_MODELS, ids=lambda m: m.family)
    def test_agrees_with_global_solver(self, model, k, sturm_counts):
        # at seed 1 the windows certify in every case; a draw where they do
        # not takes the whole-chain path, as in the fallback tests below
        V = np.array(field.sample_field(model, 4096, [1]).values[0])
        assert V.size == 4097
        res = spectrum.top_k_eigs(V, k)
        assert res.solver == "window"
        _assert_agrees_with_global(res, V, k)
        # one count, taken at or below mu_k - r (Kahan's bound), where
        # it found exactly k eigenvalues
        (vl, count), = sturm_counts
        r = math.sqrt(float(np.sum(res.residuals**2)))
        assert count == k
        assert vl <= res.eigenvalues[-1] - r
        assert vl >= res.eigenvalues[-1] - r - 1e-12

    def test_plateau_away_from_the_highest_sites_falls_back(self):
        # the top modes sit on a broad plateau at 0; the highest single
        # sites are isolated spikes at 1.5 whose windows hold only spike
        # modes, near -0.33.  Every window residual is tiny; only the count
        # shows the plateau modes.
        V = np.full(4097, -10.0)
        V[1000:1300] = 0.0
        V[2000:4000:50] = 1.5
        res = spectrum.top_k_eigs(V, 2)
        assert res.solver == "tridiagonal"
        _assert_agrees_with_global(res, V, 2)
        assert res.eigenvalues[0] > -1e-3

    def test_windows_one_site_apart_stay_uncoupled(self):
        # peaks 50 apart, so neighbouring windows leave one deep site
        # between them; both window edges next to that site are high.
        # Coupled across the gap, the two edges would form a dimer above
        # every true eigenvalue.
        V = np.full(4097, -8.0)
        peaks = 100 + 50 * np.arange(12)
        V[peaks] = 3.0 - 0.01 * np.arange(12)
        V[peaks[:-1] + spectrum.WINDOW_HALF_WIDTH] = 2.5
        V[peaks[1:] - spectrum.WINDOW_HALF_WIDTH] = 2.5
        res = spectrum.top_k_eigs(V, 1)
        assert res.solver == "window"
        _assert_agrees_with_global(res, V, 1)
        assert res.centers == (100,)

    def test_count_widens_by_the_loss_of_orthonormality(self, monkeypatch, sturm_counts):
        # Ritz vectors orthonormal only to about 1e-11: Kahan's bound holds
        # for their orthonormal polar factor, so the count starts lower
        real = spectrum._tridiagonal_top

        def skewed(*args):
            w, U = real(*args)
            U = U.copy()
            U[:, 0] += 1e-11 * U[:, 1]
            return w, U

        monkeypatch.setattr(spectrum, "_tridiagonal_top", skewed)
        V = np.array(field.sample_field(WINDOW_MODELS[1], 4096, [1]).values[0])
        res = spectrum.top_k_eigs(V, 2)
        assert res.solver == "window"
        phi = res.eigenfunctions
        delta = np.linalg.norm(phi @ phi.T - np.eye(2))
        assert delta > 1e-12
        r = math.sqrt(float(np.sum(res.residuals**2)))
        (vl, count), = sturm_counts
        assert vl <= res.eigenvalues[-1] - r - 2.0 * np.max(np.abs(res.eigenvalues)) * delta

    def test_count_other_than_k_falls_back(self, monkeypatch):
        real = spectrum._count_above

        def one_too_many(V, theta):
            return real(V, theta) + 1

        monkeypatch.setattr(spectrum, "_count_above", one_too_many)
        V = np.array(field.sample_field(WINDOW_MODELS[1], 4096, [1]).values[0])
        res = spectrum.top_k_eigs(V, 2)
        assert res.solver == "tridiagonal"
        _assert_agrees_with_global(res, V, 2)

    def test_small_box_stays_global(self, sturm_counts):
        # the 41-site cores of the localisation experiment: windows would
        # cover at least half the sites
        V = 3.0 * np.random.default_rng(41).standard_normal(41)
        res = spectrum.top_k_eigs(V, 2)
        assert res.solver == "tridiagonal"
        assert sturm_counts == []
        _assert_agrees_with_global(res, V, 2)

    def test_long_chain_is_certified(self):
        V = np.random.default_rng(17).standard_normal(2**17)
        res = spectrum.top_k_eigs(V, 2)
        assert res.solver == "window"
        _assert_agrees_with_global(res, V, 2)

    def test_solver_names_the_path(self):
        rng = np.random.default_rng(12)
        assert spectrum.top_k_eigs(rng.standard_normal((19, 19)), 2).solver == "subset"
        assert spectrum.top_k_eigs(rng.standard_normal((21, 21)), 2).solver == "arpack"
        assert dense_eigs(rng.standard_normal(9), 2).solver == "dense"


def _whole_chain_reference(V, k):
    """The whole chain's pairs as top_k_eigs finalizes them."""
    w, U = spectrum._tridiagonal_top(V - 2.0, np.ones(V.size - 1), k)
    return spectrum._finalize(w[None], U.T[None], V[None])


def _window_reference(V, k):
    """The pairs of the windows around the 4k + 8 highest sites, solved and
    finalized as the window path did before its one-pass solve: one
    _tridiagonal_top call on the union of the windows, the Ritz vectors
    zero-extended, then _finalize on the whole chain."""
    n, h = V.size, spectrum.WINDOW_HALF_WIDTH
    m = spectrum.WINDOW_PEAKS_PER_PAIR * k + spectrum.WINDOW_SPARE_PEAKS
    peaks = np.argsort(V)[-m:].tolist()
    sites = np.array(sorted({min(max(p + o, 0), n - 1) for p in peaks for o in range(-h, h + 1)}))
    mu, U = spectrum._tridiagonal_top(V[sites] - 2.0, (np.diff(sites) == 1).astype(float), k)
    phis = np.zeros((k, n))
    phis[:, sites] = U.T
    return spectrum._finalize(mu[None], phis[None], V[None])


def _assert_same_bits(res, want):
    lams, P, centers, residuals = (a[0] for a in want)
    assert res.eigenvalues.tobytes() == lams.tobytes()
    assert res.eigenfunctions.tobytes() == P.tobytes()
    assert res.centers == tuple(centers.tolist())
    assert res.residuals.tobytes() == residuals.tobytes()


class TestWindowBits:
    # the one-pass window solve returns the pairs of the solve it replaced
    # bit for bit: the same kernel call on the same union, finalized alike
    @pytest.mark.parametrize(
        "model",
        WINDOW_MODELS + [cov.CovarianceModel("exponential", 1, {"alpha": 0.5})],
        ids=lambda m: m.family,
    )
    def test_equal_to_the_union_solve_at_4096(self, model):
        fields = field.sample_field(model, 4096, list(range(10))).values
        paths = []
        for V in fields:
            res = spectrum.top_k_eigs(V, 2)
            paths.append(res.solver)
            reference = _window_reference if res.solver == "window" else _whole_chain_reference
            _assert_same_bits(res, reference(V, 2))
        assert paths.count("window") >= 8

    def test_equal_to_the_union_solve_at_2p20(self):
        V = field.sample_field(WINDOW_MODELS[0], 2**20, [0]).values[0]
        res = spectrum.top_k_eigs(V, 2)
        assert res.solver == "window"
        _assert_same_bits(res, _window_reference(V, 2))


def _chain_hamiltonian(V):
    n = V.size
    return np.diag(V - 2.0) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)


@st.composite
def _count_cases(draw):
    """(V, theta, where): a chain, random, tied (values from a set of four),
    clustered (within 1e-9 of one value) or split into copies of one block
    by sites of -1e6; and theta below every eigenvalue, above every one,
    on a computed one, or midway between two apart."""
    kind = draw(st.sampled_from(["random", "tied", "clustered", "block-split"]))
    n = draw(st.integers(1, 40))
    if kind == "random":
        V = draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n))
    elif kind == "tied":
        V = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=n, max_size=n))
    elif kind == "clustered":
        base = draw(st.floats(-4.0, 4.0))
        V = [base + 1e-9 * x for x in draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))]
    else:
        block = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
        V = (block + [-1e6]) * draw(st.integers(2, 4))
        V = V[:-1]
    V = np.array(V, dtype=float)
    w = np.linalg.eigvalsh(_chain_hamiltonian(V))
    where = draw(st.sampled_from(["below", "above", "on", "between"]))
    shift = draw(st.floats(0.0, 10.0))
    if where == "below":
        theta = float(w[0]) - 1.0 - shift
    elif where == "above":
        theta = float(w[-1]) + 1.0 + shift
    elif where == "on":
        theta = float(w[draw(st.integers(0, w.size - 1))])
    else:
        apart = np.flatnonzero(np.diff(w) > 1e-6)
        if apart.size == 0:
            where, theta = "below", float(w[0]) - 1.0 - shift
        else:
            j = int(apart[draw(st.integers(0, apart.size - 1))])
            theta = 0.5 * (float(w[j]) + float(w[j + 1]))
    return V, theta, where


class TestInertiaCount:
    @given(_count_cases())
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    def test_equals_the_bisection_count(self, case):
        V, theta, where = case
        count = spectrum._count_above(V, theta)
        want = dstebz_count_above(V, theta)
        H = _chain_hamiltonian(V)
        # both counts are exact for a matrix within a few ulps of H, and
        # eigvalsh is within a few ulps of H's eigenvalues
        s = 64 * spectrum._EPS * (float(np.max(np.abs(V - 2.0))) + 2.0)
        if count is None:
            # a zero pivot: theta sits on an eigenvalue of a leading
            # principal submatrix of H, within rounding
            assert where in ("on", "between")
            assert any(
                np.min(np.abs(np.linalg.eigvalsh(H[:i, :i]) - theta)) <= s
                for i in range(1, V.size + 1)
            )
        elif where == "on":
            w = np.linalg.eigvalsh(H)
            lo, hi = int(np.sum(w > theta + s)), int(np.sum(w > theta - s))
            assert lo <= count <= hi and lo <= want <= hi
        else:
            assert count == want
            assert count == {"below": V.size, "above": 0}.get(where, count)

    @pytest.mark.parametrize(
        "V", [[2.5, 0.0, 1.0], [1.5, 1.5, 0.0], [3.5, 3.5, 0.0], [3.5, 3.5]],
        ids=["first", "in-pass", "at-restart", "last-alone"],
    )
    def test_zero_pivot_is_unreliable(self, V):
        # pivots of 0.5 I - H, diagonal 2.5 - V: 0 at once; 1, then
        # 1 - 1/1 = 0 within dpttrf's pass; -1, then -1 - 1/(-1) = 0 where
        # dpttrf restarts, or on the last site, which the count takes alone
        assert spectrum._count_above(np.array(V), 0.5) is None

    def test_lapack_argument_error_is_unreliable(self, monkeypatch):
        monkeypatch.setattr(spectrum, "dpttrf", lambda d, e, **kw: (d, e, -1))
        assert spectrum._count_above(np.zeros(9), 0.5) is None

    def test_unreliable_count_falls_back_to_the_whole_chain(self, monkeypatch, sturm_counts):
        monkeypatch.setattr(spectrum, "dpttrf", lambda d, e, **kw: (d, e, -1))
        V = np.array(field.sample_field(WINDOW_MODELS[1], 4096, [1]).values[0])
        res = spectrum.top_k_eigs(V, 2)
        assert [count for _, count in sturm_counts] == [None]
        assert res.solver == "tridiagonal"
        _assert_same_bits(res, _whole_chain_reference(V, 2))


def _tridiagonal_cases():
    rng = np.random.default_rng(21)
    cases = [(f"n{n}", 3.0 * rng.standard_normal(n) - 2.0, np.ones(n - 1)) for n in (1, 2, 3, 41)]
    # zeros on the off-diagonal split the matrix into blocks
    cases += [
        ("n2-split", 3.0 * rng.standard_normal(2) - 2.0, np.zeros(1)),
        ("n3-split", 3.0 * rng.standard_normal(3) - 2.0, np.array([1.0, 0.0])),
        ("n5-split", 3.0 * rng.standard_normal(5) - 2.0, np.array([0.0, 1.0, 1.0, 0.0])),
    ]
    V = np.array(field.sample_field(WINDOW_MODELS[0], 4096, [3]).values[0])
    cases.append(("n4097", V - 2.0, np.ones(V.size - 1)))
    return cases


TRIDIAGONAL_CASES = _tridiagonal_cases()


def _assert_matches_eigh_tridiagonal(diag, off):
    n = diag.size
    for k in range(1, min(5, n) + 1):
        w, U = spectrum._tridiagonal_top(diag, off, k)
        want_w, want_U = eigh_tridiagonal(diag, off, select="i", select_range=(n - k, n - 1))
        assert w.shape == want_w.shape and w.tobytes() == want_w.tobytes()
        assert U.shape == want_U.shape and U.tobytes() == want_U.tobytes()


class TestTridiagonalTop:
    @pytest.mark.parametrize(
        "name,diag,off", TRIDIAGONAL_CASES, ids=[c[0] for c in TRIDIAGONAL_CASES]
    )
    def test_bit_identical_to_eigh_tridiagonal(self, name, diag, off):
        _assert_matches_eigh_tridiagonal(diag, off)

    def test_window_union_bit_identical_to_eigh_tridiagonal(self, monkeypatch):
        # the matrix a window solve hands the kernel: about 16 windows of 49
        # sites, split into blocks where windows do not touch
        unions = []
        real = spectrum._tridiagonal_top

        def recording(diag, off, k):
            unions.append((diag, off))
            return real(diag, off, k)

        monkeypatch.setattr(spectrum, "_tridiagonal_top", recording)
        V = np.array(field.sample_field(WINDOW_MODELS[0], 4096, [3]).values[0])
        assert spectrum.top_k_eigs(V, 2).solver == "window"
        monkeypatch.undo()
        (diag, off), = unions
        assert 700 <= diag.size <= 800 and np.count_nonzero(off == 0) >= 5
        _assert_matches_eigh_tridiagonal(diag, off)

    def test_one_site_box(self):
        res = spectrum.top_k_eigs(np.array([0.7]), 1)
        assert res.solver == "tridiagonal"
        assert res.eigenvalues.tolist() == [0.7 - 2.0]
        assert res.eigenfunctions.tolist() == [[1.0]]
        assert res.centers == (0,) and res.residuals.tolist() == [0.0]

    def test_two_site_box(self):
        # H = [[a - 2, 1], [1, b - 2]]: eigenvalues (a + b)/2 - 2 +- sqrt(((a - b)/2)^2 + 1)
        a, b = 0.3, -1.1
        res = spectrum.top_k_eigs(np.array([a, b]), 2)
        root = math.sqrt(((a - b) / 2) ** 2 + 1.0)
        want = [(a + b) / 2 - 2.0 + root, (a + b) / 2 - 2.0 - root]
        assert res.solver == "tridiagonal"
        assert np.allclose(res.eigenvalues, want, rtol=0, atol=1e-14)
        assert np.max(res.residuals) <= 1e-14
        assert res.centers == (0, 1)

    @pytest.mark.parametrize("n", [41, 4097])
    def test_dstein_failure_raises(self, monkeypatch, n):
        real = spectrum.dstein

        def unconverged(*args):
            z, _ = real(*args)
            return z, 1

        monkeypatch.setattr(spectrum, "dstein", unconverged)
        V = np.random.default_rng(22).standard_normal(n)
        with pytest.raises(SolverConvergenceError):
            spectrum.top_k_eigs(V, 2)

    def test_d1_never_reaches_eigh_tridiagonal(self, monkeypatch):
        import scipy.linalg
        import scipy.linalg._decomp

        def forbidden(*args, **kwargs):
            raise AssertionError("scipy's eigh_tridiagonal called")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", forbidden)
        monkeypatch.setattr(scipy.linalg._decomp, "eigh_tridiagonal", forbidden)
        assert not hasattr(spectrum, "eigh_tridiagonal")
        rng = np.random.default_rng(23)
        solvers = set()
        for n, k in ((1, 1), (2, 2), (41, 2), (4097, 2)):
            solvers.add(spectrum.top_k_eigs(rng.standard_normal(n), k).solver)
        V = np.full(4097, -10.0)
        V[1000:1300] = 0.0
        V[2000:4000:50] = 1.5
        solvers.add(spectrum.top_k_eigs(V, 2).solver)  # window, then fallback
        assert solvers == {"tridiagonal", "window"}

    def test_non_finite_potential_refused(self):
        for bad in (math.nan, math.inf):
            V = np.zeros(41)
            V[3] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                spectrum.top_k_eigs(V, 2)


def _finalize_per_pair(lams, phis, V):
    """_finalize of one potential, one pair at a time: the reference the
    batched pass must reproduce bit for bit, as (eigenvalues,
    eigenfunctions, centres, residuals)."""
    order = np.argsort(-lams, kind="stable")
    lams = np.asarray(lams, dtype=float)[order]
    centers, residuals, fixed = [], [], []
    for lam, i in zip(lams, order):
        phi = np.ascontiguousarray(phis[i])
        phi = phi / math.sqrt(float(np.sum(phi**2)))
        flat = np.abs(phi).ravel(order="C")
        c = int(np.argmax(flat))
        if phi.flat[c] < 0:
            phi = -phi
        r = spectrum.apply_hamiltonian(V, phi) - lam * phi
        centers.append(c)
        residuals.append(math.sqrt(float(np.sum(r**2))))
        fixed.append(phi)
    return lams, np.stack(fixed), centers, np.asarray(residuals)


# (shape of V, the path that solves it): every top_k_eigs path, and the
# dense oracle, in d = 1, 2 and 3
FINALIZE_CASES = [
    ((8001,), "window"),
    ((61,), "tridiagonal"),
    ((19, 19), "subset"),
    ((7, 7, 7), "subset"),
    ((21, 21), "arpack"),
    ((9, 9, 9), "arpack"),
    ((41,), "dense"),
    ((7, 8), "dense"),
    ((4, 5, 4), "dense"),
]


class TestFinalize:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("shape,solver", FINALIZE_CASES)
    def test_matches_the_per_pair_reference(self, monkeypatch, shape, solver, k):
        real = spectrum._finalize
        pairs = []

        def recording(lams, phis, V):
            out = real(lams, phis, V)
            pairs.extend(
                (tuple(block[b] for block in out), _finalize_per_pair(lams[b], phis[b], V[b]))
                for b in range(len(V))
            )
            return out

        monkeypatch.setattr(spectrum, "_finalize", recording)
        V = 3.0 * np.random.default_rng(math.prod(shape) + k).standard_normal(shape)
        if solver == "dense":
            res = dense_eigs(V, k)
        else:
            res = spectrum.top_k_eigs(V, k)
        assert res.solver == solver and pairs
        for (lam, phi, centers, residuals), want in pairs:
            for name, a, b in (
                ("eigenvalues", lam, want[0]),
                ("eigenfunctions", phi, want[1]),
                ("residuals", residuals, want[3]),
            ):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert centers.tolist() == want[2]
        assert all(type(c) is int for c in res.centers)


class TestSpectralResult:
    def test_gap(self):
        res = dense_eigs(np.zeros(9), k=3)
        assert res.gap == pytest.approx(res.eigenvalues[0] - res.eigenvalues[1])

    def test_gap_needs_two(self):
        res = dense_eigs(np.zeros(9), k=1)
        with pytest.raises(ValueError):
            res.gap

    def test_json(self):
        import json

        res = dense_eigs(np.zeros(9), k=2)
        data = json.loads(res.to_json())
        assert len(data["eigenvalues"]) == 2
        assert "gap" in data



def _fallback_chain():
    """A 4097-site chain whose windows are solved and then fail their
    certificate: a plateau of 300 sites at 0 that no window covers whole,
    below spikes of 1.5."""
    V = np.full(4097, -10.0)
    V[1000:1300] = 0.0
    V[2000:4000:50] = 1.5
    return V


def _block_cases():
    """(name, block of potentials, path of each): every path of
    top_k_eigs, d = 1 windows mixed with a potential that falls back."""
    rng = np.random.default_rng(34)
    chains = list(field.sample_field(WINDOW_MODELS[1], 4096, [1, 2]).values)
    return [
        ("tridiagonal-41", 3.0 * rng.standard_normal((5, 41)), ["tridiagonal"] * 5),
        (
            "window-and-fallback-4097",
            np.stack([chains[0], _fallback_chain(), chains[1]]),
            ["window", "tridiagonal", "window"],
        ),
        ("subset-13x13", 3.0 * rng.standard_normal((3, 13, 13)), ["subset"] * 3),
        ("arpack-21x21", 3.0 * rng.standard_normal((3, 21, 21)), ["arpack"] * 3),
    ]


BLOCK_CASES = _block_cases()


class TestTopKBlock:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name,V,paths", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES])
    def test_each_potential_gets_the_bits_of_top_k_eigs(self, name, V, paths, k):
        lams, P, centers, residuals, solvers = spectrum._top_k_block(V, k)
        assert solvers == paths
        assert lams.shape == residuals.shape == centers.shape == (len(V), k)
        assert P.shape == (len(V), k) + V.shape[1:]
        for b in range(len(V)):
            one = spectrum.top_k_eigs(V[b], k)
            assert one.solver == paths[b]
            assert lams[b].tobytes() == one.eigenvalues.tobytes()
            assert P[b].tobytes() == one.eigenfunctions.tobytes()
            assert residuals[b].tobytes() == one.residuals.tobytes()
            assert tuple(centers[b].tolist()) == one.centers
            if paths[b] == "tridiagonal":
                # the whole chain's pairs, also where windows were tried first
                want = _whole_chain_reference(V[b], k)
                assert lams[b].tobytes() == want[0][0].tobytes()
                assert P[b].tobytes() == want[1][0].tobytes()

    def test_input_checks_cover_every_potential(self):
        V = np.zeros((3, 41))
        V[2, 7] = math.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectrum._top_k_block(V, 2)
        with pytest.raises(ValueError, match="k=10 exceeds 9 sites"):
            spectrum._top_k_block(np.zeros((3, 9)), 10)

    def test_residual_above_tol_in_one_potential_raises(self, monkeypatch):
        # the second of three solves is off by 1e-6: the block is refused,
        # naming that potential's residuals and tolerance
        real, calls = spectrum._tridiagonal_top, []

        def second_off(*args):
            w, U = real(*args)
            calls.append(1)
            return (w + 1e-6 if len(calls) == 2 else w), U

        monkeypatch.setattr(spectrum, "_tridiagonal_top", second_off)
        V = 3.0 * np.random.default_rng(35).standard_normal((3, 41))
        with pytest.raises(SolverConvergenceError, match=r"exceed tol=1e-10$"):
            spectrum._top_k_block(V, 2)
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "spoil,message",
        [
            (lambda lam, phi: (lam[:, ::-1].copy(), phi), "non-increasing order"),
            (lambda lam, phi: (lam, 2.0 * phi), "l2-normalized"),
        ],
        ids=["order", "norm"],
    )
    def test_invariants_are_checked_on_the_stacked_pairs(self, monkeypatch, spoil, message):
        # SpectralResult's invariants, eigenvalues non-increasing within
        # TIE_TOL and eigenfunctions of unit norm, hold for every potential
        # of a block: a finalize that breaks them for one is refused
        real = spectrum._finalize

        def spoiled(lams, phis, V):
            lam, phi, centers, residuals = real(lams, phis, V)
            bad_lam, bad_phi = spoil(lam[1:2], phi[1:2])
            lam, phi = lam.copy(), phi.copy()
            lam[1:2], phi[1:2] = bad_lam, bad_phi
            return lam, phi, centers, residuals

        monkeypatch.setattr(spectrum, "_finalize", spoiled)
        V = 3.0 * np.random.default_rng(36).standard_normal((3, 13, 13))
        with pytest.raises(ValueError, match=message):
            spectrum._top_k_block(V, 3)


class TestBarProblem:
    def test_iid_bar_lambda_closed_form(self, iid1):
        # shape is flat a_L off the origin; the top eigenfunction at large
        # a_L concentrates at the origin with lambda ~ -2d + 2/a_L
        a_L = 40.0
        sol = spectrum.solve_bar_problem(iid1, a_L, 9)
        assert sol.bar_lambda == pytest.approx(-2.0 + 2.0 / a_L, abs=2e-3)
        assert sol.expansion_value == pytest.approx(-2.0 + 2.0 / a_L, rel=1e-12)

    def test_matches_direct_dense(self, cube4):
        a_L = 6.0
        sol = spectrum.solve_bar_problem(cube4, a_L, 9)
        S = cov.shape_grid(cube4, a_L, 4)
        oracle = dense_eigs(-S, 1)
        assert sol.bar_lambda == pytest.approx(oracle.eigenvalues[0], abs=1e-12)

    def test_positive_at_origin_and_symmetric(self, cube4):
        sol = spectrum.solve_bar_problem(cube4, 6.0, 11)
        phi = sol.bar_phi
        assert phi[5] > 0
        assert np.allclose(phi, phi[::-1], atol=1e-10)
        assert np.sum(phi**2) == pytest.approx(1.0, rel=1e-12)

    def test_bar_lambda_negative_and_bounded(self, cube4):
        sol = spectrum.solve_bar_problem(cube4, 6.0, 9)
        assert -2.0 * 1 - 0.0 <= sol.bar_lambda < 0.0

    def test_monotone_in_window(self, cube4):
        # enlarging the Dirichlet box can only raise the top eigenvalue
        vals = [
            spectrum.solve_bar_problem(cube4, 6.0, r).bar_lambda
            for r in (5, 7, 9, 11, 13)
        ]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_expansion_nan_when_shape_vanishes(self):
        # a_L = 0 makes S vanish everywhere, the unit vectors included
        for d in (1, 2):
            m = cov.CovarianceModel("cube_indicator", d, {"m": 8})
            sol = spectrum.solve_bar_problem(m, 0.0, 5)
            assert math.isnan(sol.expansion_value)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize(
        # S(e) = a_L (1 - v(e)) = a_L / m at each of the 2d unit vectors,
        # with v(e) = 0 for iid (m = 1) and 1 - 1/m for cube_indicator(m)
        "family,params,m",
        [("iid", {}, 1), ("cube_indicator", {"m": 2}, 2), ("cube_indicator", {"m": 4}, 4)],
    )
    def test_expansion_closed_form(self, family, params, m, d):
        a_L = 12.5
        model = cov.CovarianceModel(family, d, params)
        sol = spectrum.solve_bar_problem(model, a_L, 5)
        # a Python float: a numpy scalar's repr would reach the records
        assert type(sol.expansion_value) is float
        expected = -2.0 * d + 2.0 * d * m / a_L
        assert sol.expansion_value == pytest.approx(expected, rel=1e-12)

    def test_window_validation(self, cube4):
        with pytest.raises(ValueError):
            spectrum.solve_bar_problem(cube4, 6.0, 8)
        with pytest.raises(ValueError):
            spectrum.solve_bar_problem(cube4, 6.0, 1)

    def test_expansion_accuracy_improves_with_aL(self, cube4):
        errs = []
        for a_L in (8.0, 16.0, 32.0):
            sol = spectrum.solve_bar_problem(cube4, a_L, 9)
            errs.append(abs(sol.bar_lambda - sol.expansion_value) * a_L**2)
        # error is O(1/a_L^2): scaled errors stay bounded
        assert max(errs) < 50.0


class TestFormAndGradient:
    def test_rayleigh_quotient_at_eigenfunction(self):
        rng = np.random.default_rng(11)
        V = rng.standard_normal(15)
        res = dense_eigs(V, 1)
        got = quadratic_form(V, res.eigenfunctions[0])
        assert got == pytest.approx(res.eigenvalues[0], rel=1e-12)

    def test_variational_upper_bound(self):
        rng = np.random.default_rng(12)
        V = rng.standard_normal(15)
        lam1 = dense_eigs(V, 1).eigenvalues[0]
        for seed in range(5):
            psi = np.random.default_rng(seed).standard_normal(15)
            psi /= np.linalg.norm(psi)
            assert quadratic_form(V, psi) <= lam1 + 1e-12

    def test_gradient_zero_at_eigenfunction(self):
        V = -cov.shape_grid(
            cov.CovarianceModel("cube_indicator", 1, {"m": 4}), 6.0, 4
        )
        res = dense_eigs(V, 1)
        phi = res.eigenfunctions[0]
        c = (4,)
        if phi[c] < 0:
            phi = -phi
        g = form_gradient(V, phi)
        assert np.max(np.abs(g)) < 1e-10

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(13)
        V = rng.standard_normal(9)
        psi = np.abs(rng.standard_normal(9)) + 0.2
        psi /= np.linalg.norm(psi)
        c = 4
        g = form_gradient(V, psi)
        eps = 1e-6
        for x in (0, 2, 7):
            bumped = psi.copy()
            bumped[x] += eps
            # restore normalization through the origin coordinate
            off = np.sum(bumped**2) - bumped[c] ** 2
            bumped[c] = math.sqrt(1.0 - off)
            f1 = quadratic_form(V, bumped)
            f0 = quadratic_form(V, psi)
            assert (f1 - f0) / eps == pytest.approx(g[x], abs=1e-4)

    def test_gradient_chart_validation(self):
        psi = np.zeros(9)
        psi[0] = 1.0
        with pytest.raises(ValueError):
            form_gradient(np.zeros(9), psi)

    def test_quadratic_form_requires_normalized(self):
        with pytest.raises(ValueError):
            quadratic_form(np.zeros(5), np.ones(5))


class TestApproximationPipeline:
    def test_zero_fluctuation_control(self, cube2):
        # field equal to its own conditional mean: lambda_1 on the big box
        # must match Xi(x0) + bar_lambda to solver accuracy
        a_L = 6.0
        L, R_L, r_L = 41, 19, 9
        ss = scales.ScaleSet(
            L=L, d=1, a_L=a_L, tau_L=0.0, R_L=R_L, r_L=r_L, d_L=cov.derive_dL(cube2)
        )
        h = field.box_half(L)
        vals = a_L * cov.eval_cov_offsets(cube2, np.arange(-h, h + 1)[:, None])
        bar = spectrum.solve_bar_problem(cube2, a_L, r_L)
        x0 = (0,)
        zeta = field.fluctuations(vals[None], L, x0, field._profile_grid(cube2, L, x0))
        res = dense_eigs(vals.copy(), 2)
        eig_err, fun_err = spectrum.approximation_errors(
            bar,
            res.eigenvalues[:1],
            res.eigenfunctions[:1],
            vals[field.window(L, x0, 0)],
            field.phi(zeta, L, x0, bar.weights),
            bar.on_grid(vals.shape, x0),
            ss,
        )
        # zeta = 0 so Phi = 0 and Xi(0) = a_L; the only error left is the
        # Dirichlet-window truncation of the profile
        assert eig_err.shape == fun_err.shape == (1,)
        assert eig_err[0] < 1e-3
        assert fun_err[0] < 0.6

    def test_profile_window_follows_the_window_rule(self, cube2):
        # the result lives on the central box of side 9 (half-width 4) of
        # an L = 41 sample; bar_phi on Q_3 has half-width 1
        ss = scales.ScaleSet(
            L=41, d=1, a_L=6.0, tau_L=0.0, R_L=9, r_L=3, d_L=cov.derive_dL(cube2)
        )
        bar = spectrum.solve_bar_problem(cube2, 6.0, 3)
        (V,) = field.sample_field(cube2, 41, [2]).values
        res = dense_eigs(V[field.window(41, [0], 4)].copy(), 2)
        for x0 in (-3, 3):
            prof = np.zeros(9)
            prof[x0 + 3 : x0 + 6] = bar.bar_phi
            on_grid = bar.on_grid((9,), (x0,))
            assert np.array_equal(on_grid, prof)
            _, fun_err = spectrum.approximation_errors(
                bar, res.eigenvalues[:1], res.eigenfunctions[:1], 0.0, 0.0, on_grid, ss
            )
            phi1 = res.eigenfunctions[0] * np.sign(res.eigenfunctions[0] @ prof)
            assert fun_err[0] == (6.0 / ss.d_L) * math.sqrt(float(np.sum((phi1 - prof) ** 2)))
        for x0 in (-4, 4):
            with pytest.raises(ValueError, match="leaves the box"):
                bar.on_grid((9,), (x0,))

    def test_gap_check(self):
        res = dense_eigs(np.array([5.0, 0.0, 0.0, 0.0, 0.0]), k=2)
        ss = scales.ScaleSet(L=41, d=1, a_L=5.0, tau_L=0.0, R_L=9, r_L=3, d_L=1.0)
        margin = spectrum.gap_margin(res.eigenvalues[1:2], np.array([5.0]), ss)
        bound = 5.0 - 0.25 * 5.0
        assert margin.tolist() == pytest.approx([bound - res.eigenvalues[1]])
