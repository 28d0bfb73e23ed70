import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import ArpackNoConvergence

from andex import covariance as cov, field, harness, scales, spectrum
from andex.errors import SolverConvergenceError


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

    @pytest.mark.parametrize("shape", [(9,), (5, 6), (3, 4, 5)])
    def test_batch_axis_is_one_call_per_row(self, shape):
        rng = np.random.default_rng(3)
        V = rng.standard_normal(shape)
        psi = rng.standard_normal((4,) + shape)
        got = spectrum.apply_hamiltonian(V, psi)
        for row, p in zip(got, psi):
            assert row.tobytes() == spectrum.apply_hamiltonian(V, p).tobytes()


class TestDenseEigs:
    def test_free_chain_closed_form(self):
        # Dirichlet Laplacian on n sites: lambda_j = -2 + 2 cos(pi j/(n+1))
        n = 11
        res = spectrum.dense_eigs(np.zeros(n))
        j = np.arange(1, n + 1)
        expect = np.sort(-2.0 + 2.0 * np.cos(np.pi * j / (n + 1)))[::-1]
        assert np.allclose(res.eigenvalues, expect, atol=1e-12)

    def test_two_site_closed_form(self):
        # H = [[-2, 1], [1, -2]] + diag(v): analytic 2x2 eigenvalues
        V = np.array([0.5, -0.3])
        res = spectrum.dense_eigs(V)
        mean = -2.0 + 0.1
        disc = math.sqrt(0.4**2 + 1.0)
        assert res.eigenvalues[0] == pytest.approx(mean + disc, rel=1e-12)
        assert res.eigenvalues[1] == pytest.approx(mean - disc, rel=1e-12)

    def test_potential_shift_identity(self):
        rng = np.random.default_rng(3)
        V = rng.standard_normal(15)
        a = spectrum.dense_eigs(V).eigenvalues
        b = spectrum.dense_eigs(V + 2.5).eigenvalues
        assert np.allclose(b, a + 2.5, atol=1e-10)

    def test_residuals_tiny(self):
        rng = np.random.default_rng(4)
        res = spectrum.dense_eigs(rng.standard_normal((6, 6)), k=4)
        assert np.max(res.residuals) < 1e-11

    def test_deep_site_localizes(self):
        V = np.zeros(21)
        V[15] = 50.0
        res = spectrum.dense_eigs(V, k=1)
        assert res.centers[0] == (15,)
        assert res.center_coords(0) == (5,)
        assert res.eigenvalues[0] == pytest.approx(50.0 - 2.0, abs=0.05)

    def test_site_limit(self):
        with pytest.raises(ValueError):
            spectrum.dense_eigs(np.zeros((70, 70)))

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        res = spectrum.dense_eigs(rng.standard_normal(15), k=3)
        for i in range(3):
            phi = res.eigenfunctions[i]
            assert phi[res.centers[i]] > 0


class TestLanczos:
    def test_agrees_with_dense(self):
        rng = np.random.default_rng(6)
        V = 3.0 * rng.standard_normal(401)
        top = spectrum.top_k_eigs(V, 5, tol=1e-10)
        oracle = spectrum.dense_eigs(V, 5)
        assert np.allclose(top.eigenvalues, oracle.eigenvalues, atol=1e-9)
        for i in range(5):
            overlap = abs(float(np.sum(top.eigenfunctions[i] * oracle.eigenfunctions[i])))
            assert overlap > 1.0 - 1e-9

    def test_agrees_with_dense_2d(self):
        rng = np.random.default_rng(7)
        V = 3.0 * rng.standard_normal((21, 21))
        top = spectrum.top_k_eigs(V, 3, tol=1e-10)
        oracle = spectrum.dense_eigs(V, 3)
        assert np.allclose(top.eigenvalues, oracle.eigenvalues, atol=1e-9)

    def test_residual_guarantee(self):
        rng = np.random.default_rng(8)
        V = 2.0 * rng.standard_normal(1001)
        res = spectrum.top_k_eigs(V, 4, tol=1e-10)
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
        res = spectrum.top_k_eigs(V, 4, tol=1e-9)
        assert np.max(res.residuals) <= 1e-9
        distinct = np.unique(np.round(spectrum.dense_eigs(V).eigenvalues, 10))
        for lam in res.eigenvalues:
            assert np.min(np.abs(distinct - lam)) < 1e-8

    def test_tied_blocks(self):
        # exact double eigenvalue from two decoupled identical deep sites
        V = np.zeros(21)
        V[3] = V[17] = 40.0
        res = spectrum.dense_eigs(V, k=3)
        assert res.eigenvalues[0] == pytest.approx(res.eigenvalues[1], abs=1e-9)
        blocks = res.tied_blocks(tol=1e-8)
        assert blocks[0] == [0, 1]

    def test_small_problem_delegates(self):
        V = np.zeros(10)
        res = spectrum.top_k_eigs(V, 2)
        oracle = spectrum.dense_eigs(V, 2)
        assert np.allclose(res.eigenvalues, oracle.eigenvalues, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            spectrum.top_k_eigs(np.zeros(100), 33)
        with pytest.raises(ValueError):
            spectrum.top_k_eigs(np.zeros(4), 5)
        with pytest.raises(ValueError):
            spectrum.top_k_eigs(np.zeros(100), 1, tol=1e-15)

    def test_clustered_2d_spectrum_converges_past_former_cap(self):
        # macro_meso field (iid, d=2, L=60, k=3) at master seed 710005,
        # trial 0: lambda_4 and lambda_5 lie 6e-4 apart, and lambda_4 needs
        # more than 300 Lanczos steps to reach tol
        model = cov.CovarianceModel("iid", 2, {})
        s = field.sample_field(model, 60, harness.trial_seed(710005, 0))
        V = np.array(s.values)
        top = spectrum.top_k_eigs(V, 4, tol=1e-10)
        oracle = spectrum.dense_eigs(V, 4)
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
        # a pair whose true residual exceeds tol is refused on every path
        real = spectrum.eigh_tridiagonal

        def off_by_1e6(*args, **kwargs):
            w, U = real(*args, **kwargs)
            return w + 1e-6, U

        monkeypatch.setattr(spectrum, "eigh_tridiagonal", off_by_1e6)
        V = np.random.default_rng(10).standard_normal(201)
        with pytest.raises(SolverConvergenceError):
            spectrum.top_k_eigs(V, 3, tol=1e-10)
        assert np.max(spectrum.top_k_eigs(V, 3, tol=1e-5).residuals) > 1e-10


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
        top = spectrum.top_k_eigs(V, k, tol=1e-10)
        oracle = spectrum.dense_eigs(V, k)
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
        top = spectrum.top_k_eigs(V, k, tol=1e-10)
        oracle = spectrum.dense_eigs(V)
        assert np.max(top.residuals) <= 1e-10
        assert np.max(np.abs(top.eigenvalues - oracle.eigenvalues[:k])) <= 1e-9
        for block in top.tied_blocks(tol=1e-8):
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
            V = np.array(field.sample_field(model, L, harness.trial_seed(99, i)).values)
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

    # not the spikes: residuals of eps * 1e9 exceed any tol
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
        # T_m(S) x by the recurrence equals U T_m(w) U^T x on the spectrum of S
        V = np.random.default_rng(14).standard_normal((6, 6))
        a, c = spectrum._filter_interval(V, 3)
        S = spectrum._assemble_scaled(V, a, c)
        w, U = np.linalg.eigh(S.toarray())
        x = np.random.default_rng(15).standard_normal(V.size)
        coef = np.zeros(spectrum.FILTER_DEGREE + 1)
        coef[-1] = 1.0
        want = U @ (np.polynomial.chebyshev.chebval(w, coef) * (U.T @ x))
        got = spectrum._chebyshev_filter(V, a, c) @ x
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)
        # [a, c] maps onto [-1, 1]
        H = spectrum._assemble_dense(V)
        assert np.allclose(S.toarray(), (2 * H - (c + a) * np.eye(V.size)) / (c - a))

    def test_csr_bytes_within_solver_bytes(self):
        for shape in ((21, 21), (9, 9, 9)):
            V = np.zeros(shape)
            S = spectrum._assemble_scaled(V, -20.0, 1.0)
            n, d = V.size, V.ndim
            held = S.data.nbytes + S.indices.nbytes + S.indptr.nbytes
            vectors = 8 * n * (spectrum._arpack_ncv(n, 4) + 3)
            assert held <= spectrum.solver_bytes(n, d, 4) - vectors


@pytest.fixture(scope="module")
def oracle_3721():
    V = 3.0 * np.random.default_rng(16).standard_normal((61, 61))
    return V, spectrum.dense_eigs(V, 8)


class TestFilteredMatchesDense:
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_441_sites(self, k):
        for fam, params in FILTER_FAMILIES:
            model = cov.CovarianceModel(fam, 2, params)
            V = np.array(field.sample_field(model, 20, harness.trial_seed(17, k)).values)
            _assert_matches(spectrum.top_k_eigs(V, k), spectrum.dense_eigs(V, k), k)

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
    assert res.centers == tuple((int(np.argmax(np.abs(u))),) for u in U)
    overlaps = np.abs(np.sum(res.eigenfunctions * U, axis=1))
    assert np.min(overlaps) >= 1.0 - 1e-10


@pytest.fixture
def counted_dstebz(monkeypatch):
    """Wraps spectrum.dstebz; records (vl, count) of every call."""
    calls = []
    real = spectrum.dstebz

    def recording(*args):
        out = real(*args)
        calls.append((args[3], out[0]))
        return out

    monkeypatch.setattr(spectrum, "dstebz", recording)
    return calls


WINDOW_MODELS = [
    cov.CovarianceModel("iid", 1, {}),
    cov.CovarianceModel("cube_indicator", 1, {"m": 2}),
    cov.CovarianceModel("gaussian_kernel", 1, {"ell": 2.0}),
]


class TestWindowPath:
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("model", WINDOW_MODELS, ids=lambda m: m.family)
    def test_agrees_with_global_solver(self, model, k, counted_dstebz):
        # at seed 1 the windows certify in every case; a draw where they do
        # not takes the whole-chain path, as in the fallback tests below
        V = np.array(field.sample_field(model, 4096, 1).values)
        assert V.size == 4097
        res = spectrum.top_k_eigs(V, k)
        assert res.solver == "window"
        _assert_agrees_with_global(res, V, k)
        # one count, taken at or below mu_k - r (Kahan's bound), where
        # it found exactly k eigenvalues
        (vl, count), = counted_dstebz
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
        assert res.centers == ((100,),)

    def test_count_widens_by_the_loss_of_orthonormality(self, monkeypatch, counted_dstebz):
        # Ritz vectors orthonormal only to about 1e-11: Kahan's bound holds
        # for their orthonormal polar factor, so the count starts lower
        real = spectrum.eigh_tridiagonal

        def skewed(*args, **kwargs):
            w, U = real(*args, **kwargs)
            U = U.copy()
            U[:, 0] += 1e-11 * U[:, 1]
            return w, U

        monkeypatch.setattr(spectrum, "eigh_tridiagonal", skewed)
        V = np.array(field.sample_field(WINDOW_MODELS[1], 4096, 1).values)
        res = spectrum.top_k_eigs(V, 2)
        assert res.solver == "window"
        phi = res.eigenfunctions
        delta = np.linalg.norm(phi @ phi.T - np.eye(2))
        assert delta > 1e-12
        r = math.sqrt(float(np.sum(res.residuals**2)))
        (vl, count), = counted_dstebz
        assert vl <= res.eigenvalues[-1] - r - 2.0 * np.max(np.abs(res.eigenvalues)) * delta

    def test_count_other_than_k_falls_back(self, monkeypatch):
        real = spectrum.dstebz

        def one_too_many(*args):
            m, *rest = real(*args)
            return (m + 1, *rest)

        monkeypatch.setattr(spectrum, "dstebz", one_too_many)
        V = np.array(field.sample_field(WINDOW_MODELS[1], 4096, 1).values)
        res = spectrum.top_k_eigs(V, 2)
        assert res.solver == "tridiagonal"
        _assert_agrees_with_global(res, V, 2)

    def test_small_box_stays_global(self, counted_dstebz):
        # the 41-site cores of the localisation experiment: windows would
        # cover at least half the sites
        V = 3.0 * np.random.default_rng(41).standard_normal(41)
        res = spectrum.top_k_eigs(V, 2)
        assert res.solver == "tridiagonal"
        assert counted_dstebz == []
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
        assert spectrum.dense_eigs(rng.standard_normal(9), 2).solver == "dense"


def _finalize_per_pair(lams, phis, V, solver):
    """_finalize one pair at a time: the reference the batched pass must
    reproduce bit for bit."""
    order = np.argsort(-lams, kind="stable")
    lams = np.asarray(lams, dtype=float)[order]
    centers, residuals, fixed = [], [], []
    for lam, i in zip(lams, order):
        phi = np.ascontiguousarray(phis[i])
        phi = phi / math.sqrt(float(np.sum(phi**2)))
        flat = np.abs(phi).ravel(order="C")
        c = tuple(int(j) for j in np.unravel_index(int(np.argmax(flat)), phi.shape))
        if phi[c] < 0:
            phi = -phi
        r = spectrum.apply_hamiltonian(V, phi) - lam * phi
        centers.append(c)
        residuals.append(math.sqrt(float(np.sum(r**2))))
        fixed.append(phi)
    return spectrum.SpectralResult(
        eigenvalues=lams,
        eigenfunctions=np.stack(fixed),
        centers=tuple(centers),
        residuals=np.asarray(residuals),
        half=V.shape[0] // 2,
        solver=solver,
    )


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

        def recording(lams, phis, V, solver):
            out = real(lams, phis, V, solver)
            pairs.append((out, _finalize_per_pair(lams, phis, V, solver)))
            return out

        monkeypatch.setattr(spectrum, "_finalize", recording)
        V = 3.0 * np.random.default_rng(math.prod(shape) + k).standard_normal(shape)
        if solver == "dense":
            res = spectrum.dense_eigs(V, k)
        else:
            res = spectrum.top_k_eigs(V, k)
        assert res.solver == solver and pairs
        for got, want in pairs:
            for name in ("eigenvalues", "eigenfunctions", "residuals"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert got.centers == want.centers
            assert all(type(i) is int for c in got.centers for i in c)
            assert (got.half, got.solver) == (want.half, want.solver)


class TestSpectralResult:
    def test_gap(self):
        res = spectrum.dense_eigs(np.zeros(9), k=3)
        assert res.gap == pytest.approx(res.eigenvalues[0] - res.eigenvalues[1])

    def test_gap_needs_two(self):
        res = spectrum.dense_eigs(np.zeros(9), k=1)
        with pytest.raises(ValueError):
            res.gap

    def test_json(self):
        import json

        res = spectrum.dense_eigs(np.zeros(9), k=2)
        data = json.loads(res.to_json())
        assert len(data["eigenvalues"]) == 2
        assert "gap" in data

    def test_ordering_enforced(self):
        res = spectrum.dense_eigs(np.zeros(9), k=3)
        with pytest.raises(ValueError):
            spectrum.SpectralResult(
                eigenvalues=res.eigenvalues[::-1].copy(),
                eigenfunctions=res.eigenfunctions,
                centers=res.centers,
                residuals=res.residuals,
                half=res.half,
                solver=res.solver,
            )


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
        oracle = spectrum.dense_eigs(-S, 1)
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
        # kernel flat to distance 1: S vanishes at unit vectors
        m = cov.CovarianceModel("cube_indicator", 1, {"m": 8})
        # v(1) = 7/8 != 1, so use a kernel with v(1) = 1: impossible in this
        # family; instead check expansion_value is finite here
        sol = spectrum.solve_bar_problem(m, 9.0, 9)
        assert math.isfinite(sol.expansion_value)

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
        res = spectrum.dense_eigs(V, 1)
        got = spectrum.quadratic_form(V, res.eigenfunctions[0])
        assert got == pytest.approx(res.eigenvalues[0], rel=1e-12)

    def test_variational_upper_bound(self):
        rng = np.random.default_rng(12)
        V = rng.standard_normal(15)
        lam1 = spectrum.dense_eigs(V, 1).eigenvalues[0]
        for seed in range(5):
            psi = np.random.default_rng(seed).standard_normal(15)
            psi /= np.linalg.norm(psi)
            assert spectrum.quadratic_form(V, psi) <= lam1 + 1e-12

    def test_gradient_zero_at_eigenfunction(self):
        V = -cov.shape_grid(
            cov.CovarianceModel("cube_indicator", 1, {"m": 4}), 6.0, 4
        )
        res = spectrum.dense_eigs(V, 1)
        phi = res.eigenfunctions[0]
        c = (4,)
        if phi[c] < 0:
            phi = -phi
        g = spectrum.form_gradient(V, phi)
        assert np.max(np.abs(g)) < 1e-10

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(13)
        V = rng.standard_normal(9)
        psi = np.abs(rng.standard_normal(9)) + 0.2
        psi /= np.linalg.norm(psi)
        c = 4
        g = spectrum.form_gradient(V, psi)
        eps = 1e-6
        for x in (0, 2, 7):
            bumped = psi.copy()
            bumped[x] += eps
            # restore normalization through the origin coordinate
            off = np.sum(bumped**2) - bumped[c] ** 2
            bumped[c] = math.sqrt(1.0 - off)
            f1 = spectrum.quadratic_form(V, bumped)
            f0 = spectrum.quadratic_form(V, psi)
            assert (f1 - f0) / eps == pytest.approx(g[x], abs=1e-4)

    def test_gradient_chart_validation(self):
        psi = np.zeros(9)
        psi[0] = 1.0
        with pytest.raises(ValueError):
            spectrum.form_gradient(np.zeros(9), psi)

    def test_quadratic_form_requires_normalized(self):
        with pytest.raises(ValueError):
            spectrum.quadratic_form(np.zeros(5), np.ones(5))


class TestDecayCheck:
    def test_perfect_exponential_passes(self):
        half = 10
        rate = 2.0
        c = 0.5
        x = np.abs(np.arange(-half, half + 1))
        phi = (1.0 + c * rate) ** (-x.astype(float))
        rep = spectrum.decay_check(phi, (half,), rate, c=c)
        assert rep.holds
        assert rep.max_ratio == pytest.approx(1.0, rel=1e-12)
        assert rep.fitted_c == pytest.approx(c, rel=1e-10)

    def test_flat_profile_fails(self):
        phi = np.full(11, 0.9)
        rep = spectrum.decay_check(phi, (5,), 2.0, c=0.5)
        assert not rep.holds
        assert rep.max_ratio > 1.0

    def test_bar_profile_decays(self, cube4):
        sol = spectrum.solve_bar_problem(cube4, 12.0, 13)
        rep = spectrum.decay_check(sol.bar_phi, (6,), 12.0 / 4.0, c=0.5)
        assert rep.holds


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
        s = field.FieldSample(
            values=vals, L=L, d=1, model=cube2, seed=0, sampler="dense"
        )
        bar = spectrum.solve_bar_problem(cube2, a_L, r_L)
        view = field.fluctuation_view(s, [0])
        res = spectrum.dense_eigs(s.values.copy(), 2)
        eig_err, fun_err = spectrum.approximation_error(bar, res, view, ss)
        # zeta = 0 so Phi = 0 and Xi(0) = a_L; the only error left is the
        # Dirichlet-window truncation of the profile
        assert eig_err < 1e-3
        assert fun_err < 0.6

    def test_gap_check(self):
        res = spectrum.dense_eigs(np.array([5.0, 0.0, 0.0, 0.0, 0.0]), k=2)
        ss = scales.ScaleSet(L=41, d=1, a_L=5.0, tau_L=0.0, R_L=9, r_L=3, d_L=1.0)
        ok, margin = spectrum.spectral_gap_check(res, 5.0, ss)
        bound = 5.0 - 0.25 * 5.0
        assert margin == pytest.approx(bound - res.eigenvalues[1])
        assert ok == (margin >= 0)
