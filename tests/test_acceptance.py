"""End-to-end acceptance checks: analytic identities, oracle equivalences,
and calibrated statistical checks with fixed seeds.

Each test prints exactly one PASS/FAIL line.  The statistical checks use
frozen master seeds; thresholds are part of the contract and are never
loosened to fit a particular run.
"""

import math
import time

import numpy as np
import pytest
from scipy import special

from andex import covariance as cov
from andex import extremes, field, harness, scales, spectrum, stats


def crit(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# 1. analytic scale identity


def test_criterion_01_scale_identity():
    t0 = time.time()
    worst = 0.0
    for L, d in [(100, 1), (10, 2), (10**6, 1)]:
        a = scales.compute_aL(L, d)
        val = float(L) ** d * float(scales.normal_sf(a))
        worst = max(worst, abs(val - 1.0))
    elapsed = time.time() - t0
    crit(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"max |L^d * sf(a_L) - 1| = {worst:.3e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. Gaussian sum-tail ratios
#
# The exact entry Ld * P(N(0, sigma^2) >= a_L sigma + s/a_L), sigma^2 =
# 1 + tau^2, tends to e^{-s} only as a_L -> infinity.  At tau = 0 its
# ratio to e^{-s} is 1 - (s^2/2 + s)/a_L^2 + O(a_L^-4); for tau > 0 the
# limit is e^{s - s/sigma}, within 1% of 1 on this grid.  At the frozen
# level a_L = 4.7534 the ratio is 0.846 at s = 2, so that level is checked
# against an independent evaluation, and the 5% tolerance is checked along
# growing levels where the expansion puts the ratio inside it.

SUM_TAIL_TAUS = (0.0, 0.05, 0.1)
SUM_TAIL_SS = (-1.0, 0.0, 1.0, 2.0)
# max over the grid of |s^2/2 + s|, the leading coefficient at tau = 0
SUM_TAIL_LEAD = max(abs(s * s / 2.0 + s) for s in SUM_TAIL_SS)


def _sum_tail_ratios(a_L, Ld):
    """{(tau, s): exact entry / e^{-s}} over the frozen grid."""
    out = {}
    for tau in SUM_TAIL_TAUS:
        for s in SUM_TAIL_SS:
            exact, ref = scales.gaussian_sum_tail(a_L, tau, s, Ld)
            assert ref == math.exp(-s)
            out[(tau, s)] = exact / math.exp(-s)
    return out


def test_criterion_02_sum_tail_ratios():
    # (a) the frozen level, against scipy.special.log_ndtr
    a_L = 4.7534
    Ld = 1.0 / float(scales.normal_sf(a_L))
    dev = 0.0
    for tau in SUM_TAIL_TAUS:
        sigma = math.sqrt(1.0 + tau * tau)
        for s in SUM_TAIL_SS:
            exact, _ = scales.gaussian_sum_tail(a_L, tau, s, Ld)
            indep = Ld * math.exp(special.log_ndtr(-(a_L + s / (a_L * sigma))))
            dev = max(dev, abs(exact / indep - 1.0))
    frozen = _sum_tail_ratios(a_L, Ld)
    at = max(frozen, key=lambda key: abs(frozen[key] - 1.0))

    # (b) along a_L = compute_aL(10^k, 1): the worst |ratio - 1| never
    # grows, is <= 0.05 wherever SUM_TAIL_LEAD / a_L^2 is, and at the top
    # level and tau = 0, a_L^2 (1 - ratio) is within 0.05 of s^2/2 + s
    # (the next order, (s^4/8 + s^3/2 + s^2 + 2s)/a_L^2, is 0.024 there)
    ok = dev <= 1e-12
    worsts, levels = [], []
    for k in (4, 8, 16, 32, 64, 128):
        level = scales.compute_aL(10**k, 1)
        ratios = _sum_tail_ratios(level, 10.0**k)
        worst = max(abs(r - 1.0) for r in ratios.values())
        if SUM_TAIL_LEAD / level**2 <= 0.05:
            ok &= worst <= 0.05
        worsts.append(worst)
        levels.append(level)
    ok &= all(b <= a for a, b in zip(worsts, worsts[1:]))
    coef_err = max(
        abs(level**2 * (1.0 - ratios[(0.0, s)]) - (s * s / 2.0 + s))
        for s in SUM_TAIL_SS
    )
    ok &= coef_err <= 0.05
    crit(
        2,
        ok,
        f"a_L = {a_L}: |exact/log_ndtr - 1| = {dev:.1e} (<= 1e-12), ratio "
        f"{frozen[at]:.4f} at tau={at[0]}, s={at[1]}; along a_L = "
        + ", ".join(f"{a:.2f}" for a in levels)
        + ": worst |ratio-1| = "
        + ", ".join(f"{w:.4g}" for w in worsts)
        + f" (non-increasing, <= 0.05 where {SUM_TAIL_LEAD}/a_L^2 is); "
        f"|a_L^2 (1-ratio) - (s^2/2+s)| at tau=0 = {coef_err:.4g} (<= 0.05)",
    )


# ---------------------------------------------------------------------------
# 3. eigensolver oracle equivalence


def _subspace_overlap(block, top, oracle):
    """Smallest principal-cosine of the cross-overlap on one tied block."""
    A = np.stack([top.eigenfunctions[i].ravel() for i in block])
    B = np.stack([oracle.eigenfunctions[i].ravel() for i in block])
    sv = np.linalg.svd(A @ B.T, compute_uv=False)
    return float(np.min(sv))


def test_criterion_03_solver_oracle():
    rng = np.random.default_rng(314)
    pool = [
        ("iid", 1, {}),
        ("iid", 2, {}),
        ("cube_indicator", 1, {"m": 2}),
        ("cube_indicator", 1, {"m": 4}),
        ("cube_indicator", 2, {"m": 2}),
        ("gaussian_kernel", 1, {"ell": 1.5}),
        ("gaussian_kernel", 2, {"ell": 1.5}),
        ("exponential", 1, {"alpha": 0.3}),
    ]
    worst_dl = 0.0
    worst_ov = 1.0
    for _ in range(50):
        family, d, params = pool[int(rng.integers(len(pool)))]
        model = cov.CovarianceModel(family, d, params)
        if d == 1:
            L = int(rng.integers(200, 1999))
        else:
            L = int(rng.integers(20, 43))
        seed = int(rng.integers(2**32))
        V = 3.0 * np.array(field.sample_field(model, L, seed).values)
        assert V.size <= 2000
        top = spectrum.top_k_eigs(V, 5, tol=1e-10)
        oracle = spectrum.dense_eigs(V, 5)
        worst_dl = max(
            worst_dl, float(np.max(np.abs(top.eigenvalues - oracle.eigenvalues)))
        )
        for block in oracle.tied_blocks(tol=1e-10):
            worst_ov = min(worst_ov, _subspace_overlap(block, top, oracle))
    crit(
        3,
        worst_dl <= 1e-9 and worst_ov >= 1.0 - 1e-8,
        f"50 instances: max |dlambda| = {worst_dl:.3e}, "
        f"min overlap = {worst_ov:.12f}",
    )


# ---------------------------------------------------------------------------
# 4. expansion convergence of the dip eigenvalue


def test_criterion_04_bar_expansion():
    ok = True
    details = []
    for fam in ({"family": "iid"}, {"family": "cube_indicator", "m": 2}):
        model = cov.CovarianceModel.from_config(dict(fam), 1)
        d_L = cov.derive_dL(model)
        errs = []
        for ratio in (5.0, 10.0, 20.0, 40.0):
            a_L = ratio * d_L
            bar = spectrum.solve_bar_problem(model, a_L, 9)
            errs.append(abs(bar.bar_lambda - bar.expansion_value) / (d_L / a_L))
        mono = all(a > b for a, b in zip(errs, errs[1:]))
        ok &= mono and errs[-1] <= 0.5
        details.append(f"{model.family}: final={errs[-1]:.4f} monotone={mono}")
    crit(4, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. sampler exactness


def _empirical_cov_dev(model, L, n, seed_base, hint):
    draws = np.stack(
        [
            field.sample_field(model, L, seed_base + s, sampler_hint=hint).values
            for s in range(n)
        ]
    )
    flat = draws.reshape(n, -1)
    emp = flat.T @ flat / n
    h = field.box_half(L)
    pts = np.stack(
        np.meshgrid(*[np.arange(-h, h + 1)] * model.d, indexing="ij"), axis=-1
    ).reshape(-1, model.d)
    C = cov.eval_cov_offsets(model, pts[:, None, :] - pts[None, :, :])
    se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / n)
    return float(np.max(np.abs(emp - C) / se))


def test_criterion_05_sampler_exactness():
    n = 20000
    configs = [
        (cov.CovarianceModel("iid", 1, {}), 64),
        (cov.CovarianceModel("cube_indicator", 1, {"m": 4}), 76),
        (cov.CovarianceModel("gaussian_kernel", 2, {"ell": 1.5}), 9),
    ]
    devs = [_empirical_cov_dev(m, L, n, 0, "dense") for m, L in configs]
    # circulant path against the same exact covariance
    circ_dev = _empirical_cov_dev(
        cov.CovarianceModel("cube_indicator", 1, {"m": 4}), 76, n, 0, "circulant"
    )
    worst = max(devs + [circ_dev])
    crit(
        5,
        worst <= 4.0,
        f"dense devs (in SE units) = {[round(d, 3) for d in devs]}, "
        f"circulant dev = {circ_dev:.3f}, bound 4",
    )


# ---------------------------------------------------------------------------
# 6. Gumbel limit of the rescaled maximum


def _rescaled_maxima(model, L, n, master_seed):
    a_L = scales.compute_aL(L, model.d)
    out = np.empty(n)
    for i in range(n):
        s = field.sample_field(model, L, harness.trial_seed(master_seed, i))
        out[i] = a_L * (float(np.max(s.values)) - a_L)
    return out


@pytest.fixture(scope="module")
def gumbel_batches():
    L, n, seed = 2**13, 400, 2024
    return {
        "iid": _rescaled_maxima(cov.CovarianceModel("iid", 1, {}), L, n, seed),
        "cube": _rescaled_maxima(
            cov.CovarianceModel("cube_indicator", 1, {"m": 2}), L, n, seed
        ),
    }


def test_criterion_06_gumbel_limit(gumbel_batches):
    ks_iid = stats.ks_statistic(np.sort(gumbel_batches["iid"]), stats.gumbel_cdf)
    ks_cube = stats.ks_statistic(np.sort(gumbel_batches["cube"]), stats.gumbel_cdf)
    crit(
        6,
        ks_iid <= 0.08 and ks_cube <= 0.10,
        f"KS(iid) = {ks_iid:.4f} (<= 0.08), KS(cube m=2) = {ks_cube:.4f} (<= 0.10)",
    )


# ---------------------------------------------------------------------------
# 7. Poisson dispersion of per-box exceedance counts


def test_criterion_07_poisson_dispersion():
    model = cov.CovarianceModel("iid", 1, {})
    L, R_L, n, seed = 2**13, 511, 200, 2024
    a_L = scales.compute_aL(L, 1)
    part = extremes.build_partition(L, R_L, 1)
    counts = np.empty(n, dtype=int)
    for i in range(n):
        s = field.sample_field(model, L, harness.trial_seed(seed, i))
        maxima = extremes.box_maxima(s, part)
        counts[i] = sum(1 for _, v in maxima if a_L * (v - a_L) > 0.0)
    rep = stats.poisson_dispersion(counts)
    crit(7, rep.passed, rep.description)


# ---------------------------------------------------------------------------
# 8-10. peak-conditioned localisation batch (shared)


def _localisation_rows(model_cfg, n=200, master_seed=2024):
    cfg = harness.ExperimentConfig(
        experiment="localisation",
        model=model_cfg,
        L=83,
        d=1,
        trials=n,
        master_seed=master_seed,
        out_dir="unused",
        overrides={"a_L": 6.0, "R_L": 41, "r_L": 9},
    )
    ctx = harness._Context(cfg)
    return [harness._trial_localisation(ctx, i) for i in range(n)]


@pytest.fixture(scope="module")
def localisation_batches():
    return {
        "iid": _localisation_rows({"family": "iid"}),
        "cube": _localisation_rows({"family": "cube_indicator", "m": 2}),
    }


def _on_event(rows):
    return [r for r in rows if r["in_E1"] and r["in_E3"]]


def test_criterion_08_eigenvalue_approximation(localisation_batches):
    ok = True
    details = []
    for name, rows in localisation_batches.items():
        sel = _on_event(rows)
        eig = np.array([r["eig_err"] for r in sel])
        med = float(np.median(eig))
        p95 = float(np.percentile(eig, 95))
        ok &= med <= 0.1 and p95 <= 0.5
        details.append(f"{name}: median={med:.4f} p95={p95:.4f} (n={len(sel)})")
    crit(8, ok, "; ".join(details) + " [median <= 0.1, p95 <= 0.5]")


def test_criterion_09_spectral_gap(localisation_batches):
    ok = True
    details = []
    for name, rows in localisation_batches.items():
        sel = _on_event(rows)
        freq = float(np.mean([r["gap_ok"] for r in sel]))
        ok &= freq >= 0.95
        details.append(f"{name}: gap pass frequency = {freq:.3f} (n={len(sel)})")
    crit(9, ok, "; ".join(details) + " [>= 0.95 on event]")


def test_criterion_10_localisation(localisation_batches):
    ok = True
    details = []
    for name, rows in localisation_batches.items():
        sel = _on_event(rows)
        med = float(np.median([r["fun_err"] for r in sel]))
        ok &= med <= 0.2
        details.append(f"{name}: median fun err = {med:.4f} (n={len(sel)})")
    crit(10, ok, "; ".join(details) + " [median <= 0.2]")


# ---------------------------------------------------------------------------
# 11. rank-permutation trichotomy


def test_criterion_11i_identity_at_zero_decoration():
    ref = extremes.sample_ppp_reference(0.0, 500, seed=12345)
    ok = ref.ell == tuple(range(1, ref.k_max_safe + 1))
    crit("11i", ok, f"b=0 ranks identity up to k_max_safe={ref.k_max_safe}")


def test_criterion_11ii_monotone_in_decoration():
    n = 10**5
    est = [
        extremes.ppp_rank_one_probability(b, 500, n, seed=99)
        for b in (0.0, 0.01, 1.0, 100.0)
    ]
    ok = True
    for (pa, sa), (pb, sb) in zip(est, est[1:]):
        ok &= pb <= pa + 4.0 * math.hypot(sa, sb)
    crit(
        "11ii",
        ok,
        "P(rank 1 stays 1) over b in {0, 0.01, 1, 100}: "
        + ", ".join(f"{p:.4f}" for p, _ in est),
    )


def test_criterion_11iii_end_to_end_rank_one():
    model = cov.CovarianceModel("iid", 1, {})
    L, n, master_seed = 2**12, 300, 1
    hits = 0
    for i in range(n):
        s = field.sample_field(model, L, harness.trial_seed(master_seed, i))
        V = np.array(s.values)
        res = spectrum.top_k_eigs(V, 1)
        order = extremes.order_statistics(s, scales.compute_aL(L, 1), top=1)
        hits += int(res.center_coords(0) == order.order[0][0])
    freq = hits / n
    crit(
        "11iii",
        freq >= 0.8,
        f"empirical P(top eigenfunction centres on the field argmax) = "
        f"{freq:.3f} over {n} trials (required >= 0.8)",
    )


# ---------------------------------------------------------------------------
# 12. macro-meso gluing


def test_criterion_12_macro_meso():
    cfg = harness.ExperimentConfig(
        experiment="macro_meso",
        model={"family": "iid"},
        L=60,
        d=2,
        trials=50,
        master_seed=2024,
        out_dir="unused",
        overrides={"k": 3, "R_L": 13, "r_L": 5},
    )
    ctx = harness._Context(cfg)
    rows = [harness._trial_macro_meso(ctx, i) for i in range(50)]
    # the event the manifest conditions on: gap_event and peaks_in_cores
    summary = harness._aggregate(cfg, ctx, rows)["summary"]
    cond = summary["conditioning"]
    counts = (
        f"gap_event {cond['gap_event']}, peaks_in_cores "
        f"{cond['peaks_in_cores']}, both {cond['both']}"
    )
    top = summary[f"rank_{ctx.k}"]
    if "eig_median_on_event" not in top:
        crit(
            12,
            False,
            f"event occurred in {cond['both']}/{cond['n']} trials ({counts}); "
            "conditional medians undefined at this box size",
        )
    eig = top["eig_median_on_event"]
    fun = top["fun_median_on_event"]
    crit(
        12,
        eig <= 0.2 and fun <= 0.3,
        f"on gap event and peaks in cores ({counts}): median eig diff = "
        f"{eig:.4f} (<= 0.2), median fun diff = {fun:.4f} (<= 0.3)",
    )


# ---------------------------------------------------------------------------
# 13. gradient vs finite differences


def test_criterion_13_gradient_check():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(7, 15))
        V = rng.standard_normal(n)
        psi = np.abs(rng.standard_normal(n)) + 0.3
        psi /= np.linalg.norm(psi)
        c = n // 2
        g = spectrum.form_gradient(V, psi)
        eps = 1e-5
        fd = np.zeros(n)
        for x in range(n):
            if x == c:
                continue
            up = psi.copy()
            up[x] += eps
            up[c] = math.sqrt(1.0 - (np.sum(up**2) - up[c] ** 2))
            dn = psi.copy()
            dn[x] -= eps
            dn[c] = math.sqrt(1.0 - (np.sum(dn**2) - dn[c] ** 2))
            fd[x] = (
                spectrum.quadratic_form(V, up) - spectrum.quadratic_form(V, dn)
            ) / (2 * eps)
        scale = max(1.0, float(np.max(np.abs(g))))
        worst = max(worst, float(np.max(np.abs(fd - g))) / scale)
    crit(13, worst <= 1e-6, f"max relative gradient error = {worst:.3e}")


# ---------------------------------------------------------------------------
# 14. bitwise determinism of experiment records


def test_criterion_14_determinism(tmp_path):
    texts = []
    for tag in ("a", "b"):
        cfg = harness.ExperimentConfig(
            experiment="eigenvalue_stats",
            model={"family": "cube_indicator", "m": 2},
            L=41,
            d=1,
            trials=8,
            master_seed=77,
            out_dir=str(tmp_path / tag),
            overrides={"a_L": 6.0, "R_L": 19, "r_L": 9},
        )
        harness.run_experiment(cfg)
        texts.append((tmp_path / tag / "records.csv").read_text())
    crit(
        14,
        texts[0] == texts[1],
        "identical config+seed reproduces records byte-for-byte",
    )
