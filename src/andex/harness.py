"""Monte Carlo experiment orchestration: configs, seeding, persistence.

Experiments confront the asymptotic theorems with finite-size simulation.
Each experiment is one entry of ``_EXPERIMENTS``; ``rank_permutation`` is the
one that records the top of the unconditioned spectrum (eigenvalues, centre,
ranks of the centres among the sites).  Each trial's seed is a
fixed counter-based function of (master_seed, trial_index), numpy's
SeedSequence((master_seed, trial_index, 0)) word; a block's trial seeds come
from one vectorised pass, field._seed_state, which equals numpy's
SeedSequence bit for bit (tests/test_field.py::TestSeedingPass).  Records are flat
rows in a CSV written whole, when the run ends (a crash loses the run's new
rows and leaves the old file; streaming writes are an open ROADMAP item); a
re-run of the same config, beside the manifest of the run that wrote the
records, resumes after the whole rows already written and runs the trial of
a partial row again.  Aggregates land in a manifest JSON.
``ExperimentConfig`` checks every config value; the rest of the module reads
them as given.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field as dc_field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import covariance as cov
from . import extremes, field, scales as scales_mod, spectrum, stats
from .errors import ConfigError

__all__ = ["ExperimentConfig", "run_experiment", "report"]

SCHEMA_VERSION = 2

# Refuse runs whose working grids would obviously exhaust memory.
_MEMORY_BUDGET_BYTES = 4_000_000_000

# Override keys every _Context reads; _Experiment.overrides adds the others.
_SCALE_OVERRIDES = frozenset({"a_L", "R_L", "r_L"})

# C of the interval I_{L,C} (localisation) and of the restricted sum tail
# (tail_lemma).
_INTERVAL_C = 3.0

# The sampler every trial draws its field with; the manifest records it.
_SAMPLER = "circulant"


def trial_seeds(master_seed: int, start: int, stop: int) -> list[int]:
    """The seeds of trials start .. stop - 1: for trial i,
    SeedSequence((master_seed, i, 0)).generate_state(1, np.uint64)[0], the
    seeds of all of them from one field._seed_state pass."""
    master, _ = field._int_words([master_seed])
    index, counts = field._int_words(range(start, stop))
    B = stop - start
    # an index of fewer words than the widest has its trailing 0 in the
    # padding, and the last row lies past its length
    entropy = np.concatenate(
        (np.broadcast_to(master, (len(master), B)), index, np.zeros((1, B), np.uint32))
    )
    return field._seed_state(entropy, len(master) + counts + 1, 1)[:, 0].tolist()


@dataclass
class ExperimentConfig:
    experiment: str
    model: dict
    L: int
    d: int
    trials: int
    master_seed: int
    out_dir: str
    overrides: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        """Check every value; the run reads them as given, converting none."""
        if not isinstance(self.experiment, str) or self.experiment not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        for key, rule in _FIELD_RULES.items():
            _check(key, getattr(self, key), rule)
        accepted = _SCALE_OVERRIDES | _EXPERIMENTS[self.experiment].overrides
        unknown = set(self.overrides) - accepted
        if unknown:
            raise ConfigError(
                f"unknown override keys {sorted(unknown)}; "
                f"{self.experiment} accepts {sorted(accepted)}"
            )
        for key, value in self.overrides.items():
            _check(f"overrides.{key}", value, _OVERRIDE_RULES[key])
        try:
            cov.CovarianceModel.from_config(self.model, self.d)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid model {self.model!r}: {exc}") from exc

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config of a parsed JSON object: the defaults for the keys it
        leaves out, ConfigError for a key that is unknown or missing."""
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        missing = {"experiment", "L"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys {sorted(missing)}")
        defaults = {
            "model": {"family": "iid"},
            "d": 1,
            "trials": 1,
            "master_seed": 0,
            "out_dir": "runs/latest",
        }
        return cls(**{**defaults, **raw})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


# (test, description) of what each config value must be.  What the override
# values must satisfy together (r_L < R_L, an odd r_L, d_L < a_L, ...) is
# checked where _Context builds the windows and scales from them.
_FIELD_RULES = {
    "model": (lambda v: isinstance(v, dict), "an object"),
    "overrides": (lambda v: isinstance(v, dict), "an object"),
    "out_dir": (lambda v: isinstance(v, str), "a string"),
    "L": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    "d": (lambda v: _is_int(v) and v in (1, 2, 3), "1, 2 or 3"),
    "trials": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "master_seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
}
_OVERRIDE_RULES = {
    "a_L": (_is_number, "a finite number"),
    "R_L": (_is_int, "an integer"),
    "r_L": (_is_int, "an integer"),
    "k": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
}


def _check(key: str, value, rule: tuple):
    ok, what = rule
    if not ok(value):
        raise ConfigError(f"{key} must be {what}, got {value!r}")


class _Context:
    """Shared per-run deterministic state (model, scales, bar problem,
    mesoscopic partition)."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        ov = cfg.overrides
        self.model = cov.CovarianceModel.from_config(cfg.model, cfg.d)
        a_L = float(ov["a_L"]) if "a_L" in ov else None
        R_L, r_L = ov.get("R_L"), ov.get("r_L")
        self.k = ov.get("k", 1)
        exp = _EXPERIMENTS[cfg.experiment]
        # The windows, the bar problem, the scales and the experiment's check
        # reject values that do not fit together (r_L even, r_L >= R_L,
        # d_L >= a_L, super-boxes that do not fit twice in L, ...).  admit
        # runs first: the experiment's check may build the partition.
        try:
            d_L = cov.derive_dL(self.model)
            if a_L is None:
                a_L = scales_mod.compute_aL(cfg.L, cfg.d)
            if R_L is None or r_L is None:  # suggest_windows raises for L < 32
                R_def, r_def = scales_mod.suggest_windows(a_L, d_L, cfg.L)
                R_L = R_def if R_L is None else R_L
                r_L = r_def if r_L is None else r_L
            self.bar = spectrum.solve_bar_problem(self.model, a_L, r_L)
            self.scales = scales_mod.ScaleSet(
                L=cfg.L,
                d=cfg.d,
                a_L=a_L,
                tau_L=field.compute_tau(self.model, self.bar.bar_phi),
                R_L=R_L,
                r_L=r_L,
                d_L=d_L,
            )
            sites, self.pairs, fields = exp.solve(self) if exp.solve else (0, 0, 0)
            if self.pairs > spectrum.MAX_K:
                # k is the one override that moves the pair count
                raise ConfigError(
                    f"overrides.k must be <= {spectrum.MAX_K - self.pairs + self.k} "
                    f"for {cfg.experiment}, got {self.k}"
                )
            # trials draw their fields; row tables draw none
            admit(self.model, cfg.L, _SAMPLER if exp.trial else None, sites, self.pairs, fields)
            if exp.check is not None:
                exp.check(self)
        except ValueError as exc:
            raise ConfigError(f"invalid scales or windows: {exc}") from exc

    @functools.cached_property
    def partition(self) -> extremes.MesoPartition:
        return extremes.build_partition(self.cfg.L, self.scales.R_L, self.cfg.d)

    @functools.cached_property
    def core_bar_phi(self) -> np.ndarray:
        """bar_phi(. - x0) at x0 = 0 on the core Q_{R_L}, the box of
        localisation's solves."""
        shape = (field.grid_side(self.scales.R_L),) * self.cfg.d
        return spectrum._bar_on_grid(self.bar, shape, (0,) * self.cfg.d)


def admit(
    model: cov.CovarianceModel, L: int, sampler: str | None, sites=0, pairs=0, fields=1
) -> None:
    """ConfigError, before any draw, unless a draw on Q_L with ``sampler``
    (None: no draw) and a solve of ``pairs`` pairs on ``sites`` sites (0: no
    solve) for each of ``fields`` potentials at once would run: no more
    pairs than sites, a dense draw on at most field.DENSE_SITE_LIMIT sites,
    and a working set, field.draw_bytes of circulant draws plus
    spectrum.solver_bytes, within the memory budget."""
    n = field.grid_side(L) ** model.d
    if pairs > sites:
        raise ConfigError(f"{pairs} pairs exceed the {sites} sites of the solve")
    if sampler == "dense" and n > field.DENSE_SITE_LIMIT:
        raise ConfigError(f"dense sampler limited to {field.DENSE_SITE_LIMIT} sites, got {n}")
    need = field.draw_bytes(model, L) if sampler == "circulant" else 0
    need += spectrum.solver_bytes(sites, model.d, pairs, fields)
    if need > _MEMORY_BUDGET_BYTES:
        raise ConfigError(f"estimated working set {need} bytes exceeds budget")


# ---------------------------------------------------------------------------
# per-experiment code: trial body (ctx, a block of fields stacked on a
# leading axis) -> one dict per field, or row table (ctx) -> list[dict];
# aggregate (ctx, rows) -> (tests, summary); plot data rows -> (file name,
# header, cells).  The table _EXPERIMENTS joins them.


def _each(trial: Callable[[_Context, np.ndarray], dict]):
    """The trial body that runs ``trial`` on each field of its block."""

    def body(ctx: _Context, values: np.ndarray) -> list[dict]:
        return [trial(ctx, V) for V in values]

    return body


def _box_sites(ctx: _Context) -> int:
    return field.grid_side(ctx.cfg.L) ** ctx.cfg.d


def _core_sites(ctx: _Context) -> int:
    return field.grid_side(ctx.scales.R_L) ** ctx.cfg.d


def _col(rows: list[dict], name: str) -> np.ndarray:
    return np.array([r[name] for r in rows if name in r and r[name] != ""])


def _median_p95(vals: np.ndarray) -> dict:
    return {"median": float(np.median(vals)), "p95": float(np.percentile(vals, 95))}


def _check_partition(ctx: _Context):
    # build_partition raises ValueError for super-boxes that do not fit
    # twice in L; the partition is cached for the trials
    ctx.partition


def _trial_potential_extremes(ctx: _Context, V: np.ndarray) -> dict:
    part = ctx.partition
    _, values = extremes.box_maxima(V, part)
    m = float(np.max(V))
    a_L = ctx.scales.a_L
    n_exceed = int(np.count_nonzero(a_L * (values - a_L) > 0.0))
    return {
        "max_value": m,
        "rescaled_max": a_L * (m - a_L),
        "n_exceed": n_exceed,
        "n_boxes": part.n_boxes,
    }


def _agg_potential_extremes(ctx: _Context, rows: list[dict]) -> tuple[dict, dict]:
    rescaled = np.sort(_col(rows, "rescaled_max"))
    ks = stats.ks_statistic(rescaled, stats.gumbel_cdf)
    tests = {
        "gumbel_ks": stats.TestReport(
            ks, rescaled.size, 0.1, "KS distance of rescaled maxima to Gumbel"
        ),
    }
    summary = {}
    counts = _col(rows, "n_exceed").astype(int)
    if counts.size >= stats.DISPERSION_MIN_COUNTS and counts.any():
        tests["poisson_dispersion"] = stats.poisson_dispersion(counts)
    else:
        summary["poisson_dispersion"] = (
            f"not computed: {counts.size} counts with {int(counts.sum())} "
            f"exceedances; the test needs at least {stats.DISPERSION_MIN_COUNTS}"
            " counts, not all zero"
        )
    if rescaled.size >= 100:
        est, se = stats.tail_frequency(rescaled, 0.0)
        summary["tail_frequency_u0"] = {"estimate": est, "stderr": se}
    return tests, summary


def _plot_cdf_vs_gumbel(rows: list[dict]):
    vals = np.sort(np.array([r["rescaled_max"] for r in rows]))
    ecdf = np.arange(1, vals.size + 1) / vals.size
    ref = stats.gumbel_cdf(vals)
    cells = [
        [repr(float(v)), repr(float(e)), repr(float(g))]
        for v, e, g in zip(vals, ecdf, ref)
    ]
    return "cdf_vs_gumbel.csv", ["rescaled_max", "ecdf", "gumbel_cdf"], cells


def _check_localisation(ctx: _Context):
    # event_margins' window Q_{2R_L} (half-width R_L) around x0 = 0 must lie in Q_L
    try:
        field.window(ctx.cfg.L, (0,) * ctx.cfg.d, ctx.scales.R_L)
    except ValueError as exc:
        raise ConfigError(
            f"Q_{{2R_L}} with R_L={ctx.scales.R_L} leaves the box of side L={ctx.cfg.L}"
        ) from exc


def _trial_localisation(ctx: _Context, values: np.ndarray) -> list[dict]:
    """The rows of a block of fields, worked on stacked, one row per field:
    each conditioned on xi(0) = a_L, with its event margins, the top pairs
    on the core Q_{R_L} and their errors.  One block solve finds the pairs
    of every core; only its LAPACK call and Phi(0) run once per field."""
    cfg, sc = ctx.cfg, ctx.scales
    x0 = (0,) * cfg.d
    a_L = sc.a_L
    vals, zeta = field.condition(values, ctx.model, cfg.L, x0, a_L)
    peak = vals[field._at(cfg.L, x0)].reshape(-1)
    margins = field.event_margins(peak, zeta, ctx.model, cfg.L, x0, sc)
    cores = vals[(slice(None),) + field.window(cfg.L, x0, sc.R_L // 2)]
    lam, phi, _, _, _ = spectrum._top_k_block(cores, ctx.pairs)
    eig_err, fun_err = spectrum.approximation_errors(
        ctx.bar,
        lam[:, 0],
        phi[:, 0],
        peak,
        field.phi(zeta, cfg.L, x0, ctx.bar.weights),
        ctx.core_bar_phi,
        sc,
    )
    gap_margin = spectrum.gap_margin(lam[:, 1], peak, sc)
    w_val = cores.reshape(len(cores), -1).max(axis=1)
    lo, hi = scales_mod.interval_ILC(a_L, sc.tau_L, _INTERVAL_C)
    columns = {
        "in_E1": (margins[:, 0] > 0.0).astype(int),
        "in_E2": (margins[:, 1] >= 0.0).astype(int),
        "in_E3": (margins[:, 2] >= 0.0).astype(int),
        "margin_E1": margins[:, 0],
        "margin_E2": margins[:, 1],
        "margin_E3": margins[:, 2],
        "eig_err": eig_err,
        "fun_err": fun_err,
        "gap": lam[:, 0] - lam[:, 1],
        "gap_ok": (gap_margin >= 0.0).astype(int),
        "gap_margin": gap_margin,
        "max_in_interval": ((lo <= w_val) & (w_val <= hi)).astype(int),
    }
    cells = zip(*(col.tolist() for col in columns.values()))
    return [{"value": a_L, **dict(zip(columns, row))} for row in cells]


def _agg_localisation(ctx: _Context, rows: list[dict]) -> tuple[dict, dict]:
    e1, e2, e3, gap_ok = (
        _col(rows, name).astype(bool) for name in ("in_E1", "in_E2", "in_E3", "gap_ok")
    )
    eig, fun = _col(rows, "eig_err"), _col(rows, "fun_err")
    summary = {
        "eig_err": _median_p95(eig),
        "fun_err": _median_p95(fun),
        "event_counts": {
            "E1": int(e1.sum()),
            "E2": int(e2.sum()),
            "E3": int(e3.sum()),
            "full_event": int((e1 & e2 & e3).sum()),
            "n": len(rows),
        },
    }
    sel = e1 & e3
    if sel.any():
        summary["on_event"] = {
            "n": int(sel.sum()),
            "eig_err": _median_p95(eig[sel]),
            "fun_err": _median_p95(fun[sel]),
            "gap_pass_frequency": float(gap_ok[sel].mean()),
        }
    summary["gap_pass_frequency"] = float(gap_ok.mean())
    summary["interval_frequency"] = float(_col(rows, "max_in_interval").mean())
    return {}, summary


def _trial_rank_permutation(ctx: _Context, V: np.ndarray) -> dict:
    res = spectrum.top_k_eigs(V, ctx.pairs)
    lam1 = float(res.eigenvalues[0])
    out = {
        "lambda_1": lam1,
        "rescaled_lambda_1": ctx.scales.a_L
        * (lam1 - ctx.scales.a_Xi - ctx.bar.bar_lambda),
        "gap": res.gap,
    }
    for axis, c in enumerate(res.center_coords(0)):
        out[f"center_{axis}"] = c
    for j, r in enumerate(extremes.site_ranks(V, res.centers[: ctx.k])):
        out[f"ell_{j + 1}"] = r
    return out


def _agg_rank_permutation(ctx: _Context, rows: list[dict]) -> tuple[dict, dict]:
    ell1 = _col(rows, "ell_1").astype(int)
    return {}, {
        "rescaled_lambda_1": _median_p95(_col(rows, "rescaled_lambda_1")),
        "gap_median": float(np.median(_col(rows, "gap"))),
        "p_ell1_eq_1": float(np.mean(ell1 == 1)),
        "ell_1_histogram": {str(v): int(np.sum(ell1 == v)) for v in np.unique(ell1)},
    }


def _plot_rank_histogram(rows: list[dict]):
    ell = np.array([r["ell_1"] for r in rows], dtype=int)
    edges = np.arange(1, max(ell.max(), 5) + 2)
    hist, _ = np.histogram(ell, bins=edges)
    cells = [
        [int(edge), int(c), repr(float(c / ell.size))]
        for edge, c in zip(edges[:-1], hist)
    ]
    return "rank_histogram.csv", ["rank", "count", "frequency"], cells


def _rows_tail_lemma(ctx: _Context) -> list[dict]:
    a_L = ctx.scales.a_L
    Ld = float(ctx.cfg.L) ** ctx.cfg.d
    rows = []
    for tau in (0.0, 0.05, 0.1):
        for s in (-1.0, 0.0, 1.0, 2.0):
            exact, ref = scales_mod.gaussian_sum_tail(a_L, tau, s, Ld)
            restricted = scales_mod.restricted_sum_tail(a_L, tau, s, Ld, _INTERVAL_C)
            rows.append(
                {
                    "tau": tau,
                    "s": s,
                    "exact": exact,
                    "reference": ref,
                    "ratio": exact / ref,
                    "restricted": restricted,
                }
            )
    return rows


def _agg_tail_lemma(ctx: _Context, rows: list[dict]) -> tuple[dict, dict]:
    return {}, {"max_abs_ratio_err": float(np.max(np.abs(_col(rows, "ratio") - 1.0)))}


def _pooled_box_eigs(V: np.ndarray, part: extremes.MesoPartition, k: int):
    """Top-k pooled eigenpairs of the operator restricted to the union of
    cores (block-diagonal over boxes).  Returns a list of
    (lam, core's flat sites, eigenfunction on the core) descending, equal
    values in core order.

    Cores are visited in descending order of their maximum of V, equal
    maxima in core order.  Once k eigenvalues are pooled, theta is the k-th
    largest of them, and a core is skipped when spectrum.certify_below
    proves all its eigenvalues below theta.  theta only grows as cores are
    added, so a skipped core holds none of the top k.  Every other core is
    solved by the same call as when all are; their pairs, pooled in core
    order and sorted stably, give the all-cores top k bit for bit.
    """
    shape = (field.grid_side(part.R_L),) * part.d
    cores = V.ravel()[part.core_sites]
    solved = {}
    top = []  # the k largest pooled eigenvalues, ascending
    for i in np.argsort(-cores.max(axis=1), kind="stable"):
        core = cores[i].reshape(shape)
        if len(top) == k and spectrum.certify_below(core, top[0]):
            continue
        solved[i] = spectrum.top_k_eigs(core, min(k, core.size))
        top = sorted(top + solved[i].eigenvalues.tolist())[-k:]
    pool = [
        (float(lam), part.core_sites[i], phi)
        for i in sorted(solved)
        for lam, phi in zip(solved[i].eigenvalues, solved[i].eigenfunctions)
    ]
    pool.sort(key=lambda item: -item[0])
    return pool[:k]


def _trial_macro_meso(ctx: _Context, V: np.ndarray) -> dict:
    k = ctx.k
    res = spectrum.top_k_eigs(V, ctx.pairs)
    part = ctx.partition
    pool = _pooled_box_eigs(V, part, ctx.pairs)
    a_L, d_L = ctx.scales.a_L, ctx.scales.d_L
    out: dict = {}
    gap_event = len(pool) == ctx.pairs
    if gap_event:
        lam_hat = [p[0] for p in pool]
        out["lambda_hat_kp1"] = lam_hat[k]
        gap_event &= lam_hat[k] >= ctx.scales.a_Xi + ctx.bar.bar_lambda - a_L ** (
            -0.5
        )
        for j in range(k):
            gap_event &= lam_hat[j] - lam_hat[j + 1] > a_L ** (-1.5)
    # are the top k+1 field peaks inside the retained cores?
    peaks = extremes.descending_sites(V.ravel(), ctx.pairs)
    peaks_in = np.isin(peaks, part.core_sites).all()
    out["gap_event"] = int(gap_event)
    out["peaks_in_cores"] = int(peaks_in)
    for j in range(k):
        lam = float(res.eigenvalues[j])
        lam_hat_j, sites, phi_core = pool[j]
        out[f"lambda_{j + 1}"] = lam
        out[f"lambda_hat_{j + 1}"] = lam_hat_j
        out[f"eig_diff_{j + 1}"] = a_L * abs(lam_hat_j - lam)
        phi_hat = np.zeros(V.shape)
        np.put(phi_hat, sites, phi_core)
        out[f"fun_diff_{j + 1}"] = (a_L / d_L) * float(
            spectrum._distance_up_to_sign(res.eigenfunctions[j : j + 1], phi_hat)[0]
        )
    return out


def _agg_macro_meso(ctx: _Context, rows: list[dict]) -> tuple[dict, dict]:
    gap_event = _col(rows, "gap_event").astype(bool)
    peaks_in = _col(rows, "peaks_in_cores").astype(bool)
    sel = gap_event & peaks_in
    summary: dict = {
        "conditioning": {
            "gap_event": int(gap_event.sum()),
            "peaks_in_cores": int(peaks_in.sum()),
            "both": int(sel.sum()),
            "n": len(rows),
        }
    }
    for j in range(1, ctx.k + 1):
        eig = _col(rows, f"eig_diff_{j}")
        fun = _col(rows, f"fun_diff_{j}")
        entry = {
            "eig_median": float(np.median(eig)),
            "fun_median": float(np.median(fun)),
        }
        if sel.any():
            entry["eig_median_on_event"] = float(np.median(eig[sel]))
            entry["fun_median_on_event"] = float(np.median(fun[sel]))
        summary[f"rank_{j}"] = entry
    return {}, summary


def _rows_bar_sweep(ctx: _Context) -> list[dict]:
    r_L = ctx.scales.r_L
    rows = []
    for fam in ({"family": "iid"}, {"family": "cube_indicator", "m": 2}):
        model = cov.CovarianceModel.from_config(fam, ctx.cfg.d)
        d_L = cov.derive_dL(model)
        for ratio in (5, 10, 20, 40):
            a_L = ratio * d_L
            bar = spectrum.solve_bar_problem(model, a_L, r_L)
            err = abs(bar.bar_lambda - bar.expansion_value) / (d_L / a_L)
            rows.append(
                {
                    "family": model.family,
                    "ratio": float(ratio),
                    "bar_lambda": bar.bar_lambda,
                    "expansion": bar.expansion_value,
                    "err_over_scale": err,
                }
            )
    return rows


def _agg_bar_sweep(ctx: _Context, rows: list[dict]) -> tuple[dict, dict]:
    by_family: dict = {}
    for r in rows:
        by_family.setdefault(r["family"], []).append((r["ratio"], r["err_over_scale"]))
    summary = {}
    for fam, pairs in by_family.items():
        pairs.sort()
        errs = [e for _, e in pairs]
        summary[fam] = {
            "errs": errs,
            "monotone_decreasing": bool(all(a > b for a, b in zip(errs, errs[1:]))),
            "final_err": errs[-1],
        }
    return {}, summary


def _plot_bar_sweep_table(rows: list[dict]):
    cells = [
        [r["family"], r["ratio"], repr(float(r["err_over_scale"]))] for r in rows
    ]
    return "bar_sweep_table.csv", ["family", "ratio", "err_over_scale"], cells


@dataclass(frozen=True)
class _Experiment:
    """One experiment.  Exactly one of ``trial`` (the trial body: run on
    each block of fields that _run_trials draws, stacked on a leading axis,
    it returns one row per field, in order, and a row depends only on its
    own field) and ``rows`` (one deterministic table) is set.  A body that
    works on one field at a time is wrapped by _each.  ``solve`` gives the
    sites and pairs of the largest eigensolve a trial body makes, and the
    number of potentials it solves at once (None: no solver); the trial
    reads the pairs as ``ctx.pairs``, the k limit is drawn from them, and
    admit from all three.  ``check``, if set, rejects a config
    with ConfigError before any draw; ``plot``, if set, gives the plot-data
    file that ``report`` writes; ``overrides`` names the keys it reads
    beyond _SCALE_OVERRIDES."""

    aggregate: Callable[[_Context, list[dict]], tuple[dict, dict]]
    trial: Callable[[_Context, np.ndarray], list[dict]] | None = None
    rows: Callable[[_Context], list[dict]] | None = None
    solve: Callable[[_Context], tuple[int, int]] | None = None
    check: Callable[[_Context], None] | None = None
    plot: Callable[[list[dict]], tuple[str, list[str], list[list]]] | None = None
    overrides: frozenset = frozenset()


_EXPERIMENTS: dict[str, _Experiment] = {
    "potential_extremes": _Experiment(
        _agg_potential_extremes,
        trial=_each(_trial_potential_extremes),
        check=_check_partition,
        plot=_plot_cdf_vs_gumbel,
    ),
    "localisation": _Experiment(
        _agg_localisation,
        trial=_trial_localisation,
        # one block solve on the cores of a block of draws
        solve=lambda ctx: (_core_sites(ctx), 2, field.batch_size(ctx.model, ctx.cfg.L)),
        check=_check_localisation,
    ),
    "rank_permutation": _Experiment(
        _agg_rank_permutation,
        trial=_each(_trial_rank_permutation),
        solve=lambda ctx: (_box_sites(ctx), max(ctx.k, 2), 1),  # two for the gap
        plot=_plot_rank_histogram,
        overrides=frozenset({"k"}),
    ),
    "tail_lemma": _Experiment(_agg_tail_lemma, rows=_rows_tail_lemma),
    "macro_meso": _Experiment(
        _agg_macro_meso,
        trial=_each(_trial_macro_meso),
        solve=lambda ctx: (_box_sites(ctx), ctx.k + 1, 1),
        check=_check_partition,
        overrides=frozenset({"k"}),
    ),
    "bar_sweep": _Experiment(
        _agg_bar_sweep,
        rows=_rows_bar_sweep,
        plot=_plot_bar_sweep_table,
    ),
}


# ---------------------------------------------------------------------------
# record persistence


def _format_cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_rows(path: Path, columns: list[str], rows: list[dict]):
    """The records of trials 0, 1, ...: written whole to a file beside
    ``path`` and renamed over it, so a crash leaves the old file whole."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "seed"] + columns)
        for i, row in enumerate(rows):
            writer.writerow(
                [i, row.get("seed", "")] + [_format_cell(row.get(c, "")) for c in columns]
            )
    os.replace(tmp, path)


def _read_prefix(path: Path) -> tuple[list[str], list[dict]]:
    """Columns and rows of the records.

    Rows are kept while they are whole: a line ended by its newline, with
    a cell for every column, whose ``trial`` is its index.  The first row
    that is not, such as a last line cut off by a crash, and every row after
    it are dropped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("records file has no header")
        rows, whole = [], True
        for raw in reader:
            if len(raw) != len(header) or raw[0] != str(len(rows)):
                whole = False
                break
            row = {}
            for key, cell in zip(header, raw):
                try:
                    row[key] = int(cell)
                except ValueError:
                    try:
                        row[key] = float(cell)
                    except ValueError:
                        row[key] = cell
            rows.append(row)
    with open(path, "rb") as fh:
        fh.seek(-1, io.SEEK_END)
        if whole and fh.read(1) != b"\n":  # the last line lost its end
            rows = rows[:-1]
    return header[2:], rows


def _check_resume(manifest_path: Path, config: dict):
    """ConfigError unless the manifest was written by a run of ``config``
    (the manifest's copy of it), up to the number of trials."""
    ours = json.loads(json.dumps(config))
    try:
        manifest = json.loads(manifest_path.read_text())
        theirs = manifest["config"] | {"trials": ours["trials"]}
        version = manifest["schema_version"]
    except FileNotFoundError as exc:
        raise ConfigError(
            f"will not resume records without their manifest: {manifest_path} is missing"
        ) from exc
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise ConfigError(
            f"will not resume the records beside {manifest_path}: unreadable ({exc!r})"
        ) from exc
    changed = sorted(k for k in theirs.keys() | ours.keys() if theirs.get(k) != ours.get(k))
    if version != SCHEMA_VERSION:
        changed.insert(0, "schema_version")
    if changed:
        raise ConfigError(
            f"will not resume the records beside {manifest_path}: the run that "
            f"wrote them had other values of {changed}"
        )


# ---------------------------------------------------------------------------
# driver


def _aggregate(cfg: ExperimentConfig, ctx: _Context, rows: list[dict]) -> dict:
    tests, summary = (
        _EXPERIMENTS[cfg.experiment].aggregate(ctx, rows) if rows else ({}, {})
    )
    return {
        "tests": {k: json.loads(v.to_json()) for k, v in tests.items()},
        "summary": summary,
    }


def _run_trials(
    ctx: _Context, body: Callable[[_Context, np.ndarray], list[dict]], kept: list[dict]
):
    """The kept rows of trials 0 .. len(kept) - 1, then the rows of the
    trials after them up to trials - 1; a failed trial's row says so.
    RuntimeError when more than 5% of these rows, kept or new, failed.

    The new trials run in blocks of field.batch_size seeds, from the first
    new one on.  One field.sample_field call draws a block's fields, and the
    body runs once on them (see _block_rows).  A draw that raises fails
    every trial of its block."""
    cfg = ctx.cfg
    rows, errors = list(kept), []
    size = field.batch_size(ctx.model, cfg.L)
    for start in range(len(kept), cfg.trials, size):
        seeds = trial_seeds(cfg.master_seed, start, min(start + size, cfg.trials))
        for seed, out in zip(seeds, _block_rows(ctx, body, seeds), strict=True):
            if isinstance(out, Exception):
                rows.append({"seed": seed, "failed": 1})
                errors.append(repr(out))
            else:
                rows.append({"seed": seed, **out})
    failed = sum(1 for r in rows if r.get("failed"))
    if failed > 0.05 * cfg.trials:
        raise RuntimeError(
            f"{failed}/{cfg.trials} trials failed (budget 5%; "
            f"{failed - len(errors)} in kept rows): {errors[:3]}"
        )
    return rows


def _block_rows(ctx: _Context, body, seeds: list[int]) -> list:
    """The row of each trial of ``seeds``, in order, from one draw of their
    fields and one call of ``body`` on all of them, or, when the body
    raises, from one call per field.  A trial whose own call raises gets
    the exception in place of its row; every trial does when the draw
    raises.  The block's fields are not held once this returns."""
    try:
        values = field.sample_field(ctx.model, ctx.cfg.L, seeds, _SAMPLER).values
    except Exception as exc:  # per-trial failure budget
        return [exc] * len(seeds)
    try:
        return body(ctx, values)
    except Exception:
        out = []
        for i in range(len(values)):
            try:
                out.append(body(ctx, values[i : i + 1])[0])
            except Exception as exc:  # per-trial failure budget
                out.append(exc)
        return out


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> Path:
    """Execute the experiment; returns the path of the manifest JSON.

    A trial experiment resumes after the whole rows of readable records
    (see _read_prefix); the trial of a dropped partial row runs again, and
    a run of fewer trials keeps the first ``cfg.trials`` rows, which are
    those a fresh run writes, the seeds being counter-based.  Records are
    resumed only beside the manifest of the config that wrote them, up to
    ``trials`` (ConfigError otherwise, also when the manifest is missing).
    The records file is rewritten whole, and not at all when more than 5%
    of the rows it would hold, kept or new, failed.  Trials run in blocks,
    one block after another (see _run_trials); ``workers`` is accepted
    only as 1."""
    if workers != 1:
        raise ValueError(f"trials run in one thread; got workers={workers}")
    ctx = _Context(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / "records.csv"
    manifest_path = out / "manifest.json"
    exp = _EXPERIMENTS[cfg.experiment]
    config = {k: v for k, v in asdict(cfg).items() if k != "out_dir"}

    t0 = time.time()
    if exp.rows is not None:
        all_rows = exp.rows(ctx)
    else:
        kept = []
        if records_path.exists():
            _check_resume(manifest_path, config)
            try:
                kept = _read_prefix(records_path)[1][: cfg.trials]
            except Exception:  # unreadable records: start over
                pass
        all_rows = _run_trials(ctx, exp.trial, kept)

    # Rows read back hold "" for their empty cells, which keep no column: a
    # column that only dropped rows filled goes, as in a fresh run.
    columns = sorted(
        {k for r in all_rows for k, v in r.items() if v != ""} - {"trial", "seed"}
    )
    _write_rows(records_path, columns, all_rows)

    done = [r for r in all_rows if not r.get("failed")]
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "scales": json.loads(ctx.scales.to_json()),
        "tau_L": ctx.scales.tau_L,
        "bar_lambda": ctx.bar.bar_lambda,
        "bar_expansion": ctx.bar.expansion_value,
        "trials_failed": len(all_rows) - len(done),
        "wall_time_s": time.time() - t0,
        **_aggregate(cfg, ctx, done),
    }
    if exp.trial is not None:
        manifest["sampler"] = {"name": _SAMPLER, "version": field.SAMPLER_VERSION}
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return manifest_path


# ---------------------------------------------------------------------------
# reporting


def report(run_dir) -> bool:
    """Aggregate a finished run into tables, plot-data files and a printed
    summary.  Returns overall pass/fail of the run's own test reports."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest in {run_dir}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"schema version mismatch: {manifest.get('schema_version')}"
        )
    cfg = manifest["config"]
    if cfg["trials"] < 1:
        raise ValueError("empty run")
    _, rows = _read_prefix(run_dir / "records.csv")
    exp = cfg["experiment"]

    lines = [f"experiment: {exp}  trials: {len(rows)}"]
    sampler = manifest.get("sampler")
    if sampler:
        lines.append(f"sampler: {sampler['name']} v{sampler['version']}")
    ok = True
    for name, rep in manifest.get("tests", {}).items():
        status = "PASS" if rep["pass"] else "FAIL"
        ok &= rep["pass"]
        lines.append(
            f"{status} {name}: statistic={rep['statistic']:.4g} "
            f"threshold={rep['threshold']:.4g} ({rep['description']})"
        )
    for key, val in manifest.get("summary", {}).items():
        lines.append(f"  {key}: {json.dumps(val)}")

    plot = _EXPERIMENTS[exp].plot
    done = [r for r in rows if not r.get("failed")]
    if plot and done:
        name, header, cells = plot(done)
        with open(run_dir / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(cells)

    print("\n".join(lines))
    return ok
