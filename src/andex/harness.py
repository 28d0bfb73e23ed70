"""Monte Carlo experiment orchestration: configs, seeding, persistence.

Experiments confront the asymptotic theorems with finite-size simulation.
Each experiment is one entry of ``_EXPERIMENTS``.  Each trial's seed is a
fixed counter-based function of (master_seed, trial_index).  Records are flat
rows in a CSV written once, when the run ends (a crash loses the run's new
rows; streaming writes are an open ROADMAP item); a re-run resumes after the
whole rows already written and runs the trial of a partial row again.
Aggregates land in a manifest JSON.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field as dc_field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import covariance as cov
from . import extremes, field, scales as scales_mod, spectrum, stats
from .errors import ConfigError

__all__ = ["ExperimentConfig", "run_experiment", "report"]

SCHEMA_VERSION = 1

# Refuse runs whose working grids would obviously exhaust memory.
_MEMORY_BUDGET_BYTES = 4_000_000_000

# Override keys every _Context reads; _Experiment.overrides adds the others.
_SCALE_OVERRIDES = frozenset({"a_L", "R_L", "r_L"})

# C of the interval I_{L,C} (localisation) and of the restricted sum tail
# (tail_lemma).
_INTERVAL_C = 3.0


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Counter-based per-trial seed; documented, fixed derivation."""
    ss = np.random.SeedSequence((master_seed, trial_index, 0))
    return int(ss.generate_state(1, np.uint64)[0])


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
        if self.experiment not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.L < 2 or self.d not in (1, 2, 3):
            raise ConfigError("invalid box side or dimension")
        accepted = _SCALE_OVERRIDES | _EXPERIMENTS[self.experiment].overrides
        unknown = set(self.overrides) - accepted
        if unknown:
            raise ConfigError(
                f"unknown override keys {sorted(unknown)}; "
                f"{self.experiment} accepts {sorted(accepted)}"
            )
        try:
            cov.CovarianceModel.from_config(self.model, self.d)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid model {self.model!r}: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = _json_object(text)
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        try:
            return cls(
                experiment=raw["experiment"],
                model=raw.get("model", {"family": "iid"}),
                L=int(raw["L"]),
                d=int(raw.get("d", 1)),
                trials=int(raw.get("trials", 1)),
                master_seed=int(raw.get("master_seed", 0)),
                out_dir=raw.get("out_dir", "runs/latest"),
                overrides=dict(raw.get("overrides", {})),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config field: {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid config value: {exc}") from exc


def _json_object(text: str) -> dict:
    """The JSON object that ``text`` holds; ConfigError for anything else."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    return raw


class _Context:
    """Shared per-run deterministic state (model, scales, bar problem,
    mesoscopic partition)."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        ov = cfg.overrides
        self.model = cov.CovarianceModel.from_config(cfg.model, cfg.d)
        try:
            a_L = float(ov["a_L"]) if "a_L" in ov else None
            R_L = int(ov["R_L"]) if "R_L" in ov else None
            r_L = int(ov["r_L"]) if "r_L" in ov else None
            self.k = int(ov.get("k", 1))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid override value: {exc}") from exc
        # The windows, the bar problem and the scales reject values that do
        # not fit together (r_L even, r_L >= R_L, d_L >= a_L, ...).
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
        except ValueError as exc:
            raise ConfigError(f"invalid scales or windows: {exc}") from exc
        check = _EXPERIMENTS[cfg.experiment].check
        if check is not None:
            check(self)

    @functools.cached_property
    def partition(self) -> extremes.MesoPartition:
        return extremes.build_partition(self.cfg.L, self.scales.R_L, self.cfg.d)

    def check_memory(self):
        """Refuse runs whose field grids and eigensolver working set would
        exceed the memory budget."""
        need = _box_sites(self) * 16 * 6
        solve_sites = _EXPERIMENTS[self.cfg.experiment].solve_sites
        if solve_sites:
            # k + 2 pairs bounds what every trial body asks for
            need += spectrum.solver_bytes(solve_sites(self), self.cfg.d, self.k + 2)
        if need > _MEMORY_BUDGET_BYTES:
            raise ConfigError(
                f"estimated working set {need} bytes exceeds budget"
            )


# ---------------------------------------------------------------------------
# per-experiment code: trial body (ctx, trial_index) -> dict or row table
# (ctx) -> list[dict]; aggregate (ctx, rows) -> (tests, summary); plot data
# rows -> (file name, header, cells).  The table _EXPERIMENTS joins them.


def _box_sites(ctx: _Context) -> int:
    return field.grid_side(ctx.cfg.L) ** ctx.cfg.d


def _core_sites(ctx: _Context) -> int:
    return field.grid_side(ctx.scales.R_L) ** ctx.cfg.d


def _col(rows: list[dict], name: str) -> np.ndarray:
    return np.array([r[name] for r in rows if name in r and r[name] != ""])


def _median_p95(vals: np.ndarray) -> dict:
    return {"median": float(np.median(vals)), "p95": float(np.percentile(vals, 95))}


def _trial_potential_extremes(ctx: _Context, i: int) -> dict:
    cfg = ctx.cfg
    s = field.sample_field(ctx.model, cfg.L, trial_seed(cfg.master_seed, i))
    part = ctx.partition
    maxima = extremes.box_maxima(s, part)
    m = float(np.max(s.values))
    level = float(cfg.overrides.get("count_level", 0.0))
    a_L = ctx.scales.a_L
    n_exceed = sum(1 for (_, val) in maxima if a_L * (val - a_L) > level)
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
        "gumbel_ks": stats.TestReport.make(
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


def _trial_eigenvalue_stats(ctx: _Context, i: int) -> dict:
    cfg = ctx.cfg
    s = field.sample_field(ctx.model, cfg.L, trial_seed(cfg.master_seed, i))
    V = np.array(s.values)
    k = max(ctx.k, 2)
    res = spectrum.top_k_eigs(V, k)
    lam1 = float(res.eigenvalues[0])
    out = {
        "lambda_1": lam1,
        "rescaled_lambda_1": ctx.scales.a_L
        * (lam1 - ctx.scales.a_Xi - ctx.bar.bar_lambda),
        "gap": res.gap,
    }
    for axis, c in enumerate(res.center_coords(0)):
        out[f"center_{axis}"] = c
    return out


def _agg_eigenvalue_stats(ctx: _Context, rows: list[dict]) -> tuple[dict, dict]:
    return {}, {
        "rescaled_lambda_1": _median_p95(_col(rows, "rescaled_lambda_1")),
        "gap_median": float(np.median(_col(rows, "gap"))),
    }


def _check_localisation(ctx: _Context):
    # event_check's window Q_{2R_L} around x0 = 0 must lie in Q_L
    if (2 * ctx.scales.R_L) // 2 > field.box_half(ctx.cfg.L):
        raise ConfigError(
            f"Q_{{2R_L}} with R_L={ctx.scales.R_L} leaves the box of side L={ctx.cfg.L}"
        )


def _trial_localisation(ctx: _Context, i: int) -> dict:
    cfg = ctx.cfg
    x0 = (0,) * cfg.d
    a_L = ctx.scales.a_L
    view = field.peak_conditioned_sample(
        ctx.model, cfg.L, x0, a_L, trial_seed(cfg.master_seed, i)
    )
    s = view.base
    ev = field.event_check(view, ctx.scales)
    h = s.half
    Rh = ctx.scales.R_L // 2
    core = (slice(h - Rh, h + Rh + 1),) * cfg.d
    V = np.array(s.values[core])
    res = spectrum.top_k_eigs(V, 2)
    eig_err, fun_err = spectrum.approximation_error(ctx.bar, res, view, ctx.scales)
    gap_ok, gap_margin = spectrum.spectral_gap_check(res, s.at(x0), ctx.scales)
    w_val = float(np.max(V))
    lo, hi = scales_mod.interval_ILC(a_L, ctx.scales.tau_L, _INTERVAL_C)
    return {
        "value": a_L,
        "in_E1": int(ev.in_E1),
        "in_E2": int(ev.in_E2),
        "in_E3": int(ev.in_E3),
        "margin_E1": ev.margins[0],
        "margin_E2": ev.margins[1],
        "margin_E3": ev.margins[2],
        "eig_err": eig_err,
        "fun_err": fun_err,
        "gap": res.gap,
        "gap_ok": int(gap_ok),
        "gap_margin": gap_margin,
        "max_in_interval": int(lo <= w_val <= hi),
    }


def _agg_localisation(ctx: _Context, rows: list[dict]) -> tuple[dict, dict]:
    e1, e2, e3, gap_ok = (
        _col(rows, name).astype(bool) for name in ("in_E1", "in_E2", "in_E3", "gap_ok")
    )
    summary = {
        "eig_err": _median_p95(_col(rows, "eig_err")),
        "fun_err": _median_p95(_col(rows, "fun_err")),
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
        summary["gap_pass_frequency_on_event"] = float(gap_ok[sel].mean())
    summary["gap_pass_frequency"] = float(gap_ok.mean())
    summary["interval_frequency"] = float(_col(rows, "max_in_interval").mean())
    return {}, summary


def _trial_rank_permutation(ctx: _Context, i: int) -> dict:
    cfg = ctx.cfg
    s = field.sample_field(ctx.model, cfg.L, trial_seed(cfg.master_seed, i))
    V = np.array(s.values)
    k = ctx.k
    res = spectrum.top_k_eigs(V, k)
    ranks = extremes.site_ranks(V, res.centers)
    out = {"lambda_1": float(res.eigenvalues[0])}
    if res.k >= 2:
        out["gap"] = res.gap
    for j, r in enumerate(ranks):
        out[f"ell_{j + 1}"] = int(r)
    return out


def _agg_rank_permutation(ctx: _Context, rows: list[dict]) -> tuple[dict, dict]:
    ell1 = _col(rows, "ell_1").astype(int)
    return {}, {
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
    ratios = _col(rows, "ratio")
    return {}, {"max_abs_ratio_err": float(np.max(np.abs(ratios - 1.0)))}


def _pooled_box_eigs(V: np.ndarray, part: extremes.MesoPartition, k: int):
    """Top-k pooled eigenpairs of the operator restricted to the union of
    cores (block-diagonal over boxes).  Returns a list of
    (lam, box index, eigenfunction-on-core, core slices) descending."""
    pool = []
    for j in range(part.n_boxes):
        sl = part.core_slices(j)
        Vb = np.array(V[sl])
        kk = min(k, Vb.size)
        res = spectrum.top_k_eigs(Vb, kk)
        for t in range(res.k):
            pool.append((float(res.eigenvalues[t]), j, res.eigenfunctions[t], sl))
    pool.sort(key=lambda item: -item[0])
    return pool[:k]


def _trial_macro_meso(ctx: _Context, i: int) -> dict:
    cfg = ctx.cfg
    s = field.sample_field(ctx.model, cfg.L, trial_seed(cfg.master_seed, i))
    V = np.array(s.values)
    k = ctx.k
    res = spectrum.top_k_eigs(V, k + 1)
    part = ctx.partition
    h = s.half
    pool = _pooled_box_eigs(V, part, k + 1)
    a_L, d_L = ctx.scales.a_L, ctx.scales.d_L
    out: dict = {}
    gap_event = len(pool) == k + 1
    if gap_event:
        lam_hat = [p[0] for p in pool]
        out["lambda_hat_kp1"] = lam_hat[k]
        gap_event &= lam_hat[k] >= ctx.scales.a_Xi + ctx.bar.bar_lambda - a_L ** (
            -0.5
        )
        for j in range(k):
            gap_event &= lam_hat[j] - lam_hat[j + 1] > a_L ** (-1.5)
    # are the top k+1 field peaks inside the retained cores?
    mask = part.core_mask(V.shape)
    order = extremes.order_statistics(s, a_L, top=k + 1)
    peaks_in = all(
        mask[tuple(c + h for c in pos)] for pos, _ in order.order
    )
    out["gap_event"] = int(gap_event)
    out["peaks_in_cores"] = int(peaks_in)
    for j in range(k):
        lam = float(res.eigenvalues[j])
        lam_hat_j, _, phi_core, sl = pool[j]
        out[f"lambda_{j + 1}"] = lam
        out[f"lambda_hat_{j + 1}"] = lam_hat_j
        out[f"eig_diff_{j + 1}"] = a_L * abs(lam_hat_j - lam)
        phi_hat = np.zeros(V.shape)
        phi_hat[sl] = phi_core
        phi = res.eigenfunctions[j]
        if float(np.sum(phi * phi_hat)) < 0:
            phi = -phi
        out[f"fun_diff_{j + 1}"] = (a_L / d_L) * math.sqrt(
            float(np.sum((phi_hat - phi) ** 2))
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
    ratios = ctx.cfg.overrides.get("ratios", [5.0, 10.0, 20.0, 40.0])
    r_L = ctx.scales.r_L
    rows = []
    for fam in ({"family": "iid"}, {"family": "cube_indicator", "m": 2}):
        model = cov.CovarianceModel.from_config(fam, ctx.cfg.d)
        d_L = cov.derive_dL(model)
        for ratio in ratios:
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
    """One experiment.  Exactly one of ``trial`` (run once per trial) and
    ``rows`` (one deterministic table) is set.  ``solve_sites`` gives the
    sites of the largest eigensolve for the memory check (None: no solver);
    ``check``, if set, rejects a config with ConfigError before any draw;
    ``plot``, if set, gives the plot-data file that ``report`` writes;
    ``overrides`` names the keys it reads beyond _SCALE_OVERRIDES."""

    aggregate: Callable[[_Context, list[dict]], tuple[dict, dict]]
    trial: Callable[[_Context, int], dict] | None = None
    rows: Callable[[_Context], list[dict]] | None = None
    solve_sites: Callable[[_Context], int] | None = None
    check: Callable[[_Context], None] | None = None
    plot: Callable[[list[dict]], tuple[str, list[str], list[list]]] | None = None
    overrides: frozenset = frozenset()


_EXPERIMENTS: dict[str, _Experiment] = {
    "potential_extremes": _Experiment(
        _agg_potential_extremes,
        trial=_trial_potential_extremes,
        plot=_plot_cdf_vs_gumbel,
        overrides=frozenset({"count_level"}),
    ),
    "eigenvalue_stats": _Experiment(
        _agg_eigenvalue_stats,
        trial=_trial_eigenvalue_stats,
        solve_sites=_box_sites,
        overrides=frozenset({"k"}),
    ),
    "localisation": _Experiment(
        _agg_localisation,
        trial=_trial_localisation,
        solve_sites=_core_sites,
        check=_check_localisation,
    ),
    "rank_permutation": _Experiment(
        _agg_rank_permutation,
        trial=_trial_rank_permutation,
        solve_sites=_box_sites,
        plot=_plot_rank_histogram,
        overrides=frozenset({"k"}),
    ),
    "tail_lemma": _Experiment(_agg_tail_lemma, rows=_rows_tail_lemma),
    "macro_meso": _Experiment(
        _agg_macro_meso,
        trial=_trial_macro_meso,
        solve_sites=_box_sites,
        overrides=frozenset({"k"}),
    ),
    "bar_sweep": _Experiment(
        _agg_bar_sweep,
        rows=_rows_bar_sweep,
        plot=_plot_bar_sweep_table,
        overrides=frozenset({"ratios"}),
    ),
}


# ---------------------------------------------------------------------------
# record persistence


def _format_cell(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_rows(path: Path, columns: list[str], rows: list[dict], start: int):
    """Rows as trials start, start + 1, ...; a new file when start is 0."""
    with open(path, "w" if start == 0 else "a", newline="") as fh:
        writer = csv.writer(fh)
        if start == 0:
            writer.writerow(["trial", "seed"] + columns)
        for off, row in enumerate(rows):
            writer.writerow(
                [start + off, row.get("seed", "")]
                + [_format_cell(row.get(c, "")) for c in columns]
            )
            fh.flush()


def _read_prefix(path: Path) -> tuple[list[str], list[dict], bool]:
    """Columns and rows of the records, and whether every line was whole.

    Rows are kept while they are whole: a line ended by its newline, with
    a cell for every column, whose ``trial`` is its index.  The first row
    that is not, such as a last line cut off by a crash, and every row after
    it are dropped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
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
            rows, whole = rows[:-1], False
    return header[2:], rows, whole


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


def _run_trials(ctx: _Context, body: Callable[[_Context, int], dict], start: int):
    """Rows of trials start .. trials - 1 and the reprs of their failures."""
    cfg = ctx.cfg
    rows, errors = [], []
    for i in range(start, cfg.trials):
        seed = trial_seed(cfg.master_seed, i)
        try:
            rows.append({"seed": seed, **body(ctx, i)})
        except Exception as exc:  # per-trial failure budget
            rows.append({"seed": seed, "failed": 1})
            errors.append(repr(exc))
    if len(errors) > 0.05 * cfg.trials:
        raise RuntimeError(
            f"{len(errors)}/{cfg.trials} trials failed (budget 5%): {errors[:3]}"
        )
    return rows, errors


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> Path:
    """Execute the experiment; returns the path of the manifest JSON.

    A trial experiment resumes after the whole rows of readable records
    (see _read_prefix) if there are at most ``cfg.trials`` of them; the
    trial of a dropped partial row runs again.  When the new rows bring a
    column that the file lacks, or a partial row was dropped, the whole file
    is rewritten.  Trials run one after another; ``workers`` is accepted
    only as 1."""
    if workers != 1:
        raise ValueError(f"trials run in one thread; got workers={workers}")
    ctx = _Context(cfg)
    ctx.check_memory()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / "records.csv"
    manifest_path = out / "manifest.json"
    exp = _EXPERIMENTS[cfg.experiment]

    t0 = time.time()
    header, existing, errors, whole = None, [], [], True
    if exp.rows is not None:
        rows = exp.rows(ctx)
    else:
        if records_path.exists():
            try:
                header, existing, whole = _read_prefix(records_path)
            except Exception:  # unreadable records: start over
                pass
        if len(existing) > cfg.trials:
            existing = []
        rows, errors = _run_trials(ctx, exp.trial, len(existing))

    start = len(existing)
    all_rows = existing + rows
    columns = sorted({k for r in all_rows for k in r} - {"trial", "seed"})
    if columns != header or not whole:
        start, rows = 0, all_rows
    _write_rows(records_path, columns, rows, start)

    agg = _aggregate(cfg, ctx, [r for r in all_rows if not r.get("failed")])
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": {k: v for k, v in asdict(cfg).items() if k != "out_dir"},
        "scales": json.loads(ctx.scales.to_json()),
        "tau_L": ctx.scales.tau_L,
        "bar_lambda": ctx.bar.bar_lambda,
        "bar_expansion": ctx.bar.expansion_value,
        "trials_failed": len(errors),
        "wall_time_s": time.time() - t0,
        **agg,
    }
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
    _, rows, _ = _read_prefix(run_dir / "records.csv")
    exp = cfg["experiment"]

    lines = [f"experiment: {exp}  trials: {len(rows)}"]
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
