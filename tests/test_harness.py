import ast
import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from andex import cli, covariance as cov, field, harness, scales, spectrum
from andex.errors import ConfigError


def make_cfg(tmp_path, **kw):
    base = dict(
        experiment="eigenvalue_stats",
        model={"family": "cube_indicator", "m": 2},
        L=41,
        d=1,
        trials=6,
        master_seed=7,
        out_dir=str(tmp_path / "run"),
        overrides={"a_L": 6.0, "R_L": 19, "r_L": 9},
    )
    base.update(kw)
    return harness.ExperimentConfig(**base)


def fail_trial(monkeypatch, experiment, index):
    """Make trial ``index`` of ``experiment`` raise."""
    entry = harness._EXPERIMENTS[experiment]

    def body(ctx, i):
        if i == index:
            raise RuntimeError(f"trial {index}")
        return entry.trial(ctx, i)

    monkeypatch.setitem(
        harness._EXPERIMENTS, experiment, dataclasses.replace(entry, trial=body)
    )


class TestSeeding:
    def test_deterministic(self):
        assert harness.trial_seed(1, 2) == harness.trial_seed(1, 2)

    def test_trials_distinct(self):
        seeds = {harness.trial_seed(5, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestConfig:
    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError):
            make_cfg(tmp_path, experiment="warp_drive")

    def test_bad_trials(self, tmp_path):
        with pytest.raises(ConfigError):
            make_cfg(tmp_path, trials=0)

    def test_bad_dimension(self, tmp_path):
        with pytest.raises(ConfigError):
            make_cfg(tmp_path, d=5)

    def test_from_dict_applies_the_defaults(self):
        raw = {
            "experiment": "bar_sweep",
            "L": 64,
            "overrides": {"r_L": 9, "a_L": 6.0, "R_L": 15},
        }
        cfg = harness.ExperimentConfig.from_dict(raw)
        assert (cfg.experiment, cfg.L, cfg.overrides) == ("bar_sweep", 64, raw["overrides"])
        assert (cfg.model, cfg.d, cfg.trials, cfg.master_seed, cfg.out_dir) == (
            {"family": "iid"}, 1, 1, 0, "runs/latest"
        )

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            cli._json_object("{not json")

    def test_missing_field(self):
        with pytest.raises(ConfigError, match=r"missing config keys \['L'\]"):
            harness.ExperimentConfig.from_dict({"experiment": "tail_lemma"})

    def test_json_array(self):
        with pytest.raises(ConfigError, match="must be a JSON object, got list"):
            cli._json_object("[1, 2]")

    @pytest.mark.parametrize("key", ["ratio", "kappa", "value", "families", "R_l"])
    def test_unknown_override_key(self, tmp_path, key):
        overrides = {"a_L": 6.0, "R_L": 19, "r_L": 9, key: 1}
        with pytest.raises(ConfigError, match="unknown override keys"):
            make_cfg(tmp_path, overrides=overrides)

    # the override keys each experiment reads beyond a_L, R_L and r_L
    EXTRA_KEYS = {
        "potential_extremes": {"count_level"},
        "eigenvalue_stats": {"k"},
        "localisation": set(),
        "rank_permutation": {"k"},
        "tail_lemma": set(),
        "macro_meso": {"k"},
        "bar_sweep": {"ratios"},
    }
    OVERRIDE_VALUES = {
        "a_L": 6.0, "R_L": 19, "r_L": 9, "k": 2, "count_level": 0.5, "ratios": [5.0, 10.0]
    }

    @pytest.mark.parametrize("key", sorted(OVERRIDE_VALUES))
    @pytest.mark.parametrize("experiment", sorted(EXTRA_KEYS))
    def test_experiment_takes_only_the_keys_it_reads(
        self, tmp_path, monkeypatch, capsys, experiment, key
    ):
        overrides = {key: self.OVERRIDE_VALUES[key]}
        if key in {"a_L", "R_L", "r_L"} | self.EXTRA_KEYS[experiment]:
            assert make_cfg(tmp_path, experiment=experiment, overrides=overrides)
            return
        draws = []
        monkeypatch.setattr(field, "sample_field", lambda *a, **kw: draws.append(a))
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps({"experiment": experiment, "L": 41, "overrides": overrides})
        )
        out = tmp_path / "run"
        argv = ["--out", str(out), "--config", str(p), "experiment"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert f"unknown override keys ['{key}']" in capsys.readouterr().err
        assert draws == [] and not out.exists()

    def test_unknown_top_level_key(self):
        raw = {"experiment": "tail_lemma", "L": 64, "trails": 5}
        with pytest.raises(ConfigError, match="trails"):
            harness.ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "model",
        [
            {},
            {"family": "warp"},
            {"family": "cube_indicator"},
            {"family": "cube_indicator", "m": -1},
            {"family": "iid", "m": 3},
            {"family": "cube_indicator", "m": True},
            {"family": "exponential", "alpha": float("nan")},
        ],
    )
    def test_malformed_model(self, tmp_path, model):
        with pytest.raises(ConfigError, match="invalid model"):
            make_cfg(tmp_path, model=model)

    def test_R_L_without_r_L_gets_the_default_r_L(self, tmp_path):
        cfg = make_cfg(tmp_path, model={"family": "iid"}, L=256, overrides={"R_L": 15})
        s = harness._Context(cfg).scales
        _, r_default = scales.suggest_windows(s.a_L, s.d_L, 256)
        assert (s.R_L, s.r_L) == (15, r_default)

    def test_every_benchmark_workload_is_a_valid_config(self, tmp_path):
        # bench/run.py is read, not imported: WORKLOADS is a literal
        tree = ast.parse((Path(__file__).parents[1] / "bench" / "run.py").read_text())
        workloads = next(
            ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and getattr(node.targets[0], "id", None) == "WORKLOADS"
        )
        assert len(workloads) == 4
        for name, workload in workloads.items():
            harness.ExperimentConfig(
                **workload["config"], master_seed=0, out_dir=str(tmp_path / name)
            )


class TestExperimentTable:
    def test_config_accepts_exactly_the_table(self, tmp_path):
        assert set(harness._EXPERIMENTS) == {
            "potential_extremes",
            "eigenvalue_stats",
            "localisation",
            "rank_permutation",
            "tail_lemma",
            "macro_meso",
            "bar_sweep",
        }
        for name in harness._EXPERIMENTS:
            assert make_cfg(tmp_path, experiment=name).experiment == name
        for name in ("", "Bar_sweep", "rank_permutations"):
            with pytest.raises(ConfigError):
                make_cfg(tmp_path, experiment=name)

    def test_each_entry_has_trial_or_rows(self):
        for name, entry in harness._EXPERIMENTS.items():
            assert (entry.trial is None) != (entry.rows is None), name


class TestRunDeterminism:
    def test_same_seed_same_records(self, tmp_path):
        cfg_a = make_cfg(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = make_cfg(tmp_path, out_dir=str(tmp_path / "b"))
        harness.run_experiment(cfg_a)
        harness.run_experiment(cfg_b)
        ra = (Path(cfg_a.out_dir) / "records.csv").read_text()
        rb = (Path(cfg_b.out_dir) / "records.csv").read_text()
        assert ra == rb

    def test_workers_other_than_one_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            harness.run_experiment(make_cfg(tmp_path), workers=2)

    def test_manifest_does_not_depend_on_out_dir(self, tmp_path):
        def manifest_lines(name):
            path = harness.run_experiment(make_cfg(tmp_path, out_dir=str(tmp_path / name)))
            return [ln for ln in path.read_text().splitlines() if "wall_time_s" not in ln]

        assert manifest_lines("a") == manifest_lines("b")

    def test_roundtrip_bitwise(self, tmp_path):
        cfg = make_cfg(tmp_path)
        harness.run_experiment(cfg)
        cols, rows = harness._read_prefix(Path(cfg.out_dir) / "records.csv")
        assert "rescaled_lambda_1" in cols
        # repr round-trip: parsed floats equal the original doubles exactly
        for r in rows:
            assert isinstance(r["lambda_1"], float)

    def test_manifest_contents(self, tmp_path):
        cfg = make_cfg(tmp_path)
        path = harness.run_experiment(cfg)
        manifest = json.loads(path.read_text())
        assert manifest["schema_version"] == harness.SCHEMA_VERSION
        assert manifest["config"]["experiment"] == "eigenvalue_stats"
        assert manifest["trials_failed"] == 0
        assert "rescaled_lambda_1" in manifest["summary"]
        assert manifest["scales"]["a_L"] == 6.0


class TestResume:
    def test_partial_run_resumes(self, tmp_path):
        cfg = make_cfg(tmp_path, trials=3)
        harness.run_experiment(cfg)
        partial = (Path(cfg.out_dir) / "records.csv").read_text()
        cfg6 = make_cfg(tmp_path, trials=6)
        harness.run_experiment(cfg6)
        full = (Path(cfg6.out_dir) / "records.csv").read_text()
        # the first three rows are untouched
        assert full.startswith(partial)
        fresh_dir = tmp_path / "fresh"
        cfg_fresh = make_cfg(tmp_path, trials=6, out_dir=str(fresh_dir))
        harness.run_experiment(cfg_fresh)
        assert (fresh_dir / "records.csv").read_text() == full

    def test_oversized_existing_restarts(self, tmp_path):
        cfg = make_cfg(tmp_path, trials=6)
        harness.run_experiment(cfg)
        cfg3 = make_cfg(tmp_path, trials=3)
        harness.run_experiment(cfg3)
        _, rows = harness._read_prefix(Path(cfg3.out_dir) / "records.csv")
        assert len(rows) == 3

    def test_corrupt_records_restart(self, tmp_path):
        cfg = make_cfg(tmp_path, trials=3)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True)
        (out / "records.csv").write_text("\x00garbage")
        harness.run_experiment(cfg)
        _, rows = harness._read_prefix(out / "records.csv")
        assert len(rows) == 3

    def test_failed_trial_on_resume_rewrites_the_header(self, tmp_path, monkeypatch):
        # 20 clean trials, then a resume to 40 in which trial 25 fails: the
        # new "failed" column must not shift the appended cells
        cfg20 = make_cfg(tmp_path, trials=20)
        harness.run_experiment(cfg20)
        path = Path(cfg20.out_dir) / "records.csv"
        _, before = harness._read_prefix(path)
        fail_trial(monkeypatch, "eigenvalue_stats", 25)
        manifest = harness.run_experiment(make_cfg(tmp_path, trials=40))
        assert json.loads(manifest.read_text())["trials_failed"] == 1
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
        assert len(lines) == 41
        assert all(len(line) == len(lines[0]) for line in lines)
        cols, after = harness._read_prefix(path)
        assert "failed" in cols
        for old, new in zip(before, after[:20]):
            assert new == {**old, "failed": ""}
        assert after[25]["failed"] == 1
        assert after[25]["seed"] == harness.trial_seed(7, 25)
        assert all(r["failed"] == "" for i, r in enumerate(after) if i != 25)
        # the same file as a run that was never interrupted
        fresh = make_cfg(tmp_path, trials=40, out_dir=str(tmp_path / "fresh"))
        harness.run_experiment(fresh)
        assert (tmp_path / "fresh" / "records.csv").read_text() == path.read_text()
        assert harness.report(cfg20.out_dir)


    @pytest.mark.parametrize("cut", ["mid_row", "in_last_cell", "skipped_trial"])
    def test_cut_records_resume_to_the_uninterrupted_file(self, tmp_path, cut):
        # a crash leaves trials 0-2 whole and trial 3 partial; the resume
        # drops the partial row, runs trials 3-5 and rewrites the file
        fresh = make_cfg(tmp_path, trials=6, out_dir=str(tmp_path / "fresh"))
        harness.run_experiment(fresh)
        full = (tmp_path / "fresh" / "records.csv").read_bytes()
        lines = full.splitlines(keepends=True)
        head, row3 = b"".join(lines[:4]), lines[4]
        partial = {
            "mid_row": row3[: len(row3) // 2],
            # every cell is there, but the last one lost its tail
            "in_last_cell": row3.rstrip(b"\r\n")[:-1],
            # a whole line whose trial is 4, not 3
            "skipped_trial": lines[5],
        }[cut]
        cfg = make_cfg(tmp_path, trials=6)
        path = Path(cfg.out_dir) / "records.csv"
        path.parent.mkdir(parents=True)
        path.write_bytes(head + partial)
        cols, rows = harness._read_prefix(path)
        assert [r["trial"] for r in rows] == [0, 1, 2]
        harness.run_experiment(cfg)
        assert path.read_bytes() == full

    def _run_files(self, out):
        names = ("records.csv", "manifest.json")
        return {name: (out / name).read_bytes() for name in names}

    @pytest.mark.parametrize(
        "change",
        [
            {"model": {"family": "iid"}},
            {"master_seed": 99},
            {"overrides": {"a_L": 6.0, "R_L": 19, "r_L": 9, "k": 3}},
        ],
        ids=["model", "master_seed", "override"],
    )
    def test_resume_under_another_config_is_refused(self, tmp_path, monkeypatch, change):
        cfg = make_cfg(tmp_path, trials=3)
        harness.run_experiment(cfg)
        before = self._run_files(Path(cfg.out_dir))
        draws = []
        monkeypatch.setattr(field, "sample_field", lambda *a, **kw: draws.append(a))
        with pytest.raises(ConfigError, match=f"will not resume.*{next(iter(change))}"):
            harness.run_experiment(make_cfg(tmp_path, trials=6, **change))
        assert draws == []
        assert self._run_files(Path(cfg.out_dir)) == before

    @pytest.mark.parametrize(
        "manifest",
        [
            "{not json",
            '{"schema_version": 1}',
            lambda m: json.dumps({**m, "schema_version": 999}),
        ],
        ids=["unreadable", "no_config", "other_schema"],
    )
    def test_resume_beside_a_foreign_manifest_is_refused(self, tmp_path, manifest):
        cfg = make_cfg(tmp_path, trials=3)
        path = harness.run_experiment(cfg)
        if callable(manifest):
            manifest = manifest(json.loads(path.read_text()))
        path.write_text(manifest)
        before = self._run_files(path.parent)
        with pytest.raises(ConfigError, match="will not resume"):
            harness.run_experiment(make_cfg(tmp_path, trials=6))
        assert self._run_files(path.parent) == before

    def test_trials_failed_counts_every_failed_row(self, tmp_path, monkeypatch):
        fail_trial(monkeypatch, "eigenvalue_stats", 5)
        manifest = harness.run_experiment(make_cfg(tmp_path, trials=20))
        assert json.loads(manifest.read_text())["trials_failed"] == 1
        monkeypatch.undo()
        manifest = harness.run_experiment(make_cfg(tmp_path, trials=40))
        assert json.loads(manifest.read_text())["trials_failed"] == 1
        _, rows = harness._read_prefix(manifest.parent / "records.csv")
        assert [r["trial"] for r in rows if r["failed"] == 1] == [5]

    def test_crash_while_writing_leaves_the_old_records(self, tmp_path, monkeypatch):
        cfg = make_cfg(tmp_path, trials=3)
        harness.run_experiment(cfg)
        path = Path(cfg.out_dir) / "records.csv"
        before = path.read_bytes()
        cells = []

        def format_cell(v):
            cells.append(v)
            if len(cells) == 10:
                raise OSError("disk full")
            return str(v)

        monkeypatch.setattr(harness, "_format_cell", format_cell)
        with pytest.raises(OSError, match="disk full"):
            harness.run_experiment(make_cfg(tmp_path, trials=6))
        assert path.read_bytes() == before


class TestFailureBudget:
    def test_budget_exceeded_raises(self, tmp_path, monkeypatch):
        cfg = make_cfg(tmp_path, trials=5)

        def bomb(ctx, i):
            raise RuntimeError("boom")

        entry = dataclasses.replace(harness._EXPERIMENTS["eigenvalue_stats"], trial=bomb)
        monkeypatch.setitem(harness._EXPERIMENTS, "eigenvalue_stats", entry)
        with pytest.raises(RuntimeError):
            harness.run_experiment(cfg)


class TestMemoryCheck:
    def _ctx(self, tmp_path, experiment, **overrides):
        cfg = make_cfg(
            tmp_path, experiment=experiment, model={"family": "iid"}, L=60, d=2,
            overrides={"R_L": 13, "r_L": 5, **overrides},
        )
        return harness._Context(cfg)

    def test_counts_the_arpack_basis(self, tmp_path, monkeypatch):
        # 61 x 61 sites: above the subset-eigh limit, so ARPACK holds
        # ncv = max(2k + 1, 20) = 20 basis vectors of 3721 doubles, the
        # filter 3 work vectors, and its CSR matrix 5 entries a row of 16
        # bytes each and 3722 row pointers of 8
        ctx = self._ctx(tmp_path, "macro_meso", k=3)
        grids = 61**2 * 16 * 6
        solver = (20 + 3) * 61**2 * 8 + 5 * 61**2 * 16 + (61**2 + 1) * 8
        monkeypatch.setattr(harness, "_MEMORY_BUDGET_BYTES", grids + solver)
        ctx.check_memory()
        monkeypatch.setattr(harness, "_MEMORY_BUDGET_BYTES", grids + solver - 1)
        with pytest.raises(ConfigError):
            ctx.check_memory()

    def test_counts_the_subset_eigh_matrix(self, tmp_path, monkeypatch):
        # localisation solves on the 13 x 13 core with a dense n x n matrix
        ctx = self._ctx(tmp_path, "localisation")
        grids = 61**2 * 16 * 6
        monkeypatch.setattr(harness, "_MEMORY_BUDGET_BYTES", grids + 169**2 * 8 - 1)
        with pytest.raises(ConfigError):
            ctx.check_memory()

    def test_no_solver_no_solver_bytes(self, tmp_path, monkeypatch):
        ctx = self._ctx(tmp_path, "potential_extremes")
        monkeypatch.setattr(harness, "_MEMORY_BUDGET_BYTES", 61**2 * 16 * 6)
        ctx.check_memory()

    def test_solver_bytes_per_path(self):
        assert spectrum.solver_bytes(10**6, 1, 4) == 8 * 10**6 * 8
        assert spectrum.solver_bytes(169, 2, 4) == 8 * 169**2
        assert spectrum.solver_bytes(3721, 2, 4) == 8 * 3721 * 23 + 16 * 5 * 3721 + 8 * 3722
        assert spectrum.solver_bytes(729, 3, 4) == 8 * 729 * 23 + 16 * 7 * 729 + 8 * 730


class TestRowExperiments:
    def test_tail_lemma(self, tmp_path):
        cfg = make_cfg(
            tmp_path,
            experiment="tail_lemma",
            L=4096,
            overrides={"a_L": 6.0, "R_L": 511, "r_L": 9},
        )
        path = harness.run_experiment(cfg)
        manifest = json.loads(path.read_text())
        assert "max_abs_ratio_err" in manifest["summary"]
        _, rows = harness._read_prefix(Path(cfg.out_dir) / "records.csv")
        assert len(rows) == 12  # 3 taus x 4 shifts
        for r in rows:
            assert r["restricted"] <= r["exact"] + 1e-12

    def test_bar_sweep_monotone(self, tmp_path):
        cfg = make_cfg(
            tmp_path,
            experiment="bar_sweep",
            L=64,
            overrides={"a_L": 6.0, "R_L": 15, "r_L": 9},
        )
        path = harness.run_experiment(cfg)
        manifest = json.loads(path.read_text())
        for fam, entry in manifest["summary"].items():
            assert entry["monotone_decreasing"]


class TestTrialExperiments:
    def test_potential_extremes(self, tmp_path):
        cfg = make_cfg(
            tmp_path,
            experiment="potential_extremes",
            model={"family": "iid"},
            L=256,
            trials=60,
            overrides={"R_L": 15, "r_L": 9},
        )
        path = harness.run_experiment(cfg)
        manifest = json.loads(path.read_text())
        assert "gumbel_ks" in manifest["tests"]
        assert "poisson_dispersion" in manifest["tests"]

    def test_localisation(self, tmp_path):
        cfg = make_cfg(
            tmp_path,
            experiment="localisation",
            L=83,
            trials=4,
            overrides={"a_L": 6.0, "R_L": 41, "r_L": 9},
        )
        path = harness.run_experiment(cfg)
        manifest = json.loads(path.read_text())
        assert manifest["summary"]["event_counts"]["n"] == 4
        assert "eig_err" in manifest["summary"]

    def test_localisation_window_wider_than_box(self, tmp_path, monkeypatch):
        # Q_{2 R_L} needs half-width 41 but L = 60 gives 30: the config is
        # rejected at set-up, before any field is drawn
        draws = []
        monkeypatch.setattr(field, "sample_field", lambda *a, **kw: draws.append(a))
        cfg = make_cfg(
            tmp_path,
            experiment="localisation",
            L=60,
            trials=10,
            overrides={"a_L": 6.0, "R_L": 41, "r_L": 9},
        )
        with pytest.raises(ConfigError, match=r"Q_\{2R_L\}.*R_L=41.*L=60"):
            harness.run_experiment(cfg)
        assert draws == []
        assert not (tmp_path / "run").exists()
        raw = {k: v for k, v in dataclasses.asdict(cfg).items() if k != "out_dir"}
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(raw))
        out = ["--out", str(tmp_path / "cli"), "--config", str(p), "experiment"]
        assert cli.main(out) == cli.EXIT_CONFIG
        assert draws == []

    def test_localisation_evaluates_the_profile_once_per_run(self, tmp_path, monkeypatch):
        # the profile v(. - x0) covers the whole 83-site grid; every other
        # covariance evaluation of the run is on the bar window
        calls = {"cov": 0, "profile": 0, "cov_in_phi": 0}
        real_eval = cov.eval_cov_offsets
        real_phi_at = field.phi_at

        def eval_cov_offsets(model, offsets):
            calls["cov"] += 1
            calls["profile"] += np.shape(offsets)[:-1] == (83,)
            return real_eval(model, offsets)

        def phi_at(*args, **kwargs):
            before = calls["cov"]
            out = real_phi_at(*args, **kwargs)
            calls["cov_in_phi"] += calls["cov"] - before
            return out

        monkeypatch.setattr(cov, "eval_cov_offsets", eval_cov_offsets)
        monkeypatch.setattr(field, "phi_at", phi_at)
        field._profile_grid.cache_clear()
        field._event_windows.cache_clear()
        cfg = make_cfg(
            tmp_path,
            experiment="localisation",
            L=83,
            trials=10,
            overrides={"a_L": 6.0, "R_L": 41, "r_L": 9},
        )
        manifest = json.loads(harness.run_experiment(cfg).read_text())
        assert manifest["trials_failed"] == 0
        assert calls["profile"] == 1
        assert calls["cov"] < 10 and calls["cov_in_phi"] == 0

    def test_rank_permutation(self, tmp_path):
        cfg = make_cfg(
            tmp_path,
            experiment="rank_permutation",
            model={"family": "iid"},
            L=512,
            trials=5,
            overrides={"k": 2, "R_L": 63, "r_L": 9},
        )
        path = harness.run_experiment(cfg)
        manifest = json.loads(path.read_text())
        assert "p_ell1_eq_1" in manifest["summary"]
        _, rows = harness._read_prefix(Path(cfg.out_dir) / "records.csv")
        for r in rows:
            assert r["ell_1"] >= 1 and r["ell_2"] >= 1
            assert r["ell_1"] != r["ell_2"]

    def test_macro_meso(self, tmp_path):
        cfg = make_cfg(
            tmp_path,
            experiment="macro_meso",
            model={"family": "iid"},
            L=60,
            trials=3,
            overrides={"k": 2, "R_L": 13, "r_L": 5, "a_L": 6.0},
        )
        path = harness.run_experiment(cfg)
        manifest = json.loads(path.read_text())
        assert "conditioning" in manifest["summary"]
        assert "rank_1" in manifest["summary"]


class TestReport:
    def test_report_prints_and_passes(self, tmp_path, capsys):
        cfg = make_cfg(
            tmp_path,
            experiment="potential_extremes",
            model={"family": "iid"},
            L=256,
            trials=60,
            overrides={"R_L": 15, "r_L": 9},
        )
        harness.run_experiment(cfg)
        harness.report(cfg.out_dir)
        text = capsys.readouterr().out
        assert "gumbel_ks" in text
        assert (Path(cfg.out_dir) / "cdf_vs_gumbel.csv").exists()

    def test_rank_histogram_and_bar_sweep_table(self, tmp_path, capsys):
        ranks = make_cfg(
            tmp_path,
            experiment="rank_permutation",
            model={"family": "iid"},
            L=512,
            trials=5,
            overrides={"k": 2, "R_L": 63, "r_L": 9},
            out_dir=str(tmp_path / "ranks"),
        )
        harness.run_experiment(ranks)
        harness.report(ranks.out_dir)
        _, rows = harness._read_prefix(tmp_path / "ranks" / "records.csv")
        with open(tmp_path / "ranks" / "rank_histogram.csv", newline="") as fh:
            hist = list(csv.reader(fh))
        assert hist[0] == ["rank", "count", "frequency"]
        # one bin per rank 1 .. max(largest ell_1, 5)
        assert len(hist) - 1 == max(max(r["ell_1"] for r in rows), 5)
        assert sum(int(line[1]) for line in hist[1:]) == 5

        sweep = make_cfg(
            tmp_path,
            experiment="bar_sweep",
            L=64,
            overrides={"a_L": 6.0, "R_L": 15, "r_L": 9},
            out_dir=str(tmp_path / "sweep"),
        )
        harness.run_experiment(sweep)
        harness.report(sweep.out_dir)
        with open(tmp_path / "sweep" / "bar_sweep_table.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["family", "ratio", "err_over_scale"]
        assert len(table) - 1 == 8  # 2 default families x 4 default ratios

    def test_plot_data_skips_failed_trials(self, tmp_path, monkeypatch, capsys):
        fail_trial(monkeypatch, "potential_extremes", 3)
        cfg = make_cfg(
            tmp_path,
            experiment="potential_extremes",
            model={"family": "iid"},
            L=256,
            trials=60,
            overrides={"R_L": 15, "r_L": 9},
        )
        harness.run_experiment(cfg)
        harness.report(cfg.out_dir)
        with open(Path(cfg.out_dir) / "cdf_vs_gumbel.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + 59

    @pytest.mark.parametrize(
        "trials,level,counts",
        [(20, 0.0, "20 counts"), (60, 100.0, "60 counts with 0 exceedances")],
    )
    def test_dispersion_left_out_when_it_cannot_run(
        self, tmp_path, capsys, trials, level, counts
    ):
        # fewer than 50 counts, or counts that are all zero
        cfg = make_cfg(
            tmp_path,
            experiment="potential_extremes",
            model={"family": "iid"},
            L=256,
            trials=trials,
            overrides={"R_L": 15, "r_L": 9, "count_level": level},
        )
        manifest = json.loads(harness.run_experiment(cfg).read_text())
        assert list(manifest["tests"]) == ["gumbel_ks"]
        assert manifest["summary"]["poisson_dispersion"].startswith(
            f"not computed: {counts}"
        )
        harness.report(cfg.out_dir)
        assert "poisson_dispersion" in capsys.readouterr().out
        assert (Path(cfg.out_dir) / "cdf_vs_gumbel.csv").exists()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            harness.report(tmp_path)

    def test_schema_mismatch(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"schema_version": 999})
        )
        with pytest.raises(ValueError):
            harness.report(tmp_path)


class TestCLI:
    def test_sample_field(self, tmp_path, capsys):
        rc = cli.main(
            [
                "--seed",
                "3",
                "--out",
                str(tmp_path),
                "sample-field",
                "--family",
                "cube_indicator",
                "--param",
                "2",
                "--L",
                "33",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert Path(out["file"]).exists()

    def test_spectrum_command(self, capsys):
        rc = cli.main(["spectrum", "--L", "41", "--k", "2"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["eigenvalues"]) == 2

    def test_bar_problem_command(self, capsys):
        rc = cli.main(
            [
                "bar-problem",
                "--family",
                "cube_indicator",
                "--param",
                "2",
                "--a-L",
                "6.0",
                "--r-L",
                "9",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["bar_lambda"] < 0

    def test_ppp_reference_command(self, capsys):
        rc = cli.main(["--seed", "1", "ppp-reference", "--b", "0.0"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ell"][:3] == [1, 2, 3]

    def test_experiment_and_report(self, tmp_path, capsys):
        cfg = {
            "experiment": "bar_sweep",
            "L": 64,
            "d": 1,
            "model": {"family": "iid"},
            "overrides": {"a_L": 6.0, "R_L": 15, "r_L": 9},
            "out_dir": str(tmp_path / "run"),
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        rc = cli.main(["--config", str(p), "experiment"])
        assert rc == 0
        capsys.readouterr()
        rc = cli.main(["report", str(tmp_path / "run"), "--check"])
        assert rc == 0

    def test_missing_config_usage_error(self, capsys):
        assert cli.main(["experiment"]) == cli.EXIT_USAGE

    def test_config_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"experiment": "warp", "L": 64}))
        assert cli.main(["--config", str(p), "experiment"]) == cli.EXIT_CONFIG

    def test_malformed_config_file_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"experiment": "bar_sweep", "L": ')
        assert cli.main(["--config", str(p), "experiment"]) == cli.EXIT_CONFIG

    def test_config_file_array_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2]")
        assert cli.main(["--config", str(p), "experiment"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "override",
        [
            "trails=5",
            "overrides.ratio=[10.0]",
            "model.m=2",  # iid takes no parameter
            "model={}",
            'model.family="warp"',
            'model={"family": "cube_indicator"}',
            'trials="x"',
            "L.x=3",
            "overrides=5",
        ],
    )
    def test_bad_config_exits_2_and_writes_nothing(self, tmp_path, override):
        out = tmp_path / "run"
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps(
                {
                    "experiment": "bar_sweep",
                    "L": 64,
                    "model": {"family": "iid"},
                    "overrides": {"a_L": 6.0, "R_L": 15, "r_L": 9},
                    "out_dir": str(out),
                }
            )
        )
        argv = ["--config", str(p), "--override", override, "experiment"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "override,message",
        [
            ("overrides.R_L=0", "window ordering"),
            ("overrides.a_L=0.5", "requires d_L < a_L"),
            ("overrides.r_L=4", "r_L must be odd"),
        ],
    )
    def test_bad_override_value_exits_2_and_writes_nothing(
        self, tmp_path, capsys, override, message
    ):
        # each value passes the config's checks but not the scales or
        # windows that the run builds from them
        out = tmp_path / "run"
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps(
                {
                    "experiment": "rank_permutation",
                    "L": 512,
                    "model": {"family": "iid"},
                    "overrides": {"k": 2},
                    "out_dir": str(out),
                }
            )
        )
        argv = ["--config", str(p), "--override", override, "experiment"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    BAD_VALUE_BASES = {
        "rank_permutation": {"L": 512, "trials": 5, "overrides": {"k": 2}},
        "potential_extremes": {"L": 256, "trials": 60, "overrides": {"R_L": 15, "r_L": 9}},
        "bar_sweep": {"L": 64, "overrides": {"a_L": 6.0, "R_L": 15, "r_L": 9}},
    }
    RATIOS = "overrides.ratios must be a non-empty list of positive numbers, got "
    BAD_VALUES = [
        ("rank_permutation", "overrides.k=2.5", "overrides.k must be an integer >= 1, got 2.5"),
        ("rank_permutation", 'overrides.k="two"', "overrides.k must be an integer >= 1"),
        ("rank_permutation", "L=512.7", "L must be an integer >= 2, got 512.7"),
        ("rank_permutation", "trials=true", "trials must be an integer >= 1, got True"),
        ("rank_permutation", "master_seed=-1", "master_seed must be an integer >= 0, got -1"),
        ("rank_permutation", 'overrides.a_L="7"', "overrides.a_L must be a finite number"),
        ("potential_extremes", 'overrides.count_level="x"', "overrides.count_level must be"),
        ("bar_sweep", "overrides.ratios=5", RATIOS + "5"),
        ("bar_sweep", "overrides.ratios=[0]", RATIOS + "[0]"),
        ("bar_sweep", "overrides.ratios=[-1]", RATIOS + "[-1]"),
        ("bar_sweep", "overrides.ratios=[]", RATIOS + "[]"),
    ]

    @pytest.mark.parametrize(
        "experiment,override,message", BAD_VALUES, ids=[case[1] for case in BAD_VALUES]
    )
    def test_bad_value_exits_2_before_any_draw(
        self, tmp_path, monkeypatch, capsys, experiment, override, message
    ):
        draws = []
        monkeypatch.setattr(field, "sample_field", lambda *a, **kw: draws.append(a))
        out = tmp_path / "run"
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps(
                {
                    "experiment": experiment,
                    "model": {"family": "iid"},
                    "out_dir": str(out),
                    **self.BAD_VALUE_BASES[experiment],
                }
            )
        )
        argv = ["--config", str(p), "--override", override, "experiment"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert draws == [] and not out.exists()

    def test_runtime_error_exit_code(self, tmp_path):
        assert cli.main(["report", str(tmp_path / "nope")]) == cli.EXIT_RUNTIME

    def test_override_dot_path(self, tmp_path, capsys):
        cfg = {
            "experiment": "bar_sweep",
            "L": 64,
            "model": {"family": "iid"},
            "overrides": {"a_L": 6.0, "R_L": 15, "r_L": 9},
            "out_dir": str(tmp_path / "r1"),
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        rc = cli.main(
            [
                "--config",
                str(p),
                "--override",
                "overrides.ratios=[10.0, 20.0]",
                "--out",
                str(tmp_path / "r2"),
                "experiment",
            ]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "r2" / "manifest.json").read_text())
        assert manifest["config"]["overrides"]["ratios"] == [10.0, 20.0]
