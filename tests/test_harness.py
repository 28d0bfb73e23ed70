import ast
import csv
import dataclasses
import functools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from andex import cli, covariance as cov, extremes, field, harness, scales, spectrum
from andex.errors import ConfigError, EmbeddingInvalidError, SolverConvergenceError


def make_cfg(tmp_path, **kw):
    base = dict(
        experiment="rank_permutation",
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


@functools.cache
def _field_of(model, L, seed):
    """The field of ``seed`` on Q_L, drawn as a block of one."""
    return field.sample_field(model, L, [seed]).values[0]


def fail_trial(monkeypatch, experiment, index):
    """Make trial ``index`` of ``experiment`` raise: the trial body raises
    on every block that holds its field."""
    entry = harness._EXPERIMENTS[experiment]

    def body(ctx, values):
        (seed,) = field.trial_seeds(ctx.cfg.master_seed, index, index + 1)
        mine = _field_of(ctx.model, ctx.cfg.L, seed)
        if any(np.array_equal(V, mine) for V in values):
            raise RuntimeError(f"trial {index}")
        return entry.trial(ctx, values)

    monkeypatch.setitem(
        harness._EXPERIMENTS, experiment, dataclasses.replace(entry, trial=body)
    )


class TestSeeding:
    def test_deterministic(self):
        assert field.trial_seeds(1, 2, 3) == field.trial_seeds(1, 2, 3)

    def test_trials_distinct(self):
        seeds = set(field.trial_seeds(5, 0, 1000))
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

    @pytest.mark.parametrize(
        "key", ["ratio", "kappa", "value", "families", "R_l", "count_level", "ratios"]
    )
    def test_unknown_override_key(self, tmp_path, key):
        overrides = {"a_L": 6.0, "R_L": 19, "r_L": 9, key: 1}
        with pytest.raises(ConfigError, match="unknown override keys"):
            make_cfg(tmp_path, overrides=overrides)

    # the override keys each experiment reads beyond a_L, R_L and r_L
    EXTRA_KEYS = {
        "potential_extremes": set(),
        "localisation": set(),
        "rank_permutation": {"k"},
        "tail_lemma": set(),
        "macro_meso": {"k"},
        "bar_sweep": set(),
    }
    # count_level and ratios are no longer override keys: every experiment
    # refuses them
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
            {"family": "iid", None: 3},
            {"family": "cube_indicator", "m": 2, 1: 3},
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
            "localisation",
            "rank_permutation",
            "tail_lemma",
            "macro_meso",
            "bar_sweep",
        }
        for name in harness._EXPERIMENTS:
            assert make_cfg(tmp_path, experiment=name).experiment == name
        for name in ("", "Bar_sweep", "rank_permutations", "eigenvalue_stats"):
            with pytest.raises(ConfigError):
                make_cfg(tmp_path, experiment=name)

    def test_readme_lists_exactly_the_table(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        sentence = text[text.index("Experiments:") :].split(".", 1)[0]
        assert re.findall(r"`(\w+)`", sentence) == list(harness._EXPERIMENTS)

    def test_readme_override_table_lists_exactly_the_accepted_keys(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        table = text[text.index("| key | experiments |") :].split("\n\n", 1)[0]
        keys = {
            key
            for line in table.splitlines()[2:]
            for key in re.findall(r"`(\w+)`", line.split("|")[1])
        }
        accepted = harness._SCALE_OVERRIDES.union(
            *(e.overrides for e in harness._EXPERIMENTS.values())
        )
        assert keys == accepted == set(harness._OVERRIDE_RULES)

    def test_each_entry_has_trial_or_rows(self):
        for name, entry in harness._EXPERIMENTS.items():
            assert (entry.trial is None) != (entry.rows is None), name

    @pytest.mark.parametrize(
        "experiment", [n for n, e in harness._EXPERIMENTS.items() if e.trial is not None]
    )
    def test_geometry_fails_before_any_draw_or_not_at_all(
        self, tmp_path, monkeypatch, experiment
    ):
        # super-boxes of side 61 + 7 do not fit twice in L = 64, and
        # Q_{2R_L} leaves the box: an experiment that needs either must
        # refuse the config before its first draw
        draws = []
        sample = field.sample_field

        def counted(*args, **kwargs):
            draws.append(args)
            return sample(*args, **kwargs)

        monkeypatch.setattr(field, "sample_field", counted)
        cfg = make_cfg(
            tmp_path, experiment=experiment, model={"family": "iid"}, L=64,
            trials=2, overrides={"R_L": 61, "r_L": 9},
        )
        try:
            manifest = json.loads(harness.run_experiment(cfg).read_text())
        except ConfigError:
            assert draws == []
        else:
            assert manifest["trials_failed"] == 0

    @pytest.mark.parametrize(
        "experiment,L,k,message",
        [
            # rank_permutation solves max(k, 2) = 12 pairs on the 9 sites of Q_8
            ("rank_permutation", 8, 12, "12 pairs exceed the 9 sites"),
            # macro_meso solves k + 1 = 18 pairs on the 17 sites of Q_16
            ("macro_meso", 16, 17, "18 pairs exceed the 17 sites"),
        ],
    )
    def test_more_pairs_than_sites_fails_before_any_draw(
        self, tmp_path, monkeypatch, experiment, L, k, message
    ):
        draws = []
        monkeypatch.setattr(field, "sample_field", lambda *a, **kw: draws.append(a))
        cfg = make_cfg(
            tmp_path, experiment=experiment, model={"family": "iid"}, L=L, trials=2,
            overrides={"k": k, "R_L": 5, "r_L": 3, "a_L": 3.0},
        )
        with pytest.raises(ConfigError, match=message):
            harness.run_experiment(cfg)
        assert draws == [] and list(tmp_path.iterdir()) == []


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
        # repr round-trip: parsed floats equal the trial body's doubles exactly
        ctx = harness._Context(cfg)
        for r in rows:
            assert isinstance(r["lambda_1"], float)
            values = field.sample_field(ctx.model, cfg.L, [r["seed"]]).values
            (fresh,) = harness._EXPERIMENTS[cfg.experiment].trial(ctx, values)
            assert {c: r[c] for c in fresh} == fresh

    @pytest.mark.parametrize(
        "experiment,d",
        [(n, 1) for n, e in harness._EXPERIMENTS.items() if e.trial is not None]
        + [("localisation", 2)],
    )
    def test_rows_do_not_depend_on_the_block(self, tmp_path, monkeypatch, experiment, d):
        # 7 trials in blocks of 1, of 3 (3 + 3 + 1) and of the default size
        # (one block of 7); in d = 2 the row sums run over a reshaped grid
        geometry = (
            {"model": {"family": "iid"}, "L": 40, "overrides": {"a_L": 6.0, "R_L": 13, "r_L": 5}}
            if d == 2
            else {"overrides": {"a_L": 6.0, "R_L": 9, "r_L": 5}}
        )
        records = []
        for size in (1, 3, field.DRAW_BATCH_MAX):
            monkeypatch.setattr(field, "DRAW_BATCH_MAX", size)
            cfg = make_cfg(
                tmp_path, experiment=experiment, d=d, trials=7,
                out_dir=str(tmp_path / str(size)), **geometry,
            )
            harness.run_experiment(cfg)
            records.append((Path(cfg.out_dir) / "records.csv").read_bytes())
        assert field.batch_size(harness._Context(cfg).model, cfg.L) >= 7
        assert records[0] == records[1] == records[2]
        assert b"failed" not in records[0].splitlines()[0]

    def test_manifest_contents(self, tmp_path):
        cfg = make_cfg(tmp_path)
        path = harness.run_experiment(cfg)
        manifest = json.loads(path.read_text())
        assert manifest["schema_version"] == harness.SCHEMA_VERSION
        assert manifest["config"]["experiment"] == "rank_permutation"
        assert manifest["trials_failed"] == 0
        assert "rescaled_lambda_1" in manifest["summary"]
        assert "p_ell1_eq_1" in manifest["summary"]
        assert manifest["scales"]["a_L"] == 6.0


TRIAL_EXPERIMENTS = [n for n, e in harness._EXPERIMENTS.items() if e.trial is not None]


class TestDrawHook:
    """What a wrapper on field.sample_field sees of a run: no call while the
    _Context is built, then one call per block, before that block's body,
    each returning a FieldSample of the block's trial seeds.  The benchmark
    marks the start of the trials at the first call and reads the sampler
    of every returned sample."""

    def _watch(self, monkeypatch, experiment=None):
        """Log ("context", ctx) once the _Context is built, ("draw", sample)
        per sample_field call and ("body", fields) per trial body; trials
        draw in blocks of three seeds."""
        events, sample_field = [], field.sample_field

        def counted(*args, **kwargs):
            out = sample_field(*args, **kwargs)
            events.append(("draw", out))
            return out

        class Context(harness._Context):
            def __init__(self, cfg):
                super().__init__(cfg)
                events.append(("context", self))

        monkeypatch.setattr(field, "sample_field", counted)
        monkeypatch.setattr(harness, "_Context", Context)
        monkeypatch.setattr(field, "DRAW_BATCH_MAX", 3)
        if experiment is not None:
            entry = harness._EXPERIMENTS[experiment]

            def body(ctx, values):
                events.append(("body", values))
                return entry.trial(ctx, values)

            monkeypatch.setitem(
                harness._EXPERIMENTS, experiment, dataclasses.replace(entry, trial=body)
            )
        return events

    def _cfg(self, tmp_path, experiment, trials, name="run"):
        return make_cfg(
            tmp_path, experiment=experiment, trials=trials,
            out_dir=str(tmp_path / name), overrides={"a_L": 6.0, "R_L": 9, "r_L": 5},
        )

    @pytest.mark.parametrize("experiment", TRIAL_EXPERIMENTS)
    def test_one_draw_per_block_before_its_body(self, tmp_path, monkeypatch, experiment):
        events = self._watch(monkeypatch, experiment)
        cfg = self._cfg(tmp_path, experiment, trials=7)
        manifest = json.loads(harness.run_experiment(cfg).read_text())
        assert manifest["trials_failed"] == 0
        # blocks of 3, 3 and 1 trials: a block's draw, then its body on the
        # draw's fields
        assert [kind for kind, _ in events] == ["context"] + ["draw", "body"] * 3
        draws = [out for kind, out in events if kind == "draw"]
        bodies = [out for kind, out in events if kind == "body"]
        seeds = field.trial_seeds(7, 0, 7)
        assert [d.seeds for d in draws] == [tuple(seeds[0:3]), tuple(seeds[3:6]), (seeds[6],)]
        assert all(isinstance(d, field.FieldSample) and d.sampler == "circulant" for d in draws)
        assert all(values is d.values for values, d in zip(bodies, draws, strict=True))
        assert manifest["sampler"] == {"name": "circulant", "version": field.SAMPLER_VERSION}

    def test_localisation_draws_and_solves_once_per_block(self, tmp_path, monkeypatch):
        # field.sample_field's first call marks the start of the trials;
        # each block's cores are solved by one block solve after the
        # block's draw, set-up's bar problem by one solve of one potential
        # before it, and every pair's residual is within RESIDUAL_TOL
        events = self._watch(monkeypatch, "localisation")
        block_solve = spectrum._top_k_block

        def observed(V, k):
            out = block_solve(V, k)
            events.append(("solve", out[3]))
            return out

        monkeypatch.setattr(spectrum, "_top_k_block", observed)
        cfg = self._cfg(tmp_path, "localisation", trials=7)
        manifest = json.loads(harness.run_experiment(cfg).read_text())
        assert manifest["trials_failed"] == 0
        kinds = [kind for kind, _ in events]
        assert kinds == ["solve", "context"] + ["draw", "body", "solve"] * 3
        residuals = [r for kind, r in events if kind == "solve"]
        assert [r.shape for r in residuals] == [(1, 1), (3, 2), (3, 2), (1, 2)]
        assert all(r.max() <= spectrum.RESIDUAL_TOL for r in residuals)

    @pytest.mark.parametrize("experiment", TRIAL_EXPERIMENTS)
    def test_resume_mid_batch_draws_only_the_new_trials(
        self, tmp_path, monkeypatch, experiment
    ):
        # a fresh 8-trial run draws in blocks 0-2, 3-5, 6-7; the resume
        # keeps trials 0-3 and draws 4-6 and 7
        harness.run_experiment(self._cfg(tmp_path, experiment, trials=4))
        drawn = []
        circulant = field.SAMPLERS["circulant"]

        def counted(model, L, rngs):
            drawn.append(len(rngs))
            return circulant(model, L, rngs)

        monkeypatch.setitem(field.SAMPLERS, "circulant", counted)
        events = self._watch(monkeypatch)
        resumed = self._cfg(tmp_path, experiment, trials=8)
        harness.run_experiment(resumed)
        seeds = field.trial_seeds(7, 4, 8)
        assert [s.seeds for kind, s in events if kind == "draw"] == [tuple(seeds[:3]), (seeds[3],)]
        assert drawn == [3, 1]
        fresh = self._cfg(tmp_path, experiment, trials=8, name="fresh")
        harness.run_experiment(fresh)
        records = [Path(c.out_dir, "records.csv").read_bytes() for c in (resumed, fresh)]
        assert records[0] == records[1]


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

    def test_fewer_trials_keep_the_first_rows(self, tmp_path, monkeypatch):
        # the dropped trial 30 failed, so its "failed" column goes with it
        fail_trial(monkeypatch, "rank_permutation", 30)
        harness.run_experiment(make_cfg(tmp_path, trials=40))
        monkeypatch.undo()
        cfg20 = make_cfg(tmp_path, trials=20)
        harness.run_experiment(cfg20)
        fresh = make_cfg(tmp_path, trials=20, out_dir=str(tmp_path / "fresh"))
        harness.run_experiment(fresh)
        kept = (Path(cfg20.out_dir) / "records.csv").read_bytes()
        assert kept == (tmp_path / "fresh" / "records.csv").read_bytes()

    def test_corrupt_records_restart(self, tmp_path):
        cfg = make_cfg(tmp_path, trials=3)
        out = Path(cfg.out_dir)
        harness.run_experiment(cfg)  # the manifest of this config
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
        fail_trial(monkeypatch, "rank_permutation", 25)
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
        assert after[25]["seed"] == field.trial_seeds(7, 25, 26)[0]
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
        (path.parent / "manifest.json").write_bytes(
            (tmp_path / "fresh" / "manifest.json").read_bytes()
        )
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
        fail_trial(monkeypatch, "rank_permutation", 5)
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

        def bomb(ctx, samples):
            raise RuntimeError("boom")

        entry = dataclasses.replace(harness._EXPERIMENTS["rank_permutation"], trial=bomb)
        monkeypatch.setitem(harness._EXPERIMENTS, "rank_permutation", entry)
        with pytest.raises(RuntimeError):
            harness.run_experiment(cfg)

    def test_a_failure_inside_a_block_fails_only_its_trial(self, tmp_path, monkeypatch):
        # trial 10 of one block of 24: the block solve on its core raises
        # inside the block's body, so the block runs again one trial at a
        # time
        def cfg(name, trials):
            return make_cfg(
                tmp_path, experiment="localisation", trials=trials,
                out_dir=str(tmp_path / name), overrides={"a_L": 6.0, "R_L": 9, "r_L": 5},
            )

        def rows(path):
            with open(path, newline="") as fh:
                return list(csv.DictReader(fh))

        clean = cfg("clean", 24)
        harness.run_experiment(clean)
        ctx = harness._Context(clean)
        assert field.batch_size(ctx.model, clean.L) >= 24
        (seed,) = field.trial_seeds(clean.master_seed, 10, 11)
        vals, _ = field.condition(
            field.sample_field(ctx.model, clean.L, [seed]).values,
            ctx.model, clean.L, (0,), ctx.scales.a_L,
        )
        core = vals[0][field.window(clean.L, (0,), ctx.scales.R_L // 2)]
        block_solve = spectrum._top_k_block

        def failing(V, k):
            if any(np.array_equal(c, core) for c in V):
                raise SolverConvergenceError("trial 10 does not converge")
            return block_solve(V, k)

        monkeypatch.setattr(spectrum, "_top_k_block", failing)
        broken = cfg("broken", 24)
        manifest = json.loads(harness.run_experiment(broken).read_text())
        assert manifest["trials_failed"] == 1
        want = rows(Path(clean.out_dir) / "records.csv")
        got = rows(Path(broken.out_dir) / "records.csv")
        assert len(got) == 24
        assert got[10]["failed"] == "1" and got[10]["seed"] == str(seed)
        assert all(got[10][c] == "" for c in want[10] if c not in ("trial", "seed"))
        for i in set(range(24)) - {10}:
            assert got[i] == {**want[i], "failed": ""}
        # on 11 trials the one failure is over the budget
        message = re.escape(repr(SolverConvergenceError("trial 10 does not converge")))
        with pytest.raises(RuntimeError, match=rf"^1/11 trials failed .*{message}"):
            harness.run_experiment(cfg("over", 11))

    @pytest.mark.parametrize("experiment", TRIAL_EXPERIMENTS)
    def test_a_draw_that_raises_fails_its_block(self, tmp_path, monkeypatch, experiment):
        # blocks of 2 seeds, and the draw of the second block raises: its
        # trials 2 and 3 fail, which 40 trials admit and 7 do not
        def cfg(name, trials):
            return make_cfg(
                tmp_path, experiment=experiment, trials=trials,
                out_dir=str(tmp_path / name), overrides={"a_L": 6.0, "R_L": 9, "r_L": 5},
            )

        def rows(path):
            with open(path, newline="") as fh:
                return list(csv.DictReader(fh))

        monkeypatch.setattr(field, "DRAW_BATCH_MAX", 2)
        clean = cfg("clean", 40)
        harness.run_experiment(clean)
        circulant, blocks = field.SAMPLERS["circulant"], []

        def second_raises(model, L, rngs):
            blocks.append(len(rngs))
            if len(blocks) == 2:
                raise EmbeddingInvalidError("the second block")
            return circulant(model, L, rngs)

        monkeypatch.setitem(field.SAMPLERS, "circulant", second_raises)
        broken = cfg("broken", 40)
        manifest = json.loads(harness.run_experiment(broken).read_text())
        assert manifest["trials_failed"] == 2
        want = rows(Path(clean.out_dir) / "records.csv")
        got = rows(Path(broken.out_dir) / "records.csv")
        assert len(got) == 40
        for i in (2, 3):
            assert got[i]["failed"] == "1" and got[i]["seed"] == want[i]["seed"]
            assert all(got[i][c] == "" for c in want[i] if c not in ("trial", "seed"))
        for i in set(range(40)) - {2, 3}:
            assert got[i] == {**want[i], "failed": ""}
        blocks.clear()
        message = re.escape(repr(EmbeddingInvalidError("the second block")))
        with pytest.raises(RuntimeError, match=rf"^2/7 trials failed .*{message}"):
            harness.run_experiment(cfg("over", 7))

    @pytest.mark.parametrize("first,kept_failed", [(40, 2), (100, 4)])
    def test_budget_counts_the_kept_rows(self, tmp_path, monkeypatch, first, kept_failed):
        # trials 3, 10, 41 and 50 fail: 4 of 60 is over the budget, so a
        # fresh 60-trial run raises.  A run resumed from 40 trials to 60, or
        # cut back from 100 to 60, keeps the same 4 failed rows and must
        # raise the same way, leaving the files of the first run as they were
        for index in (3, 10, 41, 50):
            fail_trial(monkeypatch, "rank_permutation", index)
        fresh = make_cfg(tmp_path, trials=60, out_dir=str(tmp_path / "fresh"))
        with pytest.raises(RuntimeError, match=r"^4/60 trials failed"):
            harness.run_experiment(fresh)
        assert not (tmp_path / "fresh" / "records.csv").exists()
        manifest = harness.run_experiment(make_cfg(tmp_path, trials=first))
        assert json.loads(manifest.read_text())["trials_failed"] == kept_failed
        before = {p.name: p.read_bytes() for p in manifest.parent.iterdir()}
        with pytest.raises(RuntimeError, match=r"^4/60 trials failed"):
            harness.run_experiment(make_cfg(tmp_path, trials=60))
        assert {p.name: p.read_bytes() for p in manifest.parent.iterdir()} == before


# ---------------------------------------------------------------------------
# the run contract as a state machine: one directory, runs of a small config
# with any number of trials and seed, and damage between them

_RANK_PERMUTATION = harness._EXPERIMENTS["rank_permutation"]


def _contract_cfg(out_dir, trials, master_seed):
    return harness.ExperimentConfig(
        experiment="rank_permutation", model={"family": "iid"}, L=64, d=1,
        trials=trials, master_seed=master_seed, out_dir=str(out_dir),
        overrides={"k": 2},
    )


def _without_wall_time(manifest: bytes) -> tuple[bytes, ...]:
    return tuple(line for line in manifest.splitlines() if b'"wall_time_s"' not in line)


@functools.cache
def _fresh_run(trials, master_seed, failed):
    """records.csv, and manifest.json without wall_time_s, of a run into an
    empty directory in which the trials of ``failed`` raise."""
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as out:
        mp.setitem(harness._EXPERIMENTS, "rank_permutation", _RANK_PERMUTATION)
        for index in failed:
            fail_trial(mp, "rank_permutation", index)
        path = harness.run_experiment(_contract_cfg(out, trials, master_seed))
        return (path.parent / "records.csv").read_bytes(), _without_wall_time(
            path.read_bytes()
        )


class RunContract(RuleBasedStateMachine):
    """Runs, cut and junk records, deleted files and failing trials on one
    directory.  The model holds the whole rows of records.csv, the
    failed ones among them and the master seed of manifest.json.  A run
    that returns leaves the files of a fresh run in which the same trials
    failed (with no failure: the fresh run); a ConfigError or a run over the
    5% budget leaves the files as they were."""

    def __init__(self):
        super().__init__()
        self.out = Path(tempfile.mkdtemp())
        self.mp = pytest.MonkeyPatch()
        self.failing = set()  # trials whose body raises now
        self.rows = 0  # whole rows of records.csv (0 when it is gone)
        self.failed = set()  # failed trials, among the whole rows or beyond
        self.seed = None  # master seed of manifest.json, None when it is gone

    def teardown(self):
        self.mp.undo()
        shutil.rmtree(self.out)

    def files(self):
        names = ("records.csv", "manifest.json")
        return {n: (self.out / n).read_bytes() for n in names if (self.out / n).exists()}

    def has_records(self):
        return (self.out / "records.csv").exists()

    @rule(trials=st.integers(1, 40), master_seed=st.sampled_from((0, 1)))
    def run(self, trials, master_seed):
        before = self.files()
        records = "records.csv" in before
        kept = min(self.rows, trials)
        failed = frozenset(
            {i for i in self.failed if i < kept}
            | {i for i in self.failing if kept <= i < trials}
        )
        try:
            harness.run_experiment(_contract_cfg(self.out, trials, master_seed))
        except ConfigError:
            assert records, "ConfigError from a directory without records"
            assert self.seed != master_seed
            assert self.files() == before
            return
        except RuntimeError:
            assert len(failed) > 0.05 * trials
            assert self.files() == before
            return
        assert not records or self.seed == master_seed
        assert len(failed) <= 0.05 * trials
        after = self.files()
        assert (
            after["records.csv"], _without_wall_time(after["manifest.json"])
        ) == _fresh_run(trials, master_seed, failed)
        self.rows, self.failed, self.seed = trials, set(failed), master_seed

    @precondition(has_records)
    @rule(data=st.data())
    def cut(self, data):
        path = self.out / "records.csv"
        content = path.read_bytes()
        content = content[: data.draw(st.integers(0, len(content)), label="at")]
        path.write_bytes(content)
        # a row is whole up to its newline; the first line is the header
        self.rows = min(self.rows, max(content.count(b"\n") - 1, 0))

    # A junk line starts a line of its own.  Appended to a row cut in its
    # last cell, it would end that row with a cell no reader can tell from
    # a whole one.
    @precondition(
        lambda self: self.has_records()
        and (self.out / "records.csv").read_bytes()[-1:] in (b"", b"\n")
    )
    @rule()
    def junk(self):
        with open(self.out / "records.csv", "ab") as fh:
            fh.write(b"junk\n")

    @rule(name=st.sampled_from(("records.csv", "manifest.json")))
    def delete(self, name):
        (self.out / name).unlink(missing_ok=True)
        if name == "records.csv":
            self.rows = 0
        else:
            self.seed = None

    # one failure fits the 5% budget from 20 trials on
    @rule(index=st.integers(0, 19))
    def fail(self, index):
        fail_trial(self.mp, "rank_permutation", index)
        self.failing.add(index)

    @rule()
    def heal(self):
        self.mp.undo()
        self.failing.clear()


# derandomised, and without an example database, so that the suite stays
# deterministic
TestRunContract = RunContract.TestCase
TestRunContract.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=300,
    stateful_step_count=16,
)


class TestMemoryCheck:
    # the iid torus of side 61 in d = 2: 2 MiB holds 35 complex grids of it,
    # so trials draw in blocks of DRAW_BATCH_MAX = 32 seeds; one seed's draw
    # takes six grids, each seed of a block one more, its real part on the
    # 61 x 61 box and 1 KiB of generator, and the real parts numpy's buffer
    # of 8192 doubles
    GRIDS = 61**2 * 16 * 6 + 32 * (61**2 * 16 + 61**2 * 8 + 1024) + 8 * 8192

    def _ctx(self, tmp_path, monkeypatch, budget, experiment, **overrides):
        """The _Context of an iid d = 2 config under a budget of ``budget`` bytes."""
        monkeypatch.setattr(harness, "_MEMORY_BUDGET_BYTES", budget)
        cfg = make_cfg(
            tmp_path, experiment=experiment, model={"family": "iid"}, L=60, d=2,
            overrides={"R_L": 13, "r_L": 5, **overrides},
        )
        return harness._Context(cfg)

    def _needs(self, tmp_path, monkeypatch, need, experiment, **overrides):
        """The _Context of a config admitted under a budget of ``need``
        bytes, after checking that one byte less refuses it."""
        with pytest.raises(ConfigError, match="exceeds budget"):
            self._ctx(tmp_path, monkeypatch, need - 1, experiment, **overrides)
        return self._ctx(tmp_path, monkeypatch, need, experiment, **overrides)

    # numpy's buffers for a strided add over more than 8192 doubles
    BUFFERS = 24 * 8192

    def test_counts_the_arpack_basis(self, tmp_path, monkeypatch):
        # 61 x 61 sites: above the subset-eigh limit, so ARPACK holds
        # ncv = max(2k + 1, 20) = 20 basis vectors of 3721 doubles and their
        # copy, k + 1 = 4 Ritz vectors, 11 work vectors and its DIA matrix,
        # 5 diagonals of 3721 values and an offset each, 8 bytes apiece;
        # and the solve of one potential 4 * 1 + 1 = 5 blocks of its 4
        # pairs, two blocks of its sites and eight arrays of 4 values
        solver = (2 * 20 + 4 + 11) * 61**2 * 8 + 5 * (61**2 + 1) * 8
        solver += (5 * 4 + 2) * 61**2 * 8 + 8 * 4 * 8 + self.BUFFERS
        self._needs(tmp_path, monkeypatch, self.GRIDS + solver, "macro_meso", k=3)

    def test_sizes_the_pairs_the_trial_solves(self, tmp_path, monkeypatch):
        # rank_permutation solves max(k, 2) = 10 pairs: ARPACK holds
        # ncv = 2 * 10 + 1 = 21 basis vectors, not the 25 of 12 pairs, and
        # 5 blocks of the 10 pairs
        solver = (2 * 21 + 10 + 11) * 61**2 * 8 + 5 * (61**2 + 1) * 8
        solver += (5 * 10 + 2) * 61**2 * 8 + 8 * 10 * 8 + self.BUFFERS
        budget = self.GRIDS + solver
        ctx = self._needs(tmp_path, monkeypatch, budget, "rank_permutation", k=10)
        assert ctx.pairs == 10

    def test_counts_the_subset_eigh_matrix(self, tmp_path, monkeypatch):
        # localisation solves on the 13 x 13 core with a dense n x n matrix
        # and LAPACK's copy of it, one core at a time, and holds the 2 pairs
        # of the 32 cores of a block of draws at once, 4 * 32 + 1 blocks of
        # them, with two blocks of each core's sites and eight arrays of 2
        # values
        eigh = 2 * 169**2 * 8 + (2 + 64) * 169 * 8
        block = (4 * 32 + 1) * 2 * 169 * 8 + 32 * (2 * 169 + 8 * 2) * 8
        need = self.GRIDS + eigh + block + self.BUFFERS
        self._needs(tmp_path, monkeypatch, need, "localisation")

    def test_no_solver_no_solver_bytes(self, tmp_path, monkeypatch):
        ctx = self._needs(tmp_path, monkeypatch, self.GRIDS, "potential_extremes")
        assert field.batch_size(ctx.model, 60) == 32

    def test_admit_sums_the_draw_and_the_solve(self, monkeypatch):
        # a block of circulant draws holds GRIDS, a subset eigh on 169 sites
        # its 169 x 169 matrix, LAPACK's copy and its work arrays, 5 blocks
        # of its 2 pairs, two of its sites, eight arrays of 2 values and
        # numpy's buffers of 2 * 169 doubles; a dense draw, or none, holds
        # no torus grid
        iid2 = cov.CovarianceModel("iid", 2, {})
        solve = 2 * 169**2 * 8 + (2 + 64) * 169 * 8 + (5 * 2 + 2) * 169 * 8 + 8 * 2 * 8
        solve += 24 * 2 * 169
        for sampler, need in (
            ("circulant", self.GRIDS + solve),
            ("dense", solve),
            (None, solve),
        ):
            monkeypatch.setattr(harness, "_MEMORY_BUDGET_BYTES", need)
            harness.admit(iid2, 60, sampler, 169, 2)
            monkeypatch.setattr(harness, "_MEMORY_BUDGET_BYTES", need - 1)
            with pytest.raises(ConfigError, match=f"working set {need} bytes exceeds budget"):
                harness.admit(iid2, 60, sampler, 169, 2)

    def test_admit_holds_dense_draws_to_the_box_sites(self):
        # Q_76 holds 77^2 = 5929 sites in d = 2, Q_78 79^2 = 6241
        iid2 = cov.CovarianceModel("iid", 2, {})
        harness.admit(iid2, 76, "dense")
        with pytest.raises(ConfigError, match="limited to 6000 sites, got 6241"):
            harness.admit(iid2, 78, "dense")
        harness.admit(iid2, 78, "circulant")

    def test_counts_the_circulant_torus(self, tmp_path):
        # exponential alpha = 0.1 pads the 65-site box to a torus of side
        # 713 in d = 3: 3.6e8 sites, 5.8 GB per complex grid.  Built only,
        # never drawn.
        cfg = make_cfg(
            tmp_path, experiment="rank_permutation", L=64, d=3,
            model={"family": "exponential", "alpha": 0.1},
            overrides={"a_L": 40.0, "R_L": 15, "r_L": 9},
        )
        assert field.torus_side(cov.CovarianceModel.from_config(cfg.model, 3), 64) == 713
        with pytest.raises(ConfigError, match="exceeds budget"):
            harness._Context(cfg)

    @pytest.mark.parametrize(
        "experiment,L,d", [("tail_lemma", 10**9, 1), ("bar_sweep", 10**5, 2)]
    )
    def test_row_tables_draw_no_grids(self, tmp_path, experiment, L, d):
        # a field grid on the box would take 96 GB and 960 GB
        cfg = harness.ExperimentConfig.from_dict(
            {"experiment": experiment, "L": L, "d": d, "out_dir": str(tmp_path / "run")}
        )
        manifest = json.loads(harness.run_experiment(cfg).read_text())
        assert manifest["config"]["L"] == L and manifest["summary"]

    def test_solver_bytes_per_path(self):
        # one potential's solver; per potential, four blocks of k x n pairs,
        # two of its n sites and eight arrays of k values; one block of pairs
        # more; and numpy's buffers, three of at most 8192 doubles
        def block(n, k, fields=1):
            return 8 * fields * (n * (4 * k + 2) + 8 * k) + 8 * k * n

        buffers = 24 * 8192
        assert spectrum.solver_bytes(10**6, 1, 4) == 8 * 10**6 * 20 + block(10**6, 4) + buffers
        assert spectrum.solver_bytes(169, 2, 4) == (
            16 * 169**2 + 8 * 169 * 68 + block(169, 4) + 24 * 4 * 169
        )
        assert spectrum.solver_bytes(3721, 2, 4) == (
            8 * 3721 * 55 + 8 * 5 * 3722 + block(3721, 4) + buffers
        )
        assert spectrum.solver_bytes(729, 3, 4) == (
            8 * 729 * 55 + 8 * 7 * 730 + block(729, 4) + 24 * 4 * 729
        )
        assert spectrum.solver_bytes(41, 1, 2, 32) == (
            8 * 41 * 16 + block(41, 2, 32) + 24 * 32 * 2 * 41
        )


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

    @pytest.mark.parametrize(
        "model,L,d,overrides",
        [
            ({"family": "cube_indicator", "m": 2}, 83, 1, {"a_L": 6.0, "R_L": 41, "r_L": 9}),
            ({"family": "iid"}, 40, 2, {}),
        ],
    )
    def test_localisation_peak_is_a_L_exactly(self, tmp_path, model, L, d, overrides):
        # condition writes a_L exactly at x0, so every row's xi(x0) is a_L:
        # E1 holds with its whole margin theta = 2d + 1
        cfg = make_cfg(
            tmp_path, experiment="localisation", model=model, L=L, d=d, trials=40,
            overrides=overrides,
        )
        harness.run_experiment(cfg)
        with open(Path(cfg.out_dir) / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        assert {row["in_E1"] for row in rows} == {"1"}
        assert {float(row["margin_E1"]) for row in rows} == {2.0 * d + 1}

    @pytest.mark.parametrize(
        "experiment,model,L,overrides",
        [
            ("localisation", {"family": "cube_indicator", "m": 2}, 83, {"a_L": 6.0, "R_L": 41, "r_L": 9}),
            ("potential_extremes", {"family": "iid"}, 256, {"R_L": 15, "r_L": 9}),
        ],
    )
    def test_trials_build_no_seed_sequence(self, tmp_path, monkeypatch, experiment, model, L, overrides):
        # the trial seeds and the generators of a block come from one
        # field._seed_state pass each; numpy's SeedSequence is not built,
        # neither directly nor through default_rng
        calls = []

        def counted(make):
            def call(*args, **kwargs):
                calls.append(make.__name__)
                return make(*args, **kwargs)

            return call

        seed_sequence = counted(np.random.SeedSequence)
        monkeypatch.setattr(np.random, "SeedSequence", seed_sequence)
        monkeypatch.setattr(np.random.bit_generator, "SeedSequence", seed_sequence)
        monkeypatch.setattr(np.random, "default_rng", counted(np.random.default_rng))
        cfg = make_cfg(
            tmp_path, experiment=experiment, model=model, L=L, trials=40, overrides=overrides
        )
        harness.run_experiment(cfg)
        assert calls == []

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
        # covariance evaluation of the run is on the bar window, and Phi
        # evaluates none
        calls = {"cov": 0, "profile": 0, "phi": 0, "cov_in_phi": 0}
        real_eval = cov.eval_cov_offsets
        real_phi = field.phi

        def eval_cov_offsets(model, offsets):
            calls["cov"] += 1
            calls["profile"] += np.shape(offsets)[:-1] == (83,)
            return real_eval(model, offsets)

        def phi(*args, **kwargs):
            before = calls["cov"]
            out = real_phi(*args, **kwargs)
            calls["phi"] += 1
            calls["cov_in_phi"] += calls["cov"] - before
            return out

        monkeypatch.setattr(cov, "eval_cov_offsets", eval_cov_offsets)
        monkeypatch.setattr(field, "phi", phi)
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
        assert calls["cov"] < 10
        assert calls["phi"] >= 1 and calls["cov_in_phi"] == 0

    @pytest.mark.parametrize("k", [1, 3])
    def test_rank_permutation_rows_are_the_direct_calls(self, tmp_path, k):
        cfg = make_cfg(
            tmp_path,
            model={"family": "iid"},
            L=512,
            trials=5,
            overrides={"k": k, "a_L": 6.0, "R_L": 63, "r_L": 9},
        )
        manifest = json.loads(harness.run_experiment(cfg).read_text())
        cols, rows = harness._read_prefix(Path(cfg.out_dir) / "records.csv")
        ells = [f"ell_{j}" for j in range(1, k + 1)]
        assert cols == sorted(["lambda_1", "rescaled_lambda_1", "gap", "center_0", *ells])
        ctx = harness._Context(cfg)
        s = ctx.scales
        seeds = field.trial_seeds(cfg.master_seed, 0, len(rows))
        for row, seed, V in zip(rows, seeds, field.sample_field(ctx.model, cfg.L, seeds).values):
            res = spectrum.top_k_eigs(V, max(k, 2))
            lam1 = float(res.eigenvalues[0])
            # read back from the CSV bit for bit
            assert row["seed"] == seed
            assert row["lambda_1"] == lam1
            assert row["rescaled_lambda_1"] == s.a_L * (lam1 - s.a_Xi - ctx.bar.bar_lambda)
            assert row["gap"] == res.gap
            assert (row["center_0"],) == res.center_coords(0)
            assert tuple(row[c] for c in ells) == extremes.site_ranks(V, res.centers[:k])
        assert manifest["schema_version"] == harness.SCHEMA_VERSION == 2
        assert manifest["config"]["experiment"] == "rank_permutation"
        assert manifest["trials_failed"] == 0
        assert manifest["scales"]["a_L"] == 6.0
        summary = manifest["summary"]
        assert list(summary) == [
            "rescaled_lambda_1", "gap_median", "p_ell1_eq_1", "ell_1_histogram"
        ]
        ell1 = [r["ell_1"] for r in rows]
        assert summary["p_ell1_eq_1"] == ell1.count(1) / len(rows)
        assert sum(summary["ell_1_histogram"].values()) == len(rows)

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


def _all_cores_pool(V, part, k):
    """Every core solved, pooled in core order and sorted stably."""
    shape = (field.grid_side(part.R_L),) * part.d
    pool = []
    for sites in part.core_sites:
        res = spectrum.top_k_eigs(V.ravel()[sites].reshape(shape), min(k, sites.size))
        pool.extend(
            (float(lam), sites, phi)
            for lam, phi in zip(res.eigenvalues, res.eigenfunctions)
        )
    pool.sort(key=lambda item: -item[0])
    return pool[:k]


@pytest.fixture
def solved_cores(monkeypatch):
    """The core potentials top_k_eigs is called on, in call order."""
    calls = []
    solve = spectrum.top_k_eigs

    def spy(V, k, *args, **kwargs):
        calls.append(np.array(V))
        return solve(V, k, *args, **kwargs)

    monkeypatch.setattr(spectrum, "top_k_eigs", spy)
    return calls


POOL_FAMILIES = [
    {"family": "iid"},
    {"family": "cube_indicator", "m": 2},
    {"family": "exponential", "alpha": 1.0},
]


class TestAggregates:
    # aggregates of synthetic rows, for branches the small runs never reach
    def test_macro_meso_medians_on_the_event(self):
        rows = [
            {"gap_event": g, "peaks_in_cores": p, "eig_diff_1": e, "fun_diff_1": 10 * e}
            for g, p, e in [(1, 1, 1.0), (1, 0, 2.0), (0, 1, 3.0), (1, 1, 5.0), (1, 1, 6.0)]
        ]
        _, summary = harness._agg_macro_meso(SimpleNamespace(k=1), rows)
        assert summary["conditioning"] == {"gap_event": 4, "peaks_in_cores": 4, "both": 3, "n": 5}
        assert summary["rank_1"] == {
            "eig_median": 3.0,
            "fun_median": 30.0,
            "eig_median_on_event": 5.0,
            "fun_median_on_event": 50.0,
        }

    def test_localisation_statistics_on_the_event(self):
        cells = [(1, 1, 1, 1.0), (1, 0, 0, 2.0), (0, 1, 0, 3.0), (1, 1, 0, 5.0), (1, 1, 1, 6.0)]
        rows = [
            {"in_E1": e1, "in_E2": 0, "in_E3": e3, "gap_ok": g, "eig_err": x,
             "fun_err": 10 * x, "max_in_interval": 1}
            for e1, e3, g, x in cells
        ]
        _, summary = harness._agg_localisation(None, rows)
        assert summary["on_event"] == {
            "n": 3,
            "eig_err": {"median": 5.0, "p95": 5.9},
            "fun_err": {"median": 50.0, "p95": 59.0},
            "gap_pass_frequency": 2 / 3,
        }
        for row in rows:
            row["in_E3"] = 0
        _, summary = harness._agg_localisation(None, rows)
        assert "on_event" not in summary
        assert summary["event_counts"]["E3"] == 0

    @pytest.mark.parametrize("n", [99, 100])
    def test_potential_extremes_tail_frequency_from_100_maxima(self, n):
        rescaled = np.linspace(-3.0, 5.0, n)
        rows = [{"rescaled_max": float(x), "n_exceed": 0} for x in rescaled]
        _, summary = harness._agg_potential_extremes(None, rows)
        if n < 100:
            assert "tail_frequency_u0" not in summary
        else:
            p = np.count_nonzero(rescaled > 0) / n
            assert summary["tail_frequency_u0"] == {
                "estimate": p, "stderr": pytest.approx(np.sqrt(p * (1 - p) / n), rel=1e-15)
            }


class TestPooledBoxEigs:
    # (d, L, R_L, fields): cores of 31 sites in d = 1; 169 (9 and 49 cores)
    # and 441 (ARPACK) in d = 2; 343 and 729 (ARPACK) in d = 3
    @pytest.mark.parametrize(
        "d,L,R_L,fields",
        [
            (1, 512, 31, 6),
            (2, 60, 13, 6),
            (2, 121, 13, 3),
            (2, 100, 21, 2),
            (3, 30, 7, 2),
            (3, 24, 9, 1),
        ],
    )
    @pytest.mark.parametrize("model", POOL_FAMILIES, ids=lambda m: m["family"])
    def test_equals_all_cores_bit_for_bit(self, solved_cores, d, L, R_L, fields, model):
        part = extremes.build_partition(L, R_L, d)
        m = cov.CovarianceModel.from_config(model, d)
        for V in field.sample_field(m, L, field.trial_seeds(31, 0, fields)).values:
            want = _all_cores_pool(V, part, 3)
            solved_cores.clear()
            got = harness._pooled_box_eigs(V, part, 3)
            assert len(solved_cores) < part.n_boxes  # some core was skipped
            assert len(got) == len(want) == 3
            for (lam, sites, phi), (lam0, sites0, phi0) in zip(got, want):
                assert lam == lam0
                assert np.array_equal(sites, sites0)
                assert np.array_equal(phi, phi0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_identical_cores_are_both_solved_and_keep_core_order(self, solved_cores, k):
        # cores 2 and 6 of 9 hold the same potential, far above the rest:
        # with k = 1 the second one's top eigenvalue is exactly theta
        part = extremes.build_partition(60, 13, 2)
        V = np.random.default_rng(3).standard_normal((61, 61)) - 3.0
        patch = np.random.default_rng(4).standard_normal(169) + 3.0
        flat = V.reshape(-1)
        flat[part.core_sites[2]] = patch
        flat[part.core_sites[6]] = patch
        got = harness._pooled_box_eigs(V, part, k)
        assert len(solved_cores) == 2
        for core in solved_cores:
            assert np.array_equal(core.ravel(), patch)
        want = _all_cores_pool(V, part, k)
        assert [p[0] for p in got] == [p[0] for p in want]
        assert [p[1][0] for p in got] == [p[1][0] for p in want]
        assert got[0][1][0] == part.core_sites[2][0]
        if k == 2:
            assert got[0][0] == got[1][0]
            assert got[1][1][0] == part.core_sites[6][0]


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
        "trials,a_L,counts",
        [(20, None, "20 counts"), (60, 10.0, "60 counts with 0 exceedances")],
    )
    def test_dispersion_left_out_when_it_cannot_run(
        self, tmp_path, capsys, trials, a_L, counts
    ):
        # fewer than 50 counts, or counts that are all zero: no box maximum
        # of an iid field on 257 sites comes near a_L = 10
        overrides = {"R_L": 15, "r_L": 9} | ({} if a_L is None else {"a_L": a_L})
        cfg = make_cfg(
            tmp_path,
            experiment="potential_extremes",
            model={"family": "iid"},
            L=256,
            trials=trials,
            overrides=overrides,
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

    def test_empty_records_exit_3(self, tmp_path, capsys):
        cfg = make_cfg(tmp_path, trials=2)
        harness.run_experiment(cfg)
        (Path(cfg.out_dir) / "records.csv").write_bytes(b"")
        with pytest.raises(ValueError, match="records file has no header"):
            harness.report(cfg.out_dir)
        assert cli.main(["report", cfg.out_dir]) == cli.EXIT_RUNTIME
        assert "records file has no header" in capsys.readouterr().err


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
        for name in ("warp", "eigenvalue_stats"):
            p.write_text(json.dumps({"experiment": name, "L": 64}))
            assert cli.main(["--config", str(p), "experiment"]) == cli.EXIT_CONFIG

    def test_malformed_config_file_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"experiment": "bar_sweep", "L": ')
        assert cli.main(["--config", str(p), "experiment"]) == cli.EXIT_CONFIG

    def test_config_file_array_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2]")
        assert cli.main(["--config", str(p), "experiment"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_file_exit_code(self, tmp_path, capsys, kind):
        p = tmp_path / "cfg.json"
        if kind == "directory":
            p.mkdir()
        elif kind == "not_utf8":
            p.write_bytes(b'{"experiment": "bar_sweep", "L": 64, "model": "\xff"}')
        assert cli.main(["--config", str(p), "experiment"]) == cli.EXIT_CONFIG
        assert "config error: cannot read config" in capsys.readouterr().err

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
        "macro_meso": {"L": 256, "trials": 3, "overrides": {"k": 2}},
        "potential_extremes": {"L": 256, "trials": 60, "overrides": {"R_L": 15, "r_L": 9}},
        "bar_sweep": {"L": 64, "overrides": {"a_L": 6.0, "R_L": 15, "r_L": 9}},
    }
    UNKNOWN = "unknown override keys "
    BAD_VALUES = [
        ("rank_permutation", "overrides.k=2.5", "overrides.k must be an integer >= 1, got 2.5"),
        # the solver returns at most 32 pairs; macro_meso solves k + 1
        ("rank_permutation", "overrides.k=40", "overrides.k must be <= 32 for rank_permutation, got 40"),
        ("macro_meso", "overrides.k=32", "overrides.k must be <= 31 for macro_meso, got 32"),
        ("rank_permutation", 'overrides.k="two"', "overrides.k must be an integer >= 1"),
        ("rank_permutation", "L=512.7", "L must be an integer >= 2, got 512.7"),
        ("rank_permutation", "trials=true", "trials must be an integer >= 1, got True"),
        ("rank_permutation", "master_seed=-1", "master_seed must be an integer >= 0, got -1"),
        ("rank_permutation", 'overrides.a_L="7"', "overrides.a_L must be a finite number"),
        ("potential_extremes", "overrides.R_L=14", "R_L must be odd, got 14"),
        # super-boxes of side 127 + 11 do not fit twice in L = 256
        ("potential_extremes", "overrides.R_L=127", "partition infeasible"),
        ("macro_meso", "overrides.R_L=127", "partition infeasible"),
        # removed keys are refused whatever their value
        ("potential_extremes", 'overrides.count_level="x"', UNKNOWN + "['count_level']"),
        ("bar_sweep", "overrides.ratios=5", UNKNOWN + "['ratios']"),
        ("bar_sweep", "overrides.ratios=[0]", UNKNOWN + "['ratios']"),
        ("bar_sweep", "overrides.ratios=[-1]", UNKNOWN + "['ratios']"),
        ("bar_sweep", "overrides.ratios=[]", UNKNOWN + "['ratios']"),
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

    def test_records_without_a_manifest_exit_2_unchanged(
        self, tmp_path, monkeypatch, capsys
    ):
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
        run = ["--config", str(p), "--override"]
        assert cli.main(["--seed", "7", *run, "trials=3", "experiment"]) == cli.EXIT_OK
        (out / "manifest.json").unlink()
        before = (out / "records.csv").read_bytes()
        draws = []
        monkeypatch.setattr(field, "sample_field", lambda *a, **kw: draws.append(a))
        capsys.readouterr()
        argv = ["--seed", "99", *run, "trials=6", "experiment"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "manifest.json is missing" in capsys.readouterr().err
        assert draws == [] and not (out / "manifest.json").exists()
        assert (out / "records.csv").read_bytes() == before

    def test_invalid_embedding_exits_3(self, tmp_path, monkeypatch, capsys):
        def invalid(model, M):
            raise EmbeddingInvalidError("forced")

        monkeypatch.setattr(field, "_circulant_amplitude", invalid)
        argv = ["--out", str(tmp_path), "sample-field", "--family", "cube_indicator"]
        assert cli.main(argv + ["--param", "2", "--L", "33"]) == cli.EXIT_RUNTIME
        assert "forced" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sample-field", "--family", "bogus"], "unknown covariance family"),
            (["sample-field", "--family", "iid", "--param", "3"], "iid takes no --param"),
            (["sample-field", "--family", "cube_indicator"], "needs --param"),
            (["sample-field", "--family", "cube_indicator", "--param", "nan"], "m > 0"),
            (["sample-field", "--family", "exponential", "--param", "-1"], "alpha > 0"),
            (["bar-problem", "--family", "iid", "--param", "0", "--a-L", "6"], "no --param"),
        ],
    )
    def test_bad_family_exits_2_before_any_draw(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        calls = []
        monkeypatch.setattr(field, "sample_field", lambda *a, **kw: calls.append(a))
        monkeypatch.setattr(spectrum, "solve_bar_problem", lambda *a: calls.append(a))
        size = ["--L", "33"] if argv[0] == "sample-field" else ["--r-L", "9"]
        assert cli.main(["--out", str(tmp_path), *argv, *size]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert calls == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sample-field", "--L", "0"], "--L must be an integer >= 2, got 0"),
            (["spectrum", "--L", "1"], "--L must be an integer >= 2, got 1"),
            (["spectrum", "--L", "41", "--k", "0"], "--k must be an integer in 1..32, got 0"),
            (["spectrum", "--L", "41", "--k", "40"], "--k must be an integer in 1..32, got 40"),
            (["spectrum", "--L", "2", "--k", "4"], "4 pairs exceed the 3 sites of the solve"),
            (
                ["sample-field", "--sampler", "dense", "--L", "7000"],
                "dense sampler limited to 6000 sites, got 7001",
            ),
            (["bar-problem", "--a-L", "6", "--r-L", "4"], "r_L must be odd and >= 3, got 4"),
            (["bar-problem", "--a-L", "6", "--r-L", "1"], "r_L must be odd and >= 3, got 1"),
            (["bar-problem", "--a-L", "-1", "--r-L", "9"], "a_L must be nonnegative"),
        ],
    )
    def test_out_of_range_size_exits_2_before_any_draw(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        draws = []
        monkeypatch.setattr(field, "sample_field", lambda *a, **kw: draws.append(a))
        monkeypatch.setattr(spectrum, "top_k_eigs", lambda *a: draws.append(a))
        assert cli.main(["--out", str(tmp_path), *argv]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert draws == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            # an 811^3 torus: field.draw_bytes is 6.0e10 bytes
            ["sample-field", "--family", "gaussian_kernel", "--param", "50", "--d", "3", "--L", "5"],
            ["spectrum", "--family", "gaussian_kernel", "--param", "50", "--d", "3", "--L", "5"],
            # the draw (1.2e9 bytes) fits, the 32-pair ARPACK solve (5.8e9) does not
            ["spectrum", "--d", "2", "--L", "3163", "--k", "32"],
        ],
    )
    def test_over_budget_draw_exits_2_before_the_torus(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        calls = []
        monkeypatch.setitem(field.SAMPLERS, "circulant", lambda *a: calls.append(a))
        monkeypatch.setattr(cov, "circulant_spectrum", lambda *a: calls.append(a))
        assert cli.main(["--out", str(tmp_path), *argv]) == cli.EXIT_CONFIG
        assert "exceeds budget" in capsys.readouterr().err
        assert calls == [] and list(tmp_path.iterdir()) == []

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
                "overrides.r_L=11",
                "--out",
                str(tmp_path / "r2"),
                "experiment",
            ]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "r2" / "manifest.json").read_text())
        assert manifest["config"]["overrides"] == {"a_L": 6.0, "R_L": 15, "r_L": 11}
        assert manifest["scales"]["r_L"] == 11

    @pytest.mark.parametrize(
        "argv,code",
        [([], cli.EXIT_USAGE), (["spectrum"], cli.EXIT_USAGE), (["--help"], cli.EXIT_OK)],
    )
    def test_argparse_exits(self, capsys, argv, code):
        # argparse's own exits: no subcommand, a missing required flag, --help
        assert cli.main(argv) == code

    def test_report_check_fails_on_a_failing_test(self, tmp_path, capsys):
        cfg = {
            "experiment": "bar_sweep",
            "L": 64,
            "model": {"family": "iid"},
            "overrides": {"a_L": 6.0, "R_L": 15, "r_L": 9},
            "out_dir": str(tmp_path / "run"),
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(p), "experiment"]) == cli.EXIT_OK
        path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["tests"]["forced"] = {
            "pass": False, "statistic": 1.0, "threshold": 0.5, "description": "forced"
        }
        path.write_text(json.dumps(manifest))
        run = str(tmp_path / "run")
        assert cli.main(["report", run]) == cli.EXIT_OK
        assert cli.main(["report", run, "--check"]) == cli.EXIT_CHECK
        assert "FAIL forced" in capsys.readouterr().out

    def test_sample_field_writes_into_andex_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ANDEX_OUT", str(tmp_path / "env"))
        assert cli.main(["sample-field", "--L", "9"]) == cli.EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert Path(out["file"]) == tmp_path / "env" / "field_iid_L9_s0.bin"
        assert Path(out["file"]).exists()

    def test_override_without_equals_exits_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"experiment": "bar_sweep", "L": 64}))
        argv = ["--config", str(p), "--override", "foo", "experiment"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "override must be key=value" in capsys.readouterr().err

    def test_override_value_that_is_not_json_stays_a_string(self, tmp_path, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(harness, "run_experiment", lambda cfg: seen.append(cfg) or "m")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"experiment": "bar_sweep", "L": 64}))
        target = str(tmp_path / "elsewhere")
        argv = ["--config", str(p), "--override", f"out_dir={target}", "experiment"]
        assert cli.main(argv) == cli.EXIT_OK
        assert seen[0].out_dir == target
        assert capsys.readouterr().out == "m\n"

    def test_module_entry_point(self, capsys):
        # `python -m andex.cli` runs main and exits with its code, as the
        # `andex` script does
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        argv = ["spectrum", "--L", "41", "--k", "2"]
        proc = subprocess.run(
            [sys.executable, "-m", "andex.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert cli.main(argv) == cli.EXIT_OK
        assert proc.stdout == capsys.readouterr().out
