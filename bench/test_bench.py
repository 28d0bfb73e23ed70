"""Tests of the benchmark's own arithmetic and checks; no workload runs here."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from andex import spectrum


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_a_nested_call_tree():
    clock = FakeClock()
    t = spans.Tracer(clock)
    # box_maxima [0, 10] -> order_statistics [2, 9]
    t.enter("extremes.box_maxima")
    clock.now = 2.0
    t.enter("extremes.order_statistics")
    clock.now = 9.0
    t.exit()
    clock.now = 10.0
    t.exit()
    # top_k_eigs [10, 20] -> apply_hamiltonian x3, 1 s each
    t.enter("spectrum.top_k_eigs")
    for start in (11.0, 13.0, 15.0):
        clock.now = start
        t.enter("spectrum.apply_hamiltonian")
        clock.now = start + 1.0
        t.exit()
    clock.now = 20.0
    t.exit()

    assert t.self_s["extremes.box_maxima"] == [3.0]
    assert t.self_s["extremes.order_statistics"] == [7.0]
    assert t.self_s["spectrum.top_k_eigs"] == [7.0]
    assert t.self_s["spectrum.apply_hamiltonian"] == [1.0, 1.0, 1.0]
    assert t.edges[("spectrum.top_k_eigs", "spectrum.apply_hamiltonian")] == 3
    assert t.edges[(None, "extremes.box_maxima")] == 1
    assert t.root_s == 20.0
    assert t.self_total_s() == t.root_s
    assert t.median_ms("spectrum.apply_hamiltonian") == 1000.0
    assert t.total_ms("extremes.") == 10000.0
    assert t.median_ms("stats.ks_statistic") == 0.0


def test_wrapped_call_closes_its_span_when_it_raises():
    clock = FakeClock()
    t = spans.Tracer(clock)

    def inner():
        clock.now += 2.0
        raise ValueError("boom")

    def outer():
        clock.now += 1.0
        try:
            wrapped_inner()
        except ValueError:
            clock.now += 4.0

    wrapped_inner = t.wrap("m.inner", inner)
    t.wrap("m.outer", outer)()
    assert t.self_s == {"m.inner": [2.0], "m.outer": [5.0]}
    assert t.root_s == 7.0


def test_reference_check_rejects_a_perturbed_record():
    reference = run.read_records(run.REFERENCE_DIR / "localisation_1d.csv")
    rows = copy.deepcopy(reference)
    assert run.compare_reference(reference, rows) == []

    rows[3]["eig_err"] = repr(float(rows[3]["eig_err"]) * (1 + 1e-12))
    rows[4]["extra_column"] = "7"
    assert run.compare_reference(reference, rows) == []

    float_changed = copy.deepcopy(reference)
    float_changed[5]["eig_err"] = repr(float(float_changed[5]["eig_err"]) + 1e-3)
    assert len(run.compare_reference(reference, float_changed)) == 1

    flag_changed = copy.deepcopy(reference)
    flag_changed[6]["in_E1"] = str(1 - int(flag_changed[6]["in_E1"]))
    assert len(run.compare_reference(reference, flag_changed)) == 1

    column_lost = [{k: v for k, v in r.items() if k != "gap"} for r in reference]
    assert run.compare_reference(reference, column_lost)
    assert run.compare_reference(reference, rows[:-1])


def test_experiment_checks_hold_at_any_seed():
    rows = run.read_records(run.REFERENCE_DIR / "ranks_1d.csv")
    ok = {"trials_failed": 0, "max_residual": 1e-12, "span_s": 1.0, "wall_s": 1.0001}
    assert run.check_experiment(rows, ok, len(rows)) == []
    assert run.check_experiment(rows, ok, len(rows) + 1)

    nan_rows = copy.deepcopy(rows)
    nan_rows[2]["lambda_1"] = "nan"
    assert run.check_experiment(nan_rows, ok, len(rows))

    for bad in ({"trials_failed": 3}, {"max_residual": 1e-8}, {"span_s": 0.5}):
        assert run.check_experiment(rows, dict(ok, **bad), len(rows))


def _attributes(modules):
    return {(name, attr): value for name, m in modules.items() for attr, value in vars(m).items()}


def test_tracing_restores_every_wrapped_attribute():
    modules = spans.andex_modules()
    before = _attributes(modules)
    patches = spans.Patches()
    spans.Tracer().install(modules, patches, spans.Observed().observers(spectrum))
    during = _attributes(modules)
    assert {k for k in before if during[k] is not before[k]} >= {
        ("field", "sample_field"),
        ("spectrum", "top_k_eigs"),
        ("harness", "run_experiment"),
    }
    patches.restore()
    after = _attributes(modules)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.fixture
def counted_matvecs():
    """Counts apply_hamiltonian calls beneath any tracer installed later."""
    patches = spans.Patches()
    count = [0]
    original = spectrum.apply_hamiltonian

    def counting(V, psi):
        count[0] += 1
        return original(V, psi)

    patches.replace(spectrum, "apply_hamiltonian", counting)
    yield count
    patches.restore()


def test_matvec_count_on_a_fixed_potential_is_exact(counted_matvecs):
    V = np.random.default_rng(5).standard_normal(61) * 3.0
    modules = spans.andex_modules()
    per_call = []
    for _ in range(2):
        counted_matvecs[0] = 0
        tracer, seen, patches = spans.Tracer(), spans.Observed(), spans.Patches()
        tracer.install(modules, patches, seen.observers(spectrum))
        try:
            spectrum.top_k_eigs(V, 2)
        finally:
            patches.restore()
        metrics = spans.layer_metrics(tracer, seen, trials=1, records_bytes=0)
        assert counted_matvecs[0] > 0
        assert metrics["spectrum.top_k_eigs.calls"] == 1
        assert metrics["spectrum.top_k_eigs.matvecs"] == counted_matvecs[0]
        assert 0 < metrics["spectrum.max_residual"] <= spans.RESIDUAL_TOL
        per_call.append(metrics["spectrum.top_k_eigs.matvecs"])
    assert per_call[0] == per_call[1]
    assert set(metrics) == {name for name, _ in spans.PER_LAYER} - {"tracing_overhead"}


def test_benchmark_json_names_what_run_py_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
