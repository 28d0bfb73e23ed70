"""Run one andex experiment in this fresh process and print its measurements.

    python3 bench/child.py <spawn_monotonic> <spec_json>
    python3 bench/child.py env

``spec_json`` holds ``config`` (the ``harness.ExperimentConfig`` fields)
and ``trace`` (bool).  The experiment goes through the public API:
``ExperimentConfig`` -> ``run_experiment(workers=1)`` -> ``report``.
``env`` prints the library versions and BLAS threads instead.  The last
line of stdout is one JSON object.  ``andex`` must be importable
(``run.py`` puts the repository's ``src`` on ``PYTHONPATH``).

The first call of ``field.sample_field`` marks the start of the first
trial: every trial of the benchmark's workloads begins with a draw, and
set-up (scales, bar problem, ``tau_L``, memory check) draws none.

Times are taken both as CPU seconds of this process and as wall-clock
seconds.  BLAS runs single-threaded, so the two agree on an idle core.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import time


# The import probe: the third-party modules andex imports.  Importing them
# first leaves the set-up total unchanged, and their CPU time, which runs no
# andex code, measures how fast the host is right now.  Were andex to stop
# importing one of them, set-up would not show the saving.
PROBE_MODULES = ("numpy", "scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.special")


def main():
    spawn = float(sys.argv[1])
    spec = json.loads(sys.argv[2])
    probe_start = time.process_time()
    for name in PROBE_MODULES:
        importlib.import_module(name)
    probe_cpu_s = time.process_time() - probe_start
    import spans

    modules = spans.andex_modules()
    field, harness, spectrum = modules["field"], modules["harness"], modules["spectrum"]
    patches = spans.Patches()
    seen = spans.Observed()
    first = []
    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install(modules, patches, seen.observers(spectrum))
    else:
        for name in spans.solver_names(spectrum):
            patches.replace(spectrum, name, _observing(getattr(spectrum, name), seen.residual))
    patches.replace(field, "sample_field", _marking(field.sample_field, first))

    cfg = harness.ExperimentConfig(**spec["config"])
    run_start = time.perf_counter()
    manifest_path = harness.run_experiment(cfg, workers=1)
    returned = time.monotonic()
    returned_cpu = time.process_time()
    run_s = time.perf_counter() - run_start
    report_start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        harness.report(manifest_path.parent)
    report_s = time.perf_counter() - report_start
    patches.restore()

    manifest = json.loads(manifest_path.read_text())
    out = {
        "setup_s": first[0] - spawn,
        "setup_cpu_s": first[1],
        "trial_s": returned - first[0],
        "trial_cpu_s": returned_cpu - first[1],
        "trials_failed": int(manifest["trials_failed"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_cpu_s": probe_cpu_s,
        "max_residual": seen.max_residual,
        "wall_s": run_s + report_s,
    }
    if tracer is not None:
        records_bytes = (manifest_path.parent / "records.csv").stat().st_size
        out["span_s"] = tracer.self_total_s()
        out["layers"] = spans.layer_metrics(tracer, seen, cfg.trials, records_bytes)
    print(json.dumps(out))


def environment():
    """Versions and BLAS of the imported numpy/scipy, as this process sees them."""
    import ctypes
    import platform

    import andex
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                threads[path.rsplit("/", 1)[-1]] = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "andex": andex.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def _marking(fn, first):
    def marked(*args, **kwargs):
        if not first:
            first.append(time.monotonic())
            first.append(time.process_time())
        return fn(*args, **kwargs)

    return marked


def _observing(fn, observe):
    def observed(*args, **kwargs):
        out = fn(*args, **kwargs)
        observe(args, out)
        return out

    return observed


if __name__ == "__main__":
    if sys.argv[1:] == ["env"]:
        print(json.dumps(environment()))
    else:
        main()
