"""Spans around andex's public functions, installed from outside the package.

A span opens when a wrapped function is called and closes when it returns
or raises.  Each span knows its parent (the span open when it started), so
a layer's self time is its duration minus the durations of its children,
and the self times of all spans add up to the durations of the root spans.

The wrappers replace module attributes.  Calls that look a function up
through its module at call time (``field.sample_field(...)``, or a bare
``sample_field(...)`` inside ``field``) pass through the span; methods and
private helpers are charged to the span that called them.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from collections import Counter, defaultdict

# Modules whose public functions get spans, in the order they are layered.
MODULES = ("scales", "covariance", "field", "spectrum", "extremes", "stats", "harness")

# Solvers are compared at this residual tolerance: the default ``tol`` of
# the iterative solver.  Every returned eigenpair must satisfy it.
RESIDUAL_TOL = 1e-10

# (name, unit) of every per-layer metric, in report order.  ``<fn>.ms`` is
# the median self time per call, ``<module>.ms`` the summed self time per
# experiment, ``.calls`` the calls per experiment.  A layer a workload does
# not call reports 0.
PER_LAYER = (
    ("field.sample_field.ms", "ms"),
    ("field.sample_field.calls", "count"),
    ("field.dense_share", "share"),
    ("field.peak_conditioned_sample.ms", "ms"),
    ("field.event_check.ms", "ms"),
    ("field.fluctuation_view.ms", "ms"),
    ("field.phi_at.ms", "ms"),
    ("field.compute_tau.ms", "ms"),
    ("covariance.eval_cov_offsets.ms", "ms"),
    ("covariance.eval_cov_offsets.calls", "count"),
    ("covariance.circulant_spectrum.calls", "count"),
    ("covariance.circulant_miss_ratio", "share"),
    ("scales.ms", "ms"),
    ("spectrum.solve_bar_problem.ms", "ms"),
    ("spectrum.top_k_eigs.ms", "ms"),
    ("spectrum.top_k_eigs.calls", "count"),
    ("spectrum.top_k_eigs.matvecs", "count"),
    ("spectrum.dense_eigs.ms", "ms"),
    ("spectrum.dense_eigs.calls", "count"),
    ("spectrum.dense_eigs.sites", "count"),
    ("spectrum.apply_hamiltonian.ms", "ms"),
    ("spectrum.approximation_error.ms", "ms"),
    ("spectrum.max_residual", "l2"),
    ("extremes.order_statistics.ms", "ms"),
    ("extremes.order_statistics.calls", "count"),
    ("extremes.order_statistics.kept_ratio", "share"),
    ("extremes.box_maxima.ms", "ms"),
    ("extremes.build_partition.ms", "ms"),
    ("extremes.rank_permutation.ms", "ms"),
    ("stats.ms", "ms"),
    ("harness.run_experiment.self_ms", "ms"),
    ("harness.records_bytes", "bytes"),
    ("harness.report.ms", "ms"),
    ("tracing_overhead", "share"),
)


class Patches:
    """Module and class attributes replaced for one experiment, restorable."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def andex_modules():
    """name -> imported andex module, for every name in MODULES."""
    import andex

    return {name: getattr(andex, name) for name in MODULES}


def public_functions(module):
    """(name, function) for each function in the module's ``__all__``."""
    return [(n, getattr(module, n)) for n in module.__all__ if inspect.isfunction(getattr(module, n))]


def solver_names(spectrum):
    """Public spectrum functions that return a SpectralResult."""
    return [
        n
        for n, fn in public_functions(spectrum)
        if "SpectralResult" in str(fn.__annotations__.get("return", ""))
    ]


class Tracer:
    """In-memory spans with parent links; one thread, properly nested."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack = []  # open spans: [name, start, summed child durations]
        self.self_s = defaultdict(list)  # span name -> self seconds per call
        self.edges = Counter()  # (parent name or None, name) -> calls
        self.root_s = 0.0  # summed durations of spans without a parent

    def enter(self, name):
        self.edges[(self._stack[-1][0] if self._stack else None, name)] += 1
        self._stack.append([name, self._clock(), 0.0])

    def exit(self):
        name, start, children = self._stack.pop()
        duration = self._clock() - start
        self.self_s[name].append(duration - children)
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def install(self, modules, patches, observers=None):
        """Wrap every public function of ``modules`` (name -> module)."""
        observers = observers or {}
        for short, module in modules.items():
            for attr, fn in public_functions(module):
                name = f"{short}.{attr}"
                patches.replace(module, attr, self.wrap(name, fn, observers.get(name)))

    def calls(self, name):
        return len(self.self_s.get(name, ()))

    def median_ms(self, name):
        times = self.self_s.get(name)
        return 1e3 * statistics.median(times) if times else 0.0

    def total_ms(self, prefix):
        return 1e3 * sum(sum(t) for n, t in self.self_s.items() if n.startswith(prefix))

    def self_total_s(self):
        return sum(sum(t) for t in self.self_s.values())


class Observed:
    """Counts read from the arguments and results of traced calls."""

    def __init__(self):
        self.samples = 0
        self.dense_samples = 0
        self.sorted_sites = 0
        self.kept_entries = 0
        self.dense_sites = []
        self.max_residual = 0.0

    def sample(self, args, out):
        self.samples += 1
        self.dense_samples += out.sampler == "dense"

    def order(self, args, out):
        self.sorted_sites += args[0].values.size
        self.kept_entries += len(out.order)

    def dense_eigs(self, args, out):
        self.dense_sites.append(args[0].size)
        self.residual(args, out)

    def residual(self, args, out):
        if len(out.residuals):
            self.max_residual = max(self.max_residual, float(max(out.residuals)))

    def observers(self, spectrum):
        obs = {f"spectrum.{n}": self.residual for n in solver_names(spectrum)}
        obs.update(
            {
                "field.sample_field": self.sample,
                "extremes.order_statistics": self.order,
                "spectrum.dense_eigs": self.dense_eigs,
            }
        )
        return obs


def layer_metrics(tracer, seen, trials, records_bytes):
    """Per-layer metrics of one traced experiment (all but tracing_overhead)."""
    t = tracer
    top_calls = t.calls("spectrum.top_k_eigs")
    matvecs = t.edges[("spectrum.top_k_eigs", "spectrum.apply_hamiltonian")]
    return {
        "field.sample_field.ms": t.median_ms("field.sample_field"),
        "field.sample_field.calls": t.calls("field.sample_field"),
        "field.dense_share": seen.dense_samples / seen.samples if seen.samples else 0.0,
        "field.peak_conditioned_sample.ms": t.median_ms("field.peak_conditioned_sample"),
        "field.event_check.ms": t.median_ms("field.event_check"),
        "field.fluctuation_view.ms": t.median_ms("field.fluctuation_view"),
        "field.phi_at.ms": t.median_ms("field.phi_at"),
        "field.compute_tau.ms": t.median_ms("field.compute_tau"),
        "covariance.eval_cov_offsets.ms": t.median_ms("covariance.eval_cov_offsets"),
        "covariance.eval_cov_offsets.calls": t.calls("covariance.eval_cov_offsets"),
        "covariance.circulant_spectrum.calls": t.calls("covariance.circulant_spectrum"),
        "covariance.circulant_miss_ratio": (
            t.calls("covariance.circulant_spectrum") / seen.samples if seen.samples else 0.0
        ),
        "scales.ms": t.total_ms("scales."),
        "spectrum.solve_bar_problem.ms": t.median_ms("spectrum.solve_bar_problem"),
        "spectrum.top_k_eigs.ms": t.median_ms("spectrum.top_k_eigs"),
        "spectrum.top_k_eigs.calls": top_calls,
        "spectrum.top_k_eigs.matvecs": matvecs / top_calls if top_calls else 0.0,
        "spectrum.dense_eigs.ms": t.median_ms("spectrum.dense_eigs"),
        "spectrum.dense_eigs.calls": t.calls("spectrum.dense_eigs"),
        "spectrum.dense_eigs.sites": statistics.median(seen.dense_sites) if seen.dense_sites else 0,
        "spectrum.apply_hamiltonian.ms": t.median_ms("spectrum.apply_hamiltonian"),
        "spectrum.approximation_error.ms": t.median_ms("spectrum.approximation_error"),
        "spectrum.max_residual": seen.max_residual,
        "extremes.order_statistics.ms": t.median_ms("extremes.order_statistics"),
        "extremes.order_statistics.calls": t.calls("extremes.order_statistics"),
        "extremes.order_statistics.kept_ratio": (
            seen.kept_entries / seen.sorted_sites if seen.sorted_sites else 0.0
        ),
        "extremes.box_maxima.ms": t.median_ms("extremes.box_maxima"),
        "extremes.build_partition.ms": t.median_ms("extremes.build_partition"),
        "extremes.rank_permutation.ms": t.median_ms("extremes.rank_permutation"),
        "stats.ms": t.total_ms("stats."),
        "harness.run_experiment.self_ms": 1e3 * sum(t.self_s.get("harness.run_experiment", ())) / trials,
        "harness.records_bytes": records_bytes,
        "harness.report.ms": t.median_ms("harness.report"),
    }
