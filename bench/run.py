"""andex benchmark: seeded Monte Carlo experiments, end to end and per layer.

    python3 bench/run.py --workload gumbel_1d --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seconds 28      # table for every workload

Run from a checkout of the repository; the package is imported from its
``src``.  For ``--seconds`` this script runs experiments one after another,
each in a fresh process (cold factor caches, per-run peak RSS) with
``workers=1``, and reports trial rates pooled over them and medians of
their set-up times and peak RSS.  The first experiment of a
run uses the reference seed and its records are compared with
``bench/reference/<workload>.csv``; the rest use master seeds made from
``--seed``.  ``--trace 1`` alternates untraced experiments with traced
ones and reports per-layer metrics; ``--trace 0`` reports the end-to-end
metrics of untraced experiments only.

The last line of stdout is one JSON object with ``correct``, ``attempted``
and ``failed`` (trials) and ``metrics``.  The exit code is 1 when a
correctness check fails, 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH / "reference"
RUNS_DIR = ROOT / ".bench_runs"

# Master seed of the first experiment of every run, checked against the
# stored records; the README's example seed.
REFERENCE_SEED = 2024
# Rows of each reference file (the first trials of the reference run).
REFERENCE_ROWS = 50
# Float cells of a record may differ from the reference by this much,
# relative to max(1, |reference|).  A different eigensolver moves
# eigenvalues by about 1e-15 but eigenvectors by up to residual / gap,
# and the records carry eigenvector distances scaled by a_L / d_L.
RECORD_RTOL = 1e-6
# The harness's own limit on failed trials (it raises above it).
FAILED_BUDGET = 0.05
CHILD_TIMEOUT_S = 150
# Experiments a run makes even when they overrun --seconds.
MIN_UNTRACED = 3
MIN_TRACED = 2
# CPU seconds child.py's import probe takes at the host speed set-up times
# are rescaled to: its typical time on the 2-vCPU x86 VM the bounds were set
# on.  A fixed constant, so it never hides a change in andex.
PROBE_REF_CPU_S = 0.6
# Experiments run with single-threaded BLAS: the plain single-threaded
# baseline, and steadier on a shared host, where idle BLAS threads spin.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Closed loop: one experiment per process, trials one after another.  Trial
# counts put about 2.5 s of trials in one experiment on a 2-vCPU x86 VM, so
# the per-process set-up takes about a fifth of a run.
WORKLOADS = {
    "gumbel_1d": {
        "why": "Gumbel maxima: field sampler and box maxima, no eigensolver",
        "config": {
            "experiment": "potential_extremes",
            "model": {"family": "iid"},
            "L": 8192,
            "d": 1,
            "trials": 1000,
            "overrides": {"R_L": 511, "r_L": 9},
        },
    },
    "ranks_1d": {
        "why": "rank permutation: d=1 iterative solver and a full order of all sites",
        "config": {
            "experiment": "rank_permutation",
            "model": {"family": "cube_indicator", "m": 2},
            "L": 4096,
            "d": 1,
            "trials": 60,
            "overrides": {"k": 2},
        },
    },
    "gluing_2d": {
        "why": "macro-meso gluing: d=2 iterative solver plus dense solves on 169-site cores",
        "config": {
            "experiment": "macro_meso",
            "model": {"family": "iid"},
            "L": 60,
            "d": 2,
            # At least 21 trials, so that the harness's 5% failure budget
            # admits one failed trial: the d=2 Lanczos occasionally stops
            # at max_iter short of tol (master seed 710005, one trial in
            # about 4000), and a run reports it instead of crashing.
            "trials": 24,
            "overrides": {"k": 3, "R_L": 13, "r_L": 5},
        },
    },
    "localisation_1d": {
        "why": "peak-conditioned localisation: event checks, small dense solves, per-trial harness cost",
        "config": {
            "experiment": "localisation",
            "model": {"family": "cube_indicator", "m": 2},
            "L": 83,
            "d": 1,
            "trials": 2000,
            "overrides": {"a_L": 6.0, "R_L": 41, "r_L": 9},
        },
    },
}

END_TO_END = (
    ("trials_per_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_share", "share"),
)


def read_records(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _number(cell):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def compare_reference(reference, rows, rtol=RECORD_RTOL):
    """Problems found comparing records with reference rows (empty: match).

    Rows pair up by position.  Integer cells (ranks, flags, counts, seeds)
    must be equal, float cells close; columns the records add are ignored.
    """
    problems = []
    if len(rows) < len(reference):
        return [f"{len(rows)} rows, reference has {len(reference)}"]
    for ref, row in zip(reference, rows):
        for col, want in ref.items():
            got = row.get(col)
            if got is None:
                problems.append(f"trial {ref['trial']}: column {col} missing")
                continue
            a, b = _number(got), _number(want)
            if isinstance(b, float) or isinstance(a, float):
                ok = (
                    isinstance(a, (int, float))
                    and isinstance(b, (int, float))
                    and abs(a - b) <= rtol * max(1.0, abs(b))
                )
            else:
                ok = a == b
            if not ok:
                problems.append(f"trial {ref['trial']}: {col} = {got}, reference {want}")
    return problems


def check_experiment(rows, result, trials):
    """Problems with one experiment at any seed (empty: none)."""
    problems = []
    if len(rows) != trials:
        problems.append(f"{len(rows)} records for {trials} trials")
    if [row.get("trial") for row in rows] != [str(i) for i in range(len(rows))]:
        problems.append("trial column is not 0..n-1")
    for row in rows:
        if any(isinstance(v, float) and not math.isfinite(v) for v in map(_number, row.values())):
            problems.append(f"trial {row.get('trial')}: non-finite cell")
    if result["trials_failed"] > FAILED_BUDGET * trials:
        problems.append(f"{result['trials_failed']}/{trials} trials failed")
    if result["max_residual"] > spans.RESIDUAL_TOL:
        problems.append(f"eigenpair residual {result['max_residual']:.3e} above {spans.RESIDUAL_TOL}")
    if "span_s" in result and abs(result["span_s"] - result["wall_s"]) > 0.01 * result["wall_s"] + 1e-3:
        problems.append(f"span self times {result['span_s']:.6f} s != traced wall {result['wall_s']:.6f} s")
    return problems


def _child_env():
    env = dict(os.environ, **BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _run_child(args, env):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"experiment process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_experiment(workload, master_seed, trace, run_dir, env):
    """One experiment in a fresh process: (measurements, records)."""
    out_dir = run_dir / f"{workload}-{master_seed}-{int(trace)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    config = dict(WORKLOADS[workload]["config"], master_seed=master_seed, out_dir=str(out_dir))
    spec = json.dumps({"config": config, "trace": trace})
    result = _run_child([repr(time.monotonic()), spec], env)
    rows = read_records(out_dir / "records.csv")
    shutil.rmtree(out_dir)
    return result, rows


@contextlib.contextmanager
def _run_dir():
    """A working directory for this process's experiments, removed afterwards."""
    run_dir = RUNS_DIR / str(os.getpid())
    try:
        yield run_dir
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS_DIR.rmdir()


def git_state():
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"git_revision": None, "git_dirty": None}
        dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
        return {"git_revision": git("rev-parse", "HEAD").stdout.strip(), "git_dirty": bool(dirty)}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_revision": None, "git_dirty": None}


def environment(env):
    """Environment block; the child import also compiles and warms the package."""
    block = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_env": {
            k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in env
        },
        "workers": 1,
    }
    block.update(_run_child(["env"], env))
    block.update(git_state())
    return block


def measure(workload, seed, seconds, trace, env):
    """Run experiments for ``seconds``.

    Returns (metrics, unbounded figures, trials attempted, trials failed,
    correctness problems).
    """
    trials = WORKLOADS[workload]["config"]["trials"]
    reference = read_records(REFERENCE_DIR / f"{workload}.csv")
    deadline = time.monotonic() + seconds
    untraced, traced, durations, problems = [], [], [], []
    with _run_dir() as run_dir:
        j = 0
        while True:
            enough = len(untraced) >= MIN_UNTRACED and (not trace or len(traced) >= MIN_TRACED)
            if enough and time.monotonic() + statistics.median(durations) > deadline:
                break
            traced_now = trace and j % 2 == 1
            master_seed = REFERENCE_SEED if j == 0 else seed * 1000 + j
            started = time.monotonic()
            result, rows = run_experiment(workload, master_seed, traced_now, run_dir, env)
            durations.append(time.monotonic() - started)
            problems += check_experiment(rows, result, trials)
            if j == 0:
                problems += compare_reference(reference, rows)
            (traced if traced_now else untraced).append(result)
            j += 1

    done = untraced + traced
    attempted = trials * len(done)
    failed = sum(r["trials_failed"] for r in done)

    def rate(results, clock="trial_cpu_s"):
        """Trials completed per second of trial phase, pooled over experiments."""
        done_trials = sum(trials - r["trials_failed"] for r in results)
        return done_trials / sum(r[clock] for r in results)

    # Host speed drifts over minutes on a shared machine.  The import probe
    # of every experiment follows that drift for set-up, which is mostly
    # imports, but not for the trials (see NOTES.md).
    probe = statistics.median(r["probe_cpu_s"] for r in done)
    setup_cpu = statistics.median(r["setup_cpu_s"] for r in untraced)

    if trace:
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name, _ in spans.PER_LAYER
            if name != "tracing_overhead"
        }
        metrics["tracing_overhead"] = 1.0 - rate(traced) / rate(untraced)
        units = dict(spans.PER_LAYER)
    else:
        metrics = {
            "trials_per_cpu_s": rate(untraced),
            "setup_s": setup_cpu * PROBE_REF_CPU_S / probe,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "completed_share": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END)
    shaped = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    # Printed beside the metrics, without a bound.
    info = {
        "trials_per_s": (rate(untraced, "trial_s"), "1/s"),
        "setup_cpu_s": (setup_cpu, "s"),
        "setup_wall_s": (statistics.median(r["setup_s"] for r in untraced), "s"),
        "probe_cpu_s": (probe, "s"),
        "failed_share": (failed / attempted, "share"),
    }
    return shaped, info, attempted, failed, problems


def write_reference(workload, env):
    with _run_dir() as run_dir:
        result, rows = run_experiment(workload, REFERENCE_SEED, False, run_dir, env)
    problems = check_experiment(rows, result, WORKLOADS[workload]["config"]["trials"])
    if problems:
        raise SystemExit("\n".join(problems))
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{workload}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows[:REFERENCE_ROWS])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store the reference-seed records of the workload(s) and exit",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "andex" / "__init__.py").is_file():
        print(f"andex source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _child_env()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.write_reference:
        for w in workloads:
            write_reference(w, env)
        return 0

    print("environment " + json.dumps(environment(env)))
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        shaped, info, n, f, problems = measure(w, args.seed, args.seconds, bool(args.trace), env)
        for p in problems:
            print(f"CHECK FAILED {w}: {p}")
        correct &= not problems
        attempted += n
        failed += f
        for name, m in shaped.items():
            print(f"{w:16s} {name:40s} {m['value']:14.6g} {m['unit']}")
        for name, (value, unit) in info.items():
            print(f"{w:16s} {name:40s} {value:14.6g} {unit}  (unbounded)")
        if args.workload == "all":
            shaped = {f"{w}/{name}": m for name, m in shaped.items()}
        metrics.update(shaped)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
