"""Command-line entry point: one subparser per subcommand (sample-field,
spectrum, bar-problem, ppp-reference, experiment, report) declares its
arguments and its handler together (``set_defaults(run=handler)``), and
one parent parser declares the model flags --family, --param and --d.  A
handler returns what main prints: a dict as JSON, a string as is, or an
int, the exit code.  Exit codes: 0 success, 1 usage error, 2 config
error, 3 runtime failure, 4 acceptance failure (report --check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import covariance as cov
from . import extremes, field, harness, spectrum
from .errors import AndexError, ConfigError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK = 4


def _json_object(text: str) -> dict:
    """The JSON object that ``text`` holds; ConfigError for anything else."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    return raw


def _apply_overrides(cfg_dict: dict, pairs: list[str]) -> dict:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must be key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg_dict
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {key!r}: {p!r} is not an object")
        node[parts[-1]] = value
    return cfg_dict


def _model_from_args(args) -> cov.CovarianceModel:
    """The model that --family, --param and --d name; ConfigError if none."""
    fam = cov.FAMILIES.get(args.family)
    if fam is None:
        raise ConfigError(f"unknown covariance family: {args.family!r}")
    if fam.param is None and args.param is not None:
        raise ConfigError(f"family {args.family} takes no --param")
    if fam.param is not None and args.param is None:
        raise ConfigError(f"family {args.family} needs --param")
    params = {} if fam.param is None else {fam.param: args.param}
    try:
        return cov.CovarianceModel(family=args.family, d=args.d, params=params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _draw(args, k: int | None = None, sampler: str = "circulant") -> field.FieldSample:
    """The field of the model flags on Q_L at --seed, a block of one, for a
    solve of k pairs unless k is None.  ConfigError before any draw unless
    --L and k take values an experiment config accepts, L >= 2 and
    1 <= k <= spectrum.MAX_K, and harness.admit admits the draw and the
    solve."""
    if args.L < 2:
        raise ConfigError(f"--L must be an integer >= 2, got {args.L}")
    if k is not None and not 1 <= k <= spectrum.MAX_K:
        raise ConfigError(f"--k must be an integer in 1..{spectrum.MAX_K}, got {k}")
    model = _model_from_args(args)
    sites = 0 if k is None else field.grid_side(args.L) ** args.d
    harness.admit(model, args.L, sampler, sites, k or 0)
    return field.sample_field(model, args.L, [args.seed], sampler)


def _sample_field(args) -> dict:
    s = _draw(args, sampler=args.sampler)
    out = args.out or os.environ.get("ANDEX_OUT", "runs")
    os.makedirs(out, exist_ok=True)
    prefix = os.path.join(out, f"field_{args.family}_L{args.L}_s{args.seed}")
    s.export_binary(prefix)
    lo, hi = float(np.min(s.values)), float(np.max(s.values))
    return {"sampler": s.sampler, "max": hi, "min": lo, "file": prefix + ".bin"}


def _spectrum(args) -> str:
    return spectrum.top_k_eigs(_draw(args, k=args.k).values[0], args.k).to_json()


def _bar_problem(args) -> dict:
    model = _model_from_args(args)
    try:
        bar = spectrum.solve_bar_problem(model, args.a_L, args.r_L)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    tau = field.compute_tau(model, bar.bar_phi)
    return {"bar_lambda": bar.bar_lambda, "expansion": bar.expansion_value, "tau_L": tau}


def _ppp_reference(args) -> dict:
    ref = extremes.sample_ppp_reference(args.b, args.K, args.seed)
    p_head = [float(v) for v in ref.p[:5]]
    return {"k_max_safe": ref.k_max_safe, "ell": list(ref.ell[:20]), "p_head": p_head}


def _experiment(args) -> str | int:
    if not args.config:
        print("experiment requires --config", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    raw = _apply_overrides(_json_object(text), args.override)
    if args.out:
        raw["out_dir"] = args.out
    raw.setdefault("master_seed", args.seed)
    return str(harness.run_experiment(harness.ExperimentConfig.from_dict(raw)))


def _report(args) -> int:
    ok = harness.report(args.run_dir)
    return EXIT_CHECK if args.check and not ok else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="andex",
        description="Correlated Gaussian potentials, Anderson spectra, "
        "and extreme-value experiments.",
    )
    ap.add_argument("--seed", type=int, default=0, help="master seed")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--config", default=None, help="JSON config path")
    ap.add_argument(
        "--override",
        action="append",
        default=[],
        help="dot-path config override key=value (repeatable)",
    )
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--family", default="iid")
    model.add_argument("--param", type=float, default=None)
    model.add_argument("--d", type=int, default=1)
    sub = ap.add_subparsers(dest="command", required=True)

    sf = sub.add_parser("sample-field", help="draw one field sample", parents=[model])
    sf.add_argument("--L", type=int, required=True)
    sf.add_argument("--sampler", choices=list(field.SAMPLERS), default="circulant")
    sf.set_defaults(run=_sample_field)

    sp = sub.add_parser("spectrum", help="top-k eigenpairs of a sampled field", parents=[model])
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.set_defaults(run=_spectrum)

    bp = sub.add_parser("bar-problem", help="deterministic dip eigenproblem", parents=[model])
    bp.add_argument("--a-L", type=float, required=True)
    bp.add_argument("--r-L", type=int, required=True)
    bp.set_defaults(run=_bar_problem)

    pp = sub.add_parser("ppp-reference", help="decorated PPP reference sample")
    pp.add_argument("--b", type=float, required=True)
    pp.add_argument("--K", type=int, default=500)
    pp.set_defaults(run=_ppp_reference)

    sub.add_parser("experiment", help="run a Monte Carlo experiment").set_defaults(run=_experiment)

    rp = sub.add_parser("report", help="summarize a finished run")
    rp.add_argument("run_dir")
    rp.add_argument("--check", action="store_true")
    rp.set_defaults(run=_report)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        out = args.run(args)
        if isinstance(out, int):
            return out
        print(json.dumps(out) if isinstance(out, dict) else out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AndexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
