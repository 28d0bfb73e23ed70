"""Command-line entry point.

Subcommands: sample-field, spectrum, bar-problem, ppp-reference,
experiment, report.  Exit codes: 0 success, 1 usage error, 2 config
error, 3 runtime failure, 4 acceptance failure (report --check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import covariance as cov
from . import extremes, field, harness, scales as scales_mod, spectrum
from .errors import AndexError, ConfigError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK = 4


def _default_out() -> str:
    return os.environ.get("ANDEX_OUT", "runs")


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
    sub = ap.add_subparsers(dest="command", required=True)

    sf = sub.add_parser("sample-field", help="draw one field sample")
    sf.add_argument("--family", default="iid")
    sf.add_argument("--param", type=float, default=None)
    sf.add_argument("--L", type=int, required=True)
    sf.add_argument("--d", type=int, default=1)
    sf.add_argument("--sampler", choices=["circulant", "dense"], default="circulant")

    sp = sub.add_parser("spectrum", help="top-k eigenpairs of a sampled field")
    sp.add_argument("--family", default="iid")
    sp.add_argument("--param", type=float, default=None)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--k", type=int, default=2)

    bp = sub.add_parser("bar-problem", help="deterministic dip eigenproblem")
    bp.add_argument("--family", default="iid")
    bp.add_argument("--param", type=float, default=None)
    bp.add_argument("--a-L", type=float, required=True)
    bp.add_argument("--r-L", type=int, required=True)
    bp.add_argument("--d", type=int, default=1)

    pp = sub.add_parser("ppp-reference", help="decorated PPP reference sample")
    pp.add_argument("--b", type=float, required=True)
    pp.add_argument("--K", type=int, default=500)

    ex = sub.add_parser("experiment", help="run a Monte Carlo experiment")

    rp = sub.add_parser("report", help="summarize a finished run")
    rp.add_argument("run_dir")
    rp.add_argument("--check", action="store_true")
    del ex
    return ap


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


def _check_sizes(args):
    """ConfigError unless --L, and --k where the command has it, take values
    an experiment config accepts: L >= 2 and 1 <= k <= spectrum.MAX_K."""
    if args.L < 2:
        raise ConfigError(f"--L must be an integer >= 2, got {args.L}")
    k = getattr(args, "k", 1)
    if not 1 <= k <= spectrum.MAX_K:
        raise ConfigError(f"--k must be an integer in 1..{spectrum.MAX_K}, got {k}")


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        if args.command == "sample-field":
            _check_sizes(args)
            model = _model_from_args(args)
            s = field.sample_field(model, args.L, args.seed, args.sampler)
            out = args.out or _default_out()
            os.makedirs(out, exist_ok=True)
            prefix = os.path.join(out, f"field_{args.family}_L{args.L}_s{args.seed}")
            s.export_binary(prefix)
            print(
                json.dumps(
                    {
                        "sampler": s.sampler,
                        "max": float(np.max(s.values)),
                        "min": float(np.min(s.values)),
                        "file": prefix + ".bin",
                    }
                )
            )
        elif args.command == "spectrum":
            _check_sizes(args)
            model = _model_from_args(args)
            V = field.sample_field(model, args.L, args.seed).values
            print(spectrum.top_k_eigs(V, args.k).to_json())
        elif args.command == "bar-problem":
            model = _model_from_args(args)
            bar = spectrum.solve_bar_problem(model, args.a_L, args.r_L)
            print(
                json.dumps(
                    {
                        "bar_lambda": bar.bar_lambda,
                        "expansion": bar.expansion_value,
                        "tau_L": field.compute_tau(model, bar.bar_phi),
                    }
                )
            )
        elif args.command == "ppp-reference":
            ref = extremes.sample_ppp_reference(args.b, args.K, args.seed)
            print(
                json.dumps(
                    {
                        "k_max_safe": ref.k_max_safe,
                        "ell": list(ref.ell[:20]),
                        "p_head": [float(v) for v in ref.p[:5]],
                    }
                )
            )
        elif args.command == "experiment":
            if not args.config:
                print("experiment requires --config", file=sys.stderr)
                return EXIT_USAGE
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
            raw = _json_object(text)
            raw = _apply_overrides(raw, args.override)
            if args.out:
                raw["out_dir"] = args.out
            raw.setdefault("master_seed", args.seed)
            cfg = harness.ExperimentConfig.from_dict(raw)
            manifest = harness.run_experiment(cfg)
            print(str(manifest))
        elif args.command == "report":
            ok = harness.report(args.run_dir)
            if args.check and not ok:
                return EXIT_CHECK
        else:  # pragma: no cover
            return EXIT_USAGE
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
