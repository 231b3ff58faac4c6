"""Command-line front end: run experiments or scenario files, emit CSVs.

Exit codes: 0 success, 1 malformed or unreadable scenario config, 2 unknown
experiment id or other bad arguments (raised by argparse), 3 output
location unwritable. Errors and parameter diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from typing import Dict, List, Optional, Sequence

from .metrics import emit_csv
from .scenarios import (
    EXPERIMENT_IDS,
    EXPERIMENT_OVERRIDES,
    ScenarioConfig,
    build_experiment,
    load_config,
    run_scenario,
)

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_UNWRITABLE = 3


def _sweep_keys(experiment: Optional[str]) -> Dict[str, type]:
    """Override name -> type for an experiment; a scenario file takes only
    the overrides that are config fields."""
    if experiment is not None:
        return EXPERIMENT_OVERRIDES[experiment]
    config_fields = {f.name for f in fields(ScenarioConfig)}
    return {
        k: t for keys in EXPERIMENT_OVERRIDES.values() for k, t in keys.items()
        if k in config_fields
    }


def _parse_sweep(spec: str, keys: Dict[str, type]) -> List[tuple]:
    try:
        key, _, raw = spec.partition("=")
        if key not in keys:
            raise ValueError(f"unknown sweep key {key!r} (valid: {', '.join(keys)})")
        cast = keys[key]
        values = [cast(v) for v in raw.split(",") if v != ""]
        if not values:
            raise ValueError("sweep needs at least one value")
        repeated = [v for v in dict.fromkeys(values) if values.count(v) > 1]
        if repeated:
            # equal values would write the same output files over each other
            raise ValueError(f"repeated values {', '.join(map(str, repeated))}")
    except ValueError as exc:
        raise ValueError(f"bad --sweep argument {spec!r}: {exc}") from exc
    return [(key, v) for v in values]


def _value_slug(value: object) -> str:
    return str(value).replace(".", "p").replace("-", "m")


def _run_one(args, overrides: dict, suffix: str) -> int:
    if args.experiment is not None:
        try:
            cfg = build_experiment(args.experiment, **overrides)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG
        if suffix:
            cfg = replace(cfg, name=f"{cfg.name}_{suffix}")
    else:
        path = args.scenario
        try:
            cfg = load_config(path)
            if suffix:
                overrides = dict(overrides, name=f"{cfg.name}_{suffix}")
            if overrides:
                cfg = replace(cfg, **overrides)
        except (OSError, ValueError, RecursionError) as exc:
            print(f"error: cannot load scenario {path!r}: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG
    report = run_scenario(cfg)
    for msg in report.run_meta["diagnostics"]:
        print(f"warning: {cfg.name}: {msg}", file=sys.stderr)
    try:
        paths = emit_csv(report, args.out)
    except OSError as exc:
        print(f"error: cannot write to {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    outcomes = sum(s.requests_received for s in report.summary)
    print(
        f"{cfg.name}: seed={cfg.seed} peers={cfg.n_peers} rounds={cfg.rounds} "
        f"deliveries={outcomes} -> {paths[0]}"
    )
    return EXIT_OK


def run_command(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="pollushield",
        description="Trust-managed P2P streaming simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment or a scenario file")
    target = run_p.add_mutually_exclusive_group(required=True)
    target.add_argument("--experiment", choices=EXPERIMENT_IDS, help="canned experiment id")
    target.add_argument("--scenario", help="path to a scenario config file")
    run_p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base RNG seed (default: 1 for experiments, the file's own for scenarios)",
    )
    run_p.add_argument("--rounds", type=int, default=None, help="override round count")
    run_p.add_argument("--out", default="./out", help="output directory (default ./out)")
    run_p.add_argument(
        "--sweep",
        default=None,
        metavar="KEY=V1,V2,...",
        help="run once per value of an override key ("
        + "; ".join(f"{exp}: {', '.join(_sweep_keys(exp))}" for exp in EXPERIMENT_IDS)
        + f"; scenario files: {', '.join(_sweep_keys(None))})",
    )
    args = parser.parse_args(argv)

    base_overrides: dict = {}
    if args.seed is not None:
        base_overrides["seed"] = args.seed
    if args.rounds is not None:
        base_overrides["rounds"] = args.rounds

    if args.sweep is None:
        return _run_one(args, base_overrides, "")
    try:
        points = _parse_sweep(args.sweep, _sweep_keys(args.experiment))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    for key, value in points:
        overrides = dict(base_overrides)
        overrides[key] = value
        code = _run_one(args, overrides, f"{key}_{_value_slug(value)}")
        if code != EXIT_OK:
            return code
    return EXIT_OK


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
