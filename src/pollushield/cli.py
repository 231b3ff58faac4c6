"""Command-line front end: run experiments or scenario files, emit CSVs.

Exit codes: 0 success, 1 malformed or unreadable scenario config, 2 unknown
experiment id or other bad arguments (raised by argparse), 3 output
location unwritable. Errors and parameter diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Callable, Dict, List, Optional, Sequence

from .metrics import emit_csv
from .scenarios import (
    EXPERIMENT_IDS,
    EXPERIMENT_OVERRIDES,
    ScenarioConfig,
    build_experiment,
    load_config,
    run_grid,
)
from .trust_core import canonical, replace

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_UNWRITABLE = 3


def _sweep_keys(experiment: Optional[str]) -> Dict[str, type]:
    """Override name -> type for an experiment; a scenario file takes only
    the overrides that are config fields."""
    if experiment is not None:
        return EXPERIMENT_OVERRIDES[experiment]
    return {
        k: t for keys in EXPERIMENT_OVERRIDES.values() for k, t in keys.items()
        if k in ScenarioConfig._fields
    }


def _parse_sweep(spec: str, experiment: Optional[str]) -> Dict[str, List]:
    """--sweep as a grid of one axis."""
    keys = _sweep_keys(experiment)
    try:
        key, _, raw = spec.partition("=")
        if key not in keys:
            raise ValueError(f"unknown sweep key {key!r} (valid: {', '.join(keys)})")
        cast = keys[key]
        values = [canonical(cast, cast(v), key) for v in raw.split(",") if v != ""]
        if not values:
            raise ValueError("sweep needs at least one value")
        repeated = [v for v in dict.fromkeys(values) if values.count(v) > 1]
        if repeated:
            # equal values would write the same output files over each other
            raise ValueError(f"repeated values {', '.join(map(str, repeated))}")
    except ValueError as exc:
        raise ValueError(f"bad --sweep argument {spec!r}: {exc}") from exc
    return {key: values}


def _point_name(name: str, point: dict) -> str:
    slugs = (str(v).replace(".", "p").replace("-", "m") for v in point.values())
    return "_".join([name, *(f"{k}_{slug}" for k, slug in zip(point, slugs))])


def _config_maker(args) -> Callable[..., ScenarioConfig]:
    """The sweep grid's `make`: a point's value overrides --seed/--rounds,
    and a non-empty point's values suffix the config's name."""
    base = {k: v for k, v in (("seed", args.seed), ("rounds", args.rounds)) if v is not None}
    if args.experiment is not None:
        def make(**point):
            cfg = build_experiment(args.experiment, **dict(base, **point))
            return replace(cfg, name=_point_name(cfg.name, point)) if point else cfg
        return make
    path, load = args.scenario, cache(load_config)  # the first point reads the file

    def make(**point):
        try:
            loaded, overrides = load(path), dict(base, **point)
            name = _point_name(loaded.name, point)
            return replace(loaded, **overrides, name=name) if overrides else loaded
        except (OSError, ValueError, RecursionError) as exc:
            raise ValueError(f"cannot load scenario {path!r}: {exc}") from exc
    return make


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

    try:
        grid = {} if args.sweep is None else _parse_sweep(args.sweep, args.experiment)
        runs = run_grid(_config_maker(args), grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    for _, run in runs:
        cfg, report = run.cfg, run.report()
        for msg in report.run_meta["diagnostics"]:
            print(f"warning: {cfg.name}: {msg}", file=sys.stderr)
        try:
            paths = emit_csv(report, args.out)
        except OSError as exc:
            print(f"error: cannot write to {args.out!r}: {exc}", file=sys.stderr)
            return EXIT_UNWRITABLE
        print(f"{cfg.name}: seed={cfg.seed} peers={cfg.n_peers} rounds={cfg.rounds} "
              f"deliveries={sum(s.requests_received for s in report.summary)} -> {paths[0]}")
    return EXIT_OK


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
