"""Command-line experiment runner.

Verbs: `run <experiment>`, `validate`, `list`, `dump-basis`.  Configuration
comes from a JSON document (--config); individual flags mirror top-level
keys and override the file; GAUGELAB_OUTDIR overrides the output directory
unless --outdir is given explicitly.

Exit codes: 0 success, 2 configuration error, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .config import ExperimentConfig
from .errors import ConfigError, CutoffCeiling, GaugelabError
from .experiments import EXPERIMENTS, base_matter_spec, run_experiment
from .matter1d import solve_double_well

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="JSON config document")
    for f in fields(ExperimentConfig):
        if f.name == "matter_spec":
            continue  # structured; config-file only
        flag = "--" + f.name.replace("_", "-")
        if f.name == "temperatures":
            parser.add_argument(flag, type=str, default=None, metavar="T1,T2,...",
                                help="temperature list in units of omega")
        elif f.name == "outdir":
            parser.add_argument(flag, type=str, default=None)
        else:
            kind = int if f.type == "int" else float
            parser.add_argument(flag, type=kind, default=None)


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    data = {}
    if args.config:
        data = ExperimentConfig.from_json_file(args.config).to_dict()
    cfg = ExperimentConfig.from_dict(data)
    if os.environ.get("GAUGELAB_OUTDIR"):
        cfg.outdir = os.environ["GAUGELAB_OUTDIR"]
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is None:
            continue
        if f.name == "temperatures":
            try:
                value = [float(t) for t in value.split(",") if t.strip()]
            except ValueError:
                raise ConfigError(f"temperatures: cannot parse {value!r}")
        setattr(cfg, f.name, value)
    return cfg


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    issues = cfg.validate()
    if issues:
        for line in issues:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; try `gaugelab list`",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        paths = run_experiment(args.experiment, cfg)
    except CutoffCeiling as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    for path in paths:
        print(path)
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = _build_config(args)
    issues = cfg.validate()
    if issues:
        for line in issues:
            print(f"invalid: {line}")
        return EXIT_CONFIG
    print("config valid")
    return EXIT_OK


def _cmd_list(_args) -> int:
    width = max(len(n) for n in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name:<{width}}  {EXPERIMENTS[name].description}")
    return EXIT_OK


def _cmd_dump_basis(args) -> int:
    cfg = _build_config(args)
    issues = cfg.validate()
    if issues:
        for line in issues:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    spec = base_matter_spec(cfg)
    basis = solve_double_well(spec)
    payload = basis.to_json_dict()
    text = json.dumps(payload, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(args.out)
    else:
        print(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaugelab",
        description="Gauge-truncation laboratory for a single dipole and mode")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run a named experiment")
    p_run.add_argument("experiment")
    _add_config_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="check a configuration")
    _add_config_flags(p_val)
    p_val.set_defaults(fn=_cmd_validate)

    p_list = sub.add_parser("list", help="list experiments")
    p_list.set_defaults(fn=_cmd_list)

    p_dump = sub.add_parser("dump-basis", help="dump the calibrated matter basis as JSON")
    _add_config_flags(p_dump)
    p_dump.add_argument("--out", default=None, metavar="FILE")
    p_dump.set_defaults(fn=_cmd_dump_basis)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CutoffCeiling as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except GaugelabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
