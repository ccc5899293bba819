"""Command line interface.

Subcommands:
  simulate        run a configured experiment (optionally a shipped recipe)
  engineer-drive  emit the drive Fourier components for a coupling target
  stability       the stability report a run writes to stability.json
  sweep           run the configured parameter sweep, all in this process
  wigner          Wigner phase-space grids of the mechanical mode
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .engineering import modulation_components
from .errors import SimulationError
from .experiment import compare_sources, config_from_dict, \
    drive_to_dict, run_experiment, sample_times, solve
from .recipes import load_recipe, recipe_names


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get("OPTOMECH_OUT_DIR", "."))


def _add_common(sub):
    sub.add_argument("--config", help="JSON configuration file")
    sub.add_argument("--recipe", choices=recipe_names(),
                     help="shipped canonical configuration")
    sub.add_argument("--out", help="output directory")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="optomech", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "sweep", "compare-sources", "stability"):
        _add_common(subs.add_parser(name))

    sub = subs.add_parser("engineer-drive")
    sub.add_argument("--config", required=True)

    sub = subs.add_parser("wigner")
    _add_common(sub)
    sub.add_argument("--times", help="comma-separated evaluation times")

    args = parser.parse_args(argv)
    recipe = getattr(args, "recipe", None)
    if not (recipe or args.config):
        raise SystemExit("either --config or --recipe is required")
    try:        # a ValueError here is the config's, not the solve's
        doc = load_recipe(recipe) if recipe else {}
        if args.config:
            with open(args.config) as fh:
                doc.update(json.load(fh))
        cfg = config_from_dict(doc)
        if getattr(args, "times", None):
            cfg.wigner_times = tuple(float(t) for t in args.times.split(","))
        cfg.check()
    except ValueError as exc:
        reason = str(exc).removeprefix("invalid configuration: ")
        print(f"error: invalid configuration: {reason}", file=sys.stderr)
        return 1
    try:
        return _run(args, cfg)
    except SimulationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _run(args, cfg) -> int:
    if args.command == "engineer-drive":
        if cfg.engineered is None:
            raise SystemExit("config must carry an 'engineered' target")
        drive = modulation_components(cfg.params, cfg.engineered)
        json.dump(drive_to_dict(drive), sys.stdout, indent=2)
        print()
        return 0

    if args.command in ("compare-sources", "stability"):
        report = (compare_sources(cfg) if args.command == "compare-sources"
                  else solve(replace(cfg, outputs=("stability",)),
                             sample_times(cfg))[3])
        json.dump(report, sys.stdout, indent=2)
        print()
        return 0

    if args.command == "wigner":
        cfg.outputs = tuple(set(cfg.outputs) | {"wigner"})
    written = run_experiment(cfg, _out_dir(args))
    for name, path in written.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
