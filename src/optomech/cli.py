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
    drive_to_dict, run_experiment, solve
from .recipes import load_recipe, recipe_names


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get("OPTOMECH_OUT_DIR", "."))


def _times(text: str) -> list[float]:
    """The comma-separated --times entries as numbers; ValueError naming
    an entry that is not one."""
    times = []
    for entry in text.split(","):
        try:
            times.append(float(entry))
        except ValueError:
            raise ValueError(f"--times entry {entry!r} is not a "
                             "number") from None
    return times


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
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError(f"{args.config} must hold a block (a JSON "
                                 "object)")
            doc.update(loaded)
        if args.command == "wigner":    # the manifest echoes what ran
            if args.times:
                doc["wigner_times"] = _times(args.times)
            outputs = list(doc.get("outputs", []))
            doc["outputs"] = (outputs if "wigner" in outputs
                              else outputs + ["wigner"])
        cfg = config_from_dict(doc)
        cfg.check()
        if args.command == "compare-sources" \
                and cfg.resolved_drive().big_omega == 0.0:
            raise ValueError("compare-sources needs a modulated drive")
        if args.command == "sweep" and not cfg.sweep:
            raise ValueError("sweep needs sweep.axes")
    except OSError as exc:
        print(f"error: cannot read {exc.filename}: {exc.strerror}",
              file=sys.stderr)
        return 1
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
                  else solve(replace(cfg, outputs=("stability",)))[3])
        json.dump(report, sys.stdout, indent=2)
        print()
        return 0

    written = run_experiment(cfg, _out_dir(args))
    for name, path in written.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
