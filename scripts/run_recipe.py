#!/usr/bin/env python3
"""Run one of the shipped recipe configurations end to end.

Example:
    python scripts/run_recipe.py fig2 --out runs/fig2
"""

import argparse

from optomech.experiment import config_from_dict, run_experiment
from optomech.recipes import load_recipe, recipe_names


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("recipe", choices=recipe_names())
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--jobs", type=int, default=1,
                    help="workers for sweeps of a modulated drive")
    args = ap.parse_args()

    cfg = config_from_dict(load_recipe(args.recipe))
    written = run_experiment(cfg, args.out, jobs=args.jobs)
    for name, path in sorted(written.items()):
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
