#!/usr/bin/env python3
"""Generate the four key-rate noise curves and the threshold table.

Writes one CSV per (variant, channel model) under --outdir using the
default (reference-reproducing) conventions, then prints the zero
crossings.  Plotting recipe: first column (Q) on x, second column (r) on
y; overlay the dependent and independent curves of one variant to get the
usual two-line figure.
"""
import argparse
import pathlib

import numpy as np

from sqkd3 import find_threshold, key_rate_curve

SCENARIOS = [("phi1", "dependent"), ("phi1", "independent"),
             ("phi2", "dependent"), ("phi2", "independent")]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="noise_curves")
    ap.add_argument("--steps", type=int, default=241)
    ap.add_argument("--q-max", type=float, default=0.24)
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    print(f"{'variant':8s} {'model':12s} {'threshold':>10s}")
    for variant, model in SCENARIOS:
        curve = key_rate_curve(np.linspace(0.0, args.q_max, args.steps),
                               model=model, variant=variant)
        path = outdir / f"keyrate_{variant}_{model}.csv"
        with open(path, "w") as fh:
            fh.write("Q,r\n")
            for q, r in zip(curve["Q"], curve["r"]):
                fh.write(f"{q:.9g},{r:.9g}\n")
        thr = find_threshold(variant, model)
        print(f"{variant:8s} {model:12s} {thr:10.4f}   -> {path}")


if __name__ == "__main__":
    main()
