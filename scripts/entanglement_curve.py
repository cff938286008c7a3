#!/usr/bin/env python3
"""Entanglement along the jump-free damping flow.

Evolves the measured gamma_t = 0 pair state through the no-jump map on a
fine grid and writes a plot-ready table: theory curve, survival
probability, and the measured concurrences with their uncertainties.
"""
import argparse

import numpy as np

from slitsim.datasets import MEASURED_CONCURRENCE, damping_counts
from slitsim.dynamics import resolve_convention
from slitsim.experiment import SlitStatePrep, apply_sagnac, prepare_state
from slitsim.qcore import i_concurrence


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--convention", default="population",
                        choices=["amplitude", "population"])
    parser.add_argument("--max-gamma-t", type=float, default=2.0)
    parser.add_argument("--points", type=int, default=201)
    parser.add_argument("--out", default="entanglement_curve.txt")
    args = parser.parse_args()

    convention = resolve_convention(args.convention)
    table0 = damping_counts()[0]
    anti = np.array([table0.counts[level, 2 - level] for level in range(3)], dtype=float)
    psi0 = prepare_state(SlitStatePrep(3, tuple(np.sqrt(anti / anti.sum()))))

    lines = [f"# convention: {convention}",
             "gamma_t concurrence survival measured measured_sigma"]
    measured = {gt: val for gt, val in MEASURED_CONCURRENCE.items()}
    grid = sorted(set(np.linspace(0.0, args.max_gamma_t, args.points)) | set(measured))
    concurrences = []
    for gt in grid:
        evolved, surv = apply_sagnac(psi0, gt, convention)
        conc = i_concurrence(evolved)
        concurrences.append(conc)
        if gt in measured:
            m, s = measured[gt]
            tail = f"{m} {s}"
        else:
            tail = "nan nan"
        lines.append(f"{gt:.6f} {conc:.6f} {surv:.6f} {tail}")

    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    peak = grid[concurrences.index(max(concurrences))]
    print(f"wrote {args.out} ({len(grid)} rows); concurrence peaks near gamma_t = {peak:.3f}")


if __name__ == "__main__":
    main()
