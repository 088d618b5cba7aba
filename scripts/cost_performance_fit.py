#!/usr/bin/env python3
"""Fit -dP/dC over a full search run and compare with 1/log2(N/j) and 1/N.

The fitted slopes converge to the predicted cost-performance values as the
database grows; run with increasing --n to watch the relative error shrink.
"""

import argparse

import numpy as np

from groverlab.coherence import coherence_l1_ga, coherence_r_ga, cost_performance
from groverlab.grover import GroverConfig, optimal_iterations, state_at, success_probability


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[8, 10, 11, 14, 16])
    parser.add_argument("--j", type=int, default=1)
    args = parser.parse_args()

    print(f"{'n':>3} {'measure':>17} {'fitted':>14} {'predicted':>14} {'rel err':>9}")
    for n in args.n:
        cfg = GroverConfig(n=n, j=args.j)
        st = state_at(cfg, np.arange(optimal_iterations(cfg) + 1))
        p = success_probability(cfg, st)
        for fn, label in ((coherence_r_ga, "relative-entropy"), (coherence_l1_ga, "l1")):
            c = fn(cfg, st)
            fitted = -np.polyfit(c, p, 1)[0]
            predicted = cost_performance(cfg, label)
            rel = abs(fitted - predicted) / predicted
            print(f"{n:>3} {label:>17} {fitted:>14.8g} {predicted:>14.8g} {rel:>9.2%}")


if __name__ == "__main__":
    main()
