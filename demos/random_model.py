#!/usr/bin/env python3
"""The random-shift model: exact expectations vs seeded simulation.

With fair coin shifts the totient-weighted union size
X = sum phi(d) over realized indices has an exactly computable mean, and
pi^2 * X / n^2 concentrates near 6 * Li2(1/2) ~= 3.4934.  This demo
compares three routes: the exact rational E[X] at small n (verified
against complete enumeration), the float expectation at large n, and
Monte Carlo over seeded reproducible trials.
"""

import math

from cyclolcm import (
    expected_X,
    monte_carlo,
    random_model_constant,
    totient,
    variance_bound,
)
from cyclolcm.stochastic import exhaustive_indicator_tables

SEED = 0x5EEDC0DE


def main():
    theory = random_model_constant()
    print(f"6 * Li2(1/2) = {theory:.10f}\n")

    print("exact route, small n (cross-checked by full enumeration):")
    for n in (1, 3, 6, 10):
        exact = expected_X(n)
        singles, _ = exhaustive_indicator_tables(n)
        # E[X] is linear in the indicators, so the mean of X over all 2^n
        # words is the totient-weighted sum of their enumerated means.
        enum_mean = sum(totient(d) * p for d, p in singles.items())
        tag = "ok" if exact == enum_mean else "MISMATCH"
        print(f"  n={n:2d}  E[X] = {exact}  enumeration {tag}")
    print()

    print("float route, large n: pi^2 E[X] / n^2 -> theory")
    for n in (100, 1_000, 10_000):
        ratio = math.pi**2 * expected_X(n, "float") / n**2
        print(f"  n={n:>6}  ratio = {ratio:.6f}  (theory {theory:.6f})")
    print()

    n, trials = 1500, 48
    results, summary = monte_carlo(n, trials, SEED)
    print(f"Monte Carlo: n={n}, {trials} seeded trials")
    print(f"  mean ratio = {summary.mean_ratio:.5f}, abs gap {summary.abs_gap:.5f}")
    print(f"  sample variance {summary.var_X:.4g} vs explicit bound "
          f"{variance_bound(n):.4g}")
    spread = max(r.ratio for r in results) - min(r.ratio for r in results)
    print(f"  trial ratio spread {spread:.4f} — concentration in action")


if __name__ == "__main__":
    main()
