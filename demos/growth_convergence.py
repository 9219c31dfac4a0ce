#!/usr/bin/env python3
"""Watching log lcm(a + s_1, ..., a^n + s_n) approach its predicted slope.

Two engines: the exact big-integer lcm (trustworthy, expensive past a few
thousand terms) and the totient-sum surrogate over the progression cover
(scales to n ~ 10^6).  Both normalized ratios should settle near the exact
constant C of the pattern.
"""

import sys

from cyclolcm import exact_log_lcm_series, growth_constant, parse_pattern, surrogate_series


def main():
    word = sys.argv[1] if len(sys.argv) > 1 else "--+"
    a = 2
    pattern = parse_pattern(word)
    constant = growth_constant(pattern)
    c = float(constant.C)
    print(f"pattern {word!r}, base {a}: C = {constant.C} = {c:.6f}\n")

    print("exact engine (n <= 1200):")
    print("      n   ratio_exact   ratio_surrogate")
    samples = exact_log_lcm_series(a, pattern, 1200, step=300)
    for s in samples:
        print(f"  {s.n:5d}   {s.ratio_exact:.6f}      {s.ratio_surrogate:.6f}")
    gap = abs(samples[-1].ratio_exact - c)
    print(f"  final gap {gap:.5f} (relative {gap / c:.3%})\n")

    print("cover surrogate (n up to 2*10^5):")
    picked = [
        surrogate_series(a, pattern, n, step=n)[-1]
        for n in (2_000, 20_000, 200_000)
    ]
    for s in picked:
        gap = abs(s.ratio_surrogate - c)
        print(f"  n={s.n:>7}  ratio={s.ratio_surrogate:.6f}  gap={gap:.6f}")
    print("\nthe surrogate gap shrinks roughly like log n / n; the exact")
    print("engine differs from it by the cyclotomic correction and the")
    print("small-prime slack, both O(n log n) nats")


if __name__ == "__main__":
    main()
