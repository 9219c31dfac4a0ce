#!/usr/bin/env python3
"""Exact growth constants for every short periodic shift pattern.

For a periodic word s over {-1, +1}, log lcm(a + s_1, ..., a^n + s_n)
grows like C * (log a / pi^2) * n^2 with C an exact rational that does not
depend on a.  This demo computes C for every nonempty word of period <= 5
and cross-checks the 52 primitive entries against the bundled reference
table.
"""

from fractions import Fraction

from cyclolcm import growth_constant, parse_pattern
from cyclolcm.patterns import all_sign_words
from cyclolcm.verify import REFERENCE_CONSTANTS


def main():
    print("pattern   C (exact)      C (float)")
    print("-" * 40)
    mismatches = 0
    for word in all_sign_words(5):
        c = growth_constant(parse_pattern(word)).C
        marker = ""
        expected = REFERENCE_CONSTANTS.get(word)
        if expected is not None and c != expected:
            marker = f"  << expected {expected}"
            mismatches += 1
        print(f"{word:<9} {str(c):<14} {float(c):<12.6f}{marker}")
    print("-" * 40)
    checked = len(REFERENCE_CONSTANTS)
    print(f"{checked} reference entries checked, {mismatches} mismatches")

    # the two extreme period-1 cases bracket most of the table
    lo = growth_constant(parse_pattern("-")).C
    hi = growth_constant(parse_pattern("+")).C
    print(f"\nall-minus constant {lo}, all-plus constant {hi}")
    biggest = max(all_sign_words(5), key=lambda w: growth_constant(parse_pattern(w)).C)
    print(f"largest at period <= 5: {biggest!r} ->",
          growth_constant(parse_pattern(biggest)).C)
    assert growth_constant(parse_pattern(biggest)).C == Fraction(38, 9)


if __name__ == "__main__":
    main()
