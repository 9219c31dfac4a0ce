#!/usr/bin/env python3
"""How a divisor-set union becomes a finite union of progressions.

The indices d whose cyclotomic value divides some shifted power a^k + s_k
with k <= n form the union L(n) of divisor sets.  For a periodic pattern
this union is exactly a finite family of arithmetic progressions
d ≡ t (mod 2m), d <= theta_t * n, with theta_t = 2/q_t for the class's
entry multiplier q_t — this demo prints that family for a few patterns and
confirms the set equality against brute force.
"""

from fractions import Fraction

from cyclolcm import cover_members, oracle_L, parse_pattern, pattern_cover


def show(word, n_check=60):
    pattern = parse_pattern(word)
    cover = pattern_cover(pattern)
    print(f"pattern {word!r}: modulus {cover.modulus}")
    for t, q in sorted(cover.multipliers.items()):
        print(f"  d = {t} (mod {cover.modulus})  up to {Fraction(2, q)} * n")
    members = cover_members(cover, n_check)
    oracle = oracle_L(pattern, n_check)
    status = "exact match" if members == oracle else "MISMATCH"
    print(f"  at n={n_check}: {len(members)} members, brute-force union: {status}")
    print(f"  first members: {members[:12]}")
    print()


def main():
    for word in ("-", "+", "+-", "--+", "-+-++"):
        show(word)

    # the all-plus pattern only ever contributes even indices, with slope 2
    cover = pattern_cover(parse_pattern("+"))
    assert cover.multipliers == {2: 1}
    print("all-plus cover is the single class d ≡ 2 (mod 2), d <= 2n:",
          cover_members(cover, 5))


if __name__ == "__main__":
    main()
