"""Progression covers: divisor-set unions as unions of arithmetic progressions.

For a residue class of indices k <= x with k ≡ r (mod m) and one shift u,
the union of the divisor sets D_k = divisor_set(k, u) is exactly a finite
union of arithmetic progressions

    { d >= 1 : d ≡ t (mod 2m), d <= theta_t * x },

one slope theta_t per residue t in {1, ..., 2m} (t = 2m stands for the
class ≡ 0).  A ProgressionCover is that family, held as its modulus 2m and
the dict {t: theta_t}; the slopes are exact rationals and the set equality
holds for every x >= 1, which oracle_L lets tests enforce literally.

Why the slopes exist: for u = -1, d divides some k ≡ r (mod m) with k <= x
iff the congruence d*j ≡ r (mod m) has a solution, and then the smallest
positive solution j0 (which depends only on t = d mod 2m) gives membership
iff d*j0 <= x, i.e. theta = 1/j0.  For u = +1, d lies in D_k iff 2k is
an odd multiple of d, so the congruence becomes d*j ≡ 2r (mod 2m) with j
odd; scanning the two smallest positive solutions finds the least odd one
(or shows the class has a fixed wrong parity and is excluded), giving
theta = 2/j0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .cyclotomic import divisor_set
from .patterns import SignPattern, _shift_list

__all__ = [
    "ProgressionCover",
    "single_cover",
    "merge_covers",
    "pattern_cover",
    "cover_members",
    "oracle_L",
]


@dataclass(frozen=True)
class ProgressionCover:
    """Finite union of progressions mod `modulus`, at most one per residue."""

    modulus: int
    slopes: dict[int, Fraction]

    def __post_init__(self) -> None:
        for t, theta in self.slopes.items():
            if not 1 <= t <= self.modulus:
                raise ValueError(f"residue {t} outside 1..{self.modulus}")
            if not 0 < theta <= 2:
                raise ValueError(f"slope for residue {t} out of (0, 2]: {theta}")

    def to_json_obj(self) -> dict:
        return {
            "modulus": self.modulus,
            "classes": [
                {
                    "t": t,
                    "theta": {"num": th.numerator, "den": th.denominator},
                }
                for t, th in sorted(self.slopes.items())
            ],
        }


def _min_positive_solution(c: int, rhs: int, mod: int) -> int:
    """Smallest j >= 1 with c*j ≡ rhs (mod mod); gcd(c, mod) must divide rhs."""
    if mod == 1:
        return 1
    j = (rhs * pow(c, -1, mod)) % mod
    return j if j > 0 else mod


def single_cover(r: int, m: int, u: int) -> ProgressionCover:
    """Cover of the union of divisor sets over indices k ≡ r (mod m), k <= x.

    u = -1 selects minus(k), u = +1 selects plus(k).  The result may be
    empty (e.g. no odd divisor ever appears for u = +1).
    """
    if not 1 <= r <= m:
        raise ValueError(f"residue r={r} outside 1..{m}")
    if u not in (-1, 1):
        raise ValueError(f"shift u must be -1 or +1, got {u}")
    mod = 2 * m
    slopes: dict[int, Fraction] = {}
    for t in range(1, mod + 1):
        if u == -1:
            g = math.gcd(t, m)
            if r % g:
                continue
            j0 = _min_positive_solution((t // g) % (m // g) or m // g, r // g, m // g)
            slopes[t] = Fraction(1, j0)
        else:
            g = math.gcd(t, mod)
            if (2 * r) % g:
                continue
            step = mod // g
            base = _min_positive_solution((t // g) % step or step, (2 * r) // g, step)
            # Solutions are base + i*step; only an odd multiplier j makes
            # d*j = 2k with d not dividing k.  Two consecutive candidates
            # decide: if step is even the parity is fixed.
            for j0 in (base, base + step):
                if j0 % 2 == 1:
                    slopes[t] = Fraction(2, j0)
                    break
    return ProgressionCover(mod, slopes)


def merge_covers(covers: Iterable[ProgressionCover]) -> ProgressionCover:
    """Union of covers over a shared modulus: per-residue maximum slope."""
    covers = list(covers)
    if not covers:
        raise ValueError("merge_covers needs at least one cover")
    mod = covers[0].modulus
    if any(c.modulus != mod for c in covers):
        raise ValueError("covers must share a modulus")
    slopes: dict[int, Fraction] = {}
    for c in covers:
        for t, theta in c.slopes.items():
            if theta > slopes.get(t, Fraction(0)):
                slopes[t] = theta
    return ProgressionCover(mod, slopes)


def pattern_cover(pattern: SignPattern) -> ProgressionCover:
    """Cover of the full index-set union for a periodic pattern.

    Merges single_cover(r, m, u) over both shifts u and the residues r in
    1..m where the pattern takes the value u.  Merging is a per-residue
    max, hence idempotent and independent of enumeration order.
    """
    m = pattern.period
    singles = [
        single_cover(r, m, u)
        for u in (-1, 1)
        for r in range(1, m + 1)
        if pattern.word[r - 1] == u
    ]
    return merge_covers(singles)


def cover_members(cover: ProgressionCover, x: int) -> list[int]:
    """All d in the cover evaluated at x, sorted.

    Membership uses the exact rational comparison d <= theta * x, i.e.
    d <= floor(theta * x) since d is an integer.
    """
    if x < 1:
        raise ValueError(f"cover_members requires x >= 1, got {x}")
    out: set[int] = set()
    for t, theta in cover.slopes.items():
        limit = theta.numerator * x // theta.denominator
        out.update(range(t, limit + 1, cover.modulus))
    return sorted(out)


def oracle_L(shifts: SignPattern | Sequence[int], n: int) -> list[int]:
    """Brute-force union of divisor_set(k, s_k) for k <= n, sorted.

    The independent oracle for the cover calculus: no progressions, just
    the literal definition.  Accepts a pattern or an explicit shift list
    of length >= n.
    """
    if n < 1:
        raise ValueError(f"oracle_L requires n >= 1, got {n}")
    seq = _shift_list(shifts, n)
    out: set[int] = set()
    for k in range(1, n + 1):
        out.update(divisor_set(k, seq[k - 1]))
    return sorted(out)
