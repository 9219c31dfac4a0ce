"""Progression covers: divisor-set unions as unions of arithmetic progressions.

For a periodic shift pattern s of period m, the union of the divisor sets
D_k = divisor_set(k, s_k) over the indices k <= x is exactly a finite
union of arithmetic progressions

    { d >= 1 : d ≡ t (mod 2m), d <= theta_t * x },

one slope theta_t per residue t in {1, ..., 2m} (t = 2m stands for the
class ≡ 0).  A ProgressionCover is that family, held as its modulus 2m and
the dict {t: theta_t}; the slopes are exact rationals and the set equality
holds for every x >= 1, which oracle_L lets tests enforce literally.

Why the slopes exist: the first-entry rule.  d lies in D_k iff q = 2k/d
is an integer with s_k = -1 for even q (d divides k) or s_k = +1 for odd q
(2k is an odd multiple of d).  So for any word s_1..s_n, d first enters
the union at T(d) = d*q/2 for the least such q with d*q/2 <= n; that is,
q = min(2*j_minus, j_plus) with j_minus the least j with s_{d*j} = -1 and
j_plus the least odd j with s_{(d/2)*j} = +1.  The exact growth engine
applies the rule to the finite word s_1..s_n (_entry_buckets).  For a periodic word of
period m, d ≡ t (mod 2m) gives d*q/2 ≡ t*q/2 (mod m), so every d of the
class has the q of t, and q + 2m reads the same shift as q, so q <= 2m.
Hence d is in the union at x iff d <= (2/q) * x: theta_t = 2/q, and t has
no class when no q exists.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple, Sequence

from .cyclotomic import _check_int, divisor_set
from .patterns import SignPattern, _shift_list

__all__ = [
    "ProgressionCover",
    "pattern_cover",
    "cover_members",
    "oracle_L",
]


# A NamedTuple class may not define __new__, so the check and the dict copy
# are in a subclass, and _make (behind _replace) goes through it.
class _ProgressionCoverFields(NamedTuple):
    modulus: int
    slopes: dict[int, Fraction]


class ProgressionCover(_ProgressionCoverFields):
    """Finite union of progressions mod `modulus`, at most one per residue."""

    __slots__ = ()

    def __new__(cls, modulus: int, slopes: dict[int, Fraction]) -> ProgressionCover:
        _check_int("modulus", modulus)
        slopes = dict(slopes)
        for t, theta in slopes.items():
            if type(t) is not int or not 1 <= t <= modulus:
                raise ValueError(f"residue {t} outside 1..{modulus}")
            # 0 < theta <= 2 on integers: a Fraction's denominator is positive
            if not 0 < theta.numerator <= 2 * theta.denominator:
                raise ValueError(f"slope for residue {t} out of (0, 2]: {theta}")
        return super().__new__(cls, modulus, slopes)

    @classmethod
    def _make(cls, iterable) -> ProgressionCover:
        return cls(*iterable)

    def __hash__(self) -> int:  # equal dicts hold equal items, in any order
        return hash((self.modulus, frozenset(self.slopes.items())))

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


def _entry_multiplier(word: Sequence[int], t: int, n: int) -> int:
    """Least q >= 1 with k = t*q/2 an index <= n and s_k = +1 for odd q,
    -1 for even q (k taken mod the period), or 0: t enters at k = t*q/2."""
    m, step = len(word), 1 + t % 2  # odd t: only even q give an index
    qs = range(step, 2 * n // t + 1, step)
    return next((q for q in qs if word[(t * q // 2 - 1) % m] == (1 if q % 2 else -1)), 0)


def _entry_buckets(seq: Sequence[int]) -> list[list[int]]:
    """[k]: the d <= 2n with T(d) = k, ascending, for the word seq = s_1..s_n."""
    n = len(seq)
    buckets: list[list[int]] = [[] for _ in range(n + 1)]
    for d in range(1, 2 * n + 1):
        q = _entry_multiplier(seq, d, n)
        if q:
            buckets[d * q // 2].append(d)
    return buckets


def pattern_cover(pattern: SignPattern) -> ProgressionCover:
    """Cover of the full index-set union for a periodic pattern.

    Residue t in 1..2m has the slope 2/q of its entry multiplier q, found
    among q <= 2m (indices k <= t*m); a residue with no q has no class.
    """
    word, m = pattern.word, pattern.period
    slopes: dict[int, Fraction] = {}
    for t in range(1, 2 * m + 1):
        q = _entry_multiplier(word, t, t * m)
        if q:
            slopes[t] = Fraction(2, q)
    return ProgressionCover(2 * m, slopes)


def _cover_entry_masks(covers: Sequence[ProgressionCover], x: int) -> dict[tuple[int, int], int]:
    """{(d, ceil(d / theta_t)): mask of the covers i (bit i) holding d at x}.

    d joins a cover at the least x with d <= theta_t * x, i.e.
    x = ceil(d / theta_t); membership at x is d <= floor(theta_t * x).
    A class (modulus, t, theta) shared by several covers is walked once.
    """
    classes: defaultdict[tuple[int, int, int, int], int] = defaultdict(int)
    for i, cover in enumerate(covers):
        for t, theta in cover.slopes.items():
            classes[cover.modulus, t, theta.numerator, theta.denominator] |= 1 << i
    masks: defaultdict[tuple[int, int], int] = defaultdict(int)
    for (modulus, t, num, den), mask in classes.items():
        for d in range(t, num * x // den + 1, modulus):
            masks[d, -(-d * den // num)] |= mask
    return masks


def cover_members(cover: ProgressionCover, x: int) -> list[int]:
    """All d in the cover evaluated at x, sorted: the d of a one-cover
    _cover_entry_masks batch.

    Membership uses the exact rational comparison d <= theta * x, i.e.
    d <= floor(theta * x) since d is an integer.
    """
    _check_int("x", x)
    return sorted(d for d, _ in _cover_entry_masks([cover], x))


def _entry_masks(batch: Sequence[Sequence[int]], n: int) -> dict[tuple[int, int], int]:
    """{(d, k): mask of the words i (bit i) of batch in whose literal union
    d first enters at k}, over k <= n.

    One walk over k serves every word: the words reading -1 at k form one
    mask, the rest another, and divisor_set(k, s) is fetched once for
    each s that some word reads at k.
    """
    every = (1 << len(batch)) - 1
    entered = [0] * (2 * n + 1)
    masks: dict[tuple[int, int], int] = {}
    bit = {-1: "1", 1: "0"}.__getitem__
    # column k holds s_k of each word, the last word first: word i is bit i
    for k, column in zip(range(1, n + 1), zip(*reversed(batch))):
        minus = int("".join(map(bit, column)), 2)
        for shift, mask in ((-1, minus), (1, every ^ minus)):
            if mask:
                for d in divisor_set(k, shift):
                    new = mask & ~entered[d]
                    if new:
                        masks[d, k] = new
                        entered[d] |= new
    return masks


def oracle_L(shifts: SignPattern | Sequence[int], n: int) -> list[int]:
    """Brute-force union of divisor_set(k, s_k) for k <= n, sorted.

    The independent oracle for the cover calculus: no progressions, just
    the literal definition, read as the d of a one-word _entry_masks
    batch.  Accepts a pattern or an explicit shift list of length >= n.
    """
    _check_int("n", n)
    return sorted(d for d, _ in _entry_masks([_shift_list(shifts, n)], n))
