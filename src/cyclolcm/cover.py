"""Progression covers: divisor-set unions as unions of arithmetic progressions.

For a periodic shift pattern s of period m, the union of the divisor sets
D_k = divisor_set(k, s_k) over the indices k <= x is exactly a finite
union of arithmetic progressions

    { d >= 1 : d ≡ t (mod 2m), d <= theta_t * x },   theta_t = 2 / q_t,

one slope per residue t in {1, ..., 2m} (t = 2m stands for the class ≡ 0),
each fixed by an integer entry multiplier q_t.  A ProgressionCover is that
family, held as its modulus 2m and the dict {t: q_t}; the set equality
holds for every x >= 1, which oracle_L lets tests enforce literally.

Why the multipliers exist: the first-entry rule.  d lies in D_k iff q = 2k/d
is an integer with s_k = -1 for even q (d divides k) or s_k = +1 for odd q
(2k is an odd multiple of d).  So for any word s_1..s_n, d first enters
the union at T(d) = d*q/2 for the least such q with d*q/2 <= n; that is,
q = min(2*j_minus, j_plus) with j_minus the least j with s_{d*j} = -1 and
j_plus the least odd j with s_{(d/2)*j} = +1.  The exact growth engine
applies the rule to the finite word s_1..s_n (_entry_buckets).  For a periodic word of
period m, d ≡ t (mod 2m) gives d*q/2 ≡ t*q/2 (mod m), so every d of the
class has the q of t, and q + 2m reads the same shift as q, so q <= 2m.
Hence d is in the union at x iff d*q <= 2x, i.e. d <= floor(2x / q):
theta_t = 2/q, and t has no class when no q exists.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple, Sequence

from .cyclotomic import _check_int, _entry_masks
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
    multipliers: dict[int, int]


class ProgressionCover(_ProgressionCoverFields):
    """Finite union of progressions mod `modulus`, at most one per residue t: d <= 2x / q_t."""

    __slots__ = ()

    def __new__(cls, modulus: int, multipliers: dict[int, int]) -> ProgressionCover:
        _check_int("modulus", modulus)
        if not isinstance(multipliers, dict):
            raise ValueError(f"multipliers must be a dict, got {multipliers!r}")
        multipliers = dict(multipliers)
        for t, q in multipliers.items():
            if type(t) is not int or not 1 <= t <= modulus:
                raise ValueError(f"residue {t} outside 1..{modulus}")
            _check_int(f"multiplier for residue {t}", q)
        return super().__new__(cls, modulus, multipliers)

    @classmethod
    def _make(cls, iterable) -> ProgressionCover:
        return cls(*iterable)

    def __hash__(self) -> int:  # equal dicts hold equal items, in any order
        return hash((self.modulus, frozenset(self.multipliers.items())))

    @property
    def slopes(self) -> dict:
        """{t: Fraction(2, q_t)}, built on each read (perfbench/tracer.py counts it)."""
        from fractions import Fraction

        return {t: Fraction(2, q) for t, q in self.multipliers.items()}


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

    Residue t in 1..2m has its entry multiplier q (slope 2/q), found
    among q <= 2m (indices k <= t*m); a residue with no q has no class.
    """
    if not isinstance(pattern, SignPattern):
        raise ValueError(f"pattern must be a SignPattern, got {pattern!r}")
    word, m = pattern.word, pattern.period
    multipliers: dict[int, int] = {}
    for t in range(1, 2 * m + 1):
        q = _entry_multiplier(word, t, t * m)
        if q:
            multipliers[t] = q
    return ProgressionCover(2 * m, multipliers)


def _cover_entry_masks(covers: Sequence[ProgressionCover], x: int) -> dict[tuple[int, int], int]:
    """{(d, ceil(d*q_t / 2)): mask of the covers i (bit i) holding d at x}.

    d joins a cover at the least x with d*q_t <= 2x, i.e.
    x = ceil(d*q_t / 2); membership at x is d <= floor(2x / q_t).
    A class (modulus, t, q) shared by several covers is walked once.
    """
    classes: defaultdict[tuple[int, int, int], int] = defaultdict(int)
    for i, cover in enumerate(covers):
        for t, q in cover.multipliers.items():
            classes[cover.modulus, t, q] |= 1 << i
    masks: defaultdict[tuple[int, int], int] = defaultdict(int)
    for (modulus, t, q), mask in classes.items():
        for d in range(t, 2 * x // q + 1, modulus):
            masks[d, -(-d * q // 2)] |= mask
    return masks


def cover_members(cover: ProgressionCover, x: int) -> list[int]:
    """All d in the cover evaluated at x, sorted: the d of a one-cover
    _cover_entry_masks batch.

    Membership is the exact comparison d <= theta_t * x = 2x / q_t, i.e.
    d <= floor(2x / q_t) since d is an integer.
    """
    if not isinstance(cover, ProgressionCover):
        raise ValueError(f"cover must be a ProgressionCover, got {cover!r}")
    _check_int("x", x)
    return sorted(d for d, _ in _cover_entry_masks([cover], x))


def oracle_L(shifts: SignPattern | Sequence[int], n: int) -> list[int]:
    """Brute-force union of divisor_set(k, s_k) for k <= n, sorted.

    The independent oracle for the cover calculus: no progressions, just
    the literal union L(n) of the one word s_1..s_n, read as the d of
    cyclotomic._entry_masks given that word's masks (bit 0 set where
    s_k = -1).  Accepts a pattern or an explicit shift list of length >= n.
    """
    _check_int("n", n)
    return sorted(d for d, _ in _entry_masks([int(s == -1) for s in _shift_list(shifts, n)], 1))
