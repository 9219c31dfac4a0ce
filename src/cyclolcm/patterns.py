"""Shift sequences: periodic sign patterns and seeded random +-1 streams.

A periodic pattern is a nonempty word over {-1, +1}, written externally as
a string of '-' and '+' characters ("-++" means s1=-1, s2=+1, s3=+1,
repeating with period 3).

Random shifts come from SplitMix64, chosen because it is a named, widely
specified 64-bit generator that is trivial to reproduce bit-for-bit on any
platform.  Shift i is +1 when the top bit of the i-th SplitMix64 output is
set, else -1.  Independent per-trial streams are derived as

    sub_seed(seed, trial) = seed XOR mix64(trial)

where mix64 is the SplitMix64 output function (golden-gamma increment
followed by the xor-multiply finalizer), so output i of the stream seeded
with s is mix64(s + (i - 1) * gamma).  Every output is a function of its
seed and index alone, which keeps Monte Carlo trials reproducible however
they are batched.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .cyclotomic import _check_int, _check_shift

if TYPE_CHECKING:  # at run time numpy loads only in the functions that build arrays
    import numpy as np

__all__ = [
    "MAX_PERIOD",
    "SignPattern",
    "parse_pattern",
    "all_sign_words",
    "random_shifts",
    "subseed",
]

# Caps the size of pattern input.  The cover needs no such bound; the cap
# stays until a resource preflight checks what larger periods cost.
MAX_PERIOD = 64

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


# A NamedTuple class may not define __new__, so the check and the tuple copy
# are in a subclass, and _make (behind _replace) goes through it.
class _SignPatternFields(NamedTuple):
    word: tuple[int, ...]


class SignPattern(_SignPatternFields):
    """Nonempty periodic word over {-1, +1}."""

    __slots__ = ()

    def __new__(cls, word: Sequence[int]) -> SignPattern:
        try:
            word = tuple(word)
        except TypeError:
            raise ValueError(f"word must be a sequence, got {word!r}") from None
        if not word:
            raise ValueError("pattern must be nonempty")
        if len(word) > MAX_PERIOD:
            raise ValueError(f"pattern length {len(word)} exceeds limit {MAX_PERIOD}")
        for s in word:
            _check_shift(s)
        return super().__new__(cls, word)

    @classmethod
    def _make(cls, iterable) -> SignPattern:
        return cls(*iterable)

    @property
    def period(self) -> int:
        return len(self.word)

    def shifts(self, n: int) -> list[int]:
        """First n shifts s_1..s_n."""
        _check_int("n", n)
        return list(itertools.islice(itertools.cycle(self.word), n))

    def __str__(self) -> str:
        return "".join("+" if s == 1 else "-" for s in self.word)


def parse_pattern(text: str) -> SignPattern:
    """Parse a '-'/'+' word; errors name the first offending position."""
    if not isinstance(text, str):
        raise ValueError(f"pattern must be a str, got {text!r}")
    if not text:
        raise ValueError("empty pattern")
    if len(text) > MAX_PERIOD:
        raise ValueError(
            f"pattern too long at position {MAX_PERIOD + 1}: "
            f"length {len(text)} exceeds limit {MAX_PERIOD}"
        )
    word = []
    for pos, ch in enumerate(text, start=1):
        if ch == "-":
            word.append(-1)
        elif ch == "+":
            word.append(1)
        else:
            raise ValueError(f"invalid character {ch!r} at position {pos}")
    return SignPattern(tuple(word))


def all_sign_words(max_period: int) -> list[str]:
    """Every nonempty '-'/'+' word of length <= max_period, sorted.

    Lexicographic with '-' before '+' (the numeric order of the shifts),
    shorter words first.
    """
    _check_int("max_period", max_period)
    return [
        "".join(word)
        for length in range(1, max_period + 1)
        for word in itertools.product("-+", repeat=length)
    ]


def _shift_list(shifts: SignPattern | Sequence[int], n: int) -> list[int]:
    """s_1..s_n from a pattern, or the first n entries of an explicit list.
    A SignPattern is a tuple too, hence a Sequence: it is tested for first."""
    if isinstance(shifts, SignPattern):
        return shifts.shifts(n)
    try:
        count, seq = len(shifts), list(shifts[:n])
    except TypeError:
        raise ValueError(f"shifts must be a SignPattern or a sequence, got {shifts!r}") from None
    if count < n:
        raise ValueError(f"need at least {n} shifts, got {count}")
    for s in seq:
        _check_shift(s)
    return seq


def _mix64(x: int | np.ndarray) -> int | np.ndarray:
    """SplitMix64 output function applied to raw 64-bit states.

    Exact on a Python int and on a uint64 array alike: each add and
    multiply is reduced mod 2^64, which on the array is the wraparound
    numpy already does.  The steps are augmented assignments, so on the
    array every one after the first add works in place (only the shifts
    make temporaries) and `x` is left as it is.
    """
    z = x + _GOLDEN
    z &= _MASK64
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _MASK64
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK64
    z ^= z >> 31
    return z


def _check_seed(seed: int, name: str = "seed") -> None:
    """Refuse a seed or trial index that is not a Python int in 0..2^64 - 1."""
    _check_int(name, seed, 0)
    if seed > _MASK64:
        raise ValueError(f"{name} must fit in 64 bits, got {seed}")


def subseed(seed: int, trial_index: int) -> int:
    """Per-trial sub-seed: seed XOR mix64(trial_index)."""
    _check_seed(seed)
    _check_seed(trial_index, "trial_index")
    return seed ^ _mix64(trial_index)


def _plus_rows(seeds: np.ndarray, n: int) -> np.ndarray:
    """Boolean (len(seeds), n) matrix: [r, i - 1] is s_i == +1 for seeds[r].

    Shift i is +1 iff the top bit of mix64(seed + (i - 1) * gamma) is set.
    """
    import numpy as np

    states = seeds[:, None] + _GOLDEN * np.arange(n, dtype=np.uint64)
    return (_mix64(states) >> 63).astype(bool)


def random_shifts(seed: int, n: int) -> list[int]:
    """First n shifts of the stream seeded with `seed`."""
    _check_seed(seed)
    _check_int("n", n)
    return [1 if _mix64(seed + i * _GOLDEN) >> 63 else -1 for i in range(n)]
