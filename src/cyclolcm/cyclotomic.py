"""Multiplicative number theory: totients, divisors, cyclotomic values.

Provides the Euler totient, the divisor sets carried by a^n - 1 and
a^n + 1, and exact cyclotomic values.  The divisor set of
a^n + s for a shift s in {-1, +1} is

    s = -1:  all divisors of n,
    s = +1:  divisors of 2n that do not divide n   (all even),

so that a^n + s factors over it as a product of cyclotomic values.
Beside them, _entry_masks walks the literal divisor-set union of a batch of
shift words: the one brute-force reference of the cover and random-model oracles.

Factorizations come from trial division.  They and the sorted divisor
tuples are memoised with functools.cache, as both are read again for the
same n; `divisors` and `divisor_set` hand out fresh lists.
"""

from __future__ import annotations

import math
from functools import cache
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # at run time numpy loads only in the functions that build arrays
    import numpy as np

__all__ = [
    "totient",
    "totient_sieve",
    "divisors",
    "divisor_set",
    "cyclotomic_value",
]


def _check_int(name: str, value: int, low: int = 1) -> None:
    """Refuse a value that is not a Python int >= low; bool and float are
    refused too.  Every public index, count, base and seed goes through it."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _check_shift(s: int) -> None:
    if type(s) is not int or s not in (-1, 1):
        raise ValueError(f"shift must be -1 or +1, got {s!r}")


@cache
def _factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by memoised trial division; every
    caller gets the same dict for the same n, to read and never change."""
    _check_int("n", n)
    m = n
    fac: dict[int, int] = {}
    for p in (2, 3):
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    p = 5
    while p * p <= m:
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
        p += 2 if p % 6 == 5 else 4  # skip multiples of 2 and 3
    if m > 1:
        fac[m] = fac.get(m, 0) + 1
    return fac


def totient(n: int) -> int:
    """Euler's phi: count of 1 <= k <= n coprime to n."""
    _check_int("n", n)
    result = n
    for p in _factorize(n):
        result = result // p * (p - 1)
    return result


# Entries per block of two whole-array loops: the segmented totient sieve
# and the surrogate's class prefix sums (growth.surrogate_series).  Big
# enough that each block's numpy calls are cheap, small enough that a
# block stays in cache: the sieve's temporaries over a block's odd entries
# (at most 0.75 MB), and the 512 KB of int64 sums that a cumsum down the
# columns walks, which across the whole table would miss cache at every
# row when the row length is a power of two.
SIEVE_BLOCK = 1 << 16


def totient_sieve(limit: int) -> np.ndarray:
    """Array phi with phi[n] = totient(n) for 0 <= n <= limit (phi[0] = 0).

    Prime-factor recurrence (the linear sieve of Gries and Misra uses it
    with the least prime factor; it holds for any prime p | n): with
    m = n / p,

        phi(n) = phi(m) * (p if p | m else p - 1),

    and for p = 2 it reads phi(2e) = phi(e) * (2 if e is even else 1).

    Segmented: each block [lo, hi) holds at most SIEVE_BLOCK entries and
    never crosses a power of two, so hi <= 2 * lo and every m <= n / 2 < lo
    is already filled in.  The even entries of a block are copied from
    their halves and doubled where n is a multiple of 4.  On the odd
    entries each odd prime p <= sqrt(hi - 1), read off the filled entries
    below lo as a p with phi(p) = p - 1, is written onto its multiples, so
    every odd composite n is marked with one of its primes; an entry
    left unmarked is a prime n, with p = n and m = 1.  One division, one
    gather and one multiply then fill the odd entries, with the factor p
    or p - 1 made in place of p.  The block temporaries m and p are int32
    whenever every n fits in it, so that division runs in 32 bits.
    """
    _check_int("limit", limit)
    import numpy as np

    phi = np.empty(limit + 1, dtype=np.int64)
    phi[:2] = (0, 1)
    block_dtype = np.int32 if limit < 2**31 else np.int64
    lo = 2
    while lo <= limit:
        hi = min(lo + SIEVE_BLOCK, 1 << lo.bit_length(), limit + 1)
        phi[lo + lo % 2 : hi : 2] = phi[(lo + 1) // 2 : (hi + 1) // 2]
        phi[lo + -lo % 4 : hi : 4] *= 2
        odd = lo | 1
        m = np.arange(odd, hi, 2, dtype=block_dtype)
        p = m.copy()
        small = np.arange(3, math.isqrt(hi - 1) + 1, 2)  # all below lo: phi is final
        for q in small[phi[small] == small - 1].tolist():  # odd + 2i ≡ 0 (mod q) at i ≡ -odd/2
            p[-odd * (q + 1) // 2 % q :: q] = q
        m //= p
        p -= m % p != 0
        np.multiply(phi[m], p, out=phi[odd:hi:2])
        lo = hi
    return phi


@cache
def _divisor_tuple(n: int) -> tuple[int, ...]:
    """Sorted positive divisors of n, memoised."""
    divs = [1]
    for p, e in _factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def _v2(x: int) -> int:
    """2-adic valuation of a nonzero int: the exponent of its lowest set bit."""
    return (x & -x).bit_length() - 1


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors of n (a fresh list)."""
    _check_int("n", n)
    return list(_divisor_tuple(n))


def divisor_set(k: int, shift: int) -> list[int]:
    """Sorted divisor set D_k of the shifted power a^k + shift.

    shift = -1 gives the divisors of k; shift = +1 gives the divisors of
    2k that do not divide k, that is 2^(v+1) times each divisor of k / 2^v
    with v = v_2(k).  A shift other than the int -1 or +1 raises ValueError.
    """
    _check_int("k", k)
    _check_shift(shift)
    if shift == -1:
        return divisors(k)
    v = _v2(k)
    return [d << (v + 1) for d in _divisor_tuple(k >> v)]


def _entry_masks(minus: Sequence[int], every: int) -> dict[tuple[int, int], int]:
    """{(d, k): mask of the words (bit i = word i) in whose literal union
    d first enters at k}, for k <= len(minus).  minus[k-1] masks the words
    reading -1 at k; the rest of `every` read +1.  One walk over k serves
    every word, fetching divisor_set(k, s) once per s that some word reads."""
    entered = [0] * (2 * len(minus) + 1)
    masks: dict[tuple[int, int], int] = {}
    for k, mask in enumerate(minus, 1):
        for shift, words in ((-1, mask), (1, every ^ mask)):
            if words:
                for d in divisor_set(k, shift):
                    new = words & ~entered[d]
                    if new:
                        masks[d, k] = new
                        entered[d] |= new
    return masks


def cyclotomic_value(n: int, a: int) -> int:
    """Value of the n-th cyclotomic polynomial at an integer a >= 2.

    Evaluates prod_{d|n} (a^(n/d) - 1)^mu(d) as a quotient of two big
    integer products instead of materializing coefficients; the division
    is exact and there is no coefficient blowup.  Only the 2^omega(n)
    squarefree d contribute, with mu(d) = (-1)^(number of primes of d).
    """
    _check_int("n", n)
    _check_int("a", a, 2)
    squarefree = [(1, 1)]  # (d, mu(d))
    for p in _factorize(n):
        squarefree += [(d * p, -mu) for d, mu in squarefree]
    num = 1
    den = 1
    for d, mu in squarefree:
        if mu == 1:
            num *= a ** (n // d) - 1
        else:
            den *= a ** (n // d) - 1
    value, rem = divmod(num, den)
    assert rem == 0, f"cyclotomic value not integral for n={n}, a={a}"
    return value
