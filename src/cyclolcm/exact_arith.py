"""Big-integer primitives: the p-adic valuation and an accurate logarithm.

Python's built-in ``int`` is the arbitrary-precision integer used throughout
and ``fractions.Fraction`` the exact rational; this module adds the two
operations the rest of the package needs on top of them: the exponent of a
prime in an integer, and a logarithm that stays accurate for multi-megabit
integers.

All values are immutable and every function here is pure, so concurrent
callers are safe.
"""

from __future__ import annotations

import math

__all__ = ["valuation", "log_big"]

_LN2 = math.log(2.0)


def valuation(p: int, x: int) -> int:
    """Largest v with p**v dividing x.  p must be prime, x nonzero."""
    if p < 2:
        raise ValueError(f"valuation needs a prime base, got {p}")
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def log_big(x: int) -> float:
    """Natural log of a positive integer, relative error below 1e-12.

    Works from the bit length plus the top 64 bits, so it never converts
    the full integer to a float; plain float(x) overflows once x exceeds
    ~2**1024, far below the lcm accumulators produced here.
    """
    if x <= 0:
        raise ValueError(f"log_big requires x >= 1, got {x}")
    nbits = x.bit_length()
    if nbits <= 64:
        return math.log(x)
    shift = nbits - 64
    # Truncation drops at most 2**-63 in relative terms; negligible next
    # to float rounding of the two summands.
    return math.log(x >> shift) + shift * _LN2
