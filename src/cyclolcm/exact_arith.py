"""Big-integer logarithm.

Python's built-in ``int`` is the arbitrary-precision integer used
throughout; `log_big` reads the natural log of one from its bit length and
top 64 bits, so it stays accurate for multi-megabit integers, where
float(x) overflows.

The function is pure, so concurrent callers are safe.
"""

from __future__ import annotations

import math

from .cyclotomic import _check_int

__all__ = ["log_big"]

_LN2 = math.log(2.0)


def log_big(x: int) -> float:
    """Natural log of a positive integer, relative error below 1e-12.

    Works from the bit length plus the top 64 bits, so it never converts
    the full integer to a float; plain float(x) overflows once x exceeds
    ~2**1024, far below the lcm accumulators produced here.
    """
    _check_int("x", x)
    shift = max(x.bit_length() - 64, 0)
    # Truncation drops at most 2**-63 in relative terms; negligible next
    # to float rounding of the two summands.  Below 2**64 nothing is cut
    # and the sum is math.log(x) exactly.
    return math.log(x >> shift) + shift * _LN2
