"""Exact growth constants and the random model's dilogarithm constant.

The density constant

    c(r, m) = (1/m) * prod_{p | m, p | r} (1 + 1/p)^-1
                    * prod_{p | m, p not | r} (1 - 1/p^2)^-1

governs totient sums over the progression r mod m.  For a periodic sign
pattern with cover {(t, theta_t) mod 2m}, the growth constant is the exact
rational

    C = 3 * sum_t c(t, 2m) * theta_t^2 ,

and log lcm(a + s_1, ..., a^n + s_n) grows like C * (log a / pi^2) * n^2.
For uniformly random shifts the constant is 6 * Li2(1/2) instead, where
Li2(1/2) = (pi^2 - 6 log^2 2) / 12.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .cyclotomic import _factorize
from .patterns import SignPattern

if TYPE_CHECKING:  # `random` reads only random_model_constant: cover and fractions load on use
    from fractions import Fraction

    from .cover import ProgressionCover

__all__ = [
    "GrowthConstant",
    "growth_constant",
    "random_model_constant",
]


class GrowthConstant(NamedTuple):
    """Exact constant C for a pattern, with its cover kept as provenance."""

    pattern: SignPattern
    C: Fraction
    cover: ProgressionCover

    def to_json_obj(self) -> dict:
        return {
            "pattern": str(self.pattern),
            "C": {"num": self.C.numerator, "den": self.C.denominator},
            "C_float": float(self.C),
            "cover": self.cover.to_json_obj(),
        }


def growth_constant(pattern: SignPattern) -> GrowthConstant:
    """Exact rational growth constant for a periodic pattern.

    Assembled purely from the pattern's progression cover so that the
    constant inherits whatever trust the oracle-tested cover has; no
    per-pattern shortcuts.  The value does not depend on the base a.
    """
    import fractions

    from .cover import pattern_cover

    cover = pattern_cover(pattern)
    modulus = cover.modulus
    primes = list(_factorize(modulus))
    # c(t, M) = w_t / (M * prod_{p | M} (p^2 - 1)) with the integer
    # w_t = prod_{p | M} (p(p - 1) if p | t else p^2); sum w_t * num(theta)^2
    # per den(theta)^2, then over their common multiple.
    by_den: dict[int, int] = {}
    for t, theta in cover.slopes.items():
        w = theta.numerator**2
        for p in primes:
            w *= p * (p - 1) if t % p == 0 else p * p
        den = theta.denominator**2
        by_den[den] = by_den.get(den, 0) + w
    common = math.lcm(*by_den)
    total = sum(w * (common // den) for den, w in by_den.items())
    scale = modulus * math.prod(p * p - 1 for p in primes) * common
    return GrowthConstant(pattern, fractions.Fraction(3 * total, scale), cover)


def random_model_constant() -> float:
    """The random-shift growth constant 6 * Li2(1/2) ~= 3.4934431587900,
    by Euler's closed form of Li2(1/2)."""
    return math.pi**2 / 2 - 3 * math.log(2) ** 2
