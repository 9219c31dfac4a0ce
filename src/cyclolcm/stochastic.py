"""Random-shift model: exact expectations, variance bound, Monte Carlo.

With shifts drawn independently and uniformly from {-1, +1}, the chance
that an index d has NOT entered the divisor-set union after n steps is
2^-(number of k <= n with d | 2k) = 2^-floor(n*gcd(2,d)/d), so

    E[indicator(n, d)] = 1 - 2^-floor(n*gcd(2,d)/d)

exactly, with a matching product formula for pairs that depends on whether
the joint index set is empty ([d1,d2] > 2n) and on the 2-adic valuations.
The totient-weighted sum X = sum_{d<=2n} phi(d) * indicator(n, d) then has
E[X] ~ (6/pi^2) * Li2(1/2) * n^2 and variance O(n^3), which Chebyshev
turns into concentration.

Everything here is either an exact rational (Fraction, denominators powers
of two) or a reproducible seeded simulation.  For n <= 12 the module can
enumerate all 2^n shift words outright; that exhaustive oracle is what the
tests use to adjudicate the expectation formulas, floors and all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .constants import random_model_constant
from .cyclotomic import totient, totient_sieve
from .patterns import _plus_rows, subseed

if TYPE_CHECKING:  # at run time numpy loads only in the functions that build arrays
    import numpy as np

__all__ = [
    "EXACT_EXPECTATION_CAP",
    "EXHAUSTIVE_CAP",
    "TrialResult",
    "MonteCarloSummary",
    "indicator_expectation",
    "pair_expectation",
    "expected_X",
    "variance_bound",
    "gcd_pair_sum",
    "monte_carlo",
    "exhaustive_trials",
    "exhaustive_indicator_tables",
]

EXACT_EXPECTATION_CAP = 2000
EXHAUSTIVE_CAP = 20
# Cells of one Monte Carlo batch: trials run max(1, MC_BLOCK_CELLS // n)
# at a time through one shift matrix and one union kernel call, so memory
# grows with neither the trial count nor n times a batch of rows.
MC_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class TrialResult:
    seed: int
    trial_index: int
    n: int
    X: int
    ratio: float  # pi^2 * X / n^2, the base-independent normalized value


@dataclass(frozen=True)
class MonteCarloSummary:
    n: int
    trials: int
    mean_X: float
    var_X: float | None  # sample variance; None for a single trial
    mean_ratio: float
    theory_ratio: float
    abs_gap: float

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "trials": self.trials,
            "mean_X": self.mean_X,
            "var_X": self.var_X,
            "mean_ratio": self.mean_ratio,
            "theory_ratio": self.theory_ratio,
            "abs_gap": self.abs_gap,
        }


def _floor_exponent(n: int, d: int) -> int:
    """floor(n * gcd(2, d) / d) = #{k <= n : d | 2k}."""
    return n * math.gcd(2, d) // d


def indicator_expectation(n: int, d: int) -> Fraction:
    """Exact probability that d lies in the random divisor-set union."""
    if n < 1 or d < 1:
        raise ValueError(f"indicator_expectation requires n, d >= 1, got ({n}, {d})")
    e = _floor_exponent(n, d)
    return 1 - Fraction(1, 2**e)


def pair_expectation(n: int, d1: int, d2: int) -> Fraction:
    """Exact expectation of the product of two membership indicators.

    Case split: if [d1, d2] <= 2n and the 2-adic valuations differ, some
    single shift forces one of d1, d2 into the union, so the joint-miss
    probability vanishes.  Otherwise the misses behave like a product over
    the union of the two index sets, giving the explicit power of two.
    """
    if n < 1 or d1 < 1 or d2 < 1:
        raise ValueError(
            f"pair_expectation requires n, d1, d2 >= 1, got ({n}, {d1}, {d2})"
        )
    e1 = _floor_exponent(n, d1)
    e2 = _floor_exponent(n, d2)
    lcm12 = d1 // math.gcd(d1, d2) * d2
    base = 1 - Fraction(1, 2**e1) - Fraction(1, 2**e2)
    nu1 = (d1 & -d1).bit_length() - 1
    nu2 = (d2 & -d2).bit_length() - 1
    if lcm12 <= 2 * n and nu1 != nu2:
        return base
    e12 = _floor_exponent(n, lcm12)
    return base + Fraction(1, 2 ** (e1 + e2 - e12))


def expected_X(n: int, mode: str = "exact") -> Fraction | float:
    """E[X] = sum_{d <= 2n} phi(d) * (1 - 2^-floor(n*gcd(2,d)/d)).

    mode="exact" returns the Fraction (denominator a power of two up to
    2^n, hence the cap) and takes each phi(d) from totient(d), building no
    array; mode="float" sums in float64 over a sieve and scales to any n.
    """
    if n < 1:
        raise ValueError(f"expected_X requires n >= 1, got {n}")
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    if mode == "exact" and n > EXACT_EXPECTATION_CAP:
        raise ValueError(
            f"exact mode limited to n <= {EXACT_EXPECTATION_CAP} (denominators "
            f"reach 2^n); requested n={n}, use mode='float'"
        )
    if mode == "float":
        import numpy as np

        phi = totient_sieve(2 * n)
        d = np.arange(1, 2 * n + 1)
        terms = phi[1:] * (1.0 - np.ldexp(1.0, -(n * np.gcd(2, d) // d)))
        # cumsum adds left to right, as a Python loop would; np.sum is
        # pairwise and may differ in the last bit.
        return float(np.cumsum(terms)[-1])
    # Group by exponent so the Fraction sum has one shared denominator.
    phi_by_exp: dict[int, int] = {}
    phi_total = 0
    for d in range(1, 2 * n + 1):
        e = _floor_exponent(n, d)
        phi_d = totient(d)
        phi_by_exp[e] = phi_by_exp.get(e, 0) + phi_d
        phi_total += phi_d
    emax = max(phi_by_exp)
    numerator = sum(w << (emax - e) for e, w in phi_by_exp.items())
    return phi_total - Fraction(numerator, 1 << emax)


def _coprime_pairs_upto(limit: int):
    """Yield ordered coprime pairs (a1, a2), a1*a2 <= limit, a1 <= a2."""
    for a1 in range(1, limit + 1):
        if a1 * a1 > limit:
            break
        for a2 in range(a1, limit // a1 + 1):
            if math.gcd(a1, a2) == 1:
                yield a1, a2


def variance_bound(n: int) -> float:
    """Explicit upper bound for Var[X].

    Sums d1*d2 * 2^-(e1+e2-e12) * (1 - 2^-e12) over ordered pairs with
    [d1, d2] <= 2n, enumerated through gcd d and coprime cofactors so the
    pair count stays near-linear in n (times log^2).
    """
    if n < 1:
        raise ValueError(f"variance_bound requires n >= 1, got {n}")
    two_n = 2 * n
    total = 0.0
    for d in range(1, two_n + 1):
        lim = two_n // d
        for a1, a2 in _coprime_pairs_upto(lim):
            d1 = d * a1
            d2 = d * a2
            e1 = _floor_exponent(n, d1)
            e2 = _floor_exponent(n, d2)
            e12 = _floor_exponent(n, d * a1 * a2)
            term = d1 * d2 * 2.0 ** (e12 - e1 - e2) * (1.0 - 2.0 ** (-e12))
            total += term if a1 == a2 else 2.0 * term
    return total


def gcd_pair_sum(n: int) -> int:
    """S(n) = sum of gcd(d1, d2) over ordered pairs with [d1, d2] <= n.

    Decomposed as sum_d d * #{coprime (a1, a2) : a1*a2 <= n/d}; grows
    like n^2.
    """
    if n < 1:
        raise ValueError(f"gcd_pair_sum requires n >= 1, got {n}")
    total = 0
    for d in range(1, n + 1):
        lim = n // d
        count = 0
        for a1, a2 in _coprime_pairs_upto(lim):
            count += 1 if a1 == a2 else 2
        total += d * count
    return total


def _union_rows(plus: np.ndarray) -> np.ndarray:
    """Membership flags of L(n) over d = 0..2n, one row per shift word.

    `plus` is a boolean (rows, n) matrix, plus[r, k - 1] meaning s_k = +1.
    d is in L(n) iff some multiple k <= n of d has s_k = -1, or d = 2e and
    some odd multiple k <= n of e has s_k = +1.  Divisors d <= sqrt(n) take
    one strided `any` over their multiples; the larger ones are handled
    together, one strided slice per multiplier j <= n / (sqrt(n) + 1), so
    the kernel makes O(sqrt(n)) numpy calls.
    """
    import numpy as np

    rows, n = plus.shape
    minus = ~plus
    flags = np.zeros((rows, 2 * n + 1), dtype=bool)
    doubled = flags[:, ::2]  # doubled[:, e] is the flag of d = 2e
    root = math.isqrt(n)
    for d in range(1, root + 1):
        flags[:, d] |= minus[:, d - 1 :: d].any(axis=1)
        doubled[:, d] |= plus[:, d - 1 :: 2 * d].any(axis=1)
    for j in range(1, n // (root + 1) + 1):
        cols = slice(root + 1, n // j + 1)
        ks = slice(j * (root + 1) - 1, j * (n // j), j)
        flags[:, cols] |= minus[:, ks]
        if j % 2:
            doubled[:, cols] |= plus[:, ks]
    return flags


def _summarize(results: list[TrialResult], n: int) -> MonteCarloSummary:
    import numpy as np

    xs = np.array([r.X for r in results], dtype=np.float64)
    mean_x = float(xs.mean())
    var_x = float(xs.var(ddof=1)) if len(xs) > 1 else None
    mean_ratio = float(np.mean([r.ratio for r in results]))
    theory = random_model_constant()
    return MonteCarloSummary(
        n=n,
        trials=len(results),
        mean_X=mean_x,
        var_X=var_x,
        mean_ratio=mean_ratio,
        theory_ratio=theory,
        abs_gap=abs(mean_ratio - theory),
    )


def monte_carlo(
    a: int,
    n: int,
    trials: int,
    seed: int,
) -> tuple[list[TrialResult], MonteCarloSummary]:
    """Seeded Monte Carlo estimate of X over independent shift words.

    Trial t uses the stream seeded with subseed(seed, t), so results are
    reproducible bit-for-bit whatever the batching (see MC_BLOCK_CELLS).
    The base a only matters for provenance: X and the normalized ratio
    pi^2 * X / n^2 are base-free.
    """
    import numpy as np

    if a < 2:
        raise ValueError(f"base a must be >= 2, got {a}")
    if n < 1 or trials < 1:
        raise ValueError(f"n and trials must be >= 1, got ({n}, {trials})")
    phi = totient_sieve(2 * n)
    norm = math.pi**2 / (n * n)
    rows = max(1, MC_BLOCK_CELLS // n)
    results = []
    for lo in range(0, trials, rows):
        block = range(lo, min(lo + rows, trials))
        seeds = [subseed(seed, t) for t in block]
        flags = _union_rows(_plus_rows(np.array(seeds, dtype=np.uint64), n))
        for t, s, row in zip(block, seeds, flags):
            x = int(phi[row].sum())
            results.append(TrialResult(s, t, n, x, x * norm))
    return results, _summarize(results, n)


def _all_words(n: int) -> np.ndarray:
    """All 2^n shift words as rows; bit k-1 of the row index set means s_k = +1."""
    import numpy as np

    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)


def exhaustive_trials(n: int) -> tuple[list[int], Fraction]:
    """X for every one of the 2^n shift words, plus the exact mean.

    The enumeration oracle behind the expectation formulas; limited to
    n <= EXHAUSTIVE_CAP.
    """
    if not 1 <= n <= EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive mode requires 1 <= n <= {EXHAUSTIVE_CAP}")
    phi = totient_sieve(2 * n)
    xs = [int(phi[row].sum()) for row in _union_rows(_all_words(n))]
    return xs, Fraction(sum(xs), len(xs))


def exhaustive_indicator_tables(
    n: int,
) -> tuple[dict[int, Fraction], dict[tuple[int, int], Fraction]]:
    """Exact E[indicator] and pairwise products by full enumeration.

    Returns ({d: E[I(n,d)]}, {(d1,d2): E[I(n,d1)*I(n,d2)]}) for all
    d, d1, d2 <= 2n, each an exact count over the 2^n words.
    """
    import numpy as np

    if not 1 <= n <= EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive mode requires 1 <= n <= {EXHAUSTIVE_CAP}")
    member = _union_rows(_all_words(n)).astype(np.float64)
    denom = len(member)
    single_counts = member.sum(axis=0).astype(np.int64)
    # float64 goes through BLAS (numpy has no BLAS path for int64), and it
    # is exact here: every count is at most 2^EXHAUSTIVE_CAP = 2^20 < 2^53.
    pair_counts = (member.T @ member).astype(np.int64)
    singles = {d: Fraction(int(single_counts[d]), denom) for d in range(1, 2 * n + 1)}
    pairs = {
        (d1, d2): Fraction(int(pair_counts[d1, d2]), denom)
        for d1 in range(1, 2 * n + 1)
        for d2 in range(1, 2 * n + 1)
    }
    return singles, pairs
