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
of two) or a reproducible seeded simulation.  For n <= EXHAUSTIVE_CAP
the module can enumerate all 2^n shift words outright; that exhaustive
oracle is what the tests and `verify --suite stochastic-oracle` use to
adjudicate the expectation formulas, floors and all.  The indicator tables hold each set
of words as one Python int of 2^n bits (bit w for word w), so the literal
union is a handful of big-integer ORs per k and every count a popcount,
with no array library involved.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .cyclotomic import divisor_set, totient, totient_sieve
from .exact_arith import valuation

if TYPE_CHECKING:  # numpy and fractions load only in the functions that build them
    from fractions import Fraction

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
    "monte_carlo",
    "exhaustive_indicator_tables",
]

EXACT_EXPECTATION_CAP = 2000
EXHAUSTIVE_CAP = 20
# Cells of one Monte Carlo batch: trials run max(1, MC_BLOCK_CELLS // n)
# at a time through one shift matrix and one union kernel call, so memory
# grows with neither the trial count nor n times a batch of rows.
MC_BLOCK_CELLS = 1 << 18


class TrialResult(NamedTuple):
    seed: int
    trial_index: int
    n: int
    X: int
    ratio: float  # pi^2 * X / n^2, the base-independent normalized value


class MonteCarloSummary(NamedTuple):
    n: int
    trials: int
    mean_X: float
    var_X: float | None  # sample variance; None for a single trial
    mean_ratio: float
    theory_ratio: float
    abs_gap: float

    def to_json_obj(self) -> dict:
        return self._asdict()


def _floor_exponent(n: int, d: int) -> int:
    """floor(n * gcd(2, d) / d) = #{k <= n : d | 2k}."""
    return n * math.gcd(2, d) // d


def indicator_expectation(n: int, d: int) -> Fraction:
    """Exact probability that d lies in the random divisor-set union."""
    if n < 1 or d < 1:
        raise ValueError(f"indicator_expectation requires n, d >= 1, got ({n}, {d})")
    import fractions  # per call, a sixth of the cost of `from fractions import Fraction`

    e = _floor_exponent(n, d)
    return 1 - fractions.Fraction(1, 2**e)


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
    import fractions

    e1 = _floor_exponent(n, d1)
    e2 = _floor_exponent(n, d2)
    lcm12 = d1 // math.gcd(d1, d2) * d2
    # 1 - 2^-e1 - 2^-e2 (+ 2^-e3), put over 2^E with E the largest exponent
    # (e3 >= e1, e2 since e12 <= min(e1, e2)), as one Fraction.
    if lcm12 <= 2 * n and valuation(2, d1) != valuation(2, d2):
        top, joint = max(e1, e2), 0
    else:
        top, joint = e1 + e2 - _floor_exponent(n, lcm12), 1
    return fractions.Fraction((1 << top) - (1 << top - e1) - (1 << top - e2) + joint, 1 << top)


def expected_X(n: int, mode: str = "exact") -> Fraction | float:
    """E[X] = sum_{d <= 2n} phi(d) * (1 - 2^-floor(n*gcd(2,d)/d)).

    mode="exact" returns the Fraction (denominator a power of two up to
    2^n, hence the cap) and takes each phi(d) from totient(d), building no
    array; mode="float" sums in float64 over a sieve and scales to any n.
    """
    if type(n) is not int:
        raise ValueError(f"expected_X requires an int n, got {n!r}")
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
        # [d - 1]: floor(n*gcd(2,d)/d), that is n // d for odd d and 2n // d for even d
        exponent = np.empty(2 * n, dtype=np.int64)
        np.floor_divide(n, d[::2], out=exponent[::2])
        np.floor_divide(2 * n, d[1::2], out=exponent[1::2])
        terms = phi[1:] * (1.0 - np.ldexp(1.0, -exponent))
        # cumsum adds left to right, as a Python loop would; np.sum is
        # pairwise and may differ in the last bit.
        return float(np.cumsum(terms)[-1])
    import fractions

    # The exponent is n at d = 1 and d = 2 and below n elsewhere, so 2^n is
    # the one shared denominator.
    phi_total = 0
    numerator = 0
    for d in range(1, 2 * n + 1):
        phi_d = totient(d)
        phi_total += phi_d
        numerator += phi_d << (n - _floor_exponent(n, d))
    return phi_total - fractions.Fraction(numerator, 1 << n)


def _coprime_pairs_upto(limit: int):
    """Yield ordered coprime pairs (a1, a2), a1*a2 <= limit, a1 <= a2."""
    for a1 in range(1, math.isqrt(limit) + 1):
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

    from .constants import random_model_constant

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
    n: int, trials: int, seed: int
) -> tuple[list[TrialResult], MonteCarloSummary]:
    """Seeded Monte Carlo estimate of X over independent shift words.

    Trial t uses the stream seeded with subseed(seed, t), so results are
    reproducible bit-for-bit whatever the batching (see MC_BLOCK_CELLS).
    X and the normalized ratio pi^2 * X / n^2 do not depend on the base a.
    """
    if type(n) is not int or type(trials) is not int:
        raise ValueError(f"n and trials must be ints, got ({n!r}, {trials!r})")
    if n < 1 or trials < 1:
        raise ValueError(f"n and trials must be >= 1, got ({n}, {trials})")
    import numpy as np

    from .patterns import _MASK64, _plus_rows, subseed

    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
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


def _indicator_counts(n: int) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """Counts behind exhaustive_indicator_tables: ({d: #words whose union
    holds d}, {(d1, d2): #words whose union holds both}) over the 2^n words.

    A set of words is an int of 2^n bits, bit w standing for word w (bit
    k-1 of w set means s_k = +1).  plus[k], the words with s_k = +1, is
    the 2^k-bit block of 2^(k-1) zeros then 2^(k-1) ones, doubled up to
    2^n bits; minus[k] is its complement.  member[d], the words whose
    union holds d, is the literal union over k <= n of minus[k] for d in
    divisor_set(k, -1) and plus[k] for d in divisor_set(k, +1).  Counts
    are popcounts of member[d] and of member[d1] & member[d2].
    """
    if not 1 <= n <= EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive mode requires 1 <= n <= {EXHAUSTIVE_CAP}")
    size = 1 << n
    every = (1 << size) - 1
    member = [0] * (2 * n + 1)
    for k in range(1, n + 1):
        h = 1 << (k - 1)
        plus, width = ((1 << h) - 1) << h, 2 * h
        while width < size:
            plus |= plus << width
            width *= 2
        minus = every ^ plus
        for d in divisor_set(k, -1):
            member[d] |= minus
        for d in divisor_set(k, 1):
            member[d] |= plus
    ds = range(1, 2 * n + 1)
    singles = {d: member[d].bit_count() for d in ds}
    pairs = {(d1, d2): (member[d1] & member[d2]).bit_count() for d1 in ds for d2 in ds}
    return singles, pairs


def exhaustive_indicator_tables(
    n: int,
) -> tuple[dict[int, Fraction], dict[tuple[int, int], Fraction]]:
    """Exact E[indicator] and pairwise products by full enumeration.

    Returns ({d: E[I(n,d)]}, {(d1,d2): E[I(n,d1)*I(n,d2)]}) for all
    d, d1, d2 <= 2n: the counts of _indicator_counts over 2^n.
    """
    import fractions

    return tuple(
        {key: fractions.Fraction(count, 1 << n) for key, count in counts.items()}
        for counts in _indicator_counts(n)
    )
