"""Random-shift model: exact expectations, variance bound, Monte Carlo.

With shifts drawn independently and uniformly from {-1, +1}, the chance
that an index d has NOT entered the divisor-set union after n steps is
2^-(number of k <= n with d | 2k) = 2^-floor(n*gcd(2,d)/d).  The pair
formula pair_expectation(n, d1, d2) = E[indicator(n, d1) * indicator(n, d2)]
is exact, with a case split on whether the joint index set is empty
([d1,d2] > 2n) and on the 2-adic valuations; its diagonal is the marginal

    E[indicator(n, d)] = pair_expectation(n, d, d) = 1 - 2^-floor(n*gcd(2,d)/d).

The totient-weighted sum X = sum_{d<=2n} phi(d) * indicator(n, d) then has
E[X] ~ (6/pi^2) * Li2(1/2) * n^2 and variance O(n^3), which Chebyshev
turns into concentration.

Everything here is either an exact rational (Fraction, denominators powers
of two), a correctly rounded float of one, or a reproducible seeded
simulation.  E[X] needs the totient sums Phi(x) = sum_{f<=x} phi(f) only at
the floor keys n // k (expected_X), so it runs in pure Python with no
per-d loop and no array.  For n <= EXHAUSTIVE_CAP
the module can enumerate all 2^n shift words outright; that exhaustive
oracle is what the tests and `verify --suite stochastic-oracle` use to
adjudicate the pair formula, its diagonal and floors included.  Its pair table
read the literal union L(n) from cyclotomic._entry_masks, the walk that the
cover oracle reads too, for all 2^n words at once: a set of words is one
Python int of 2^n bits (bit w for word w), and every count a popcount.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple

from .cyclotomic import _check_int, _entry_masks, _v2, totient_sieve

if TYPE_CHECKING:  # numpy and fractions load only in the functions that build them
    from fractions import Fraction

    import numpy as np

__all__ = [
    "EXACT_EXPECTATION_CAP",
    "EXHAUSTIVE_CAP",
    "TrialResult",
    "MonteCarloSummary",
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


def _floor_exponent(n: int, d: int) -> int:
    """floor(n * gcd(2, d) / d) = #{k <= n : d | 2k}."""
    return n * math.gcd(2, d) // d


def pair_expectation(n: int, d1: int, d2: int) -> Fraction:
    """Exact expectation of the product of two membership indicators.

    At d1 = d2 = d it is the marginal E[indicator(n, d)] = 1 - 2^-e with
    e = floor(n*gcd(2,d)/d), the one formula for it.

    Case split: if [d1, d2] <= 2n and the 2-adic valuations differ, some
    single shift forces one of d1, d2 into the union, so the joint-miss
    probability vanishes.  Otherwise the misses behave like a product over
    the union of the two index sets, giving the explicit power of two.
    """
    _check_int("n", n)
    _check_int("d1", d1)
    _check_int("d2", d2)
    import fractions

    e1 = _floor_exponent(n, d1)
    e2 = _floor_exponent(n, d2)
    lcm12 = d1 // math.gcd(d1, d2) * d2
    # 1 - 2^-e1 - 2^-e2 (+ 2^-e3), put over 2^E with E the largest exponent
    # (e3 >= e1, e2 since e12 <= min(e1, e2)), as one Fraction.
    if lcm12 <= 2 * n and _v2(d1) != _v2(d2):
        top, joint = max(e1, e2), 0
    else:
        top, joint = e1 + e2 - _floor_exponent(n, lcm12), 1
    return fractions.Fraction((1 << top) - (1 << top - e1) - (1 << top - e2) + joint, 1 << top)


def _totient_sums(n: int) -> dict[int, int]:
    """{v: Phi(v)} at every floor key v = n // k of n, Phi(v) = sum_{f<=v} phi(f).

    phi is sieved on a list up to about n^(2/3) / 2, where Phi is a prefix
    sum.  Each larger key v = n // k, taken in increasing order, comes from

        sum_{g=1..v} Phi(v // g) = v(v+1)/2

    (sum the divisor identity sum_{d|m} phi(d) = m over m <= v).  Every
    v // g = n // (kg) is a smaller key, already known; the g > v // (s+1),
    s = isqrt(v), have v // g = q <= s and are summed over q with weight
    phi(q) * (v // q), by parts.  About 2 * n^(2/3) steps in all, the
    scheme of Deleglise and Rivat for the Mertens function.
    """
    limit = max(math.isqrt(n), int(n ** (2 / 3)) // 2)
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            phi[p::p] = [x - x // p for x in phi[p::p]]
    prefix = list(itertools.accumulate(phi))
    sums = {}
    for k in range(n // (limit + 1), 0, -1):  # the keys above limit, increasing
        v = n // k
        s = math.isqrt(v)
        total = v * (v + 1) // 2 + prefix[s] * (v // (s + 1))
        total -= sum([p * (v // q) for q, p in enumerate(phi[1 : s + 1], 1)])
        for g in range(2, v // (s + 1) + 1):
            w = v // g
            total -= prefix[w] if w <= limit else sums[w]
        sums[v] = total
    for k in range(1, math.isqrt(n) + 1):  # every v <= isqrt(n) is a key
        sums[k] = prefix[k]
        if n // k <= limit:
            sums[n // k] = prefix[n // k]
    return sums


def _scaled_expectation(n: int, sums: dict[int, int], terms: int) -> int:
    """2^terms * (2 Phi(n) - 2 sum_{q<=terms} 2^-q dPhi_q), an int, with
    dPhi_q = Phi(n // q) - Phi(n // (q+1)): E[X] scaled by 2^terms, less
    the q > terms.  dPhi_q is nonzero only at the last q of each block of
    equal n // q, so the sum runs over keys, Horner-style from q = 1.
    """
    acc = last = 0
    k = 1
    while k <= n:
        v = n // k
        q = n // v  # the last q with n // q == v
        if q > terms:
            break
        acc = (acc << (q - last)) + sums[v] - sums.get(n // (q + 1), 0)
        last, k = q, q + 1
    return (sums[n] << (terms + 1)) - (acc << (terms - last + 1))


def _rounded_expectation(n: int, sums: dict[int, int], terms: int = 64) -> float:
    """E[X] correctly rounded to a float.

    The q > terms add up to at most 2^-terms * Phi(n // (terms+1)) to
    2 sum_q 2^-q dPhi_q, so E[X] * 2^terms lies in [top - tail, top].  If
    both ends round to one float (int / int rounds correctly), E[X] does
    too; otherwise terms doubles.  At terms >= n the tail is 0.
    """
    while True:
        top = _scaled_expectation(n, sums, terms)
        tail = sums.get(n // (terms + 1), 0)
        value = top / (1 << terms)
        if (top - tail) / (1 << terms) == value:
            return value
        terms *= 2


def expected_X(n: int, mode: str = "exact") -> Fraction | float:
    """E[X] = sum_{d <= 2n} phi(d) * (1 - 2^-floor(n*gcd(2,d)/d)).

    An odd d > n has exponent 0, and an even d = 2f has exponent n // f,
    with phi(2f) + [f odd] phi(f) = 2 phi(f), so

        E[X] = 2 sum_{f<=n} phi(f) (1 - 2^-(n//f))
             = 2 Phi(n) - 2 sum_q 2^-q (Phi(n // q) - Phi(n // (q+1))),

    Phi(x) = sum_{f<=x} phi(f), read only at the floor keys of n
    (_totient_sums).  mode="exact" returns the Fraction (denominator a
    power of two up to 2^n, hence the cap); mode="float" returns E[X]
    correctly rounded, at any n, from the first q alone.
    """
    _check_int("n", n)
    if mode not in ("exact", "float"):
        raise ValueError(f"mode must be 'exact' or 'float', got {mode!r}")
    if mode == "exact" and n > EXACT_EXPECTATION_CAP:
        raise ValueError(
            f"exact mode limited to n <= {EXACT_EXPECTATION_CAP} (denominators "
            f"reach 2^n); requested n={n}, use mode='float'"
        )
    sums = _totient_sums(n)
    if mode == "float":
        return _rounded_expectation(n, sums)
    import fractions

    return fractions.Fraction(_scaled_expectation(n, sums, n), 1 << n)


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
    _check_int("n", n)
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
    from .patterns import _check_seed, _plus_rows, subseed

    _check_int("n", n)
    _check_int("trials", trials)
    _check_seed(seed)  # all three before numpy loads
    import numpy as np

    phi = totient_sieve(2 * n)
    norm = math.pi**2 / (n * n)
    rows = max(1, MC_BLOCK_CELLS // n)
    results = []
    for lo in range(0, trials, rows):
        block = range(lo, min(lo + rows, trials))
        seeds = [subseed(seed, t) for t in block]
        flags = _union_rows(_plus_rows(np.array(seeds, dtype=np.uint64), n))
        for t, s, x in zip(block, seeds, (flags @ phi).tolist()):
            results.append(TrialResult(s, t, n, x, x * norm))
    return results, _summarize(results, n)


def _indicator_counts(n: int) -> dict[tuple[int, int], int]:
    """Counts behind exhaustive_indicator_tables: {(d1, d2): #words whose
    union holds both} over the 2^n words, a single d's count at (d, d).

    A set of words is an int of 2^n bits, bit w standing for word w (bit
    k-1 of w set means s_k = +1), so the words with s_k = -1 are the low
    2^(k-1) bits of each 2^k-bit block.  member[d], the words whose literal
    union L(n) holds d, ORs the masks cyclotomic._entry_masks gives d at
    its entry times.  Counts are popcounts of member[d1] & member[d2].
    """
    _check_int("n", n)
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive mode requires n <= {EXHAUSTIVE_CAP}, got {n}")
    minus, rep = [], 1  # rep: a bit at each multiple of 2^k, from k = n (bit 0 only) down
    for h in (1 << j for j in reversed(range(n))):  # h = 2^(k-1)
        minus.append((rep << h) - rep)  # rep * (2^h - 1): the low h bits of each 2^k
        rep |= rep << h
    member = [0] * (2 * n + 1)
    for (d, _), words in _entry_masks(minus[::-1], rep).items():  # rep at k = 0: every word
        member[d] |= words
    ds = range(1, 2 * n + 1)
    return {(d1, d2): (member[d1] & member[d2]).bit_count() for d1 in ds for d2 in ds}


def exhaustive_indicator_tables(n: int) -> dict[tuple[int, int], Fraction]:
    """Exact {(d1, d2): E[I(n,d1)*I(n,d2)]} by full enumeration, for all
    d1, d2 <= 2n: the counts of _indicator_counts over 2^n.  A marginal
    E[I(n,d)] is the [d, d] entry.
    """
    import fractions

    return {key: fractions.Fraction(count, 1 << n) for key, count in _indicator_counts(n).items()}
