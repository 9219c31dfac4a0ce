"""Self-verification suites with independent oracles.

Four named suites, each a list of named checks that either pass or fail:

* ``table1``           -- growth_constant against the bundled reference
                          table of exact constants for every primitive
                          sign word of period <= 5 (52 entries).
* ``cover-oracle``     -- progression covers against the brute-force
                          divisor-set union, every nonempty word of
                          period <= 5 (62 words), every n <= 500, exact
                          set equality.  Both sides only grow with n, so
                          they agree at every n <= 500 iff each d enters
                          both at the same n: the check compares the two
                          first-entry-time maps once, for all 62 words in
                          one pass with one bit per word.
* ``cyclotomic``       -- product identities prod phi_d(a) = a^n -/+ 1
                          for n <= 200, a in {2, 3, 10}, and the pairwise
                          gcd divisibility (phi_m(a), phi_n(a)) | m for
                          n < m <= 120, a in {2, 3}.
* ``stochastic-oracle``-- the expectation formulas (single and pairwise)
                          against exhaustive enumeration of all 2^n shift
                          words for n <= 12, exact rational equality.

The CLI front end prints one PASS/FAIL line per check and exits nonzero
on any failure; tests call the suite functions directly.  Each suite
imports only the modules it runs.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:  # each suite imports only the modules it runs
    from .patterns import SignPattern

__all__ = [
    "CheckResult",
    "REFERENCE_CONSTANTS",
    "suite_table1",
    "suite_cover_oracle",
    "suite_cyclotomic",
    "suite_stochastic_oracle",
    "SUITES",
]


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


# Exact growth constants for all 52 primitive sign words of period <= 5
# (words that are repetitions of a shorter word are omitted; their
# constants equal the primitive ones).
REFERENCE_CONSTANTS: dict[str, Fraction] = {
    "-": Fraction(3),
    "+": Fraction(4),
    "-+": Fraction(4),
    "+-": Fraction(3),
    "--+": Fraction(13, 4),
    "-+-": Fraction(105, 32),
    "-++": Fraction(173, 48),
    "+--": Fraction(105, 32),
    "+-+": Fraction(173, 48),
    "++-": Fraction(47, 12),
    "---+": Fraction(7, 2),
    "--+-": Fraction(3),
    "--++": Fraction(7, 2),
    "-+--": Fraction(27, 8),
    "-++-": Fraction(125, 36),
    "-+++": Fraction(38, 9),
    "+---": Fraction(3),
    "+--+": Fraction(7, 2),
    "+-++": Fraction(7, 2),
    "++--": Fraction(125, 36),
    "++-+": Fraction(38, 9),
    "+++-": Fraction(27, 8),
    "----+": Fraction(19, 6),
    "---+-": Fraction(101, 32),
    "---++": Fraction(319, 96),
    "--+--": Fraction(101, 32),
    "--+-+": Fraction(319, 96),
    "--++-": Fraction(487, 144),
    "--+++": Fraction(7687, 2160),
    "-+---": Fraction(101, 32),
    "-+--+": Fraction(319, 96),
    "-+-+-": Fraction(487, 144),
    "-+-++": Fraction(7687, 2160),
    "-++--": Fraction(733, 216),
    "-++-+": Fraction(769, 216),
    "-+++-": Fraction(2123, 576),
    "-++++": Fraction(2219, 576),
    "+----": Fraction(101, 32),
    "+---+": Fraction(319, 96),
    "+--+-": Fraction(733, 216),
    "+--++": Fraction(769, 216),
    "+-+--": Fraction(487, 144),
    "+-+-+": Fraction(7687, 2160),
    "+-++-": Fraction(2123, 576),
    "+-+++": Fraction(2219, 576),
    "++---": Fraction(487, 144),
    "++--+": Fraction(7687, 2160),
    "++-+-": Fraction(2123, 576),
    "++-++": Fraction(2219, 576),
    "+++--": Fraction(2123, 576),
    "+++-+": Fraction(2219, 576),
    "++++-": Fraction(39, 10),
}


def _first_failure(name: str, failures: Iterator[str]) -> CheckResult:
    """The check `name`: failed, with the first detail of `failures`, if it yields any."""
    detail = next(failures, "")
    return CheckResult(name, not detail, detail)


def suite_table1() -> list[CheckResult]:
    """Exact equality against the period <= 5 reference constants."""
    from .constants import growth_constant
    from .patterns import parse_pattern

    results = []
    for word, expected in REFERENCE_CONSTANTS.items():
        got = growth_constant(parse_pattern(word)).C
        detail = f"expected {expected}, got {got}"
        results.append(CheckResult(f"constant {word}", got == expected, detail))
    return results


def _cover_matches_oracle(patterns: Sequence[SignPattern], n_max: int) -> list[tuple[bool, str]]:
    """Exact set equality cover vs oracle at every 1 <= n <= n_max, per pattern.

    Both sides only grow with n, so each is fixed by its entry-time map
    {d: least n at which d joins}, and the sides agree at every n <= n_max
    iff the two maps are equal.  Both are built for all patterns at once,
    as {(d, n): mask of the patterns i (bit i) in which d joins at n}; a
    pattern fails iff its bit differs under some key.  Only a failing
    pattern's own (d, n) pairs are read back: its sides first differ at
    the least n among the pairs that only one side holds, and at that n
    they differ by the d of those pairs with that n.
    """
    from .cover import _cover_entry_masks, pattern_cover
    from .cyclotomic import _entry_masks

    bit = {-1: "1", 1: "0"}.__getitem__
    # column k holds s_k of each pattern, the last first: pattern i is bit i
    columns = zip(*reversed([pattern.shifts(n_max) for pattern in patterns]))
    minus = [int("".join(map(bit, column)), 2) for column in columns]
    oracle = _entry_masks(minus, (1 << len(patterns)) - 1)
    cover = _cover_entry_masks([pattern_cover(pattern) for pattern in patterns], n_max)
    failed = 0
    for key in cover.keys() | oracle.keys():
        failed |= cover.get(key, 0) ^ oracle.get(key, 0)
    results = []
    for i in range(len(patterns)):
        if not failed >> i & 1:
            results.append((True, ""))
            continue
        cover_i = {key for key, mask in cover.items() if mask >> i & 1}
        oracle_i = {key for key, mask in oracle.items() if mask >> i & 1}
        n = min(k for _, k in cover_i ^ oracle_i)
        extra = sorted(d for d, k in cover_i - oracle_i if k == n)[:5]
        missing = sorted(d for d, k in oracle_i - cover_i if k == n)[:5]
        results.append((False, f"n={n}: cover-only {extra}, oracle-only {missing}"))
    return results


def suite_cover_oracle() -> list[CheckResult]:
    """Cover calculus vs brute force for all words of period <= 5, n <= 500."""
    from .patterns import all_sign_words, parse_pattern

    words = all_sign_words(5)
    checks = _cover_matches_oracle([parse_pattern(word) for word in words], 500)
    return [CheckResult(f"cover {word} n<=500", *check) for word, check in zip(words, checks)]


def suite_cyclotomic() -> list[CheckResult]:
    """Product identities and pairwise gcd divisibility, all exact."""
    from .cyclotomic import cyclotomic_value, divisor_set

    n_max, gcd_max = 200, 120
    values = {
        a: {d: cyclotomic_value(d, a) for d in range(1, 2 * n_max + 1)}
        for a in (2, 3, 10)
    }
    results = []
    for a in (2, 3, 10):
        for sign, label in ((-1, "a^n-1"), (1, "a^n+1")):
            failures = (
                f"first failure n={n}"
                for n in range(1, n_max + 1)
                if math.prod(values[a][d] for d in divisor_set(n, sign)) != a**n + sign
            )
            results.append(_first_failure(f"product {label} a={a} n<={n_max}", failures))
    for a in (2, 3):
        # gcd(phi_m, phi_n) | gcd(phi_m, prod_{n<m} phi_n): one gcd clears every n < m,
        # and only an m it does not clear is scanned pair by pair, in the same order
        below = itertools.accumulate(map(values[a].get, range(1, gcd_max)), operator.mul)
        failures = (
            f"first failure (m, n)=({m}, {n})"
            for m, product in zip(range(2, gcd_max + 1), below)
            if m % math.gcd(values[a][m], product)
            for n in range(1, m)
            if m % math.gcd(values[a][m], values[a][n])
        )
        results.append(_first_failure(f"gcd(phi_m, phi_n) | m a={a} m<={gcd_max}", failures))
    return results


def suite_stochastic_oracle() -> list[CheckResult]:
    """pair_expectation vs exhaustive enumeration for n <= 12, exact rationals;
    its diagonal (d, d) is the marginal E[I(n, d)].

    A formula f matches a count c of the 2^n words iff f = c / 2^n, i.e.
    f.numerator * 2^n == c * f.denominator: integers, no Fraction per count.
    """
    from .stochastic import _indicator_counts, pair_expectation

    def failures(n: int) -> Iterator[str]:
        for (d1, d2), count in _indicator_counts(n).items():
            formula = pair_expectation(n, d1, d2)
            if formula.numerator << n != count * formula.denominator:
                yield f"pair ({d1}, {d2}): enum {Fraction(count, 1 << n)} vs formula {formula}"

    return [_first_failure(f"expectations n={n} all d<= {2*n}", failures(n)) for n in range(1, 13)]


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "table1": suite_table1,
    "cover-oracle": suite_cover_oracle,
    "cyclotomic": suite_cyclotomic,
    "stochastic-oracle": suite_stochastic_oracle,
}
