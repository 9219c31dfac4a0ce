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
                          first-entry-time maps once.
* ``cyclotomic``       -- product identities prod phi_d(a) = a^n -/+ 1
                          for n <= 200, a in {2, 3, 10}, and the pairwise
                          gcd divisibility (phi_m(a), phi_n(a)) | m for
                          n < m <= 120, a in {2, 3}.
* ``stochastic-oracle``-- the expectation formulas (single and pairwise)
                          against exhaustive enumeration of all 2^n shift
                          words for n <= 12, exact rational equality.

The CLI front end prints one PASS/FAIL line per check and exits nonzero
on any failure; tests call the suite functions directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .cover import _cover_entry_times, _entry_times, pattern_cover
from .cyclotomic import cyclotomic_value, divisor_set
from .constants import growth_constant
from .patterns import SignPattern, all_sign_words, parse_pattern

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


def suite_table1() -> list[CheckResult]:
    """Exact equality against the period <= 5 reference constants."""
    results = []
    for word, expected in REFERENCE_CONSTANTS.items():
        got = growth_constant(parse_pattern(word)).C
        results.append(
            CheckResult(
                f"constant {word}",
                got == expected,
                f"expected {expected}, got {got}",
            )
        )
    return results


def _cover_matches_oracle(patterns: Sequence[SignPattern], n_max: int) -> list[tuple[bool, str]]:
    """Exact set equality cover vs oracle at every 1 <= n <= n_max, per pattern.

    Both sides only grow with n, so each is fixed by its entry-time map
    {d: least n at which d joins}, and the sides agree at every n <= n_max
    iff the two maps are equal.  Otherwise they first differ at the least
    entry time among the (d, n) pairs that only one map holds.  One
    _entry_times call builds every pattern's oracle map.
    """
    results = []
    oracles = _entry_times([pattern.shifts(n_max) for pattern in patterns], n_max)
    for pattern, oracle in zip(patterns, oracles):
        cover = _cover_entry_times(pattern_cover(pattern), n_max)
        if cover == oracle:
            results.append((True, ""))
            continue
        n = min(k for _, k in cover.items() ^ oracle.items())
        cover_set = {d for d, k in cover.items() if k <= n}
        oracle_set = {d for d, k in oracle.items() if k <= n}
        extra = sorted(cover_set - oracle_set)[:5]
        missing = sorted(oracle_set - cover_set)[:5]
        results.append((False, f"n={n}: cover-only {extra}, oracle-only {missing}"))
    return results


def suite_cover_oracle() -> list[CheckResult]:
    """Cover calculus vs brute force for all words of period <= 5, n <= 500."""
    words = all_sign_words(5)
    checks = _cover_matches_oracle([parse_pattern(word) for word in words], 500)
    return [CheckResult(f"cover {word} n<=500", *check) for word, check in zip(words, checks)]


def suite_cyclotomic() -> list[CheckResult]:
    """Product identities and pairwise gcd divisibility, all exact."""
    n_max, gcd_max = 200, 120
    values = {
        a: {d: cyclotomic_value(d, a) for d in range(1, 2 * n_max + 1)}
        for a in (2, 3, 10)
    }
    results = []
    for a in (2, 3, 10):
        for sign, label in ((-1, "a^n-1"), (1, "a^n+1")):
            ok = True
            detail = ""
            for n in range(1, n_max + 1):
                prod = math.prod(values[a][d] for d in divisor_set(n, sign))
                if prod != a**n + sign:
                    ok = False
                    detail = f"first failure n={n}"
                    break
            results.append(
                CheckResult(f"product {label} a={a} n<={n_max}", ok, detail)
            )
    for a in (2, 3):
        ok = True
        detail = ""
        for m in range(2, gcd_max + 1):
            for n in range(1, m):
                if m % math.gcd(values[a][m], values[a][n]):
                    ok = False
                    detail = f"first failure (m, n)=({m}, {n})"
                    break
            if not ok:
                break
        results.append(
            CheckResult(f"gcd(phi_m, phi_n) | m a={a} m<={gcd_max}", ok, detail)
        )
    return results


def suite_stochastic_oracle() -> list[CheckResult]:
    """Expectation formulas vs exhaustive enumeration for n <= 12, exact rationals."""
    from .stochastic import (
        exhaustive_indicator_tables,
        indicator_expectation,
        pair_expectation,
    )

    results = []
    for n in range(1, 13):
        singles, pairs = exhaustive_indicator_tables(n)
        ok = True
        detail = ""
        for d in range(1, 2 * n + 1):
            if singles[d] != indicator_expectation(n, d):
                ok = False
                detail = f"single d={d}: enum {singles[d]} vs formula {indicator_expectation(n, d)}"
                break
        if ok:
            for (d1, d2), enum in pairs.items():
                formula = pair_expectation(n, d1, d2)
                if enum != formula:
                    ok = False
                    detail = f"pair ({d1}, {d2}): enum {enum} vs formula {formula}"
                    break
        results.append(CheckResult(f"expectations n={n} all d<= {2*n}", ok, detail))
    return results


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "table1": suite_table1,
    "cover-oracle": suite_cover_oracle,
    "cyclotomic": suite_cyclotomic,
    "stochastic-oracle": suite_stochastic_oracle,
}
