"""Density constants, growth constants, the random-model constant, and totient-sum checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclolcm import (
    growth_constant,
    parse_pattern,
    random_model_constant,
    totient_sieve,
)
from cyclolcm.patterns import MAX_PERIOD


def density_c(r, m):
    """c(r, m) = (1/m) prod_{p | m, p | r} (1 + 1/p)^-1 prod_{p | m, p not | r}
    (1 - 1/p^2)^-1, the oracle of growth_constant's integer class weights."""
    value = Fraction(1, m)
    for p in range(2, m + 1):
        if m % p == 0 and all(p % q for q in range(2, p)):
            value *= Fraction(p, p + 1) if r % p == 0 else Fraction(p * p, p * p - 1)
    return value


def test_density_examples():
    assert density_c(1, 1) == 1
    assert density_c(1, 2) == Fraction(2, 3)
    assert density_c(2, 2) == Fraction(1, 3)
    assert density_c(6, 6) == Fraction(1, 12)
    # the combination that drives the random-model coefficient
    assert density_c(1, 2) + 4 * density_c(2, 2) == 2


def test_density_depends_only_on_shared_primes():
    for m in range(1, 31):
        primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]
        by_class = {}
        for r in range(1, 3 * m + 1):
            key = frozenset(p for p in primes if r % p == 0)
            by_class.setdefault(key, set()).add(density_c(r, m))
        for key, values in by_class.items():
            assert len(values) == 1, (m, key, values)
        # r and r mod m (with 0 mapped to m) agree
        for r in range(1, m + 1):
            assert density_c(r, m) == density_c(r + m, m) == density_c(r + 2 * m, m)


def test_density_range():
    for m in range(1, 40):
        for r in range(1, m + 1):
            c = density_c(r, m)
            assert 0 < c <= 1


def test_growth_constant_examples():
    assert growth_constant(parse_pattern("-")).C == 3
    assert growth_constant(parse_pattern("++-")).C == Fraction(47, 12)
    assert growth_constant(parse_pattern("-++++")).C == Fraction(2219, 576)


def test_rotations_may_differ():
    assert growth_constant(parse_pattern("-++")).C == Fraction(173, 48)
    assert growth_constant(parse_pattern("++-")).C == Fraction(47, 12)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    word=st.integers(1, MAX_PERIOD // 2).flatmap(
        lambda m: st.text(alphabet="-+", min_size=m, max_size=m)
    )
)
def test_doubling_invariance(word):
    once = growth_constant(parse_pattern(word)).C
    twice = growth_constant(parse_pattern(word * 2)).C
    assert once == twice


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    word=st.integers(1, MAX_PERIOD).flatmap(
        lambda m: st.text(alphabet="-+", min_size=m, max_size=m)
    )
)
@example(word="-+-++")
def test_constant_recomputable_from_cover(word):
    gc = growth_constant(parse_pattern(word))
    total = sum(
        density_c(t, gc.cover.modulus) * theta**2
        for t, theta in gc.cover.slopes.items()
    )
    assert gc.C == 3 * total
    assert gc.C > 0


def li2(z, terms=200):
    """Partial dilogarithm series sum_{k<terms} z^k / k^2, an exact rational
    for a rational z; at z = 1/2 its tail is below 2^-terms."""
    return sum(z**k / Fraction(k * k) for k in range(1, terms))


# 6 * Li2(1/2) rounded once, from the exact-rational series
LI2_HALF_6 = float(6 * li2(Fraction(1, 2)))


def test_dilog_examples():
    # the exact-rational series, the oracle below, against Euler's closed form
    assert li2(Fraction(0)) == 0
    closed_half = (math.pi**2 - 6 * math.log(2) ** 2) / 12
    assert abs(float(li2(Fraction(1, 2))) - closed_half) <= 1e-16


def test_random_model_constant():
    assert random_model_constant() == LI2_HALF_6 == 3.493443158790075


def _totient_sum_error_ratio(phi, r, m, x, c):
    total = int(phi[r : x + 1 : m].sum())
    err = abs(total - 3 / math.pi**2 * c * x * x)
    return err / (x * math.log(x))


@pytest.mark.parametrize("rm", [(1, 2), (2, 2), (1, 3), (6, 6)])
def test_totient_sum_over_progression_error_term(rm):
    # |sum phi - (3/pi^2) c x^2| should stay O(x log x): fit the constant
    # at x=1e3 and require no blowup at 1e4, 1e5 (a wrong density constant
    # would inflate the ratio by ~x/log x).
    r, m = rm
    phi = totient_sieve(10**5)
    c = float(density_c(r, m))
    k_fit = _totient_sum_error_ratio(phi, r, m, 10**3, c)
    budget = 5 * max(k_fit, 0.01)
    for x in (10**4, 10**5):
        assert _totient_sum_error_ratio(phi, r, m, x, c) <= budget


def test_totient_sum_with_geometric_weights():
    # weighted variant: odd progression with weight 1 - 2^-floor(x/n)
    # approaches (3/pi^2) * c(1,2) * Li2(1/2) * x^2
    x = 10**5
    phi = totient_sieve(x)
    total = sum(float(phi[n]) * (1.0 - 2.0 ** -(x // n)) for n in range(1, x + 1, 2))
    target = 3 / math.pi**2 * float(density_c(1, 2)) * LI2_HALF_6 / 6
    assert abs(total / x**2 - target) <= 0.02 * target
