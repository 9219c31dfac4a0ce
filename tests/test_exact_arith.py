"""Integer/rational primitive checks, including the big-log accuracy contract."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclolcm import log_big


def test_log_big_examples():
    assert log_big(1) == 0.0
    expected = 1000 * math.log(2)
    assert abs(log_big(2**1000) - expected) <= 1e-12 * expected
    assert abs(log_big(63) - math.log(63)) <= 1e-12 * math.log(63)


@settings(deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2**64 - 1))
@example(1)
@example(2)
@example(2**63 - 1)
@example(2**64 - 1)
def test_log_big_below_2_to_the_64_is_math_log(x):
    # nothing is cut below 2^64, so the float is math.log's own
    assert log_big(x) == math.log(x)


def test_log_big_rejects_nonpositive():
    for bad in (0, -1, -(2**200)):
        with pytest.raises(ValueError):
            log_big(bad)


def test_log_big_additive_on_huge_operands():
    # relative error of log(x*y) vs log(x)+log(y) on ~10000-bit integers
    rng = random.Random(71)
    for _ in range(25):
        x = rng.getrandbits(10_000) | (1 << 9_999) | 1
        y = rng.getrandbits(10_000) | (1 << 9_999) | 1
        lhs = log_big(x * y)
        rhs = log_big(x) + log_big(y)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_rational_arithmetic_is_exact():
    rng = random.Random(5)
    for _ in range(200):
        a = Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**9))
        b = Fraction(rng.randrange(-10**9, 10**9), rng.randrange(1, 10**9))
        assert (a + b) - b == a
        assert a.denominator >= 1
        assert math.gcd(a.numerator, a.denominator) == 1
