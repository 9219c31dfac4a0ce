"""Integer/rational primitive checks, including the big-log accuracy contract."""

import math
import random
from fractions import Fraction

import pytest

from cyclolcm import log_big, valuation


def test_valuation():
    assert valuation(2, 48) == 4
    assert valuation(2, 7) == 0
    assert valuation(3, 63) == 2
    assert valuation(5, -250) == 3
    with pytest.raises(ValueError):
        valuation(2, 0)
    with pytest.raises(ValueError):
        valuation(1, 10)


def test_log_big_examples():
    assert log_big(1) == 0.0
    expected = 1000 * math.log(2)
    assert abs(log_big(2**1000) - expected) <= 1e-12 * expected
    assert abs(log_big(63) - math.log(63)) <= 1e-12 * math.log(63)


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
