"""Totient / divisor / cyclotomic checks against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclolcm import (
    cyclotomic_value,
    divisor_set,
    divisors,
    log_big,
    totient,
    totient_sieve,
)
from cyclolcm import cyclotomic
from cyclolcm.cyclotomic import _factorize, _v2


def brute_totient(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(n, k) == 1)


def brute_divisors(n):
    # trial division up to sqrt(n), each hit paired with its cofactor
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def brute_v2(x):
    # the exponent of 2 in a nonzero int, by halving while it divides
    v = 0
    while x % 2 == 0:
        x //= 2
        v += 1
    return v


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(m=st.integers(0, 2**4095 - 1), v=st.integers(0, 10**4))
def test_v2_is_the_exponent_of_two(m, v):
    x = (2 * m + 1) << v  # odd part up to 2^4096
    assert _v2(x) == brute_v2(x) == v


def test_totient_examples():
    assert totient(1) == 1
    assert totient(12) == 4
    assert totient(10) == 4
    with pytest.raises(ValueError):
        totient(0)
    for n in (6.0, True):
        with pytest.raises(ValueError, match=f"n must be an int, got {n!r}"):
            totient(n)


def test_totient_against_brute_count():
    for n in range(1, 400):
        assert totient(n) == brute_totient(n)


def test_totient_sieve_matches_totient():
    phi = totient_sieve(3000)
    assert phi[0] == 0
    for n in range(1, 3001):
        assert int(phi[n]) == totient(n)


@pytest.fixture
def fresh_factor_cache():
    # the cache would otherwise keep ~4e5 factorizations for the session
    _factorize.cache_clear()
    yield
    _factorize.cache_clear()


def test_totient_sieve_block_edges(fresh_factor_cache):
    # limits around the block size and the powers of two, where the
    # segments start and end, and around prime squares, where a block's
    # last entry is the first odd composite that needs the prime q
    block = cyclotomic.SIEVE_BLOCK
    top = max(3 * block, 2**18 + 1)
    reference = [0] + [totient(n) for n in range(1, top + 1)]
    powers = [2**k + e for k in range(1, 19) for e in (-1, 0, 1)]
    squares = [q * q + e for q in (3, 5, 7, 11, 13, 127, 181, 251, 257) for e in (-1, 0, 1)]
    for limit in (1, 2, 3, 4, 97, block - 1, block, block + 1, top, *powers, *squares):
        phi = totient_sieve(limit)
        assert phi.dtype == np.int64
        assert phi.tolist() == reference[: limit + 1]


def test_totient_sieve_matches_sympy():
    sympy = pytest.importorskip("sympy")
    phi = totient_sieve(10**4)
    assert phi.tolist() == [0] + [int(sympy.totient(n)) for n in range(1, 10**4 + 1)]


def test_totient_divisor_sum_identity():
    # sum of phi over divisors of n equals n
    for n in range(1, 10_001):
        assert sum(totient(d) for d in divisors(n)) == n


def test_divisor_set_examples():
    assert divisor_set(3, -1) == [1, 3]
    assert divisor_set(3, 1) == [2, 6]
    assert divisor_set(4, 1) == [8]


def test_divisors_hand_out_fresh_lists():
    # divisors are memoised; a caller changing its list must not change the cache
    for get, expected in (
        (lambda: divisors(12), [1, 2, 3, 4, 6, 12]),
        (lambda: divisor_set(12, -1), [1, 2, 3, 4, 6, 12]),
        (lambda: divisor_set(12, 1), [8, 24]),
    ):
        first = get()
        first.append(99)
        first[0] = 0
        assert get() == expected


@pytest.mark.parametrize("shift", [0, 2, -2, True, 1.0, -1.0])
def test_divisor_set_rejects_other_shifts(shift):
    with pytest.raises(ValueError, match="shift must be -1 or \\+1"):
        divisor_set(3, shift)


def test_divisor_set_structure():
    # every k < 500, and k = 2^j * {1, 3, 15} up to j = 20, where the 2-adic
    # part of the s = +1 set is large
    large_v2 = [m << j for j in range(21) for m in (1, 3, 15)]
    for k in sorted(set(range(1, 500)) | set(large_v2)):
        minus = divisor_set(k, -1)
        plus = divisor_set(k, 1)
        assert minus == brute_divisors(k)
        assert plus == [d for d in brute_divisors(2 * k) if 2 * k % d == 0 and k % d]
        assert all(d % 2 == 0 for d in plus)
        assert not set(minus) & set(plus)


def mobius(n: int) -> int:
    """Moebius mu(n): 0 on non-squarefree n, else (-1)^(#prime factors)."""
    fac = _factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def test_mobius_small():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 12: 0, 30: -1, 210: 1}
    for n, mu in expected.items():
        assert mobius(n) == mu


# Coefficient oracle for cyclotomic_value: the polynomial as an exact
# quotient of products of (X^e - 1), coefficients in ascending degree.
def _poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Divide by a monic polynomial; quotient and remainder stay integral."""
    assert den[-1] == 1, "divisor must be monic"
    rem = list(num)
    qdeg = len(num) - len(den)
    quot = [0] * (qdeg + 1)
    for i in range(qdeg, -1, -1):
        c = rem[i + len(den) - 1]
        quot[i] = c
        if c:
            for j, b in enumerate(den):
                rem[i + j] -= c * b
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _x_power_minus_one(e: int) -> list[int]:
    poly = [0] * (e + 1)
    poly[0] = -1
    poly[e] = 1
    return poly


def _horner(coeffs: tuple[int, ...], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Exact coefficients of the n-th cyclotomic polynomial.

    Built as the quotient of products of (X^(n/d) - 1) split by the sign
    of mu(d); both products are monic so the division is exact over the
    integers.
    """
    num: list[int] = [1]
    den: list[int] = [1]
    for d in divisors(n):
        mu = mobius(d)
        if mu == 1:
            num = _poly_mul(num, _x_power_minus_one(n // d))
        elif mu == -1:
            den = _poly_mul(den, _x_power_minus_one(n // d))
    quot, rem = _poly_divmod_monic(num, den)
    assert rem == [0], f"cyclotomic quotient not exact for n={n}"
    return tuple(quot)


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    for n in range(1, 60):
        coeffs = cyclotomic_poly(n)
        assert len(coeffs) - 1 == totient(n)
        assert coeffs[-1] == 1


def test_cyclotomic_105_has_coefficient_minus_two():
    coeffs = cyclotomic_poly(105)
    outside = [i for i, c in enumerate(coeffs) if abs(c) > 1]
    assert outside, "some coefficient must leave {-1, 0, 1}"
    assert coeffs[outside[0]] == -2


@pytest.mark.parametrize("n", [1, 2, 6, 12, 30, 105])
def test_cyclotomic_product_recovers_x_power_minus_one(n):
    # independent check by polynomial multiplication
    prod = [1]
    for d in divisors(n):
        prod = _poly_mul(prod, list(cyclotomic_poly(d)))
    expected = [0] * (n + 1)
    expected[0] = -1
    expected[n] = 1
    assert prod == expected


def test_cyclotomic_value_examples():
    assert cyclotomic_value(1, 2) == 1
    assert cyclotomic_value(6, 2) == 3
    prod = math.prod(cyclotomic_value(d, 2) for d in divisor_set(6, -1))
    assert prod == 63
    with pytest.raises(ValueError):
        cyclotomic_value(6, 1)
    for a in (2.0, 2.5):
        with pytest.raises(ValueError, match=f"a must be an int, got {a!r}"):
            cyclotomic_value(3, a)
    for n in (6.0, True):
        with pytest.raises(ValueError, match=f"n must be an int, got {n!r}"):
            cyclotomic_value(n, 2)


def test_cyclotomic_value_matches_polynomial_evaluation():
    for a in (2, 3, 10):
        for n in range(1, 41):
            assert cyclotomic_value(n, a) == _horner(cyclotomic_poly(n), a)


def test_cyclotomic_value_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 301):
        poly = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
        for a in (2, 3, 10):
            assert cyclotomic_value(n, a) == int(poly.eval(a)), (n, a)


def _multiplicative_order(a, p):
    """Order of a modulo a prime p that does not divide a."""
    order = p - 1
    for q in _factorize(order):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def brute_order(a, p):
    k, x = 1, a % p
    while x != 1:
        x = x * a % p
        k += 1
    return k


def test_prime_divisors_of_cyclotomic_values_lie_on_order_chains():
    # p | Phi_d(a) exactly when p does not divide a and d = ord_p(a) * p^j
    primes = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
    for a in range(2, 13):
        values = {d: cyclotomic_value(d, a) for d in range(1, 201)}
        for p in primes:
            chain = set()
            if a % p:
                d = brute_order(a, p)
                assert _multiplicative_order(a, p) == d
                while d <= 200:
                    chain.add(d)
                    d *= p
            for d, value in values.items():
                assert (value % p == 0) == (d in chain), (p, a, d)


@pytest.mark.parametrize("a", [2, 3, 10])
def test_shifted_power_factorizations(a):
    for n in range(1, 80):
        assert math.prod(cyclotomic_value(d, a) for d in divisor_set(n, -1)) == a**n - 1
        assert math.prod(cyclotomic_value(d, a) for d in divisor_set(n, 1)) == a**n + 1


@pytest.mark.parametrize("a", [2, 3])
def test_cyclotomic_gcd_divides_larger_index(a):
    values = {n: cyclotomic_value(n, a) for n in range(1, 81)}
    for m in range(2, 81):
        for n in range(1, m):
            assert m % math.gcd(values[m], values[n]) == 0


@pytest.mark.parametrize(
    "a, broken, p",
    [(2, (45, 77), 101), (2, (50,), 3), (2, (63, 64), 101), (3, (7, 30, 110), 1009)],
)
def test_gcd_check_names_the_first_pair_of_a_plain_scan(monkeypatch, a, broken, p):
    # phi_n(a) times a prime p not dividing any m, at the n of `broken`: the
    # suite's one gcd per m must find the pair a pairwise scan finds first
    from cyclolcm.verify import suite_cyclotomic

    real = cyclotomic.cyclotomic_value

    def value(n, base):
        return real(n, base) * (p if base == a and n in broken else 1)

    monkeypatch.setattr(cyclotomic, "cyclotomic_value", value)
    phi = {n: value(n, a) for n in range(1, 121)}
    first = next((m, n) for m in range(2, 121) for n in range(1, m) if m % math.gcd(phi[m], phi[n]))
    checks = {r.name: r for r in suite_cyclotomic()}
    assert checks[f"gcd(phi_m, phi_n) | m a={a} m<=120"].detail == f"first failure (m, n)={first}"
    assert not checks[f"gcd(phi_m, phi_n) | m a={a} m<=120"].ok
    assert checks[f"gcd(phi_m, phi_n) | m a={5 - a} m<=120"].ok


@pytest.mark.parametrize("a", [2, 3, 10])
def test_log_cyclotomic_tracks_totient(a):
    # |log phi_n(a) - phi(n) log a| stays below 1 nat at desk scale
    log_a = math.log(a)
    for n in range(2, 501):
        assert abs(log_big(cyclotomic_value(n, a)) - totient(n) * log_a) <= 1.0
