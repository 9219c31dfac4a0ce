"""Random-shift expectations vs exhaustive enumeration, plus Monte Carlo."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclolcm import (
    divisor_set,
    expected_X,
    monte_carlo,
    oracle_L,
    pair_expectation,
    random_shifts,
    subseed,
    totient,
    totient_sieve,
    variance_bound,
)
from cyclolcm import stochastic
from cyclolcm.stochastic import (
    EXACT_EXPECTATION_CAP,
    MC_BLOCK_CELLS,
    _coprime_pairs_upto,
    _indicator_counts,
    _union_rows,
    exhaustive_indicator_tables,
)


def _all_words(n):
    """All 2^n shift words as rows; bit k-1 of the row index set means s_k = +1."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)


def enum_indicator(n, d):
    """P[d in L(n)] by brute enumeration of all 2^n shift words."""
    hits = 0
    for bits in range(1 << n):
        word = [1 if (bits >> (k - 1)) & 1 else -1 for k in range(1, n + 1)]
        if d in oracle_L(word, n):
            hits += 1
    return Fraction(hits, 1 << n)


def marginal(n, d):
    """E[I(n, d)] = 1 - 2^-floor(n*gcd(2,d)/d) in closed form, the oracle of
    pair_expectation's diagonal."""
    return 1 - Fraction(1, 2 ** (n * math.gcd(2, d) // d))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_pair_diagonal_is_the_closed_form_marginal(data):
    n = data.draw(st.integers(1, 300), label="n")
    d = data.draw(st.integers(1, 3 * n), label="d")
    assert pair_expectation(n, d, d) == marginal(n, d)


def test_indicator_examples():
    assert pair_expectation(10, 3, 3) == Fraction(7, 8)
    assert pair_expectation(5, 11, 11) == 0
    assert pair_expectation(6, 2, 2) == Fraction(63, 64)
    # brute enumeration agrees
    assert enum_indicator(10, 3) == Fraction(7, 8)
    assert enum_indicator(6, 2) == Fraction(63, 64)


def test_indicator_zero_characterization():
    # the expectation vanishes exactly when no k <= n has d | 2k: for odd
    # d that already happens once d > n (an odd divisor of 2k divides k)
    for n in (1, 4, 9):
        for d in range(1, 3 * n):
            value = pair_expectation(n, d, d)
            vanishes = d > n if d % 2 else d > 2 * n
            assert (value == 0) == vanishes
            if d > 2 * n:
                assert value == 0
            assert 0 <= value < 1


def test_pair_examples():
    assert pair_expectation(6, 3, 2) == Fraction(47, 64)
    assert pair_expectation(6, 3, 3) == marginal(6, 3) == Fraction(3, 4)
    # odd coprime pair with disjoint index sets: product of marginals
    assert pair_expectation(5, 3, 5) == Fraction(1, 4)
    assert pair_expectation(5, 3, 5) == pair_expectation(5, 3, 3) * pair_expectation(5, 5, 5)
    # at n=4 the second marginal is already 0 (5 divides no 2k with k <= 4),
    # so the pair expectation vanishes; enumeration over 2^4 words agrees
    assert pair_expectation(4, 5, 5) == 0
    assert pair_expectation(4, 3, 5) == 0
    assert enum_indicator(4, 5) == 0


def test_pair_matches_enumeration_exhaustively():
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 13, 14):
        pairs = exhaustive_indicator_tables(n)
        assert len(pairs) == (2 * n) ** 2
        for d in range(1, 2 * n + 1):
            assert pairs[d, d] == marginal(n, d), (n, d)
        for (d1, d2), enum in pairs.items():
            assert enum == pair_expectation(n, d1, d2), (n, d1, d2)


@pytest.mark.parametrize("n", range(1, 7))
def test_indicator_counts_equal_literal_unions(n):
    # each of the 2^n words' union as a plain set of divisor_set(k, s_k),
    # word w reading s_k = +1 where bit k-1 of w is set
    unions = [
        set().union(*(divisor_set(k, 1 if w >> (k - 1) & 1 else -1) for k in range(1, n + 1)))
        for w in range(1 << n)
    ]
    ds = range(1, 2 * n + 1)
    pairs = {(d1, d2): sum(d1 in u and d2 in u for u in unions) for d1 in ds for d2 in ds}
    assert _indicator_counts(n) == pairs


@pytest.mark.parametrize(
    "key, detail",
    [((5, 3, 4), "pair (3, 4): enum 3/8 vs formula 25/64"),
     ((5, 3, 3), "pair (3, 3): enum 1/2 vs formula 33/64")],
    ids=["off-diagonal", "diagonal"],
)
def test_stochastic_oracle_detail_names_the_wrong_formula(monkeypatch, key, detail):
    from cyclolcm.verify import suite_stochastic_oracle

    # one value off at n = 5 only, off the diagonal or on it (a marginal)
    right = stochastic.pair_expectation
    wrong = right(*key) + Fraction(1, 64)
    monkeypatch.setattr(stochastic, "pair_expectation", lambda *a: wrong if a == key else right(*a))
    _, d1, d2 = key
    enum = exhaustive_indicator_tables(5)[d1, d2]
    assert detail == f"pair ({d1}, {d2}): enum {enum} vs formula {wrong}"
    results = suite_stochastic_oracle()
    assert [(r.ok, r.detail) for r in results] == [
        (n != 5, "" if n != 5 else detail) for n in range(1, 13)
    ]
    assert results[4].name == "expectations n=5 all d<= 10"


def test_bitset_tables_match_union_kernel():
    # the table counts words with int bitsets; the Monte Carlo kernel's
    # rows over all 2^n words must give the same single (diagonal) and pair counts
    for n in range(1, 11):
        pairs = exhaustive_indicator_tables(n)
        member = _union_rows(_all_words(n)).astype(np.int64)
        ds = range(1, 2 * n + 1)
        column_sums = member.sum(axis=0)
        assert [pairs[d, d] * 2**n for d in ds] == [column_sums[d] for d in ds], n
        if n <= 8:
            products = member.T @ member
            for d1 in ds:
                assert [pairs[d1, d2] * 2**n for d2 in ds] == [products[d1, d2] for d2 in ds]


def test_disjoint_index_sets_factorize():
    # whenever lcm(d1, d2) > 2n the two membership events touch disjoint
    # index sets, so the pair expectation is the product of the marginals
    cases = []
    for n in (3, 4, 5, 7, 10):
        for d1, d2 in [(3, 5), (3, 4), (4, 6), (5, 7), (3, 7), (2, 9)]:
            if d1 * d2 // math.gcd(d1, d2) > 2 * n:
                cases.append((n, d1, d2))
    assert len(cases) >= 20
    for n, d1, d2 in cases:
        product = pair_expectation(n, d1, d1) * pair_expectation(n, d2, d2)
        assert pair_expectation(n, d1, d2) == product, (n, d1, d2)


def expected_x_by_d(n):
    """The defining sum over every d <= 2n, one totient per d: the oracle."""
    total = 0
    for d in range(1, 2 * n + 1):
        total += totient(d) * marginal(n, d)
    return total


def test_expected_x_small_values():
    assert expected_X(1) == 1
    assert expected_X(3) == Fraction(19, 4)
    # float mode agrees with the exact value
    assert abs(expected_X(100, "float") - float(expected_X(100))) < 1e-6


@pytest.mark.parametrize("ns", [range(1, 301), (10**4, 99_991, 10**5)], ids=["small", "large"])
def test_totient_sums_are_prefix_sums_at_every_floor_key(ns):
    prefix = np.cumsum(totient_sieve(max(ns)))
    for n in ns:
        sums = stochastic._totient_sums(n)
        assert set(sums) == {n // k for k in range(1, n + 1)}, n
        assert all(sums[v] == prefix[v] for v in sums), n


def test_expected_x_exact_is_the_sum_over_d():
    for n in (*range(1, 301), 777, 1000, 2000):
        assert expected_X(n) == expected_x_by_d(n), n


def test_expected_x_float_is_the_rounded_exact_value():
    # correctly rounded, not the bits of some summation order: a loop over
    # d adding floats left to right misrounds 354 of these n (86 the first)
    for n in range(1, 2001):
        assert expected_X(n, "float") == float(expected_X(n)), n


def test_expected_x_float_matches_a_sieve_sum():
    # an independent exact E[X]: phi from the sieve, grouped by exponent
    # with one bincount, so beyond the exact mode's cap
    phi = totient_sieve(2 * 10**6)
    rng = np.random.default_rng(20211)
    for n in (10**5, 10**6, *rng.integers(2, 10**6, size=5).tolist()):
        d = np.arange(1, 2 * n + 1)
        exponent = np.where(d % 2 == 0, 2 * n // d, n // d)
        weights = np.bincount(exponent, weights=phi[1 : 2 * n + 1])  # sums < 2^53: exact
        missed = sum(int(w) << (n - e) for e, w in enumerate(weights.tolist()) if w)
        exact = (int(phi[1 : 2 * n + 1].sum()) << n) - missed
        assert expected_X(n, "float") == exact / (1 << n), n  # int / int rounds correctly


def test_rounded_expectation_widens_until_the_ends_agree():
    # from one term the tail bound spans many floats, so the loop must
    # double the terms, up to the exact sum at terms >= n
    for n in (*range(1, 60), 300, 2000):
        sums = stochastic._totient_sums(n)
        assert stochastic._rounded_expectation(n, sums, terms=1) == float(expected_X(n)), n


def test_expected_x_validation():
    with pytest.raises(ValueError):
        expected_X(0)
    for n in (True, 3.0):
        with pytest.raises(ValueError, match=f"n must be an int, got {n!r}"):
            expected_X(n)
    with pytest.raises(ValueError):
        expected_X(10, "fancy")
    with pytest.raises(ValueError, match="exact mode limited"):
        expected_X(EXACT_EXPECTATION_CAP + 1, "exact")
    # float mode has no cap
    assert expected_X(EXACT_EXPECTATION_CAP + 1, "float") > 0


def test_expected_x_refuses_before_the_sieve(monkeypatch):
    # a refused exact request computes no floor key
    def no_sums(n):
        raise AssertionError(f"_totient_sums({n}) computed before the cap check")

    monkeypatch.setattr(stochastic, "_totient_sums", no_sums)
    with pytest.raises(ValueError, match="exact mode limited"):
        expected_X(EXACT_EXPECTATION_CAP + 1, "exact")
    with pytest.raises(AssertionError, match="computed before"):
        expected_X(EXACT_EXPECTATION_CAP, "exact")


def test_oracle_L_rejects_bad_shifts():
    for word in ([1, 0, -1], [1, 2, -1]):
        with pytest.raises(ValueError, match="shift must be -1 or \\+1"):
            oracle_L(word, 3)


def test_exhaustive_mean_matches_expectation():
    # the mean of X over all 2^n words, word by word through the union
    # kernel and, by linearity, from the literal indicator tables
    for n in (1, 2, 3, 6):
        phi = totient_sieve(2 * n)
        total = sum(int(phi[row].sum()) for row in _union_rows(_all_words(n)))
        assert Fraction(total, 1 << n) == expected_X(n)
        pairs = exhaustive_indicator_tables(n)
        assert sum(totient(d) * pairs[d, d] for d in range(1, 2 * n + 1)) == expected_X(n)


def test_variance_bound_matches_bruteforce_pairs():
    def brute(n):
        total = 0.0
        for d1 in range(1, 2 * n + 1):
            for d2 in range(1, 2 * n + 1):
                l = d1 * d2 // math.gcd(d1, d2)
                if l > 2 * n:
                    continue
                e1 = n * math.gcd(2, d1) // d1
                e2 = n * math.gcd(2, d2) // d2
                e12 = n * math.gcd(2, l) // l
                total += d1 * d2 * 2.0 ** (e12 - e1 - e2) * (1 - 2.0**-e12)
        return total

    for n in (1, 2, 5, 7, 11):
        assert abs(variance_bound(n) - brute(n)) <= 1e-9 * max(brute(n), 1)


def test_variance_bound_cubic_scale():
    ratios = [variance_bound(n) / n**3 for n in (100, 200, 400, 800)]
    assert max(ratios) <= 1.0
    assert max(ratios) / min(ratios) <= 1.2  # stable, no superlinear drift


def gcd_pair_sum(n: int) -> int:
    """S(n) = sum of gcd(d1, d2) over ordered pairs with [d1, d2] <= n.

    Decomposed as sum_d d * #{coprime (a1, a2) : a1*a2 <= n/d}, over the
    pairs that variance_bound enumerates; grows like n^2.
    """
    if n < 1:
        raise ValueError(f"gcd_pair_sum requires n >= 1, got {n}")
    total = 0
    for d in range(1, n + 1):
        count = 0
        for a1, a2 in _coprime_pairs_upto(n // d):
            count += 1 if a1 == a2 else 2
        total += d * count
    return total


def gcd_pair_sum_bruteforce(n: int) -> int:
    """Independent oracle for gcd_pair_sum: literal double loop."""
    total = 0
    for d1 in range(1, n + 1):
        for d2 in range(1, n + 1):
            g = math.gcd(d1, d2)
            if d1 * d2 <= n * g:  # lcm <= n
                total += g
    return total


def test_gcd_pair_sum_small():
    assert gcd_pair_sum(1) == 1
    # ordered pairs with lcm <= 4: brute force confirms the decomposition
    assert gcd_pair_sum(4) == gcd_pair_sum_bruteforce(4)


def test_gcd_pair_sum_matches_bruteforce():
    for n in (2, 3, 10, 50, 127, 300):
        assert gcd_pair_sum(n) == gcd_pair_sum_bruteforce(n)


def test_gcd_pair_sum_quadratic_witness():
    for n in (250, 500, 1000):
        assert gcd_pair_sum(2 * n) / gcd_pair_sum(n) <= 4.5


def test_monte_carlo_reproducible():
    r1, s1 = monte_carlo(100, 20, 7)
    r2, s2 = monte_carlo(100, 20, 7)
    assert r1 == r2
    assert s1 == s2
    # a different seed moves the trials
    r3, _ = monte_carlo(100, 20, 8)
    assert r3 != r1


def test_monte_carlo_matches_per_trial_reference():
    # trial counts on both sides of the batch size: the last batch is a
    # single row or one row short; with n above the cell budget every
    # batch is one row.  The reference runs each trial on its own, as one
    # row through the union kernel.
    for n, trials in (
        (20000, MC_BLOCK_CELLS // 20000 + 1),
        (9973, 2 * (MC_BLOCK_CELLS // 9973) - 1),
        (MC_BLOCK_CELLS + 1, 2),
    ):
        phi = totient_sieve(2 * n)
        results, _ = monte_carlo(n, trials, 123)
        assert [r.trial_index for r in results] == list(range(trials))
        for t, r in enumerate(results):
            s = subseed(123, t)
            plus = np.array(random_shifts(s, n)) == 1
            x = int(phi[_union_rows(plus[None])[0]].sum())
            assert (r.seed, r.n, r.X, r.ratio) == (s, n, x, x * (math.pi**2 / (n * n)))
    # at a small n the literal union weighted by totient agrees as well
    results, _ = monte_carlo(60, 5, 123)
    for r in results:
        assert r.X == sum(totient(d) for d in oracle_L(random_shifts(r.seed, 60), 60))


def brute_union(plus_row, n):
    members = set()
    for k in range(1, n + 1):
        members.update(divisor_set(k, 1 if plus_row[k - 1] else -1))
    return members


_SQUARE_EDGES = sorted({q * q + e for q in range(1, 21) for e in (-1, 0, 1)} - {0})


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 400) | st.sampled_from(_SQUARE_EDGES),
    rows=st.integers(1, 4),
    density=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_union_kernel_matches_bruteforce(n, rows, density, seed):
    plus = np.random.default_rng(seed).random((rows, n)) < density
    flags = _union_rows(plus)
    assert flags.shape == (rows, 2 * n + 1)
    for r in range(rows):
        assert set(np.flatnonzero(flags[r]).tolist()) == brute_union(plus[r], n)


def test_monte_carlo_single_trial_has_no_variance():
    results, summary = monte_carlo(50, 1, 3)
    assert len(results) == 1
    assert summary.var_X is None
    assert summary.mean_X == results[0].X


def test_monte_carlo_ratio_definition():
    results, summary = monte_carlo(80, 5, 11)
    for r in results:
        assert abs(r.ratio - math.pi**2 * r.X / 80**2) < 1e-12
    assert summary.theory_ratio == pytest.approx(3.4934431587900745, abs=1e-12)


def test_concentration_at_scale():
    # with 64 trials at n=2000, at most a quarter may stray 5% from E[X]
    results, _ = monte_carlo(2000, 64, 0x5EEDC0DE)
    mean = float(expected_X(2000, "exact"))
    stray = sum(1 for r in results if abs(r.X - mean) > 0.05 * mean)
    assert stray / len(results) <= 0.25


def test_monte_carlo_validation():
    with pytest.raises(ValueError):
        monte_carlo(0, 5, 0)
    with pytest.raises(ValueError):
        monte_carlo(10, 0, 0)
    for n, trials, seed, named in (
        (10.0, 2, 1, "n must be an int, got 10.0"),
        (10, 2.0, 1, "trials must be an int, got 2.0"),
        (True, 2, 1, "n must be an int, got True"),
        (10, 2, True, "seed must be an int, got True"),
        (10, 2, 1.0, "seed must be an int, got 1.0"),
    ):
        with pytest.raises(ValueError, match=named):
            monte_carlo(n, trials, seed)


def test_monte_carlo_rejects_seeds_outside_64_bits():
    # refused as random_shifts refuses them, not reduced mod 2^64
    for seed, named in ((2**64, "seed must fit in 64 bits"), (-1, "seed must be >= 0, got -1")):
        with pytest.raises(ValueError, match=named):
            monte_carlo(10, 5, seed)
