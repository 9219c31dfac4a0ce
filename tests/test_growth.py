"""Exact lcm engine, totient-sum surrogate, and their convergence envelope."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclolcm import (
    cyclotomic_value,
    divisor_set,
    exact_log_lcm_series,
    growth_constant,
    log_big,
    oracle_L,
    parse_pattern,
    pattern_cover,
    random_shifts,
    surrogate_series,
    totient,
    totient_sieve,
)
from cyclolcm import growth
from cyclolcm.cover import _entry_buckets
from cyclolcm.growth import (
    ENVELOPE_K,
    EXACT_ENGINE_CAP,
    _lcm_enclosures,
)
from cyclolcm.patterns import MAX_PERIOD, SignPattern
from test_cyclotomic import brute_v2

LN2 = math.log(2)


def _exact_bits(a, n):
    """An enclosure width past every bit of lcm_k for k <= n: a^j + 1 <=
    2^(j * bitlen(a)), so lcm_n <= 2^(n^2 * bitlen(a))."""
    return n * n * a.bit_length() + 64


def _exact_lcm(a, shifts, keep):
    """{k: lcm(a + s_1, ..., a^k + s_k)} for k in keep, read from the
    enclosure stream _lcm_enclosures over the word's entry buckets at a
    width that cuts nothing, so a width too narrow fails on lo == hi at
    some k."""
    out = {}
    bits = _exact_bits(a, len(shifts))
    for k, lo, hi, exp in _lcm_enclosures(a, shifts, _entry_buckets(shifts), bits):
        assert lo == hi, k
        if k in keep:
            out[k] = lo << exp
    return out


def test_exact_lcm_small_values():
    every = range(1, 4)
    assert _exact_lcm(2, parse_pattern("-").shifts(3), every) == {1: 1, 2: 3, 3: 21}
    assert _exact_lcm(2, parse_pattern("+").shifts(3), every) == {1: 3, 2: 15, 3: 45}


def test_exact_series_small():
    samples = exact_log_lcm_series(2, parse_pattern("-"), 3, step=1)
    assert [s.n for s in samples] == [1, 2, 3]
    assert samples[0].log_lcm == 0.0
    assert abs(samples[2].log_lcm - math.log(21)) < 1e-12
    # surrogate field rides along: L(3) = {1,2,3} so phi-sum is 4 ln 2
    assert abs(samples[2].phi_sum - 4 * LN2) < 1e-12
    assert all(s.ratio_exact > 0 and s.ratio_surrogate > 0 for s in samples[1:])


def test_exact_series_validation():
    # both engines share one check, with one message per argument
    cases = [
        ((1, 5), "base a must be >= 2, got 1"),
        ((2, 0), "n_max must be >= 1, got 0"),
        ((2, -3), "n_max must be >= 1, got -3"),
        ((2, 5, 0), "step must be >= 1, got 0"),
        # a base that is not an int, even one equal to an int
        ((2.0, 5), "base a must be an int, got 2.0"),
        ((2.5, 5), "base a must be an int, got 2.5"),
        # n_max and step must be ints too, bool included
        ((2, 4.0), "n_max must be an int, got 4.0"),
        ((2, 4.5, 2), "n_max must be an int, got 4.5"),
        ((2, True), "n_max must be an int, got True"),
        ((2, 5, 2.0), "step must be an int, got 2.0"),
    ]
    for engine in (exact_log_lcm_series, surrogate_series):
        for (a, *rest), message in cases:
            with pytest.raises(ValueError, match=message):
                engine(a, parse_pattern("-"), *rest)


def test_exact_series_rejects_bad_arguments_when_called():
    # the exact engine checks its arguments before it reads the enclosure stream
    with pytest.raises(ValueError, match="base a must be >= 2"):
        exact_log_lcm_series(1, parse_pattern("-"), 3)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        exact_log_lcm_series(2, parse_pattern("-"), 0)
    with pytest.raises(ValueError, match="shift must be -1 or \\+1, got 0"):
        exact_log_lcm_series(2, [1, 0, 1], 3)


def test_exact_engine_cap_and_override():
    with pytest.raises(ValueError, match="capped"):
        exact_log_lcm_series(2, parse_pattern("-"), EXACT_ENGINE_CAP + 1)
    samples = exact_log_lcm_series(
        2, parse_pattern("-"), EXACT_ENGINE_CAP + 1, step=EXACT_ENGINE_CAP + 1,
        override_cap=True,
    )
    assert samples[-1].n == EXACT_ENGINE_CAP + 1


def test_divisibility_chain():
    prev = None
    for value in _exact_lcm(3, parse_pattern("-+").shifts(60), range(1, 61)).values():
        if prev is not None:
            assert value % prev == 0
        prev = value


def _naive_gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@pytest.mark.parametrize("a", [2, 3])
@pytest.mark.parametrize(
    "word", ["-", "+", "-++", "--+", pytest.param(None, id="random")]
)
def test_cross_engine_consistency(a, word):
    n = 300
    shifts = random_shifts(11, n) if word is None else parse_pattern(word).shifts(n)
    # fold lcm left-to-right with an independent gcd implementation
    acc = 1
    power = 1
    naive = {}
    for k in range(1, n + 1):
        power *= a
        term = power + shifts[k - 1]
        acc = acc // _naive_gcd(acc, term) * term
        naive[k] = acc
    assert _exact_lcm(a, shifts, range(1, n + 1)) == naive
    # phi_sum is the sieve's totients summed over the brute-force union,
    # the same integer times the same log a
    phi = totient_sieve(2 * n)
    for s in exact_log_lcm_series(a, shifts, n, step=30):
        assert s.phi_sum == math.log(a) * sum(int(phi[d]) for d in oracle_L(shifts, s.n))


def _lcm_fold(a, shifts, keep):
    """{k: lcm(a + s_1, ..., a^k + s_k)} for k in keep, by a math.lcm fold."""
    acc = 1
    out = {}
    for k, shift in enumerate(shifts, 1):
        acc = math.lcm(acc, a**k + shift)
        if k in keep:
            out[k] = acc
    return out


FOLD_WORDS = ["-", "+", "-+", "--+", "-+-++"]


@pytest.mark.parametrize("a", [2, 3, 4, 6, 9, 10, 12, 30])
def test_stream_matches_lcm_fold_at_every_k(a):
    # the enclosure stream at a width that cuts nothing; odd a puts p = 2
    # on the chain 1, 2, 4, ...; primes dividing a have none
    n = 300
    every = range(1, n + 1)
    cases = [parse_pattern(w).shifts(n) for w in FOLD_WORDS]
    cases += [random_shifts(seed, n) for seed in (1, 0xC0FFEE)]
    for shifts in cases:
        assert _exact_lcm(a, shifts, every) == _lcm_fold(a, shifts, every)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    a=st.integers(2, 64),
    shifts=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=150),
)
def test_cyclotomic_product_over_lcm_is_the_2adic_term(a, shifts):
    # lcm_k = 2^M_2(k) * prod_{d in L(k)} odd(Phi_d(a)): the odd parts carry
    # every odd prime of the lcm, and M_2(k) = v_2(lcm_k)
    every = range(1, len(shifts) + 1)
    fold = _lcm_fold(a, shifts, every)
    union, product = set(), 1
    bits = _exact_bits(a, len(shifts))
    entering = _entry_buckets(shifts)
    for k, lo, hi, exp in _lcm_enclosures(a, shifts, entering, bits):
        # the entry rule's new d are the literal union's, in ascending order
        fresh = entering[k]
        assert fresh == [d for d in divisor_set(k, shifts[k - 1]) if d not in union], k
        union.update(fresh)
        for d in fresh:
            value = cyclotomic_value(d, a)
            product *= value >> brute_v2(value)
        assert lo == hi == product and product % 2, k
        assert product == fold[k] >> exp, k
        assert exp == brute_v2(fold[k]), k


SERIES_BASES = [3, 5, 9, 15, 17, 31, 999, 2**70 + 1, 2**70 - 1]


def _assert_series_matches_fold(a):
    """Check every sample of 15 series at base a; return how many ran."""
    # step 7 leaves n_max off the grid and step n_max is one checkpoint:
    # both read the enclosure at the last sample.  At a = 2^70 +- 1,
    # v_2(a -+ 1) = 70.
    n = 150 if a < 1000 else 60
    cases = [parse_pattern(w).shifts(n) for w in ("-", "+", "--+", "-+-++")]
    cases.append(random_shifts(3, n))
    for shifts in cases:
        fold = _lcm_fold(a, shifts, range(1, n + 1))
        for step in (1, 7, n):
            samples = exact_log_lcm_series(a, shifts, n, step)
            assert [s.n for s in samples] == sorted({*range(step, n + 1, step), n})
            for s in samples:
                assert s.log_lcm == log_big(fold[s.n]), (step, s.n)
    return len(cases) * 3


@pytest.mark.parametrize("a", SERIES_BASES)
def test_series_matches_lcm_fold_at_checkpoints(a):
    _assert_series_matches_fold(a)


@pytest.mark.parametrize("bits", [1, 8])
def test_series_matches_lcm_fold_after_restarts(bits, monkeypatch):
    # enclosures this narrow cannot certify the top 64 bits, so each series
    # restarts at doubled widths and must still give log_big of the fold;
    # the restarts reuse the series' one set of buckets
    calls, buckets = [], []
    enclosures, entry_buckets = growth._lcm_enclosures, growth._entry_buckets

    def counted(*args):
        calls.append(args[-1])
        return enclosures(*args)

    def counted_buckets(seq):
        buckets.append(entry_buckets(seq))
        return buckets[-1]

    monkeypatch.setattr(growth, "_ENCLOSURE_BITS", bits)
    monkeypatch.setattr(growth, "_lcm_enclosures", counted)
    monkeypatch.setattr(growth, "_entry_buckets", counted_buckets)
    runs = sum(_assert_series_matches_fold(a) for a in SERIES_BASES)
    assert len(calls) > runs and len(buckets) == runs
    assert calls[0] == bits and 2 * bits in calls


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    a=st.integers(2, 64),
    shifts=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=150),
)
def test_lcm_enclosure_holds_at_every_k(a, shifts):
    every = range(1, len(shifts) + 1)
    fold = _lcm_fold(a, shifts, every)
    entering = _entry_buckets(shifts)
    for bits in (1, 8, 128):
        for k, lo, hi, exp in growth._lcm_enclosures(a, shifts, entering, bits):
            assert lo << exp <= fold[k] <= hi << exp, (bits, k)
            assert hi.bit_length() <= bits + 1, (bits, k)


@pytest.mark.parametrize("a", [2, 3])
def test_series_matches_exact_lcm_at_every_k(a):
    # the 128-bit series against the enclosure stream at a width that cuts nothing
    n = 1000
    every = range(1, n + 1)
    cases = [parse_pattern(w).shifts(n) for w in ("-", "+")] + [random_shifts(5, n)]
    for shifts in cases:
        series = [s.log_lcm for s in exact_log_lcm_series(a, shifts, n, 1)]
        assert series == [log_big(lcm) for lcm in _exact_lcm(a, shifts, every).values()]


# At a = 10 one fold to n = 1000 takes about 5 s, so only random shifts run.
@pytest.mark.parametrize(
    "a, words", [(2, FOLD_WORDS), (10, [])], ids=["a=2", "a=10"]
)
def test_series_matches_lcm_fold_to_n_1000(a, words):
    n = 1000
    cases = [parse_pattern(w).shifts(n) for w in words]
    cases.append(random_shifts(7, n))
    for shifts in cases:
        fold = _lcm_fold(a, shifts, range(100, n + 1, 100))
        series = exact_log_lcm_series(a, shifts, n, 100)
        assert {s.n: s.log_lcm for s in series} == {k: log_big(v) for k, v in fold.items()}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    a=st.integers(2, 50),
    shifts=st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=120),
)
def test_ledger_equals_fold_property(a, shifts):
    every = range(1, len(shifts) + 1)
    assert _exact_lcm(a, shifts, every) == _lcm_fold(a, shifts, every)


def test_surrogate_small_sums():
    samples = surrogate_series(2, parse_pattern("-"), 4, step=4)
    assert abs(samples[-1].phi_sum - 6 * LN2) < 1e-12
    samples = surrogate_series(2, parse_pattern("+"), 3, step=3)
    assert abs(samples[-1].phi_sum - 5 * LN2) < 1e-12


def _assert_surrogate_is_oracle_sum(a, pattern, n_max, step):
    # the same integer times the same log a: equal to the last bit
    samples = surrogate_series(a, pattern, n_max, step)
    assert [s.n for s in samples] == sorted({*range(step, n_max + 1, step), n_max})
    for s in samples:
        phi_total = sum(totient(d) for d in oracle_L(pattern, s.n))
        assert s.phi_sum == phi_total * math.log(a), (pattern, s.n)


def test_surrogate_matches_oracle_sum():
    # every n, then uneven steps whose last sample is n_max itself
    cases = [("-+-", 137, 1), ("-+-", 137, 10), ("--+-+", 200, 7), ("+", 64, 1), ("-++", 90, 89)]
    for word, n_max, step in cases:
        _assert_surrogate_is_oracle_sum(2, parse_pattern(word), n_max, step)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    word=st.integers(1, MAX_PERIOD).flatmap(
        lambda m: st.lists(st.sampled_from((-1, 1)), min_size=m, max_size=m)
    ),
    data=st.data(),
)
def test_surrogate_matches_oracle_sum_below_the_modulus(word, data):
    # n_max < 2m, so the classes with t > 2 * n_max / q are still empty
    pattern = SignPattern(tuple(word))
    n_max = data.draw(st.integers(1, 2 * pattern.period - 1))
    step = data.draw(st.integers(1, n_max))
    a = data.draw(st.integers(2, 10))
    _assert_surrogate_is_oracle_sum(a, pattern, n_max, step)


def _phi_totals_over_full_sieve(pattern, n_max, step):
    """The sum of phi over L(n) at each sample, read from per-class prefix
    sums over totient_sieve(2 * n_max) in rows of M, every d <= 2n sieved."""
    cover = pattern_cover(pattern)
    modulus = cover.modulus
    phi = totient_sieve(-(-2 * n_max // modulus) * modulus)
    sums = phi[1:].reshape(-1, modulus).cumsum(axis=0)
    totals = []
    for n in sorted({*range(step, n_max + 1, step), n_max}):
        total = 0
        for t, q in cover.multipliers.items():
            limit = 2 * n // q
            if limit >= t:
                total += int(sums[(limit - t) // modulus, t - 1])
        totals.append(total)
    return totals


THUE_MORSE_64 = "".join("+" if bin(k).count("1") % 2 else "-" for k in range(64))


# 10**5 + 7 is odd: no multiple of M.  At M = 128 a class-sum block holds 512
# rows of sums: n_max = 65536, 65537 and 65664 lie on, one entry past and
# one row past the first block edge.
@pytest.mark.parametrize("n_max", [10**5, 10**5 + 7, 65536, 65537, 65664])
def test_surrogate_equals_full_sieve_layout_at_large_n(n_max):
    # the sieve up to n_max, with phi(2e) read as psi(e), gives the same integers
    patterns = [parse_pattern(w) for w in (THUE_MORSE_64, "-+-", "--+-+")]
    patterns += [SignPattern(tuple(random_shifts(seed, 1 + 6 * seed))) for seed in range(10)]
    for pattern in patterns:
        samples = surrogate_series(3, pattern, n_max, 10**4)
        totals = _phi_totals_over_full_sieve(pattern, n_max, 10**4)
        assert [s.phi_sum for s in samples] == [t * math.log(3) for t in totals], pattern


# (word, cover modulus M): M = 6 is not a power of two; n_max up to 129
# leaves the class table of M = 126 or 128 one or two rows
READ_PATH_WORDS = [("-", 2), ("+", 2), ("-+", 4), ("-++", 6), ("--+-+-++", 16),
                   (THUE_MORSE_64[:63], 126), (THUE_MORSE_64, 128)]


@pytest.mark.parametrize("word, modulus", READ_PATH_WORDS)
@pytest.mark.parametrize("n_max", [1, 2, 127, 128, 129, 2999, 3001])
@pytest.mark.parametrize("step", [1, 7])
def test_surrogate_read_path_equals_full_sieve_layout(word, modulus, n_max, step):
    pattern = parse_pattern(word)
    assert pattern_cover(pattern).modulus == modulus
    expected = [t * LN2 for t in _phi_totals_over_full_sieve(pattern, n_max, step)]
    assert [s.phi_sum for s in surrogate_series(2, pattern, n_max, step)] == expected


def test_surrogate_reads_agree_across_sample_blocks():
    # at step 1 the samples fill three blocks; a coarse step reads them from one
    n_max = 2 * growth._SAMPLE_BLOCK + 5
    for word in (THUE_MORSE_64, "-+"):
        pattern = parse_pattern(word)
        every = surrogate_series(2, pattern, n_max, 1)
        coarse = surrogate_series(2, pattern, n_max, 997)
        assert [every[s.n - 1] for s in coarse] == coarse


def test_surrogate_converges_for_all_minus():
    sample = surrogate_series(2, parse_pattern("-"), 10**4, step=10**4)[-1]
    assert abs(sample.ratio_surrogate - 3) <= 0.02 * 3


def test_surrogate_converges_for_all_plus_base_three():
    sample = surrogate_series(3, parse_pattern("+"), 10**4, step=10**4)[-1]
    assert abs(sample.ratio_surrogate - 4) <= 0.02 * 4


def test_exact_ratio_near_constant_midscale():
    for word in ("-", "+"):
        pattern = parse_pattern(word)
        c = float(growth_constant(pattern).C)
        sample = exact_log_lcm_series(2, pattern, 600, step=600)[-1]
        assert abs(sample.ratio_exact - c) <= 0.05 * c


@pytest.mark.parametrize("word", ["-", "+", "-++"])
def test_totient_surrogate_sandwich(word):
    # The product of cyclotomic values over L(n) dominates the lcm exactly
    # (shared factors only deflate), and the totient surrogate tracks the
    # lcm to within the n^2/log n slack.  The surrogate itself can sit
    # slightly *below* log lcm (many cyclotomic values exceed a^phi(d), by
    # lcm(1,3,7) = 21 > 2^4 already at n=3), so only the product form has
    # a one-sided sign.
    pattern = parse_pattern(word)
    samples = exact_log_lcm_series(2, pattern, 1000, step=500)
    kappa = None
    for sample in samples:
        n = sample.n
        log_product = sum(log_big(cyclotomic_value(d, 2)) for d in oracle_L(pattern, n))
        assert log_product >= sample.log_lcm - 1e-9 * log_product
        slack = abs(sample.phi_sum - sample.log_lcm)
        budget = n * n / math.log(n)
        if kappa is None:
            kappa = max(slack / budget, 1e-5)
        assert slack <= 5 * kappa * budget


def test_surrogate_gaps_lie_within_envelope():
    pattern = parse_pattern("-")
    picked = [
        surrogate_series(2, pattern, n, step=n)[-1] for n in (10**3, 10**4, 10**5)
    ]
    for s in picked:
        assert abs(s.ratio_surrogate - 3) <= ENVELOPE_K * math.log(s.n) / s.n
    # Not vacuous: 1% of C is far outside the n = 10^5 envelope of about 1.1e-3
    final = picked[-1]
    assert abs(final.ratio_surrogate - 3.03) > ENVELOPE_K * math.log(final.n) / final.n


def test_exact_gap_shrinks_from_250_to_1000():
    samples = exact_log_lcm_series(2, parse_pattern("-"), 1000, step=250)
    # approach at this scale: the n=1000 gap beats the n=250 gap
    assert abs(samples[-1].ratio_exact - 3) < abs(samples[0].ratio_exact - 3)


def test_sample_sequence_is_strictly_increasing():
    samples = exact_log_lcm_series(2, parse_pattern("+-"), 50, step=7)
    ns = [s.n for s in samples]
    assert ns == sorted(set(ns))
    assert ns[-1] == 50
