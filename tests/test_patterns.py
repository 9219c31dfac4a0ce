"""Sign pattern parsing and the reproducible random shift stream."""

import math
import warnings

import numpy as np
import pytest

from cyclolcm import exact_log_lcm_series, oracle_L, parse_pattern, random_shifts, subseed
from cyclolcm.patterns import (
    MAX_PERIOD,
    PatternError,
    SignPattern,
    _mix64,
    _plus_rows,
    _shift_list,
    all_sign_words,
)

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_words(seed, n):
    """Scalar SplitMix64 as the README states it: advance the state by the
    golden gamma, then apply the xor-multiply finalizer."""
    state, words = seed, []
    for _ in range(n):
        state = (state + GOLDEN) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        words.append(z ^ (z >> 31))
    return words


def splitmix64_shifts(seed, n):
    return [1 if w >> 63 else -1 for w in splitmix64_words(seed, n)]


def test_parse_examples():
    assert parse_pattern("-").word == (-1,)
    assert parse_pattern("-++").word == (-1, 1, 1)
    assert parse_pattern("-++").period == 3
    assert str(parse_pattern("+-+")) == "+-+"


def test_parse_errors_name_position():
    with pytest.raises(PatternError, match="position 2"):
        parse_pattern("+?")
    with pytest.raises(PatternError, match="empty"):
        parse_pattern("")
    with pytest.raises(PatternError, match=f"position {MAX_PERIOD + 1}"):
        parse_pattern("-" * (MAX_PERIOD + 1))
    with pytest.raises(PatternError):
        parse_pattern("+-0-")


def test_shifts_wrap_periodically():
    p = parse_pattern("-++")
    assert p.shifts(6) == [-1, 1, 1, -1, 1, 1]
    assert p.shifts(p.period + 200)[p.period :] == p.shifts(200)


def test_shifts_prefix():
    p = parse_pattern("+-")
    assert p.shifts(5) == [1, -1, 1, -1, 1]
    # A SignPattern is a one-field tuple; read as a shift list it would be
    # too short for n = 5.
    assert _shift_list(p, 5) == [1, -1, 1, -1, 1]


def test_all_sign_words():
    assert all_sign_words(2) == ["-", "+", "--", "-+", "+-", "++"]
    assert len(all_sign_words(8)) == 510


def test_shifts_must_be_python_ints():
    for word in ((1.0, -1), (True, -1), (np.int64(1), -1)):
        with pytest.raises(PatternError, match="must be -1 or \\+1"):
            SignPattern(word)
    bad_lists = ([1.0] * 5, [1, True, -1, 1, 1], np.array([1, -1] * 50))
    for shifts in bad_lists:
        with pytest.raises(ValueError, match="shift must be -1 or \\+1"):
            exact_log_lcm_series(2, shifts, 5)
    with pytest.raises(ValueError, match="shift must be -1 or \\+1"):
        oracle_L([1, True], 2)


def test_random_shifts_deterministic():
    for seed in (0, 1, 42, 2**64 - 1):
        assert random_shifts(seed, 5) == random_shifts(seed, 5)
    # a longer stream extends a shorter one
    assert random_shifts(987654321, 64)[:5] == random_shifts(987654321, 5)


def test_splitmix64_known_vectors():
    # the reference splitmix64.c outputs for seed 1234567, and for seed 0
    assert splitmix64_words(1234567, 5) == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    assert splitmix64_words(0, 1) == [0xE220A8397B1DCDAF]
    # output i of the stream seeded s is mix64(s + (i - 1) * gamma)
    states = np.array(
        [(1234567 + i * GOLDEN) & MASK64 for i in range(5)], dtype=np.uint64
    )
    assert _mix64(states).tolist() == splitmix64_words(1234567, 5)
    # the same function on Python ints, unbounded inputs reduced mod 2^64
    assert [_mix64(1234567 + i * GOLDEN) for i in range(5)] == splitmix64_words(1234567, 5)


def test_random_shifts_match_scalar_splitmix64():
    for seed in (0, 1, 1234567, 0x5EEDC0DE, 2**63, MASK64):
        for n in (1, 2, 63, 64, 65, 1000):
            assert random_shifts(seed, n) == splitmix64_shifts(seed, n)
    for t in (0, 1, 2, 1000, MASK64):
        assert subseed(0x5EEDC0DE, t) == 0x5EEDC0DE ^ splitmix64_words(t, 1)[0]


def test_shift_streams_raise_no_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        random_shifts(MASK64, 3000)
        subseed(MASK64, MASK64)
        _plus_rows(np.array([0, 2**63, MASK64], dtype=np.uint64), 3000)


def test_random_shifts_values_and_mean():
    shifts = random_shifts(12345, 10**5)
    assert set(shifts) == {-1, 1}
    assert abs(sum(shifts)) / 10**5 <= 4 / math.sqrt(10**5)


def test_distinct_seeds_give_distinct_streams():
    for i in range(100):
        assert random_shifts(2 * i, 64) != random_shifts(2 * i + 1, 64)


def test_subseed_spreads_trials():
    subs = {subseed(0x5EEDC0DE, t) for t in range(1000)}
    assert len(subs) == 1000
    assert subseed(7, 3) == subseed(7, 3)


def test_pattern_word_validation():
    with pytest.raises(PatternError):
        parse_pattern("x")
    # direct construction checks the word too
    with pytest.raises(PatternError, match="nonempty"):
        SignPattern(())
    with pytest.raises(PatternError, match=f"exceeds limit {MAX_PERIOD}"):
        SignPattern((1,) * (MAX_PERIOD + 1))
    with pytest.raises(PatternError, match="must be -1 or \\+1"):
        SignPattern((1, 0))
    with pytest.raises(PatternError, match="must be -1 or \\+1"):
        parse_pattern("+-")._replace(word=(0, 5))
    with pytest.raises(ValueError, match="64 bits"):
        random_shifts(2**64, 1)
    with pytest.raises(ValueError, match="64 bits"):
        random_shifts(-1, 1)
    with pytest.raises(ValueError):
        random_shifts(0, 0)
