"""Progression-cover calculus vs the brute-force divisor-set union."""

import json
import random
from fractions import Fraction

import pytest

from cyclolcm import (
    ProgressionCover,
    cover_members,
    oracle_L,
    parse_pattern,
    pattern_cover,
    single_cover,
)
from cyclolcm.cover import merge_covers
from cyclolcm.patterns import SignPattern


def F(n, d=1):
    return Fraction(n, d)


def test_single_cover_examples():
    assert single_cover(1, 1, -1).slopes == {1: F(1), 2: F(1)}
    assert single_cover(1, 1, 1).slopes == {2: F(2)}
    assert single_cover(2, 2, -1).slopes == {1: F(1, 2), 2: F(1), 3: F(1, 2), 4: F(1)}


def test_single_cover_rejects_bad_residue():
    with pytest.raises(ValueError):
        single_cover(3, 2, -1)
    with pytest.raises(ValueError):
        single_cover(1, 1, 0)


def test_pattern_cover_worked_merges():
    assert pattern_cover(parse_pattern("-")).slopes == {1: F(1), 2: F(1)}
    assert pattern_cover(parse_pattern("+-")).slopes == {
        1: F(1, 2),
        2: F(2),
        3: F(1, 2),
        4: F(1),
    }
    cover = pattern_cover(parse_pattern("--+"))
    assert cover.modulus == 6
    assert cover.slopes == {1: F(1), 2: F(1), 4: F(1), 5: F(1), 6: F(2)}


def test_cover_members_examples():
    assert cover_members(pattern_cover(parse_pattern("-")), 4) == [1, 2, 3, 4]
    assert cover_members(pattern_cover(parse_pattern("+")), 3) == [2, 4, 6]
    assert cover_members(ProgressionCover(2, {}), 10) == []


def test_oracle_examples():
    assert oracle_L(parse_pattern("-"), 4) == [1, 2, 3, 4]
    assert oracle_L(parse_pattern("+"), 3) == [2, 4, 6]
    assert oracle_L(parse_pattern("-++"), 6) == [1, 2, 4, 6, 10, 12]
    # explicit shift lists work too
    assert oracle_L([-1, 1, 1, -1, 1, 1], 6) == [1, 2, 4, 6, 10, 12]
    with pytest.raises(ValueError):
        oracle_L([-1, 1], 6)
    with pytest.raises(ValueError, match="shift must be -1 or \\+1"):
        oracle_L([-1, 0, 1], 3)


def all_words(max_period):
    words = []
    for length in range(1, max_period + 1):
        for bits in range(1 << length):
            words.append(tuple(1 if (bits >> i) & 1 else -1 for i in range(length)))
    return words


def test_cover_equals_oracle_small_periods():
    for word in all_words(3):
        pattern = SignPattern(word)
        cover = pattern_cover(pattern)
        for n in range(1, 201):
            assert cover_members(cover, n) == oracle_L(pattern, n), (word, n)


def test_cover_equals_oracle_random_patterns():
    rng = random.Random(1812)
    for _ in range(25):
        m = rng.randrange(1, 7)
        word = tuple(rng.choice((-1, 1)) for _ in range(m))
        pattern = SignPattern(word)
        cover = pattern_cover(pattern)
        for n in range(1, 121):
            assert cover_members(cover, n) == oracle_L(pattern, n), (word, n)


def test_slope_ranges_and_parity():
    for m in range(1, 7):
        for r in range(1, m + 1):
            minus = single_cover(r, m, -1)
            for theta in minus.slopes.values():
                assert 0 < theta <= 1
            plus = single_cover(r, m, 1)
            for t, theta in plus.slopes.items():
                assert 0 < theta <= 2
                assert t % 2 == 0, "plus-side contributions sit on even residues"


def test_merge_is_order_independent_and_idempotent():
    pattern = parse_pattern("-+-++")
    m = pattern.period
    singles = [
        single_cover(r, m, u)
        for u in (-1, 1)
        for r in range(1, m + 1)
        if pattern.word[r - 1] == u
    ]
    reference = pattern_cover(pattern)
    rng = random.Random(7)
    for _ in range(10):
        shuffled = singles[:]
        rng.shuffle(shuffled)
        assert merge_covers(shuffled).slopes == reference.slopes
    assert merge_covers([reference, reference]).slopes == reference.slopes


def test_cover_json_schema():
    cover = pattern_cover(parse_pattern("+-"))
    obj = cover.to_json_obj()
    assert obj["modulus"] == 4
    assert obj["classes"] == [
        {"t": 1, "theta": {"num": 1, "den": 2}},
        {"t": 2, "theta": {"num": 2, "den": 1}},
        {"t": 3, "theta": {"num": 1, "den": 2}},
        {"t": 4, "theta": {"num": 1, "den": 1}},
    ]
    json.dumps(obj)  # serializable as-is


def test_cover_validation():
    with pytest.raises(ValueError):
        ProgressionCover(4, {5: F(1)})
    with pytest.raises(ValueError):
        ProgressionCover(4, {1: F(3)})
    with pytest.raises(ValueError):
        cover_members(ProgressionCover(2, {1: F(1)}), 0)
