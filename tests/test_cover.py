"""Progression-cover calculus vs the brute-force divisor-set union."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclolcm import (
    ProgressionCover,
    cover_members,
    oracle_L,
    parse_pattern,
    pattern_cover,
)
from cyclolcm.cover import _entry_buckets
from cyclolcm.cyclotomic import _entry_masks
from cyclolcm.patterns import MAX_PERIOD, SignPattern
from cyclolcm.verify import _cover_matches_oracle


def F(n, d=1):
    return Fraction(n, d)


def test_single_cover_examples():
    # period-1 words constrain one residue, so their covers are single progressions
    assert pattern_cover(parse_pattern("-")).slopes == {1: F(1), 2: F(1)}
    assert pattern_cover(parse_pattern("+")).slopes == {2: F(2)}


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    word=st.integers(1, MAX_PERIOD).flatmap(
        lambda m: st.lists(st.sampled_from((-1, 1)), min_size=m, max_size=m)
    )
)
# the Thue-Morse word at the maximum period: every residue has a class
@example(word=[1 if bin(k).count("1") % 2 else -1 for k in range(MAX_PERIOD)])
def test_cover_equals_oracle_random_patterns(word):
    pattern = SignPattern(tuple(word))
    [(ok, detail)] = _cover_matches_oracle([pattern], 8 * pattern.period)
    assert ok, (word, detail)
    # an odd d never divides 2k without dividing k: odd residues have
    # minus-side slopes 1/j only
    for t, theta in pattern_cover(pattern).slopes.items():
        assert 0 < theta <= (1 if t % 2 else 2)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seq=st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=200)
    | st.builds(
        lambda word, n: SignPattern(tuple(word)).shifts(n),
        st.lists(st.sampled_from((-1, 1)), min_size=1, max_size=MAX_PERIOD),
        st.integers(1, 200),
    )
)
def test_entry_rule_equals_literal_union(seq):
    # explicit +-1 lists and prefixes of periodic words alike; each bucket
    # ascending, so the buckets in order list the union by entry time
    buckets = _entry_buckets(seq)
    assert buckets[0] == [] and all(b == sorted(b) for b in buckets)
    # one batch with the word's complement between two copies of it: each
    # literal map is the rule's for its own word, whatever the others read
    batch = [seq, [-s for s in seq], seq]
    minus = [sum((s == -1) << i for i, s in enumerate(column)) for column in zip(*batch)]
    masks = _entry_masks(minus, 0b111)
    literal = [{d: k for (d, k), mask in masks.items() if mask >> i & 1} for i in range(3)]
    rule = [{d: k for k, bucket in enumerate(_entry_buckets(w)) for d in bucket} for w in batch]
    assert literal[0] == literal[2]
    assert literal == rule


def first_mismatch_by_scan(cover, pattern, n_max):
    """_cover_matches_oracle's detail, found by comparing the two sets at every n."""
    for n in range(1, n_max + 1):
        got, want = set(cover_members(cover, n)), set(oracle_L(pattern, n))
        if got != want:
            extra, missing = sorted(got - want)[:5], sorted(want - got)[:5]
            return n, f"n={n}: cover-only {extra}, oracle-only {missing}"
    return None, ""


@pytest.mark.parametrize(
    "word, slopes",
    [
        ("-", {1: F(2)}),  # a slope raised and a class dropped
        ("+", {1: F(1, 3), 2: F(2)}),  # a class added
        ("--+", {1: F(1), 2: F(1, 2), 4: F(1), 5: F(1), 6: F(2)}),  # a slope lowered
        ("+-", {1: F(2, 3), 2: F(2), 3: F(1, 2), 4: F(1)}),  # a slope raised
        ("-+-++", {1: F(1), 2: F(2), 3: F(1, 3), 4: F(2, 5), 6: F(2, 3), 7: F(1, 2),
                   8: F(2), 10: F(1, 5)}),  # slopes raised and lowered, a class dropped
    ],
)
def test_cover_mismatch_detail_matches_per_n_scan(monkeypatch, word, slopes):
    pattern = parse_pattern(word)
    bad = ProgressionCover(2 * pattern.period, slopes)
    assert bad != pattern_cover(pattern)
    monkeypatch.setattr("cyclolcm.cover.pattern_cover", lambda p: bad)
    n, detail = first_mismatch_by_scan(bad, pattern, 60)
    assert n is not None
    assert _cover_matches_oracle([pattern], 60) == [(False, detail)]
    if n > 1:
        assert _cover_matches_oracle([pattern], n - 1) == [(True, "")]


BATCH_WORDS = ["-", "--", "-+", "-+-+", "--+"]


@pytest.mark.parametrize("broken", BATCH_WORDS)
def test_cover_mismatch_in_a_batch_reports_only_its_pattern(monkeypatch, broken):
    # a repeated word has the union of a shorter one, and covers of one
    # modulus share classes (-- and -+ both hold (4, 1, 1)): only the
    # broken pattern's bit may fail
    patterns = [parse_pattern(word) for word in BATCH_WORDS]
    target = parse_pattern(broken)
    good = pattern_cover(target)
    t, theta = min(good.slopes.items())
    bad = good._replace(slopes={**good.slopes, t: theta / 2})  # a slope lowered
    monkeypatch.setattr(
        "cyclolcm.cover.pattern_cover", lambda p: bad if p == target else pattern_cover(p)
    )
    n, detail = first_mismatch_by_scan(bad, target, 60)
    assert n is not None
    expected = [(False, detail) if p == target else (True, "") for p in patterns]
    assert _cover_matches_oracle(patterns, 60) == expected


def test_slope_ranges_and_parity():
    for word in all_words(6):
        cover = pattern_cover(SignPattern(word))
        for t, theta in cover.slopes.items():
            assert 0 < theta <= 2
            if t % 2:
                assert theta.numerator == 1, "odd residues take minus-side slopes 1/j"


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
    with pytest.raises(ValueError, match="residue 5 outside 1..4"):
        ProgressionCover(4, {5: F(1)})
    for theta in (F(0), F(-1, 2), F(5, 2), F(3)):
        with pytest.raises(ValueError, match=r"slope for residue 1 out of \(0, 2\]"):
            ProgressionCover(4, {1: theta})
    assert ProgressionCover(4, {1: F(2), 2: F(1, 7)}).slopes == {1: F(2), 2: F(1, 7)}
    with pytest.raises(ValueError, match="modulus must be >= 1, got 0"):
        pattern_cover(parse_pattern("+-"))._replace(modulus=0)
    with pytest.raises(ValueError):
        cover_members(ProgressionCover(2, {1: F(1)}), 0)
    for t in (1.5, 1.0, True, F(1)):
        with pytest.raises(ValueError, match="residue"):
            ProgressionCover(2, {t: F(1)})


def test_cover_keeps_no_reference_to_the_callers_dict():
    slopes = {1: F(1)}
    cover = ProgressionCover(2, slopes)
    slopes[3] = F(0)
    slopes[1] = F(2)
    assert cover.slopes == {1: F(1)}
    assert repr(cover) == "ProgressionCover(modulus=2, slopes={1: Fraction(1, 1)})"
    assert cover_members(cover, 5) == [1, 3, 5]
    other = {2: F(1)}
    replaced = cover._replace(slopes=other)
    other[1] = F(1)
    assert replaced.slopes == {2: F(1)}
