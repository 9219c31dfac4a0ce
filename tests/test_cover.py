"""Progression-cover calculus vs the brute-force divisor-set union."""

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
    assert pattern_cover(parse_pattern("-")).multipliers == {1: 2, 2: 2}
    assert pattern_cover(parse_pattern("+")).multipliers == {2: 1}


def test_pattern_cover_worked_merges():
    # multipliers q, slopes 2/q: "+-" has the slopes 1/2, 2, 1/2, 1
    assert pattern_cover(parse_pattern("-")).multipliers == {1: 2, 2: 2}
    assert pattern_cover(parse_pattern("+-")).multipliers == {1: 4, 2: 1, 3: 4, 4: 2}
    cover = pattern_cover(parse_pattern("--+"))
    assert cover.modulus == 6
    assert cover.multipliers == {1: 2, 2: 2, 4: 2, 5: 2, 6: 1}


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
    # minus-side slopes 1/j only, i.e. even multipliers q = 2j
    for t, q in pattern_cover(pattern).multipliers.items():
        assert q >= (2 if t % 2 else 1)
        assert q % 2 == 0 or t % 2 == 0


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
    "word, multipliers",
    [
        ("-", {1: 1}),  # a slope raised and a class dropped
        ("+", {1: 6, 2: 1}),  # a class added
        ("--+", {1: 2, 2: 4, 4: 2, 5: 2, 6: 1}),  # a slope lowered
        ("+-", {1: 3, 2: 1, 3: 4, 4: 2}),  # a slope raised
        ("-+-++", {1: 2, 2: 1, 3: 6, 4: 5, 6: 3, 7: 4,
                   8: 1, 10: 10}),  # slopes raised and lowered, a class dropped
    ],
)
def test_cover_mismatch_detail_matches_per_n_scan(monkeypatch, word, multipliers):
    pattern = parse_pattern(word)
    bad = ProgressionCover(2 * pattern.period, multipliers)
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
    t, q = min(good.multipliers.items())
    bad = good._replace(multipliers={**good.multipliers, t: 2 * q})  # a slope lowered
    monkeypatch.setattr(
        "cyclolcm.cover.pattern_cover", lambda p: bad if p == target else pattern_cover(p)
    )
    n, detail = first_mismatch_by_scan(bad, target, 60)
    assert n is not None
    expected = [(False, detail) if p == target else (True, "") for p in patterns]
    assert _cover_matches_oracle(patterns, 60) == expected


def test_slope_ranges_and_parity():
    # 1 <= q <= 2m, so each slope 2/q lies in [1/m, 2]
    for word in all_words(8):
        cover = pattern_cover(SignPattern(word))
        for t, q in cover.multipliers.items():
            assert 1 <= q <= cover.modulus
            if t % 2:
                assert q % 2 == 0, "odd residues take minus-side slopes 2/q = 1/j"


def test_slopes_are_two_over_the_multiplier():
    for word in all_words(8):
        cover = pattern_cover(SignPattern(word))
        assert cover.slopes == {t: F(2, q) for t, q in cover.multipliers.items()}


def test_cover_validation():
    with pytest.raises(ValueError, match="residue 5 outside 1..4"):
        ProgressionCover(4, {5: 2})
    for q, message in ((0, "be >= 1, got 0"), (-1, "be >= 1, got -1"),
                       (1.5, "be an int, got 1.5"), (True, "be an int, got True"),
                       (F(1), "be an int, got Fraction(1, 1)")):
        with pytest.raises(ValueError) as exc:
            ProgressionCover(4, {1: q})
        assert str(exc.value) == f"multiplier for residue 1 must {message}"
    assert ProgressionCover(4, {1: 1, 2: 14}).multipliers == {1: 1, 2: 14}
    with pytest.raises(ValueError, match="modulus must be >= 1, got 0"):
        pattern_cover(parse_pattern("+-"))._replace(modulus=0)
    with pytest.raises(ValueError):
        cover_members(ProgressionCover(2, {1: 2}), 0)
    for t in (1.5, 1.0, True, F(1)):
        with pytest.raises(ValueError, match="residue"):
            ProgressionCover(2, {t: 2})


def test_cover_keeps_no_reference_to_the_callers_dict():
    multipliers = {1: 2}
    cover = ProgressionCover(2, multipliers)
    multipliers[3] = 0
    multipliers[1] = 1
    assert cover.multipliers == {1: 2}
    assert repr(cover) == "ProgressionCover(modulus=2, multipliers={1: 2})"
    assert cover_members(cover, 5) == [1, 3, 5]
    other = {2: 2}
    replaced = cover._replace(multipliers=other)
    other[1] = 2
    assert replaced.multipliers == {2: 2}
