"""One argument contract: every public index, count, base and seed is a
Python int with a lower bound, and anything else is refused by name."""

import os
import subprocess
import sys

import pytest

import cyclolcm
from cyclolcm.constants import growth_constant
from cyclolcm.cover import ProgressionCover, cover_members, oracle_L, pattern_cover
from cyclolcm.cyclotomic import (
    cyclotomic_value,
    divisor_set,
    divisors,
    totient,
    totient_sieve,
)
from cyclolcm.exact_arith import log_big
from cyclolcm.growth import _check_growth_args, exact_log_lcm_series, surrogate_series
from cyclolcm.patterns import SignPattern, all_sign_words, parse_pattern, random_shifts, subseed
from cyclolcm.stochastic import (
    _indicator_counts,
    expected_X,
    monte_carlo,
    pair_expectation,
    variance_bound,
)

# (function, valid arguments, [(position, name, lowest value)])
CONTRACTS = [
    (totient, (6,), [(0, "n", 1)]),
    (totient_sieve, (10,), [(0, "limit", 1)]),
    (divisors, (6,), [(0, "n", 1)]),
    (divisor_set, (6, 1), [(0, "k", 1)]),
    (cyclotomic_value, (6, 2), [(0, "n", 1), (1, "a", 2)]),
    (_check_growth_args, (2, 10, 1), [(0, "base a", 2), (1, "n_max", 1), (2, "step", 1)]),
    (pair_expectation, (10, 2, 3), [(0, "n", 1), (1, "d1", 1), (2, "d2", 1)]),
    (expected_X, (10,), [(0, "n", 1)]),
    (variance_bound, (5,), [(0, "n", 1)]),
    (monte_carlo, (10, 2, 1), [(0, "n", 1), (1, "trials", 1), (2, "seed", 0)]),
    (_indicator_counts, (3,), [(0, "n", 1)]),
    (random_shifts, (1, 5), [(0, "seed", 0), (1, "n", 1)]),
    (subseed, (1, 3), [(0, "seed", 0), (1, "trial_index", 0)]),
    (SignPattern.shifts, (parse_pattern("-+"), 3), [(1, "n", 1)]),
    (all_sign_words, (2,), [(0, "max_period", 1)]),
    (cover_members, (ProgressionCover(2, {1: 2}), 5), [(1, "x", 1)]),
    (oracle_L, (parse_pattern("-"), 5), [(1, "n", 1)]),
    (ProgressionCover, (4, {}), [(0, "modulus", 1)]),
    (log_big, (5,), [(0, "x", 1)]),
]

CASES = [
    pytest.param(
        func, args[:pos] + (bad,) + args[pos + 1 :], name, message,
        id=f"{func.__name__}-{name.replace(' ', '_')}-{bad!r}",
    )
    for func, args, checked in CONTRACTS
    for pos, name, low in checked
    for bad, message in (
        (True, "be an int, got True"),
        (2.0, "be an int, got 2.0"),
        (low - 1, f"be >= {low}, got {low - 1}"),
    )
]


@pytest.mark.parametrize("func, args, name, message", CASES)
def test_refusal_names_the_argument_and_its_value(func, args, name, message):
    with pytest.raises(ValueError) as exc:
        func(*args)
    assert str(exc.value) == f"{name} must {message}"


def test_valid_arguments_pass_the_contract():
    for func, args, _ in CONTRACTS:
        func(*args)


def test_every_seed_entry_refuses_seeds_past_64_bits():
    for call in (
        lambda seed: random_shifts(seed, 3),
        lambda seed: subseed(seed, 0),
        lambda seed: monte_carlo(10, 2, seed),
    ):
        assert call((1 << 64) - 1) is not None
        with pytest.raises(ValueError, match=f"seed must fit in 64 bits, got {1 << 64}"):
            call(1 << 64)


def test_subseed_refuses_trial_indexes_past_64_bits():
    # a mask would map trial 2^64 onto trial 0
    with pytest.raises(ValueError) as exc:
        subseed(5, 1 << 64)
    assert str(exc.value) == f"trial_index must fit in 64 bits, got {1 << 64}"


@pytest.mark.parametrize(
    "call",
    [lambda: growth_constant("-+"), lambda: pattern_cover((-1, 1)),
     lambda: surrogate_series(2, [-1, 1], 10)],
    ids=["growth_constant-str", "pattern_cover-tuple", "surrogate_series-list"],
)
def test_cover_entries_refuse_anything_but_a_sign_pattern(call):
    with pytest.raises(ValueError, match="^pattern must be a SignPattern, got "):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: cover_members({1: 2}, 5), "cover must be a ProgressionCover, got {1: 2}"),
    (lambda: exact_log_lcm_series(2, 5, 10), "shifts must be a SignPattern or a sequence, got 5"),
    (lambda: oracle_L(5, 3), "shifts must be a SignPattern or a sequence, got 5"),
    (lambda: oracle_L(None, 3), "shifts must be a SignPattern or a sequence, got None"),
    (lambda: parse_pattern(5), "pattern must be a str, got 5"),
    (lambda: parse_pattern(["-", "+"]), "pattern must be a str, got ['-', '+']"),
    (lambda: SignPattern(5), "word must be a sequence, got 5"),
    (lambda: SignPattern(None), "word must be a sequence, got None"),
    (lambda: ProgressionCover(4, 5), "multipliers must be a dict, got 5"),
    (lambda: ProgressionCover(4, None), "multipliers must be a dict, got None"),
    (lambda: pattern_cover(parse_pattern("-"))._replace(multipliers=3),
     "multipliers must be a dict, got 3"),
], ids=["cover_members-dict", "exact_log_lcm_series-int", "oracle_L-int", "oracle_L-None",
        "parse_pattern-int", "parse_pattern-list", "SignPattern-int", "SignPattern-None",
        "ProgressionCover-int", "ProgressionCover-None", "ProgressionCover-replace-int"])
def test_wrong_types_are_refused_by_name(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("args, message", [
    ((1, "-+", 10), "base a must be >= 2, got 1"),
    ((2, "-+", 0), "n_max must be >= 1, got 0"),
    ((2, "-+", 10, 0), "step must be >= 1, got 0"),
], ids=["base", "n_max", "step"])
def test_surrogate_series_checks_its_numbers_before_the_pattern(args, message):
    with pytest.raises(ValueError, match=message):
        surrogate_series(*args)


MONTE_CARLO_PROBE = """
import sys
from cyclolcm.stochastic import monte_carlo
for args in ((0, 2, 1), (2.0, 2, 1), (10, 0, 1), (10, True, 1), (10, 2, -1),
             (10, 2, 1 << 64), (10, 2, 1.0)):
    try:
        monte_carlo(*args)
    except ValueError:
        print("numpy" in sys.modules)
    else:
        print("accepted", args)
"""


def test_monte_carlo_refuses_before_numpy_loads():
    package_root = os.path.dirname(os.path.dirname(cyclolcm.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", MONTE_CARLO_PROBE],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"] * 7
