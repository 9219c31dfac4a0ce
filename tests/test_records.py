"""Result records: immutable, compared by value, with a `Name(field=...)` repr."""

from fractions import Fraction as F

import pytest

from cyclolcm.constants import growth_constant
from cyclolcm.cover import ProgressionCover
from cyclolcm.growth import ConvergenceReport, GrowthSample
from cyclolcm.patterns import SignPattern, parse_pattern
from cyclolcm.stochastic import MonteCarloSummary, TrialResult
from cyclolcm.verify import CheckResult

# test id -> (build the record, one of its fields, its repr)
RECORDS = {
    "SignPattern": (lambda: SignPattern((-1, 1)), "word", "SignPattern(word=(-1, 1))"),
    "SignPattern-from-list": (
        lambda: SignPattern([-1, 1]), "word", "SignPattern(word=(-1, 1))"
    ),
    "ProgressionCover": (
        lambda: ProgressionCover(2, {1: F(1)}),
        "modulus",
        "ProgressionCover(modulus=2, slopes={1: Fraction(1, 1)})",
    ),
    "GrowthConstant": (
        lambda: growth_constant(parse_pattern("-")),
        "C",
        "GrowthConstant(pattern=SignPattern(word=(-1,)), C=Fraction(3, 1), "
        "cover=ProgressionCover(modulus=2, slopes={1: Fraction(1, 1), 2: Fraction(1, 1)}))",
    ),
    "GrowthSample": (
        lambda: GrowthSample(10, None, 1.5, None, 0.25),
        "n",
        "GrowthSample(n=10, log_lcm=None, phi_sum=1.5, ratio_exact=None, ratio_surrogate=0.25)",
    ),
    "ConvergenceReport": (
        lambda: ConvergenceReport(3.0, 10, None, 3.5, None, 0.5, None, True),
        "gap_surrogate",
        "ConvergenceReport(constant=3.0, n_final=10, final_ratio_exact=None, "
        "final_ratio_surrogate=3.5, gap_exact=None, gap_surrogate=0.5, "
        "within_envelope_exact=None, within_envelope_surrogate=True)",
    ),
    "TrialResult": (
        lambda: TrialResult(7, 0, 50, 1200, 4.5),
        "X",
        "TrialResult(seed=7, trial_index=0, n=50, X=1200, ratio=4.5)",
    ),
    "MonteCarloSummary": (
        lambda: MonteCarloSummary(50, 2, 1200.0, None, 4.5, 4.0, 0.5),
        "mean_X",
        "MonteCarloSummary(n=50, trials=2, mean_X=1200.0, var_X=None, mean_ratio=4.5, "
        "theory_ratio=4.0, abs_gap=0.5)",
    ),
    "CheckResult": (
        lambda: CheckResult("x", True), "ok", "CheckResult(name='x', ok=True, detail='')"
    ),
}


@pytest.mark.parametrize("build, field, text", RECORDS.values(), ids=list(RECORDS))
def test_record_contract(build, field, text):
    record = build()
    assert repr(record) == text
    assert record == build() and record is not build()
    assert hash(record) == hash(build())
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_sign_pattern_keeps_no_reference_to_the_callers_list():
    word = [-1, 1]
    pattern = SignPattern(word)
    word.append(0)
    assert pattern.word == (-1, 1) and str(pattern) == "-+"
    assert pattern.shifts(3) == [-1, 1, -1]
    assert hash(pattern) == hash(SignPattern((-1, 1)))
    assert pattern._replace(word=[1]) == SignPattern((1,))


def test_monte_carlo_summary_json_keys_in_field_order():
    obj = MonteCarloSummary(50, 2, 1200.0, None, 4.5, 4.0, 0.5).to_json_obj()
    assert list(obj.items()) == [
        ("n", 50),
        ("trials", 2),
        ("mean_X", 1200.0),
        ("var_X", None),
        ("mean_ratio", 4.5),
        ("theory_ratio", 4.0),
        ("abs_gap", 0.5),
    ]
