"""Growth constants of log lcm(a + s1, a^2 + s2, ..., a^n + sn).

For an integer base a >= 2 and shifts s_k in {-1, +1}, the log of the
running least common multiple of the shifted powers grows like
C * (log a / pi^2) * n^2.  This package computes C exactly (as a reduced
rational) for every periodic shift pattern, evaluates the random-shift
constant 6 * Li2(1/2), and provides exact big-integer engines, totient-sum
surrogates, and seeded Monte Carlo experiments to watch the convergence.
"""

from .exact_arith import log_big, valuation
from .cyclotomic import (
    cyclotomic_value,
    divisor_set,
    divisors,
    totient,
    totient_sieve,
)
from .patterns import SignPattern, parse_pattern, random_shifts, subseed
from .cover import (
    ProgressionCover,
    cover_members,
    oracle_L,
    pattern_cover,
)
from .constants import (
    GrowthConstant,
    density_c,
    dilog,
    growth_constant,
    random_model_constant,
)
from .growth import (
    GrowthSample,
    convergence_report,
    exact_lcm_stream,
    exact_log_lcm_series,
    surrogate_series,
    write_growth_csv,
)
from .stochastic import (
    TrialResult,
    expected_X,
    exhaustive_trials,
    gcd_pair_sum,
    indicator_expectation,
    monte_carlo,
    pair_expectation,
    variance_bound,
)

__version__ = "0.1.0"

__all__ = [
    "valuation",
    "log_big",
    "cyclotomic_value",
    "divisor_set",
    "divisors",
    "totient",
    "totient_sieve",
    "SignPattern",
    "parse_pattern",
    "random_shifts",
    "subseed",
    "ProgressionCover",
    "pattern_cover",
    "cover_members",
    "oracle_L",
    "GrowthConstant",
    "density_c",
    "growth_constant",
    "dilog",
    "random_model_constant",
    "GrowthSample",
    "exact_lcm_stream",
    "exact_log_lcm_series",
    "surrogate_series",
    "convergence_report",
    "write_growth_csv",
    "TrialResult",
    "indicator_expectation",
    "pair_expectation",
    "expected_X",
    "variance_bound",
    "gcd_pair_sum",
    "monte_carlo",
    "exhaustive_trials",
]
