"""Growth constants of log lcm(a + s1, a^2 + s2, ..., a^n + sn).

For an integer base a >= 2 and shifts s_k in {-1, +1}, the log of the
running least common multiple of the shifted powers grows like
C * (log a / pi^2) * n^2.  This package computes C exactly (as a reduced
rational) for every periodic shift pattern, evaluates the random-shift
constant 6 * Li2(1/2), and provides an exact big-integer engine, totient-sum
surrogates, and seeded Monte Carlo experiments to watch the convergence.

Each exported name loads its defining module on first use (PEP 562), so
`import cyclolcm` itself loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOME = {
    name: module
    for module, names in {
        "exact_arith": "log_big",
        "cyclotomic": "cyclotomic_value divisor_set divisors totient totient_sieve",
        "patterns": "SignPattern parse_pattern random_shifts subseed",
        "cover": "ProgressionCover pattern_cover cover_members oracle_L",
        "constants": "GrowthConstant growth_constant random_model_constant",
        "growth": "GrowthSample exact_log_lcm_series surrogate_series",
        "stochastic": "TrialResult pair_expectation expected_X variance_bound monte_carlo",
    }.items()
    for name in names.split()
}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Load the defining module of a public name and keep the object here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
