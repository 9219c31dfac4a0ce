"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with output visible:

    pytest -s tests/test_acceptance.py -v

Each criterion pins its tolerance and runtime budget; nothing is deferred
to later calibration.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from cyclolcm import (
    exact_log_lcm_series,
    expected_X,
    growth_constant,
    monte_carlo,
    parse_pattern,
    random_model_constant,
    surrogate_series,
    variance_bound,
)
from cyclolcm.growth import ENVELOPE_K
from cyclolcm.verify import (
    suite_cover_oracle,
    suite_cyclotomic,
    suite_stochastic_oracle,
    suite_table1,
)
from test_constants import LI2_HALF_6
from test_stochastic import gcd_pair_sum, gcd_pair_sum_bruteforce

SEED = 0x5EEDC0DE


def report(cid, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {cid}: {status}{tail}")
    return ok


def test_c01_reference_table_exact():
    t0 = time.perf_counter()
    results = suite_table1()
    elapsed = time.perf_counter() - t0
    failures = [r.name for r in results if not r.ok]
    ok = report(
        "C1 period<=5 constants exact",
        len(results) == 52 and not failures and elapsed < 1.0,
        f"{len(results)} entries, {elapsed:.2f}s",
    )
    assert ok, failures


def test_c02_cover_equals_oracle():
    t0 = time.perf_counter()
    results = suite_cover_oracle()
    elapsed = time.perf_counter() - t0
    failures = [(r.name, r.detail) for r in results if not r.ok]
    ok = report(
        "C2 cover = oracle, 62 words x n<=500",
        len(results) == 62 and not failures and elapsed < 30.0,
        f"{elapsed:.2f}s",
    )
    assert ok, failures


def test_c03_cyclotomic_identities():
    t0 = time.perf_counter()
    results = suite_cyclotomic()
    elapsed = time.perf_counter() - t0
    failures = [(r.name, r.detail) for r in results if not r.ok]
    ok = report(
        "C3 cyclotomic product and gcd identities",
        not failures,
        f"{len(results)} checks, {elapsed:.2f}s",
    )
    assert ok, failures


def test_c04_stochastic_exhaustive_oracle():
    t0 = time.perf_counter()
    results = suite_stochastic_oracle()
    elapsed = time.perf_counter() - t0
    failures = [(r.name, r.detail) for r in results if not r.ok]
    ok = report(
        "C4 expectation formulas = 2^n enumeration, n<=12",
        not failures and elapsed < 120.0,
        f"{elapsed:.2f}s",
    )
    assert ok, failures


def test_c05_expected_value_constant():
    n = 10**4
    value = expected_X(n, "float") / n**2
    target = LI2_HALF_6 / math.pi**2
    rel = abs(value - target) / target
    ok = report(
        "C5 E[X]/n^2 at n=1e4 vs (6/pi^2)Li2(1/2)",
        rel <= 0.005,
        f"value={value:.6f} target={target:.6f} rel={rel:.4%}",
    )
    assert ok


def test_c06_monte_carlo_constant():
    t0 = time.perf_counter()
    results, summary = monte_carlo(2000, 64, SEED)
    elapsed = time.perf_counter() - t0
    theory = random_model_constant()
    rel = abs(summary.mean_ratio - theory) / theory
    exact_mean = float(expected_X(2000, "exact"))
    s = float(np.std([r.X for r in results], ddof=1))
    gate = 3 * s / math.sqrt(64)
    gap = abs(summary.mean_X - exact_mean)
    ok = report(
        "C6 Monte Carlo n=2000, 64 trials",
        rel <= 0.05 and gap <= gate and elapsed < 300.0,
        f"mean_ratio={summary.mean_ratio:.5f} rel={rel:.4%} "
        f"|mean-E|={gap:.1f}<= {gate:.1f}, {elapsed:.1f}s",
    )
    assert ok


# C7 checks the convergence envelope |ratio_exact - C| <= K * log n / n with
# K = ENVELOPE_K = pi^2, derived beside its definition in cyclolcm.growth.


def test_c07_growth_asymptotics_desk_scale():
    all_ok = True
    details = []
    for word in ("-", "+", "--+"):
        pattern = parse_pattern(word)
        c = float(growth_constant(pattern).C)
        t0 = time.perf_counter()
        samples = exact_log_lcm_series(2, pattern, 1500, step=375)
        elapsed = time.perf_counter() - t0
        assert [s.n for s in samples] == [375, 750, 1125, 1500]
        scaled = {s.n: s.n * abs(s.ratio_exact - c) / math.log(s.n) for s in samples}
        final_gap = abs(samples[-1].ratio_exact - c)
        within = final_gap <= 0.20 * c
        enveloped = all(v <= ENVELOPE_K for v in scaled.values())
        surrogate = surrogate_series(2, pattern, 10**5, step=10**5)[-1]
        sur_ok = abs(surrogate.ratio_surrogate - c) <= 0.005 * c
        runtime_ok = elapsed <= 600.0
        pattern_ok = within and enveloped and sur_ok and runtime_ok
        all_ok &= pattern_ok
        details.append(
            f"{word}: exact@{samples[-1].n} gap={final_gap:.4f} "
            f"({'<=20%' if within else '>20%'}), n*gap/log n "
            + " ".join(f"{n}:{v:.3f}" for n, v in scaled.items())
            + f" {'<=' if enveloped else 'NOT <='} K={ENVELOPE_K:.3f}, "
            f"surrogate rel={abs(surrogate.ratio_surrogate - c) / c:.5%}, "
            f"{elapsed:.1f}s"
        )
    ok = report("C7 growth ratios at desk scale", all_ok, "; ".join(details))
    assert ok, (
        "each pattern needs gap <= 20% of C at n=1500, "
        "n*|ratio_exact - C|/log n <= K at n=375/750/1125/1500, "
        "surrogate within 0.5% of C at n=1e5 and runtime <= 600s"
    )


def test_c08_gcd_pair_sum_witness():
    for n in range(1, 301):
        assert gcd_pair_sum(n) == gcd_pair_sum_bruteforce(n), n
    ratios = {n: gcd_pair_sum(2 * n) / gcd_pair_sum(n) for n in (250, 500, 1000, 2000)}
    ok = report(
        "C8 gcd-pair sum: two engines equal to n=300, doubling ratio <= 4.5",
        all(r <= 4.5 for r in ratios.values()),
        " ".join(f"S(2*{n})/S({n})={r:.3f}" for n, r in ratios.items()),
    )
    assert ok


def test_c09_variance_bound_dominates():
    bound = variance_bound(500)
    _, summary = monte_carlo(500, 500, SEED)
    ok = report(
        "C9 sample variance <= explicit bound at n=500",
        summary.var_X <= bound,
        f"sample={summary.var_X:.4g} bound={bound:.4g}",
    )
    assert ok


def test_c10_determinism_of_random_route():
    first_e = repr(expected_X(10**4, "float"))
    second_e = repr(expected_X(10**4, "float"))
    r1, s1 = monte_carlo(2000, 64, SEED)
    r2, s2 = monte_carlo(2000, 64, SEED)
    blob1 = json.dumps([s1._asdict(), [(r.seed, r.X, r.ratio) for r in r1]])
    blob2 = json.dumps([s2._asdict(), [(r.seed, r.X, r.ratio) for r in r2]])
    ok = report(
        "C10 byte-identical reruns of the random-model routes",
        first_e == second_e and blob1 == blob2,
    )
    assert ok
