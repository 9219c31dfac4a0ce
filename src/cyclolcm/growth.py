"""Empirical growth of log lcm(a + s_1, a^2 + s_2, ..., a^n + s_n).

Two engines:

* the exact engine builds lcm over arbitrary-precision shifted powers
  from their cyclotomic factors, keeping the running accumulator exact
  and also tracking the totient-sum surrogate
  phi_sum = sum_{d in L(n)} phi(d) * log a over the literal divisor-set
  union.  In nats the two are related by

      log_lcm = phi_sum + sum_{d in L(n)} sum_{e | d} mu(d/e) log(1 - a^-e)
                - slack,

  where the middle term, the cyclotomic correction
  log Phi_d(a) - phi(d) log a summed over L(n), takes both signs, and the
  slack >= 0 removes the repeated powers of primes p <= 2n that several
  Phi_d(a) share.  Neither value bounds the other: at a = 2 phi_sum is
  below log_lcm at 1254 of the n <= 1500 for "-" and at 1496 for "--+",
  and above it at all but 5 for "+".  The correction and the slack are
  both O(n log n) nats, as is the error of the totient sum against
  C * n^2 / pi^2, so |ratio - C| = O(log n / n) with no monotone approach
  (the totient-sum error changes sign infinitely often);

* the cover-based surrogate evaluates the same totient sum through the
  pattern's progression cover and a sieve, which scales to n ~ 10^6 where
  the exact engine cannot go.

Normalized ratios divide by (log a / pi^2) * n^2, so they converge to the
pattern's growth constant.  The exact accumulator reaches roughly
C * (log a / pi^2) * n^2 nats (~5 Mbit at a=2, n=4000).  Step k multiplies
it once by lcm_k / lcm_{k-1}, an integer of O(k log a) bits made of the
Phi_d(a) new to the union and a correction for the primes p <= 2k that
several of them share; no gcd or division at the accumulator's size is
needed.  That multiplication is most of the cost, and runtime grows
between n^3 and n^4 (a=2, "-": 0.11 s at n=1000, 1.5 s at n=2000 on a
2-core Xeon VM); the engine refuses n beyond a default cap of 2000 unless
overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

import numpy as np

from .constants import GrowthConstant
from .cover import pattern_cover
from .cyclotomic import (
    _factorize,
    _multiplicative_order,
    cyclotomic_value,
    divisor_set,
    totient_sieve,
)
from .exact_arith import log_big, valuation
from .patterns import SignPattern, _shift_list

__all__ = [
    "EXACT_ENGINE_CAP",
    "ENVELOPE_K",
    "GROWTH_CSV_HEADER",
    "GrowthSample",
    "ConvergenceReport",
    "exact_lcm_stream",
    "exact_log_lcm_series",
    "surrogate_series",
    "convergence_report",
    "write_growth_csv",
]

EXACT_ENGINE_CAP = 2000

# Convergence envelope: |ratio - C| <= ENVELOPE_K * log n / n.
# In nats, log lcm = log a * sum_{d in L(n)} phi(d)        (totient sum)
#                  + sum_{d in L(n)} sum_{e | d} mu(d/e) log(1 - a^-e)
#                  - small-prime slack,
# with L(n) inside [1, 2n].  Moebius inversion of floor(x/d) bounds the
# totient-sum error |sum_{d<=x} phi(d) - 3x^2/pi^2| by x log x / 2 + O(x),
# and the same argument over the cover's progressions gives
# log a * sum phi = C (log a / pi^2) n^2 + O(n log n log a); the cyclotomic
# correction is bounded per d for fixed a and the slack loses at most
# log 2n per prime p <= 2n, so both are O(n log n) nats as well.  Dividing
# by the normalisation (log a / pi^2) n^2, an error of n log n log a nats is
# a ratio error of pi^2 log n / n, hence K = pi^2.  The error changes sign
# infinitely often, so nothing makes |ratio - C| shrink at every checkpoint.
ENVELOPE_K = math.pi**2

GROWTH_CSV_HEADER = "n,log_lcm,phi_sum,ratio_exact,ratio_surrogate"


@dataclass(frozen=True)
class GrowthSample:
    """One checkpoint of a growth series.

    log_lcm / ratio_exact are None when only the surrogate engine ran;
    phi_sum carries the log a factor (nats).
    """

    n: int
    log_lcm: float | None
    phi_sum: float | None
    ratio_exact: float | None
    ratio_surrogate: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    constant: float
    n_final: int
    final_ratio_exact: float | None
    final_ratio_surrogate: float | None
    gap_exact: float | None
    gap_surrogate: float | None
    within_envelope_exact: bool | None
    within_envelope_surrogate: bool | None


def _union_step(union: set[int], k: int, shift: int) -> tuple[list[int], list[int]]:
    """D_k, the divisor set of a^k + shift, and its members new to the union.

    union holds L(k - 1) on entry and L(k) on return.
    """
    divs = divisor_set(k, shift)
    fresh = [d for d in divs if d not in union]
    union.update(fresh)
    return divs, fresh


def exact_lcm_stream(
    a: int, shifts: SignPattern | Sequence[int], n_max: int
) -> Iterator[tuple[int, int]]:
    """Yield (k, lcm(a + s_1, ..., a^k + s_k)) for k = 1..n_max, exactly.

    The shifts must be -1 or +1.  Since a^k + s_k = prod_{d in D_k} Phi_d(a),
    each step multiplies the previous lcm by the product of Phi_d(a) over
    the d in D_k new to the union L(k), corrected by a per-prime ledger.
    A prime p not dividing a divides Phi_d(a) exactly when d lies on its
    chain ord_p(a) * p^j (Bang, Zsigmondy), so only primes whose chain has
    a second member o * p <= 2k can divide two values of the union.  For
    those the step's exponent of p is the rise of M_p = max_{j<=k}
    v_p(a^j + s_j) minus the valuations that the new Phi_d(a) bring.
    """
    if a < 2:
        raise ValueError(f"base a must be >= 2, got {a}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    seq = _shift_list(shifts, n_max)
    union: set[int] = set()
    chains: dict[int, list[int]] = {}  # d -> ledger primes p with d on p's chain
    weight: dict[tuple[int, int], int] = {}  # (p, d) -> v_p(Phi_d(a)), d in union
    top: dict[int, int] = {}  # p -> M_p(k - 1)
    acc = 1
    for k in range(1, n_max + 1):
        for m in range(max(2 * k - 1, 2), 2 * k + 1):
            # m = o * p with o = ord_p(a) < p is the second member of p's
            # chain, so p is the largest prime of m; below m only o was on it.
            p = max(_factorize(m))
            o = m // p
            if a % p == 0 or _multiplicative_order(a, p) != o:
                continue
            d = o
            while d <= 2 * n_max:
                chains.setdefault(d, []).append(p)
                d *= p
            top[p] = 0
            if o in union:
                top[p] = weight[p, o] = valuation(p, cyclotomic_value(o, a))
        divs, fresh = _union_step(union, k, seq[k - 1])
        values = [cyclotomic_value(d, a) for d in fresh]
        ratio = math.prod(values)
        gained: dict[int, int] = {}
        for d, value in zip(fresh, values):
            for p in chains.get(d, ()):
                weight[p, d] = valuation(p, value)
                gained[p] = gained.get(p, 0) + weight[p, d]
        level: dict[int, int] = {}  # p -> v_p(a^k + s_k)
        for d in divs:
            for p in chains.get(d, ()):
                level[p] = level.get(p, 0) + weight[p, d]
        for p, v in level.items():
            e = max(v - top[p], 0) - gained.get(p, 0)
            top[p] = max(top[p], v)
            if e > 0:
                ratio *= p**e
            elif e < 0:
                ratio, rem = divmod(ratio, p**-e)
                assert rem == 0, f"ledger division not exact at k={k}, p={p}"
        acc *= ratio
        yield k, acc


def _checkpoints(n_max: int, step: int) -> set[int]:
    pts = set(range(step, n_max + 1, step))
    pts.add(n_max)
    return pts


def exact_log_lcm_series(
    a: int,
    shifts: SignPattern | Sequence[int],
    n_max: int,
    step: int = 1,
    override_cap: bool = False,
) -> list[GrowthSample]:
    """Exact growth series with samples at n ≡ 0 (mod step) and at n_max.

    Each sample carries both log of the exact lcm and the totient-sum
    surrogate over the literal divisor-set union, so the two normalized
    ratios can be compared directly.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if n_max > EXACT_ENGINE_CAP and not override_cap:
        raise ValueError(
            f"exact engine capped at n_max <= {EXACT_ENGINE_CAP} "
            f"(requested {n_max}); pass override_cap=True to force, or use "
            "the surrogate engine for large n"
        )
    log_a = math.log(a)
    phi = totient_sieve(2 * n_max)
    seq = _shift_list(shifts, n_max)
    # phi_total accumulates phi(d) as each d first enters the union L(k).
    union: set[int] = set()
    phi_total = 0
    want = _checkpoints(n_max, step)
    samples = []
    for k, acc in exact_lcm_stream(a, seq, n_max):
        for d in _union_step(union, k, seq[k - 1])[1]:
            phi_total += int(phi[d])
        if k in want:
            norm = log_a / math.pi**2 * k * k
            log_lcm = log_big(acc)
            phi_sum = phi_total * log_a
            samples.append(
                GrowthSample(k, log_lcm, phi_sum, log_lcm / norm, phi_sum / norm)
            )
    return samples


def surrogate_series(
    a: int, pattern: SignPattern, n_max: int, step: int = 1
) -> list[GrowthSample]:
    """Cover-based totient-sum series; no exact lcm, so it scales far.

    One sieve up to 2*n_max turns every sample into arithmetic-progression
    array sums over the pattern's cover classes.
    """
    if a < 2:
        raise ValueError(f"base a must be >= 2, got {a}")
    if n_max < 1 or step < 1:
        raise ValueError(f"n_max and step must be >= 1, got ({n_max}, {step})")
    log_a = math.log(a)
    cover = pattern_cover(pattern)
    phi = totient_sieve(max(2 * n_max, cover.modulus))
    samples = []
    for n in sorted(_checkpoints(n_max, step)):
        phi_total = 0
        for t, theta in cover.slopes.items():
            limit = theta.numerator * n // theta.denominator
            phi_total += int(phi[t : limit + 1 : cover.modulus].sum())
        phi_sum = phi_total * log_a
        norm = log_a / math.pi**2 * n * n
        samples.append(GrowthSample(n, None, phi_sum, None, phi_sum / norm))
    return samples


def _envelope_gaps(
    samples: list[GrowthSample], constant: float, field: str
) -> tuple[float | None, bool | None]:
    """Gap at the final n and whether the samples nearest n_f/4, n_f/2 and
    n_f all lie within ENVELOPE_K * log n / n of the constant."""
    present = [s for s in samples if getattr(s, field) is not None]
    if not present:
        return None, None
    final = present[-1]
    within = True
    for target in (final.n / 4, final.n / 2, final.n):
        nearest = min(present, key=lambda s: abs(s.n - target))
        gap = abs(getattr(nearest, field) - constant)
        within &= gap <= ENVELOPE_K * math.log(nearest.n) / nearest.n
    return abs(getattr(final, field) - constant), within


def convergence_report(
    samples: Sequence[GrowthSample], constant: float | GrowthConstant
) -> ConvergenceReport:
    """Summarize how close the normalized ratios are to the constant."""
    if len(samples) < 3:
        raise ValueError(f"need at least 3 samples, got {len(samples)}")
    samples = sorted(samples, key=lambda s: s.n)
    c = float(constant.C) if isinstance(constant, GrowthConstant) else float(constant)
    final = samples[-1]
    gap_exact, within_exact = _envelope_gaps(list(samples), c, "ratio_exact")
    gap_sur, within_sur = _envelope_gaps(list(samples), c, "ratio_surrogate")
    return ConvergenceReport(
        constant=c,
        n_final=final.n,
        final_ratio_exact=final.ratio_exact,
        final_ratio_surrogate=final.ratio_surrogate,
        gap_exact=gap_exact,
        gap_surrogate=gap_sur,
        within_envelope_exact=within_exact,
        within_envelope_surrogate=within_sur,
    )


def write_growth_csv(samples: Sequence[GrowthSample], out: IO[str]) -> None:
    """Emit the growth CSV; missing exact fields become empty columns."""
    out.write(GROWTH_CSV_HEADER + "\n")
    for s in samples:
        fields = [
            str(s.n),
            "" if s.log_lcm is None else repr(s.log_lcm),
            "" if s.phi_sum is None else repr(s.phi_sum),
            "" if s.ratio_exact is None else repr(s.ratio_exact),
            "" if s.ratio_surrogate is None else repr(s.ratio_surrogate),
        ]
        out.write(",".join(fields) + "\n")
