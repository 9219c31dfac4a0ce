"""Empirical growth of log lcm(a + s_1, a^2 + s_2, ..., a^n + s_n).

Two engines:

* the exact engine brackets lcm over arbitrary-precision shifted powers
  between two close bounds built from their cyclotomic factors, close
  enough to read its log exactly, and also tracks the totient-sum surrogate
  phi_sum = sum_{d in L(n)} phi(d) * log a over the divisor-set union
  L(n), each d taken at its first-entry time.  Each phi(d) comes from
  the cached factorization of d that Phi_d(a) then reuses, not from a
  sieve, so the engine builds no array.  In nats the two are related by

      log_lcm = phi_sum + sum_{d in L(n)} sum_{e | d} mu(d/e) log(1 - a^-e)
                - slack,

  where the middle term, the cyclotomic correction
  log Phi_d(a) - phi(d) log a summed over L(n), takes both signs, and the
  slack >= 0 removes the powers of 2 that several Phi_d(a) share (odd a
  only; at most (v_2(a^2 - 1) + log_2 2n) log 2 nats).  Neither value
  bounds the other: at a = 2 phi_sum is below log_lcm at 1254 of the
  n <= 1500 for "-" and at 1496 for "--+", and above it at all but 5 for
  "+".  The correction is O(n log n) nats, as is the error of the totient
  sum against C * n^2 / pi^2, so |ratio - C| = O(log n / n) with no
  monotone approach (the totient-sum error changes sign infinitely often);

* the cover-based surrogate evaluates the same totient sum through the
  pattern's progression cover and one totient sieve up to n (not 2n: an
  odd d of L(n) is at most n, and phi(2e) comes from phi(e)), which
  scales to n ~ 10^6 where the exact engine cannot go.

Normalized ratios divide by (log a / pi^2) * n^2, so they converge to the
pattern's growth constant.  lcm_n reaches roughly
C * (log a / pi^2) * n^2 nats (~5 Mbit at a=2, n=4000).  It is the
product of the odd parts of Phi_d(a) over L(n) times 2^M_2(n), with
M_2(n) = max_{j<=n} v_2(a^j + s_j) (see _lcm_enclosures), so no gcd or
division at the lcm's size is needed.  The series takes three steps: it
buckets each d <= 2n by its first-entry time (cover._entry_buckets) and
sums phi over the buckets once; _lcm_enclosures then brackets lcm_k
between two products of its odd parts, cut to a fixed width once per k;
and the series reads log lcm_n from 128-bit ends (see
exact_log_lcm_series), so it multiplies no big accumulator and the largest
share of its time is Phi_d(a) (timings in the README).
exact_log_lcm_series refuses n_max beyond EXACT_ENGINE_CAP (2000) unless
override_cap is set.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import IO, Iterator, NamedTuple, Sequence

from .constants import GrowthConstant
from .cover import _entry_buckets, pattern_cover
from .cyclotomic import SIEVE_BLOCK, _check_int, _v2, cyclotomic_value, totient, totient_sieve
from .exact_arith import log_big
from .patterns import SignPattern, _shift_list

__all__ = [
    "EXACT_ENGINE_CAP",
    "ENVELOPE_K",
    "GROWTH_CSV_HEADER",
    "GrowthSample",
    "ConvergenceReport",
    "exact_log_lcm_series",
    "surrogate_series",
    "convergence_report",
    "write_growth_csv",
]

EXACT_ENGINE_CAP = 2000

# Starting width of the exact series' enclosure, in bits: its relative width
# is about (cuts made) * 2^-128, far too narrow to straddle the top 64 bits.
_ENCLOSURE_BITS = 128

# Convergence envelope: |ratio - C| <= ENVELOPE_K * log n / n.
# In nats, log lcm = log a * sum_{d in L(n)} phi(d)        (totient sum)
#                  + sum_{d in L(n)} sum_{e | d} mu(d/e) log(1 - a^-e)
#                  - 2-adic slack,
# with L(n) inside [1, 2n].  Moebius inversion of floor(x/d) bounds the
# totient-sum error |sum_{d<=x} phi(d) - 3x^2/pi^2| by x log x / 2 + O(x),
# and the same argument over the cover's progressions gives
# log a * sum phi = C (log a / pi^2) n^2 + O(n log n log a); the cyclotomic
# correction is bounded per d for fixed a, so it is O(n log n) nats as
# well, and the slack is O(log n).  Dividing
# by the normalisation (log a / pi^2) n^2, an error of n log n log a nats is
# a ratio error of pi^2 log n / n, hence K = pi^2.  The error changes sign
# infinitely often, so nothing makes |ratio - C| shrink at every checkpoint.
ENVELOPE_K = math.pi**2

GROWTH_CSV_HEADER = "n,log_lcm,phi_sum,ratio_exact,ratio_surrogate"


class GrowthSample(NamedTuple):
    """One checkpoint of a growth series.

    log_lcm / ratio_exact are None when only the surrogate engine ran;
    phi_sum carries the log a factor (nats).
    """

    n: int
    log_lcm: float | None
    phi_sum: float | None
    ratio_exact: float | None
    ratio_surrogate: float | None


class ConvergenceReport(NamedTuple):
    constant: float
    n_final: int
    final_ratio_exact: float | None
    final_ratio_surrogate: float | None
    gap_exact: float | None
    gap_surrogate: float | None
    within_envelope_exact: bool | None
    within_envelope_surrogate: bool | None


def _check_growth_args(a: int, n_max: int, step: int) -> None:
    _check_int("base a", a, 2)
    _check_int("n_max", n_max)
    _check_int("step", step)


def _lcm_enclosures(
    a: int, seq: list[int], entering: list[list[int]], bits: int
) -> Iterator[tuple[int, int, int, int]]:
    """Yield (k, lo, hi, exp) for every k <= n, with
    lo * 2^exp <= lcm_k <= hi * 2^exp; seq is s_1..s_n as _shift_list
    returns it and entering[k] the d with T(d) = k (cover._entry_buckets).

    lcm_k = 2^M_2(k) * prod_{d in L(k)} odd(Phi_d(a)), with
    M_2(k) = max_{j<=k} v_2(a^j + s_j).  An odd prime p not dividing a
    divides Phi_d(a) only on its chain ord_p(a) * p^j (Bang, Zsigmondy),
    and the chain members in any D_j form a prefix of that chain, so their
    union already carries the largest power of p.  The power of two is
    taken straight from its definition.

    Step k multiplies the odd part of the product of the entering
    Phi_d(a), which is the product of their odd parts, into lo and hi,
    then floors lo and ceils hi to at most bits bits (exp counts the bits
    dropped, plus M_2(k)).
    """
    lo = hi = 1
    dropped = 0  # bits cut from lo and hi
    m2 = 0  # M_2(k)
    power = 1  # a^k
    for k, shift in enumerate(seq, 1):
        power *= a
        m2 = max(m2, _v2(power + shift))
        part = math.prod(cyclotomic_value(d, a) for d in entering[k])
        part >>= _v2(part)
        lo *= part
        hi *= part
        cut = max(hi.bit_length() - bits, 0)
        lo >>= cut
        hi = -(-hi >> cut)
        dropped += cut
        yield k, lo, hi, dropped + m2


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
    surrogate over the same union L(n), so the two normalized
    ratios can be compared directly.  Every integer in an enclosure whose
    ends share their bit length and top 64 bits shares both, and log_big
    reads nothing else, so log_lcm is log_big of the exact lcm bit for bit.
    Wider ends restart the enclosure at twice the width, with the same
    buckets and phi sums; that ends, as a width past every bit cuts
    nothing.
    """
    _check_growth_args(a, n_max, step)
    if n_max > EXACT_ENGINE_CAP and not override_cap:
        raise ValueError(
            f"exact engine capped at n_max <= {EXACT_ENGINE_CAP} "
            f"(requested {n_max}); pass override_cap=True to force, or use "
            "the surrogate engine for large n"
        )
    seq = _shift_list(shifts, n_max)
    entering = _entry_buckets(seq)
    # [k]: the sum of phi(d) over L(k)
    phi_totals = list(accumulate(sum(map(totient, bucket)) for bucket in entering))
    log_a = math.log(a)
    want = _checkpoints(n_max, step)
    bits = _ENCLOSURE_BITS
    while True:
        samples = []
        for k, lo, hi, exp in _lcm_enclosures(a, seq, entering, bits):
            if k not in want:
                continue
            nbits = lo.bit_length()
            below_top = max(nbits - 64, 0)
            if nbits != hi.bit_length() or lo >> below_top != hi >> below_top:
                break
            norm = log_a / math.pi**2 * k * k
            log_lcm = log_big(lo << exp)
            phi_sum = phi_totals[k] * log_a
            samples.append(
                GrowthSample(k, log_lcm, phi_sum, log_lcm / norm, phi_sum / norm)
            )
        else:  # every sample read
            return samples
        bits *= 2


def surrogate_series(
    a: int, pattern: SignPattern, n_max: int, step: int = 1
) -> list[GrowthSample]:
    """Cover-based totient-sum series; no exact lcm, so it scales far.

    Every d of L(n) is at most 2n, and an odd d is at most n, as it
    divides 2k only by dividing k <= n.  So one sieve up to n_max, rounded
    up to a multiple of the cover's modulus M, is enough: phi(2e) is phi(e)
    for odd e and 2 phi(e) for even e.  The sieve is turned in place into
    prefix sums along each residue class: viewed as rows of M, entry
    [r, c - 1] becomes the sum of phi(e) over e ≡ c (mod M), e <= r*M + c.
    The sums run one block of about SIEVE_BLOCK entries at a time, each
    block starting from the last row of the one before: numpy walks a
    cumsum down the rows column by column, and across the whole table
    a power-of-two M makes every step of that walk a cache miss.
    An odd cover class t, slope theta_t = 2/q_t, sums phi(e) over
    e ≡ t (mod M) up to floor(2n / q_t); an even class t sums phi(2e) over
    e ≡ t/2 (mod M/2), so it reads the two classes t/2 and t/2 + M/2 up to
    floor(n / q_t).  Every e of class c has the parity of c (M is
    even), so a read of class c takes the weight 2 when c is even.

    A read of class c up to `limit` is entry [(limit - c) // M, c - 1],
    or 0 when limit < c.  The loop takes the cover one class at a time and
    adds its reads for all samples at once, so its arrays hold one entry
    per sample.
    """
    _check_growth_args(a, n_max, step)
    log_a = math.log(a)
    cover = pattern_cover(pattern)
    modulus = cover.modulus
    sums = totient_sieve(-(-n_max // modulus) * modulus)[1:].reshape(-1, modulus)
    rows = max(1, SIEVE_BLOCK // modulus)
    for r in range(0, len(sums), rows):
        block = sums[r : r + rows]
        if r:
            block[0] += sums[r - 1]
        block.cumsum(axis=0, out=block)
    import numpy as np  # loaded by the sieve, so a traced run charges the import there

    ns = sorted(_checkpoints(n_max, step))
    n_arr = np.array(ns, dtype=np.int64)
    totals = np.zeros_like(n_arr)
    for t, q in cover.multipliers.items():
        if t % 2:
            limit, columns = n_arr * 2 // q, (t,)
        else:
            limit, columns = n_arr // q, (t // 2, t // 2 + modulus // 2)
        for c in columns:
            row = (limit - c) // modulus  # -1 while class c is still empty
            totals += (2 - c % 2) * sums[row, c - 1] * (row >= 0)

    samples = []
    for n, phi_total in zip(ns, totals.tolist()):
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
    gap_exact, within_exact = _envelope_gaps(samples, c, "ratio_exact")
    gap_sur, within_sur = _envelope_gaps(samples, c, "ratio_surrogate")
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
