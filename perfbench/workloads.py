"""The benchmark's workloads: CLI command lists built from a seed.

Each workload is a list of `cyclolcm` argument vectors, run one after the
other, made of two of the four command groups below.  The seed feeds only
the `--seed` values of the commands that take one; every other input is
fixed, so the same seed always gives the same commands.  `tiny=True`
shrinks every size for the benchmark's smoke tests.

Why each workload exists, and which layer it is meant to stress, is in
WHY (copied into BENCHMARK.json) and PREDICTED_DOMINANT (checked by the
traced run).
"""

from __future__ import annotations

# First 64 letters of the Thue-Morse word ('-' for 0, '+' for 1): a fixed,
# aperiodic-looking word of the maximum period, whose cover has all 128
# residue classes mod 128.
THUE_MORSE_64 = "".join("+" if bin(k).count("1") % 2 else "-" for k in range(64))

MASK64 = (1 << 64) - 1


def _seed(seed: int, index: int) -> str:
    """The `--seed` value of the index-th seeded command of a workload."""
    return str((seed + index) & MASK64)


def exact_fold(seed: int, tiny: bool) -> list[list[str]]:
    n2, n10 = (60, 30) if tiny else (1000, 600)
    return [
        ["growth", "--exact", "--base", "2", "--pattern", "-", "--n-max", str(n2),
         "--step", str(n2 // 10)],
        ["growth", "--exact", "--base", "10", "--pattern", "-+-", "--n-max", str(n10),
         "--step", str(n10 // 10)],
        ["growth", "--exact", "--base", "2", "--random", "--seed", _seed(seed, 0),
         "--n-max", str(n2), "--step", str(n2 // 10)],
    ]


def surrogate_sweep(seed: int, tiny: bool) -> list[list[str]]:
    n = 2000 if tiny else 1_000_000
    long_word = THUE_MORSE_64[:8] if tiny else THUE_MORSE_64
    return [
        ["growth", "--base", "2", "--pattern", "-+", "--n-max", str(n), "--step", str(n // 10)],
        ["growth", "--base", "10", "--pattern", long_word, "--n-max", str(n),
         "--step", str(n // 10)],
        ["table", "--max-period", "3" if tiny else "8"],
        ["constant", "--pattern", long_word, "--explain"],
    ]


def random_model(seed: int, tiny: bool) -> list[list[str]]:
    small, large, flt, exact = (50, 200, 300, 40) if tiny else (4000, 20000, 100_000, 2000)
    return [
        ["random", "--n", str(small), "--trials", "4" if tiny else "64",
         "--seed", _seed(seed, 0)],
        ["random", "--n", str(large), "--trials", "2" if tiny else "16",
         "--seed", _seed(seed, 1)],
        ["expect", "--n", str(flt)],
        ["expect", "--n", str(exact), "--exact"],
    ]


def verify_oracles(seed: int, tiny: bool) -> list[list[str]]:
    # The suites have fixed sizes; tiny runs two of the four.
    suites = ("table1", "cyclotomic") if tiny else (
        "table1", "cover-oracle", "cyclotomic", "stochastic-oracle")
    return [["verify", "--suite", s] for s in suites]


def exact_verify(seed: int, tiny: bool) -> list[list[str]]:
    return exact_fold(seed, tiny) + verify_oracles(seed, tiny)


def surrogate_random(seed: int, tiny: bool) -> list[list[str]]:
    return surrogate_sweep(seed, tiny) + random_model(seed, tiny)


# Two workloads, each the union of two command groups, so that a run holds
# enough repetitions to be steady on a noisy 2-core host.  Each mechanism
# is busy in one workload and idle or tiny in the other: the exact fold and
# the verify oracles (thousands of inputs with n <= 12) in exact-verify;
# the totient sieve to 2*10^6 and the random model (n up to 20000) in
# surrogate-random.
WORKLOADS = {
    "exact-verify": exact_verify,
    "surrogate-random": surrogate_random,
}

WHY = {
    "exact-verify": "growth --exact at n=600-1000 (big-integer lcm fold) plus all four "
    "verify suites (many tiny inputs): fold and oracles, idle in surrogate-random",
    "surrogate-random": "growth surrogate at n=10^6, table, constant --explain, random "
    "and expect: totient sieve to 2*10^6 and SplitMix64 trials, no exact fold",
}

# The layers each workload's traced run is predicted to spend most of its
# self time in.  The traced run reports the measured top layer beside them.
PREDICTED_DOMINANT = {
    "exact-verify": ("growth.exact_lcm_stream",),
    "surrogate-random": ("cyclotomic.totient_sieve",),
}


def commands(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    return WORKLOADS[workload](seed, tiny)
