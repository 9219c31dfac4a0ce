"""Correctness check of every benchmarked command's stdout.

Exact fields (integers, rationals, words, headers, PASS lines) must match
byte for byte; float fields must agree within FLOAT_RTOL relative, which
admits last-ulp changes from a different but equally exact engine.

References come from independent oracles where the library has them:

* `growth --exact`: a fresh `math.lcm` fold over the shifted powers, logged
  with `math.log`, and `oracle_L` (brute-force divisor-set union) weighted
  by the trial-division `totient`;
* `random`: SplitMix64 re-derived here from its specification in
  `cyclolcm.patterns`, then `oracle_L` with `totient` for every trial;
* `expect --exact`: the defining sum over d <= 2n with `totient`;
* `table` rows whose primitive word has period <= 5: `REFERENCE_CONSTANTS`;
* `constant --explain`: the printed cover expanded and compared with
  `oracle_L` at a few x.

Everything else (the surrogate series, `table` and `constant` as a whole,
`expect` in float, the `verify` PASS lines) is compared with the output
recorded in references.json by record_references.py, at the commit that
added the benchmark.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

from cyclolcm.cover import oracle_L
from cyclolcm.cyclotomic import totient
from cyclolcm.patterns import parse_pattern
from cyclolcm.verify import REFERENCE_CONSTANTS

FLOAT_RTOL = 1e-12

REFERENCES_PATH = Path(__file__).with_name("references.json")

GROWTH_HEADER = "n,log_lcm,phi_sum,ratio_exact,ratio_surrogate"
TRIALS_HEADER = "seed,trial,n,X,ratio"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INT = re.compile(r"-?\d+")


def _opt(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


# ---------------------------------------------------------------- comparing


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return not _INT.fullmatch(token)


def _close(x: float, y: float) -> bool:
    return x == y or abs(x - y) <= FLOAT_RTOL * max(abs(x), abs(y))


def compare_text(got: str, want: str) -> str | None:
    """None if `got` matches `want`; otherwise the first difference."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, expected {len(want_lines)}"
    for i, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g == w:
            continue
        g_tok, w_tok = re.split(r"([\t,])", g), re.split(r"([\t,])", w)
        if len(g_tok) != len(w_tok) or not all(
            a == b or (_is_float(a) and _is_float(b) and _close(float(a), float(b)))
            for a, b in zip(g_tok, w_tok)
        ):
            return f"line {i}: got {g[:120]!r}, expected {w[:120]!r}"
    return None


def compare_json(got, want, path: str = "$") -> str | None:
    """Structural JSON equality: floats within FLOAT_RTOL, all else exact."""
    if isinstance(want, float) and isinstance(got, float):
        return None if _close(got, want) else f"{path}: {got!r} != {want!r}"
    if type(got) is not type(want):
        return f"{path}: type {type(got).__name__}, expected {type(want).__name__}"
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for k in want:
            diff = compare_json(got[k], want[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = compare_json(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


# ------------------------------------------------------- independent oracles


def _finalize64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def splitmix_shifts(seed: int, n: int) -> list[int]:
    """Shift i is +1 iff the top bit of the i-th SplitMix64 output is set."""
    with np.errstate(over="ignore"):
        states = np.uint64(seed) + np.uint64(_GOLDEN) * np.arange(1, n + 1, dtype=np.uint64)
        top = _finalize64(states) >> np.uint64(63)
    return [1 if b else -1 for b in top.tolist()]


def splitmix_subseed(seed: int, trial: int) -> int:
    """seed XOR the SplitMix64 output for state `trial`."""
    with np.errstate(over="ignore"):
        mixed = _finalize64(np.array([(trial + _GOLDEN) & _MASK64], dtype=np.uint64))
    return seed ^ int(mixed[0])


def _phi_sum(shifts: list[int], n: int) -> int:
    return sum(totient(d) for d in oracle_L(shifts, n))


def growth_exact_reference(argv: list[str]) -> str:
    a = int(_opt(argv, "--base"))
    n_max = int(_opt(argv, "--n-max"))
    step = int(_opt(argv, "--step") or 1)
    if "--random" in argv:
        shifts = splitmix_shifts(int(_opt(argv, "--seed"), 0), n_max)
    else:
        word = parse_pattern(_opt(argv, "--pattern")).word
        shifts = [word[k % len(word)] for k in range(n_max)]
    checkpoints = set(range(step, n_max + 1, step)) | {n_max}
    log_a = math.log(a)
    rows = [GROWTH_HEADER]
    acc, power = 1, 1
    for k in range(1, n_max + 1):
        power *= a
        acc = math.lcm(acc, power + shifts[k - 1])
        if k in checkpoints:
            norm = log_a / math.pi**2 * k * k
            log_lcm = math.log(acc)
            phi_sum = _phi_sum(shifts, k) * log_a
            rows.append(f"{k},{log_lcm!r},{phi_sum!r},{log_lcm / norm!r},{phi_sum / norm!r}")
    return "\n".join(rows) + "\n"


def random_reference(argv: list[str]) -> str:
    n = int(_opt(argv, "--n"))
    trials = int(_opt(argv, "--trials"))
    seed = int(_opt(argv, "--seed"), 0)
    rows = [TRIALS_HEADER]
    for t in range(trials):
        sub = splitmix_subseed(seed, t)
        x = _phi_sum(splitmix_shifts(sub, n), n)
        rows.append(f"{sub},{t},{n},{x},{x * math.pi**2 / (n * n)!r}")
    return "\n".join(rows) + "\n"


def expect_exact_reference(argv: list[str]) -> str:
    """E[X] = sum_{d <= 2n} phi(d) (1 - 2^-floor(n gcd(2,d) / d)), over 2^n."""
    n = int(_opt(argv, "--n"))
    missed = 0  # sum of phi(d) * 2^(n - e), so E[X] = sum phi - missed / 2^n
    total = 0
    for d in range(1, 2 * n + 1):
        phi = totient(d)
        total += phi
        missed += phi << (n - n * math.gcd(2, d) // d)
    return f"{total - Fraction(missed, 1 << n)}\n"


def primitive_root(word: str) -> str:
    for p in range(1, len(word) + 1):
        if len(word) % p == 0 and word[:p] * (len(word) // p) == word:
            return word[:p]
    return word


def table_against_reference_constants(stdout: str) -> str | None:
    for line in stdout.splitlines():
        word, c, _ = line.split("\t")
        expected = REFERENCE_CONSTANTS.get(primitive_root(word))
        if expected is not None and c != str(expected):
            return f"table {word}: C={c}, REFERENCE_CONSTANTS gives {expected}"
    return None


def cover_against_oracle(stdout: str, word: str) -> str | None:
    cover = json.loads(stdout)["cover"]
    mod = cover["modulus"]
    pattern = parse_pattern(word)
    for x in (1, mod, 2 * mod + 1, 1000):
        members = set()
        for c in cover["classes"]:
            limit = c["theta"]["num"] * x // c["theta"]["den"]
            members.update(range(c["t"], limit + 1, mod))
        if sorted(members) != oracle_L(pattern, x):
            return f"cover of {word} differs from oracle_L at x={x}"
    return None


# ------------------------------------------------------------------ checker


def oracle_reference(argv: list[str]):
    """The function computing this command's reference, or None if recorded."""
    if argv[0] == "growth" and "--exact" in argv:
        return growth_exact_reference
    if argv[0] == "random":
        return random_reference
    if argv[0] == "expect" and "--exact" in argv:
        return expect_exact_reference
    return None


def load_references() -> dict[str, str]:
    with open(REFERENCES_PATH) as f:
        return json.load(f)


class Checker:
    """Checks each distinct command once; repeats must reproduce its bytes."""

    def __init__(self, references: dict[str, str] | None = None):
        self.references = load_references() if references is None else references
        self._passed: dict[str, str] = {}

    def check(self, argv: list[str], returncode: int, stdout: str) -> str | None:
        """None if the command succeeded with correct output, else why not."""
        if returncode != 0:
            return f"exit code {returncode}"
        key = command_key(argv)
        if self._passed.get(key) == stdout:
            return None
        try:
            problem = self._check_fresh(argv, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unparsable output: {exc!r}"
        if problem is None:
            self._passed.setdefault(key, stdout)
        return problem

    def _check_fresh(self, argv: list[str], stdout: str) -> str | None:
        oracle = oracle_reference(argv)
        if oracle is not None:
            return compare_text(stdout, oracle(argv))
        cmd = argv[0]
        want = self.references.get(command_key(argv))
        if want is None:
            return "no recorded reference for this command"
        if cmd == "constant" and "--explain" in argv:
            try:
                got = json.loads(stdout)
            except json.JSONDecodeError as exc:
                return f"not JSON: {exc}"
            return compare_json(got, json.loads(want)) or cover_against_oracle(
                stdout, _opt(argv, "--pattern"))
        problem = compare_text(stdout, want)
        if problem is None and cmd == "table":
            problem = table_against_reference_constants(stdout)
        return problem
