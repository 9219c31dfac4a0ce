"""Command-line front end and the only output formatter; -h prints _USAGE, no docstring (-OO)."""

from __future__ import annotations

import math
import re
import sys
from types import SimpleNamespace

# Each command imports the engine it runs (and json, where it prints JSON)
# inside its own body, so a process loads only what its command uses.

__all__ = ["main"]

_USAGE = """Subcommands (flags match by full name only; -h or --help prints this text):

    constant  --pattern P [--explain] [--format table|json]   exact growth constant
    table     --max-period 1..8 [--format table|json]         constants for all words
    growth    --base A --n-max N [--step S] [--exact]         growth series CSV
              (--pattern P | --random [--seed S]) [--force-exact]
    random    --n N --trials T [--seed S] [--format csv|json] Monte Carlo trials
    expect    --n N [--exact]                                 E[X] exact or float
    verify    --suite NAME                                    self-verification suites

P is a sign word over '-' and '+'.  --random and --force-exact need
--exact, and --force-exact lifts the exact engine's cap on --n-max.
Conventions: data goes to stdout, summaries and diagnostics to stderr.
Exit codes: 0 success, 1 usage or validation error, 2 verification
failure.  All randomness flows through an explicit --seed S (decimal or
0x-hex; the default is a fixed constant, never the clock), so identical
invocations produce byte-identical output.
"""

DEFAULT_SEED = 0x5EEDC0DE

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2

SCHEMA_VERSION = 1

TRIALS_CSV_HEADER = "seed,trial,n,X,ratio"


def _print_csv(header: str, records) -> None:
    """The header line, then one line per record: each field's repr, "" for None."""
    write = sys.stdout.write
    write(header + "\n")
    for record in records:
        write(",".join("" if v is None else repr(v) for v in record) + "\n")


def _rational(num: int, den: int) -> dict:
    """num/den in lowest terms as a JSON object."""
    g = math.gcd(num, den)
    return {"num": num // g, "den": den // g}


def _print_json(obj: dict, file=None) -> None:
    """One JSON line: obj with the schema version, keys sorted."""
    import json

    print(json.dumps({"schema": SCHEMA_VERSION, **obj}, sort_keys=True), file=file)


def _parse_seed(text: str) -> int:
    from .patterns import _check_seed

    # ASCII digits only: int() would also take "1_000", " 5", "+5" and
    # non-ASCII digits
    if not re.fullmatch(r"[0-9]+|0x[0-9a-fA-F]+", text):
        raise ValueError(f"seed must be decimal or 0x-hex, got {text!r}")
    value = int(text, 16) if text.startswith("0x") else int(text)
    _check_seed(value)
    return value


def cmd_constant(args) -> int:
    from .constants import growth_constant
    from .patterns import parse_pattern

    gc = growth_constant(parse_pattern(args.pattern))
    if args.format == "json" or args.explain:
        c = gc.C
        obj = {"pattern": str(gc.pattern), "C": _rational(c.numerator, c.denominator),
               "C_float": float(c)}
        if args.explain:
            obj["cover"] = {"modulus": gc.cover.modulus, "classes": [
                {"t": t, "theta": _rational(2, q)}  # theta_t = 2/q_t
                for t, q in sorted(gc.cover.multipliers.items())
            ]}
        _print_json(obj)
    else:
        print(f"{gc.C}\t{float(gc.C)!r}")
    return EXIT_OK


def cmd_table(args) -> int:
    from .constants import growth_constant
    from .patterns import all_sign_words, parse_pattern

    rows = [
        (word, growth_constant(parse_pattern(word)).C)
        for word in all_sign_words(args.max_period)
    ]
    if args.format == "json":
        _print_json({"rows": [
            {"pattern": w, "C": _rational(c.numerator, c.denominator)} for w, c in rows
        ]})
    else:
        for word, c in rows:
            print(f"{word}\t{c}\t{float(c)!r}")
    return EXIT_OK


def cmd_growth(args) -> int:
    from .constants import growth_constant, random_model_constant
    from .growth import EXACT_ENGINE_CAP, GrowthSample, _check_growth_args
    from .growth import exact_log_lcm_series, surrogate_series
    from .patterns import parse_pattern, random_shifts

    _check_growth_args(args.base, args.n_max, args.step)
    if args.n_max > EXACT_ENGINE_CAP and args.exact and not args.force_exact:
        raise ValueError(
            f"exact engine capped at n <= {EXACT_ENGINE_CAP}; pass "
            "--force-exact to override or drop --exact"
        )
    if args.random and not args.exact:
        raise ValueError("--random requires --exact (no cover for random shifts)")
    if args.force_exact and not args.exact:
        raise ValueError("--force-exact requires --exact")
    seed = _parse_seed(args.seed)
    if args.random:
        shifts = random_shifts(seed, args.n_max)
        constant = random_model_constant()
    else:
        shifts = parse_pattern(args.pattern)
        constant = float(growth_constant(shifts).C)
    if args.exact:
        samples = exact_log_lcm_series(
            args.base, shifts, args.n_max, args.step, override_cap=args.force_exact
        )
    else:
        samples = surrogate_series(args.base, shifts, args.n_max, args.step)
    _print_csv(",".join(GrowthSample._fields), samples)
    final = samples[-1]
    ratio = final.ratio_exact if final.ratio_exact is not None else final.ratio_surrogate
    print(
        f"constant={constant!r} final_n={final.n} final_ratio={ratio!r} "
        f"gap={abs(ratio - constant)!r}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_random(args) -> int:
    from .stochastic import monte_carlo

    results, summary = monte_carlo(args.n, args.trials, _parse_seed(args.seed))
    if args.format == "json":
        columns = TRIALS_CSV_HEADER.split(",")
        _print_json({"summary": summary._asdict(),
                     "trials": [dict(zip(columns, r)) for r in results]})
    else:
        _print_csv(TRIALS_CSV_HEADER, results)
        _print_json(summary._asdict(), file=sys.stderr)
    return EXIT_OK


def cmd_expect(args) -> int:
    from .stochastic import EXACT_EXPECTATION_CAP, expected_X

    if args.exact:
        if args.n > EXACT_EXPECTATION_CAP:
            raise ValueError(
                f"--exact limited to n <= {EXACT_EXPECTATION_CAP}; drop --exact "
                "for the float evaluation"
            )
        value = expected_X(args.n, "exact")
        print(value)
    else:
        print(repr(expected_X(args.n, "float")))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import SUITES

    suite = SUITES.get(args.suite)
    if suite is None:
        raise ValueError(
            f"unknown suite {args.suite!r}; choose from {', '.join(sorted(SUITES))}"
        )
    results = suite()
    failed = 0
    for r in results:
        if r.ok:
            print(f"PASS {r.name}")
        else:
            failed += 1
            print(f"FAIL {r.name}: {r.detail}")
    print(
        f"{len(results) - failed}/{len(results)} checks passed", file=sys.stderr
    )
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


# Each command's handler and flags, --flag -> (kind, default).  A kind is int,
# str, bool (a switch) or a tuple of accepted values; a default of None makes
# the flag required.  growth takes exactly one of _ONE_OF.
_COMMANDS = {
    "constant": (cmd_constant, {"--pattern": (str, None), "--explain": (bool, False),
                                "--format": (("table", "json"), "table")}),
    "table": (cmd_table, {"--max-period": (tuple(range(1, 9)), None),
                          "--format": (("table", "json"), "table")}),
    "growth": (cmd_growth, {"--base": (int, None), "--pattern": (str, ""),
                            "--n-max": (int, None), "--step": (int, 1), "--exact": (bool, False),
                            "--force-exact": (bool, False), "--random": (bool, False),
                            "--seed": (str, str(DEFAULT_SEED))}),
    "random": (cmd_random, {"--n": (int, None), "--trials": (int, None),
                            "--seed": (str, str(DEFAULT_SEED)),
                            "--format": (("csv", "json"), "csv")}),
    "expect": (cmd_expect, {"--n": (int, None), "--exact": (bool, False)}),
    "verify": (cmd_verify, {"--suite": (str, None)}),
}
_ONE_OF = ("--pattern", "--random")


def _help(args) -> int:
    print(_USAGE, end="")
    return EXIT_OK


def _value(name: str, kind, text: str):
    """`text` read as int or str, or as one of a tuple of accepted values."""
    convert = type(kind[0]) if isinstance(kind, tuple) else kind
    try:
        # ASCII digits only, as in _parse_seed; a sign is "-" alone
        if convert is int and not re.fullmatch(r"-?[0-9]+", text):
            raise ValueError
        value = convert(text)
    except ValueError:
        raise ValueError(f"argument {name}: invalid {convert.__name__} value: {text!r}") from None
    if convert is not kind and value not in kind:
        choices = ", ".join(map(repr, kind))
        raise ValueError(f"argument {name}: invalid choice: {value!r} (choose from {choices})")
    return value


def _parse(argv: list[str]):
    """The handler and flag values of `COMMAND --flag value ...`.  A valued
    flag takes the next token as it is, so `--pattern --` reads the sign word
    "--".  -h or --help, first or after the command, reads as the _help
    handler.  A refusal raises ValueError, which main prints as one `error:`
    line before it returns 1."""
    if argv[:1] in (["-h"], ["--help"]):
        return _help, None
    if not argv:
        raise ValueError("the following arguments are required: command")
    handler, flags = _COMMANDS[_value("command", tuple(_COMMANDS), argv[0])]
    values, extras = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return _help, None
        name, eq, text = token.partition("=")
        if name not in flags:
            extras.append(token)
            continue
        kind = flags[name][0]
        if kind is bool and eq:
            raise ValueError(f"argument {name}: ignored explicit argument {text!r}")
        if kind is not bool and not eq and (text := next(tokens, None)) is None:
            raise ValueError(f"argument {name}: expected one argument")
        values[name] = True if kind is bool else _value(name, kind, text)
        if name in _ONE_OF and (other := _ONE_OF[1 - _ONE_OF.index(name)]) in values:
            raise ValueError(f"argument {name}: not allowed with argument {other}")
    if extras:  # before a missing flag, which a misspelt one would be
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    missing = [name for name, (_, default) in flags.items()
               if default is None and name not in values]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if _ONE_OF[1] in flags and values.keys().isdisjoint(_ONE_OF):
        raise ValueError(f"one of the arguments {' '.join(_ONE_OF)} is required")
    return handler, SimpleNamespace(**{
        name[2:].replace("-", "_"): values.get(name, default)
        for name, (_, default) in flags.items()
    })


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(list(sys.argv[1:] if argv is None else argv))
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
