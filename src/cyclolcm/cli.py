"""Command-line front end.

Subcommands:

    constant  --pattern P [--explain]           exact growth constant
    table     --max-period P                    constants for all words
    growth    --base A --pattern P --n-max N    growth series CSV
              [--step S] [--exact] [--force-exact] | --random --seed S
    random    --n N --trials T --seed S         Monte Carlo trials
    expect    --n N [--exact]                   E[X] exact or float
    verify    --suite NAME                      self-verification suites

Conventions: data goes to stdout, summaries and diagnostics to stderr.
Exit codes: 0 success, 1 usage or validation error, 2 verification
failure.  All randomness flows through an explicit --seed (the default is
a fixed constant, never the clock), so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import re
import sys

# Each command imports the engine it runs (and json, where it prints JSON)
# inside its own body, so a process loads only what its command uses.

__all__ = ["main"]

DEFAULT_SEED = 0x5EEDC0DE

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2

SCHEMA_VERSION = 1

TRIALS_CSV_HEADER = "seed,trial,n,X,ratio"


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract: usage errors exit 1."""

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    def _get_values(self, action, arg_strings):
        # keep the sign word "--", which argparse drops as the options marker
        if action.dest == "pattern":
            return arg_strings[0]
        return super()._get_values(action, arg_strings)


def _parse_seed(text: str) -> int:
    # ASCII digits only: int() would also take "1_000", " 5", "+5" and
    # non-ASCII digits
    if not re.fullmatch(r"[0-9]+|0x[0-9a-fA-F]+", text):
        raise ValueError(f"seed must be decimal or 0x-hex, got {text!r}")
    value = int(text, 16) if text.startswith("0x") else int(text)
    if not 0 <= value < 1 << 64:
        raise ValueError(f"seed must fit in 64 bits, got {text}")
    return value


def cmd_constant(args) -> int:
    from .constants import growth_constant
    from .patterns import parse_pattern

    gc = growth_constant(parse_pattern(args.pattern))
    if args.format == "json" or args.explain:
        import json
        obj = {"schema": SCHEMA_VERSION, **gc.to_json_obj()}
        if not args.explain:
            del obj["cover"]
        print(json.dumps(obj, sort_keys=True))
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
        import json
        obj = {
            "schema": SCHEMA_VERSION,
            "rows": [
                {"pattern": w, "C": {"num": c.numerator, "den": c.denominator}}
                for w, c in rows
            ],
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        for word, c in rows:
            print(f"{word}\t{c}\t{float(c)!r}")
    return EXIT_OK


def cmd_growth(args) -> int:
    from .constants import growth_constant, random_model_constant
    from .growth import EXACT_ENGINE_CAP, _check_growth_args, exact_log_lcm_series
    from .growth import surrogate_series, write_growth_csv
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
    write_growth_csv(samples, sys.stdout)
    final = samples[-1]
    ratio = final.ratio_exact if final.ratio_exact is not None else final.ratio_surrogate
    print(
        f"constant={constant!r} final_n={final.n} final_ratio={ratio!r} "
        f"gap={abs(ratio - constant)!r}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_random(args) -> int:
    import json

    from .stochastic import monte_carlo

    results, summary = monte_carlo(args.n, args.trials, _parse_seed(args.seed))
    if args.format == "json":
        obj = {
            "schema": SCHEMA_VERSION,
            "summary": summary.to_json_obj(),
            "trials": [
                {"seed": r.seed, "trial": r.trial_index, "n": r.n, "X": r.X, "ratio": r.ratio}
                for r in results
            ],
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        print(TRIALS_CSV_HEADER)
        for r in results:
            print(f"{r.seed},{r.trial_index},{r.n},{r.X},{r.ratio!r}")
        print(
            json.dumps({"schema": SCHEMA_VERSION, **summary.to_json_obj()}, sort_keys=True),
            file=sys.stderr,
        )
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cyclolcm",
        description="growth constants of log lcm(a + s1, ..., a^n + sn) for +-1 shifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constant", help="exact growth constant of a pattern")
    p.add_argument("--pattern", required=True, help="sign word over '-' and '+'")
    p.add_argument("--explain", action="store_true", help="include the cover provenance")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("table", help="constants for all words up to a period")
    p.add_argument(
        "--max-period", type=int, choices=range(1, 9), required=True, metavar="MAX_PERIOD"
    )
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("growth", help="empirical growth series as CSV")
    p.add_argument("--base", type=int, required=True)
    shifts = p.add_mutually_exclusive_group(required=True)
    shifts.add_argument("--pattern")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--exact", action="store_true", help="run the exact lcm engine")
    p.add_argument("--force-exact", action="store_true", help="lift the exact-engine cap")
    shifts.add_argument("--random", action="store_true", help="random shifts instead of a pattern")
    p.add_argument("--seed", default=str(DEFAULT_SEED), help="decimal or 0x-hex")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("random", help="Monte Carlo trials of the random model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", default=str(DEFAULT_SEED), help="decimal or 0x-hex")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("expect", help="expected totient-sum value E[X]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("verify", help="run a named self-verification suite")
    p.add_argument("--suite", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def _merge_pattern_values(argv: list[str]) -> list[str]:
    """Fold `--pattern VALUE` into `--pattern=VALUE`.

    Pattern strings start with '-' or '+', which argparse would otherwise
    read as option flags (_Parser keeps a value of "--").
    """
    merged = []
    i = 0
    while i < len(argv):
        if argv[i] == "--pattern" and i + 1 < len(argv):
            merged.append(f"--pattern={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_pattern_values(list(sys.argv[1:] if argv is None else argv)))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
