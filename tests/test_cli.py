"""CLI surface: output schemas, determinism, exit codes."""

import gc
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cyclolcm import cli as cli_module
from cyclolcm import verify as verify_module
from cyclolcm.cli import TRIALS_CSV_HEADER, main
from cyclolcm.cover import pattern_cover
from cyclolcm.patterns import all_sign_words, parse_pattern
from cyclolcm.verify import CheckResult


# The child process imports the same cyclolcm as this one, installed or not.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(cli_module.__file__))


def run_python(*args, stdout=subprocess.PIPE, **env):
    path = [PACKAGE_ROOT, os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
        env=dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )


def run_cli(*args):
    return run_python("-m", "cyclolcm", *args)


# Runs `cli.main` on argv[1:] (only `import cyclolcm` when empty), then
# prints which of argparse, dataclasses, fractions, gettext, inspect, json
# and numpy got loaded and, on a second line, the sorted cyclolcm
# submodules that did.
LOAD_PROBE = """
import contextlib, io, sys
import cyclolcm
if sys.argv[1:]:
    from cyclolcm import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
LIBRARIES = ("argparse", "dataclasses", "fractions", "gettext", "inspect", "json", "numpy")
print(" ".join(m for m in LIBRARIES if m in sys.modules))
print(" ".join(sorted(m for m in sys.modules if m.startswith("cyclolcm."))))
"""


def probe_loads(args):
    out = run_python("-c", LOAD_PROBE, *args)
    assert out.returncode == 0, out.stderr
    libraries_line, modules_line = out.stdout.split("\n")[:2]
    return set(libraries_line.split()), set(modules_line.split())


# `import cyclolcm` and the CLI commands, each with whether it builds numpy arrays.
LOAD_CASES = pytest.mark.parametrize(
    "args, loads_numpy",
    [
        ([], False),
        (["constant", "--pattern", "--+"], False),
        (["table", "--max-period", "3"], False),
        (["verify", "--suite", "table1"], False),
        (["verify", "--suite", "cover-oracle"], False),
        (["verify", "--suite", "cyclotomic"], False),
        (["verify", "--suite", "stochastic-oracle"], False),
        (["growth", "--exact", "--base", "3", "--pattern", "-+-", "--n-max", "60",
          "--step", "20"], False),
        (["growth", "--exact", "--base", "2", "--random", "--seed", "7", "--n-max", "60",
          "--step", "20"], False),
        (["random", "--n", "50", "--trials", "2"], True),
        (["expect", "--n", "50", "--exact"], False),
        (["expect", "--n", "50"], False),
    ],
    ids=["import", "constant", "table", "verify-table1", "verify-cover-oracle",
         "verify-cyclotomic", "verify-stochastic-oracle", "growth-exact",
         "growth-exact-random", "random", "expect-exact", "expect-float"],
)


@LOAD_CASES
def test_numpy_loads_only_where_arrays_are_built(args, loads_numpy):
    assert ("numpy" in probe_loads(args)[0]) == loads_numpy


@LOAD_CASES
def test_no_command_loads_dataclasses_or_inspect(args, loads_numpy):
    # numpy imports inspect itself; nothing in cyclolcm does.
    libraries = probe_loads(args)[0]
    assert "dataclasses" not in libraries
    assert loads_numpy or "inspect" not in libraries


@LOAD_CASES
def test_no_command_loads_argparse_or_gettext(args, loads_numpy):
    # the flags are read from cli._COMMANDS; numpy loads neither module either
    assert probe_loads(args)[0].isdisjoint({"argparse", "gettext"})


@pytest.mark.parametrize(
    "args, loads_json",
    [
        (["growth", "--exact", "--base", "2", "--random", "--seed", "7", "--n-max", "60",
          "--step", "20"], False),
        (["verify", "--suite", "table1"], False),
        (["verify", "--suite", "cover-oracle"], False),
        (["verify", "--suite", "cyclotomic"], False),
        (["verify", "--suite", "stochastic-oracle"], False),
        (["expect", "--n", "50", "--exact"], False),
        (["constant", "--pattern", "--+", "--explain"], True),
    ],
    ids=["growth-exact-random", "verify-table1", "verify-cover-oracle",
         "verify-cyclotomic", "verify-stochastic-oracle", "expect-exact",
         "constant-explain"],
)
def test_json_loads_only_where_json_is_printed(args, loads_json):
    assert ("json" in probe_loads(args)[0]) == loads_json


@pytest.mark.parametrize(
    "args, loads_fractions",
    [
        (["random", "--n", "200", "--trials", "4"], False),
        (["expect", "--n", "300"], False),
        (["expect", "--n", "300", "--exact"], True),
        (["constant", "--pattern", "--+"], True),
        (["growth", "--exact", "--base", "2", "--random", "--seed", "7", "--n-max", "60",
          "--step", "20"], False),
    ],
    ids=["random", "expect-float", "expect-exact", "constant", "growth-exact-random"],
)
def test_fractions_loads_only_where_a_fraction_is_built(args, loads_fractions):
    assert ("fractions" in probe_loads(args)[0]) == loads_fractions


@pytest.mark.parametrize(
    "args, unloaded",
    [
        (["constant", "--pattern", "--+"], "growth stochastic verify"),
        (["table", "--max-period", "3"], "growth stochastic verify"),
        (["verify", "--suite", "table1"], "growth stochastic"),
        (["verify", "--suite", "cover-oracle"], "growth stochastic constants"),
        (["verify", "--suite", "cyclotomic"], "growth stochastic cover constants patterns"),
        (["verify", "--suite", "stochastic-oracle"],
         "growth cover constants patterns exact_arith"),
        (["growth", "--exact", "--base", "3", "--pattern", "-+-", "--n-max", "60",
          "--step", "20"], "stochastic verify"),
        (["growth", "--base", "2", "--pattern", "-+", "--n-max", "200", "--step", "50"],
         "stochastic verify"),
        (["random", "--n", "50", "--trials", "2"], "growth verify cover exact_arith"),
        (["expect", "--n", "50", "--exact"],
         "growth verify constants cover patterns exact_arith"),
        (["expect", "--n", "50"], "growth verify constants cover patterns exact_arith"),
    ],
    ids=["constant", "table", "verify-table1", "verify-cover-oracle", "verify-cyclotomic",
         "verify-stochastic-oracle", "growth-exact", "growth-surrogate", "random",
         "expect-exact", "expect-float"],
)
def test_commands_load_only_their_modules(args, unloaded):
    loaded = probe_loads(args)[1]
    assert "cyclolcm.cli" in loaded
    assert loaded.isdisjoint(f"cyclolcm.{m}" for m in unloaded.split()), sorted(loaded)


def test_import_loads_no_submodule():
    assert probe_loads([])[1] == set()


def test_constant_known_values():
    out = run_cli("constant", "--pattern", "--+")
    assert out.returncode == 0
    assert out.stdout.split()[0] == "13/4"
    out = run_cli("constant", "--pattern", "-")
    assert out.stdout.split()[0] == "3"


def test_constant_usage_errors():
    assert run_cli("constant", "--pattern", "").returncode == 1
    out = run_cli("constant", "--pattern", "+?")
    assert out.returncode == 1
    assert "position 2" in out.stderr


def test_explain_thetas_are_two_over_the_multiplier_in_lowest_terms(capsys):
    for word in all_sign_words(8):
        assert main(["constant", "--pattern", word, "--explain"]) == 0
        classes = json.loads(capsys.readouterr().out)["cover"]["classes"]
        multipliers = pattern_cover(parse_pattern(word)).multipliers
        assert [c["t"] for c in classes] == sorted(multipliers), word
        for c in classes:
            theta = Fraction(2, multipliers[c["t"]])
            assert c["theta"] == {"num": theta.numerator, "den": theta.denominator}, word


def test_table_period_one():
    out = run_cli("table", "--max-period", "1")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("-\t3")
    assert lines[1].startswith("+\t4")


def test_table_period_five_contains_all_reference_rows():
    from cyclolcm.verify import REFERENCE_CONSTANTS

    out = run_cli("table", "--max-period", "5")
    lines = out.stdout.strip().split("\n")
    assert len(lines) == 62
    assert any(line.startswith("-++++\t2219/576") for line in lines)
    rows = {line.split("\t")[0]: line.split("\t")[1] for line in lines}
    for word, expected in REFERENCE_CONSTANTS.items():
        assert rows[word] == str(expected)


def test_table_range_error():
    assert run_cli("table", "--max-period", "9").returncode == 1
    assert run_cli("table", "--max-period", "0").returncode == 1


def test_growth_csv_and_cross_engine():
    out = run_cli(
        "growth", "--base", "2", "--pattern", "-", "--n-max", "100",
        "--step", "25", "--exact",
    )
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "n,log_lcm,phi_sum,ratio_exact,ratio_surrogate"
    # last row recomputable by an independent naive lcm fold
    import math

    acc = 1
    power = 1
    for k in range(1, 101):
        power *= 2
        term = power - 1
        acc = acc // math.gcd(acc, term) * term
    last = lines[-1].split(",")
    assert last[0] == "100"
    assert float(last[1]) == pytest.approx(math.log(acc), rel=1e-10)
    assert "constant=" in out.stderr


def test_growth_usage_errors():
    assert run_cli("growth", "--base", "1", "--pattern", "-", "--n-max", "10").returncode == 1
    out = run_cli(
        "growth", "--base", "2", "--pattern", "-", "--n-max", "5000", "--exact"
    )
    assert out.returncode == 1
    assert "--force-exact" in out.stderr
    # both or neither of --pattern/--random
    assert run_cli("growth", "--base", "2", "--n-max", "10").returncode == 1


# Each refusal exits 1, prints nothing on stdout and one line on stderr naming its value.
REFUSALS = {
    "growth-step-0": (
        ["growth", "--base", "2", "--pattern", "-", "--n-max", "10", "--step", "0"],
        "step must be >= 1, got 0",
    ),
    "growth-n-max-0": (
        ["growth", "--base", "2", "--pattern", "-", "--n-max", "0"],
        "n_max must be >= 1, got 0",
    ),
    "growth-pattern-and-random": (
        ["growth", "--base", "2", "--pattern", "-", "--random", "--n-max", "10", "--exact"],
        "argument --random: not allowed with argument --pattern",
    ),
    "random-n-0": (["random", "--n", "0", "--trials", "3"], "n must be >= 1, got 0"),
    "random-trials-0": (["random", "--n", "3", "--trials", "0"], "trials must be >= 1, got 0"),
    "expect-n-0": (["expect", "--n", "0"], "n must be >= 1, got 0"),
    # a minus sign is int grammar, so the engine names the bound
    "expect-n-negative": (["expect", "--n", "-5"], "n must be >= 1, got -5"),
    "expect-exact-n-0": (["expect", "--n", "0", "--exact"], "n must be >= 1, got 0"),
    "table-max-period-0": (["table", "--max-period", "0"], "invalid choice: 0"),
    "table-max-period-9": (
        ["table", "--max-period", "9"],
        "argument --max-period: invalid choice: 9 (choose from 1, 2, 3, 4, 5, 6, 7, 8)",
    ),
    "growth-random-without-exact": (
        ["growth", "--base", "2", "--random", "--n-max", "10"],
        "error: --random requires --exact (no cover for random shifts)",
    ),
    "no-command": ([], "error: the following arguments are required: command"),
    "unknown-command": (
        ["frob"],
        "error: argument command: invalid choice: 'frob' (choose from 'constant', 'table', "
        "'growth', 'random', 'expect', 'verify')",
    ),
    "growth-n-max-missing": (
        ["growth", "--base", "2", "--pattern", "-"],
        "error: the following arguments are required: --n-max",
    ),
    "expect-n-without-value": (["expect", "--n"], "error: argument --n: expected one argument"),
    "expect-n-not-an-int": (["expect", "--n", "x"], "error: argument --n: invalid int value: 'x'"),
    "expect-exact-with-value": (
        ["expect", "--n", "3", "--exact=1"],
        "error: argument --exact: ignored explicit argument '1'",
    ),
    "random-format-xml": (
        ["random", "--n", "3", "--trials", "2", "--format", "xml"],
        "error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')",
    ),
    "growth-neither-pattern-nor-random": (
        ["growth", "--base", "2", "--n-max", "10"],
        "error: one of the arguments --pattern --random is required",
    ),
    # flags match by full name only: no abbreviation stands for --max-period
    "table-abbreviated-flag": (["table", "--max", "3"], "error: unrecognized arguments: --max 3"),
}


@pytest.mark.parametrize("argv, named", REFUSALS.values(), ids=list(REFUSALS))
def test_refusals_exit_one_and_name_the_value(argv, named, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text", [" 5", "+5", "1_000", "\u0663", "5\n"],
    ids=["space", "plus", "underscore", "arabic-indic-digit", "newline"],
)
@pytest.mark.parametrize(
    "argv", [["expect", "--n"], ["table", "--max-period"]], ids=["n", "max-period"]
)
def test_int_flags_take_ascii_digits_only(argv, text, capsys):
    # int() alone would take every one of these spellings
    assert main([*argv, text]) == 1
    assert capsys.readouterr() == ("", f"error: argument {argv[1]}: invalid int value: {text!r}\n")


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["growth", "--help"]], ids=["h", "help", "growth-help"]
)
def test_help_lists_every_command_with_exactly_its_flags(argv):
    out = run_cli(*argv)
    assert (out.returncode, out.stderr) == (0, "")
    # a command's usage line and the lines indented under it
    usage = dict(re.findall(r"^    (\w+) +(.*(?:\n {14}.*)*)", out.stdout, re.M))
    assert usage.keys() == cli_module._COMMANDS.keys()
    for command, (_, flags) in cli_module._COMMANDS.items():
        assert set(re.findall(r"--[\w-]+", usage[command])) == flags.keys(), command


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["growth", "--help"]], ids=["h", "help", "growth-help"]
)
def test_help_returns_zero_in_process(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cli_module._USAGE
    assert captured.err == ""


@pytest.mark.parametrize("argv", [["-h"], ["growth", "--help"]], ids=["h", "growth-help"])
def test_help_survives_stripped_docstrings(argv):
    # python -OO drops every docstring; the usage text is not one
    plain = run_cli(*argv)
    stripped = run_python("-OO", "-m", "cyclolcm", *argv)
    assert (stripped.returncode, stripped.stderr) == (0, "")
    assert stripped.stdout == plain.stdout == cli_module._USAGE


def test_growth_refuses_bad_base_before_drawing_shifts(monkeypatch, capsys):
    # the base is refused before random_shifts could draw a billion shifts
    def refuse(*args):
        raise AssertionError("random_shifts called")

    monkeypatch.setattr("cyclolcm.patterns.random_shifts", refuse)
    argv = ["growth", "--base", "1", "--random", "--exact", "--force-exact",
            "--n-max", "1000000000"]
    assert main(argv) == 1
    assert "must be >= 2, got 1" in capsys.readouterr().err


def test_growth_force_exact_requires_exact(capsys):
    # without --exact the flag would be ignored and the surrogate would run
    argv = ["growth", "--base", "2", "--pattern", "-", "--n-max", "10", "--force-exact"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--force-exact requires --exact" in captured.err


def test_every_short_word_is_a_pattern_value(capsys):
    # "--" included: a valued flag takes the next token as it is, even "--"
    from cyclolcm.constants import growth_constant
    from cyclolcm.patterns import all_sign_words, parse_pattern

    for word in all_sign_words(3):
        assert main(["constant", "--pattern", word]) == 0, word
        c = growth_constant(parse_pattern(word)).C
        assert capsys.readouterr().out == f"{c}\t{float(c)!r}\n", word
    for extra in ([], ["--exact"]):
        argv = ["growth", "--base", "2", "--pattern", "--", "--n-max", "20", "--step", "10"]
        assert main(argv + extra) == 0
        assert capsys.readouterr().out.count("\n") == 3


def test_growth_deterministic():
    args = ("growth", "--base", "2", "--pattern", "+", "--n-max", "200", "--step", "50")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.stdout == b.stdout and a.stderr == b.stderr


def test_random_csv_header_and_determinism():
    args = ("random", "--n", "50", "--trials", "8", "--seed", "0x2A")
    a = run_cli(*args)
    assert a.returncode == 0
    lines = a.stdout.strip().split("\n")
    assert lines[0] == TRIALS_CSV_HEADER
    assert len(lines) == 9
    summary = json.loads(a.stderr.strip().split("\n")[-1])
    assert summary["schema"] == 1
    assert summary["trials"] == 8
    b = run_cli(*args)
    assert a.stdout == b.stdout and a.stderr == b.stderr
    # hex and decimal seeds agree
    c = run_cli("random", "--n", "50", "--trials", "8", "--seed", "42")
    assert c.stdout == a.stdout


def test_random_takes_no_base(capsys):
    # X, and so every output of `random`, does not depend on the base
    assert main(["random", "--base", "2", "--n", "10", "--trials", "2"]) == 1
    assert "unrecognized arguments: --base 2" in capsys.readouterr().err


def test_expect_values():
    out = run_cli("expect", "--n", "1", "--exact")
    assert out.stdout.strip() == "1"
    out = run_cli("expect", "--n", "3", "--exact")
    assert out.stdout.strip() == "19/4"
    out = run_cli("expect", "--n", "3")
    assert float(out.stdout) == pytest.approx(4.75)
    # the benchmark's two floats, correctly rounded, keep their bytes
    assert run_cli("expect", "--n", "100000").stdout == "3539623112.8619623\n"
    assert run_cli("expect", "--n", "300").stdout == "31912.18784197274\n"
    assert run_cli("expect", "--n", "3000", "--exact").returncode == 1


GROWTH_CSV_PINNED = {
    "exact": (
        ["--exact", "--base", "10", "--pattern", "-+-", "--n-max", "60", "--step", "30"],
        "n,log_lcm,phi_sum,ratio_exact,ratio_surrogate\n"
        "30,685.9909003148553,686.1703577122257,3.2670810007098665,3.2679356794718104\n"
        "60,2762.7340337265646,2763.102111592855,3.2894298843686602,3.2898681336964533\n",
    ),
    "surrogate": (
        ["--base", "2", "--pattern", "-++", "--n-max", "2000", "--step", "1000"],
        "n,log_lcm,phi_sum,ratio_exact,ratio_surrogate\n"
        "1000,,253099.92039274177,,3.603846568640175\n"
        "2000,,1013120.5546387495,,3.606412665784458\n",
    ),
}


@pytest.mark.parametrize("flags, csv", GROWTH_CSV_PINNED.values(), ids=list(GROWTH_CSV_PINNED))
def test_growth_csv_bytes(flags, csv, capsys):
    assert main(["growth", *flags]) == 0
    assert capsys.readouterr().out == csv


# (argv, stdout, stderr) of each JSON shape and of the trial CSV
OUTPUT_PINNED = {
    "constant-json": (
        ["constant", "--pattern", "-++", "--format", "json"],
        '{"C": {"den": 48, "num": 173}, "C_float": 3.6041666666666665, "pattern": "-++", '
        '"schema": 1}\n',
        "",
    ),
    "table-json": (
        ["table", "--max-period", "2", "--format", "json"],
        '{"rows": [{"C": {"den": 1, "num": 3}, "pattern": "-"}, '
        '{"C": {"den": 1, "num": 4}, "pattern": "+"}, '
        '{"C": {"den": 1, "num": 3}, "pattern": "--"}, '
        '{"C": {"den": 1, "num": 4}, "pattern": "-+"}, '
        '{"C": {"den": 1, "num": 3}, "pattern": "+-"}, '
        '{"C": {"den": 1, "num": 4}, "pattern": "++"}], "schema": 1}\n',
        "",
    ),
    "constant-explain": (
        ["constant", "--pattern", "+-", "--explain"],
        '{"C": {"den": 1, "num": 3}, "C_float": 3.0, "cover": {"classes": ['
        '{"t": 1, "theta": {"den": 2, "num": 1}}, {"t": 2, "theta": {"den": 1, "num": 2}}, '
        '{"t": 3, "theta": {"den": 2, "num": 1}}, {"t": 4, "theta": {"den": 1, "num": 1}}], '
        '"modulus": 4}, "pattern": "+-", "schema": 1}\n',
        "",
    ),
    "random-csv": (
        ["random", "--n", "30", "--trials", "2", "--seed", "5"],
        "seed,trial,n,X,ratio\n"
        "16294208416658607530,0,30,342,3.7504496724139558\n"
        "10451216379200822468,1,30,304,3.3337330421457385\n",
        '{"abs_gap": 0.0486481984897722, "mean_X": 323.0, "mean_ratio": 3.542091357279847, '
        '"n": 30, "schema": 1, "theory_ratio": 3.493443158790075, "trials": 2, '
        '"var_X": 722.0}\n',
    ),
    "random-json": (
        ["random", "--n", "30", "--trials", "2", "--seed", "5", "--format", "json"],
        '{"schema": 1, "summary": {"abs_gap": 0.0486481984897722, "mean_X": 323.0, '
        '"mean_ratio": 3.542091357279847, "n": 30, "theory_ratio": 3.493443158790075, '
        '"trials": 2, "var_X": 722.0}, "trials": ['
        '{"X": 342, "n": 30, "ratio": 3.7504496724139558, "seed": 16294208416658607530, '
        '"trial": 0}, '
        '{"X": 304, "n": 30, "ratio": 3.3337330421457385, "seed": 10451216379200822468, '
        '"trial": 1}]}\n',
        "",
    ),
}


@pytest.mark.parametrize("argv, out, err", OUTPUT_PINNED.values(), ids=list(OUTPUT_PINNED))
def test_output_bytes(argv, out, err, capsys):
    assert main(argv) == 0
    assert capsys.readouterr() == (out, err)


def test_verify_table1():
    out = run_cli("verify", "--suite", "table1")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert len(lines) == 52
    assert all(line.startswith("PASS") for line in lines)


def test_verify_unknown_suite():
    assert run_cli("verify", "--suite", "nope").returncode == 1


@pytest.mark.parametrize("suite", ["cover-oracle", "cyclotomic", "stochastic-oracle"])
def test_verify_other_suites_pass(suite):
    out = run_cli("verify", "--suite", suite)
    assert out.returncode == 0
    assert all(line.startswith("PASS") for line in out.stdout.strip().split("\n"))
    if suite == "cover-oracle":
        # byte for byte: one line per word of period <= 5, in order
        assert out.stdout == "".join(f"PASS cover {word} n<=500\n" for word in all_sign_words(5))
        assert out.stderr == "62/62 checks passed\n"


def test_verify_failure_exits_two(monkeypatch, capsys):
    # exercise the exit-code contract without breaking real suites
    # `cli` reads the suite table from `verify` when the command runs
    monkeypatch.setitem(
        verify_module.SUITES, "stub", lambda: [CheckResult("always-fails", False, "x")]
    )
    assert main(["verify", "--suite", "stub"]) == 2
    captured = capsys.readouterr()
    assert "FAIL always-fails" in captured.out


def test_invalid_seed_rejected():
    assert run_cli("random", "--n", "10", "--trials", "2", "--seed", "zzz").returncode == 1
    assert run_cli(
        "random", "--n", "10", "--trials", "2", "--seed", str(2**64)
    ).returncode == 1


SEEDS_REFUSED = {
    "underscore": "1_000",
    "leading-space": " 5",
    "trailing-space": "5 ",
    "plus": "+5",
    "minus": "-5",
    "arabic-indic-digit": "\u0663",
    "bare-0x": "0x",
    "hex-underscore": "0x_1",
    "upper-0X": "0X2A",
    "trailing-newline": "5\n",
}


@pytest.mark.parametrize("seed", SEEDS_REFUSED.values(), ids=list(SEEDS_REFUSED))
def test_seed_accepts_only_ascii_decimal_or_hex(seed, capsys):
    # int() alone would read most of these as a seed
    assert main(["random", "--n", "10", "--trials", "2", "--seed", seed]) == 1
    assert "seed must be decimal or 0x-hex" in capsys.readouterr().err


def test_growth_rejects_malformed_seed_without_random():
    out = run_cli("growth", "--base", "2", "--pattern", "-", "--n-max", "5", "--seed", "zz")
    assert out.returncode == 1
    assert "seed must be decimal or 0x-hex" in out.stderr


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "args", [["table", "--max-period", "3"], ["expect", "--n", "50"]], ids=["table", "expect"]
)
def test_closed_stdout_exits_1_without_a_traceback(args, unbuffered):
    # the reader is gone before the first write (unbuffered) or before the
    # flush at exit (buffered); both commands write nothing to stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = run_python("-m", "cyclolcm", *args, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, "")


def test_main_leaves_the_collector_alone(capsys):
    # tests, demos and perfbench/tracer.py run cli.main in-process
    state = gc.isenabled(), gc.get_freeze_count()
    assert main(["constant", "--pattern", "-+"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == state


def run_console_script():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as f:
        module, _, name = tomllib.load(f)["project"]["scripts"]["cyclolcm"].partition(":")
    return getattr(importlib.import_module(module), name)()


def run_python_m(monkeypatch):
    # as `python -m cyclolcm`, which has not imported cyclolcm.__main__ as a module
    monkeypatch.delitem(sys.modules, "cyclolcm.__main__", raising=False)
    runpy.run_module("cyclolcm", run_name="__main__")


def exit_stub(code):
    # os._exit as a SystemExit, so that the test process goes on
    raise SystemExit(code)


@pytest.mark.parametrize("how", ["console-script", "python-m"])
def test_process_entry_runs_main_without_the_collector(how, monkeypatch):
    collecting = []

    def stub():
        collecting.append(gc.isenabled())
        return 3

    monkeypatch.setattr(cli_module, "main", stub)
    monkeypatch.setattr(os, "_exit", exit_stub)
    try:
        with pytest.raises(SystemExit) as exc:
            run_console_script() if how == "console-script" else run_python_m(monkeypatch)
        assert exc.value.code == 3
        assert collecting == [False]
    finally:
        gc.enable()
