"""CLI surface: output schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from cyclolcm import cli as cli_module
from cyclolcm import verify as verify_module
from cyclolcm.cli import TRIALS_CSV_HEADER, main
from cyclolcm.growth import GROWTH_CSV_HEADER
from cyclolcm.patterns import all_sign_words
from cyclolcm.verify import CheckResult


# The child process imports the same cyclolcm as this one, installed or not.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(cli_module.__file__))


def run_python(*args):
    path = [PACKAGE_ROOT, os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )


def run_cli(*args):
    return run_python("-m", "cyclolcm", *args)


# Runs `cli.main` on argv[1:] (only `import cyclolcm` when empty), then
# prints which of dataclasses, fractions, inspect, json and numpy got
# loaded and, on a second line, the sorted cyclolcm submodules that did.
LOAD_PROBE = """
import contextlib, io, sys
import cyclolcm
if sys.argv[1:]:
    from cyclolcm import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
LIBRARIES = ("dataclasses", "fractions", "inspect", "json", "numpy")
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
        (["expect", "--n", "50"], True),
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
    ],
    ids=["random", "expect-float", "expect-exact", "constant"],
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
        (["verify", "--suite", "stochastic-oracle"], "growth cover constants patterns"),
        (["growth", "--exact", "--base", "3", "--pattern", "-+-", "--n-max", "60",
          "--step", "20"], "stochastic verify"),
        (["growth", "--base", "2", "--pattern", "-+", "--n-max", "200", "--step", "50"],
         "stochastic verify"),
        (["random", "--n", "50", "--trials", "2"], "growth verify cover"),
        (["expect", "--n", "50", "--exact"], "growth verify constants cover patterns"),
        (["expect", "--n", "50"], "growth verify constants cover patterns"),
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


def test_constant_explain_includes_cover():
    out = run_cli("constant", "--pattern", "+-", "--explain")
    obj = json.loads(out.stdout)
    assert obj["schema"] == 1
    assert obj["C"] == {"num": 3, "den": 1}
    assert obj["cover"]["modulus"] == 4
    thetas = {c["t"]: (c["theta"]["num"], c["theta"]["den"]) for c in obj["cover"]["classes"]}
    assert thetas == {1: (1, 2), 2: (2, 1), 3: (1, 2), 4: (1, 1)}


def test_constant_usage_errors():
    assert run_cli("constant", "--pattern", "").returncode == 1
    out = run_cli("constant", "--pattern", "+?")
    assert out.returncode == 1
    assert "position 2" in out.stderr


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
    assert lines[0] == GROWTH_CSV_HEADER
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


# Each refusal exits 1, prints nothing on stdout and names its value on stderr.
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
    "random-n-0": (["random", "--n", "0", "--trials", "3"], "got (0, 3)"),
    "random-trials-0": (["random", "--n", "3", "--trials", "0"], "got (3, 0)"),
    "expect-n-0": (["expect", "--n", "0"], "n >= 1, got 0"),
    "expect-exact-n-0": (["expect", "--n", "0", "--exact"], "n >= 1, got 0"),
    "table-max-period-0": (["table", "--max-period", "0"], "invalid choice: 0"),
    "table-max-period-9": (["table", "--max-period", "9"], "invalid choice: 9"),
}


def exit_code(argv):
    # argparse's refusals raise SystemExit; a command's ValueError returns 1
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, named", REFUSALS.values(), ids=list(REFUSALS))
def test_refusals_exit_one_and_name_the_value(argv, named, capsys):
    assert exit_code(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


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
    # "--" included, which argparse would otherwise drop as the options marker
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
    with pytest.raises(SystemExit) as exc:
        main(["random", "--base", "2", "--n", "10", "--trials", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --base 2" in capsys.readouterr().err


def test_random_json_format():
    out = run_cli(
        "random", "--n", "30", "--trials", "4", "--seed", "5", "--format", "json"
    )
    obj = json.loads(out.stdout)
    assert obj["schema"] == 1
    assert len(obj["trials"]) == 4
    assert set(obj["summary"]) == {
        "n", "trials", "mean_X", "var_X", "mean_ratio", "theory_ratio", "abs_gap",
    }


def test_expect_values():
    out = run_cli("expect", "--n", "1", "--exact")
    assert out.stdout.strip() == "1"
    out = run_cli("expect", "--n", "3", "--exact")
    assert out.stdout.strip() == "19/4"
    out = run_cli("expect", "--n", "3")
    assert float(out.stdout) == pytest.approx(4.75)
    assert run_cli("expect", "--n", "3000", "--exact").returncode == 1


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
