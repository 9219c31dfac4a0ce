"""The benchmark's own tests: smoke runs at tiny sizes and checker tests.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from check import Checker, compare_text, oracle_reference, splitmix_shifts, command_key
from cyclolcm import cli
from cyclolcm.patterns import random_shifts
from workloads import WHY, WORKLOADS, commands

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_reports_every_metric(workload, trace):
    result = last_json(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", trace, "--tiny"))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counters_repeat_exactly_for_one_seed():
    counts = []
    for _ in range(2):
        metrics = last_json(bench("--workload", "exact-verify", "--seed", "11", "--seconds",
                                  "1", "--trace", "1", "--tiny"))["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["growth.fold_terms"] == 150  # n_max 60 + 30 + 60
    assert counts[0]["patterns.shifts_generated"] == 60


def test_timed_spawn_scales_wall_time_by_the_calibration():
    bench_ = run.Bench(ROOT)
    first, second = (bench_.timed_spawn(["-c", "pass"]) for _ in range(2))
    for r in (first, second):
        assert r["rc"] == 0 and r["cal_s"] > 0
        assert r["norm_s"] == pytest.approx(r["s"] * run.REFERENCE_CAL_S / r["cal_s"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exact-verify", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def corrupt(text):
    """Change the first digit, or the first PASS for outputs without digits."""
    i = next((i for i, ch in enumerate(text) if ch.isdigit()), None)
    if i is None:
        return text.replace("PASS", "FAIL", 1)
    return text[:i] + ("8" if text[i] == "7" else "7") + text[i + 1:]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_output_counts_as_failed(workload):
    runs = []
    for argv in commands(workload, 5, tiny=True):
        good = cli_stdout(argv)
        runs += [{"argv": argv, "rc": 0, "stdout": good},
                 {"argv": argv, "rc": 0, "stdout": corrupt(good)},
                 {"argv": argv, "rc": 1, "stdout": good}]
    failures = run.tally(Checker(), runs)
    assert [r["ok"] for r in runs] == [True, False, False] * (len(runs) // 3)
    assert len(failures) == 2 * len(runs) // 3


def test_float_fields_tolerate_last_ulp_only():
    want = "n,x\n10,3.0000000000000004,\n"
    assert compare_text("n,x\n10,3.0000000000000013,\n", want) is None
    assert compare_text("n,x\n10,3.000000001,\n", want) is not None
    assert compare_text("n,x\n11,3.0000000000000004,\n", want) is not None
    assert compare_text("13/4\t3.25\n", "13/5\t3.25\n") is not None


def test_splitmix_oracle_matches_specification():
    for seed in (0, 1, 2**64 - 1):
        assert splitmix_shifts(seed, 257) == random_shifts(seed, 257)


def test_every_command_has_a_reference():
    refs = Checker().references
    for workload in WORKLOADS:
        for tiny in (False, True):
            for argv in commands(workload, 0, tiny):
                assert oracle_reference(argv) or command_key(argv) in refs, argv


def test_benchmark_json_matches_the_harness():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == WHY
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
