"""cyclolcm benchmark: runs one workload's CLI commands and reports metrics.

Run from the repository root:

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 45 --trace 0

--trace 0 runs each command as its own `python -m cyclolcm` process, one
at a time, repeating the workload's command list until --seconds have
passed, and reports the end-to-end metrics; every timing is scaled by a
machine-speed calibration measured between the children (Bench.calibrate).
--trace 1 instead runs the list in-process in fresh child processes
(perfbench/tracer.py), alternating traced and untraced children, and
reports the per-layer metrics.  Every command's stdout is checked
(check.py) after the timed loop.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The full record (seed, environment, per-command
samples, every span) goes to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

from workloads import PREDICTED_DOMINANT, WORKLOADS, commands

SETUP_REPS = 15
CAL_WARMUP = 5
COMMAND_TIMEOUT_S = 60.0
MIN_TRACED_CHILDREN = 2  # counters must repeat across two traced runs

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "max_cmd_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_FUNCTIONS = (
    "growth.exact_lcm_stream",
    "growth.exact_log_lcm_series",
    "growth.surrogate_series",
    "exact_arith.log_big",
    "cyclotomic.totient_sieve",
    "cyclotomic.divisor_list_sieve",
    "cyclotomic.divisor_set",
    "cyclotomic.divisors",
    "cyclotomic.cyclotomic_value",
    "cover.pattern_cover",
    "constants.growth_constant",
    "patterns.random_shifts",
    "stochastic.x_value",
    "stochastic.monte_carlo",
    "stochastic.expected_X",
    "stochastic.exhaustive_indicator_tables",
    "verify.suite_table1",
    "verify.suite_cover_oracle",
    "verify.suite_cyclotomic",
    "verify.suite_stochastic_oracle",
    "cli.main",
)
COUNTERS = (
    "growth.fold_terms",
    "growth.acc_bits_max",
    "cyclotomic.totient_sieve.limit_sum",
    "cyclotomic.divisor_list_sieve.limit_sum",
    "patterns.shifts_generated",
    "cover.classes",
    "verify.checks",
    "verify.checks_failed",
)
# The host's CPU speed drifts (steal time, busy neighbours on shared cores)
# by up to 1.8x over tens of seconds, which no median within one run can
# average out.  So between every two children the harness times, on the
# CPU the children are pinned to (see main), a fixed CPU kernel that never
# calls cyclolcm, and scales each child's wall time by
# REFERENCE_CAL_S / (mean of the kernel times just before and after it):
# every timing metric reads "seconds on a machine where the kernel takes
# REFERENCE_CAL_S", about its median on a 2-core Xeon VM.  The raw wall
# times are kept in the run record.
REFERENCE_CAL_S = 0.040
_CAL_BIG = 3 ** 60000


PER_LAYER = {
    **{f"{fn}.{part}": unit for fn in LAYER_FUNCTIONS
       for part, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    **{c: "count" for c in COUNTERS},
    "trace_overhead_ratio": "ratio",
}


class Bench:
    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.work = root / ".bench_build" / "perfbench"
        self.work.mkdir(parents=True, exist_ok=True)
        # Children see only the checkout's sources and never the thread knob.
        self.env = {k: v for k, v in os.environ.items() if k != "CYCLOLCM_THREADS"}
        self.env["PYTHONPATH"] = str(self.src)
        self.cal_buf = np.zeros(2_000_000, np.int64)
        self.last_cal = None

    def calibrate(self) -> float:
        """Wall seconds of a fixed kernel mixing the workloads' kinds of work.

        An interpreter loop (about 60% of the time), a big-integer
        gcd/divide/multiply chain on a ~0.1 Mbit number, and strided numpy
        updates of a 16 MB array.
        """
        t0 = time.perf_counter()
        acc = 0
        for i in range(250_000):
            acc = (acc * 31 + i) % 1_000_003
        x = _CAL_BIG
        for k in range(1, 120):
            x = x * (k + 2) // math.gcd(x, x + 2 * k + 1)
        for p in (2, 3, 5, 7, 11, 13, 17):
            self.cal_buf[::p] += p
        return time.perf_counter() - t0

    def spawn(self, args: list[str]) -> dict:
        """Run one child to completion; wall time, exit code, stdout, peak RSS."""
        out_path = self.work / "stdout.txt"
        with open(out_path, "w+b") as out, open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read().decode("utf-8", "replace")
        return {"s": seconds, "rc": proc.returncode, "stdout": stdout,
                "rss_mb": usage.ru_maxrss / 1024}

    def timed_spawn(self, args: list[str]) -> dict:
        """spawn, plus the child's wall time scaled by the calibration around it."""
        if self.last_cal is None:
            for _ in range(CAL_WARMUP):
                self.calibrate()
            self.last_cal = self.calibrate()
        run = self.spawn(args)
        after = self.calibrate()
        run["cal_s"] = (self.last_cal + after) / 2
        run["norm_s"] = run["s"] * REFERENCE_CAL_S / run["cal_s"]
        self.last_cal = after
        return run

    def setup_runs(self) -> list[dict]:
        """Interpreter start plus `import cyclolcm`, after one warm-up."""
        runs = [self.timed_spawn(["-c", "import cyclolcm"]) for _ in range(SETUP_REPS + 1)]
        if any(r["rc"] for r in runs):
            raise SystemExit("error: `import cyclolcm` failed in a child process")
        return runs[1:]

    def run_cli(self, cmds: list[list[str]], seconds: float) -> list[list[dict]]:
        """Repeat the command list, one process per command, for `seconds`."""
        iterations = []
        t_end = time.perf_counter() + seconds
        while not iterations or time.perf_counter() < t_end:
            iterations.append([dict(self.timed_spawn(["-m", "cyclolcm", *argv]), argv=argv)
                               for argv in cmds])
        return iterations

    def run_traced(self, cmds: list[list[str]], seconds: float) -> list[dict]:
        """Alternate traced and untraced in-process children for `seconds`."""
        children = []
        t_end = time.perf_counter() + seconds
        traced = True
        while (sum(c["traced"] for c in children) < MIN_TRACED_CHILDREN
               or time.perf_counter() < t_end):
            spec_path, out_path = self.work / "spec.json", self.work / "trace.json"
            spec_path.write_text(json.dumps({"commands": cmds, "traced": traced}))
            out_path.unlink(missing_ok=True)
            child = self.spawn([str(Path(__file__).with_name("tracer.py")),
                                str(spec_path), str(out_path)])
            child["traced"] = traced
            if child["rc"] == 0:
                child.update(json.loads(out_path.read_text()))
            else:
                child["commands"] = [{"argv": argv, "rc": child["rc"], "stdout": ""}
                                     for argv in cmds]
            children.append(child)
            traced = not traced
        return children


def quartiles(values: list[float]) -> dict:
    """Median and spread; a metric with no good sample reads 0 (run is incorrect)."""
    if len(values) < 2:
        return {"median": values[0] if values else 0.0, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def tally(checker, runs: list[dict]) -> list[str]:
    """Check each command run; marks run["ok"] and returns failure reasons."""
    failures = []
    for run in runs:
        problem = checker.check(run["argv"], run["rc"], run["stdout"])
        run["ok"] = problem is None
        if problem:
            failures.append(f"{' '.join(run['argv'])[:100]}: {problem}")
    return failures


def end_to_end_metrics(iterations: list[list[dict]], setup: list[dict],
                       key: str = "norm_s") -> dict:
    """The end-to-end metrics from the calibrated times (key="s": raw wall)."""
    good = [it for it in iterations if all(r["ok"] for r in it)]
    per_command = [[it[i] for it in good] for i in range(len(iterations[0]))]
    cmd_medians = [statistics.median(r[key] for r in runs) if runs else 0.0
                   for runs in per_command]
    slowest = cmd_medians.index(max(cmd_medians))
    rss = [r["rss_mb"] for it in iterations for r in it if r["ok"]]
    return {
        "wall_s": quartiles([sum(r[key] for r in it) for it in good]),
        "max_cmd_s": {"median": cmd_medians[slowest], "n": len(good),
                      "command": " ".join(iterations[0][slowest]["argv"])},
        "setup_s": quartiles([r[key] for r in setup]),
        "peak_rss_mb": {"median": max(rss, default=0.0), "n": len(rss)},
    }


def per_layer_metrics(children: list[dict]) -> tuple[dict, dict, list[str]]:
    traced = [c for c in children if c["traced"] and c["rc"] == 0]
    plain = [c for c in children if not c["traced"] and c["rc"] == 0]
    problems = []
    counters = [{k: c["counters"].get(k, 0) for k in COUNTERS} for c in traced]
    if any(cs != counters[0] for cs in counters[1:]):
        problems.append(f"counters differ between traced runs of the same inputs: {counters}")
    metrics = {}
    for fn in LAYER_FUNCTIONS:
        spans = [c["spans"].get(fn, [0, 0.0, 0.0]) for c in traced]
        calls = {s[0] for s in spans}
        if len(calls) > 1:
            problems.append(f"{fn} call counts differ between traced runs: {sorted(calls)}")
        metrics[f"{fn}.calls"] = {"median": spans[0][0] if spans else 0, "n": len(spans)}
        metrics[f"{fn}.s"] = quartiles([s[1] for s in spans])
        metrics[f"{fn}.self_s"] = quartiles([s[2] for s in spans])
    for k in COUNTERS:
        metrics[k] = {"median": counters[0][k] if counters else 0, "n": len(counters)}
    if traced and plain:
        ratio = (statistics.median(c["s"] for c in traced)
                 / statistics.median(c["s"] for c in plain))
    else:
        ratio = 0.0
    metrics["trace_overhead_ratio"] = {"median": ratio, "n": len(traced) + len(plain)}
    self_times = Counter()
    for c in traced:
        for name, (_, _, self_s) in c["spans"].items():
            self_times[name] += self_s / len(traced)
    return metrics, dict(self_times.most_common()), problems


def git_commit(root: Path) -> str | None:
    """HEAD of a checkout's .git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(root),
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (the benchmark's smoke tests)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 63 or args.seconds <= 0:
        parser.error("--seed must be in [0, 2^63) and --seconds positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cyclolcm" / "__init__.py").is_file():
        print("error: run from the root of a cyclolcm checkout (no src/cyclolcm here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from check import Checker  # imports cyclolcm from the checkout

    bench = Bench(root)
    cmds = commands(args.workload, args.seed, args.tiny)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "commands": cmds,
              "environment": environment(root)}
    # One CPU for the harness and every child it starts.  On a VM each
    # virtual CPU is slowed by its own host contention, so the calibration
    # kernel must run where the children run; libraries also see one core.
    record["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {record["pinned_cpu"]})
    checker = Checker()
    if args.trace == 0:
        setup = bench.setup_runs()
        iterations = bench.run_cli(cmds, args.seconds)
        runs = [r for it in iterations for r in it]
        failures = tally(checker, runs)
        stats = end_to_end_metrics(iterations, setup)
        units = END_TO_END
        keys = ("s", "norm_s", "cal_s", "rc", "rss_mb", "ok")
        record.update(
            raw_wall=end_to_end_metrics(iterations, setup, key="s"),
            reference_cal_s=REFERENCE_CAL_S,
            setup_samples=[{k: r[k] for k in keys if k != "ok"} for r in setup],
            samples=[[{k: r[k] for k in keys} for r in it] for it in iterations])
    else:
        children = bench.run_traced(cmds, args.seconds)
        runs = [r for c in children for r in c["commands"]]
        failures = tally(checker, runs)
        stats, self_times, problems = per_layer_metrics(children)
        failures += problems
        units = PER_LAYER
        dominant = next((k for k in self_times if k != "cli.main"), None)
        predicted = PREDICTED_DOMINANT[args.workload]
        record.update(self_time_by_function=self_times, dominant_layer=dominant,
                      predicted_dominant=predicted,
                      children=[{k: c[k] for k in ("traced", "s", "rc", "rss_mb")}
                                for c in children])
        print(f"# dominant layer by self time: {dominant} (predicted "
              f"{' or '.join(predicted)}: {'agrees' if dominant in predicted else 'DISAGREES'})")

    failed = sum(not r["ok"] for r in runs)
    record.update(metrics=stats, attempted=len(runs), failed=failed,
                  fail_ratio=failed / max(len(runs), 1), failures=failures)
    out = bench.work / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for reason in failures[:10]:
        print(f"# FAILED {reason}")
    for name in units:
        s = stats[name]
        spread = f" q1={s['q1']:.6g} q3={s['q3']:.6g}" if "q1" in s else ""
        raw = record.get("raw_wall", {}).get(name)
        raw = f" raw={raw['median']:.6g}" if raw and name.endswith("_s") else ""
        print(f"# {name} = {s['median']:.6g} {units[name]} (n={s['n']}){spread}{raw}")
    print(f"# fail_ratio = {failed}/{len(runs)}; full record in {out.relative_to(root)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
