"""In-process traced run of a command list through `cyclolcm.cli.main`.

Usage (the benchmark starts it, one fresh process per run, so that
memoised state such as `cyclotomic._factor_cache` starts cold):

    python3 perfbench/tracer.py SPEC.json OUT.json

SPEC.json holds {"commands": [argv, ...], "traced": bool}.  With traced
true, every public function of every cyclolcm module is wrapped in a
timing span before the commands run.  The package imports names with
`from .x import y`, so each wrapper is rebound in every module (and
module-level dict, such as `verify.SUITES`) that holds the original.
Spans are folded into per-function totals in memory and written to
OUT.json at the end, with each command's exit code and stdout.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import sys
import time
from collections import defaultdict

MODULES = (
    "exact_arith", "cyclotomic", "patterns", "cover", "constants",
    "growth", "stochastic", "verify", "cli",
)


class Tracer:
    """Per-function call count, inclusive time and self time, plus counters.

    Self time is a span's duration minus the durations of the spans it
    directly encloses; `_stack` holds the child time of each open span.
    """

    def __init__(self):
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []

    def _close(self, stats: list, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        stats[1] += dt
        stats[2] += dt - child
        if self._stack:
            self._stack[-1] += dt

    def wrap(self, name: str, fn):
        stats = self.spans[name]
        hook = COUNTER_HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, stats)

        def wrapper(*args, **kwargs):
            stats[0] += 1
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stats, t0)
            if hook:
                hook(self.counters, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn, stats: list):
        """Times each next() on the generator, not its creation."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            stats[0] += 1
            inner = fn(*args, **kwargs)
            while True:
                self._stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(stats, t0)
                if name == "growth.exact_lcm_stream":
                    counters["growth.fold_terms"] += 1
                    bits = item[1].bit_length()
                    if bits > counters["growth.acc_bits_max"]:
                        counters["growth.acc_bits_max"] = bits
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import cyclolcm

        modules = [cyclolcm] + [importlib.import_module(f"cyclolcm.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            value[key] = wrappers[id(item)]


def _add(name: str, amount):
    def hook(counters, result):
        counters[name] += amount(result)
    return hook


def _suite_hook(counters, results):
    counters["verify.checks"] += len(results)
    counters["verify.checks_failed"] += sum(not r.ok for r in results)


COUNTER_HOOKS = {
    "cyclotomic.totient_sieve": _add("cyclotomic.totient_sieve.limit_sum", lambda r: len(r) - 1),
    "cyclotomic.divisor_list_sieve": _add(
        "cyclotomic.divisor_list_sieve.limit_sum", lambda r: len(r) - 1),
    "patterns.random_shifts": _add("patterns.shifts_generated", len),
    "cover.pattern_cover": _add("cover.classes", lambda r: len(r.slopes)),
    **{f"verify.suite_{s}": _suite_hook
       for s in ("table1", "cover_oracle", "cyclotomic", "stochastic_oracle")},
}


def run_commands(commands: list[list[str]]) -> list[dict]:
    from cyclolcm import cli

    results = []
    for argv in commands:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        results.append({"argv": argv, "rc": rc, "stdout": out.getvalue(),
                        "s": time.perf_counter() - t0})
    return results


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    tracer = Tracer()
    if spec["traced"]:
        tracer.install()
    results = run_commands(spec["commands"])
    with open(out_path, "w") as f:
        json.dump({"commands": results, "spans": tracer.spans,
                   "counters": tracer.counters}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
