"""Record the reference stdout of every command that has no oracle.

Run from the repository root, at a commit whose output is trusted:

    python3 perfbench/record_references.py

It runs each seed-independent command of every workload (full and tiny
sizes) through the CLI and writes perfbench/references.json.  Commands
whose reference comes from an oracle (see check.py) are skipped.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from check import REFERENCES_PATH, command_key, oracle_reference  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402


def main() -> int:
    env = {k: v for k, v in os.environ.items() if k != "CYCLOLCM_THREADS"}
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    refs = {}
    for workload in WORKLOADS:
        for tiny in (False, True):
            for argv in commands(workload, 0, tiny):
                if oracle_reference(argv) is not None or command_key(argv) in refs:
                    continue
                proc = subprocess.run(
                    [sys.executable, "-m", "cyclolcm", *argv],
                    env=env, capture_output=True, text=True, check=True,
                )
                refs[command_key(argv)] = proc.stdout
    with open(REFERENCES_PATH, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(refs)} references to {REFERENCES_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
