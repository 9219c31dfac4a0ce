"""The demos run to the end: exit 0, and their cross-checks agree."""

from pathlib import Path

import pytest

from test_cli import run_python

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    out = run_python(str(DEMOS / demo))
    assert out.returncode == 0, out.stderr
    assert "MISMATCH" not in out.stdout
