"""Smoke test: the scripts under ``scripts/`` still run against the library."""
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"


@pytest.mark.parametrize("script,args", [
    ("run_worked_examples.py", ["--out", "{tmp}"]),
    ("randomized_checks.py", ["--scenarios", "10", "--lps", "10"]),
])
def test_script_exits_zero(script, args, tmp_path):
    argv = [sys.executable, str(SCRIPTS / script)] + [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
