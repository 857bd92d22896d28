"""The command-line scripts run from a checkout without installing ddtwin."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_scripts_run_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for argv in (["random_equivalence.py", "--instances", "2", "--seed", "7"],
                 ["gen_pattern_catalog.py", "--help"]):
        proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (argv[0], proc.stderr)
