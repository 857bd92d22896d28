"""The command-line scripts run from a checkout without installing ddtwin."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_scripts_run_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for argv in (["random_equivalence.py", "--instances", "2", "--seed", "7"],
                 ["gen_pattern_catalog.py", "--help"],
                 ["bench_pairs.py", "--help"]):
        proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (argv[0], proc.stderr)


def test_count_bytecodes_repeats_its_count(trivial_dir, tmp_path):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONHASHSEED")}
    runs = [subprocess.run([sys.executable, str(SCRIPTS / "count_bytecodes.py"),
                            "--manifest", str(trivial_dir / "manifest.yaml")],
                           cwd=tmp_path, env=env, capture_output=True,
                           text=True, timeout=120) for _ in range(2)]
    assert [proc.returncode for proc in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    counts = {phase: int(n.replace(",", "")) for phase, n
              in map(str.split, runs[0].stdout.splitlines())}
    assert list(counts) == ["plan", "seed", "search", "check", "other", "total",
                            "library"]
    library = counts.pop("library")
    assert counts.pop("total") == sum(counts.values())
    assert counts["plan"] > 0 and counts["seed"] > 0 and counts["check"] > 0
    # PyYAML's constructor alone runs Python code on every load
    assert library > 0


def test_random_equivalence_monotonic_mode(tmp_path):
    """The tightening mode runs its monotonicity check on both pairs and,
    since both relaxed instances close at seed 2, its floor check too."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable,
                           str(SCRIPTS / "random_equivalence.py"),
                           "--monotonic", "--pairs", "2", "--seed", "2"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith(
        "2 pairs (2 also solved with a floor), 0 violations, ")


def test_bench_pairs_verdicts():
    """A claimed gain needs nine tenths of the pairs, a median gap wider
    than the parent's interquartile range and no more failed operations
    than the parent; a claim must name a metric and a workload."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  SCRIPTS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    metrics = [{"name": "cpu_s", "better": "lower", "bound": 0.25}]

    def verdict(parent, change, failed=0):
        pairs = [{"parent": {"cpu_s": a, "failed": 0},
                  "change": {"cpu_s": b, "failed": failed}}
                 for a, b in zip(parent, change)]
        return bench_pairs.summarize(pairs, metrics, {"cpu_s"})["cpu_s"]["verdict"]

    parent = [1.0, 1.1, 1.0, 1.2, 1.1, 1.0, 1.1, 1.2, 1.0, 1.1]
    assert verdict(parent, [0.5] * 10) == "gain"
    assert verdict(parent, [0.5] * 10, failed=1) == "not met"
    assert verdict(parent, [0.5] * 8 + [1.3] * 2) == "not met"
    assert verdict(parent, [v - 0.05 for v in parent]) == "not met"
    args = bench_pairs.parse_args(["--tag", "t", "--workload", "w",
                                   "--claim", "cpu_s=w"])
    assert args.claim == [("cpu_s", "w")]
    for bad in ("cpu_s", "=w", "cpu_s="):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(["--tag", "t", "--workload", "w",
                                    "--claim", bad])
