"""The ddtwin names the benchmark in ``perfbench/`` calls still exist.

The benchmark's tracer records a layer function it cannot find as missing
and runs on, so a rename or removal in ``src`` would quietly drop a span
or break a re-check there.  It also names each solve after the
``evaluate_scenario`` call it runs in, so moving a row's solve out of that
call would quietly mislabel the rows.  These tests fail first instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import add_scenario_file

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_function_resolves():
    worker = _load_worker()
    missing = [f"{module}.{attr}" for module, attr, _ in worker.LAYER_FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert missing == []


def test_the_names_the_worker_and_runner_call_exist():
    from ddtwin import cli
    from ddtwin.diagnostics import DiagnosticError
    from ddtwin.scenarios import TIGHTEN_DEADLINE, parse_scenario_csv
    from ddtwin.schedule import (DEADLINE_MISS, Violation, check_schedule,
                                 effective_max_start_lag)
    from ddtwin.solver import SolveOpts

    assert callable(cli.main) and callable(cli.load_run_manifest)
    assert issubclass(DiagnosticError, Exception)
    assert TIGHTEN_DEADLINE == "TIGHTEN_DEADLINE"
    assert callable(parse_scenario_csv)
    assert SolveOpts().max_start_lag is None
    assert "max_start_lag" in inspect.signature(check_schedule).parameters
    assert callable(effective_max_start_lag)
    # the re-check reports a bad row as KIND[subject] @ t: message
    assert (Violation(DEADLINE_MISS, "t1", "finishes late", 7).render()
            == "DEADLINE_MISS[t1] @ 7: finishes late")
    assert (Violation(DEADLINE_MISS, "t1", "finishes late").render()
            == "DEADLINE_MISS[t1]: finishes late")


def test_each_row_solve_is_recorded_under_its_row_name(trivial_dir, tmp_path):
    # a subprocess, because the tracer rewraps ddtwin's modules
    shutil.copytree(trivial_dir, tmp_path / "trivial",
                    ignore=shutil.ignore_patterns("out*"))
    manifest = tmp_path / "trivial" / "manifest.yaml"
    add_scenario_file(
        manifest,
        ("lag-0", [{"kind": "START_LAG", "value": 0}]),
        ("deadline-7000", [{"kind": "TIGHTEN_DEADLINE", "value": 7000}]))
    result_path = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "outcomes",
         str(manifest), str(tmp_path / "out"), str(result_path)],
        check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    result = json.loads(result_path.read_text())
    assert result["exit"] == 0
    rows = [row["name"] for row in result["rows"]]
    assert rows == ["lag-0", "deadline-7000", "baseline"]
    solves = [row for row, *_ in result["solver"]["statuses"]]
    # the injection-free baseline row reuses the baseline solve
    assert solves == ["baseline", "lag-0", "deadline-7000"]


def test_the_seed_lattice_keeps_one_solve_per_row_and_no_negative_delta(
        du_dir, tmp_path):
    # the rows' seeds run before the baseline solve, outside every
    # evaluate_scenario call; the solves stay where the tracer names them
    shutil.copytree(du_dir, tmp_path / "du",
                    ignore=shutil.ignore_patterns("out*"))
    manifest = tmp_path / "du" / "manifest.yaml"
    manifest.write_text(manifest.read_text().replace(
        "budget_nodes: 60000", "budget_nodes: 1000"))
    result_path = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "outcomes",
         str(manifest), str(tmp_path / "out"), str(result_path)],
        check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    result = json.loads(result_path.read_text())
    assert result["exit"] == 0
    rows = [row["name"] for row in result["rows"]]
    solves = [row for row, *_ in result["solver"]["statuses"]]
    assert len(solves) == 12
    assert solves == ["baseline"] + [r for r in rows if r != "baseline"]
    assert all(row["delta_pct"] >= 0 for row in result["rows"])
    assert {row["baseline"] for row in result["rows"]} == {226_676}
    # the families are enumerated once per run, and each is counted once
    assert result["counts"]["scenarios.specs"] == 12
    assert result["span_calls"]["scenarios.enumerate"] == 1
