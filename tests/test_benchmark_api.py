"""The ddtwin names the benchmark in ``perfbench/`` calls still exist.

The benchmark's tracer records a layer function it cannot find as missing
and runs on, so a rename or removal in ``src`` would quietly drop a span
or break a re-check there.  These tests fail first instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
    from ddtwin.schedule import check_schedule, effective_max_start_lag
    from ddtwin.solver import SolveOpts

    assert callable(cli.main) and callable(cli.load_run_manifest)
    assert issubclass(DiagnosticError, Exception)
    assert TIGHTEN_DEADLINE == "TIGHTEN_DEADLINE"
    assert callable(parse_scenario_csv)
    assert SolveOpts().max_start_lag is None
    assert "max_start_lag" in inspect.signature(check_schedule).parameters
    assert callable(effective_max_start_lag)
