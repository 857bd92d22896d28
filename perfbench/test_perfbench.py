"""Self-test of the benchmark on its test-only ``trivial`` workload.

Runs perfbench/run.py end to end with tiny budgets and checks the output
contract: every metric BENCHMARK.json names is emitted with its unit, the
deterministic counts repeat exactly across runs, and a directory without
the ddtwin sources makes the benchmark fail without printing a result.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

REQUIRED_METRICS = (
    "setup_s", "cpu_s", "proven_share", "search_win_share",
    "makespan_vs_seed", "failed_share", "peak_rss_mb",
    "cli.load_run_s", "flows.parse_s", "manifests.parse_s",
    "hardware.parse_s", "patterns.catalog_s", "elaborate.elaborate_s",
    "elaborate.bind_timing_s", "graph.tasks", "graph.buffers",
    "patterns.count", "solver.solves", "solver.solve_s", "solver.nodes",
    "solver.nodes_per_s", "solver.leaves", "solver.pruned.BOUND",
    "solver.complete_share", "solver.seed_s", "solver.search_s",
    "patterns.contends_ns", "patterns.lookup_ns", "schedule.check_calls",
    "schedule.check_s", "schedule.check_rejects", "scenarios.specs",
    "scenarios.enumerate_s", "scenarios.apply_s", "scenarios.evaluate_s",
    "scenarios.negative_delta_rows", "scenarios.infeasible_rows",
    "cli.write_s", "trace.overhead_s",
)


def _bench(trace: int, seed: int = 1, cwd: Path = ROOT,
           script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", "trivial",
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def _result(trace: int) -> dict:
    proc = _bench(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_every_declared_metric_is_emitted_with_its_unit():
    emitted = {**_result(0)["metrics"], **_result(1)["metrics"]}
    declared = {m["name"]: m["unit"]
                for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert not set(REQUIRED_METRICS) - set(declared)
    assert {name: m["unit"] for name, m in emitted.items()} == declared
    for metric in emitted.values():
        assert isinstance(metric["value"], (int, float))


def test_deterministic_counts_repeat_exactly():
    first, second = _result(1)["metrics"], _result(1)["metrics"]
    counts = [name for name, m in first.items()
              if m["unit"] in ("count", "ratio")]
    assert "solver.nodes" in counts and "schedule.check_calls" in counts
    assert {n: first[n]["value"] for n in counts} \
        == {n: second[n]["value"] for n in counts}
    assert first["schedule.check_calls"]["value"] >= 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _bench(0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rows_are_judged_by_the_failure_rules():
    judge_rows = _load_run_module().judge_rows

    class Row:
        def __init__(self, name):
            self.name = name

    def row(name, latency, delta, deadline=None):
        return {"name": name, "latency": latency, "delta_pct": delta,
                "baseline": 100, "only_deadline": deadline}

    traced = {
        "bad_rows": {"rejected": ["check_schedule: CORE_OVERLAP"]},
        "solver": {"statuses": [["baseline", "optimal", 100, 100],
                                ["unproven", "feasible", 120, 120]]},
        "rows": [row("baseline", 100, 0), row("negative", 90, -10),
                 row("tight-ok", None, None, deadline=99),
                 row("tight-wrong", None, None, deadline=100),
                 row("rejected", 130, 30), row("unproven", 120, 20)],
    }
    parsed = [Row(r["name"]) for r in traced["rows"]]
    proof = judge_rows({"require_proof": True}, traced, parsed)
    assert set(proof["failed"]) == {"rejected", "tight-wrong", "unproven"}
    assert set(proof["broken"]) == {"negative"}
    relaxed = judge_rows({"require_proof": False}, traced, parsed)
    assert set(relaxed["failed"]) == {"rejected", "tight-wrong"}
