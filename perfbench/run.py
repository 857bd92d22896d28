#!/usr/bin/env python3
"""The ddtwin benchmark: one workload, timed end to end, checked, traced.

    python3 perfbench/run.py --workload du_exact --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
the shipped fixtures into a scratch directory under ``.bench_work/``, with
the parameters recorded in ``perfbench/workloads.json``.  Then, one after
another and never concurrently, single-threaded subprocesses

1. run ``ddtwin scenarios`` through ``ddtwin.cli.main`` with every layer's
   public functions wrapped (see worker.py), for the outcome metrics and,
   with ``--trace 1``, the per-layer ones; this run also warms the file
   and bytecode caches before anything is timed;
2. until ``--seconds`` have passed, and at least ``MIN_RUNS`` times, set
   up once (interpreter start, ``import ddtwin``, ``load_run``,
   ``build_graph``) for ``setup_s`` and then run the same command with
   tracing off for ``cpu_s`` and ``peak_rss_mb``; set-up is repeated
   after the loop until there are ``SETUP_REPS`` samples.  Interleaving
   the two spreads both samples over the whole window, so each median
   covers the same stretch of time on a host whose speed drifts;
3. with ``--trace 1`` only, run it under cProfile, untimed, and keep the
   top self-time functions in the result file.

The traced CSV must equal the untimed CSVs byte for byte, or the benchmark
stops with exit 1 and prints no result.  The last line of standard output
is one JSON object: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``, under the names and units that
``BENCHMARK.json`` declares.  The full record, with host facts and
the profile, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "ddtwin" / "fixtures"
WORKER = HERE / "worker.py"
WORKLOADS = HERE / "workloads.json"
BENCHMARK = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
SCRATCH = ROOT / ".bench_work"

SETUP_REPS = 5
MIN_RUNS = 3          # so that cpu_s is a true median on every workload
STEP_TIMEOUT_S = 170

PRUNE_KINDS = ("BOUND", "DEADLINE_MISS", "LAG_VIOLATION", "BUFFER_OVERFLOW",
               "PATTERN_VIOLATION")

class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


# -- inputs -------------------------------------------------------------------

def generate_inputs(spec: dict, seed: int, dest: Path) -> Path:
    """Copy the workload's fixture into ``dest`` and apply its recorded
    parameters; returns the run manifest path."""
    shutil.copytree(FIXTURES / spec["fixture"], dest,
                    ignore=shutil.ignore_patterns("out"))
    rng = random.Random(seed)
    manifest_path = dest / "manifest.yaml"
    manifest = yaml.safe_load(manifest_path.read_text())
    run_spec = manifest["spec"]
    run_spec.setdefault("solver", {}).update(
        mode=spec["mode"], budget_nodes=spec["budget_nodes"],
        scenario_budget_nodes=spec["scenario_budget_nodes"])

    deployment_path = dest / run_spec["deployment"]
    deployment = yaml.safe_load(deployment_path.read_text())
    deployment.setdefault("symbols", {}).update(spec["symbols"])
    if spec["period"] is not None:
        deployment["slot_budget"] = spec["period"]
    deployment_path.write_text(yaml.safe_dump(deployment, sort_keys=False))

    jitter = spec.get("runtime_jitter", 0.0)
    for name in run_spec["constraints"]:
        path = dest / name
        docs = list(yaml.safe_load_all(path.read_text()))
        for doc in docs:
            body = doc.get("spec", {}) if isinstance(doc, dict) else {}
            if (spec["period"] is not None
                    and doc.get("kind") == "timing equality"
                    and body.get("variable_name") == "modem_period"
                    and body.get("constraint") == "equal"):
                body["value"] = spec["period"]
            if jitter and doc.get("kind") == "SDK":
                body["runtime"] = max(1, round(
                    body["runtime"] * rng.uniform(1 - jitter, 1 + jitter)))
        path.write_text(yaml.safe_dump_all(docs, sort_keys=False))

    if "scenarios" in spec:
        scenario_path = dest / "bench_scenarios.yaml"
        scenario_path.write_text(
            yaml.safe_dump_all(_seeded_scenarios(spec["scenarios"], rng),
                               sort_keys=False))
        run_spec["scenario_files"] = (list(run_spec.get("scenario_files", []))
                                      + [scenario_path.name])
    manifest_path.write_text(yaml.safe_dump(manifest, sort_keys=False))
    return manifest_path


def _seeded_scenarios(ranges: dict, rng: random.Random) -> list[dict]:
    def doc(name: str, injection: dict) -> dict:
        return {"apiVersion": "rdsl/v0", "kind": "scenario",
                "metadata": {"name": name},
                "spec": {"injections": [injection]}}

    low, high = ranges["tighten_deadline"]
    lag_low, lag_high = ranges["start_lag"]
    return [
        doc("tighten-deadline", {"kind": "TIGHTEN_DEADLINE",
                                 "value": rng.randint(low, high)}),
        doc("pin-task", {"kind": "PIN_TASKS",
                         "targets": [rng.choice(ranges["pin_task"])],
                         "cores": list(ranges["pin_cores"])}),
        doc("start-lag", {"kind": "START_LAG",
                          "value": rng.randint(lag_low, lag_high)}),
    ]


# -- subprocesses -------------------------------------------------------------

def run_worker(mode: str, manifest: Path, out_dir: Path, work: Path
               ) -> tuple[dict, float]:
    """Run one worker subprocess to completion; returns its result and the
    wall time from spawn to exit, as seen from this process."""
    result_path = work / f"{mode}-{time.perf_counter_ns()}.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(WORKER), mode, str(manifest), str(out_dir),
         str(result_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=STEP_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
    return json.loads(result_path.read_text()), elapsed


# -- checks and metrics -------------------------------------------------------

def read_csv(out_dir: Path) -> str | None:
    path = out_dir / "scenarios.csv"
    return path.read_text() if path.is_file() else None


def judge_rows(spec: dict, traced: dict, parsed_rows: list) -> dict:
    """Sort the traced run's rows into failed (result unusable) and broken
    (result breaks a stated invariant); see workloads.json failure_rules."""
    names = [row.name for row in parsed_rows]
    failed: dict[str, list[str]] = {}
    broken: dict[str, list[str]] = {}

    def fail(table: dict, row: str, why: str) -> None:
        table.setdefault(row, []).append(why)

    for row, reasons in traced["bad_rows"].items():
        for why in reasons:
            for name in (names if row == "baseline" else [row]):
                fail(failed, name, why)
    if spec["require_proof"]:
        for row, status, _, _ in traced["solver"]["statuses"]:
            if status not in ("optimal", "infeasible"):
                for name in (names if row == "baseline" else [row]):
                    fail(failed, name, f"solve ended {status!r}, not a proof")
    for row in traced["rows"]:
        if (row["latency"] is None and row["only_deadline"] is not None
                and row["only_deadline"] >= row["baseline"]):
            fail(failed, row["name"],
                 f"INFEASIBLE at deadline {row['only_deadline']} although "
                 f"the baseline meets it in {row['baseline']}")
        if row["delta_pct"] is not None and row["delta_pct"] < 0:
            fail(broken, row["name"], f"negative delta {row['delta_pct']}%")
    return {"failed": failed, "broken": broken}


def end_to_end_metrics(setup_times, runs, traced, attempted, bad) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        # Recorded, not declared: on a shared host wall time also counts
        # the stretches in which the host did not run the process.
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in runs) / 1024,
        "makespan_vs_seed": traced["solver"]["makespan_vs_seed"],
        "ok_row_share": 1 - bad / attempted,
    }


def per_layer_metrics(runs, traced, attempted, bad) -> dict:
    span = traced["span_s"]
    solver = traced["solver"]
    counts = traced["counts"]
    solves = solver["solves"]
    solve_s = span.get("solver.solve", 0.0)
    seed_s = span.get("solver.seed", 0.0)
    pruned = dict(solver["pruned"])
    metrics = {
        "cli.load_run_s": span.get("cli.load_run", 0.0),
        "flows.parse_s": span.get("flows.parse", 0.0),
        "manifests.parse_s": span.get("manifests.parse", 0.0),
        "hardware.parse_s": span.get("hardware.parse", 0.0),
        "patterns.catalog_s": span.get("patterns.catalog", 0.0),
        "scenarios.parse_s": span.get("scenarios.parse", 0.0),
        "elaborate.elaborate_s": span.get("elaborate.elaborate", 0.0),
        "elaborate.bind_timing_s": span.get("elaborate.bind_timing", 0.0),
        "graph.tasks": (traced["graph"] or {}).get("tasks", 0),
        "graph.buffers": (traced["graph"] or {}).get("buffers", 0),
        "patterns.count": (traced["graph"] or {}).get("patterns", 0),
        "solver.solves": solves,
        "solver.solve_s": solve_s,
        "solver.seed_s": seed_s,
        "solver.search_s": solve_s - seed_s,
        "solver.nodes": solver["nodes"],
        "solver.nodes_per_s": solver["nodes"] / solve_s if solve_s else 0.0,
        "solver.leaves": solver["leaves"],
        **{f"solver.pruned.{kind}": pruned.pop(kind, 0)
           for kind in PRUNE_KINDS},
        "solver.pruned.OTHER": sum(pruned.values()),
        "solver.complete_share": solver["complete"] / solves if solves else 0.0,
        "proven_share": solver["proven"] / solves if solves else 0.0,
        "search_win_share": (solver["wins"] / solver["feasible"]
                             if solver["feasible"] else 0.0),
        "failed_share": bad / attempted,
        "patterns.contends_ns": (traced["patterns"] or {}).get(
            "patterns.contends_ns", 0.0),
        "patterns.lookup_ns": (traced["patterns"] or {}).get(
            "patterns.lookup_ns", 0.0),
        "schedule.check_calls": counts.get("schedule.check_calls", 0),
        "schedule.check_s": span.get("schedule.check", 0.0),
        "schedule.check_rejects": counts.get("schedule.check_rejects", 0),
        "scenarios.specs": counts.get("scenarios.specs", 0),
        "scenarios.enumerate_s": span.get("scenarios.enumerate", 0.0),
        "scenarios.apply_s": span.get("scenarios.apply", 0.0),
        "scenarios.evaluate_s": span.get("scenarios.evaluate", 0.0),
        "scenarios.negative_delta_rows": sum(
            1 for r in traced["rows"]
            if r["delta_pct"] is not None and r["delta_pct"] < 0),
        "scenarios.infeasible_rows": sum(
            1 for r in traced["rows"] if r["latency"] is None),
        "cli.write_s": span.get("cli.write", 0.0),
        "trace.overhead_s": (traced["wall_s"] - traced["seed_call_s"]
                             - statistics.median(r["wall_s"] for r in runs)),
    }
    return metrics


def host_record(args, spec: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "budgets": {"budget_nodes": spec["budget_nodes"],
                    "scenario_budget_nodes": spec["scenario_budget_nodes"],
                    "mode": spec["mode"]},
        "measured": ("only the benchmark's own processes, with "
                     "time.perf_counter, time.process_time and "
                     "resource.getrusage; no system-wide tracing"),
    }


# -- measurement --------------------------------------------------------------

def measure(args, spec: dict, work: Path) -> tuple[dict, dict]:
    manifest = generate_inputs(spec, args.seed, work / "inputs")
    unused = work / "setup-out"

    traced_out = work / "out-traced"
    traced, _ = run_worker("trace" if args.trace else "outcomes", manifest,
                           traced_out, work)
    traced_csv = read_csv(traced_out)

    setup_times: list[float] = []
    runs: list[dict] = []
    csvs: list[str | None] = []
    start = time.perf_counter()
    while (len(runs) < MIN_RUNS
           or time.perf_counter() - start < args.seconds):
        setup_times.append(run_worker("setup", manifest, unused, work)[1])
        out_dir = work / f"out-{len(runs)}"
        result, _ = run_worker("run", manifest, out_dir, work)
        runs.append(result)
        csvs.append(read_csv(out_dir))
    while len(setup_times) < SETUP_REPS:
        setup_times.append(run_worker("setup", manifest, unused, work)[1])

    profile = None
    if args.trace:
        profile, _ = run_worker("profile", manifest, work / "out-profile",
                                work)

    if any(csv != csvs[0] for csv in csvs) or traced_csv != csvs[0]:
        raise BenchmarkError("scenario CSVs differ between the untimed runs "
                             "and the traced run")

    from ddtwin.diagnostics import DiagnosticError
    from ddtwin.scenarios import parse_scenario_csv
    exits = [r["exit"] for r in runs] + [traced["exit"]]
    problem = f"ddtwin scenarios exited {exits}" if any(exits) else None
    parsed = []
    if traced_csv is not None:
        try:
            parsed = parse_scenario_csv(traced_csv, 0)
        except DiagnosticError as exc:
            problem = f"scenarios.csv does not parse: {exc}"
    attempted = max(1, len(parsed), traced["counts"].get("scenarios.specs", 0))
    if problem is not None:
        verdict = {"failed": {"run": [problem]}, "broken": {}}
        failed = bad = attempted
    else:
        verdict = judge_rows(spec, traced, parsed)
        failed = len(verdict["failed"])
        bad = len(set(verdict["failed"]) | set(verdict["broken"]))

    record = {
        "host": host_record(args, spec),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "rows_failed": verdict["failed"],
        "rows_breaking_invariants": verdict["broken"],
        "end_to_end": end_to_end_metrics(setup_times, runs, traced,
                                         attempted, bad),
        "per_layer": per_layer_metrics(runs, traced, attempted, bad),
        "samples": {"setup_s": setup_times,
                    "wall_s": [r["wall_s"] for r in runs],
                    "cpu_s": [r["cpu_s"] for r in runs],
                    "peak_rss_kb": [r["peak_rss_kb"] for r in runs]},
        "solves": traced["solver"]["statuses"],
        "missing_wrappers": traced["missing"],
        "spans": traced["spans"],
        "profile": profile,
    }
    kind = "per_layer" if args.trace else "end_to_end"
    declared = json.loads(BENCHMARK.read_text())[kind]
    result = {"correct": record["correct"], "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": record[kind][m["name"]],
                                      "unit": m["unit"]} for m in declared}}
    return result, record


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="how long to repeat the untimed run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "ddtwin" / "cli.py").is_file():
        print(f"error: no ddtwin sources under {SRC}; run from the root of "
              f"a ddtwin checkout", file=sys.stderr)
        return 2
    workloads = json.loads(WORKLOADS.read_text())["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(workloads))}", file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    sys.path.insert(0, str(SRC))

    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        result, record = measure(args, spec, work)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / (f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{result['attempted']} rows, {result['failed']} failed, "
          f"correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
