"""End-to-end checks for the ddtwin command line driver.

Every test drives cli.main() in process with flag-style argv and captures
stdout/stderr, asserting on exit codes and the exact artifacts written;
one runs it in a fresh interpreter, to see what a run imports.
Exit code contract: 0 ok, 1 invalid input or an exhausted search budget,
2 proven infeasible, 3 unexpected internal failure; a usage error exits 2
through SystemExit before any command runs.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
import yaml
from hypothesis import given, strategies as st

from ddtwin import cli, scenarios
from ddtwin.diagnostics import DiagnosticError
from ddtwin.graph import graph_to_json
from ddtwin.solver import solve_best_case
from conftest import add_scenario_file, exactly


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# Four independent jobs, two cores, a 150-cycle slot, and zero start lag:
# at least two jobs must queue on one core, so the deployment is
# infeasible, but a 1-node budget stops the search before it can say so.
# The jobs are interchangeable, so the search places them in one order
# only and proves infeasibility within 3 nodes.
_FLOW = textwrap.dedent("""\
    Flow manyJobs
      tin : stream {type = in}

    ob : stream[4]
    job[i = 1:4, t_in = tin, o_out = ob[i]]
""")

_SDK = textwrap.dedent("""\
    apiVersion: rdsl/v0
    kind: SDK
    metadata:
      name: job
    spec:
      available patterns:
      - pipeline.c_0.L3_0
      - pipeline.c_1.L3_0
      elementsize: 100
      internalsize: 1000
      runtime: 100
""")

_TOPOLOGY = textwrap.dedent("""\
    memories:
      - {id: c0.l2, level: L2, capacity: 2097152}
      - {id: c1.l2, level: L2, capacity: 2097152}
      - {id: L3_0, level: L3, capacity: 50331648}
      - {id: DDR_0, level: DDR, capacity: 8589934592}
    cores:
      - {id: 0, l2: c0.l2, l3: L3_0}
      - {id: 1, l2: c1.l2, l3: L3_0}
""")

_MANIFEST = textwrap.dedent("""\
    apiVersion: rdsl/v0
    kind: run
    metadata: {name: pressure}
    spec:
      flows: [flow.rdsl]
      constraints: [sdk.yaml]
      topology: topology.yaml
      deployment: deployment.yaml
      out: out
      solver: {budget_nodes: %d}
""")


def write_pressure_fixture(root, budget_nodes):
    (root / "flow.rdsl").write_text(_FLOW)
    (root / "sdk.yaml").write_text(_SDK)
    (root / "topology.yaml").write_text(_TOPOLOGY)
    (root / "deployment.yaml").write_text(
        "entry_flow: manyJobs\nslot_budget: 150\nmax_start_lag: 0\n")
    (root / "manifest.yaml").write_text(_MANIFEST % budget_nodes)
    return root / "manifest.yaml"


# -- validate ---------------------------------------------------------------

def test_validate_trivial_deployment(trivial_dir):
    code, out, err = run(["validate", "--manifest",
                          str(trivial_dir / "manifest.yaml")])
    assert (code, err) == (0, "")
    assert out == "ok: 1 tasks, 0 buffers, 4 patterns\n"


def test_validate_bundled_channel_estimator(paper_dir):
    code, out, err = run(["validate", "--manifest",
                          str(paper_dir / "manifest.yaml")])
    assert (code, err) == (0, "")
    assert out == "ok: 10 tasks, 18 buffers, 16 patterns\n"


@pytest.mark.parametrize("edit,stderr", [
    # every memory holds at most 8589934592 bytes
    (("sdk.yaml", "elementsize: 100", "elementsize: 9000000000"),
     "".join(f"error: guaranteed_overflow: buffer 'ob[{i}]' (9000000000 bytes) "
             f"exceeds every memory capacity (max 8589934592)\n" for i in range(1, 5))),
    (("flow.rdsl", "ob : stream[4]", "ob : stream[4]\nlone : stream\njob[o_out = lone]"),
     "error: unreachable: task 'job' has no path from any input\n"),
], ids=["guaranteed_overflow", "unreachable"])
def test_validate_exits_1_on_a_static_finding(tmp_path, edit, stderr):
    manifest = write_pressure_fixture(tmp_path, 200_000)
    name, old, new = edit
    (tmp_path / name).write_text((tmp_path / name).read_text().replace(old, new))
    assert run(["validate", "--manifest", str(manifest)]) == (1, "", stderr)


def test_validate_refuses_a_misspelled_stream_attribute_where_it_is(
        trivial_dir, tmp_path):
    # read as a default, {tpye = in} made the port an output and failed as
    # a slot that nothing defines, two lines below
    shutil.copytree(trivial_dir, tmp_path / "t",
                    ignore=shutil.ignore_patterns("out*"))
    flow = tmp_path / "t" / "flow.rdsl"
    flow.write_text(flow.read_text().replace("type = in", "tpye = in"))
    assert run(["validate", "--manifest", str(tmp_path / "t" / "manifest.yaml")]) \
        == (1, "", "3:17: error: unknown stream attribute 'tpye' "
                   "(expected 'type' or 'label')\n")


def test_validate_rejects_pattern_missing_from_catalog(tmp_path):
    manifest = write_pressure_fixture(tmp_path, 200_000)
    (tmp_path / "sdk.yaml").write_text(
        _SDK.replace("pipeline.c_1.L3_0", "warp.c_0"))
    code, out, err = run(["validate", "--manifest", str(manifest)])
    assert (code, out) == (1, "")
    assert "function 'job' lists pattern 'warp.c_0'" in err
    assert "not in the catalog" in err


def test_validate_refuses_deep_flow_nesting_with_a_diagnostic(tmp_path):
    # 1,200 nested flows: a diagnostic and exit 1, not a RecursionError
    manifest = write_pressure_fixture(tmp_path, 200_000)
    parts = ["Flow manyJobs\n  tin : stream {type = in}\n\nf1[s = tin]\n"]
    parts += [f"Flow f{k}\n  s : stream\n\nf{k + 1}[s = s]\n"
              for k in range(1, 1200)]
    parts.append("Flow f1200\n  s : stream\n\nob : stream\n"
                 "job[t_in = s, o_out = ob]\n")
    (tmp_path / "flow.rdsl").write_text("\n".join(parts))
    code, out, err = run(["validate", "--manifest", str(manifest)])
    assert (code, out) == (1, "")
    assert err == ("1279:1: error: instantiation of 'f256' nests "
                   "flows more than 256 levels deep\n")


def test_validate_rejects_catalog_memory_missing_from_topology(paper_dir,
                                                              tmp_path):
    shutil.copytree(paper_dir, tmp_path / "paper", ignore=shutil.ignore_patterns("out"))
    catalog = tmp_path / "paper" / "patterns.xml"
    entry = ('<pattern name="L2toL2.c_0.L3_0.accL3_0">\n'
             '    <defining_memory>c0.l2</defining_memory>')
    catalog.write_text(catalog.read_text().replace(
        entry, entry.replace("c0.l2", "c9.l2")))
    code, out, err = run(["validate", "--manifest",
                          str(tmp_path / "paper" / "manifest.yaml")])
    assert (code, out) == (1, "")
    assert err == ("1:1: error: pattern 'L2toL2.c_0.L3_0.accL3_0' names memory "
                   "'c9.l2', which the topology does not define\n")


def test_validate_rejects_unused_record_naming_missing_pattern(tmp_path):
    # no task runs 'idle', but its record is still checked against the
    # catalog, once
    manifest = write_pressure_fixture(tmp_path, 200_000)
    (tmp_path / "sdk.yaml").write_text(
        _SDK + "---\n" + _SDK.replace("name: job", "name: idle")
        .replace("pipeline.c_1.L3_0", "pipeline.c_9.L3_0"))
    code, out, err = run(["validate", "--manifest", str(manifest)])
    assert (code, out) == (1, "")
    assert err.count("function 'idle' lists pattern 'pipeline.c_9.L3_0'") \
        == 1


@pytest.mark.parametrize("command", ["validate", "scenarios"])
def test_pin_to_a_core_the_topology_lacks_exits_1(paper_dir, tmp_path, command):
    # a pin to a core outside a task's own allowed cores is an infeasible
    # scenario, but a core that does not exist is a mistake in the input
    shutil.copytree(paper_dir, tmp_path / "paper", ignore=shutil.ignore_patterns("out"))
    (tmp_path / "paper" / "pin.yaml").write_text(yaml.safe_dump({
        "apiVersion": "rdsl/v0", "kind": "scenario",
        "metadata": {"name": "pin-far"},
        "spec": {"injections": [{"kind": "PIN_TASKS", "cores": [3, 99],
                                 "targets": ["sendSrsChest_to_MAC_flow"]}]}}))
    manifest = tmp_path / "paper" / "manifest.yaml"
    manifest.write_text(manifest.read_text().replace(
        "  out: out\n", "  out: out\n  scenario_files: [pin.yaml]\n"))
    code, out, err = run([command, "--manifest", str(manifest),
                          "--out", str(tmp_path / "out")])
    assert (code, out) == (1, "")
    assert err == ("1:1: error: scenario 'pin-far' pins tasks to core 99, "
                   "which the topology does not define\n")
    assert not (tmp_path / "out" / "scenarios.csv").exists()


@pytest.mark.parametrize("injection, message", [
    ({"kind": "START_LAG", "value": -1},
     "START_LAG requires a non-negative cycle cap"),
    ({"kind": "PIN_TASKS", "cores": [], "targets": ["measureBlock"]},
     "PIN_TASKS requires a non-empty core set"),
    ({"kind": "PIN_TASKS", "cores": [0], "targets": ["nothere"]},
     "injection target 'nothere' matches no task, function, or task-id "
     "prefix in the graph"),
], ids=["negative-lag", "no-cores", "unmatched-target"])
def test_validate_refuses_what_scenarios_refuses_and_names_the_scenario(
        trivial_dir, tmp_path, injection, message):
    shutil.copytree(trivial_dir, tmp_path / "trivial",
                    ignore=shutil.ignore_patterns("out*"))
    (tmp_path / "trivial" / "bad.yaml").write_text(yaml.safe_dump({
        "apiVersion": "rdsl/v0", "kind": "scenario",
        "metadata": {"name": "bad-one"}, "spec": {"injections": [injection]}}))
    manifest = tmp_path / "trivial" / "manifest.yaml"
    manifest.write_text(manifest.read_text() + "  scenario_files: [bad.yaml]\n")
    code, out, err = run(["validate", "--manifest", str(manifest)])
    assert (code, out) == (1, "")
    assert err == f"1:1: error: scenario 'bad-one': {message}\n"
    code, out, err = run(["scenarios", "--manifest", str(manifest),
                          "--out", str(tmp_path / "out")])
    assert (code, out) == (1, "")
    assert err == f"1:1: error: scenario 'bad-one': {message}\n"


# -- solve ------------------------------------------------------------------

def test_solve_trivial_writes_schedule_and_summary(trivial_dir, tmp_path):
    code, out, err = run(["solve", "--manifest",
                          str(trivial_dir / "manifest.yaml"),
                          "--out", str(tmp_path)])
    assert (code, err) == (0, "")
    assert out == ("status: optimal\n"
                   "makespan: 7,200 / 1,000,000 = 0.01 of slot\n"
                   "core 0: 100.0% busy (1 tasks)\n")
    assert (tmp_path / "solve_summary.txt").read_text() == out
    dumped = json.loads((tmp_path / "schedule.json").read_text())
    assert dumped["status"] == "optimal"
    assert dumped["makespan"] == 7200
    assert dumped["schedule"]["assignments"]["measureBlock"] \
        == {"core": 0, "start": 0}


def test_solve_heuristic_mode_forfeits_optimality(trivial_dir, tmp_path):
    code, out, err = run(["solve", "--manifest",
                          str(trivial_dir / "manifest.yaml"),
                          "--out", str(tmp_path), "--mode", "heuristic"])
    assert (code, err) == (0, "")
    assert out.startswith("status: feasible\n")
    assert "makespan: 7,200" in out


def test_solve_proven_infeasible_exits_2(trivial_dir, tmp_path):
    code, out, err = run(["solve", "--manifest",
                          str(trivial_dir / "manifest_tight.yaml"),
                          "--out", str(tmp_path)])
    assert (code, err) == (2, "")
    assert out == "status: infeasible\nwitness: DEADLINE_MISS\n"
    # the verdict is still dumped for downstream tooling
    assert json.loads((tmp_path / "schedule.json").read_text())["status"] \
        == "infeasible"


def test_solve_exhausted_budget_exits_1_not_2(tmp_path):
    # An undecided search must never masquerade as a proof either way.
    manifest = write_pressure_fixture(tmp_path, 1)
    code, out, err = run(["solve", "--manifest", str(manifest)])
    assert (code, out) == (1, "")
    assert "search budget exhausted before reaching a verdict" in err
    assert "raise solver.budget_nodes" in err
    assert not (tmp_path / "out").exists()


def test_solve_interchangeable_jobs_prove_infeasible_within_3_nodes(tmp_path):
    # the four jobs are placed in id order only, so 3 nodes settle it
    manifest = write_pressure_fixture(tmp_path, 3)
    code, out, err = run(["solve", "--manifest", str(manifest)])
    assert (code, err) == (2, "")
    assert out == "status: infeasible\nwitness: DEADLINE_MISS\n"


def test_solve_heuristic_without_a_schedule_asks_for_exact_mode(tmp_path):
    # heuristic mode runs no search, so no node budget ran out
    manifest = write_pressure_fixture(tmp_path, 200_000)
    code, out, err = run(["solve", "--manifest", str(manifest),
                          "--mode", "heuristic"])
    assert (code, out) == (1, "")
    assert "greedy seed found no schedule" in err
    assert "only exact mode can reach a verdict" in err
    assert "budget" not in err


def test_solve_same_fixture_with_real_budget_proves_infeasible(tmp_path):
    manifest = write_pressure_fixture(tmp_path, 200_000)
    code, out, err = run(["solve", "--manifest", str(manifest)])
    assert (code, err) == (2, "")
    assert out.startswith("status: infeasible\n")


# -- elaborate --------------------------------------------------------------

def test_elaborate_dump_round_trips(paper_dir, tmp_path):
    manifest = paper_dir / "manifest.yaml"
    code, out, err = run(["elaborate", "--manifest", str(manifest),
                          "--out", str(tmp_path)])
    assert (code, err) == (0, "")
    assert out == (f"elaborated 10 tasks, 18 buffers, deadline 1,000,000 "
                   f"-> {tmp_path / 'graph.json'}\n")
    loaded = cli.load_run(cli.load_run_manifest(manifest))
    assert (tmp_path / "graph.json").read_text() == \
        graph_to_json(cli.build_graph(loaded))


def test_elaborate_dump_carries_the_deployment_lag_cap(tmp_path):
    manifest = write_pressure_fixture(tmp_path, 200_000)
    code, _, err = run(["elaborate", "--manifest", str(manifest)])
    assert (code, err) == (0, "")
    dumped = json.loads((tmp_path / "out" / "graph.json").read_text())
    assert dumped["max_start_lag"] == 0


# -- scenarios --------------------------------------------------------------

def test_scenarios_trivial_writes_csv_and_table(trivial_dir, tmp_path):
    code, out, err = run(["scenarios", "--manifest",
                          str(trivial_dir / "manifest.yaml"),
                          "--out", str(tmp_path)])
    assert (code, err) == (0, "")
    csv = (tmp_path / "scenarios.csv").read_text()
    assert csv.splitlines()[0] == "strategy,latency_cycles,delta_pct,risk"
    assert csv.splitlines()[1].startswith("baseline,7200,")
    table = (tmp_path / "scenarios.txt").read_text()
    assert out.startswith(table)
    assert "note: baseline: not recommended" in out


def test_scenarios_infeasible_baseline_exits_2(tmp_path):
    manifest = write_pressure_fixture(tmp_path, 200_000)
    code, out, err = run(["scenarios", "--manifest", str(manifest)])
    assert (code, out) == (2, "")
    assert err == "baseline infeasible: DEADLINE_MISS\n"


def test_scenarios_undecided_baseline_exits_1(tmp_path):
    manifest = write_pressure_fixture(tmp_path, 1)
    code, out, err = run(["scenarios", "--manifest", str(manifest)])
    assert (code, out) == (1, "")
    assert "baseline search budget exhausted" in err


def test_scenarios_heuristic_baseline_without_a_schedule_exits_1(tmp_path):
    manifest = write_pressure_fixture(tmp_path, 200_000)
    code, out, err = run(["scenarios", "--manifest", str(manifest),
                          "--mode", "heuristic"])
    assert (code, out) == (1, "")
    assert "baseline greedy seed found no schedule" in err
    assert "only exact mode can reach a verdict" in err
    assert "budget" not in err


@pytest.mark.parametrize("run_manifest", ["manifest.yaml",
                                          "manifest_tight.yaml"])
def test_scenarios_refuses_every_bad_spec_before_any_solve(
        trivial_dir, tmp_path, monkeypatch, run_manifest):
    # a refusal exits 1 even where the baseline would be infeasible
    shutil.copytree(trivial_dir, tmp_path / "trivial",
                    ignore=shutil.ignore_patterns("out*"))
    manifest = tmp_path / "trivial" / run_manifest
    add_scenario_file(
        manifest,
        ("lag-ok", [{"kind": "START_LAG", "value": 0}]),
        ("pin-nowhere", [{"kind": "PIN_TASKS", "cores": [0],
                          "targets": ["nothere"]}]),
        ("lag-negative", [{"kind": "START_LAG", "value": -1}]))
    solves = []

    def counting_solve(*args, **kwargs):
        solves.append(args)
        return solve_best_case(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_best_case", counting_solve)
    monkeypatch.setattr(scenarios, "solve_best_case", counting_solve)
    code, out, err = run(["scenarios", "--manifest", str(manifest),
                          "--out", str(tmp_path / "out")])
    assert (code, out) == (1, "")
    assert err == (
        "1:1: error: scenario 'pin-nowhere': injection target 'nothere' "
        "matches no task, function, or task-id prefix in the graph\n"
        "1:1: error: scenario 'lag-negative': START_LAG requires a "
        "non-negative cycle cap\n")
    assert not (tmp_path / "out" / "scenarios.csv").exists()
    assert solves == []
    assert run(["validate", "--manifest", str(manifest)]) == (code, out, err)


_PAIR_FLOW = textwrap.dedent("""\
    Flow pair
      tin : stream {type = in}

    ob : stream[2]
    job[i = 1:2, t_in = tin, o_out = ob[i]]
""")


def test_scenarios_exhausted_row_budget_names_the_key_that_governs_it(
        tmp_path):
    # two jobs that may only run on core 0: the baseline queues one behind
    # the other, but a START_LAG 0 row may not, and one node cannot tell
    write_pressure_fixture(tmp_path, 200_000)
    (tmp_path / "flow.rdsl").write_text(_PAIR_FLOW)
    (tmp_path / "sdk.yaml").write_text(
        _SDK.replace("  - pipeline.c_1.L3_0\n", ""))
    (tmp_path / "deployment.yaml").write_text(
        "entry_flow: pair\nslot_budget: 1000\n")
    manifest = tmp_path / "manifest.yaml"
    manifest.write_text(manifest.read_text().replace(
        "{budget_nodes: 200000}", "{scenario_budget_nodes: 1}"))
    add_scenario_file(manifest, ("lag0", [{"kind": "START_LAG", "value": 0}]))
    code, out, err = run(["scenarios", "--manifest", str(manifest)])
    assert (code, out) == (1, "")
    assert "scenario 'lag0': search ran out of node budget" in err
    assert "raise solver.scenario_budget_nodes" in err


def test_scenarios_refuses_a_name_two_specs_share(trivial_dir, tmp_path,
                                                  monkeypatch):
    # a row is known by its name: a file's `baseline` would sit beside the
    # enumerated one, and two `lag` rows would be told apart by nothing
    shutil.copytree(trivial_dir, tmp_path / "trivial",
                    ignore=shutil.ignore_patterns("out*"))
    manifest = tmp_path / "trivial" / "manifest.yaml"
    add_scenario_file(
        manifest,
        ("baseline", [{"kind": "TIGHTEN_DEADLINE", "value": 7000}]),
        ("lag", [{"kind": "START_LAG", "value": 0}]),
        ("lag", [{"kind": "START_LAG", "value": 100}]))
    solves = []

    def counting_solve(*args, **kwargs):
        solves.append(args)
        return solve_best_case(*args, **kwargs)

    monkeypatch.setattr(scenarios, "solve_best_case", counting_solve)
    code, out, err = run(["scenarios", "--manifest", str(manifest),
                          "--out", str(tmp_path / "out")])
    assert (code, out) == (1, "")
    assert err == (
        "1:1: error: scenario 'lag': an earlier scenario has this name\n"
        "1:1: error: scenario 'baseline': an earlier scenario has this name\n")
    assert not (tmp_path / "out" / "scenarios.csv").exists()
    assert solves == []
    assert run(["validate", "--manifest", str(manifest)]) == (code, out, err)


@pytest.mark.parametrize("command", ["validate", "scenarios"])
def test_a_file_spec_named_like_a_family_is_refused_by_both_commands(
        trivial_dir, tmp_path, command):
    # validate checks the file specs together with the enumerated families
    shutil.copytree(trivial_dir, tmp_path / "trivial",
                    ignore=shutil.ignore_patterns("out*"))
    manifest = tmp_path / "trivial" / "manifest.yaml"
    add_scenario_file(
        manifest, ("baseline", [{"kind": "TIGHTEN_DEADLINE", "value": 7000}]))
    code, out, err = run([command, "--manifest", str(manifest),
                          "--out", str(tmp_path / "out")])
    assert (code, out) == (1, "")
    assert err == ("1:1: error: scenario 'baseline': an earlier scenario "
                   "has this name\n")
    assert not (tmp_path / "out").exists()


def test_scenarios_rerun_is_byte_identical(du_runs):
    first, second = du_runs
    assert first["exit"] == second["exit"] == 0
    assert first["csv"] == second["csv"]
    assert first["table"] == second["table"]


# -- report -----------------------------------------------------------------

_CSV_A = ("strategy,latency_cycles,delta_pct,risk\n"
          "baseline,1000,0,LOW\n"
          "evict-x,1800,80,HIGH\n")
_CSV_B = ("strategy,latency_cycles,delta_pct,risk\n"
          "baseline,1000,0,LOW\n"
          "lag-cap-5,INFEASIBLE,,CERTAIN_FAILURE\n")


def report_fixture(tmp_path):
    manifest = write_pressure_fixture(tmp_path, 200_000)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "a.csv").write_text(_CSV_A)
    (out_dir / "b.csv").write_text(_CSV_B)
    return manifest, out_dir


def test_report_merges_and_ranks(tmp_path):
    manifest, out_dir = report_fixture(tmp_path)
    code, out, err = run(["report", "--manifest", str(manifest)])
    assert (code, err) == (0, "")
    assert out == (f"merged 2 files, 3 scenarios -> "
                   f"{out_dir / 'report.csv'}\n")
    # shared baseline row deduplicates; certain failures rank first
    assert (out_dir / "report.csv").read_text() == (
        "strategy,latency_cycles,delta_pct,risk\n"
        "lag-cap-5,INFEASIBLE,,CERTAIN_FAILURE\n"
        "evict-x,1800,80,HIGH\n"
        "baseline,1000,0,LOW\n")


def test_report_ignores_its_own_output_on_rerun(tmp_path):
    manifest, out_dir = report_fixture(tmp_path)
    assert run(["report", "--manifest", str(manifest)])[0] == 0
    first = (out_dir / "report.csv").read_text()
    code, out, err = run(["report", "--manifest", str(manifest)])
    assert (code, err) == (0, "")
    assert out.startswith("merged 2 files, 3 scenarios")
    assert (out_dir / "report.csv").read_text() == first


def test_report_rejects_conflicting_latencies(tmp_path):
    manifest, out_dir = report_fixture(tmp_path)
    (out_dir / "c.csv").write_text(
        "strategy,latency_cycles,delta_pct,risk\n"
        "evict-x,1900,90,HIGH\n")
    code, out, err = run(["report", "--manifest", str(manifest)])
    assert (code, out) == (1, "")
    assert "conflicting latencies for scenario 'evict-x'" in err


@pytest.mark.parametrize("row", ["evict-x,1800,81,HIGH",
                                 "evict-x,1800,80,MODERATE"])
def test_report_rejects_rows_that_agree_only_in_latency(tmp_path, row):
    manifest, out_dir = report_fixture(tmp_path)
    (out_dir / "c.csv").write_text(
        f"strategy,latency_cycles,delta_pct,risk\n{row}\n")
    code, out, err = run(["report", "--manifest", str(manifest)])
    assert (code, out) == (1, "")
    assert err == ("1:1: error: conflicting rows for scenario 'evict-x' "
                   "across result files\n")


def test_report_requires_at_least_one_csv(tmp_path):
    manifest = write_pressure_fixture(tmp_path, 200_000)
    code, out, err = run(["report", "--manifest", str(manifest)])
    assert (code, out) == (1, "")
    assert "no scenario CSV files found" in err


# -- exit code mapping ------------------------------------------------------

def test_missing_manifest_exits_1(tmp_path):
    missing = tmp_path / "m.yaml"
    code, out, err = run(["solve", "--manifest", str(missing)])
    assert (code, out) == (1, "")
    assert err == f"1:1: error: manifest '{missing}' does not exist\n"


def test_missing_input_file_exits_1(tmp_path):
    manifest = write_pressure_fixture(tmp_path, 3)
    (tmp_path / "flow.rdsl").unlink()
    code, out, err = run(["validate", "--manifest", str(manifest)])
    assert (code, out) == (1, "")
    assert f"input file '{tmp_path / 'flow.rdsl'}' does not exist" in err


def test_unexpected_failure_exits_3(tmp_path, monkeypatch):
    manifest = write_pressure_fixture(tmp_path, 3)

    def broken_solver(*args):
        raise RuntimeError("solver bug")

    monkeypatch.setattr(cli, "solve_best_case", broken_solver)
    code, out, err = run(["solve", "--manifest", str(manifest)])
    assert (code, out) == (3, "")
    assert err == "internal error: RuntimeError: solver bug\n"


def test_non_integer_deployment_symbol_exits_1(tmp_path):
    manifest = write_pressure_fixture(tmp_path, 3)
    (tmp_path / "deployment.yaml").write_text(
        "entry_flow: manyJobs\nslot_budget: 150\nsymbols: {N: four}\n")
    code, out, err = run(["solve", "--manifest", str(manifest)])
    assert (code, out) == (1, "")
    assert err == ("1:1: error: deployment symbols: 'N' must be an integer, "
                   "got 'four'\n")


# -- command line -----------------------------------------------------------

_USAGE = ("usage: ddtwin {validate,elaborate,solve,scenarios,report} "
          "--manifest PATH [--out DIR] [--mode {exact,heuristic}]\n")
_COMMAND_LIST = "validate, elaborate, solve, scenarios, report"


@pytest.mark.parametrize("argv,message", [
    ([], f"the command must be one of {_COMMAND_LIST}"),
    (["frobnicate", "--manifest", "x.yaml"],
     f"the command must be one of {_COMMAND_LIST}, got 'frobnicate'"),
    (["--manifest", "x.yaml", "solve"],
     f"the command must be one of {_COMMAND_LIST}, got '--manifest'"),
    (["solve"], "option --manifest is required"),
    (["solve", "--manifest", "x.yaml", "--budget", "5"],
     "option --budget not recognized"),
    (["solve", "--manifest", "x.yaml", "-x"], "option -x not recognized"),
    (["solve", "--manifest"], "option --manifest requires argument"),
    (["solve", "--m", "x.yaml"], "option --m not a unique prefix"),
    (["solve", "--manifest", "x.yaml", "--mode", "fast"],
     "option --mode must be one of exact, heuristic, got 'fast'"),
    (["solve", "--manifest", "x.yaml", "extra"], "unexpected argument 'extra'"),
], ids=["no-command", "unknown-command", "option-first", "no-manifest",
        "unknown-option", "unknown-short-option", "no-value", "ambiguous-prefix",
        "bad-mode", "stray-argument"])
def test_usage_errors_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"{_USAGE}ddtwin: error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["solve", "-h"], ["report", "--manifest", "x", "--he"],
])
def test_help_exits_0_and_lists_every_command(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert (out.startswith(_USAGE), err) == (True, "")
    commands = [line.split()[0] for line in
                out.split("\ncommands:\n")[1].split("\n\n")[0].splitlines()]
    assert commands == _COMMAND_LIST.split(", ")
    for flag in ("--manifest PATH", "--out DIR", "--mode MODE", "-h, --help"):
        assert f"\n  {flag}  " in out


@pytest.mark.parametrize("argv,seen", [
    (["--manifest=m.yaml"], ("m.yaml", None, None)),
    (["--man", "m.yaml"], ("m.yaml", None, None)),
    (["--manifest", "m.yaml", "--out", "o", "--mode", "heuristic"],
     ("m.yaml", "o", "heuristic")),
    # any order, any unique prefix; a repeated option keeps its last value
    (["--mo=exact", "--o=o", "--manifest", "a.yaml", "--manifest", "m.yaml"],
     ("m.yaml", "o", "exact")),
])
def test_flags_reach_the_manifest_loader(argv, seen, monkeypatch):
    calls = []

    def loader(path, out=None, mode=None):
        calls.append((path, out, mode))
        raise DiagnosticError([])

    monkeypatch.setattr(cli, "load_run_manifest", loader)
    assert run(["validate", *argv]) == (1, "", "")
    assert calls == [seen]


def test_a_run_imports_nothing_after_the_cli_module(trivial_dir, tmp_path):
    """Everything a command needs comes in with ``ddtwin.cli``, so no
    import lands inside a run that starts after it."""
    probe = textwrap.dedent("""\
        import contextlib, io, sys
        from ddtwin import cli
        before = set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["scenarios", "--manifest", sys.argv[1],
                             "--out", sys.argv[2]])
        print(code, sorted(set(sys.modules) - before))
    """)
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(trivial_dir / "manifest.yaml"),
         str(tmp_path)], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    assert (proc.stdout, proc.stderr) == ("0 []\n", "")


def test_outputs_take_the_mode_the_umask_gives_a_new_file(trivial_dir,
                                                           tmp_path):
    for umask, mode in ((0o022, 0o644), (0o027, 0o640)):
        out = tmp_path / oct(umask)
        old = os.umask(umask)
        try:
            code, _, _ = run(["scenarios", "--manifest",
                              str(trivial_dir / "manifest.yaml"),
                              "--out", str(out)])
        finally:
            os.umask(old)
        assert code == 0
        for name in ("scenarios.csv", "scenarios.txt"):
            assert (out / name).stat().st_mode & 0o777 == mode, (umask, name)


def test_a_closed_stdout_exits_1_once_every_output_is_written(trivial_dir,
                                                              tmp_path):
    manifest = str(trivial_dir / "manifest.yaml")
    assert run(["scenarios", "--manifest", manifest,
                "--out", str(tmp_path / "open")])[0] == 0
    # a pipe whose read end is closed before the run starts
    read, write = os.pipe()
    os.close(read)
    src = Path(cli.__file__).resolve().parents[1]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ddtwin.cli", "scenarios", "--manifest",
             manifest, "--out", str(tmp_path / "closed")], stdout=write,
            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)},
            text=True, timeout=120)
    finally:
        os.close(write)
    # no "internal error" line, and no "Exception ignored" one at exit
    assert (proc.returncode, proc.stderr) == (1, "")
    for name in ("scenarios.csv", "scenarios.txt"):
        assert ((tmp_path / "closed" / name).read_text()
                == (tmp_path / "open" / name).read_text())


# -- manifest loading -------------------------------------------------------

_RUN_SPEC = ("apiVersion: rdsl/v0\nkind: run\nspec:\n  flows: [f]\n"
             "  constraints: [c]\n  topology: t\n  deployment: d\n")


@pytest.mark.parametrize("text,message", [
    ("- just\n- a list\n", "is not a mapping"),
    ("apiVersion: rdsl/v9\nkind: run\nspec: {}\n", "apiVersion"),
    ("apiVersion: rdsl/v0\nkind: walk\nspec: {}\n", "expected kind 'run'"),
    ("apiVersion: rdsl/v0\nkind: run\nspec: [a]\n", "spec must be a mapping"),
    ("apiVersion: rdsl/v0\nkind: run\nspec:\n  flows: []\n",
     "spec.flows must list at least one path"),
    ("apiVersion: rdsl/v0\nkind: run\nspec:\n  flows: [f]\n"
     "  constraints: [c]\n  topology: t\n  deployment: d\n"
     "  solver: {mode: anneal}\n",
     "solver mode must be 'exact' or 'heuristic'"),
    (_RUN_SPEC + "  solver: {budget_nodes: lots}\n",
     "spec.solver.budget_nodes must be an integer, got 'lots'"),
    (_RUN_SPEC + "  solver: {budget_nodes: true}\n",
     "spec.solver.budget_nodes must be an integer, got True"),
    (_RUN_SPEC + "  solver: {scenario_budget_nodes: [1]}\n",
     "spec.solver.scenario_budget_nodes must be an integer"),
    (_RUN_SPEC + "  solver: {budget_nodes: -5}\n",
     "spec.solver.budget_nodes must be at least 1, got -5"),
    (_RUN_SPEC + "  solver: {scenario_budget_nodes: 0}\n",
     "spec.solver.scenario_budget_nodes must be at least 1, got 0"),
    (_RUN_SPEC + "  solver: 5\n", "spec.solver must be a mapping, got 5"),
    (_RUN_SPEC.replace("  topology: t\n", ""),
     exactly(1, 1, "run manifest spec.topology is required")),
    # a path list is a list, even of one path
    (_RUN_SPEC.replace("[f]", "a.rdsl"),
     exactly(1, 1, "run manifest spec.flows must be a string list, "
                   "got 'a.rdsl'")),
])
def test_manifest_rejects_malformed_documents(tmp_path, text, message):
    path = tmp_path / "manifest.yaml"
    path.write_text(text)
    with pytest.raises(DiagnosticError, match=message):
        cli.load_run_manifest(path)


def test_manifest_ignores_retired_scenario_and_risk_sections(tmp_path):
    # scenario and risk settings are constants now; an older manifest that
    # still carries them, even malformed, loads like one without them
    plain = tmp_path / "plain.yaml"
    plain.write_text(_RUN_SPEC)
    legacy = tmp_path / "legacy.yaml"
    legacy.write_text(_RUN_SPEC + "  scenario: {small_threshold: x}\n"
                      "  risk: 5\n")
    assert cli.load_run_manifest(legacy) == cli.load_run_manifest(plain)


def test_manifest_flag_overrides(paper_dir, tmp_path):
    path = paper_dir / "manifest.yaml"
    loaded = cli.load_run_manifest(path, out=str(tmp_path), mode="heuristic")
    assert (loaded.out, loaded.mode) == (tmp_path, "heuristic")
    defaults = cli.load_run_manifest(path)
    assert defaults.out == paper_dir / "out"
    assert (defaults.mode, defaults.budget_nodes) == ("exact", 200_000)


# -- malformed front-end documents ----------------------------------------

# the pressure fixture's run manifest, topology and deployment with every
# optional section present, as documents to corrupt one value at a time
_DOCS = {
    "manifest.yaml": {
        "apiVersion": "rdsl/v0", "kind": "run", "metadata": {"name": "fuzz"},
        "spec": {"flows": ["flow.rdsl"], "constraints": ["sdk.yaml"],
                 "topology": "topology.yaml",
                 "deployment": "deployment.yaml", "out": "out",
                 "solver": {"mode": "exact", "budget_nodes": 1000,
                            "scenario_budget_nodes": 100}}},
    "topology.yaml": dict(
        yaml.safe_load(_TOPOLOGY),
        pattern_costs={"L2toL2": {"base": 200, "bandwidth": 64}}),
    "deployment.yaml": {
        "entry_flow": "manyJobs", "slot_budget": 150, "max_start_lag": 0,
        "symbols": {"N": 4}, "equation_values": {"E": 1},
        "metadata_files": []},
}


def _paths(doc, at=()):
    yield at
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, at + (key,))


def _validate_with(name, path, value):
    """``ddtwin validate`` on the documents above with the value at
    ``path`` in document ``name`` replaced by ``value``."""
    docs = copy.deepcopy(_DOCS)
    if path:
        *parents, last = path
        node = docs[name]
        for key in parents:
            node = node[key]
        node[last] = value
    else:
        docs[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "flow.rdsl").write_text(_FLOW)
        (root / "sdk.yaml").write_text(_SDK)
        for file, doc in docs.items():
            (root / file).write_text(yaml.safe_dump(doc))
        return run(["validate", "--manifest", str(root / "manifest.yaml")])


def test_uncorrupted_documents_validate():
    # so that a corrupted set fails for its corruption alone
    code, out, err = _validate_with("manifest.yaml", ("kind",), "run")
    assert (code, err) == (0, "")


_ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@given(target=st.sampled_from([(name, path) for name, doc in _DOCS.items()
                               for path in _paths(doc)]),
       value=_ANY_VALUE)
def test_any_corrupted_value_gives_a_diagnostic_not_a_crash(target, value):
    code, out, err = _validate_with(*target, value)
    assert code in (0, 1), err
    assert code == 0 or "error:" in err, err


_WORD = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
_WRONG = {
    "mapping": st.integers().filter(bool) | _WORD
    | st.lists(st.integers(), min_size=1, max_size=3),
    "list": st.integers().filter(bool) | _WORD
    | st.dictionaries(_WORD, st.integers(), min_size=1, max_size=2),
    "paths": st.integers().filter(bool)
    | st.lists(st.integers() | st.none()
               | st.dictionaries(_WORD, st.integers(), max_size=1),
               min_size=1, max_size=3),
    "integer": _WORD | st.sampled_from([float("inf"), float("nan")])
    | st.lists(st.integers(), min_size=1, max_size=3)
    | st.dictionaries(_WORD, st.integers(), min_size=1, max_size=2),
}
_SLOTS = [
    ("manifest.yaml", ("spec",), "mapping"),
    ("manifest.yaml", ("spec", "flows"), "paths"),
    ("manifest.yaml", ("spec", "constraints"), "paths"),
    ("manifest.yaml", ("spec", "solver"), "mapping"),
    ("manifest.yaml", ("spec", "solver", "budget_nodes"), "integer"),
    ("manifest.yaml", ("spec", "solver", "scenario_budget_nodes"), "integer"),
    ("topology.yaml", ("memories",), "list"),
    ("topology.yaml", ("memories", 0), "mapping"),
    ("topology.yaml", ("memories", 0, "capacity"), "integer"),
    ("topology.yaml", ("cores",), "list"),
    ("topology.yaml", ("cores", 1), "mapping"),
    ("topology.yaml", ("cores", 1, "id"), "integer"),
    ("topology.yaml", ("pattern_costs",), "mapping"),
    ("topology.yaml", ("pattern_costs", "L2toL2"), "mapping"),
    ("topology.yaml", ("pattern_costs", "L2toL2", "base"), "integer"),
    ("topology.yaml", ("pattern_costs", "L2toL2", "bandwidth"), "integer"),
    ("deployment.yaml", ("symbols",), "mapping"),
    ("deployment.yaml", ("symbols", "N"), "integer"),
    ("deployment.yaml", ("equation_values",), "mapping"),
    ("deployment.yaml", ("equation_values", "E"), "integer"),
    ("deployment.yaml", ("slot_budget",), "integer"),
    ("deployment.yaml", ("max_start_lag",), "integer"),
    ("deployment.yaml", ("metadata_files",), "list"),
]


@given(slot=st.sampled_from(_SLOTS), data=st.data())
def test_wrong_shaped_or_typed_value_exits_1(slot, data):
    name, path, kind = slot
    value = data.draw(_WRONG[kind], label="value")
    code, out, err = _validate_with(name, path, value)
    assert (code, out) == (1, ""), err
    assert "error:" in err and "internal error" not in err, err


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# mappings whose keys the author names (symbols, equation values, cost
# classes) and the versioned envelope, which every YAML reader shares
_NAMED_KEYS = {("manifest.yaml", ()), ("manifest.yaml", ("metadata",)),
               ("topology.yaml", ("pattern_costs",)),
               ("deployment.yaml", ("symbols",)),
               ("deployment.yaml", ("equation_values",))}


@pytest.mark.parametrize("name, path", [
    pytest.param(name, path, id=":".join([name, *map(str, path)]))
    for name, doc in _DOCS.items() for path in _paths(doc)
    if isinstance(_at(doc, path), dict) and (name, path) not in _NAMED_KEYS])
def test_an_unknown_key_exits_1_and_is_named(name, path):
    mapping = dict(_at(_DOCS[name], path), colour=1)
    code, out, err = _validate_with(name, path, mapping)
    assert (code, out) == (1, ""), err
    assert "has unknown key 'colour'; expected one of " in err, err


def test_an_unknown_key_names_the_keys_it_may_be():
    code, out, err = _validate_with(
        "deployment.yaml", ("max_start_lagg",), 5)
    assert (code, out, err) == (1, "", (
        "1:1: error: deployment has unknown key 'max_start_lagg'; expected "
        "one of entry_flow, symbols, slot_budget, max_start_lag, "
        "metadata_files, equation_values\n"))
