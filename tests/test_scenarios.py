"""What-if machinery: injections, enumeration, ranking, serialization."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import shutil

import pytest
import yaml

from ddtwin import scenarios
from ddtwin.diagnostics import DiagnosticError
from ddtwin.elaborate import elaborate
from ddtwin.flows import SymbolTable, parse_flow_source
from ddtwin.manifests import FunctionMetadata
from ddtwin.patterns import generate_patterns_from_topology
from ddtwin.scenarios import (CSV_HEADER, FLOOR_PCT, HIGH_RISK_PCT,
                              MODERATE_RISK_PCT, Injection, ScenarioResult,
                              ScenarioSpec, apply_injections, apply_scenarios,
                              classify_risk, enumerate_scenarios,
                              evaluate_scenario, latency_delta_pct,
                              parse_scenario_csv, parse_scenario_stream,
                              rank_scenarios, render_scenario_csv,
                              render_scenario_table, resolve_buffer_targets,
                              resolve_task_targets)
from ddtwin.solver import SolveOpts, solve_best_case
from conftest import (add_scenario_file, chain_graph, exactly,
                      make_topology)

TOPO = make_topology(2)
CATALOG = generate_patterns_from_topology(TOPO)
ALL = tuple(p.name for p in CATALOG.patterns)


def md(fn, elementsize=1000):
    return FunctionMetadata(name=fn, available_patterns=ALL,
                            elementsize=elementsize, internalsize=0,
                            runtime=100)


def expand(src, symbols=None, metadata=None):
    return elaborate(parse_flow_source(src), "main",
                     SymbolTable(symbols or {}), metadata, CATALOG)


NESTED = """\
Flow main
    out : stream[N]

sub[k = 1:N, r = out[k]]

Flow sub
    r : stream

inner : stream
leafA[t_out = inner]
leafB[t_in = inner, u_out = r]
"""


# -- latency delta arithmetic ---------------------------------------------------

def test_delta_rounds_half_away_from_the_baseline():
    assert latency_delta_pct(1000, 1000) == 0
    assert latency_delta_pct(2000, 1000) == 100
    assert latency_delta_pct(1005, 1000) == 1     # +0.5% rounds up
    assert latency_delta_pct(1004, 1000) == 0
    assert latency_delta_pct(995, 1000) == 0      # -0.5% rounds toward zero
    assert latency_delta_pct(994, 1000) == -1


def test_published_latency_ladder_deltas():
    base = 207_800
    raws = {239_400: 15, 420_000: 102, 464_600: 124,
            578_000: 178, 458_400: 121}
    for latency, delta in raws.items():
        assert latency_delta_pct(latency, base) == delta


def test_risk_classification_boundaries():
    assert (HIGH_RISK_PCT, MODERATE_RISK_PCT, FLOOR_PCT) == (50, 15, 5)
    assert classify_risk(50) == "HIGH"
    assert classify_risk(49) == "MODERATE"
    assert classify_risk(15) == "MODERATE"
    assert classify_risk(14) == "LOW"
    assert classify_risk(0) == "LOW"
    assert classify_risk(-20) == "LOW"


# -- injections ------------------------------------------------------------------

def test_evict_strips_everything_but_spill_patterns():
    g = chain_graph(CATALOG)
    g2 = apply_injections(
        g, (Injection(kind="EVICT_BUFFER", targets=("b0",)),), CATALOG)
    assert g2.buffers["b0"].allowed_patterns == (
        "big_delay.c_0.L3_0.DDR_0.L3_0", "big_delay.c_0.L3_0.DDR_0.accL3_0",
        "big_delay.c_1.L3_0.DDR_0.L3_0", "big_delay.c_1.L3_0.DDR_0.accL3_0")
    assert g2.buffers["b1"].allowed_patterns == g.buffers["b1"].allowed_patterns
    assert g.buffers["b0"].allowed_patterns != g2.buffers["b0"].allowed_patterns


def test_evict_accepts_function_selectors():
    g = chain_graph(CATALOG)
    g2 = apply_injections(
        g, (Injection(kind="EVICT_BUFFER", targets=("fn0",)),), CATALOG)
    changed = [b for b in g2.buffers
               if g2.buffers[b].allowed_patterns != g.buffers[b].allowed_patterns]
    assert changed == ["b0"]


def test_evict_without_a_spill_capable_pattern():
    g = chain_graph(CATALOG, patterns=("pipeline.c_0.L3_0",))
    with pytest.raises(DiagnosticError, match="cannot be forced off-chip"):
        apply_injections(
            g, (Injection(kind="EVICT_BUFFER", targets=("b0",)),), CATALOG)


def test_pin_restricts_and_intersects():
    g = chain_graph(CATALOG)
    g2 = apply_injections(
        g, (Injection(kind="PIN_TASKS", targets=("t0",), cores=frozenset({1})),),
        CATALOG)
    assert g2.tasks["t0"].allowed_cores == frozenset({1})
    assert g2.tasks["t1"].allowed_cores is None
    g3 = apply_injections(
        g, (Injection(kind="PIN_TASKS", targets=("t0",), cores=frozenset({1})),
            Injection(kind="PIN_TASKS", targets=("t0",), cores=frozenset({0}))),
        CATALOG)
    assert g3.tasks["t0"].allowed_cores == frozenset()


def test_start_lag_cap_only_tightens():
    g = chain_graph(CATALOG)
    g2 = apply_injections(g, (Injection(kind="START_LAG", value=50),), CATALOG)
    assert g2.max_start_lag == 50
    g3 = apply_injections(g2, (Injection(kind="START_LAG", value=200),), CATALOG)
    assert g3.max_start_lag == 50


def test_tighten_deadline_takes_the_minimum():
    g = chain_graph(CATALOG)          # deadline 100_000
    g2 = apply_injections(
        g, (Injection(kind="TIGHTEN_DEADLINE", value=200),), CATALOG)
    assert g2.deadline == 200
    g3 = apply_injections(
        g, (Injection(kind="TIGHTEN_DEADLINE", value=10**9),), CATALOG)
    assert g3.deadline == 100_000


def test_add_flow_clones_a_closed_instance_group():
    g = expand(NESTED, {"N": 2}, [md("leafA"), md("leafB")])
    g2 = apply_injections(
        g, (Injection(kind="ADD_FLOW", targets=("sub[k=1]",), value=1),),
        CATALOG)
    assert sorted(set(g2.tasks) - set(g.tasks)) == [
        "sub[k=1]~copy1/leafA", "sub[k=1]~copy1/leafB"]
    assert sorted(set(g2.buffers) - set(g.buffers)) == [
        "sub[k=1]~copy1/inner", "sub[k=1]~copy1/out[1]"]
    clone = g2.buffers["sub[k=1]~copy1/inner"]
    assert clone.definer == "sub[k=1]~copy1/leafA"
    assert clone.observers == ("sub[k=1]~copy1/leafB",)
    # a second application picks the next free serial
    g3 = apply_injections(
        g2, (Injection(kind="ADD_FLOW", targets=("sub[k=1]",), value=1),),
        CATALOG)
    assert "sub[k=1]~copy2/leafA" in g3.tasks


def test_add_flow_refuses_groups_sharing_buffers():
    src = """\
Flow main
    out : stream

mid[r2 = out]

Flow mid
    r2 : stream

deep[r3 = h]
h : stream
leafC[t_in = h, u_out = r2]

Flow deep
    r3 : stream

leafA[t_out = r3]
"""
    g = expand(src, None, [md("leafA"), md("leafC")])
    with pytest.raises(DiagnosticError, match="cannot be cloned in isolation"):
        apply_injections(
            g, (Injection(kind="ADD_FLOW", targets=("mid/deep",)),), CATALOG)


# a missing kind, target, core set or value is refused where the scenario
# file is read (test_scenario_stream_validation); these need the graph or
# a value's range
@pytest.mark.parametrize("inj,msg", [
    (Injection(kind="EVICT_BUFFER", targets=("nope",)),
     "matches no buffer or function"),
    (Injection(kind="PIN_TASKS", targets=("t0",), cores=frozenset()),
     "non-empty core set"),
    (Injection(kind="START_LAG", value=-1), "non-negative cycle cap"),
    (Injection(kind="TIGHTEN_DEADLINE", value=0), "positive cycle count"),
    (Injection(kind="ADD_FLOW", targets=("t0",), value=0),
     "copy count of at least 1"),
    (Injection(kind="ADD_FLOW", targets=("ghost",), value=1),
     "matches no task-id prefix"),
])
def test_injection_validation(inj, msg):
    with pytest.raises(DiagnosticError, match=msg):
        apply_injections(chain_graph(CATALOG), (inj,), CATALOG)


# -- selectors -------------------------------------------------------------------

def test_buffer_selectors_take_ids_then_functions():
    g = chain_graph(CATALOG)
    assert resolve_buffer_targets(g, ("b1",)) == ("b1",)
    assert resolve_buffer_targets(g, ("fn0",)) == ("b0",)
    assert resolve_buffer_targets(g, ("fn0", "b0", "b1")) == ("b0", "b1")
    with pytest.raises(DiagnosticError, match="'zz' matches no buffer"):
        resolve_buffer_targets(g, ("zz",))


def test_task_selectors_take_ids_functions_then_prefixes():
    g = expand(NESTED, {"N": 2}, [md("leafA"), md("leafB")])
    assert resolve_task_targets(g, ("sub[k=1]/leafA",)) == ("sub[k=1]/leafA",)
    assert resolve_task_targets(g, ("leafB",)) == (
        "sub[k=1]/leafB", "sub[k=2]/leafB")
    assert resolve_task_targets(g, ("sub[k=2]",)) == (
        "sub[k=2]/leafA", "sub[k=2]/leafB")
    with pytest.raises(DiagnosticError, match="matches no task"):
        resolve_task_targets(g, ("nope",))


# -- evaluation ------------------------------------------------------------------

def evaluate_all(specs, g, opts=SolveOpts()):
    """Every row of a run on ``specs``, its enumerated families included,
    against one baseline solve of ``g``: apply, solve, evaluate.  Unlike
    ``run_scenarios`` it seeds and folds nothing first, so each solve
    seeds itself."""
    applied = apply_scenarios(specs, g, CATALOG)
    baseline = scenarios.solve_best_case(g, TOPO, CATALOG, opts)
    return [evaluate_scenario(spec, injected, TOPO, CATALOG, opts, baseline)
            for spec, injected in applied]


def evaluate(spec, g, opts=SolveOpts()):
    return evaluate_all([spec], g, opts)[0]


def test_injection_free_scenario_reports_the_baseline():
    g = chain_graph(CATALOG)
    r = evaluate(ScenarioSpec(name="baseline"), g)
    assert (r.latency, r.delta_pct, r.risk) == (300, 0, "LOW")
    assert r.baseline_latency == 300


def test_eviction_latency_is_the_spill_cost():
    g = chain_graph(CATALOG)
    spec = ScenarioSpec(name="evict-b0", injections=(
        Injection(kind="EVICT_BUFFER", targets=("b0",)),))
    r = evaluate(spec, g)
    assert r.latency == 1363          # 100 + (1000 + ceil(1000/16)) + 200
    assert r.delta_pct == 354
    assert r.risk == "HIGH"


def test_shared_baseline_matches_a_fresh_solve():
    g = chain_graph(CATALOG)
    spec = ScenarioSpec(name="evict-b0", injections=(
        Injection(kind="EVICT_BUFFER", targets=("b0",)),))
    base = solve_best_case(g, TOPO, CATALOG)
    injected = apply_injections(g, spec.injections, CATALOG)
    assert evaluate_scenario(spec, injected, TOPO, CATALOG, SolveOpts(),
                             base) == evaluate(spec, g)


def test_infeasible_scenario_is_a_certain_failure_with_witness():
    g = chain_graph(CATALOG)
    spec = ScenarioSpec(name="dead", injections=(
        Injection(kind="TIGHTEN_DEADLINE", value=10),))
    r = evaluate(spec, g)
    assert r.risk == "CERTAIN_FAILURE"
    assert r.latency is None and r.delta_pct is None
    assert r.note == "DEADLINE_MISS"


def _pipeline_bound_pair():
    """Two tasks that can only run on core 0: one must queue behind the
    other, so a START_LAG 0 scenario is infeasible, but neither the greedy
    seed nor a tiny search budget can tell."""
    from ddtwin.graph import Buffer, TaskGraph, TaskInstance
    tasks = {t: TaskInstance(id=t, function=t, runtime=100, internalsize=0,
                             outputs=(f"b{t}",)) for t in ("a", "b")}
    bufs = {f"b{t}": Buffer(id=f"b{t}", size=100, definer=t,
                            allowed_patterns=("pipeline.c_0.L3_0",))
            for t in ("a", "b")}
    return TaskGraph(tasks=tasks, buffers=bufs, deadline=1000)


def test_heuristic_scenario_without_a_schedule_asks_for_exact_mode():
    # the baseline may queue one task behind the other; the scenario may not
    g = _pipeline_bound_pair()
    spec = ScenarioSpec(name="lag0", injections=(
        Injection(kind="START_LAG", value=0),))
    with pytest.raises(DiagnosticError) as info:
        evaluate(spec, g, SolveOpts(mode="heuristic"))
    message = str(info.value)
    assert "scenario 'lag0': greedy seed found no schedule" in message
    assert "budget" not in message


def test_batch_evaluation_shares_one_baseline():
    g = chain_graph(CATALOG)
    specs = [ScenarioSpec(name="baseline"),
             ScenarioSpec(name="evict-b0", injections=(
                 Injection(kind="EVICT_BUFFER", targets=("b0",)),))]
    results = evaluate_all(specs, g)
    assert [r.name for r in results] == [
        "baseline", "evict-b0", "evict-fn-fn1", "evict-small"]
    assert {r.baseline_latency for r in results} == {300}


def test_batch_evaluation_solves_a_shared_injection_set_once(monkeypatch):
    # a scenario-file spec that repeats an enumerated family keeps the
    # file's name, and the family's injection set is solved only once
    g = chain_graph(CATALOG)
    enumerated = enumerate_scenarios(g, CATALOG)
    assert enumerated[1].name == "evict-fn-fn0"
    from_file = parse_scenario_stream(scenario_doc(
        injections=[{"kind": "EVICT_BUFFER", "targets": ["b0"]}]))
    assert from_file[0].injections == enumerated[1].injections
    solved = []

    def counting_solve(graph, *args, **kwargs):
        solved.append(graph)
        return solve_best_case(graph, *args, **kwargs)

    monkeypatch.setattr(scenarios, "solve_best_case", counting_solve)
    results = evaluate_all(from_file, g)
    assert [r.name for r in results] == [
        "evict-things", "baseline", "evict-fn-fn1", "evict-small"]
    assert results[0].latency == 1363
    # the baseline, then evict-things, evict-fn-fn1 and evict-small
    assert len(solved) == 4


# -- the baseline floor -----------------------------------------------------------

def recording_solve(monkeypatch):
    """Routes the scenario engine's solves through a recorder; returns the
    list of (floor, outcome) pairs it fills, one per solve."""
    solves = []

    def record(graph, topology, catalog, opts=None, plan=None, **kwargs):
        outcome = solve_best_case(graph, topology, catalog, opts, plan,
                                  **kwargs)
        solves.append(((opts or SolveOpts()).floor, outcome))
        return outcome

    monkeypatch.setattr(scenarios, "solve_best_case", record)
    return solves


def narrowing_specs(graph, topology, catalog, makespan):
    """Enumerated evictions, each task pinned to each core, lag caps, a
    deadline just below and at ``makespan``, and one mixed spec."""
    specs = [s for s in enumerate_scenarios(graph, catalog) if s.injections]
    for tid in sorted(graph.tasks):
        for core in topology.cores:
            specs.append(ScenarioSpec(f"pin-{tid}-{core.id}", (Injection(
                scenarios.PIN_TASKS, (tid,), frozenset({core.id})),)))
    for lag in (0, 2_000):
        specs.append(ScenarioSpec(f"lag-{lag}", (Injection(
            scenarios.START_LAG, value=lag),)))
    for deadline in (makespan - 1, makespan):
        specs.append(ScenarioSpec(f"deadline-{deadline}", (Injection(
            scenarios.TIGHTEN_DEADLINE, value=deadline),)))
    first = sorted(graph.tasks)[0]
    specs.append(ScenarioSpec("mixed", (
        Injection(scenarios.PIN_TASKS, (first,), frozenset({0})),
        Injection(scenarios.START_LAG, value=1_000),
        Injection(scenarios.TIGHTEN_DEADLINE, value=makespan + 1_000))))
    return specs


def test_a_proven_baseline_floors_narrowing_scenarios_without_moving_them(
        monkeypatch):
    from ddtwin.instances import random_instance, replicated_instance
    from ddtwin.oracle import brute_force_oracle

    solves = recording_solve(monkeypatch)
    checked = infeasible = 0
    for seed in range(30):
        for inst in (random_instance(seed), replicated_instance(seed)):
            graph, topology, catalog = inst.graph, inst.topology, inst.catalog
            baseline = solve_best_case(graph, topology, catalog)
            if baseline.status != "optimal":
                continue
            for spec in narrowing_specs(graph, topology, catalog,
                                        baseline.makespan):
                solves.clear()
                injected = apply_injections(graph, spec.injections, catalog)
                evaluate_scenario(spec, injected, topology, catalog,
                                  SolveOpts(), baseline)
                [(floor, floored)] = solves
                assert floor == baseline.makespan
                plain = solve_best_case(injected, topology, catalog)
                ref = brute_force_oracle(injected, topology, catalog)
                where = f"seed {seed}, {spec.name}"
                assert floored.status == plain.status, where
                assert floored.makespan == plain.makespan, where
                assert floored.status in ("optimal", "infeasible"), where
                assert ref.feasible == (floored.status == "optimal"), where
                assert ref.makespan == floored.makespan, where
                checked += 1
                infeasible += floored.status == "infeasible"
    assert checked > 100 and infeasible > 0


def test_added_flows_and_unproven_baselines_get_no_floor(monkeypatch):
    g = expand(NESTED, {"N": 2}, [md("leafA"), md("leafB")])
    add_flow = next(s for s in enumerate_scenarios(g, CATALOG)
                    if s.name == "add-flow-sub")
    evict = ScenarioSpec("evict-leafA", (
        Injection(kind="EVICT_BUFFER", targets=("leafA",)),))
    solves = recording_solve(monkeypatch)
    baseline = solve_best_case(g, TOPO, CATALOG)
    assert baseline.status == "optimal"
    cloned, evicted = (apply_injections(g, s.injections, CATALOG)
                       for s in (add_flow, evict))
    evaluate_scenario(add_flow, cloned, TOPO, CATALOG, SolveOpts(), baseline)
    evaluate_scenario(evict, evicted, TOPO, CATALOG, SolveOpts(), baseline)
    unproven = dataclasses.replace(baseline, status="feasible")
    evaluate_scenario(evict, evicted, TOPO, CATALOG, SolveOpts(), unproven)
    assert [floor for floor, _ in solves] == [0, baseline.makespan, 0]


@pytest.mark.parametrize("injection", [
    {"kind": "TIGHTEN_DEADLINE", "value": 10_000},
    {"kind": "TIGHTEN_DEADLINE", "value": 10_400},
    {"kind": "PIN_TASKS", "cores": [3],
     "targets": ["srsChestProc_perUE_perRxAnt_flow[i=1,j=1]"]},
    {"kind": "PIN_TASKS", "cores": [3],
     "targets": ["srsChestProc_perUE_perRxAnt_flow[i=1,j=3]"]},
    {"kind": "START_LAG", "value": 0},
    {"kind": "START_LAG", "value": 5_000},
])
def test_a_proven_baseline_closes_paper_scenarios_in_one_level(
        paper_dir, monkeypatch, injection):
    # each repeated the baseline's proof, 2,555 nodes or more, unfloored
    from ddtwin.cli import build_graph, load_run, load_run_manifest
    from ddtwin.flows import SymbolTable

    loaded = load_run(load_run_manifest(paper_dir / "manifest.yaml"))
    loaded = dataclasses.replace(loaded, symbols=SymbolTable(
        {"MAX_NUM_RX_ANT": 3, "AVG_NUM_SRS_UE": 1}))
    graph = build_graph(loaded)
    opts = SolveOpts(max_start_lag=loaded.deployment.max_start_lag)
    baseline = solve_best_case(graph, loaded.topology, loaded.catalog, opts)
    assert (baseline.status, baseline.makespan) == ("optimal", 10_476)
    [spec] = parse_scenario_stream(scenario_doc(injections=[injection]))
    injected = apply_injections(graph, spec.injections, loaded.catalog)
    solves = recording_solve(monkeypatch)
    result = evaluate_scenario(spec, injected, loaded.topology,
                               loaded.catalog, opts, baseline)
    [(floor, outcome)] = solves
    assert floor == 10_476
    assert outcome.stats["nodes"] <= 200
    if injection["kind"] == "TIGHTEN_DEADLINE":
        assert (result.latency, result.note) == (None, "DEADLINE_MISS")
    else:
        assert (outcome.status, result.latency) == ("optimal", 10_476)


# -- one scenario run -------------------------------------------------------------

def test_a_run_folds_checked_seeds_and_moves_no_row(monkeypatch):
    # run_scenarios on each instance: the baseline starts from the best
    # checked seed, and each row from its own seed equals a solo solve
    from ddtwin.instances import random_instance, replicated_instance
    from ddtwin.schedule import check_schedule

    solves, graded = [], []

    def record(graph, topology, catalog, opts=None, plan=None, **kwargs):
        outcome = solve_best_case(graph, topology, catalog, opts, plan,
                                  **kwargs)
        solves.append((kwargs["incumbent"], outcome))
        return outcome

    def grade(spec, injected, topology, catalog, opts, baseline, plan,
              incumbent):
        first = len(solves)
        try:
            return evaluate_scenario(spec, injected, topology, catalog, opts,
                                     baseline, plan, incumbent)
        except DiagnosticError:     # the row's search ran out of budget
            return ScenarioResult(spec.name, None, None,
                                  scenarios.RISK_CERTAIN_FAILURE, 0)
        finally:
            graded.append((spec, injected, incumbent, solves[first:]))

    monkeypatch.setattr(scenarios, "solve_best_case", record)
    monkeypatch.setattr(scenarios, "evaluate_scenario", grade)
    opts = SolveOpts(budget_nodes=200)
    fired = rows = 0
    for seed in range(200):
        for inst in (random_instance(seed), replicated_instance(seed)):
            graph, topology, catalog = inst.graph, inst.topology, inst.catalog
            where = f"seed {seed}, {len(graph.tasks)} tasks"
            solves.clear()
            graded.clear()
            run = scenarios.run_scenarios([], graph, topology, catalog, opts,
                                          opts)
            fired += run.donor is not None
            baseline = run.baseline
            assert solves[0][1] is baseline, where
            solo = solve_best_case(graph, topology, catalog, opts)
            if solo.makespan is not None:
                assert baseline.makespan <= solo.makespan, where
            if solo.status in ("optimal", "infeasible"):
                assert baseline.status == solo.status, where
            if baseline.makespan is None:
                assert graded == [], where
                continue
            assert check_schedule(baseline.schedule, graph, topology,
                                  catalog) == [], where
            for spec, injected, seeded, row_solves in graded:
                narrowing = bool(spec.injections) and all(
                    inj.kind in scenarios.NARROWING_KINDS
                    for inj in spec.injections)
                if narrowing and seeded.makespan is not None:
                    assert seeded.makespan >= baseline.makespan, where
                    # the search started from the best seed the checker takes
                    if not check_schedule(seeded.schedule, graph, topology,
                                          catalog):
                        assert (seeded.makespan
                                >= baseline.stats["seed_makespan"]), where
                if not spec.injections:
                    assert row_solves == [], where
                    continue
                [(handed, got)] = row_solves
                assert handed is seeded, f"{where}, {spec.name}"
                floor = (baseline.makespan if baseline.status == "optimal"
                         and narrowing else 0)
                want = solve_best_case(injected, topology, catalog,
                                       dataclasses.replace(opts, floor=floor))
                assert ((got.status, got.makespan, got.witness)
                        == (want.status, want.makespan, want.witness)), \
                    f"{where}, {spec.name}"
                rows += 1
    assert fired >= 10 and rows > 100


def test_a_seed_the_baseline_refuses_is_not_folded(monkeypatch):
    # paired by hand with a graph that has no lag cap, an eviction's seed
    # queues one task behind the other, which the capped baseline refuses
    from ddtwin.solver import Incumbent, seed_best_case

    g = _pipeline_bound_pair()
    capped = dataclasses.replace(g, max_start_lag=0)
    spec = ScenarioSpec("evict-ba", (
        Injection(kind="EVICT_BUFFER", targets=("ba",)),))
    seeds, handed = [], []

    def record_seed(graph, topology, catalog, opts, plan):
        seeds.append((graph, plan, seed_best_case(graph, topology, catalog,
                                                  opts, plan)))
        return seeds[-1][2]

    def record_solve(*args, incumbent, **kwargs):
        handed.append(incumbent)
        return solve_best_case(*args, incumbent=incumbent, **kwargs)

    monkeypatch.setattr(scenarios, "apply_injections",
                        lambda graph, injections, catalog: g)
    monkeypatch.setattr(scenarios, "seed_best_case", record_seed)
    monkeypatch.setattr(scenarios, "solve_best_case", record_solve)
    run = scenarios.run_scenarios([spec], capped, TOPO, CATALOG, SolveOpts(),
                                  SolveOpts())
    [(_, plan, own), (row_graph, row_plan, seed)] = seeds
    assert row_graph is g and row_plan is plan and seed.makespan == 200
    assert own == Incumbent(None, None) and handed == [own]
    assert (run.baseline.status, run.rows, run.own, run.donor) == (
        "infeasible", [], None, None)


def _paper_proof_like(paper_dir, root):
    """The paper fixture at three receive antennas and one SRS user, with
    a deadline below its optimum, a pin and a lag cap."""
    shutil.copytree(paper_dir, root, ignore=shutil.ignore_patterns("out*"))
    deployment = yaml.safe_load((root / "deployment.yaml").read_text())
    deployment["symbols"] = {"MAX_NUM_RX_ANT": 3, "AVG_NUM_SRS_UE": 1}
    (root / "deployment.yaml").write_text(yaml.safe_dump(deployment))
    add_scenario_file(
        root / "manifest.yaml",
        ("tighten-deadline", [{"kind": "TIGHTEN_DEADLINE", "value": 10_068}]),
        ("pin-task", [{"kind": "PIN_TASKS", "cores": [3], "targets": [
            "srsChestProc_perUE_perRxAnt_flow[i=1,j=3]"]}]),
        ("start-lag", [{"kind": "START_LAG", "value": 516}]))


@pytest.mark.parametrize("inputs, plans, seeds", [
    ("du_exact", 12, 12), ("paper_proof", 5, 7), ("trivial", 1, 1)])
def test_every_solve_of_a_run_starts_from_its_phase_1_seed(
        inputs, plans, seeds, du_dir, paper_dir, trivial_dir, tmp_path,
        monkeypatch):
    from ddtwin import cli
    from ddtwin.solver import SearchPlan, _Search

    root = tmp_path / inputs
    if inputs == "du_exact":
        shutil.copytree(du_dir, root, ignore=shutil.ignore_patterns("out*"))
        manifest = root / "manifest.yaml"
        manifest.write_text(manifest.read_text().replace(
            "budget_nodes: 60000", "budget_nodes: 1000"))
    elif inputs == "paper_proof":
        _paper_proof_like(paper_dir, root)
    else:
        shutil.copytree(trivial_dir, root,
                        ignore=shutil.ignore_patterns("out*"))
    seen = {"plans": 0, "seeds": 0, "solves": []}
    build, seed, run = SearchPlan.__init__, _Search._seed, _Search.run

    def count_plan(self, *args, **kwargs):
        seen["plans"] += 1
        build(self, *args, **kwargs)

    def count_seed(self, *args):
        seen["seeds"] += 1
        seed(self, *args)

    def record_run(self, incumbent=None):
        before = seen["seeds"]
        outcome = run(self, incumbent)
        seen["solves"].append((incumbent, seen["seeds"] - before))
        return outcome

    monkeypatch.setattr(SearchPlan, "__init__", count_plan)
    monkeypatch.setattr(_Search, "_seed", count_seed)
    monkeypatch.setattr(_Search, "run", record_run)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["scenarios", "--manifest",
                         str(root / "manifest.yaml"),
                         "--out", str(tmp_path / "out")]) == 0
    assert (seen["plans"], seen["seeds"]) == (plans, seeds)
    assert seen["solves"]
    # each solve is handed an incumbent and runs no seed of its own
    assert all(incumbent is not None and own == 0
               for incumbent, own in seen["solves"])


# -- enumeration -----------------------------------------------------------------

def test_enumerated_families_on_a_chain():
    specs = enumerate_scenarios(chain_graph(CATALOG), CATALOG)
    assert [s.name for s in specs] == [
        "baseline", "evict-fn-fn0", "evict-fn-fn1", "evict-small"]


def test_duplicate_injection_sets_keep_the_first_name():
    # one small and one large producer: the size bands coincide with the
    # per-function sets, so only the function names and the union survive
    src = """\
Flow main
    out : stream

big[t_out = m]
m : stream
small[t_in = m, u_out = out]
"""
    g = expand(src, None, [md("big", elementsize=50_000),
                           md("small", elementsize=200)])
    specs = enumerate_scenarios(g, CATALOG)
    assert [s.name for s in specs] == [
        "baseline", "evict-fn-big", "evict-fn-small", "evict-combined"]


def test_enumeration_offers_closed_groups_for_cloning():
    g = expand(NESTED, {"N": 2}, [md("leafA"), md("leafB")])
    specs = enumerate_scenarios(g, CATALOG)
    by_name = {s.name: s for s in specs}
    assert "add-flow-sub" in by_name
    assert by_name["add-flow-sub"].injections == (
        Injection(kind="ADD_FLOW", targets=("sub[k=1]/",), value=1),)


def test_enumeration_skips_groups_sharing_buffers():
    src = """\
Flow main
    out : stream

p[r = s]
s : stream
c[t_in = s, u_out = out]

Flow p
    r : stream

leafA[t_out = r]
"""
    g = expand(src, None, [md("leafA"), md("c")])
    # the p/ group's output is observed outside the group
    names = [s.name for s in enumerate_scenarios(g, CATALOG)]
    assert not any(n.startswith("add-flow") for n in names)


def test_enumeration_of_an_empty_graph():
    from ddtwin.graph import TaskGraph
    g = TaskGraph(tasks={}, buffers={}, deadline=1)
    assert enumerate_scenarios(g, CATALOG) == []


# -- ranking ---------------------------------------------------------------------

def rows():
    R = ScenarioResult
    return [R("baseline", 300, 0, "LOW", 300),
            R("b-mid", 390, 30, "MODERATE", 300),
            R("a-big", 600, 100, "HIGH", 300),
            R("z-dead", None, None, "CERTAIN_FAILURE", 300,
              note="DEADLINE_MISS"),
            R("a-dead", None, None, "CERTAIN_FAILURE", 300,
              note="PATTERN_VIOLATION"),
            R("tiny", 306, 2, "LOW", 300),
            R("less", 282, -6, "LOW", 300)]


def test_rank_puts_certain_failures_first_then_descending_delta():
    assert [r.name for r in rank_scenarios(rows())] == [
        "a-dead", "z-dead", "a-big", "b-mid", "tiny", "baseline", "less"]


def test_rank_marks_sub_floor_movement_not_recommended():
    noted = {r.name: r.note for r in rank_scenarios(rows())}
    assert noted["tiny"] == "not recommended"
    assert noted["less"] == "not recommended"
    assert noted["baseline"] == "not recommended"
    assert noted["b-mid"] == ""
    assert noted["a-dead"] == "PATTERN_VIOLATION"


def test_rank_of_nothing_is_nothing():
    assert rank_scenarios([]) == []


# -- serialization ---------------------------------------------------------------

def test_csv_header_is_stable():
    assert CSV_HEADER == "strategy,latency_cycles,delta_pct,risk"
    out = render_scenario_csv([])
    assert out == "strategy,latency_cycles,delta_pct,risk\n"


def test_csv_round_trip_preserves_everything_but_notes():
    ranked = rank_scenarios(rows())
    back = parse_scenario_csv(render_scenario_csv(ranked), 300)
    from dataclasses import replace
    assert back == [replace(r, note="") for r in ranked]


def test_infeasible_csv_rows_carry_certain_failure():
    text = render_scenario_csv(rank_scenarios(rows()))
    for line in text.splitlines():
        if "INFEASIBLE" in line:
            assert line.endswith(",CERTAIN_FAILURE")
            assert line.split(",")[2] == ""      # no delta


@pytest.mark.parametrize("text,msg", [
    ("strategy,latency\nx,1\n", "must start with header"),
    ("strategy,latency_cycles,delta_pct,risk\nx,abc,0,LOW\n",
     "must be integers"),
    ("strategy,latency_cycles,delta_pct,risk\nx,100,0,WILD\n",
     "unknown risk level"),
    ("strategy,latency_cycles,delta_pct,risk\nx,INFEASIBLE,5,HIGH\n",
     "must carry risk CERTAIN_FAILURE"),
    ("strategy,latency_cycles,delta_pct,risk\nx,100,0\n",
     exactly(2, 1, "expected 4 fields, got 3")),
    # a quoted name may span lines: each refusal is at its row's first line
    ('strategy,latency_cycles,delta_pct,risk\n"a\nb",300,0,LOW\n'
     "c,300,0,WILD\n", exactly(4, 1, "unknown risk level 'WILD'")),
    ('strategy,latency_cycles,delta_pct,risk\n"a\nb",x,0,LOW\n',
     exactly(2, 1, "latency and delta must be integers, got 'x' / '0'")),
])
def test_csv_parse_validation(text, msg):
    with pytest.raises(DiagnosticError, match=msg):
        parse_scenario_csv(text, 100)


def test_table_rendering():
    R = ScenarioResult
    text = render_scenario_table([
        R("baseline", 242_251, 0, "LOW", 242_251),
        R("evict", 295_676, 22, "MODERATE", 242_251),
        R("less", 230_000, -6, "LOW", 242_251, note="not recommended"),
        R("dead", None, None, "CERTAIN_FAILURE", 242_251,
          note="DEADLINE_MISS")])
    lines = text.splitlines()
    assert lines[0].split() == ["Strategy", "Latency", "(clock", "cycles)",
                                "delta"]
    assert "242,251" in text and "295,676" in text    # thousands separators
    assert "+22%" in text
    assert "-6%" in text and "+-" not in text
    assert "INFEASIBLE" in text
    baseline_row = [l for l in lines if l.startswith("baseline")][0]
    assert baseline_row.rstrip().endswith("-")        # no delta against itself


# -- scenario manifests ------------------------------------------------------------

def scenario_doc(**spec):
    return yaml.safe_dump({"apiVersion": "rdsl/v0", "kind": "scenario",
                           "metadata": {"name": "evict-things"},
                           "spec": spec})


def test_parse_scenario_documents():
    text = scenario_doc(injections=[
        {"kind": "EVICT_BUFFER", "targets": ["b0"]},
        {"kind": "PIN_TASKS", "targets": ["t0"], "cores": [0, 1]},
        {"kind": "START_LAG", "value": 40}])
    specs = parse_scenario_stream(text)
    assert len(specs) == 1
    spec = specs[0]
    assert spec.name == "evict-things"
    assert spec.injections == (
        Injection(kind="EVICT_BUFFER", targets=("b0",)),
        Injection(kind="PIN_TASKS", targets=("t0",), cores=frozenset({0, 1})),
        Injection(kind="START_LAG", value=40))


def test_parsed_scenarios_are_runnable():
    g = chain_graph(CATALOG)
    specs = parse_scenario_stream(scenario_doc(
        injections=[{"kind": "EVICT_BUFFER", "targets": ["b0"]}]))
    r = evaluate(specs[0], g)
    assert r.latency == 1363


@pytest.mark.parametrize("text,msg", [
    ("- 1\n- 2\n", "document is not a mapping"),
    (scenario_doc().replace("rdsl/v0", "rdsl/v9"), "unsupported apiVersion"),
    (scenario_doc().replace("kind: scenario", "kind: event"),
     "expected kind 'scenario'"),
    ("apiVersion: rdsl/v0\nkind: scenario\nspec: {}\n",
     "metadata.name is required"),
    (scenario_doc(injections=[{"kind": "FLOOD"}]), "unknown injection kind"),
    # one spelling per field: no lower-case kind, no bare-string targets
    (scenario_doc(injections=[{"kind": "evict_buffer", "targets": ["b0"]}]),
     exactly(7, 5, "document 1, injection 1: unknown injection kind "
                   "'evict_buffer'")),
    (scenario_doc(injections=[{"kind": "EVICT_BUFFER", "targets": "b0"}]),
     exactly(7, 5, "document 1, injection 1: targets must be a string list, "
                   "got 'b0'")),
    (scenario_doc(injections=[{"kind": "PIN_TASKS", "cores": [True]}]),
     "cores must be an integer list"),
    (scenario_doc(injections=[{"kind": "EVICT_BUFFER", "targets": [1]}]),
     "targets must be a string list"),
    (scenario_doc(injections="many"),
     exactly(6, 15, "document 1: spec.injections must be a list, got 'many'")),
    (scenario_doc(injections=[{"kind": "EVICT_BUFFER"}]),
     exactly(7, 5, "document 1, injection 1: EVICT_BUFFER requires targets")),
    (scenario_doc(injections=[{"kind": "PIN_TASKS", "cores": [0]}]),
     exactly(7, 5, "document 1, injection 1: PIN_TASKS requires targets")),
    (scenario_doc(injections=[{"kind": "ADD_FLOW", "targets": []}]),
     exactly(7, 5, "document 1, injection 1: ADD_FLOW requires targets")),
    (scenario_doc(injections=[{"kind": "PIN_TASKS", "targets": ["t0"]}]),
     exactly(7, 5, "document 1, injection 1: PIN_TASKS requires cores")),
    (scenario_doc(injections=[{"kind": "START_LAG"}]),
     exactly(7, 5, "document 1, injection 1: START_LAG requires a value")),
    (scenario_doc(injections=[{"kind": "TIGHTEN_DEADLINE"}]),
     exactly(7, 5,
             "document 1, injection 1: TIGHTEN_DEADLINE requires a value")),
    # a misspelt key is refused, not read as an absent one
    (scenario_doc(injection=[{"kind": "START_LAG", "value": 1}]),
     exactly(6, 3, "document 1: spec has unknown key 'injection'; "
                   "expected one of injections")),
    (scenario_doc(injections=[{"kind": "ADD_FLOW", "targets": ["a/"],
                               "copies": 3}]),
     exactly(7, 5, "document 1, injection 1 has unknown key 'copies'; "
                   "expected one of kind, targets, cores, value")),
])
def test_scenario_stream_validation(text, msg):
    with pytest.raises(DiagnosticError, match=msg):
        parse_scenario_stream(text)


def test_an_injection_refusal_names_the_injection():
    # the first document and the separator take 7 lines, and the second
    # document's second injection starts on its own ninth
    first = scenario_doc(injections=[])
    second = scenario_doc(injections=[{"kind": "START_LAG", "value": 1},
                                      {"kind": "PIN_TASKS", "targets": ["t0"]}])
    assert second.splitlines()[8] == "  - kind: PIN_TASKS"
    with pytest.raises(DiagnosticError, match=exactly(
            16, 5, "document 2, injection 2: PIN_TASKS requires cores")):
        parse_scenario_stream(first + "---\n" + second)
    flow = first.replace("injections: []",
                         "injections: [{kind: START_LAG, value: 1}, "
                         "{kind: FLOOD}]")
    with pytest.raises(DiagnosticError, match=exactly(
            6, 45, "document 1, injection 2: unknown injection kind 'FLOOD'")):
        parse_scenario_stream(flow)
    # an injection merged in from elsewhere, and the last of two specs
    head = "apiVersion: rdsl/v0\nkind: scenario\nmetadata: {name: x}\n"
    merged = head + ("base: &base\n  injections:\n  - kind: START_LAG\n"
                     "spec:\n  <<: *base\n")
    with pytest.raises(DiagnosticError, match=exactly(
            6, 5, "document 1, injection 1: START_LAG requires a value")):
        parse_scenario_stream(merged)
    twice = head + ("spec:\n  injections: [{kind: START_LAG, value: 1}]\n"
                    "spec:\n  injections: [{kind: START_LAG}]\n")
    with pytest.raises(DiagnosticError, match=exactly(
            7, 16, "document 1, injection 1: START_LAG requires a value")):
        parse_scenario_stream(twice)


def test_second_document_errors_name_their_position():
    text = scenario_doc(injections=[]) + "---\n" + \
        scenario_doc(injections=[]).replace("kind: scenario", "kind: event")
    with pytest.raises(DiagnosticError, match="document 2") as exc:
        parse_scenario_stream(text)
    assert exc.value.diagnostics[0].line == scenario_doc(injections=[]).count("\n") + 2
