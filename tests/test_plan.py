"""One search plan per run: narrowing a plan to an injected graph gives the
plan a fresh build would, and a scenarios run builds one plan."""

from __future__ import annotations

import dataclasses

import pytest

from ddtwin.instances import random_instance, replicated_instance
from ddtwin.scenarios import (ADD_FLOW, EVICT_BUFFER, PIN_TASKS, START_LAG,
                              TIGHTEN_DEADLINE, Injection, apply_injections,
                              enumerate_scenarios)
from ddtwin.solver import SearchPlan, SolveOpts, _Search, solve_best_case


def narrowings(graph, catalog):
    """(kind, injected graph) for the enumerated scenarios of ``graph``,
    each task pinned to core 0, a lag cap of 0 and a halved deadline."""
    for spec in enumerate_scenarios(graph, catalog):
        if spec.injections:
            yield (spec.injections[0].kind,
                   apply_injections(graph, spec.injections, catalog))
    for tid in graph.tasks:
        yield PIN_TASKS, apply_injections(
            graph, (Injection(PIN_TASKS, (tid,), frozenset({0})),), catalog)
    yield START_LAG, apply_injections(
        graph, (Injection(START_LAG, value=0),), catalog)
    yield TIGHTEN_DEADLINE, apply_injections(
        graph, (Injection(TIGHTEN_DEADLINE, value=max(1, graph.deadline // 2)),),
        catalog)


def checked_narrowings(graph, topology, catalog):
    """Narrows the plan of ``graph`` to each of its narrowings and asserts
    that each equals a fresh plan field by field: the same plan when the
    task and buffer records are unchanged, one lent the task order when
    the tasks are, and a fresh one for an added flow.  Returns the kinds
    of the narrowings whose plan was lent."""
    plan = SearchPlan(graph, topology, catalog)
    seen = set()
    for kind, injected in narrowings(graph, catalog):
        narrowed = plan.narrowed(injected)
        fresh = SearchPlan(injected, topology, catalog)
        assert vars(narrowed).keys() == vars(fresh).keys()
        for field, value in vars(fresh).items():
            if field != "graph":
                assert getattr(narrowed, field) == value, (kind, field)
        if kind == ADD_FLOW:
            assert narrowed.topo_order is not plan.topo_order
        elif (injected.tasks, injected.buffers) == (graph.tasks, graph.buffers):
            assert narrowed is plan, kind
        else:
            assert narrowed.topo_order is plan.topo_order, kind
            seen.add(kind)
    return seen


def test_a_narrowed_plan_is_a_fresh_plan_on_random_instances():
    seen = set()
    for seed in range(40):
        for inst in (random_instance(seed), replicated_instance(seed)):
            seen |= checked_narrowings(inst.graph, inst.topology, inst.catalog)
    assert seen == {EVICT_BUFFER, PIN_TASKS}


def test_a_narrowed_plan_is_a_fresh_plan_on_du_analog(du_dir):
    from ddtwin.cli import build_graph, load_run, load_run_manifest

    loaded = load_run(load_run_manifest(du_dir / "manifest.yaml"))
    graph = build_graph(loaded)
    assert ADD_FLOW in {kind for kind, _ in narrowings(graph, loaded.catalog)}
    assert checked_narrowings(graph, loaded.topology, loaded.catalog) == {
        EVICT_BUFFER, PIN_TASKS}


def test_a_solve_on_a_narrowed_plan_is_the_solve_without_one():
    for seed in range(40):
        inst = random_instance(seed)
        plan = SearchPlan(inst.graph, inst.topology, inst.catalog)
        for _, injected in narrowings(inst.graph, inst.catalog):
            for lag in (None, 3_000):
                graph = dataclasses.replace(injected, max_start_lag=lag)
                got, want = (solve_best_case(graph, inst.topology, inst.catalog,
                                             SolveOpts(budget_nodes=2_000), p)
                             for p in (plan, None))
                assert ((got.status, got.makespan, got.witness, got.stats,
                         got.schedule)
                        == (want.status, want.makespan, want.witness,
                            want.stats, want.schedule)), seed


def test_a_plan_serves_only_its_own_topology_and_catalog():
    a, b = random_instance(0), random_instance(1)
    plan = SearchPlan(a.graph, a.topology, a.catalog)
    with pytest.raises(ValueError, match="topology and catalog"):
        _Search(b.graph, b.topology, a.catalog, SolveOpts(), plan)


def test_a_scenarios_run_builds_one_plan_and_narrows_it(du_dir, tmp_path,
                                                        monkeypatch):
    from ddtwin.cli import cmd_scenarios, load_run_manifest

    builds = []
    build, narrow = SearchPlan.__init__, SearchPlan.narrowed

    def counted_build(self, graph, topology, catalog, base=None):
        builds.append("fresh" if base is None else "narrowed")
        build(self, graph, topology, catalog, base)

    def counted_narrow(self, graph):
        plan = narrow(self, graph)
        if plan is self:
            builds.append("same")
        return plan

    monkeypatch.setattr(SearchPlan, "__init__", counted_build)
    monkeypatch.setattr(SearchPlan, "narrowed", counted_narrow)
    # heuristic mode solves what exact mode does, with the same plans
    assert cmd_scenarios(load_run_manifest(du_dir / "manifest.yaml",
                                           out=str(tmp_path),
                                           mode="heuristic")) == 0
    # the baseline's plan, one narrowed per eviction, one for the added flow
    assert builds == ["fresh", "same"] + ["narrowed"] * 10 + ["fresh"]
