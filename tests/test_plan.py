"""One search plan per run: narrowing a plan to an injected graph gives the
plan a fresh build would, and a scenarios run resolves each buffer key
once.  A plan's classes of interchangeable cores follow one rule for
every catalog, and whatever tells two cores apart splits them."""

from __future__ import annotations

import dataclasses

import pytest

from ddtwin.graph import Buffer, TaskGraph, TaskInstance
from ddtwin.hardware import Memory
from ddtwin.instances import random_instance, replicated_instance
from ddtwin.patterns import (PatternCatalog, canonical_name,
                             generate_patterns_from_topology,
                             parse_pattern_catalog, serialize_pattern_catalog)
from ddtwin.scenarios import (ADD_FLOW, EVICT_BUFFER, PIN_TASKS, START_LAG,
                              TIGHTEN_DEADLINE, Injection, apply_injections,
                              enumerate_scenarios)
from ddtwin.solver import SearchPlan, SolveOpts, _Search, solve_best_case
from conftest import chain_graph, make_topology


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
    that each equals a fresh plan field by field, its memo aside, and
    takes every ``_Resolved`` whose key the base resolved from the base:
    the same plan when the task and buffer records are unchanged, a plan
    built on the base's resolutions otherwise.  Returns the kinds of the
    narrowings that built a plan."""
    plan = SearchPlan(graph, topology, catalog)
    base = dict(plan.resolutions)
    seen = set()
    for kind, injected in narrowings(graph, catalog):
        narrowed = plan.narrowed(injected)
        fresh = SearchPlan(injected, topology, catalog)
        assert vars(narrowed).keys() == vars(fresh).keys()
        for field, value in vars(fresh).items():
            if field == "resolutions":
                # the run's memo, which holds the base's keys too
                assert value.items() <= narrowed.resolutions.items(), kind
            elif field != "graph":
                assert getattr(narrowed, field) == value, (kind, field)
        for buf in injected.buffers.values():
            key = buf.allowed_patterns, buf.size
            if key in base:
                assert narrowed.resolved[buf.id] is base[key], (kind, buf.id)
        if (injected.tasks, injected.buffers) == (graph.tasks, graph.buffers):
            assert narrowed is plan, kind
        else:
            assert narrowed is not plan, kind
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
        EVICT_BUFFER, PIN_TASKS, ADD_FLOW}


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


def test_a_scenarios_run_resolves_each_key_once(du_dir, tmp_path,
                                                monkeypatch):
    from ddtwin.cli import build_graph, cmd_scenarios, load_run, load_run_manifest
    from ddtwin.scenarios import apply_scenarios

    keys = []
    resolve = SearchPlan._resolve

    def counted_resolve(self, buf):
        keys.append((buf.allowed_patterns, buf.size))
        return resolve(self, buf)

    monkeypatch.setattr(SearchPlan, "_resolve", counted_resolve)
    manifest = load_run_manifest(du_dir / "manifest.yaml", out=str(tmp_path),
                                 mode="heuristic")
    # heuristic mode solves what exact mode does, with the same plans
    assert cmd_scenarios(manifest) == 0
    loaded = load_run(manifest)
    graph = build_graph(loaded)
    applied = apply_scenarios(loaded.scenario_specs, graph, loaded.catalog)
    distinct = {(b.allowed_patterns, b.size)
                for g in [graph, *(injected for _, injected in applied)]
                for b in g.buffers.values()}
    # one call per distinct key over the baseline and every scenario,
    # the added flow's included
    assert sorted(keys) == sorted(distinct)


def test_buffers_share_a_resolution_by_allowed_names_and_size():
    inst = random_instance(0)
    names = next(iter(inst.graph.buffers.values())).allowed_patterns
    tasks = {t: TaskInstance(t, t, runtime=10, internalsize=0,
                             inputs=inputs, outputs=outputs)
             for t, inputs, outputs in (("a", (), ("x",)),
                                        ("b", ("x",), ("y",)),
                                        ("c", (), ("z",)))}
    buffers = {b.id: b for b in (
        Buffer("x", 1_000, "a", observers=("b",), allowed_patterns=names),
        # another id, definer, observer set, labels, release and deadline
        Buffer("y", 1_000, "b", allowed_patterns=names, labels=("sym",),
               release=5, avail_deadline=90_000),
        Buffer("z", 1_001, "c", allowed_patterns=names))}
    plan = SearchPlan(TaskGraph(tasks, buffers, deadline=100_000),
                      inst.topology, inst.catalog)
    assert plan.resolved["x"] is plan.resolved["y"]
    assert plan.resolved["z"] is not plan.resolved["x"]
    assert len(plan.resolutions) == 2


def test_a_shared_plan_keeps_each_solves_own_floor():
    raised = 0
    for seed in range(40):
        inst = random_instance(seed)
        case = inst.graph, inst.topology, inst.catalog
        plan = SearchPlan(*case)
        above = plan.root_floor + 1
        # the floored solve first: a plan that kept its floor would hand
        # it to the solve without one
        outcomes = []
        for floor in (above, 0):
            opts = SolveOpts(budget_nodes=2_000, floor=floor)
            got, want = (solve_best_case(*case, opts, p) for p in (plan, None))
            assert ((got.status, got.makespan, got.witness, got.stats,
                     got.schedule)
                    == (want.status, want.makespan, want.witness, want.stats,
                        want.schedule)), (seed, floor)
            outcomes.append(got.stats["lower_bound"])
        raised += outcomes[0] > outcomes[1]
    assert raised == 40


# -- interchangeable cores ---------------------------------------------------

def core_classes(graph, topology, catalog):
    """The plan's classes of interchangeable cores, least core first."""
    classes: dict[int, set[int]] = {}
    for core, least in SearchPlan(graph, topology, catalog).group_of.items():
        classes.setdefault(least, set()).add(core)
    return [classes[least] for least in sorted(classes)]


@pytest.fixture(scope="module")
def paper(paper_dir):
    from ddtwin.cli import build_graph, load_run, load_run_manifest

    loaded = load_run(load_run_manifest(paper_dir / "manifest.yaml"))
    return build_graph(loaded), loaded.topology, loaded.catalog


def without(catalog, drop, unrelate=()):
    """``catalog``'s patterns less those named in ``drop``, and with no
    relation declared between the two patterns of each pair in
    ``unrelate``, as a new catalog."""
    gone = {canonical_name(n) for n in drop}
    cut = {frozenset(map(canonical_name, pair)) for pair in unrelate}

    def kept(owner, names):
        return tuple(n for n in names if canonical_name(n) not in gone
                     and frozenset((owner.canonical, canonical_name(n))) not in cut)

    return PatternCatalog([dataclasses.replace(
        p, exclusive_define_with=kept(p, p.exclusive_define_with),
        shares={key: kept(p, names) for key, names in p.shares.items()},
        can_observe=kept(p, p.can_observe))
        for p in catalog if p.canonical not in gone])


def test_the_parsed_paper_catalog_makes_its_four_cores_one_class(paper):
    assert core_classes(*paper) == [{0, 1, 2, 3}]


def test_a_catalog_written_to_xml_and_parsed_back_keeps_its_classes():
    one_slice = make_topology(4)
    two_slices = dataclasses.replace(
        one_slice, memories=[*one_slice.memories, Memory("L3_1", "L3", 1 << 23)],
        cores=[dataclasses.replace(c, l3="L3_1") if c.id >= 2 else c
               for c in one_slice.cores])
    for topology, want in ((one_slice, [{0, 1, 2, 3}]),
                           (two_slices, [{0, 1}, {2, 3}])):
        generated = generate_patterns_from_topology(topology)
        parsed = parse_pattern_catalog(serialize_pattern_catalog(generated))
        for catalog in (generated, parsed):
            assert core_classes(chain_graph(catalog), topology,
                                catalog) == want


def test_a_core_the_catalog_tells_apart_leaves_its_class(paper):
    graph, topology, catalog = paper
    # core 3 without its pipeline pattern
    assert core_classes(graph, topology, without(
        catalog, ["pipeline.c_3.L3_0"])) == [{0, 1, 2}]
    # one contention bit of a core-3 pattern cleared
    pair = ("pipeline.c_3.L3_0", "L2toL2.c_3.L3_0.accL3_0")
    assert catalog.contends(*pair)
    broken = without(catalog, [], [pair])
    assert not broken.contends(*pair)
    assert core_classes(graph, topology, broken) == [{0, 1, 2}]


def test_a_core_whose_l2_holds_less_or_whose_l3_differs_leaves_its_class(
        paper):
    graph, topology, catalog = paper
    core3 = topology.core(3)
    smaller = dataclasses.replace(topology, memories=[
        dataclasses.replace(m, capacity=m.capacity // 2) if m.id == core3.l2
        else m for m in topology.memories])
    # a slice that no pattern names, so that only the L3 test tells
    elsewhere = dataclasses.replace(
        topology, memories=[*topology.memories, Memory("L3_9", "L3", 1 << 30)],
        cores=[dataclasses.replace(c, l3="L3_9") if c is core3 else c
               for c in topology.cores])
    for changed in (smaller, elsewhere):
        assert core_classes(graph, changed, catalog) == [{0, 1, 2}]


def test_a_pin_splits_off_only_the_cores_it_names(paper):
    graph, topology, catalog = paper
    target = sorted(graph.tasks)[0]
    for cores, want in (({3}, [{0, 1, 2}]), ({0, 1}, [{0, 1}, {2, 3}]),
                        ({0, 1, 2, 3}, [{0, 1, 2, 3}])):
        pinned = apply_injections(graph, (Injection(
            PIN_TASKS, (target,), frozenset(cores)),), catalog)
        assert core_classes(pinned, topology, catalog) == want, cores


def test_a_buffer_allowed_one_cores_pattern_keeps_that_core_apart(paper):
    graph, topology, catalog = paper
    buf = graph.buffers[sorted(graph.buffers)[0]]
    only = graph.with_buffer(dataclasses.replace(
        buf, allowed_patterns=("L2toL2.c_0.L3_0.accL3_0",)))
    assert core_classes(only, topology, catalog) == [{1, 2, 3}]
