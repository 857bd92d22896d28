"""Constraint checker: every violation kind from a hand-built schedule.

Schedules here are written out literally so each test pins one checker
rule; transfer durations must equal the pattern cost or the checker
reports that mismatch on top of the condition under test.
"""

from __future__ import annotations

import pytest
import yaml

from ddtwin.graph import Buffer, ExternalInput, TaskGraph, TaskInstance
from ddtwin.manifests import parse_constraint_stream
from ddtwin.patterns import generate_patterns_from_topology, transfer_cost
from ddtwin.schedule import (BUFFER_OVERFLOW, CORE_OVERLAP, DEADLINE_MISS,
                             LAG_VIOLATION, PATTERN_VIOLATION,
                             READ_BEFORE_WRITE, TIMING_CONSTRAINT,
                             TRANSFER_CONTENTION, Schedule, Transfer,
                             check_schedule, compute_ready_times,
                             effective_max_start_lag)
from ddtwin.solver import SolveOpts, solve_best_case
from conftest import make_topology

TOPO = make_topology(2)
CATALOG = generate_patterns_from_topology(TOPO)
ALL = tuple(p.name for p in CATALOG.patterns)

PIPE0 = "pipeline.c_0.L3_0"
PIPE1 = "pipeline.c_1.L3_0"
NEAR0 = "L2toL2.c_0.L3_0.accL3_0"
FAR0 = "big_delay.c_0.L3_0.DDR_0.L3_0"
FAR1 = "big_delay.c_1.L3_0.DDR_0.L3_0"


def cost(pattern, size):
    return transfer_cost(CATALOG.lookup(pattern).klass, size, TOPO.pattern_costs)


def task(tid, runtime=100, **kw):
    kw.setdefault("function", tid)
    kw.setdefault("internalsize", 0)
    return TaskInstance(id=tid, runtime=runtime, **kw)


def buf(bid, definer, size=1000, **kw):
    kw.setdefault("allowed_patterns", ALL)
    return Buffer(id=bid, size=size, definer=definer, **kw)


def graph(tasks, buffers, deadline=1_000_000, **kw):
    return TaskGraph(tasks={t.id: t for t in tasks},
                     buffers={b.id: b for b in buffers},
                     deadline=deadline, **kw)


def sched(assignments, transfers):
    return Schedule(assignments=dict(assignments),
                    transfers={b: Transfer(*t) for b, t in transfers.items()})


def kinds(violations):
    return {v.kind for v in violations}


# one chain everyone reuses: t0 -> b0 -> t1, t1 -> b1 (unobserved)
def chain(**buf0_kw):
    return graph(
        [task("t0", 100, outputs=("b0",),
              external_inputs=(ExternalInput(stream="port", release=0),)),
         task("t1", 200, inputs=("b0",), outputs=("b1",))],
        [buf("b0", "t0", observers=("t1",), **buf0_kw),
         buf("b1", "t1")])


def clean_chain_schedule():
    return sched({"t0": (0, 0), "t1": (0, 100)},
                 {"b0": (PIPE0, 100, 0), "b1": (PIPE0, 300, 0)})


def test_hand_built_feasible_schedule_is_clean():
    assert check_schedule(clean_chain_schedule(), chain(), TOPO, CATALOG) == []


def test_makespan_covers_tasks_and_transfers():
    s = clean_chain_schedule()
    assert s.makespan(chain()) == 300
    s.transfers["b1"] = Transfer(NEAR0, 300, cost(NEAR0, 1000))
    assert s.makespan(chain()) == 300 + cost(NEAR0, 1000)


def test_transfer_before_definer_finish_is_read_before_write():
    s = sched({"t0": (0, 0), "t1": (0, 100)},
              {"b0": (PIPE0, 50, 0), "b1": (PIPE0, 300, 0)})
    v = check_schedule(s, chain(), TOPO, CATALOG)
    assert kinds(v) == {READ_BEFORE_WRITE}
    assert v[0].subject == "b0"


def test_task_starting_before_input_lands_is_read_before_write():
    dur = cost(NEAR0, 1000)
    s = sched({"t0": (0, 0), "t1": (1, 200)},
              {"b0": (NEAR0, 100, dur), "b1": (PIPE1, 400, 0)})
    v = check_schedule(s, chain(), TOPO, CATALOG)
    assert kinds(v) == {READ_BEFORE_WRITE}
    assert v[0].subject == "t1"       # 200 < 100 + dur


def test_task_starting_before_external_arrival_is_read_before_write():
    g = chain()
    t0 = g.tasks["t0"]
    g.tasks["t0"] = TaskInstance(
        id="t0", function="t0", runtime=100, internalsize=0,
        outputs=("b0",),
        external_inputs=(ExternalInput(stream="port", release=40),))
    v = check_schedule(clean_chain_schedule(), g, TOPO, CATALOG)
    assert kinds(v) == {READ_BEFORE_WRITE}
    assert v[0].subject == "t0"


def test_two_tasks_sharing_a_core_window_is_core_overlap():
    g = graph([task("t0", 100, outputs=("b0",)),
               task("t1", 100, outputs=("b1",))],
              [buf("b0", "t0"), buf("b1", "t1")])
    s = sched({"t0": (0, 0), "t1": (0, 50)},
              {"b0": (PIPE0, 100, 0), "b1": (PIPE0, 150, 0)})
    v = check_schedule(s, g, TOPO, CATALOG)
    assert kinds(v) == {CORE_OVERLAP}
    assert v[0].subject == "t1"


def test_pattern_outside_buffer_allowance():
    g = chain(allowed_patterns=(PIPE0, PIPE1))
    dur = cost(NEAR0, 1000)
    s = sched({"t0": (0, 0), "t1": (0, 100 + dur)},
              {"b0": (NEAR0, 100, dur), "b1": (PIPE0, 300 + dur, 0)})
    v = check_schedule(s, g, TOPO, CATALOG)
    assert kinds(v) == {PATTERN_VIOLATION}
    assert "not available" in v[0].message


def test_wrong_transfer_duration_is_a_pattern_violation():
    s = sched({"t0": (0, 0), "t1": (0, 105)},
              {"b0": (PIPE0, 100, 5), "b1": (PIPE0, 305, 0)})
    v = check_schedule(s, chain(), TOPO, CATALOG)
    assert kinds(v) == {PATTERN_VIOLATION}
    assert "does not match the pattern cost" in v[0].message


def test_pattern_serving_the_wrong_core():
    # whole chain on core 1, but the transfer uses core 0's pipeline slot
    s = sched({"t0": (1, 0), "t1": (1, 100)},
              {"b0": (PIPE0, 100, 0), "b1": (PIPE1, 300, 0)})
    v = check_schedule(s, chain(), TOPO, CATALOG)
    assert kinds(v) == {PATTERN_VIOLATION}
    assert "serves core 0" in v[0].message


def test_pipeline_observer_on_another_core():
    s = sched({"t0": (0, 0), "t1": (1, 100)},
              {"b0": (PIPE0, 100, 0), "b1": (PIPE1, 300, 0)})
    v = check_schedule(s, chain(), TOPO, CATALOG)
    assert kinds(v) == {PATTERN_VIOLATION}
    assert "pipeline pattern requires observer" in v[0].message


def test_unknown_pattern_name():
    s = clean_chain_schedule()
    s.transfers["b0"] = Transfer("teleport.c_0", 100, 0)
    v = check_schedule(s, chain(), TOPO, CATALOG)
    assert kinds(v) == {PATTERN_VIOLATION}
    assert "unknown pattern" in v[0].message


def test_core_restriction_breach_reports_pattern_violation():
    g = graph([task("t0", 100, outputs=("b0",), allowed_cores=frozenset({1}))],
              [buf("b0", "t0")])
    s = sched({"t0": (0, 0)}, {"b0": (PIPE0, 100, 0)})
    v = check_schedule(s, g, TOPO, CATALOG)
    assert kinds(v) == {PATTERN_VIOLATION}
    assert "restricted to cores [1]" in v[0].message


def test_transfer_before_bound_release_is_a_timing_breach():
    g = chain(release=500)
    v = check_schedule(clean_chain_schedule(), g, TOPO, CATALOG)
    assert kinds(v) == {TIMING_CONSTRAINT}
    assert v[0].subject == "b0"


def test_missed_availability_deadline():
    g = chain(avail_deadline=50)
    v = check_schedule(clean_chain_schedule(), g, TOPO, CATALOG)
    assert kinds(v) == {DEADLINE_MISS}
    assert v[0].subject == "b0"


def test_makespan_over_slot_budget():
    g = graph([task("t0", 100, outputs=("b0",)),
               task("t1", 200, inputs=("b0",), outputs=("b1",))],
              [buf("b0", "t0", observers=("t1",)), buf("b1", "t1")],
              deadline=250)
    v = check_schedule(clean_chain_schedule(), g, TOPO, CATALOG)
    assert kinds(v) == {DEADLINE_MISS}
    assert v[0].subject == "slot"


def test_start_too_far_past_readiness():
    s = sched({"t0": (0, 0), "t1": (0, 200)},
              {"b0": (PIPE0, 100, 0), "b1": (PIPE0, 400, 0)})
    v = check_schedule(s, chain(), TOPO, CATALOG, max_start_lag=0)
    assert kinds(v) == {LAG_VIOLATION}
    assert v[0].subject == "t1"


def test_graph_lag_cap_applies_without_explicit_argument():
    g = chain(); g.max_start_lag = 0
    s = sched({"t0": (0, 0), "t1": (0, 200)},
              {"b0": (PIPE0, 100, 0), "b1": (PIPE0, 400, 0)})
    assert kinds(check_schedule(s, g, TOPO, CATALOG)) == {LAG_VIOLATION}


def test_effective_lag_is_the_tighter_of_graph_and_explicit():
    g = chain(); g.max_start_lag = 5
    assert effective_max_start_lag(g, None) == 5
    assert effective_max_start_lag(g, 3) == 3
    assert effective_max_start_lag(g, 9) == 5
    g.max_start_lag = None
    assert effective_max_start_lag(g, None) is None
    assert effective_max_start_lag(g, 7) == 7


def test_overlapping_transfers_on_contending_patterns():
    g = graph([task("t0", 100, outputs=("b0",)),
               task("t1", 100, outputs=("b1",))],
              [buf("b0", "t0"), buf("b1", "t1")])
    dur = cost(FAR0, 1000)
    s = sched({"t0": (0, 0), "t1": (1, 0)},
              {"b0": (FAR0, 100, dur), "b1": (FAR1, 100, cost(FAR1, 1000))})
    v = check_schedule(s, g, TOPO, CATALOG)
    assert kinds(v) == {TRANSFER_CONTENTION}
    assert v[0].subject == "b0"


def test_serialised_transfers_do_not_contend():
    g = graph([task("t0", 100, outputs=("b0",)),
               task("t1", 100, outputs=("b1",))],
              [buf("b0", "t0"), buf("b1", "t1")])
    dur = cost(FAR0, 1000)
    s = sched({"t0": (0, 0), "t1": (1, 0)},
              {"b0": (FAR0, 100, dur), "b1": (FAR1, 100 + dur, dur)})
    assert check_schedule(s, g, TOPO, CATALOG) == []


def test_zero_duration_transfers_never_contend():
    g = graph([task("t0", 100, outputs=("b0",)),
               task("t1", 100, outputs=("b1",))],
              [buf("b0", "t0"), buf("b1", "t1")])
    s = sched({"t0": (0, 0), "t1": (1, 0)},
              {"b0": (PIPE0, 100, 0), "b1": (PIPE1, 100, 0)})
    assert check_schedule(s, g, TOPO, CATALOG) == []


def test_two_resident_buffers_exceeding_shared_memory():
    # two 5 MB spill buffers co-resident in an 8 MB slice; the transfers
    # themselves are serialised, so only occupancy is at fault
    size = 5_000_000
    dur = cost(FAR0, size)
    g = graph([task("t0", 100, outputs=("b0", "b1")),
               task("t1", 100, inputs=("b0", "b1"))],
              [buf("b0", "t0", size=size, observers=("t1",)),
               buf("b1", "t0", size=size, observers=("t1",))],
              deadline=10_000_000)
    s = sched({"t0": (0, 0), "t1": (1, 100 + 2 * dur)},
              {"b0": (FAR0, 100, dur), "b1": (FAR0, 100 + dur, dur)})
    v = check_schedule(s, g, TOPO, CATALOG)
    assert kinds(v) == {BUFFER_OVERFLOW}
    assert v[0].subject == "L3_0"


def test_scratch_space_counts_against_the_l3_slice():
    g = graph([task("t0", 100, outputs=("b0",), internalsize=9_000_000)],
              [buf("b0", "t0")])
    s = sched({"t0": (0, 0)}, {"b0": (PIPE0, 100, 0)})
    v = check_schedule(s, g, TOPO, CATALOG)
    assert kinds(v) == {BUFFER_OVERFLOW}
    assert v[0].subject == "L3_0"


def test_bound_equation_failure_is_a_timing_breach():
    text = yaml.safe_dump({
        "apiVersion": "rdsl/v0", "kind": "timing equation",
        "metadata": {"name": "Window"},
        "spec": {"equation": "C <= A*2 + B < 200", "C": "xdone",
                 "A": "gain", "B": "base", "unit": "clock"}})
    doc = parse_constraint_stream(text)[0]
    g = chain(labels=("xdone",))
    g.bound_constraints = [doc]
    g.symbol_values = {"gain": 10, "base": 70}      # C=100 > 90
    v = check_schedule(clean_chain_schedule(), g, TOPO, CATALOG)
    assert kinds(v) == {TIMING_CONSTRAINT}
    assert v[0].subject == "Window"
    g.symbol_values = {"gain": 10, "base": 80}      # C=100 <= 100 < 200
    assert check_schedule(clean_chain_schedule(), g, TOPO, CATALOG) == []


def test_bound_equation_with_unresolved_symbol():
    text = yaml.safe_dump({
        "apiVersion": "rdsl/v0", "kind": "timing equation",
        "metadata": {"name": "Window"},
        "spec": {"equation": "C <= A*2 + B < 100", "C": "nolabel",
                 "A": "gain", "B": "base", "unit": "clock"}})
    g = chain()
    g.bound_constraints = [parse_constraint_stream(text)[0]]
    g.symbol_values = {"gain": 1, "base": 1}
    v = check_schedule(clean_chain_schedule(), g, TOPO, CATALOG)
    assert kinds(v) == {TIMING_CONSTRAINT}
    assert "unresolved symbols" in v[0].message


# -- structural errors ---------------------------------------------------------

def test_missing_transfer_raises():
    s = clean_chain_schedule()
    del s.transfers["b1"]
    with pytest.raises(ValueError, match="no transfer for buffer 'b1'"):
        check_schedule(s, chain(), TOPO, CATALOG)


def test_missing_assignment_raises():
    s = clean_chain_schedule()
    del s.assignments["t1"]
    with pytest.raises(ValueError, match="no core/start to task 't1'"):
        check_schedule(s, chain(), TOPO, CATALOG)


def test_unknown_core_raises():
    s = clean_chain_schedule()
    s.assignments["t0"] = (5, 0)
    with pytest.raises(ValueError, match="unknown core 5"):
        check_schedule(s, chain(), TOPO, CATALOG)


# -- helpers and cross-checks ---------------------------------------------------

def test_ready_times_combine_transfers_and_arrivals():
    g = chain()
    g.tasks["t0"] = TaskInstance(
        id="t0", function="t0", runtime=100, internalsize=0, outputs=("b0",),
        external_inputs=(ExternalInput(stream="port", release=77),))
    ready = compute_ready_times(clean_chain_schedule(), g)
    assert ready == {"t0": 77, "t1": 100}


def test_solver_schedules_pass_the_checker():
    from ddtwin.instances import random_instance
    for seed in range(25):
        inst = random_instance(seed)
        res = solve_best_case(inst.graph, inst.topology, inst.catalog,
                              SolveOpts(mode="exact"))
        if res.status in ("optimal", "feasible"):
            assert check_schedule(res.schedule, inst.graph, inst.topology,
                                  inst.catalog) == [], \
                f"seed {seed} produced a violating schedule"
