"""Exhaustive reference scheduler for tiny instances.

Enumerates every combination of topological task order, core assignment,
and per-buffer pattern choice, simulates each one with straight-line
code, and reports the least makespan, or infeasibility, within the
greedy class that the search in ``solver`` also takes: the tasks are
appended to their cores in list order, and each output transfer is
fitted at its earliest contention-free slot when its definer is placed.
The simulation here is deliberately written independently of the search
(plain lists, quadratic scans, no pruning, no shared placement helpers)
so the two can cross-check each other.

That class does not hold every schedule ``schedule.check_schedule``
accepts, so neither route's optimum or infeasibility is one over all
valid schedules.  A transfer fitted when its definer is placed never
yields to one fitted later.  On ``instances.random_instance(0)``'s
topology and catalog, take A (core 0, 5 cycles), which writes ``a1`` by
pipeline to B (core 0, 1 cycle) and ``a2`` (200 kB, ``L2toL2``, 3,325
cycles) to C (core 1, 1 cycle), while B writes ``b1`` (``L2toL2``, 216
cycles) to D (core 1, 5,000 cycles).  The oracle and the search both
report 8,546 cycles, and the checker accepts, with no violation, a
5,223-cycle schedule that sends ``b1`` at 6 and ``a2`` at 222, so that D
starts at 222 and C at 5,222.

Hard bounds keep the enumeration honest: at most 8 tasks, 2 cores, and
3 pattern choices per buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .graph import TaskGraph
from .hardware import HardwareTopology
from .manifests import equation_symbols, evaluate_timing_equation
from .patterns import PatternCatalog, transfer_cost

MAX_TASKS = 8
MAX_CORES = 2
MAX_PATTERNS_PER_BUFFER = 3


@dataclass(frozen=True)
class OracleResult:
    feasible: bool
    makespan: int | None
    explored: int


def _topological_orders(graph: TaskGraph) -> list[list[str]]:
    preds: dict[str, set[str]] = {t: set() for t in graph.tasks}
    for buf in graph.buffers.values():
        for obs in buf.observers:
            preds[obs].add(buf.definer)

    orders: list[list[str]] = []
    chosen: list[str] = []

    def extend(remaining: set[str]) -> None:
        if not remaining:
            orders.append(list(chosen))
            return
        done = set(chosen)
        for task_id in sorted(remaining):
            if preds[task_id] <= done:
                chosen.append(task_id)
                remaining.remove(task_id)
                extend(remaining)
                remaining.add(task_id)
                chosen.pop()

    extend(set(graph.tasks))
    return orders


def _pattern_ok(pattern, definer_core: int, observer_cores: list[int]) -> bool:
    if pattern.core_hint is not None and pattern.core_hint != definer_core:
        return False
    if pattern.klass == "pipeline":
        return all(c == definer_core for c in observer_cores)
    return True


def brute_force_oracle(graph: TaskGraph, topology: HardwareTopology,
                       catalog: PatternCatalog) -> OracleResult:
    """The least makespan within the greedy class the module docstring
    names, by full enumeration, or infeasible if no schedule in that class
    is valid; not a minimum over every schedule the checker accepts."""
    if len(graph.tasks) > MAX_TASKS:
        raise ValueError(f"oracle refuses {len(graph.tasks)} tasks (max {MAX_TASKS})")
    if len(topology.cores) > MAX_CORES:
        raise ValueError(f"oracle refuses {len(topology.cores)} cores (max {MAX_CORES})")
    for buf in graph.buffers.values():
        if len(buf.allowed_patterns) > MAX_PATTERNS_PER_BUFFER:
            raise ValueError(f"oracle refuses {len(buf.allowed_patterns)} pattern choices "
                             f"on {buf.id!r} (max {MAX_PATTERNS_PER_BUFFER})")

    task_ids = list(graph.tasks)
    core_ids = sorted(c.id for c in topology.cores)
    core_choices: list[list[int]] = []
    for task_id in task_ids:
        allowed = graph.tasks[task_id].allowed_cores
        usable = [c for c in core_ids if allowed is None or c in allowed]
        if not usable:
            return OracleResult(False, None, 0)
        core_choices.append(usable)
    buf_ids = sorted(graph.buffers)

    best: int | None = None
    explored = 0
    orders = _topological_orders(graph)

    for cores in product(*core_choices):
        kappa = dict(zip(task_ids, cores))
        # pattern choices compatible with this placement
        pattern_choices: list[list] = []
        dead = False
        for buf_id in buf_ids:
            buf = graph.buffers[buf_id]
            obs_cores = [kappa[o] for o in buf.observers]
            usable = [catalog.get(name) for name in buf.allowed_patterns]
            usable = [p for p in usable
                      if p is not None and _pattern_ok(p, kappa[buf.definer], obs_cores)]
            if not usable:
                dead = True
                break
            pattern_choices.append(usable)
        if dead:
            continue
        for patterns in product(*pattern_choices):
            rho = dict(zip(buf_ids, patterns))
            for order in orders:
                explored += 1
                span = _simulate(order, kappa, rho, graph, topology, catalog)
                if span is not None and (best is None or span < best):
                    best = span

    if best is None:
        return OracleResult(False, None, explored)
    return OracleResult(True, best, explored)


def _simulate(order: list[str], kappa: dict[str, int], rho: dict,
              graph: TaskGraph, topology: HardwareTopology,
              catalog: PatternCatalog) -> int | None:
    """Greedy replay of one combination; None when any constraint breaks."""
    core_free: dict[int, int] = {}
    finish: dict[str, int] = {}
    transfer_start: dict[str, int] = {}
    transfer_end: dict[str, int] = {}
    placed: list[str] = []

    for task_id in order:
        task = graph.tasks[task_id]
        ready = 0
        for buf_id in task.inputs:
            if buf_id not in transfer_end:
                return None
            ready = max(ready, transfer_end[buf_id])
        for ext in task.external_inputs:
            ready = max(ready, ext.release)
        start = max(ready, core_free.get(kappa[task_id], 0))
        if graph.max_start_lag is not None and start > ready + graph.max_start_lag:
            return None
        end = start + task.runtime
        core_free[kappa[task_id]] = end
        finish[task_id] = end

        for buf_id in task.outputs:
            buf = graph.buffers[buf_id]
            pattern = rho[buf_id]
            duration = transfer_cost(pattern.klass, buf.size, topology.pattern_costs)
            lower = end
            if buf.release is not None:
                lower = max(lower, buf.release)
            start_tr = lower
            if duration > 0:
                moved = True
                while moved:
                    moved = False
                    for other in placed:
                        if transfer_end[other] - transfer_start[other] == 0:
                            continue
                        if not catalog.contends(pattern.name, rho[other].name):
                            continue
                        if (start_tr < transfer_end[other]
                                and transfer_start[other] < start_tr + duration):
                            start_tr = transfer_end[other]
                            moved = True
            transfer_start[buf_id] = start_tr
            transfer_end[buf_id] = start_tr + duration
            placed.append(buf_id)
            if buf.avail_deadline is not None and transfer_end[buf_id] > buf.avail_deadline:
                return None

    span = max(finish.values(), default=0)
    for buf_id in transfer_end:
        span = max(span, transfer_end[buf_id])
    if span > graph.deadline:
        return None

    if not _fits_memory(graph, topology, catalog, kappa, rho, finish,
                        transfer_start, transfer_end):
        return None

    if graph.bound_constraints:
        assignment = dict(graph.symbol_values)
        assignment["modem_period"] = graph.deadline
        for buf in graph.buffers.values():
            for label in buf.labels:
                assignment[label] = max(assignment.get(label, 0),
                                        transfer_end[buf.id])
        for doc in graph.bound_constraints:
            if any(s not in assignment for s in equation_symbols(doc)):
                return None
            if not evaluate_timing_equation(doc, assignment):
                return None
    return span


def _fits_memory(graph: TaskGraph, topology: HardwareTopology,
                 catalog: PatternCatalog, kappa: dict[str, int], rho: dict,
                 finish: dict[str, int], transfer_start: dict[str, int],
                 transfer_end: dict[str, int]) -> bool:
    claims: list[tuple[str, int, int, int]] = []
    for buf in graph.buffers.values():
        pattern = rho[buf.id]
        born = finish[buf.definer]
        last = transfer_end[buf.id]
        for obs in buf.observers:
            last = max(last, finish[obs])
        if pattern.defining_memory == pattern.observing_memory:
            claims.append((pattern.defining_memory, born, last, buf.size))
        else:
            claims.append((pattern.defining_memory, born, transfer_end[buf.id], buf.size))
            claims.append((pattern.observing_memory, transfer_start[buf.id], last, buf.size))
    for task_id, end in finish.items():
        task = graph.tasks[task_id]
        if task.internalsize > 0:
            start = end - task.runtime
            claims.append((topology.core(kappa[task_id]).l3, start, end,
                           task.internalsize))
    for mem_id, start, end, _ in claims:
        if end <= start:
            continue
        total = 0
        for mem2, s2, e2, size2 in claims:
            if mem2 == mem_id and s2 <= start < e2:
                total += size2
        if total > topology.memory(mem_id).capacity:
            return False
    return True
