"""Schedule representation and the constraint checker.

A schedule fixes, for every task, a core and a start cycle, and for every
buffer a communication pattern plus the cycle its transfer begins.  The
checker replays those decisions against the task graph, the hardware
topology, and the pattern catalog, and reports every constraint breach as
a typed Violation.  An empty report means the schedule is feasible.

Transfers are explicit decision variables rather than a side effect of
the defining task: a transfer may be deferred past the definer's finish
to dodge a contending pattern, at the price of later observer starts.
Every buffer is transferred exactly once, observers or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import TaskGraph
from .hardware import HardwareTopology
from .manifests import equation_symbols, evaluate_timing_equation
from .patterns import PatternCatalog, transfer_cost

READ_BEFORE_WRITE = "READ_BEFORE_WRITE"
BUFFER_OVERFLOW = "BUFFER_OVERFLOW"
DEADLINE_MISS = "DEADLINE_MISS"
CORE_OVERLAP = "CORE_OVERLAP"
PATTERN_VIOLATION = "PATTERN_VIOLATION"
LAG_VIOLATION = "LAG_VIOLATION"
TRANSFER_CONTENTION = "TRANSFER_CONTENTION"
TIMING_CONSTRAINT = "TIMING_CONSTRAINT"

VIOLATION_KINDS = (
    READ_BEFORE_WRITE, BUFFER_OVERFLOW, DEADLINE_MISS, CORE_OVERLAP,
    PATTERN_VIOLATION, LAG_VIOLATION, TRANSFER_CONTENTION, TIMING_CONSTRAINT,
)


@dataclass(frozen=True)
class Violation:
    kind: str
    subject: str
    message: str
    time: int | None = None

    def render(self) -> str:
        at = f" @ {self.time}" if self.time is not None else ""
        return f"{self.kind}[{self.subject}]{at}: {self.message}"


@dataclass(frozen=True)
class Transfer:
    pattern: str
    start: int
    duration: int

    @property
    def end(self) -> int:
        return self.start + self.duration


@dataclass
class Schedule:
    assignments: dict[str, tuple[int, int]] = field(default_factory=dict)
    transfers: dict[str, Transfer] = field(default_factory=dict)

    def core_of(self, task_id: str) -> int:
        return self.assignments[task_id][0]

    def start_of(self, task_id: str) -> int:
        return self.assignments[task_id][1]

    def finish_of(self, task_id: str, graph: TaskGraph) -> int:
        return self.start_of(task_id) + graph.tasks[task_id].runtime

    def makespan(self, graph: TaskGraph) -> int:
        span = 0
        for task_id in self.assignments:
            span = max(span, self.finish_of(task_id, graph))
        for tr in self.transfers.values():
            span = max(span, tr.end)
        return span


def effective_max_start_lag(graph: TaskGraph, explicit: int | None) -> int | None:
    """Tightest of the graph-level lag cap and an explicitly passed one."""
    if graph.max_start_lag is None:
        return explicit
    if explicit is None:
        return graph.max_start_lag
    return min(graph.max_start_lag, explicit)


def compute_ready_times(schedule: Schedule, graph: TaskGraph) -> dict[str, int]:
    """Earliest data-ready cycle per task: all input transfers landed and
    all external inputs arrived."""
    ready: dict[str, int] = {}
    for task in graph.tasks.values():
        t = 0
        for buf_id in task.inputs:
            tr = schedule.transfers.get(buf_id)
            if tr is not None:
                t = max(t, tr.end)
        for ext in task.external_inputs:
            t = max(t, ext.release)
        ready[task.id] = t
    return ready


def equation_assignment(schedule: Schedule, graph: TaskGraph) -> dict[str, int]:
    """Symbol values for bound timing equations: availability cycle of
    each labeled buffer, the slot period, and configured constants."""
    assignment: dict[str, int] = dict(graph.symbol_values)
    assignment["modem_period"] = graph.deadline
    for buf in graph.buffers.values():
        tr = schedule.transfers.get(buf.id)
        if tr is None:
            continue
        for label in buf.labels:
            assignment[label] = max(assignment.get(label, 0), tr.end)
    return assignment


def _overlap(a_start: int, a_end: int, b_start: int, b_end: int) -> bool:
    return a_start < b_end and b_start < a_end


def check_schedule(schedule: Schedule, graph: TaskGraph,
                   topology: HardwareTopology, catalog: PatternCatalog,
                   max_start_lag: int | None = None) -> list[Violation]:
    """Replay a complete schedule and report every violated constraint.

    Raises ValueError for structurally incomplete schedules (a task with
    no assignment or a buffer with no transfer): those are caller bugs,
    not modelled constraint breaches.
    """
    for task_id in graph.tasks:
        if task_id not in schedule.assignments:
            raise ValueError(f"schedule assigns no core/start to task {task_id!r}")
    for buf_id in graph.buffers:
        if buf_id not in schedule.transfers:
            raise ValueError(f"schedule places no transfer for buffer {buf_id!r}")
    core_ids = {c.id for c in topology.cores}
    max_start_lag = effective_max_start_lag(graph, max_start_lag)

    out: list[Violation] = []
    finish = {t: schedule.finish_of(t, graph) for t in graph.tasks}

    # core exclusivity and placement restrictions
    by_core: dict[int, list[str]] = {}
    for task_id, (core, start) in schedule.assignments.items():
        if core not in core_ids:
            raise ValueError(f"task {task_id!r} assigned to unknown core {core}")
        task = graph.tasks[task_id]
        if task.allowed_cores is not None and core not in task.allowed_cores:
            out.append(Violation(PATTERN_VIOLATION, task_id,
                                 f"task restricted to cores {sorted(task.allowed_cores)} "
                                 f"but placed on core {core}", start))
        by_core.setdefault(core, []).append(task_id)
    for core, members in by_core.items():
        members.sort(key=lambda t: (schedule.start_of(t), t))
        for prev, cur in zip(members, members[1:]):
            if schedule.start_of(cur) < finish[prev]:
                out.append(Violation(CORE_OVERLAP, cur,
                                     f"overlaps {prev!r} on core {core} "
                                     f"({schedule.start_of(cur)} < {finish[prev]})",
                                     schedule.start_of(cur)))

    # per-buffer transfer legality
    for buf in graph.buffers.values():
        tr = schedule.transfers[buf.id]
        pattern = catalog.get(tr.pattern)
        if pattern is None:
            out.append(Violation(PATTERN_VIOLATION, buf.id,
                                 f"transfer uses unknown pattern {tr.pattern!r}"))
            continue
        if all(catalog.get(n) is not pattern for n in buf.allowed_patterns):
            out.append(Violation(PATTERN_VIOLATION, buf.id,
                                 f"pattern {pattern.name!r} is not available to the "
                                 f"defining function"))
        expect = transfer_cost(pattern.klass, buf.size, topology.pattern_costs)
        if tr.duration != expect:
            out.append(Violation(PATTERN_VIOLATION, buf.id,
                                 f"transfer duration {tr.duration} does not match the "
                                 f"pattern cost {expect}"))
        definer_core = schedule.core_of(buf.definer)
        if pattern.core_hint is not None and pattern.core_hint != definer_core:
            out.append(Violation(PATTERN_VIOLATION, buf.id,
                                 f"pattern {pattern.name!r} serves core {pattern.core_hint} "
                                 f"but the definer runs on core {definer_core}"))
        if pattern.klass == "pipeline":
            for obs in buf.observers:
                if schedule.core_of(obs) != definer_core:
                    out.append(Violation(PATTERN_VIOLATION, buf.id,
                                         f"pipeline pattern requires observer {obs!r} on "
                                         f"core {definer_core}, got "
                                         f"{schedule.core_of(obs)}"))
        if tr.start < finish[buf.definer]:
            out.append(Violation(READ_BEFORE_WRITE, buf.id,
                                 f"transfer starts at {tr.start} before the definer "
                                 f"finishes at {finish[buf.definer]}", tr.start))
        if buf.release is not None and tr.start < buf.release:
            out.append(Violation(TIMING_CONSTRAINT, buf.id,
                                 f"transfer starts at {tr.start} before the bound "
                                 f"release {buf.release}", tr.start))
        if buf.avail_deadline is not None and tr.end > buf.avail_deadline:
            out.append(Violation(DEADLINE_MISS, buf.id,
                                 f"data available at {tr.end}, bound requires "
                                 f"{buf.avail_deadline}", tr.end))

    # pairwise contention between transfers on conflicting patterns
    buf_ids = sorted(graph.buffers)
    for i, a_id in enumerate(buf_ids):
        a = schedule.transfers[a_id]
        if a.duration == 0:
            continue
        for b_id in buf_ids[i + 1:]:
            b = schedule.transfers[b_id]
            if b.duration == 0:
                continue
            if not _overlap(a.start, a.end, b.start, b.end):
                continue
            if catalog.get(a.pattern) is None or catalog.get(b.pattern) is None:
                continue
            if catalog.contends(a.pattern, b.pattern):
                out.append(Violation(TRANSFER_CONTENTION, a_id,
                                     f"transfer overlaps {b_id!r} on conflicting patterns "
                                     f"{a.pattern!r} / {b.pattern!r}",
                                     max(a.start, b.start)))

    # data readiness and start-lag window per task
    ready = compute_ready_times(schedule, graph)
    for task in graph.tasks.values():
        start = schedule.start_of(task.id)
        for buf_id in task.inputs:
            tr = schedule.transfers[buf_id]
            if start < tr.end:
                out.append(Violation(READ_BEFORE_WRITE, task.id,
                                     f"starts at {start} before input {buf_id!r} lands "
                                     f"at {tr.end}", start))
        for ext in task.external_inputs:
            if start < ext.release:
                out.append(Violation(READ_BEFORE_WRITE, task.id,
                                     f"starts at {start} before external input "
                                     f"{ext.stream!r} arrives at {ext.release}", start))
        if max_start_lag is not None:
            limit = ready[task.id] + max_start_lag
            if start > limit:
                out.append(Violation(LAG_VIOLATION, task.id,
                                     f"starts at {start}, more than {max_start_lag} past "
                                     f"readiness {ready[task.id]}", start))

    out.extend(_check_residency(schedule, graph, topology, catalog, finish))

    span = schedule.makespan(graph)
    if span > graph.deadline:
        out.append(Violation(DEADLINE_MISS, "slot",
                             f"makespan {span} exceeds the slot budget {graph.deadline}",
                             span))

    assignment = equation_assignment(schedule, graph)
    for doc in graph.bound_constraints:
        missing = [s for s in sorted(equation_symbols(doc)) if s not in assignment]
        if missing:
            out.append(Violation(TIMING_CONSTRAINT, doc.name,
                                 f"equation reads unresolved symbols {missing}"))
            continue
        if not evaluate_timing_equation(doc, assignment):
            shown = {s: assignment[s] for s in sorted(equation_symbols(doc))}
            out.append(Violation(TIMING_CONSTRAINT, doc.name,
                                 f"equation {doc.equation!r} fails under {shown}"))
    return out


def _check_residency(schedule: Schedule, graph: TaskGraph,
                     topology: HardwareTopology, catalog: PatternCatalog,
                     finish: dict[str, int]) -> list[Violation]:
    """Sweep per-memory occupancy.  A buffer occupies the pattern's
    defining memory from the definer's finish until the transfer ends and
    the observing memory from transfer start until its last observer
    finishes; a task's scratch space occupies the L3 slice attached to
    its core for the task's whole run."""
    intervals: dict[str, list[tuple[int, int, int, str]]] = {}

    def claim(mem_id: str, start: int, end: int, size: int, subject: str) -> None:
        if end <= start or size <= 0:
            return
        intervals.setdefault(mem_id, []).append((start, end, size, subject))

    for buf in graph.buffers.values():
        tr = schedule.transfers[buf.id]
        pattern = catalog.get(tr.pattern)
        if pattern is None:
            continue
        born = finish[buf.definer]
        last_read = max((finish[o] for o in buf.observers), default=tr.end)
        if pattern.defining_memory == pattern.observing_memory:
            claim(pattern.defining_memory, born, max(tr.end, last_read), buf.size, buf.id)
        else:
            claim(pattern.defining_memory, born, tr.end, buf.size, buf.id)
            claim(pattern.observing_memory, tr.start, max(tr.end, last_read),
                  buf.size, buf.id)

    for task_id, (core_id, start) in schedule.assignments.items():
        task = graph.tasks[task_id]
        if task.internalsize > 0:
            claim(topology.core(core_id).l3, start, finish[task_id],
                  task.internalsize, task_id)

    out: list[Violation] = []
    for mem_id, claims in sorted(intervals.items()):
        capacity = topology.memory(mem_id).capacity
        events: list[tuple[int, int, int]] = []
        for start, end, size, _ in claims:
            events.append((start, 1, size))
            events.append((end, 0, -size))
        events.sort()
        level = 0
        reported = False
        for time, _, delta in events:
            level += delta
            if level > capacity and not reported:
                out.append(Violation(BUFFER_OVERFLOW, mem_id,
                                     f"occupancy {level} exceeds capacity {capacity}",
                                     time))
                reported = True
        # one violation per memory keeps reports readable
    return out
