"""Elaborated task graph: the flat, per-slot view the solver consumes."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from heapq import heapify, heappop, heappush


@dataclass(frozen=True)
class ExternalInput:
    """A flow input slot a task reads; available at ``release`` cycles."""

    stream: str
    release: int = 0


@dataclass(frozen=True)
class TaskInstance:
    id: str
    function: str
    runtime: int
    internalsize: int
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    allowed_cores: frozenset[int] | None = None
    external_inputs: tuple[ExternalInput, ...] = ()


@dataclass(frozen=True)
class Buffer:
    id: str
    size: int
    definer: str
    observers: tuple[str, ...] = ()
    allowed_patterns: tuple[str, ...] = ()
    labels: tuple[str, ...] = ()
    release: int | None = None
    avail_deadline: int | None = None


@dataclass
class TaskGraph:
    """Tasks, buffers, and graph-wide constraints.

    Treated as immutable once built; constraint injection copies the graph
    with ``dataclasses.replace`` on the members it tightens.
    """

    tasks: dict[str, TaskInstance]
    buffers: dict[str, Buffer]
    deadline: int
    max_start_lag: int | None = None
    bound_constraints: list = field(default_factory=list)
    symbol_values: dict[str, int] = field(default_factory=dict)

    def with_task(self, task: TaskInstance) -> "TaskGraph":
        tasks = dict(self.tasks)
        tasks[task.id] = task
        return replace(self, tasks=tasks)

    def with_buffer(self, buf: Buffer) -> "TaskGraph":
        buffers = dict(self.buffers)
        buffers[buf.id] = buf
        return replace(self, buffers=buffers)


def dependencies(graph: TaskGraph) -> tuple[list[str], dict[str, set[str]]]:
    """The tasks in dependency order, the least ready id first, and each
    task's input definers.  A task on or behind a dependency cycle never
    becomes ready, so the order leaves it out."""
    preds: dict[str, set[str]] = {t: set() for t in graph.tasks}
    succ: dict[str, set[str]] = {t: set() for t in graph.tasks}
    for buf in graph.buffers.values():
        for obs in buf.observers:
            preds[obs].add(buf.definer)
            succ[buf.definer].add(obs)
    waiting = {t: len(p) for t, p in preds.items()}
    ready = [t for t, n in waiting.items() if not n]
    heapify(ready)
    order: list[str] = []
    while ready:
        t = heappop(ready)
        order.append(t)
        for s in succ[t]:
            waiting[s] -= 1
            if not waiting[s]:
                heappush(ready, s)
    return order, preds


def graph_to_json(graph: TaskGraph) -> str:
    """The graph as indented JSON: each task's and buffer's fields in
    declaration order, a core set as a sorted list, and each bound
    constraint in ``clock`` cycles, the one unit a manifest accepts."""
    return json.dumps({
        "kind": "task_graph",
        "deadline": graph.deadline,
        "max_start_lag": graph.max_start_lag,
        "tasks": [asdict(t) for t in graph.tasks.values()],
        "buffers": [asdict(b) for b in graph.buffers.values()],
        "bound_constraints": [{"name": doc.name, "equation": doc.equation,
                               "bindings": dict(doc.bindings), "unit": "clock"}
                              for doc in graph.bound_constraints],
        "symbol_values": dict(sorted(graph.symbol_values.items())),
    }, indent=2, default=sorted) + "\n"
