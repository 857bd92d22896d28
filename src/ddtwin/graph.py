"""Elaborated task graph: the flat, per-slot view the solver consumes."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace


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
    min_start_lag: int = 0


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


def graph_to_dict(graph: TaskGraph) -> dict:
    from .manifests import TimingEquationDoc  # local to avoid a cycle

    def task_dict(t: TaskInstance) -> dict:
        return {
            "id": t.id,
            "function": t.function,
            "runtime": t.runtime,
            "internalsize": t.internalsize,
            "inputs": list(t.inputs),
            "outputs": list(t.outputs),
            "allowed_cores": sorted(t.allowed_cores) if t.allowed_cores is not None else None,
            "external_inputs": [{"stream": e.stream, "release": e.release}
                                for e in t.external_inputs],
            "min_start_lag": t.min_start_lag,
        }

    def buffer_dict(b: Buffer) -> dict:
        return {
            "id": b.id,
            "size": b.size,
            "definer": b.definer,
            "observers": list(b.observers),
            "allowed_patterns": list(b.allowed_patterns),
            "labels": list(b.labels),
            "release": b.release,
            "avail_deadline": b.avail_deadline,
        }

    constraints = []
    for doc in graph.bound_constraints:
        assert isinstance(doc, TimingEquationDoc)
        constraints.append({"name": doc.name, "equation": doc.equation,
                            "bindings": dict(doc.bindings), "unit": doc.unit})
    return {
        "kind": "task_graph",
        "deadline": graph.deadline,
        "max_start_lag": graph.max_start_lag,
        "tasks": [task_dict(t) for t in graph.tasks.values()],
        "buffers": [buffer_dict(b) for b in graph.buffers.values()],
        "bound_constraints": constraints,
        "symbol_values": dict(sorted(graph.symbol_values.items())),
    }


def graph_to_json(graph: TaskGraph) -> str:
    return json.dumps(graph_to_dict(graph), indent=2, sort_keys=False) + "\n"

