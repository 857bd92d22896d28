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


def graph_from_dict(data: dict) -> TaskGraph:
    from .manifests import TimingEquationDoc

    tasks = {}
    for t in data.get("tasks", []):
        cores = t.get("allowed_cores")
        tasks[t["id"]] = TaskInstance(
            id=t["id"], function=t["function"], runtime=t["runtime"],
            internalsize=t.get("internalsize", 0),
            inputs=tuple(t.get("inputs", ())),
            outputs=tuple(t.get("outputs", ())),
            allowed_cores=frozenset(cores) if cores is not None else None,
            external_inputs=tuple(ExternalInput(e["stream"], e.get("release", 0))
                                  for e in t.get("external_inputs", ())),
            min_start_lag=t.get("min_start_lag", 0),
        )
    buffers = {}
    for b in data.get("buffers", []):
        buffers[b["id"]] = Buffer(
            id=b["id"], size=b["size"], definer=b["definer"],
            observers=tuple(b.get("observers", ())),
            allowed_patterns=tuple(b.get("allowed_patterns", ())),
            labels=tuple(b.get("labels", ())),
            release=b.get("release"),
            avail_deadline=b.get("avail_deadline"),
        )
    constraints = [TimingEquationDoc(name=c["name"], equation=c["equation"],
                                     bindings=dict(c.get("bindings", {})),
                                     unit=c.get("unit", "clock"))
                   for c in data.get("bound_constraints", [])]
    return TaskGraph(tasks=tasks, buffers=buffers,
                     deadline=data.get("deadline", 0),
                     max_start_lag=data.get("max_start_lag"),
                     bound_constraints=constraints,
                     symbol_values=dict(data.get("symbol_values", {})))


def graph_to_json(graph: TaskGraph) -> str:
    return json.dumps(graph_to_dict(graph), indent=2, sort_keys=False) + "\n"


def graph_from_json(text: str) -> TaskGraph:
    return graph_from_dict(json.loads(text))
