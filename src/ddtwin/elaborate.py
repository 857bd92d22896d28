"""Elaboration: expand flow definitions into a flat task graph.

Iterator ranges unroll by full cross product and sub-flows inline
recursively, so the result is one TaskInstance per leaf invocation and
one Buffer per defined stream slot group (the slice a defining binding
covers under one iterator assignment).  Streams are immutable: a slot may
be defined once.  Observers attach to every defined group their observed
slice overlaps (one index tuple is a prefix of the other).

Leaf functions have no flow definition, so binding direction follows the
formal name: ``*_in`` observes, ``*_out`` defines.  Bindings against the
parameters of a nested flow take their direction from the declaration.

``elaborate`` runs ``flows.validate_flows`` first, so each rule that needs
only the flow definitions and the symbol table is checked once, at its
source position, before anything expands; that includes recursion, so
expansion always ends.  What is checked here needs the expansion or the
SDK metadata: metadata for each leaf function, instances that two
instantiations would both name, the slot bookkeeping (a slot defined
twice, observed but never defined, or an input stream written), pattern
names and dependency cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .diagnostics import Diagnostic, DiagnosticError, fail
from .flows import FlowDef, StreamRef, SymbolTable, validate_flows
from .graph import (Buffer, ExternalInput, TaskGraph, TaskInstance,
                    dependencies)
from .hardware import HardwareTopology
from .manifests import (FunctionMetadata, TimingEqualityDoc, TimingEquationDoc,
                        equation_symbols)
from .patterns import PatternCatalog

UNBOUNDED_DEADLINE = 10**15


@dataclass
class _FlatStream:
    external: bool
    labels: tuple[str, ...]


@dataclass
class _SlotRef:
    stream: str
    prefix: tuple[int, ...]


@dataclass
class _Walk:
    streams: dict[str, _FlatStream] = field(default_factory=dict)
    # (stream, slot prefix, leaf task id, binding line, binding column)
    definitions: list[tuple[str, tuple[int, ...], str, int, int]] = field(default_factory=list)
    observations: list[tuple[str, tuple[int, ...], str, int, int]] = field(default_factory=list)
    # leaf task id -> its function's metadata, in expansion order
    task_meta: dict[str, FunctionMetadata] = field(default_factory=dict)
    # every leaf task id and sub-flow path, without its trailing "/"
    instances: set[str] = field(default_factory=set)
    diags: list[Diagnostic] = field(default_factory=list)


def _slot_id(stream: str, idx: tuple[int, ...]) -> str:
    return stream + "".join(f"[{i}]" for i in idx)


def _resolve_ref(ref: StreamRef, env: dict[str, int], actuals: dict[str, _SlotRef],
                 path: str) -> _SlotRef:
    indices = tuple(i if isinstance(i, int) else env[i] for i in ref.indices)
    if ref.stream in actuals:
        base = actuals[ref.stream]
        return _SlotRef(base.stream, base.prefix + indices)
    return _SlotRef(path + ref.stream, indices)


def _expand_flow(flow: FlowDef, path: str, actuals: dict[str, _SlotRef],
                 flows: dict[str, FlowDef], meta: dict[str, FunctionMetadata],
                 symbols: SymbolTable, walk: _Walk) -> None:
    for decl in flow.internals:
        walk.streams[path + decl.name] = _FlatStream(False, tuple(decl.labels))

    for inst in flow.instantiations:
        callee = flows.get(inst.callee)
        fn_meta = meta.get(inst.callee)
        if callee is None and fn_meta is None:
            walk.diags.append(Diagnostic(inst.line, inst.column,
                                         f"no SDK metadata for function {inst.callee!r}"))
            continue
        ranges = [range(symbols.resolve(it.lower), symbols.resolve(it.upper) + 1)
                  for it in inst.iterators]
        for values in itertools.product(*ranges):
            env = {it.var: v for it, v in zip(inst.iterators, values)}
            tag = inst.callee
            if env:
                tag += "[" + ",".join(f"{it.var}={env[it.var]}" for it in inst.iterators) + "]"
            if path + tag in walk.instances:
                walk.diags.append(Diagnostic(inst.line, inst.column,
                                             f"instantiation of {inst.callee!r} repeats instance "
                                             f"{tag!r} of flow {flow.name!r}"))
                break
            walk.instances.add(path + tag)
            resolved = {b.formal: _resolve_ref(b.actual, env, actuals, path)
                        for b in inst.bindings}
            if callee is not None:
                _expand_flow(callee, path + tag + "/", resolved, flows, meta,
                             symbols, walk)
                continue
            task_id = path + tag
            walk.task_meta[task_id] = fn_meta
            # leaf function: direction from the formal name suffix
            for b in inst.bindings:
                slot = resolved[b.formal]
                side = walk.definitions if b.formal.endswith("_out") else walk.observations
                side.append((slot.stream, slot.prefix, task_id, b.line, b.column))


def _prefix_overlap(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def elaborate(defs: list[FlowDef], entry: str, symbols: SymbolTable,
              metadata: list[FunctionMetadata], catalog: PatternCatalog,
              slot_budget: int = UNBOUNDED_DEADLINE) -> TaskGraph:
    """Expand the entry flow into a TaskGraph.

    Runs ``validate_flows`` first, so raises DiagnosticError on every flow
    problem it reports; then on an undefined entry flow, missing function
    metadata, two instantiations naming one instance, double definitions,
    statically read-before-written streams, writes to input streams,
    pattern names absent from the catalog, and dependency cycles.
    """
    validate_flows(defs, symbols)
    flows = {f.name: f for f in defs}
    meta = {m.name: m for m in metadata}
    if entry not in flows:
        raise fail(1, 1, f"entry flow {entry!r} is not defined")
    entry_flow = flows[entry]

    walk = _Walk()
    actuals: dict[str, _SlotRef] = {}
    for decl in entry_flow.params:
        walk.streams[decl.name] = _FlatStream(decl.direction == "in",
                                              tuple(decl.labels))
        actuals[decl.name] = _SlotRef(decl.name, ())
    _expand_flow(entry_flow, "", actuals, flows, meta, symbols, walk)
    if walk.diags:
        # a sub-flow expanded many times repeats its diagnostics verbatim
        raise DiagnosticError(list(dict.fromkeys(walk.diags)))

    diags: list[Diagnostic] = []

    # one buffer per defined slot group; streams are immutable so defined
    # groups on one stream must not overlap
    by_stream: dict[str, list[tuple[tuple[int, ...], str]]] = {}
    buffers: dict[str, Buffer] = {}
    task_inputs: dict[str, list[str]] = {t: [] for t in walk.task_meta}
    task_outputs: dict[str, list[str]] = {t: [] for t in walk.task_meta}
    task_external: dict[str, list[ExternalInput]] = {t: [] for t in walk.task_meta}
    for stream, prefix, task_id, line, column in walk.definitions:
        if walk.streams[stream].external:
            diags.append(Diagnostic(line, column,
                                    f"task {task_id!r} writes input stream {stream!r}"))
            continue
        groups = by_stream.setdefault(stream, [])
        for other_prefix, other_task in groups:
            if _prefix_overlap(prefix, other_prefix):
                diags.append(Diagnostic(line, column,
                                        f"stream slot {_slot_id(stream, prefix)!r} defined by both "
                                        f"{other_task!r} and {task_id!r}"))
        groups.append((prefix, task_id))
        buf_id = _slot_id(stream, prefix)
        buffers[buf_id] = Buffer(id=buf_id, size=walk.task_meta[task_id].elementsize,
                                 definer=task_id, labels=walk.streams[stream].labels)
        task_outputs[task_id].append(buf_id)

    # every record resolves once, whether or not a flow uses its function
    allowed = {name: _resolve_patterns(m, catalog, diags)
               for name, m in meta.items()}

    observer_sets: dict[str, list[str]] = {b: [] for b in buffers}
    for stream, prefix, task_id, line, column in walk.observations:
        matched = False
        for group_prefix, _ in by_stream.get(stream, []):
            if _prefix_overlap(prefix, group_prefix):
                buf_id = _slot_id(stream, group_prefix)
                if task_id not in observer_sets[buf_id]:
                    observer_sets[buf_id].append(task_id)
                    task_inputs[task_id].append(buf_id)
                matched = True
        if matched:
            continue
        if walk.streams[stream].external:
            task_external[task_id].append(ExternalInput(stream=_slot_id(stream, prefix)))
        else:
            diags.append(Diagnostic(line, column,
                                    f"stream slot {_slot_id(stream, prefix)!r} is observed by "
                                    f"{task_id!r} but never defined"))

    if diags:
        raise DiagnosticError(diags)

    for buf_id, observers in observer_sets.items():
        fn_meta = walk.task_meta[buffers[buf_id].definer]
        buffers[buf_id] = replace(buffers[buf_id], observers=tuple(observers),
                                  allowed_patterns=allowed[fn_meta.name])

    tasks: dict[str, TaskInstance] = {}
    for task_id, fn_meta in walk.task_meta.items():
        tasks[task_id] = TaskInstance(
            id=task_id, function=fn_meta.name, runtime=fn_meta.runtime,
            internalsize=fn_meta.internalsize,
            inputs=tuple(task_inputs[task_id]),
            outputs=tuple(task_outputs[task_id]),
            external_inputs=tuple(task_external[task_id]),
        )

    graph = TaskGraph(tasks=tasks, buffers=buffers, deadline=slot_budget)
    cycle = _find_cycle(graph)
    if cycle:
        raise fail(1, 1, "dependency cycle through tasks: " + " -> ".join(cycle))
    return graph


def _resolve_patterns(fn_meta: FunctionMetadata, catalog: PatternCatalog,
                      diags: list[Diagnostic]) -> tuple[str, ...]:
    """The catalog's own spelling of each pattern ``fn_meta`` lists, once
    each, in catalog order."""
    names = fn_meta.available_patterns
    diags.extend(Diagnostic(1, 1, f"function {fn_meta.name!r} lists pattern {name!r} "
                                  f"which is not in the catalog")
                 for name in names if catalog.get(name) is None)
    found = {catalog.index(n) for n in names if catalog.get(n) is not None}
    return tuple(catalog.patterns[i].name for i in sorted(found))


def _find_cycle(graph: TaskGraph) -> list[str]:
    """One dependency cycle, closed (its first task ends it too) and in
    dependency order; empty when there is none."""
    order, preds = dependencies(graph)
    stuck = graph.tasks.keys() - set(order)
    if not stuck:
        return []
    # every task the order leaves out has an input definer it leaves out
    # too, so walking back from one must close a loop
    walked: dict[str, int] = {}
    task_id = min(stuck)
    while task_id not in walked:
        walked[task_id] = len(walked)
        task_id = min(preds[task_id] & stuck)
    loop = list(walked)[walked[task_id]:] + [task_id]
    return loop[::-1]


# ---------------------------------------------------------------------------
# Timing binding


def bind_timing(graph: TaskGraph, docs: list, labels: dict[str, tuple[str, str]],
                equation_values: dict[str, int] | None = None) -> TaskGraph:
    """Attach timing documents to the graph.

    ``modem_period`` pins or caps the deadline; a label-addressed equality
    becomes a release time (ge / equal on an input port) or an availability
    deadline (le on a defined stream); equations are retained for
    evaluation against the finished schedule.
    """
    diags: list[Diagnostic] = []
    deadline = graph.deadline
    pinned: tuple[str, int] | None = None
    tasks = dict(graph.tasks)
    buffers = dict(graph.buffers)
    equation_values = dict(equation_values or {})
    bound: list[TimingEquationDoc] = list(graph.bound_constraints)

    # equation symbols must be evaluable against a finished schedule, so a
    # label only counts if some buffer in this graph actually carries it
    buffer_labels = {lab for b in buffers.values() for lab in b.labels}
    label_values_available = buffer_labels | {"modem_period"} | set(equation_values)

    for doc in docs:
        if isinstance(doc, TimingEqualityDoc):
            if doc.variable_name == "modem_period":
                if doc.op == "equal":
                    if pinned is not None and pinned[1] != doc.value:
                        diags.append(Diagnostic(1, 1,
                                                f"documents {pinned[0]!r} and {doc.name!r} pin "
                                                f"modem_period to different values"))
                    else:
                        pinned = (doc.name, doc.value)
                        deadline = doc.value
                elif doc.op == "le":
                    deadline = min(deadline, doc.value)
                else:
                    diags.append(Diagnostic(1, 1,
                                            f"document {doc.name!r}: 'ge' on modem_period does "
                                            f"not constrain the slot"))
            elif doc.variable_name in labels:
                _bind_label(doc, labels[doc.variable_name], tasks, buffers, diags)
            else:
                diags.append(Diagnostic(1, 1,
                                        f"document {doc.name!r} addresses {doc.variable_name!r}, "
                                        f"which is neither a stream label nor a reserved name"))
        elif isinstance(doc, TimingEquationDoc):
            for symbol in sorted(equation_symbols(doc)):
                if symbol not in label_values_available:
                    diags.append(Diagnostic(1, 1,
                                            f"equation {doc.name!r} reads {symbol!r}, which is "
                                            f"neither a label, modem_period, nor an assigned value"))
            bound.append(doc)

    if diags:
        raise DiagnosticError(diags)
    merged_symbols = dict(graph.symbol_values)
    merged_symbols.update(equation_values)
    return replace(graph, tasks=tasks, buffers=buffers, deadline=deadline,
                   bound_constraints=bound, symbol_values=merged_symbols)


def _bind_label(doc: TimingEqualityDoc, target: tuple[str, str],
                tasks: dict[str, TaskInstance], buffers: dict[str, Buffer],
                diags: list[Diagnostic]) -> None:
    """Decide from ``doc.op`` what the document does, then apply it to
    every labelled buffer or every task reading the labelled port."""
    _, stream = target
    labeled = [b for b in buffers.values() if doc.variable_name in b.labels]
    if labeled:
        if doc.op == "equal":
            diags.append(Diagnostic(1, 1,
                                    f"document {doc.name!r}: 'equal' is ambiguous on the "
                                    f"defined stream {stream!r}; use le or ge"))
        elif doc.op == "le":
            for buf in labeled:
                cap = doc.value if buf.avail_deadline is None else min(buf.avail_deadline, doc.value)
                buffers[buf.id] = replace(buf, avail_deadline=cap)
        else:
            for buf in labeled:
                buffers[buf.id] = replace(buf, release=max(buf.release or 0, doc.value))
        return
    # otherwise the label names an external input port: the relation is its
    # arrival time
    def reads(ext: ExternalInput) -> bool:
        return ext.stream.split("[", 1)[0] == stream

    readers = [t for t in tasks.values() if any(map(reads, t.external_inputs))]
    if not readers:
        diags.append(Diagnostic(1, 1,
                                f"document {doc.name!r}: label {doc.variable_name!r} tags stream "
                                f"{stream!r}, which no task in this graph touches"))
    elif doc.op == "le":
        diags.append(Diagnostic(1, 1,
                                f"document {doc.name!r}: 'le' on input port "
                                f"{stream!r} does not constrain arrival"))
    else:
        for task in readers:
            tasks[task.id] = replace(task, external_inputs=tuple(
                replace(ext, release=max(ext.release, doc.value)) if reads(ext) else ext
                for ext in task.external_inputs))


# ---------------------------------------------------------------------------
# Static checks


@dataclass(frozen=True)
class Finding:
    kind: str
    subject: str
    message: str


def check_static(graph: TaskGraph,
                 topology: HardwareTopology) -> list[Finding]:
    """Non-fatal whole-graph checks; returns findings instead of raising."""
    findings: list[Finding] = []

    if any(t.external_inputs for t in graph.tasks.values()):
        order, preds = dependencies(graph)
        reached: set[str] = set()
        for t in order:
            if graph.tasks[t].external_inputs or not preds[t].isdisjoint(reached):
                reached.add(t)
        for task_id in graph.tasks:
            if task_id not in reached:
                findings.append(Finding("unreachable", task_id,
                                        f"task {task_id!r} has no path from any input"))

    if topology.memories:
        largest = max(m.capacity for m in topology.memories)
        for buf in graph.buffers.values():
            if buf.size > largest:
                findings.append(Finding("guaranteed_overflow", buf.id,
                                        f"buffer {buf.id!r} ({buf.size} bytes) exceeds every "
                                        f"memory capacity (max {largest})"))
    return findings
