"""Seeded random instances for cross-checking the search against the
exhaustive reference.

Instances stay deliberately tiny: the reference scheduler enumerates
every (order, core map, pattern map) combination, so the generator
bounds that product explicitly and adds chain edges until a draw fits
under it.  All randomness goes through one seed; equal seeds give equal
instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .graph import Buffer, ExternalInput, TaskGraph, TaskInstance
from .hardware import Core, HardwareTopology, Memory
from .patterns import PatternCatalog, generate_patterns_from_topology

MAX_ORACLE_COMBOS = 60_000


@dataclass(frozen=True)
class Instance:
    graph: TaskGraph
    topology: HardwareTopology
    catalog: PatternCatalog


def _count_orders(n: int, preds: list[int]) -> int:
    """Linear extensions of the precedence DAG, DP over subsets."""
    full = (1 << n) - 1
    counts = {0: 1}
    for mask in range(1, full + 1):
        total = 0
        for t in range(n):
            bit = 1 << t
            if mask & bit and (preds[t] & ~(mask ^ bit)) == 0:
                total += counts[mask ^ bit]
        counts[mask] = total
    return counts[full]


def random_instance(seed: int, max_tasks: int = 6) -> Instance:
    rng = random.Random(seed)
    n_cores = 2
    l2_cap = rng.choice([64_000, 256_000, 1_000_000])
    l3_cap = rng.choice([1_000_000, 4_000_000, 16_000_000])
    memories = [Memory(id=f"L2_{c}", level="L2", capacity=l2_cap)
                for c in range(n_cores)]
    memories.append(Memory(id="L3_0", level="L3", capacity=l3_cap))
    memories.append(Memory(id="DDR_0", level="DDR", capacity=1_000_000_000))
    topology = HardwareTopology(
        memories=memories,
        cores=[Core(id=c, l2=f"L2_{c}", l3="L3_0") for c in range(n_cores)])
    catalog = generate_patterns_from_topology(topology)
    names = [p.name for p in catalog]

    n = rng.randint(2, max_tasks)
    # chain backbone keeps the linear-extension count tame
    preds_bits = [0] * n
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        if rng.random() < 0.85:
            edges.add((i - 1, i))
        for j in range(i - 1):
            if rng.random() < 0.25:
                edges.add((j, i))
    for a, b in edges:
        preds_bits[b] |= 1 << a

    pattern_lists = [sorted(rng.sample(names, rng.randint(1, 3)))
                     for _ in range(n)]

    def combos() -> int:
        total = _count_orders(n, preds_bits) * (n_cores ** n)
        for lst in pattern_lists:
            total *= len(lst)
        return total

    candidates = [(a, b) for b in range(1, n) for a in range(b)
                  if not preds_bits[b] & (1 << a)]
    while combos() > MAX_ORACLE_COMBOS and candidates:
        a, b = candidates.pop(0)
        edges.add((a, b))
        preds_bits[b] |= 1 << a

    runtimes = [rng.randint(500, 20_000) for _ in range(n)]
    sizes = [rng.choice([1_000, 5_000, 20_000, 80_000, 200_000]) for _ in range(n)]
    rough = sum(runtimes) + sum(200 + s // 16 for s in sizes)

    tasks: dict[str, TaskInstance] = {}
    buffers: dict[str, Buffer] = {}
    for i in range(n):
        inputs = tuple(f"b{a}" for a in range(i) if (a, i) in edges)
        internal = rng.choice([0, 0, 10_000, 100_000])
        allowed_cores = None
        if rng.random() < 0.2:
            allowed_cores = frozenset({rng.randrange(n_cores)})
        external = ()
        if not inputs:
            external = (ExternalInput(stream=f"port{i}",
                                      release=rng.choice([0, 0, 0, 1_000])),)
        tasks[f"t{i}"] = TaskInstance(
            id=f"t{i}", function=f"fn{i}", runtime=runtimes[i],
            internalsize=internal, inputs=inputs, outputs=(f"b{i}",),
            allowed_cores=allowed_cores, external_inputs=external)
        observers = tuple(f"t{j}" for j in range(i + 1, n) if (i, j) in edges)
        release = rng.randint(0, 5_000) if rng.random() < 0.1 else None
        avail = None
        if rng.random() < 0.15:
            avail = int(rough * rng.uniform(0.5, 1.5))
        buffers[f"b{i}"] = Buffer(
            id=f"b{i}", size=sizes[i], definer=f"t{i}", observers=observers,
            allowed_patterns=tuple(pattern_lists[i]),
            release=release, avail_deadline=avail)

    deadline = max(1, int(rough * rng.uniform(0.3, 1.5)))
    graph = TaskGraph(tasks=tasks, buffers=buffers, deadline=deadline)
    return Instance(graph=graph, topology=topology, catalog=catalog)


def replicated_instance(seed: int) -> Instance:
    """``random_instance(seed, max_tasks=4)`` with one task cloned once or
    twice.  A clone has the task's inputs, runtime and constraints, its
    external inputs under other stream names, and output buffers like the
    task's, read by the same observers, so the task and its clones are
    interchangeable.  Clones are dropped while the reference's enumeration
    would exceed ``MAX_ORACLE_COMBOS``."""
    inst = random_instance(seed, max_tasks=4)
    rng = random.Random(f"replicated-{seed}")
    original = inst.graph.tasks[rng.choice(sorted(inst.graph.tasks))]
    n_cores = len(inst.topology.cores)
    for copies in range(rng.randint(1, 2), 0, -1):
        graph = inst.graph
        for k in range(1, copies + 1):
            graph = _with_clone(graph, original, f"c{k}")
        if _oracle_combos(graph, n_cores) <= MAX_ORACLE_COMBOS:
            return replace(inst, graph=graph)
    return inst


def _with_clone(graph: TaskGraph, task: TaskInstance, suffix: str) -> TaskGraph:
    """``graph`` plus a copy of ``task`` named ``task.id + suffix``, whose
    outputs (named the same way) have the originals' observers."""
    clone_id = task.id + suffix
    for buf_id in task.inputs:
        buf = graph.buffers[buf_id]
        graph = graph.with_buffer(replace(buf, observers=buf.observers + (clone_id,)))
    for buf_id in task.outputs:
        buf = graph.buffers[buf_id]
        graph = graph.with_buffer(replace(buf, id=buf_id + suffix,
                                          definer=clone_id))
        for obs in buf.observers:
            reader = graph.tasks[obs]
            graph = graph.with_task(replace(
                reader, inputs=reader.inputs + (buf_id + suffix,)))
    return graph.with_task(replace(
        task, id=clone_id, outputs=tuple(b + suffix for b in task.outputs),
        external_inputs=tuple(replace(e, stream=e.stream + suffix)
                              for e in task.external_inputs)))


def _oracle_combos(graph: TaskGraph, n_cores: int) -> int:
    """(order, core map, pattern map) combinations the reference enumerates
    for ``graph``, at most."""
    index = {t: i for i, t in enumerate(graph.tasks)}
    preds = [0] * len(index)
    total = n_cores ** len(index)
    for buf in graph.buffers.values():
        total *= len(buf.allowed_patterns)
        for obs in buf.observers:
            preds[index[obs]] |= 1 << index[buf.definer]
    return _count_orders(len(index), preds) * total


TIGHTEN_OPS = ("deadline", "patterns", "cores", "size", "runtime")


def tighten_instance(inst: Instance, seed: int) -> Instance:
    """One random constraint tightening; solutions of the result are a
    subset of (or dominated by) the original's, so the best case can only
    get worse or vanish."""
    rng = random.Random(seed)
    graph = inst.graph
    op = rng.choice(TIGHTEN_OPS)
    if op == "deadline":
        graph = replace(graph, deadline=max(1, graph.deadline * 4 // 5))
    elif op == "patterns":
        buf_id = rng.choice(sorted(graph.buffers))
        buf = graph.buffers[buf_id]
        if len(buf.allowed_patterns) > 1:
            keep = sorted(rng.sample(list(buf.allowed_patterns),
                                     len(buf.allowed_patterns) - 1))
            graph = graph.with_buffer(replace(buf, allowed_patterns=tuple(keep)))
    elif op == "cores":
        task_id = rng.choice(sorted(graph.tasks))
        task = graph.tasks[task_id]
        pool = sorted(task.allowed_cores) if task.allowed_cores is not None \
            else sorted(c.id for c in inst.topology.cores)
        if len(pool) > 1:
            graph = graph.with_task(replace(
                task, allowed_cores=frozenset({rng.choice(pool)})))
    elif op == "size":
        buf_id = rng.choice(sorted(graph.buffers))
        buf = graph.buffers[buf_id]
        graph = graph.with_buffer(replace(buf, size=buf.size * 2))
    elif op == "runtime":
        task_id = rng.choice(sorted(graph.tasks))
        task = graph.tasks[task_id]
        graph = graph.with_task(replace(
            task, runtime=task.runtime + rng.randint(500, 10_000)))
    return Instance(graph=graph, topology=inst.topology, catalog=inst.catalog)
