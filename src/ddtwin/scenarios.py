"""What-if scenario engine: constraint injections over an elaborated graph.

A scenario bundles a set of constraint injections (evict buffers to DDR,
pin tasks to cores, cap scheduling slack, shrink the slot, clone a flow)
and reports how the best-case latency moves against a baseline solve.
All but the flow clone only remove options: each schedule of the
injected graph is a schedule of the baseline graph with the same timing,
so the scenario's optimum is at least the baseline's.  A delta is
therefore non-negative when the baseline is proven.  When the node
budget cut the baseline's search short, a narrowing scenario may still
hold a better schedule than the baseline found; a run folds each such
scenario's seed into the baseline before any row is graded, so the one
way left to a negative delta is a schedule that a scenario's *search*
finds and the baseline's search misses.  A cloned flow adds work, and no
such bound holds for it.

``run_scenarios`` takes the scenario files' specs and carries out a whole
run, in this order: it enumerates the families, refuses the bad specs
all at once, seeds the baseline and every spec with injections, folds
the best checked narrowing seed into the baseline's incumbent, solves
the baseline from it, stops unless it has a schedule, and grades each
spec with ``evaluate_scenario`` from the spec's own seed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

from .diagnostics import Diagnostic, DiagnosticError, fail
from .documents import (at_field, integer, known_keys, list_of, mark,
                        read_stream, section, typed)
from .graph import TaskGraph
from .hardware import HardwareTopology
from .patterns import PatternCatalog
from .schedule import check_schedule
from .solver import (Incumbent, SearchPlan, SolveOpts, SolveOutcome,
                     no_verdict, seed_best_case, solve_best_case)

EVICT_BUFFER = "EVICT_BUFFER"
PIN_TASKS = "PIN_TASKS"
START_LAG = "START_LAG"
ADD_FLOW = "ADD_FLOW"
TIGHTEN_DEADLINE = "TIGHTEN_DEADLINE"

INJECTION_KINDS = (EVICT_BUFFER, PIN_TASKS, START_LAG, ADD_FLOW,
                   TIGHTEN_DEADLINE)
# the kinds that only remove options: no schedule of the injected graph
# beats the baseline's optimum
NARROWING_KINDS = frozenset((EVICT_BUFFER, PIN_TASKS, START_LAG,
                             TIGHTEN_DEADLINE))

RISK_HIGH = "HIGH"
RISK_MODERATE = "MODERATE"
RISK_LOW = "LOW"
RISK_CERTAIN_FAILURE = "CERTAIN_FAILURE"

RISK_LEVELS = (RISK_HIGH, RISK_MODERATE, RISK_LOW, RISK_CERTAIN_FAILURE)

CSV_HEADER = "strategy,latency_cycles,delta_pct,risk"

_DDR_CLASS = "big_delay"


@dataclass(frozen=True)
class Injection:
    """One constraint tightening.

    ``targets`` hold selectors resolved against the graph at apply time:
    buffer ids or function names for EVICT_BUFFER; task ids, task-id
    prefixes, or function names for PIN_TASKS; instance prefixes for
    ADD_FLOW.  ``cores`` is the pin set for PIN_TASKS.  ``value`` is the
    lag cap, the new deadline, or the flow copy count.
    """

    kind: str
    targets: tuple[str, ...] = ()
    cores: frozenset[int] | None = None
    value: int | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    injections: tuple[Injection, ...] = ()


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    latency: int | None            # None iff the injected graph is infeasible
    delta_pct: int | None
    risk: str
    baseline_latency: int
    note: str = ""


HIGH_RISK_PCT = 50
MODERATE_RISK_PCT = 15
FLOOR_PCT = 5                      # deltas under this are not worth testing
SMALL_BUFFER_BYTES = 10_000        # the evict-small / evict-large split


def classify_risk(delta_pct: int) -> str:
    if delta_pct >= HIGH_RISK_PCT:
        return RISK_HIGH
    if delta_pct >= MODERATE_RISK_PCT:
        return RISK_MODERATE
    return RISK_LOW


def latency_delta_pct(latency: int, baseline: int) -> int:
    """Percent increase over baseline, rounded half up to an integer."""
    if baseline <= 0:
        raise fail(1, 1, f"baseline latency must be positive, got {baseline}")
    return (200 * (latency - baseline) + baseline) // (2 * baseline)


# -- selector resolution ----------------------------------------------------

def resolve_buffer_targets(graph: TaskGraph,
                           targets: tuple[str, ...]) -> tuple[str, ...]:
    """Buffer ids for each selector: a buffer id, or a function name
    matching the output buffers of every task running that function."""
    out: list[str] = []
    for sel in targets:
        matched = [sel] if sel in graph.buffers else [
            buf_id for task in graph.tasks.values() if task.function == sel
            for buf_id in task.outputs]
        if not matched:
            raise fail(1, 1, f"injection target {sel!r} matches no buffer "
                             f"or function in the graph")
        out.extend(matched)
    return tuple(dict.fromkeys(out))


def resolve_task_targets(graph: TaskGraph,
                         targets: tuple[str, ...]) -> tuple[str, ...]:
    """Task ids for each selector, trying exact id, then function name,
    then task-id prefix."""
    out: list[str] = []
    for sel in targets:
        matched = [sel] if sel in graph.tasks else (
            [tid for tid, task in graph.tasks.items() if task.function == sel]
            or [tid for tid in graph.tasks if tid.startswith(sel)])
        if not matched:
            raise fail(1, 1, f"injection target {sel!r} matches no task, "
                             f"function, or task-id prefix in the graph")
        out.extend(matched)
    return tuple(dict.fromkeys(out))


# -- applying injections ----------------------------------------------------

def apply_injections(graph: TaskGraph, injections: tuple[Injection, ...],
                     catalog: PatternCatalog) -> TaskGraph:
    """A copy of ``graph`` with every injection applied, in order; the
    reader has checked each kind and the fields it requires."""
    for inj in injections:
        if inj.kind == EVICT_BUFFER:
            graph = _apply_evict(graph, inj, catalog)
        elif inj.kind == PIN_TASKS:
            graph = _apply_pin(graph, inj)
        elif inj.kind == START_LAG:
            graph = _apply_start_lag(graph, inj)
        elif inj.kind == ADD_FLOW:
            graph = _apply_add_flow(graph, inj)
        elif inj.kind == TIGHTEN_DEADLINE:
            graph = _apply_tighten_deadline(graph, inj)
    return graph


def apply_scenarios(file_specs: list[ScenarioSpec], graph: TaskGraph,
                    catalog: PatternCatalog
                    ) -> list[tuple[ScenarioSpec, TaskGraph]]:
    """``file_specs`` and then the families of ``graph``, each paired with
    ``graph`` under its injections, keeping only the first spec of each
    injection set.  Two kept specs may not share a name, since a row is
    known by its name alone.

    Every spec is applied before any refusal is raised, so one
    DiagnosticError reports them all; each of its diagnostics names its
    scenario.
    """
    applied, refused, names = [], [], set()
    for spec in _unique_specs(file_specs + enumerate_scenarios(graph, catalog)):
        if spec.name in names:
            refused.append(Diagnostic(1, 1, f"scenario {spec.name!r}: an "
                                            f"earlier scenario has this name"))
        names.add(spec.name)
        try:
            applied.append(
                (spec, apply_injections(graph, spec.injections, catalog)))
        except DiagnosticError as exc:
            refused += [replace(d, message=f"scenario {spec.name!r}: "
                                           f"{d.message}")
                        for d in exc.diagnostics]
    if refused:
        raise DiagnosticError(refused)
    return applied


def _apply_evict(graph: TaskGraph, inj: Injection,
                 catalog: PatternCatalog) -> TaskGraph:
    for buf_id in resolve_buffer_targets(graph, inj.targets):
        buf = graph.buffers[buf_id]
        kept = tuple(p for p in buf.allowed_patterns
                     if catalog.lookup(p).klass == _DDR_CLASS)
        if not kept:
            raise fail(1, 1, f"evicting {buf_id!r} leaves no DDR-capable "
                             f"pattern; it cannot be forced off-chip")
        graph = graph.with_buffer(replace(buf, allowed_patterns=kept))
    return graph


def _apply_pin(graph: TaskGraph, inj: Injection) -> TaskGraph:
    pin = inj.cores
    if not pin:
        raise fail(1, 1, "PIN_TASKS requires a non-empty core set")
    for tid in resolve_task_targets(graph, inj.targets):
        task = graph.tasks[tid]
        allowed = pin if task.allowed_cores is None else task.allowed_cores & pin
        # an empty intersection is kept: the solver reports it infeasible
        graph = graph.with_task(replace(task, allowed_cores=allowed))
    return graph


def _apply_start_lag(graph: TaskGraph, inj: Injection) -> TaskGraph:
    if inj.value < 0:
        raise fail(1, 1, "START_LAG requires a non-negative cycle cap")
    cap = inj.value
    if graph.max_start_lag is not None:
        cap = min(graph.max_start_lag, cap)
    return replace(graph, max_start_lag=cap)


def _apply_tighten_deadline(graph: TaskGraph, inj: Injection) -> TaskGraph:
    if inj.value <= 0:
        raise fail(1, 1, "TIGHTEN_DEADLINE requires a positive cycle count")
    return replace(graph, deadline=min(graph.deadline, inj.value))


def _boundary_buffers(graph: TaskGraph, members: set[str]) -> list[str]:
    """Buffers with a definer or observer inside ``members`` and another
    endpoint outside; these block cloning the member set."""
    crossing = []
    for buf in graph.buffers.values():
        endpoints = [buf.definer in members]
        endpoints.extend(obs in members for obs in buf.observers)
        if any(endpoints) and not all(endpoints):
            crossing.append(buf.id)
    return crossing


def _apply_add_flow(graph: TaskGraph, inj: Injection) -> TaskGraph:
    copies = 1 if inj.value is None else inj.value
    if copies < 1:
        raise fail(1, 1, "ADD_FLOW requires a copy count of at least 1")
    for prefix in inj.targets:
        graph = _clone_subgraph(graph, prefix, copies)
    return graph


def _clone_subgraph(graph: TaskGraph, prefix: str, copies: int) -> TaskGraph:
    if not prefix.endswith("/"):
        prefix = prefix + "/"
    member_tasks = [tid for tid in graph.tasks if tid.startswith(prefix)]
    if not member_tasks:
        raise fail(1, 1, f"injection target {prefix!r} matches no task-id "
                         f"prefix in the graph")
    members = set(member_tasks)
    crossing = _boundary_buffers(graph, members)
    if crossing:
        raise fail(1, 1, f"flow {prefix!r} shares buffers with the rest of the "
                         f"graph ({', '.join(sorted(crossing)[:4])}); it cannot "
                         f"be cloned in isolation")
    inside_bufs = [buf.id for buf in graph.buffers.values()
                   if buf.definer in members]

    existing = set(graph.tasks)
    made = 0
    serial = 0
    while made < copies:
        serial += 1
        new_prefix = f"{prefix[:-1]}~copy{serial}/"
        if any(tid.startswith(new_prefix) for tid in existing):
            continue

        def rename(name: str) -> str:
            if name.startswith(prefix):
                return new_prefix + name[len(prefix):]
            return new_prefix + name

        tasks = dict(graph.tasks)
        buffers = dict(graph.buffers)
        for tid in member_tasks:
            task = graph.tasks[tid]
            tasks[rename(tid)] = replace(
                task, id=rename(tid),
                inputs=tuple(rename(b) for b in task.inputs),
                outputs=tuple(rename(b) for b in task.outputs))
        for buf_id in inside_bufs:
            buf = graph.buffers[buf_id]
            buffers[rename(buf_id)] = replace(
                buf, id=rename(buf_id),
                definer=rename(buf.definer),
                observers=tuple(rename(o) for o in buf.observers))
        graph = replace(graph, tasks=tasks, buffers=buffers)
        existing = set(tasks)
        made += 1
    return graph


# -- evaluation -------------------------------------------------------------

def _narrowing(spec: ScenarioSpec) -> bool:
    return bool(spec.injections) and all(
        inj.kind in NARROWING_KINDS for inj in spec.injections)


@dataclass(frozen=True)
class ScenarioRun:
    """What ``run_scenarios`` found: the baseline's solve, the ranked rows
    (none unless the baseline has a schedule), the spec whose seed the
    baseline started from, and the makespan of the baseline's own seed."""

    baseline: SolveOutcome
    rows: list[ScenarioResult]
    donor: str | None
    own: int | None


def run_scenarios(file_specs: list[ScenarioSpec], graph: TaskGraph,
                  topology: HardwareTopology, catalog: PatternCatalog,
                  baseline_opts: SolveOpts, opts: SolveOpts) -> ScenarioRun:
    """Grade the specs ``apply_scenarios`` makes of ``file_specs`` against
    the best case of ``graph``, which carries the start-lag cap: the
    baseline under ``baseline_opts``, each row under ``opts``; the two
    may differ only in the node budget.

    Every graph the run solves is seeded once, on the run's one plan
    narrowed to it, before any search.  A floor only stops a portfolio
    sooner and no narrowing seed beats a proven baseline, so no seed
    needs the floor ``evaluate_scenario`` may give its row.  The narrowing
    seeds that beat the baseline's own, or any when it has none, are
    re-checked on ``graph`` with the baseline's lag cap, least makespan
    first and then in spec order, and the first the checker accepts
    becomes the baseline's incumbent.  A flow clone's tasks are not the
    baseline's, so its seed is never folded.
    """
    applied = apply_scenarios(file_specs, graph, catalog)
    plan = SearchPlan(graph, topology, catalog)
    own = seed_best_case(graph, topology, catalog, baseline_opts, plan)
    rows = []
    for spec, injected in applied:
        row_plan = plan.narrowed(injected)
        rows.append((spec, injected, row_plan, seed_best_case(
            injected, topology, catalog, baseline_opts, row_plan)
            if spec.injections else None))
    incumbent, donor = own, None
    for _, i in sorted(
            (seed.makespan, i) for i, (spec, _, _, seed) in enumerate(rows)
            if _narrowing(spec) and seed.makespan is not None
            and (own.makespan is None or seed.makespan < own.makespan)):
        spec, _, _, seed = rows[i]
        if not check_schedule(seed.schedule, graph, topology, catalog,
                              max_start_lag=baseline_opts.max_start_lag):
            incumbent, donor = seed, spec.name
            break
    baseline = solve_best_case(graph, topology, catalog, baseline_opts,
                               plan=plan, incumbent=incumbent)
    ranked = [] if baseline.makespan is None else rank_scenarios([
        evaluate_scenario(spec, injected, topology, catalog, opts, baseline,
                          row_plan, seed)
        for spec, injected, row_plan, seed in rows])
    return ScenarioRun(baseline, ranked, donor, own.makespan)


def evaluate_scenario(spec: ScenarioSpec, injected: TaskGraph,
                      topology: HardwareTopology, catalog: PatternCatalog,
                      opts: SolveOpts, baseline: SolveOutcome,
                      plan: SearchPlan | None = None,
                      incumbent: Incumbent | None = None) -> ScenarioResult:
    """Solve ``spec``'s injected graph and grade the latency movement.

    ``injected`` is the graph that ``apply_scenarios`` paired with
    ``spec``.  ``baseline`` is the caller's solve of the graph before
    injection (which carries the start-lag cap), on the same topology and
    catalog; the node budgets may differ.  The caller has gated it: it
    has a schedule.  When it is proven optimal and every injection of
    ``spec`` only removes options, its makespan is the scenario solve's
    floor (``SolveOpts.floor``): no schedule of the injected graph beats
    it, so the floor changes no verdict.  A scenario whose seed reaches it
    closes with no search node, one whose deadline lies below it at the
    search's root.  A budget-exhausted search is an error, never a
    verdict: "unknown" reports nothing about feasibility either way.
    ``plan`` is narrowed to ``injected``, and ``incumbent``, the seed that
    ``run_scenarios`` made on it, replaces the solve's own seed; neither
    changes the outcome.
    """
    base_latency = baseline.makespan
    assert base_latency is not None, "the baseline has no schedule"

    if not spec.injections:
        return ScenarioResult(spec.name, base_latency, 0,
                              classify_risk(0), base_latency)

    if baseline.status == "optimal" and _narrowing(spec):
        opts = replace(opts, floor=base_latency)
    outcome = solve_best_case(injected, topology, catalog, opts, plan=plan,
                              incumbent=incumbent)
    if outcome.status == "infeasible":
        return ScenarioResult(spec.name, None, None, RISK_CERTAIN_FAILURE,
                              base_latency, note=outcome.witness or "")
    if outcome.status == "unknown":
        raise fail(1, 1, f"scenario {spec.name!r}: " + no_verdict(
            opts, "search ran out of node budget without a schedule; "
                  "raise solver.scenario_budget_nodes and retry"))
    assert outcome.makespan is not None
    delta = latency_delta_pct(outcome.makespan, base_latency)
    return ScenarioResult(spec.name, outcome.makespan, delta,
                          classify_risk(delta), base_latency)


# -- enumeration ------------------------------------------------------------

def enumerate_scenarios(graph: TaskGraph, catalog: PatternCatalog
                        ) -> list[ScenarioSpec]:
    """Standard scenario families for a graph.

    Families: the baseline, one output eviction per leaf function, the
    small / large / combined size-band evictions (split at
    ``SMALL_BUFFER_BYTES``), and one added flow copy per cloneable
    top-level instance group.  Only buffers with a DDR-capable pattern are
    targeted and only flows that share no buffers with the rest of the
    graph are cloned, so every enumerated scenario evaluates without
    configuration errors.  Duplicates by injection-set equality keep the
    first name.
    """
    if not graph.tasks:
        return []
    specs: list[ScenarioSpec] = [ScenarioSpec("baseline")]

    # DDR-capable buffers, grouped by their definer's function
    evictable = sorted(b for b, buf in graph.buffers.items()
                       if any(catalog.lookup(p).klass == _DDR_CLASS
                              for p in buf.allowed_patterns))
    by_function: dict[str, list[str]] = {}
    for b in evictable:
        fn = graph.tasks[graph.buffers[b].definer].function
        by_function.setdefault(fn, []).append(b)
    for fn in sorted(by_function):
        specs.append(ScenarioSpec(
            f"evict-fn-{fn}",
            (Injection(EVICT_BUFFER, targets=tuple(by_function[fn])),)))

    small = tuple(b for b in evictable
                  if graph.buffers[b].size < SMALL_BUFFER_BYTES)
    large = tuple(b for b in evictable
                  if graph.buffers[b].size >= SMALL_BUFFER_BYTES)
    if small:
        specs.append(ScenarioSpec(
            "evict-small", (Injection(EVICT_BUFFER, targets=small),)))
    if large:
        specs.append(ScenarioSpec(
            "evict-large", (Injection(EVICT_BUFFER, targets=large),)))
    if small and large:
        specs.append(ScenarioSpec(
            "evict-combined",
            (Injection(EVICT_BUFFER, targets=tuple(evictable)),)))

    grouped: dict[str, list[str]] = {}
    for tid in graph.tasks:
        if "/" not in tid:
            continue
        prefix = tid.split("/", 1)[0] + "/"
        callee = prefix.split("[", 1)[0]
        bucket = grouped.setdefault(callee, [])
        if prefix not in bucket:
            bucket.append(prefix)
    for callee in sorted(grouped):
        first = sorted(grouped[callee])[0]
        members = {tid for tid in graph.tasks if tid.startswith(first)}
        if _boundary_buffers(graph, members):
            continue
        specs.append(ScenarioSpec(
            f"add-flow-{callee}",
            (Injection(ADD_FLOW, targets=(first,), value=1),)))
    return _unique_specs(specs)


def _unique_specs(specs: list[ScenarioSpec]) -> list[ScenarioSpec]:
    """``specs`` in order, dropping any whose injection set an earlier
    spec already has."""
    first = {}
    for spec in specs:
        first.setdefault(frozenset(spec.injections), spec)
    return list(first.values())


# -- ranking ----------------------------------------------------------------

def rank_scenarios(results: list[ScenarioResult]) -> list[ScenarioResult]:
    """Certain failures first (by name), then descending delta with name
    ties; feasible deltas under ``FLOOR_PCT`` are marked not recommended."""
    failures = sorted((r for r in results if r.risk == RISK_CERTAIN_FAILURE),
                      key=lambda r: r.name)
    rest = sorted((r for r in results if r.risk != RISK_CERTAIN_FAILURE),
                  key=lambda r: (-r.delta_pct, r.name))
    return failures + [replace(r, note="not recommended") if r.delta_pct < FLOOR_PCT else r
                       for r in rest]


# -- serialization ----------------------------------------------------------

def render_scenario_csv(results: list[ScenarioResult]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in results:
        latency = "INFEASIBLE" if r.latency is None else str(r.latency)
        delta = "" if r.delta_pct is None else str(r.delta_pct)
        writer.writerow([r.name, latency, delta, r.risk])
    return out.getvalue()


def parse_scenario_csv(text: str, baseline_latency: int
                       ) -> list[ScenarioResult]:
    """Parse a scenario CSV back to exact result values; a bad row is
    refused at its line.

    The CSV does not store the baseline, so callers supply it; the value
    only fills each row's ``ScenarioResult.baseline_latency``.
    """
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != CSV_HEADER.split(","):
        raise fail(1, 1, f"scenario CSV must start with header {CSV_HEADER!r}")
    out, start = [], reader.line_num + 1
    for row in reader:         # a quoted field may span lines
        i, start = start, reader.line_num + 1
        if not row:
            continue
        if len(row) != 4:
            raise fail(i, 1, f"expected 4 fields, got {len(row)}")
        name, latency_s, delta_s, risk = row
        if risk not in RISK_LEVELS:
            raise fail(i, 1, f"unknown risk level {risk!r}")
        if latency_s == "INFEASIBLE":
            if risk != RISK_CERTAIN_FAILURE:
                raise fail(i, 1, "infeasible row must carry risk "
                                 f"{RISK_CERTAIN_FAILURE}")
            latency: int | None = None
            delta: int | None = None
        else:
            try:
                latency = int(latency_s)
                delta = int(delta_s)
            except ValueError:
                raise fail(i, 1, "latency and delta must be integers, "
                                 f"got {latency_s!r} / {delta_s!r}") from None
        out.append(ScenarioResult(name, latency, delta, risk,
                                  baseline_latency))
    return out


def render_scenario_table(results: list[ScenarioResult]) -> str:
    """Fixed-width report table: strategy, latency, delta over baseline."""
    header = ("Strategy", "Latency (clock cycles)", "delta")
    body = []
    for r in results:
        latency = "INFEASIBLE" if r.latency is None else f"{r.latency:,}"
        if r.delta_pct is None or r.name == "baseline":
            delta = "-"
        else:
            delta = f"{r.delta_pct:+d}%"
        body.append((r.name, latency, delta))
    rows = [header, *body]
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = []
    for j, row in enumerate(rows):
        cells = (cell.ljust(widths[i]) for i, cell in enumerate(row))
        lines.append("  ".join(cells).rstrip())
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


# -- scenario manifests -----------------------------------------------------

def parse_scenario_stream(text: str) -> list[ScenarioSpec]:
    """Parse a multi-document YAML stream of ``kind: scenario`` documents.
    A spec key other than ``injections`` is refused at the key, and an
    injection at its own line and column."""
    specs = []
    for doc in read_stream(text, "scenario stream", ("scenario",)):
        unknown = next((k for k in doc.spec if k != "injections"), None)
        if unknown is not None:
            known_keys(doc.spec, ("injections",), f"{doc.where}: spec",
                       *mark(doc.node, "spec", unknown, key=True))
        raw_injections = at_field(doc, "injections", section, doc.spec,
                                  "injections", list,
                                  f"{doc.where}: spec.injections")
        injections = tuple(
            _parse_injection(entry, f"{doc.where}, injection {j + 1}",
                             *mark(doc.node, "spec", "injections", j))
            for j, entry in enumerate(raw_injections))
        specs.append(ScenarioSpec(doc.name, injections))
    return specs


def _parse_injection(entry, at: str, line: int, column: int) -> Injection:
    known_keys(typed(entry, dict, at, line, column),
               ("kind", "targets", "cores", "value"), at, line, column)
    kind = entry.get("kind")
    if kind not in INJECTION_KINDS:
        raise fail(line, column, f"{at}: unknown injection kind {kind!r}")
    targets = list_of(entry.get("targets", []), str, f"{at}: targets", line,
                      column)
    cores = entry.get("cores")
    if cores is not None:
        cores = frozenset(list_of(cores, int, f"{at}: cores", line, column))
    value = entry.get("value")
    if value is not None:
        integer(value, f"{at}: value", line, column)

    if kind in (EVICT_BUFFER, PIN_TASKS, ADD_FLOW) and not targets:
        raise fail(line, column, f"{at}: {kind} requires targets")
    if kind == PIN_TASKS and cores is None:
        raise fail(line, column, f"{at}: PIN_TASKS requires cores")
    if kind in (START_LAG, TIGHTEN_DEADLINE) and value is None:
        raise fail(line, column, f"{at}: {kind} requires a value")
    return Injection(kind, tuple(targets), cores, value)
