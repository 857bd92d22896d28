"""One benchmark subprocess: set up, run, trace or profile one workload.

    python3 perfbench/worker.py MODE MANIFEST OUT_DIR RESULT_JSON

MODE is one of
  setup    import ddtwin, load the run and build the graph, nothing else;
  run      ``ddtwin scenarios`` through ``ddtwin.cli.main`` with tracing off;
  trace    the same call with every layer's public functions wrapped;
  outcomes the traced call without the extra seed-only solves and the
           pattern sweep, which only the per-layer metrics need;
  profile  the same call under cProfile, keeping the top self-time entries.

The caller puts the repository's ``src`` on PYTHONPATH.  Spans are kept in
memory and written to RESULT_JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import cProfile
import dataclasses
import functools
import importlib
import io
import json
import math
import os
import pstats
import resource
import sys
import time

# (module, attribute, span name): each layer's public functions.  Every
# ddtwin module that imported the function under that name gets the wrapper,
# so calls are caught at the names their callers use.
LAYER_FUNCTIONS = (
    ("ddtwin.cli", "load_run", "cli.load_run"),
    ("ddtwin.cli", "build_graph", "cli.build_graph"),
    ("ddtwin.cli", "write_atomic", "cli.write"),
    ("ddtwin.hardware", "parse_deployment", "hardware.parse"),
    ("ddtwin.hardware", "parse_topology", "hardware.parse"),
    ("ddtwin.flows", "parse_flow_source", "flows.parse"),
    ("ddtwin.flows", "validate_flows", "flows.parse"),
    ("ddtwin.flows", "collect_labels", "flows.parse"),
    ("ddtwin.manifests", "parse_constraint_stream", "manifests.parse"),
    ("ddtwin.patterns", "parse_pattern_catalog", "patterns.catalog"),
    ("ddtwin.patterns", "generate_patterns_from_topology", "patterns.catalog"),
    ("ddtwin.scenarios", "parse_scenario_stream", "scenarios.parse"),
    ("ddtwin.elaborate", "elaborate", "elaborate.elaborate"),
    ("ddtwin.elaborate", "bind_timing", "elaborate.bind_timing"),
    ("ddtwin.scenarios", "enumerate_scenarios", "scenarios.enumerate"),
    ("ddtwin.scenarios", "apply_injections", "scenarios.apply"),
    ("ddtwin.scenarios", "evaluate_scenario", "scenarios.evaluate"),
    ("ddtwin.solver", "solve_best_case", "solver.solve"),
    ("ddtwin.schedule", "check_schedule", "schedule.check"),
)

SEED_SPAN = "solver.seed"
PROFILE_TOP = 25


def scenarios_argv(manifest: str, out_dir: str) -> list[str]:
    return ["scenarios", "--manifest", manifest, "--out", out_dir]


def run_cli(argv: list[str]) -> int:
    from ddtwin.cli import main
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return main(argv)


# -- tracing ------------------------------------------------------------------

@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    excluded: float = 0.0          # sibling seed calls made inside this span


@dataclasses.dataclass
class Solve:
    """One solve_best_case call, with what is needed to re-check it."""

    row: str
    graph: object
    topology: object
    catalog: object
    opts: object
    outcome: object


class Tracer:
    """Wraps layer functions and records a span per call.

    While ``paused`` is set, wrappers pass straight through, so work the
    benchmark adds itself (the sibling seed call) leaves no layer span.
    """

    def __init__(self, seed_calls: bool) -> None:
        self.seed_calls = seed_calls
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.paused = 0
        self.row: str | None = None
        self.solves: list[Solve] = []
        self.results: list[tuple[object, object]] = []   # (spec, result)
        self.counts: dict[str, int] = {}
        self.originals: dict[str, object] = {}
        self.missing: list[str] = []
        self.graph = None
        self.loaded = None

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def install(self) -> None:
        importlib.import_module("ddtwin.cli")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ddtwin"
                                         or name.startswith("ddtwin."))]
        for module_name, attr, span_name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self.originals[attr] = original
            wrapper = self._wrapper(span_name, attr, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _wrapper(self, span_name: str, attr: str, fn):
        after = getattr(self, f"_after_{attr}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if attr == "evaluate_scenario":
                self.row = args[0].name
            index = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                if attr == "evaluate_scenario":
                    self.row = None
            if after is not None:
                after(fn, args, kwargs, result)
            return result
        return wrapper

    # per-function bookkeeping, run after the call's span has closed

    def _after_load_run(self, fn, args, kwargs, result) -> None:
        self.loaded = result

    def _after_build_graph(self, fn, args, kwargs, result) -> None:
        self.graph = result

    def _after_enumerate_scenarios(self, fn, args, kwargs, result) -> None:
        self.count("scenarios.specs", len(result))

    def _after_evaluate_scenario(self, fn, args, kwargs, result) -> None:
        self.results.append((args[0], result))

    def _after_check_schedule(self, fn, args, kwargs, result) -> None:
        self.count("schedule.check_calls")
        if result:
            self.count("schedule.check_rejects")

    def _after_solve_best_case(self, fn, args, kwargs, result) -> None:
        from ddtwin.solver import SolveOpts
        graph, topology, catalog = args[:3]
        opts = (args[3] if len(args) > 3 else kwargs.get("opts")) or SolveOpts()
        self.solves.append(Solve(self.row or "baseline", graph, topology,
                                 catalog, opts, result))
        if not self.seed_calls:
            return
        # sibling seed-only call: splits solve time into seed and search
        self.paused += 1
        index = self._open(SEED_SPAN)
        try:
            fn(graph, topology, catalog,
               dataclasses.replace(opts, mode="heuristic"))
        finally:
            self._close(index)
            self.paused -= 1
        seed = self.spans[index]
        for open_index in self.stack:
            self.spans[open_index].excluded += seed.end - seed.start


def recheck(tracer: Tracer) -> dict[str, list[str]]:
    """Re-check every returned schedule against the graph it was solved on,
    with the checker as imported before wrapping, so no span is recorded."""
    from ddtwin.schedule import effective_max_start_lag
    check = tracer.originals["check_schedule"]
    bad: dict[str, list[str]] = {}
    for solve in tracer.solves:
        outcome = solve.outcome
        if outcome.schedule is None:
            continue
        lag = effective_max_start_lag(solve.graph, solve.opts.max_start_lag)
        violations = check(outcome.schedule, solve.graph, solve.topology,
                           solve.catalog, max_start_lag=lag)
        if violations:
            bad.setdefault(solve.row, []).append(
                "check_schedule: " + violations[0].render())
        elif outcome.schedule.makespan(solve.graph) != outcome.makespan:
            bad.setdefault(solve.row, []).append(
                f"makespan {outcome.makespan} differs from its schedule's "
                f"{outcome.schedule.makespan(solve.graph)}")
    return bad


def pattern_sweep(catalog, graph, min_seconds: float = 0.2) -> dict:
    """Nanoseconds per PatternCatalog.contends and .lookup call: contends
    over every ordered pair of catalog names, lookup over every spelling
    the graph's buffers use.  Median over repeated sweeps."""
    names = [p.name for p in catalog]
    spellings = sorted({n for b in graph.buffers.values()
                        for n in b.allowed_patterns})

    def per_call(body, calls: int) -> float:
        samples = []
        deadline = time.perf_counter() + min_seconds
        while len(samples) < 5 or time.perf_counter() < deadline:
            t0 = time.perf_counter_ns()
            body()
            samples.append((time.perf_counter_ns() - t0) / calls)
        samples.sort()
        return samples[len(samples) // 2]

    def contends() -> None:
        for a in names:
            for b in names:
                catalog.contends(a, b)

    def lookup() -> None:
        for n in spellings:
            catalog.lookup(n)

    return {"patterns.contends_ns": per_call(contends, len(names) ** 2),
            "patterns.lookup_ns": per_call(lookup, max(1, len(spellings)))}


def solver_summary(tracer: Tracer) -> dict:
    feasible = [s.outcome for s in tracer.solves
                if s.outcome.status in ("optimal", "feasible")]
    proven = [s for s in tracer.solves
              if s.outcome.status in ("optimal", "infeasible")]
    ratios = [o.makespan / o.stats["seed_makespan"] for o in feasible
              if o.stats.get("seed_makespan")]
    wins = [o for o in feasible
            if o.stats.get("seed_makespan") is None
            or o.makespan < o.stats["seed_makespan"]]
    pruned: dict[str, int] = {}
    for s in tracer.solves:
        for kind, n in s.outcome.stats.get("pruned", {}).items():
            pruned[kind] = pruned.get(kind, 0) + n
    n = len(tracer.solves)
    return {
        "solves": n,
        "nodes": sum(s.outcome.stats.get("nodes", 0) for s in tracer.solves),
        "leaves": sum(s.outcome.stats.get("leaves", 0) for s in tracer.solves),
        "complete": sum(bool(s.outcome.stats.get("complete"))
                        for s in tracer.solves),
        "proven": len(proven),
        "feasible": len(feasible),
        "wins": len(wins),
        "makespan_vs_seed": (math.exp(sum(map(math.log, ratios)) / len(ratios))
                             if ratios else 1.0),
        "pruned": dict(sorted(pruned.items())),
        "statuses": [[s.row, s.outcome.status, s.outcome.makespan,
                      s.outcome.stats.get("seed_makespan")]
                     for s in tracer.solves],
    }


def rows_summary(tracer: Tracer) -> list[dict]:
    from ddtwin.scenarios import TIGHTEN_DEADLINE
    rows = []
    for spec, result in tracer.results:
        deadlines = [inj.value for inj in spec.injections
                     if inj.kind == TIGHTEN_DEADLINE]
        rows.append({
            "name": result.name,
            "latency": result.latency,
            "delta_pct": result.delta_pct,
            "baseline": result.baseline_latency,
            "only_deadline": (min(deadlines) if deadlines
                              and len(deadlines) == len(spec.injections)
                              else None),
        })
    return rows


def trace(manifest: str, out_dir: str, layers: bool) -> dict:
    tracer = Tracer(seed_calls=layers)
    tracer.install()
    t0 = time.perf_counter()
    code = run_cli(scenarios_argv(manifest, out_dir))
    wall = time.perf_counter() - t0
    result = {
        "exit": code,
        "wall_s": wall,
        "missing": tracer.missing,
        "span_s": {},
        "span_calls": {},
        "counts": dict(tracer.counts),
        "solver": solver_summary(tracer),
        "rows": rows_summary(tracer),
        "bad_rows": recheck(tracer),
        "graph": None,
        "patterns": None,
        "spans": [[s.name, s.start - t0, s.end - t0, s.parent, s.excluded]
                  for s in tracer.spans],
    }
    for s in tracer.spans:
        result["span_s"][s.name] = (result["span_s"].get(s.name, 0.0)
                                    + s.end - s.start - s.excluded)
        result["span_calls"][s.name] = result["span_calls"].get(s.name, 0) + 1
    result["seed_call_s"] = result["span_s"].get(SEED_SPAN, 0.0)
    if layers and tracer.graph is not None and tracer.loaded is not None:
        catalog = tracer.loaded.catalog
        result["graph"] = {"tasks": len(tracer.graph.tasks),
                           "buffers": len(tracer.graph.buffers),
                           "patterns": len(catalog)}
        result["patterns"] = pattern_sweep(catalog, tracer.graph)
    return result


# -- other modes --------------------------------------------------------------

def setup(manifest: str) -> dict:
    from ddtwin.cli import build_graph, load_run, load_run_manifest
    graph = build_graph(load_run(load_run_manifest(manifest)))
    return {"tasks": len(graph.tasks)}


def run(manifest: str, out_dir: str) -> dict:
    importlib.import_module("ddtwin.cli")      # import time belongs to setup_s
    t0, c0 = time.perf_counter(), time.process_time()
    code = run_cli(scenarios_argv(manifest, out_dir))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"exit": code, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def profile(manifest: str, out_dir: str, root: str) -> dict:
    profiler = cProfile.Profile()
    code = profiler.runcall(run_cli, scenarios_argv(manifest, out_dir))
    stats = pstats.Stats(profiler, stream=io.StringIO())
    entries = []
    for (path, line, func), (_, calls, tottime, cumtime, _) in \
            stats.stats.items():
        if path.startswith(root):
            path = os.path.relpath(path, root)
        entries.append({"function": f"{path}:{line}({func})", "calls": calls,
                        "self_s": tottime, "cumulative_s": cumtime})
    entries.sort(key=lambda e: -e["self_s"])
    return {"exit": code, "top_self_time": entries[:PROFILE_TOP],
            "total_self_s": sum(e["self_s"] for e in entries)}


def main(argv: list[str]) -> int:
    mode, manifest, out_dir, result_path = argv
    if mode == "setup":
        result = setup(manifest)
    elif mode == "run":
        result = run(manifest, out_dir)
    elif mode in ("trace", "outcomes"):
        result = trace(manifest, out_dir, layers=mode == "trace")
    elif mode == "profile":
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = profile(manifest, out_dir, root + os.sep)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
