"""Command line front end: validate, elaborate, solve, scenarios, report.

Every command takes a run manifest naming the input files; all outputs
land in one directory and are byte-stable across runs with the same
manifest, so they can serve as regression fixtures; each is written
with the mode a new file gets under the process umask.  Exit codes:
0 success, 1 validation or configuration failure (including a search
budget too small to reach a verdict) or a standard output closed before
all of it was written (``ddtwin scenarios ... | head -1``; the output
files are complete, and nothing more is printed), 2 proven-infeasible
baseline, 3 internal error.

Command grammar::

    ddtwin COMMAND --manifest PATH [--out DIR] [--mode exact|heuristic]
    ddtwin [COMMAND] -h|--help

COMMAND comes first and is one of validate, elaborate, solve, scenarios
and report.  The options follow in any order, each as ``--opt value`` or
``--opt=value``; any unique prefix of an option name will do (``--man``),
and a repeated option keeps its last value.  ``--out`` and ``--mode``
override the manifest's values.  ``-h`` prints the help to stdout and
exits 0.  A missing or unknown command, an unknown option, a missing
value, a bad mode or a stray argument prints the usage line and
``ddtwin: error: ...`` to stderr and exits 2.

``scenarios`` runs ``scenarios.run_scenarios`` on the scenario files'
specs, which adds the enumerated families.  Every refusal is reported
(exit 1) before any solve, even where the baseline would be infeasible;
``validate`` refuses every spec ``scenarios`` would, enumerated families
included.  The baseline is gated once, and a note names the scenario
whose seed its search started from, if any.
"""

from __future__ import annotations

import contextlib
import getopt
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NoReturn

from .diagnostics import Diagnostic, DiagnosticError, fail
from .documents import (envelope, integer, known_keys, list_of,
                        load_document, section)
from .elaborate import bind_timing, check_static, elaborate
from .flows import FlowDef, SymbolTable, collect_labels, parse_flow_source
from .graph import TaskGraph, graph_to_json
from .hardware import DeploymentConfig, HardwareTopology, parse_deployment, \
    parse_topology
from .manifests import FunctionMetadata, parse_constraint_stream
from .patterns import PatternCatalog, generate_patterns_from_topology, \
    parse_pattern_catalog
from .scenarios import PIN_TASKS, ScenarioSpec, apply_scenarios, \
    parse_scenario_csv, parse_scenario_stream, rank_scenarios, \
    render_scenario_csv, render_scenario_table, run_scenarios
from .schedule import Schedule
from .solver import SolveOpts, SolveOutcome, no_verdict, solve_best_case

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3

_REPORT_NAME = "report.csv"
_MODES = ("exact", "heuristic")
_EXHAUSTED = ("search budget exhausted before reaching a verdict; raise "
              "solver.budget_nodes in the manifest")


# -- run manifest -----------------------------------------------------------

@dataclass
class RunManifest:
    """The input files, output directory and solver settings of one
    pipeline run; paths are absolute."""

    flows: list[Path]
    constraints: list[Path]
    topology: Path
    deployment: Path
    patterns: Path | None = None          # generated from topology if absent
    scenario_files: list[Path] = field(default_factory=list)
    out: Path = Path("out")
    mode: str = "exact"
    budget_nodes: int = 200_000
    scenario_budget_nodes: int | None = None


def load_run_manifest(path: str | Path, out: str | None = None,
                      mode: str | None = None) -> RunManifest:
    """Load a ``kind: run`` manifest; flag overrides win over file values."""
    manifest_path = Path(path)
    if not manifest_path.is_file():
        raise fail(1, 1, f"manifest {str(manifest_path)!r} does not exist")
    base = manifest_path.resolve().parent
    raw = load_document(manifest_path.read_text(), str(manifest_path))
    _, spec = envelope(raw, ("run",), "run manifest")
    where = "run manifest spec"
    # scenario and risk are retired sections, still taken and ignored
    known_keys(spec, ("flows", "constraints", "topology", "deployment",
                      "patterns", "scenario_files", "out", "solver",
                      "scenario", "risk"), where)

    def paths(key: str, required: bool) -> list[Path]:
        entries = spec.get(key) or []
        list_of(entries, str, f"{where}.{key}")
        if required and not entries:
            raise fail(1, 1, f"{where}.{key} must list at least one path")
        return [base / p for p in entries]

    def one_path(key: str, required: bool) -> Path | None:
        value = spec.get(key)
        if value is None:
            if required:
                raise fail(1, 1, f"{where}.{key} is required")
            return None
        return base / str(value)

    solver = known_keys(section(spec, "solver", dict, f"{where}.solver"),
                        ("mode", "budget_nodes", "scenario_budget_nodes"),
                        f"{where}.solver")

    def budget(key: str, default: int | None) -> int | None:
        if key not in solver:
            return default
        value = integer(solver[key], f"{where}.solver.{key}")
        if value < 1:
            raise fail(1, 1, f"{where}.solver.{key} must be at least 1, got {value}")
        return value

    out_dir = Path(out) if out is not None else base / str(spec.get("out", "out"))
    manifest = RunManifest(
        flows=paths("flows", required=True),
        constraints=paths("constraints", required=True),
        topology=one_path("topology", required=True),
        deployment=one_path("deployment", required=True),
        patterns=one_path("patterns", required=False),
        scenario_files=paths("scenario_files", required=False),
        out=out_dir,
        mode=mode if mode is not None else str(solver.get("mode", "exact")),
        budget_nodes=budget("budget_nodes", 200_000),
        scenario_budget_nodes=budget("scenario_budget_nodes", None))
    if manifest.mode not in _MODES:
        raise fail(1, 1, f"solver mode must be 'exact' or 'heuristic', "
                         f"got {manifest.mode!r}")
    return manifest


@dataclass
class LoadedRun:
    manifest: RunManifest
    defs: list[FlowDef]
    symbols: SymbolTable
    metadata: list[FunctionMetadata]
    timing_docs: list
    labels: dict[str, tuple[str, str]]
    topology: HardwareTopology
    catalog: PatternCatalog
    deployment: DeploymentConfig
    scenario_specs: list[ScenarioSpec]


def _read(path: Path) -> str:
    if not path.is_file():
        raise fail(1, 1, f"input file {str(path)!r} does not exist")
    return path.read_text()


def load_run(manifest: RunManifest) -> LoadedRun:
    """Parse every input the manifest names.

    Raises DiagnosticError on the first file that fails; later stages
    (elaboration, solving) never reparse.  The flows are parsed here but
    checked by ``build_graph``, whose elaboration validates them.
    """
    deployment = parse_deployment(_read(manifest.deployment))
    symbols = SymbolTable(dict(deployment.symbols))

    defs: list[FlowDef] = []
    for path in manifest.flows:
        defs.extend(parse_flow_source(_read(path)))
    labels = collect_labels(defs)

    docs = []
    constraint_paths = list(manifest.constraints)
    constraint_paths += [manifest.deployment.parent / p
                         for p in deployment.metadata_files]
    for path in constraint_paths:
        docs.extend(parse_constraint_stream(_read(path)))
    metadata = [d for d in docs if isinstance(d, FunctionMetadata)]
    timing_docs = [d for d in docs if not isinstance(d, FunctionMetadata)]

    topology = parse_topology(_read(manifest.topology))
    if manifest.patterns is not None:
        catalog = parse_pattern_catalog(_read(manifest.patterns))
    else:
        catalog = generate_patterns_from_topology(topology)
    known = {m.id for m in topology.memories}
    stray = [Diagnostic(1, 1, f"pattern {p.name!r} names memory {mem!r}, "
                              f"which the topology does not define")
             for p in catalog
             for mem in sorted({p.defining_memory, p.observing_memory} - known)]
    if stray:
        raise DiagnosticError(stray)

    scenario_specs: list[ScenarioSpec] = []
    for path in manifest.scenario_files:
        scenario_specs.extend(parse_scenario_stream(_read(path)))
    # a pin that misses a task's own allowed cores is a legitimate
    # infeasible scenario; a pin to a core that does not exist is an error
    cores = {c.id for c in topology.cores}
    stray = [Diagnostic(1, 1, f"scenario {spec.name!r} pins tasks to core "
                              f"{core}, which the topology does not define")
             for spec in scenario_specs for inj in spec.injections
             if inj.kind == PIN_TASKS for core in sorted(inj.cores - cores)]
    if stray:
        raise DiagnosticError(stray)
    return LoadedRun(manifest, defs, symbols, metadata, timing_docs, labels,
                     topology, catalog, deployment, scenario_specs)


def build_graph(loaded: LoadedRun) -> TaskGraph:
    graph = elaborate(loaded.defs, loaded.deployment.entry_flow,
                      loaded.symbols, loaded.metadata, loaded.catalog,
                      slot_budget=loaded.deployment.slot_budget)
    graph = bind_timing(graph, loaded.timing_docs, loaded.labels,
                        loaded.deployment.equation_values)
    return replace(graph, max_start_lag=loaded.deployment.max_start_lag)


def _solve_opts(manifest: RunManifest, scenario: bool = False) -> SolveOpts:
    budget = manifest.budget_nodes
    if scenario and manifest.scenario_budget_nodes is not None:
        budget = manifest.scenario_budget_nodes
    return SolveOpts(mode=manifest.mode, budget_nodes=budget)


# -- output helpers ---------------------------------------------------------

def write_atomic(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    half-written artifact."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as handle:
            # mkstemp makes the file private; give it what open(path, "w")
            # would
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _schedule_dict(schedule: Schedule) -> dict:
    return {
        "assignments": {tid: {"core": core, "start": start}
                        for tid, (core, start) in schedule.assignments.items()},
        "transfers": {buf_id: {"pattern": tr.pattern, "start": tr.start,
                               "duration": tr.duration}
                      for buf_id, tr in schedule.transfers.items()},
    }


def outcome_to_json(outcome: SolveOutcome) -> str:
    data = {
        "status": outcome.status,
        "makespan": outcome.makespan,
        "witness": outcome.witness,
        "stats": outcome.stats,
    }
    if outcome.schedule is not None:
        data["schedule"] = _schedule_dict(outcome.schedule)
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def solve_summary(outcome: SolveOutcome, graph: TaskGraph,
                  topology: HardwareTopology) -> str:
    lines = [f"status: {outcome.status}"]
    if outcome.status in ("optimal", "feasible"):
        assert outcome.schedule is not None and outcome.makespan is not None
        span = outcome.makespan
        fraction = span / graph.deadline
        lines.append(f"makespan: {span:,} / {graph.deadline:,} "
                     f"= {fraction:.2f} of slot")
        busy: dict[int, int] = {core.id: 0 for core in topology.cores}
        count: dict[int, int] = {core.id: 0 for core in topology.cores}
        for tid, (core, _start) in outcome.schedule.assignments.items():
            busy[core] += graph.tasks[tid].runtime
            count[core] += 1
        for core_id in sorted(busy):
            pct = 100.0 * busy[core_id] / span if span else 0.0
            lines.append(f"core {core_id}: {pct:.1f}% busy "
                         f"({count[core_id]} tasks)")
    elif outcome.status == "infeasible":
        lines.append(f"witness: {outcome.witness}")
    return "\n".join(lines) + "\n"


# -- commands ---------------------------------------------------------------

def cmd_validate(manifest: RunManifest) -> int:
    loaded = load_run(manifest)
    graph = build_graph(loaded)
    findings = check_static(graph, loaded.topology)
    for finding in findings:
        print(f"error: {finding.kind}: {finding.message}", file=sys.stderr)
    if findings:
        return EXIT_INVALID
    apply_scenarios(loaded.scenario_specs, graph, loaded.catalog)
    print(f"ok: {len(graph.tasks)} tasks, {len(graph.buffers)} buffers, "
          f"{len(loaded.catalog.patterns)} patterns")
    return EXIT_OK


def cmd_elaborate(manifest: RunManifest) -> int:
    loaded = load_run(manifest)
    graph = build_graph(loaded)
    out = manifest.out / "graph.json"
    write_atomic(out, graph_to_json(graph))
    print(f"elaborated {len(graph.tasks)} tasks, {len(graph.buffers)} "
          f"buffers, deadline {graph.deadline:,} -> {out}")
    return EXIT_OK


def cmd_solve(manifest: RunManifest) -> int:
    loaded = load_run(manifest)
    graph = build_graph(loaded)
    opts = _solve_opts(manifest)
    outcome = solve_best_case(graph, loaded.topology, loaded.catalog, opts)
    if outcome.status == "unknown":
        raise fail(1, 1, no_verdict(opts, _EXHAUSTED))
    write_atomic(manifest.out / "schedule.json", outcome_to_json(outcome))
    summary = solve_summary(outcome, graph, loaded.topology)
    write_atomic(manifest.out / "solve_summary.txt", summary)
    print(summary, end="")
    return EXIT_OK if outcome.status in ("optimal", "feasible") \
        else EXIT_INFEASIBLE


def cmd_scenarios(manifest: RunManifest) -> int:
    loaded = load_run(manifest)
    graph = build_graph(loaded)
    baseline_opts = _solve_opts(manifest)
    run = run_scenarios(loaded.scenario_specs, graph, loaded.topology,
                        loaded.catalog, baseline_opts,
                        _solve_opts(manifest, scenario=True))
    if run.baseline.status == "infeasible":
        print(f"baseline infeasible: {run.baseline.witness}", file=sys.stderr)
        return EXIT_INFEASIBLE
    if run.baseline.status == "unknown":
        raise fail(1, 1, "baseline " + no_verdict(baseline_opts, _EXHAUSTED))

    table = render_scenario_table(run.rows)
    write_atomic(manifest.out / "scenarios.csv", render_scenario_csv(run.rows))
    write_atomic(manifest.out / "scenarios.txt", table)
    print(table, end="")
    if run.donor is not None:
        own = "none" if run.own is None else f"{run.own:,}"
        print(f"note: baseline: incumbent "
              f"{run.baseline.stats['seed_makespan']:,} from {run.donor}'s "
              f"seed (own seed {own})")
    for res in run.rows:
        if res.note:
            print(f"note: {res.name}: {res.note}")
    return EXIT_OK


def cmd_report(manifest: RunManifest) -> int:
    """Merge every scenario CSV in the output directory into one report."""
    out_dir = manifest.out
    inputs = sorted(p for p in out_dir.glob("*.csv")
                    if p.name != _REPORT_NAME)
    if not inputs:
        raise fail(1, 1, f"no scenario CSV files found in {str(out_dir)!r}")
    merged: dict[str, tuple] = {}
    rows = []
    for path in inputs:
        for res in parse_scenario_csv(path.read_text(), 0):
            key = (res.latency, res.delta_pct, res.risk)
            if res.name in merged:
                if merged[res.name][0] != res.latency:
                    raise fail(1, 1, f"conflicting latencies for scenario "
                                     f"{res.name!r} across result files")
                if merged[res.name] != key:
                    raise fail(1, 1, f"conflicting rows for scenario {res.name!r} "
                                     f"across result files")
                continue
            merged[res.name] = key
            rows.append(res)
    ranked = rank_scenarios(rows)
    write_atomic(out_dir / _REPORT_NAME, render_scenario_csv(ranked))
    print(f"merged {len(inputs)} files, {len(rows)} scenarios "
          f"-> {out_dir / _REPORT_NAME}")
    return EXIT_OK


# -- entry point ------------------------------------------------------------

# one row per command: its function and its help string
_COMMANDS = {
    "validate": (cmd_validate, "check inputs and refuse every spec scenarios would"),
    "elaborate": (cmd_elaborate,
                  "expand the entry flow into a task graph dump"),
    "solve": (cmd_solve, "compute a best-case schedule and summary"),
    "scenarios": (cmd_scenarios, "evaluate and rank what-if scenarios"),
    "report": (cmd_report, "merge scenario CSVs into one report"),
}
_OPTIONS = (
    ("--manifest PATH", "path to the kind: run manifest (required)"),
    ("--out DIR", "output directory (overrides the manifest)"),
    ("--mode MODE", "solver mode override: exact or heuristic"),
    ("-h, --help", "show this help and exit"),
)
_USAGE = (f"usage: ddtwin {{{','.join(_COMMANDS)}}} --manifest PATH "
          f"[--out DIR] [--mode {{{','.join(_MODES)}}}]")


def _usage_error(message: str) -> NoReturn:
    print(_USAGE, file=sys.stderr)
    print(f"ddtwin: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _help() -> NoReturn:
    lines = [_USAGE, "", "Constraint-twin toolchain: validate flow and "
             "constraint sources, elaborate the task graph, solve for "
             "best-case schedules, and rank what-if test scenarios.", "",
             "commands:"]
    lines += [f"  {name:<12}{help_text}"
              for name, (_fn, help_text) in _COMMANDS.items()]
    lines += ["", "options:"]
    lines += [f"  {flag:<17}{help_text}" for flag, help_text in _OPTIONS]
    print("\n".join(lines))
    raise SystemExit(0)


def parse_args(argv: list[str]) -> tuple[str, str, str | None, str | None]:
    """The command, manifest path, ``--out`` and ``--mode`` of ``argv``.

    Follows the grammar in the module docstring: prints the help and
    exits 0 on ``-h``, prints the usage line and an error and exits 2 on
    any misuse.
    """
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _help()
    if command not in _COMMANDS:
        _usage_error(f"the command must be one of {', '.join(_COMMANDS)}"
                     + ("" if command is None else f", got {command!r}"))
    try:
        opts, rest = getopt.getopt(argv[1:], "h",
                                   ["manifest=", "out=", "mode=", "help"])
    except getopt.GetoptError as exc:
        _usage_error(exc.msg)
    values: dict[str, str] = {}
    for opt, value in opts:
        if opt in ("-h", "--help"):
            _help()
        values[opt] = value
    if rest:
        _usage_error(f"unexpected argument {rest[0]!r}")
    if "--manifest" not in values:
        _usage_error("option --manifest is required")
    mode = values.get("--mode")
    if mode is not None and mode not in _MODES:
        _usage_error(f"option --mode must be one of {', '.join(_MODES)}, "
                     f"got {mode!r}")
    return command, values["--manifest"], values.get("--out"), mode


def main(argv: list[str] | None = None) -> int:
    command, path, out, mode = parse_args(
        sys.argv[1:] if argv is None else argv)
    try:
        manifest = load_run_manifest(path, out=out, mode=mode)
        code = _COMMANDS[command][0](manifest)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the flush at exit does not fail again, and exit 1 as
        # Python does on a closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID
    except DiagnosticError as exc:
        for diag in exc.diagnostics:
            print(diag.render(), file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # noqa: BLE001 - last-resort exit code mapping
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
