"""Shared fixtures: tiny topologies, bundled fixture paths, and cached
runs of the slow downlink-analog pipeline."""

from __future__ import annotations

import re
from pathlib import Path

import pytest
import yaml
from hypothesis import settings

from ddtwin.graph import Buffer, ExternalInput, TaskGraph, TaskInstance
from ddtwin.hardware import Core, HardwareTopology, Memory
from ddtwin.patterns import generate_patterns_from_topology

settings.register_profile("suite", deadline=None, max_examples=50,
                          derandomize=True)
settings.load_profile("suite")

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "ddtwin" / "fixtures"


def make_topology(n_cores: int = 2, l2_cap: int = 1_000_000,
                  l3_cap: int = 8_000_000) -> HardwareTopology:
    mems = [Memory(id=f"L2_{c}", level="L2", capacity=l2_cap)
            for c in range(n_cores)]
    mems.append(Memory(id="L3_0", level="L3", capacity=l3_cap))
    mems.append(Memory(id="DDR_0", level="DDR", capacity=10**9))
    return HardwareTopology(
        memories=mems,
        cores=[Core(id=c, l2=f"L2_{c}", l3="L3_0") for c in range(n_cores)])


def chain_graph(catalog, runtimes=(100, 200), size: int = 1000,
                deadline: int = 100_000, patterns=None) -> TaskGraph:
    """a -> b1 -> b -> b2 -> ... linear chain, every buffer allowing the
    given patterns (default: the whole catalog)."""
    allowed = patterns if patterns is not None else tuple(p.name for p in catalog)
    tasks = {}
    buffers = {}
    n = len(runtimes)
    for i, rt in enumerate(runtimes):
        tid = f"t{i}"
        inputs = (f"b{i - 1}",) if i else ()
        ext = () if i else (ExternalInput(stream="port", release=0),)
        tasks[tid] = TaskInstance(
            id=tid, function=f"fn{i}", runtime=rt, internalsize=0,
            inputs=inputs, outputs=(f"b{i}",), external_inputs=ext)
        observers = (f"t{i + 1}",) if i + 1 < n else ()
        buffers[f"b{i}"] = Buffer(id=f"b{i}", size=size, definer=tid,
                                  observers=observers, allowed_patterns=allowed)
    return TaskGraph(tasks=tasks, buffers=buffers, deadline=deadline)


def exactly(line: int, column: int, message: str) -> str:
    """A ``pytest.raises`` match pattern that a ``DiagnosticError`` meets
    only when it carries this one diagnostic, at this line and column."""
    return rf"\A{line}:{column}: error: {re.escape(message)}\Z"


def add_scenario_file(manifest: Path, *docs) -> None:
    """Add a scenario file holding ``docs``, each a (name, injections)
    pair, to the run manifest at ``manifest``."""
    (manifest.parent / "extra.yaml").write_text(yaml.safe_dump_all(
        {"apiVersion": "rdsl/v0", "kind": "scenario",
         "metadata": {"name": name}, "spec": {"injections": injections}}
        for name, injections in docs))
    manifest.write_text(manifest.read_text()
                        + "  scenario_files: [extra.yaml]\n")


@pytest.fixture(scope="session")
def topo2():
    return make_topology(2)


@pytest.fixture(scope="session")
def catalog2(topo2):
    return generate_patterns_from_topology(topo2)


@pytest.fixture(scope="session")
def paper_dir():
    return FIXTURES / "paper"


@pytest.fixture(scope="session")
def trivial_dir():
    return FIXTURES / "trivial"


@pytest.fixture(scope="session")
def du_dir():
    return FIXTURES / "du_analog"


@pytest.fixture(scope="session")
def du_runs(du_dir, tmp_path_factory):
    """Two full scenario runs of the downlink analog through the CLI,
    for determinism and ordering checks; cached because each run solves
    a dozen scheduling problems."""
    import time

    from ddtwin.cli import cmd_scenarios, load_run_manifest

    runs = []
    for k in range(2):
        out = tmp_path_factory.mktemp(f"du_run{k}")
        manifest = load_run_manifest(du_dir / "manifest.yaml", out=str(out))
        t0 = time.time()
        code = cmd_scenarios(manifest)
        runs.append({
            "exit": code,
            "seconds": time.time() - t0,
            "csv": (out / "scenarios.csv").read_bytes(),
            "table": (out / "scenarios.txt").read_text(),
        })
    return runs
