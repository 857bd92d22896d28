"""Topology and deployment YAML parsing."""

from __future__ import annotations

import re

import pytest

from ddtwin.diagnostics import DiagnosticError
from ddtwin.hardware import (DEFAULT_COST_TABLE, parse_deployment,
                             parse_topology)

BASE = """
memories:
  - {id: L2_0, level: L2, capacity: 1000}
  - {id: L3_0, level: L3, capacity: 8000}
  - {id: DDR_0, level: DDR, capacity: 100000}
cores:
  - {id: 0, l2: L2_0, l3: L3_0}
"""


def test_parse_minimal_topology():
    topo = parse_topology(BASE)
    assert [c.id for c in topo.cores] == [0]
    assert topo.core(0).l2 == "L2_0"
    assert {m.id: m.level for m in topo.memories} == {
        "L2_0": "L2", "L3_0": "L3", "DDR_0": "DDR"}


def test_unknown_core_id_raises_key_error():
    topo = parse_topology(BASE)
    with pytest.raises(KeyError, match="no core 1"):
        topo.core(1)


def test_cost_table_defaults_without_overrides():
    assert parse_topology(BASE).pattern_costs == DEFAULT_COST_TABLE


def test_cost_overrides_merge_into_defaults():
    topo = parse_topology(
        BASE + "pattern_costs:\n  big_delay: {base: 99, bandwidth: 8}\n")
    assert topo.pattern_costs["big_delay"] == (99, 8)
    assert topo.pattern_costs["pipeline"] == DEFAULT_COST_TABLE["pipeline"]
    assert topo.pattern_costs["L2toL2"] == DEFAULT_COST_TABLE["L2toL2"]


def test_override_may_drop_bandwidth_term():
    topo = parse_topology(
        BASE + "pattern_costs:\n  L2toL2: {base: 5}\n")
    assert topo.pattern_costs["L2toL2"] == (5, None)


def test_bundled_four_core_slice(paper_dir):
    topo = parse_topology((paper_dir / "topology.yaml").read_text())
    assert len(topo.cores) == 4
    l3 = next(m for m in topo.memories if m.id == "L3_0")
    assert l3.capacity == 48 * 1024 * 1024


def test_unknown_memory_level_rejected():
    with pytest.raises(DiagnosticError, match="unknown level 'HBM'"):
        parse_topology(BASE.replace("level: DDR", "level: HBM"))


def test_core_referencing_missing_memory_rejected():
    with pytest.raises(DiagnosticError, match="unknown memory 'L3_9'"):
        parse_topology(BASE.replace("l3: L3_0", "l3: L3_9"))


@pytest.mark.parametrize("old,new,message", [
    ("{id: 0, l2: L2_0, l3: L3_0}", "{id: 0, l2: L2_0}",
     "core 1 is missing 'l3'"),
    ("{id: 0, l2: L2_0", "{id: zero, l2: L2_0",
     "core 1: 'id' must be an integer, got 'zero'"),
    ("capacity: 8000", "capacity: lots",
     "memory 2: 'capacity' must be an integer, got 'lots'"),
    ("capacity: 8000", "capacity: 0.5",
     r"memory 2: 'capacity' must be an integer, got 0\.5"),
    ("capacity: 8000", "capacity: -1",
     "memory 2: 'capacity' must be non-negative, got -1"),
    ("level: L3, capacity: 8000", "level: L3", "memory 2 is missing 'capacity'"),
    ("{id: DDR_0, ", "{", "memory 3 is missing 'id'"),
    ("{id: DDR_0, level: DDR, capacity: 100000}", "7",
     "memory 3 must be a mapping"),
    ("cores:\n", "pattern_costs: {L2toL2: {base: x}}\ncores:\n",
     "pattern_costs.L2toL2: 'base' must be an integer, got 'x'"),
    ("memories:\n", "memories: 5\nunused:\n",
     "topology memories must be a list, got 5"),
    ("cores:\n", "cores: 5\nunused:\n", "topology cores must be a list, got 5"),
    ("cores:\n", "pattern_costs: [L2toL2]\ncores:\n",
     r"topology pattern_costs must be a mapping, got \['L2toL2'\]"),
])
def test_malformed_memory_or_core_is_diagnosed(old, new, message):
    with pytest.raises(DiagnosticError, match=message):
        parse_topology(BASE.replace(old, new))


@pytest.mark.parametrize("old,new,message", [
    ("level: L3, capacity: 8000", "level: L3", "memory 2 is missing 'capacity'"),
    ("capacity: 8000", "capacity: -1",
     "memory 2: 'capacity' must be non-negative, got -1"),
    ("level: L3, capacity", "level: L4, capacity",
     "memory 'L3_0' has unknown level 'L4'"),
])
def test_a_refused_memory_gives_one_diagnostic(old, new, message):
    # the core naming the memory is not refused for it a second time
    with pytest.raises(DiagnosticError) as err:
        parse_topology(BASE.replace(old, new))
    assert [d.render() for d in err.value.diagnostics] == [f"1:1: error: {message}"]


def test_duplicate_core_ids_rejected():
    with pytest.raises(DiagnosticError, match="duplicate core ids"):
        parse_topology(BASE + "  - {id: 0, l2: L2_0, l3: L3_0}\n")


def test_unknown_cost_class_rejected():
    with pytest.raises(DiagnosticError, match="unknown class 'warp'"):
        parse_topology(BASE + "pattern_costs:\n  warp: {base: 1}\n")


def test_topology_must_be_a_mapping():
    with pytest.raises(DiagnosticError, match="mapping"):
        parse_topology("- 1\n- 2\n")


def test_topology_yaml_syntax_error_is_diagnosed():
    with pytest.raises(DiagnosticError, match="YAML parse error"):
        parse_topology("memories: [\n")


# -- deployment --------------------------------------------------------------

def test_parse_deployment_full():
    dep = parse_deployment("""
entry_flow: main
symbols: {N: 4, M: 2}
equation_values: {A: 3}
slot_budget: 500000
max_start_lag: 100
metadata_files: [a.yaml, b.yaml]
""")
    assert dep.entry_flow == "main"
    assert dep.symbols == {"N": 4, "M": 2}
    assert dep.equation_values == {"A": 3}
    assert dep.slot_budget == 500_000
    assert dep.max_start_lag == 100
    assert dep.metadata_files == ["a.yaml", "b.yaml"]


def test_deployment_defaults():
    dep = parse_deployment("entry_flow: main\n")
    assert dep.symbols == {}
    assert dep.slot_budget == 1_000_000
    assert dep.max_start_lag is None
    assert dep.metadata_files == []
    assert dep.equation_values == {}


def test_deployment_requires_entry_flow():
    with pytest.raises(DiagnosticError, match="entry_flow"):
        parse_deployment("symbols: {N: 4}\n")


def test_deployment_symbol_values_must_be_integers():
    with pytest.raises(DiagnosticError,
                       match="deployment symbols: 'N' must be an integer"):
        parse_deployment("entry_flow: main\nsymbols: {N: hello}\n")


@pytest.mark.parametrize("text,message", [
    ("equation_values: {A: x}",
     "deployment equation_values: 'A' must be an integer, got 'x'"),
    ("slot_budget: soon", "deployment: 'slot_budget' must be an integer"),
    ("max_start_lag: [1]", "deployment: 'max_start_lag' must be an integer"),
    ("slot_budget: 150.9", "deployment: 'slot_budget' must be an integer, got 150.9"),
    ('max_start_lag: "7"', "deployment: 'max_start_lag' must be an integer, got '7'"),
    ("symbols: {N: true}", "deployment symbols: 'N' must be an integer, got True"),
    ("symbols: 5", "deployment symbols must be a mapping, got 5"),
    ("metadata_files: 5", "deployment metadata_files must be a list, got 5"),
])
def test_malformed_deployment_is_diagnosed(text, message):
    with pytest.raises(DiagnosticError, match=re.escape(message)):
        parse_deployment(f"entry_flow: main\n{text}\n")
