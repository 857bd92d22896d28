"""Flow expansion into task graphs, plus static whole-graph checks."""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from ddtwin.diagnostics import DiagnosticError
from ddtwin.elaborate import check_static, elaborate
from ddtwin.flows import MAX_FLOW_NESTING, SymbolTable, parse_flow_source
from ddtwin.graph import Buffer, ExternalInput, TaskGraph, TaskInstance, \
    graph_to_json
from ddtwin.hardware import parse_deployment
from ddtwin.manifests import FunctionMetadata, parse_constraint_stream
from ddtwin.patterns import generate_patterns_from_topology
from conftest import make_topology

TOPO = make_topology(2)
CATALOG = generate_patterns_from_topology(TOPO)
ALL_PATTERNS = tuple(p.name for p in CATALOG.patterns)


def md(fn, runtime=100, elementsize=1000, internalsize=5000,
       patterns=ALL_PATTERNS):
    return FunctionMetadata(name=fn, available_patterns=patterns,
                            elementsize=elementsize,
                            internalsize=internalsize, runtime=runtime)


def expand(src, symbols=None, metadata=None, entry="main"):
    defs = parse_flow_source(src)
    leaves = metadata if metadata is not None else [md("leafA"), md("leafB")]
    return elaborate(defs, entry, SymbolTable(symbols or {}), leaves, CATALOG)


# -- bundled channel-estimation pipeline --------------------------------------

@pytest.fixture(scope="module")
def srs_graph(paper_dir):
    defs = parse_flow_source((paper_dir / "srs_chest.rdsl").read_text())
    docs = parse_constraint_stream((paper_dir / "sdk_stubs.yaml").read_text())
    metadata = [d for d in docs if isinstance(d, FunctionMetadata)]
    from ddtwin.patterns import parse_pattern_catalog
    catalog = parse_pattern_catalog((paper_dir / "patterns.xml").read_text())
    dep = parse_deployment((paper_dir / "deployment.yaml").read_text())
    return elaborate(defs, dep.entry_flow, SymbolTable(dep.symbols),
                     metadata, catalog, slot_budget=dep.slot_budget)


def test_bundled_graph_population(srs_graph):
    assert len(srs_graph.tasks) == 10
    assert len(srs_graph.buffers) == 18
    assert srs_graph.deadline == 1_000_000


def test_bundled_task_ids_cover_both_index_axes(srs_graph):
    chest = [t for t in srs_graph.tasks
             if t.startswith("srsChestProc_perUE_perRxAnt_flow")]
    send = [t for t in srs_graph.tasks
            if t.startswith("sendSrsChest_to_MAC_flow")]
    assert len(chest) == 8 and len(send) == 2
    assert "srsChestProc_perUE_perRxAnt_flow[i=1,j=1]" in srs_graph.tasks
    assert "srsChestProc_perUE_perRxAnt_flow[i=2,j=4]" in srs_graph.tasks
    assert "sendSrsChest_to_MAC_flow[i=2]" in srs_graph.tasks


def test_bundled_external_ports_become_external_inputs(srs_graph):
    t = srs_graph.tasks["srsChestProc_perUE_perRxAnt_flow[i=1,j=1]"]
    assert t.inputs == ()
    assert t.external_inputs == (
        ExternalInput(stream="srsIQSymbols[1]", release=0),
        ExternalInput(stream="ueSpecific_srsInfo[1]", release=0))


def test_bundled_internal_stream_links_the_stages(srs_graph):
    buf = srs_graph.buffers["perUE_srsChestEst[1][1]"]
    assert buf.definer == "srsChestProc_perUE_perRxAnt_flow[i=1,j=1]"
    assert buf.observers == ("sendSrsChest_to_MAC_flow[i=1]",)
    assert buf.size == 60_000
    assert len(buf.allowed_patterns) == 16


def test_bundled_unobserved_error_stream_keeps_its_definer(srs_graph):
    buf = srs_graph.buffers["error_streams_type1[1][1]"]
    assert buf.definer == "srsChestProc_perUE_perRxAnt_flow[i=1,j=1]"
    assert buf.observers == ()


def test_bundled_graph_dump_names_every_field(srs_graph):
    # the graph.json dump is lossless: it writes every field of the graph,
    # of each task and external input, and of each buffer
    data = json.loads(graph_to_json(srs_graph))
    assert set(data) - {"kind"} == {f.name for f in fields(TaskGraph)}
    assert {frozenset(t) for t in data["tasks"]} == \
        {frozenset(f.name for f in fields(TaskInstance))}
    assert {frozenset(e) for t in data["tasks"] for e in t["external_inputs"]} == \
        {frozenset(f.name for f in fields(ExternalInput))}
    assert {frozenset(b) for b in data["buffers"]} == \
        {frozenset(f.name for f in fields(Buffer))}


def test_bundled_graph_is_statically_clean(srs_graph, paper_dir):
    from ddtwin.hardware import parse_topology
    topo = parse_topology((paper_dir / "topology.yaml").read_text())
    assert check_static(srs_graph, topo) == []


# -- small synthetic flows -----------------------------------------------------

def test_header_decl_defaults_to_flow_output():
    g = expand("""\
Flow main
    x : stream
    y : stream{type = in}

leafA[data_in = y, out_out = x]
""", metadata=[md("leafA")])
    task = g.tasks["leafA"]
    assert task.external_inputs == (ExternalInput(stream="y", release=0),)
    assert task.outputs == ("x",)
    assert g.buffers["x"].observers == ()          # leaves the graph
    assert g.buffers["x"].size == 1000             # elementsize of definer


def test_subflow_instances_qualify_inner_names():
    g = expand("""\
Flow main
    out : stream[N]

sub[k = 1:N, r = out[k]]

Flow sub
    r : stream

inner : stream
leafA[t_out = inner]
leafB[t_in = inner, u_out = r]
""", symbols={"N": 2})
    assert sorted(g.tasks) == ["sub[k=1]/leafA", "sub[k=1]/leafB",
                               "sub[k=2]/leafA", "sub[k=2]/leafB"]
    inner = g.buffers["sub[k=1]/inner"]
    assert inner.definer == "sub[k=1]/leafA"
    assert inner.observers == ("sub[k=1]/leafB",)
    # the bound formal keeps the caller's name
    assert g.buffers["out[2]"].definer == "sub[k=2]/leafB"


def test_runtime_and_footprint_come_from_metadata():
    g = expand("""\
Flow main
    x : stream

leafA[out_out = x]
""", metadata=[md("leafA", runtime=777, internalsize=123)])
    assert g.tasks["leafA"].runtime == 777
    assert g.tasks["leafA"].internalsize == 123


# -- diagnostics ---------------------------------------------------------------

def test_missing_entry_flow():
    with pytest.raises(DiagnosticError, match="entry flow 'nope' is not defined"):
        expand("""\
Flow main
    x : stream

leafA[out_out = x]
""", entry="nope", metadata=[md("leafA")])


def test_leaf_without_metadata():
    with pytest.raises(DiagnosticError, match="no SDK metadata for function 'leafA'"):
        expand("""\
Flow main
    x : stream

leafA[out_out = x]
""", metadata=[])


def test_metadata_naming_pattern_outside_catalog():
    bad = md("leafA", patterns=("ghost.c_0",))
    with pytest.raises(DiagnosticError, match="'ghost.c_0' which is not in the catalog"):
        expand("""\
Flow main
    x : stream

leafA[out_out = x]
""", metadata=[bad])


def test_leaf_formal_without_direction_suffix():
    with pytest.raises(DiagnosticError,
                       match="cannot infer direction of formal 'data'"):
        expand("""\
Flow main
    x : stream

leafA[data = x]
""", metadata=[md("leafA")])
    # once, at the binding, however many times the range expands it
    with pytest.raises(DiagnosticError) as err:
        expand("""\
Flow main
    x : stream[3]

leafA[i = 1:3, data = x[i]]
""", metadata=[md("leafA")])
    assert [(d.line, d.column) for d in err.value.diagnostics] == [(4, 16)]
    assert "cannot infer direction of formal 'data'" in str(err.value)


def test_double_definition_across_index_groups():
    with pytest.raises(DiagnosticError,
                       match=r"stream slot 'm\[1\]' defined by both "
                             r"'leafA\[i=1\]' and 'leafB'"):
        expand("""\
Flow main
    m : stream[2]

leafA[i = 1:1, q_out = m[i]]
leafB[w_out = m[1]]
""")
    # elaborate validates the flows it is given
    with pytest.raises(DiagnosticError, match="index 'k'"):
        expand("""\
Flow main
    m : stream[2]

leafA[i = 1:1, q_out = m[k]]
""")


@pytest.mark.parametrize("src, expected", [
    ("""\
Flow main
    y : stream{type = in}
    x : stream

leafA[data_in = y, w_out = y]
leafB[q_in = y, r_out = x]
""", (5, 20, "task 'leafA' writes input stream 'y'")),
    # at the later of the two defining bindings
    ("""\
Flow main
    m : stream[2]

leafA[i = 1:2, q_out = m[i]]
leafB[w_out = m[2]]
""", (5, 7, "stream slot 'm[2]' defined by both 'leafA[i=2]' and 'leafB'")),
    ("""\
Flow main
    x : stream[2]
    m : stream[2]

leafA[q_out = m[1]]
leafB[i = 1:2, w_in = m[i], r_out = x[i]]
""", (6, 16, "stream slot 'm[2]' is observed by 'leafB[i=2]' but never defined")),
    # inside a sub-flow, at the leaf binding there
    ("""\
Flow main
    x : stream

sub[p_out = x]

Flow sub
    p_out : stream
n : stream[2]

leafA[q_in = n[2], w_out = p_out]
leafB[v_out = n[1]]
""", (10, 7, "stream slot 'sub/n[2]' is observed by 'sub/leafA' but never defined")),
])
def test_slot_diagnostics_name_the_binding(src, expected):
    with pytest.raises(DiagnosticError) as err:
        expand(src)
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [expected]


def test_dependency_cycle_is_reported():
    with pytest.raises(DiagnosticError,
                       match="dependency cycle through tasks: leafA -> leafB"):
        expand("""\
Flow main
    a : stream
    b : stream

leafA[x_in = b, y_out = a]
leafB[x_in = a, y_out = b]
""")


def test_dependency_cycle_names_only_tasks_on_it():
    # aa waits on the cycle without being on it
    with pytest.raises(DiagnosticError,
                       match=r"dependency cycle through tasks: yy -> zz -> yy$"):
        expand("""\
Flow main
    a : stream
    b : stream
    c : stream

yy[x_in = b, y_out = a]
zz[x_in = a, y_out = b]
aa[x_in = a, y_out = c]
""", metadata=[md("yy"), md("zz"), md("aa")])


def test_unbound_flow_parameter():
    with pytest.raises(DiagnosticError, match="leaves parameter 'r' unbound"):
        expand("""\
Flow main
    out : stream

sub[]

Flow sub
    r : stream

leafA[t_out = r]
""", metadata=[md("leafA")])
    # once, at the instantiation, however many times the range expands it
    with pytest.raises(DiagnosticError) as err:
        expand("""\
Flow main
    out : stream

sub[i = 1:3]

Flow sub
    r : stream

leafA[t_out = r]
""", metadata=[md("leafA")])
    assert [(d.line, d.column) for d in err.value.diagnostics] == [(4, 1)]
    assert "leaves parameter 'r' unbound" in str(err.value)


def test_repeated_instance_is_reported_not_merged():
    # the same id for two leaf tasks would merge them into one
    with pytest.raises(DiagnosticError) as err:
        expand("""\
Flow main
    x : stream
    y : stream

leafA[out_out = x]
leafA[out_out = y]
""")
    assert [(d.line, d.column) for d in err.value.diagnostics] == [(6, 1)]
    assert "repeats instance 'leafA' of flow 'main'" in str(err.value)
    # overlapping ranges of a sub-flow, once however often it expands
    with pytest.raises(DiagnosticError) as err:
        expand("""\
Flow main
    out : stream[2][3]

mid[k = 1:2, s = out[k]]

Flow mid
    s : stream[3]

sub[i = 1:2, r = s[i]]
sub[i = 2:3, r = s[i]]

Flow sub
    r : stream

leafA[t_out = r]
""", metadata=[md("leafA")])
    assert [(d.line, d.column) for d in err.value.diagnostics] == [(10, 1)]
    assert "repeats instance 'sub[i=2]' of flow 'mid'" in str(err.value)


def test_acyclic_nesting_deeper_than_32_levels_elaborates():
    # only a cycle is refused; a long chain of distinct flows expands
    levels = 40
    parts = [f"Flow main\n    x : stream\n\nf1[s = x]\n"]
    for k in range(1, levels):
        parts.append(f"Flow f{k}\n    s : stream\n\nf{k + 1}[s = s]\n")
    parts.append(f"Flow f{levels}\n    s : stream\n\nleafA[t_out = s]\n")
    g = expand("\n".join(parts), metadata=[md("leafA")])
    assert len(g.tasks) == 1
    (task_id,) = g.tasks
    assert task_id.endswith("leafA")


def _chain(levels):
    """``main`` over ``levels - 1`` nested flows down to one leaf; the
    instantiation in the flow at level k sits on line 5k - 1."""
    parts = ["Flow main\n    x : stream\n\nf1[s = x]\n"]
    for k in range(1, levels - 1):
        parts.append(f"Flow f{k}\n    s : stream\n\nf{k + 1}[s = s]\n")
    parts.append(f"Flow f{levels - 1}\n    s : stream\n\nleafA[t_out = s]\n")
    return "\n".join(parts)


def test_nesting_up_to_the_limit_elaborates():
    g = expand(_chain(MAX_FLOW_NESTING), metadata=[md("leafA")])
    assert len(g.tasks) == 1


@pytest.mark.parametrize("levels", [MAX_FLOW_NESTING + 1, 1200])
def test_nesting_past_the_limit_is_refused_where_it_passes(levels):
    with pytest.raises(DiagnosticError) as err:
        expand(_chain(levels), metadata=[md("leafA")])
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
        (5 * MAX_FLOW_NESTING - 1, 1,
         f"instantiation of 'f{MAX_FLOW_NESTING}' nests flows more than "
         f"{MAX_FLOW_NESTING} levels deep")]


@given(n=st.integers(min_value=1, max_value=4),
       m=st.integers(min_value=1, max_value=4))
def test_expansion_count_is_product_of_ranges(n, m):
    g = expand("""\
Flow main
    x : stream[N][M]

leafA[i = 1:N, j = 1:M, out_out = x[i][j]]
""", symbols={"N": n, "M": m}, metadata=[md("leafA")])
    assert len(g.tasks) == n * m
    assert len(g.buffers) == n * m


# -- static checks on tampered graphs -------------------------------------------

def _tiny_graph():
    return expand("""\
Flow main
    x : stream
    y : stream{type = in}

leafA[data_in = y, mid_out = m]
m : stream
leafB[data_in = m, out_out = x]
""")


def test_static_check_flags_unreachable_task():
    g = _tiny_graph()
    buf = g.buffers["m"]
    g.buffers["m"] = replace(buf, observers=())
    t = g.tasks["leafB"]
    g.tasks["leafB"] = replace(t, inputs=())
    kinds = {(f.kind, f.subject) for f in check_static(g, TOPO)}
    assert ("unreachable", "leafB") in kinds


def test_static_check_flags_guaranteed_overflow():
    g = _tiny_graph()
    buf = g.buffers["m"]
    g.buffers["m"] = replace(buf, size=10**12)
    kinds = {(f.kind, f.subject) for f in check_static(g, TOPO)}
    assert ("guaranteed_overflow", "m") in kinds
