"""Attaching timing documents to an elaborated graph."""

from __future__ import annotations

import pytest
import yaml

from ddtwin.diagnostics import DiagnosticError
from ddtwin.elaborate import bind_timing, elaborate
from ddtwin.flows import SymbolTable, collect_labels, parse_flow_source
from ddtwin.graph import ExternalInput
from ddtwin.manifests import FunctionMetadata, parse_constraint_stream
from ddtwin.patterns import generate_patterns_from_topology
from conftest import make_topology

CATALOG = generate_patterns_from_topology(make_topology(2))
ALL_PATTERNS = tuple(p.name for p in CATALOG.patterns)

SRC = """\
Flow main
    x : stream{label = xdone}
    y : stream{type = in, label = yin}

leafA[data_in = y, mid_out = m]
m : stream
leafB[data_in = m, out_out = x]
"""


def doc(kind, name, **spec):
    text = yaml.safe_dump({"apiVersion": "rdsl/v0", "kind": kind,
                           "metadata": {"name": name}, "spec": spec})
    return parse_constraint_stream(text)[0]


def equality(name, variable, op, value):
    return doc("timing equality", name, variable_name=variable,
               constraint=op, value=value, unit="clock")


@pytest.fixture()
def graph_and_labels():
    defs = parse_flow_source(SRC)
    md = [FunctionMetadata(name=fn, available_patterns=ALL_PATTERNS,
                           elementsize=1000, internalsize=5000, runtime=100)
          for fn in ("leafA", "leafB")]
    return elaborate(defs, "main", SymbolTable({}), md, CATALOG), \
        collect_labels(defs)


def test_labels_map_to_declaring_stream():
    labels = collect_labels(parse_flow_source(SRC))
    assert labels == {"xdone": ("main", "x"), "yin": ("main", "y")}


def test_unbound_graph_deadline_is_effectively_infinite(graph_and_labels):
    g, _ = graph_and_labels
    assert g.deadline >= 10**15


def test_equal_on_modem_period_pins_the_deadline(graph_and_labels):
    g, labels = graph_and_labels
    g2 = bind_timing(g, [equality("Slot", "modem_period", "equal", 500_000)],
                     labels)
    assert g2.deadline == 500_000


def test_le_on_modem_period_caps_the_deadline(graph_and_labels):
    g, labels = graph_and_labels
    docs = [equality("Slot", "modem_period", "equal", 500_000),
            equality("Cap", "modem_period", "le", 300_000)]
    assert bind_timing(g, docs, labels).deadline == 300_000
    # a looser cap does not widen a pinned value
    docs = [equality("Slot", "modem_period", "equal", 500_000),
            equality("Cap", "modem_period", "le", 900_000)]
    assert bind_timing(g, docs, labels).deadline == 500_000


def test_conflicting_pins_are_rejected(graph_and_labels):
    g, labels = graph_and_labels
    docs = [equality("A", "modem_period", "equal", 500_000),
            equality("B", "modem_period", "equal", 600_000)]
    with pytest.raises(DiagnosticError, match="different values"):
        bind_timing(g, docs, labels)


def test_ge_on_modem_period_is_meaningless(graph_and_labels):
    g, labels = graph_and_labels
    with pytest.raises(DiagnosticError, match="does not constrain the slot"):
        bind_timing(g, [equality("A", "modem_period", "ge", 10)], labels)


def test_le_on_defined_stream_sets_availability_deadline(graph_and_labels):
    g, labels = graph_and_labels
    g2 = bind_timing(g, [equality("XD", "xdone", "le", 400_000)], labels)
    assert g2.buffers["x"].avail_deadline == 400_000
    # tightest of several wins
    docs = [equality("XD", "xdone", "le", 400_000),
            equality("XD2", "xdone", "le", 250_000)]
    assert bind_timing(g, docs, labels).buffers["x"].avail_deadline == 250_000


def test_ge_on_defined_stream_sets_release(graph_and_labels):
    g, labels = graph_and_labels
    g2 = bind_timing(g, [equality("XR", "xdone", "ge", 900)], labels)
    assert g2.buffers["x"].release == 900


def test_equal_on_defined_stream_is_ambiguous(graph_and_labels):
    g, labels = graph_and_labels
    with pytest.raises(DiagnosticError, match="ambiguous"):
        bind_timing(g, [equality("X", "xdone", "equal", 10)], labels)


def test_arrival_constraint_lands_on_external_input(graph_and_labels):
    g, labels = graph_and_labels
    g2 = bind_timing(g, [equality("Y", "yin", "ge", 123)], labels)
    assert g2.tasks["leafA"].external_inputs == (
        ExternalInput(stream="y", release=123),)
    # equal means the same thing on an arrival port
    g3 = bind_timing(g, [equality("Y", "yin", "equal", 44)], labels)
    assert g3.tasks["leafA"].external_inputs[0].release == 44


def test_le_on_input_port_is_rejected(graph_and_labels):
    g, labels = graph_and_labels
    with pytest.raises(DiagnosticError, match="does not constrain arrival"):
        bind_timing(g, [equality("Y", "yin", "le", 99)], labels)


def test_label_unknown_to_the_graph(graph_and_labels):
    g, labels = graph_and_labels
    labels = dict(labels, orphan=("main", "zzz"))
    with pytest.raises(DiagnosticError, match="no task in this graph touches"):
        bind_timing(g, [equality("Z", "orphan", "ge", 1)], labels)


def test_variable_that_is_not_a_label(graph_and_labels):
    g, labels = graph_and_labels
    with pytest.raises(DiagnosticError,
                       match="neither a stream label nor a reserved name"):
        bind_timing(g, [equality("W", "who_knows", "le", 1)], labels)


def test_equation_is_retained_for_schedule_evaluation(graph_and_labels):
    g, labels = graph_and_labels
    eq = doc("timing equation", "Eq", equation="C <= A*2 + B < 100",
             C="xdone", A="modem_period", B="gp", unit="clock")
    g2 = bind_timing(g, [eq], labels, equation_values={"gp": 7})
    assert [d.name for d in g2.bound_constraints] == ["Eq"]
    assert g2.symbol_values == {"gp": 7}


def test_equation_with_unresolvable_symbol(graph_and_labels):
    g, labels = graph_and_labels
    eq = doc("timing equation", "Eq", equation="C <= A*2 + B < 100",
             C="xdone", A="modem_period", B="gp", unit="clock")
    with pytest.raises(DiagnosticError, match="'gp'"):
        bind_timing(g, [eq], labels)   # gp has no assigned value


def test_function_metadata_documents_pass_through(graph_and_labels):
    g, labels = graph_and_labels
    md = FunctionMetadata(name="other", available_patterns=ALL_PATTERNS,
                          elementsize=1, internalsize=1, runtime=1)
    g2 = bind_timing(g, [md], labels)
    assert g2.deadline == g.deadline
    assert list(g2.bound_constraints) == []


SRC_2SLOT = """\
Flow main
    x : stream[2]{label = xdone}
    y : stream[2]{type = in, label = yin}

leafA[i = 1:2, data_in = y[i], out_out = x[i]]
"""


@pytest.fixture()
def two_slot_graph_and_labels():
    defs = parse_flow_source(SRC_2SLOT)
    md = [FunctionMetadata(name="leafA", available_patterns=ALL_PATTERNS,
                           elementsize=1000, internalsize=5000, runtime=100)]
    return elaborate(defs, "main", SymbolTable({}), md, CATALOG), \
        collect_labels(defs)


@pytest.mark.parametrize("variable, op, message", [
    ("xdone", "equal", "document 'D': 'equal' is ambiguous on the defined stream 'x'; "
                       "use le or ge"),
    ("yin", "le", "document 'D': 'le' on input port 'y' does not constrain arrival"),
], ids=["equal-on-defined-stream", "le-on-input-port"])
def test_refused_document_is_reported_once_however_many_slots(
        two_slot_graph_and_labels, variable, op, message):
    g, labels = two_slot_graph_and_labels
    with pytest.raises(DiagnosticError) as err:
        bind_timing(g, [equality("D", variable, op, 10)], labels)
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] == [
        (1, 1, message)]


def test_accepted_document_applies_to_every_slot(two_slot_graph_and_labels):
    g, labels = two_slot_graph_and_labels
    docs = [equality("XD", "xdone", "le", 400), equality("XR", "xdone", "ge", 7),
            equality("Y", "yin", "equal", 44)]
    g2 = bind_timing(g, docs, labels)
    assert [(b.avail_deadline, b.release) for b in g2.buffers.values()] == [(400, 7)] * 2
    assert [t.external_inputs for t in g2.tasks.values()] == [
        (ExternalInput(stream="y[1]", release=44),),
        (ExternalInput(stream="y[2]", release=44),)]
