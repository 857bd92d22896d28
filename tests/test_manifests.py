"""Multi-document YAML constraint manifests and timing equations."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from ddtwin.diagnostics import DiagnosticError
from ddtwin.manifests import (FunctionMetadata, TimingEqualityDoc,
                              TimingEquationDoc, equation_symbols,
                              evaluate_timing_equation,
                              parse_constraint_stream)
from conftest import exactly


def test_bundled_equality_doc(paper_dir):
    docs = parse_constraint_stream((paper_dir / "constraints.yaml").read_text())
    eq = docs[0]
    assert isinstance(eq, TimingEqualityDoc)
    assert eq.name == "Modem_Period"
    assert eq.variable_name == "modem_period"
    assert eq.op == "equal"
    assert eq.value == 1_000_000
    # a clock-cycle document has no other field
    assert eq == TimingEqualityDoc("Modem_Period", "modem_period", "equal",
                                   1_000_000)


def test_bundled_equation_doc(paper_dir):
    docs = parse_constraint_stream((paper_dir / "constraints.yaml").read_text())
    eq = docs[1]
    assert isinstance(eq, TimingEquationDoc)
    assert eq.name == "Modem_Period2"
    assert eq.equation == "C <= A*370 + B < 500"
    assert eq.bindings == {"C": "grid_period", "A": "num_ue1", "B": "gp_base"}


def test_bundled_sdk_doc(paper_dir):
    docs = parse_constraint_stream((paper_dir / "sdk.yaml").read_text())
    (fn,) = docs
    assert isinstance(fn, FunctionMetadata)
    assert fn.name == "NR5G1_DL_PDSCH_SYM"
    assert len(fn.available_patterns) == 16
    assert fn.elementsize == 2_800_000
    assert fn.internalsize == 8_000_000
    assert fn.runtime == 7_200


def _doc(kind="timing equality", **spec):
    base = {"apiVersion": "rdsl/v0", "kind": kind,
            "metadata": {"name": "D"}, "spec": spec}
    import yaml
    return yaml.safe_dump(base, sort_keys=False)


def test_equality_requires_positive_value():
    text = _doc(variable_name="x", constraint="equal", value=0, unit="clock")
    with pytest.raises(DiagnosticError, match="value"):
        parse_constraint_stream(text)


def test_unknown_constraint_op_rejected():
    text = _doc(variable_name="x", constraint="approx", value=5, unit="clock")
    with pytest.raises(DiagnosticError):
        parse_constraint_stream(text)


def test_unknown_kind_rejected():
    with pytest.raises(DiagnosticError, match="kind"):
        parse_constraint_stream(_doc(kind="mystery", variable_name="x", constraint="equal", value=1, unit="clock"))


def test_missing_api_version_rejected():
    with pytest.raises(DiagnosticError, match="apiVersion"):
        parse_constraint_stream("kind: timing\nmetadata: {name: x}\nspec: {}\n")


def test_wrong_api_version_rejected():
    text = _doc(variable_name="x", constraint="equal", value=5, unit="clock") \
        .replace("rdsl/v0", "rdsl/v9")
    with pytest.raises(DiagnosticError, match="rdsl/v9"):
        parse_constraint_stream(text)


def test_document_index_in_errors():
    good = _doc(variable_name="x", constraint="equal", value=5, unit="clock")
    bad = "apiVersion: rdsl/v0\nkind: timing equality\nmetadata: {name: y}\nspec: {}\n"
    # a missing field sits at its spec: the fourth line after the first
    # document and its "---"
    with pytest.raises(DiagnosticError, match=exactly(
            good.count("\n") + 5, 7,
            "document 2: missing required field 'variable_name'")):
        parse_constraint_stream(good + "---\n" + bad)


def _sdk(**fields):
    spec = {"available patterns": ["p"], "elementsize": 1, "internalsize": 1,
            "runtime": 1}
    return _doc(kind="SDK", **{**spec, **fields})


@pytest.mark.parametrize("text,line,column,message", [
    (_sdk(internalsize=0), 9, 17,
     "document 1: field 'internalsize' must be positive, got 0"),
    (_sdk(runtime="fast"), 10, 12,
     "document 1: field 'runtime' must be an integer, got 'fast'"),
    (_sdk(**{"available patterns": ["p", 3]}), 7, 3,
     "document 1: 'available patterns' must be a string list, got ['p', 3]"),
    (_doc(variable_name="x", constraint="approx", value=5), 7, 15,
     "document 1: constraint must be one of ('equal', 'le', 'ge'), "
     "got 'approx'"),
    (_doc(kind="timing equation", equation="C <= D", C="gp"), 6, 13,
     "document 1: placeholder 'D' in equation has no spec binding"),
])
def test_field_refusals_sit_at_the_field(text, line, column, message):
    with pytest.raises(DiagnosticError, match=exactly(line, column, message)):
        parse_constraint_stream(text)


def test_equation_symbols():
    doc = TimingEquationDoc(name="E", equation="C <= A*370 + B < 500",
                            bindings={"C": "gp", "A": "n", "B": "b"})
    assert equation_symbols(doc) == {"gp", "n", "b"}


def test_equation_chained_relops():
    doc = TimingEquationDoc(name="E", equation="C <= A*370 + B < 500",
                            bindings={"C": "gp", "A": "n", "B": "b"})
    assert evaluate_timing_equation(doc, {"gp": 400, "n": 1, "b": 100})
    # 370 + 100 = 470 but gp exceeds it
    assert not evaluate_timing_equation(doc, {"gp": 480, "n": 1, "b": 100})
    # right bound: 370 + 130 = 500 is not < 500
    assert not evaluate_timing_equation(doc, {"gp": 400, "n": 1, "b": 130})


def test_equation_rejects_unbound_letter():
    text = _doc(kind="timing equation", equation="C <= D", C="gp")
    with pytest.raises(DiagnosticError, match="'D'"):
        parse_constraint_stream(text)


@pytest.mark.parametrize("kind,spec,position,message", [
    ("timing equality",
     dict(variable_name="x", constraint="equal", value=5, unit="ns"), (9, 9),
     "document 1: unsupported unit 'ns' (only 'clock' cycles are supported)"),
    ("timing equation", dict(equation="C <= 5", C="c", unit="ns"), (8, 9),
     "document 1: unsupported unit 'ns' (only 'clock' cycles are supported)"),
    # a missing field sits at its spec
    ("SDK", dict(elementsize=1, internalsize=1, runtime=1), (6, 3),
     "document 1: missing required field 'available patterns'"),
    # one spelling only: the underscored key is not read
    ("SDK", {"available_patterns": ["p"], "elementsize": 1, "internalsize": 1,
             "runtime": 1}, (6, 3),
     "document 1: missing required field 'available patterns'"),
    ("SDK", {"available patterns": [], "elementsize": 1, "internalsize": 1,
             "runtime": 1}, (6, 23),
     "document 1: 'available patterns' must not be empty"),
])
def test_unit_and_pattern_list_refusals(kind, spec, position, message):
    with pytest.raises(DiagnosticError) as err:
        parse_constraint_stream(_doc(kind=kind, **spec))
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] \
        == [(*position, message)]


@pytest.mark.parametrize("equation,diagnostic", [
    ("C <= A $ 3", (6, 13, "document 1: bad equation syntax near '$ 3' "
                          "(column 8 of the equation)")),
    # only ASCII digits make a constant: Arabic-Indic 30 is refused
    ("C <= \u0663\u0660", (6, 13, "document 1: bad equation syntax near "
                                  "'\u0663\u0660' (column 6 of the equation)")),
    ("", (6, 13, "document 1: equation of 'D' is empty")),
    ("C <= + A", (6, 13, "document 1: dangling operator in equation of 'D'")),
    ("C <= A <=", (6, 13, "document 1: dangling operator in equation of 'D'")),
    ("C <= A*B", (6, 13, "document 1: non-linear product in equation of 'D'")),
    ("C <= * A", (6, 13, "document 1: dangling '*' in equation of 'D'")),
    ("C + A", (6, 13, "document 1: equation of 'D' needs at least one relation")),
])
def test_equation_syntax_errors(equation, diagnostic):
    """A malformed equation is reported at the equation."""
    text = _doc(kind="timing equation", equation=equation, A="a", B="b", C="c")
    with pytest.raises(DiagnosticError) as err:
        parse_constraint_stream(text)
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] \
        == [diagnostic]
    # the same document second in a stream, starting on line 12 after the
    # comment, the 8-line first document, an empty line and the separator,
    # so that its equation sits on line 17
    later = "\n".join(["# the period", _doc(variable_name="x", constraint="equal",
                                              value=5), "---", text])
    with pytest.raises(DiagnosticError) as err:
        parse_constraint_stream(later)
    _, _, message = diagnostic
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] \
        == [(17, 13, message.replace("document 1", "document 2"))]


@given(a=st.integers(min_value=0, max_value=10),
       b=st.integers(min_value=0, max_value=500),
       c=st.integers(min_value=0, max_value=5000))
def test_equation_matches_python_semantics(a, b, c):
    doc = TimingEquationDoc(name="E", equation="C <= A*370 + B < 500",
                            bindings={"C": "gp", "A": "n", "B": "b"})
    expected = c <= a * 370 + b < 500
    assert evaluate_timing_equation(doc, {"gp": c, "n": a, "b": b}) == expected
