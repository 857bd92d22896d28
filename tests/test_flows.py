"""Flow DSL front end: lexing, parsing, validation, labels, and a printer
that the round-trip tests parse back."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from ddtwin.diagnostics import DiagnosticError
from ddtwin.flows import (SymbolTable, collect_labels, parse_flow_source,
                          validate_flows)

BASIC = """\
Flow top
  pin : stream[N]{type = in}
  pout : stream[2][3]

% internal work stream
mid : stream[N]
worker[i = 1:N, a_in = pin[i], b_out = mid[i]]
join[c_in = mid, d_out = pout[1][2]]
"""


def test_parse_structure():
    defs = parse_flow_source(BASIC)
    assert [f.name for f in defs] == ["top"]
    top = defs[0]
    assert [d.name for d in top.params] == ["pin", "pout"]
    assert [d.name for d in top.internals] == ["mid"]
    assert [i.callee for i in top.instantiations] == ["worker", "join"]


def test_param_header_directions_default_out():
    defs = parse_flow_source(BASIC)
    pin, pout = defs[0].params
    assert pin.direction == "in"          # explicit {type = in}
    assert pout.direction == "out"        # header default
    assert defs[0].internals[0].direction == "internal"


def test_header_ends_at_dedent():
    src = """\
Flow top
  a : stream {type = in}

b : stream
  c : stream

leaf[x_in = a, y_out = b]
"""
    # once the header run is broken, later indented decls stay body decls
    defs = parse_flow_source(src)
    assert [d.name for d in defs[0].params] == ["a"]
    assert [d.name for d in defs[0].internals] == ["b", "c"]


def test_shapes_and_symbolic_dims():
    defs = parse_flow_source(BASIC)
    pin, pout = defs[0].params
    assert pin.shape == ["N"]
    assert pout.shape == [2, 3]
    assert pout.rank == 2


def test_iterator_bounds_inclusive_and_bindings():
    defs = parse_flow_source(BASIC)
    worker = defs[0].instantiations[0]
    (rng,) = worker.iterators
    assert (rng.var, rng.lower, rng.upper) == ("i", 1, "N")
    formals = [b.formal for b in worker.bindings]
    assert formals == ["a_in", "b_out"]
    assert worker.bindings[0].actual.stream == "pin"
    assert worker.bindings[0].actual.indices == ["i"]


def test_newlines_inside_brackets_are_insignificant():
    src = """\
Flow top
  a : stream {type = in}

b : stream
leaf[
  x_in = a,
  y_out = b
]
"""
    defs = parse_flow_source(src)
    assert [b.formal for b in defs[0].instantiations[0].bindings] \
        == ["x_in", "y_out"]


def test_comments_ignored_to_end_of_line():
    src = "Flow f % trailing\n  a : stream {type = in} % another\n\nb : stream\nleaf[x_in = a, y_out = b]\n"
    defs = parse_flow_source(src)
    assert defs[0].params[0].name == "a"


def test_labels_collected():
    src = """\
Flow f
  a : stream {type = in, label = x1}

b : stream {label = y}
leaf[p_in = a, q_out = b]
"""
    defs = parse_flow_source(src)
    assert collect_labels(defs) == {"x1": ("f", "a"), "y": ("f", "b")}


def test_repeated_label_attribute_collects_every_label():
    src = "Flow f\n  a : stream {type = in, label = x, label = y}\n\nleaf[p_in = a]\n"
    (decl,) = parse_flow_source(src)[0].params
    assert decl.labels == ["x", "y"]
    assert collect_labels(parse_flow_source(src)) == {"x": ("f", "a"),
                                                      "y": ("f", "a")}


def test_duplicate_label_rejected():
    src = """\
Flow f
  a : stream {type = in, label = x}

b : stream {label = x}
leaf[p_in = a, q_out = b]
"""
    with pytest.raises(DiagnosticError, match="label 'x'"):
        collect_labels(parse_flow_source(src))


def test_duplicate_flow_name_rejected():
    src = "Flow f\n  a : stream {type = in}\n\nleaf[x_in = a]\nFlow f\n  b : stream {type = in}\n\nleaf[x_in = b]\n"
    with pytest.raises(DiagnosticError, match="duplicate"):
        parse_flow_source(src)


def test_unterminated_bracket_diagnosed():
    with pytest.raises(DiagnosticError):
        parse_flow_source("Flow f\n  a : stream {type = in}\n\nleaf[x_in = a\n")


def test_unknown_keyword_diagnosed():
    with pytest.raises(DiagnosticError):
        parse_flow_source("Floow f\n")


def test_malformed_shape_diagnosed():
    with pytest.raises(DiagnosticError):
        parse_flow_source("Flow f\n  a : stream[]{type = in}\n")


def test_validate_rejects_arithmetic_indices():
    src = """\
Flow f
  a : stream[2] {type = in}

b : stream[2]
leaf[i = 1:2, x_in = a[i+1], y_out = b[i]]
"""
    with pytest.raises(DiagnosticError):
        validate_flows(parse_flow_source(src), SymbolTable({}))


def test_validate_resolves_symbolic_bounds():
    defs = validate_flows(parse_flow_source(BASIC), SymbolTable({"N": 4}))
    assert defs[0].params[0].shape == ["N"]  # shape text is preserved


def test_validate_rejects_unknown_symbol():
    with pytest.raises(DiagnosticError, match="N"):
        validate_flows(parse_flow_source(BASIC), SymbolTable({}))


_SELF = "flow 'loop' instantiates itself: loop -> loop"


@pytest.mark.parametrize("src,diagnostic", [
    ("Flow loop\n  x : stream\n\nloop[x = x]\n", (4, 1, _SELF)),
    # the ranged spelling would double the expansion at every level
    ("Flow loop\n  x : stream\n\nloop[i = 1:2, x = x]\n", (4, 1, _SELF)),
    ("Flow a\n  x : stream\n\nb[y = x]\n\nFlow b\n  y : stream\n\na[x = y]\n",
     (9, 1, "flow 'a' instantiates itself: a -> b -> a")),
])
def test_recursive_flow_reported_once_at_its_instantiation(src, diagnostic):
    with pytest.raises(DiagnosticError) as err:
        validate_flows(parse_flow_source(src), SymbolTable({}))
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] \
        == [diagnostic]


_HEAD = "Flow f\n  a : stream{type = in}\n\n"


@pytest.mark.parametrize("src,diagnostic", [
    # validation
    ("Flow f\n  a : stream{type = in}\n  a : stream\n\nleaf[x_in = a]\n",
     (3, 3, "stream 'a' declared twice in flow 'f'")),
    ("Flow f\n  a : stream{type = sideways}\n\nleaf[x_in = a]\n",
     (2, 3, "unknown stream direction 'sideways'")),
    ("Flow f\n  a : stream{type = internal}\n\nleaf[x_in = a]\n",
     (2, 3, "stream 'a': direction 'internal' is not allowed in a parameter header")),
    (_HEAD + "b : stream{type = out}\nleaf[x_in = a, y_out = b]\n",
     (4, 1, "stream 'b': direction 'out' is only allowed in a parameter header")),
    ("Flow f\n  a : stream[2]{type = in}\n\nleaf[i = 1:2, i = 1:2, x_in = a[i]]\n",
     (4, 15, "iterator 'i' declared twice in 'leaf'")),
    ("Flow f\n  a : stream[3]{type = in}\n\nleaf[i = 3:2, x_in = a[i]]\n",
     (4, 6, "iterator 'i' has non-positive range 3:2")),
    ("Flow f\n  a : stream[Z]{type = in}\n\nleaf[x_in = a]\n",
     (2, 3, "shape dimension of 'a' 'Z' = 0 must be positive")),
    (_HEAD + "leaf[x_in = a, x_in = a]\n",
     (4, 16, "formal 'x_in' bound twice in 'leaf'")),
    (_HEAD + "g[p = a, q = a]\n\nFlow g\n  p : stream{type = in}\n\nleaf[x_in = p]\n",
     (4, 10, "'g' has no parameter 'q'")),
    (_HEAD + "leaf[x_in = zz]\n", (4, 6, "unresolved stream 'zz' in flow 'f'")),
    (_HEAD + "leaf[x_in = a[1]]\n",
     (4, 6, "stream 'a' has rank 0 but is indexed 1 times")),
    # lexing: only ASCII digits make a number
    ("Flow f\n  a : stream[\u00b2]{type = in}\n\nleaf[x_in = a]\n",
     (2, 14, "unexpected character '\u00b2'")),
    # parsing
    (_HEAD + "5\n", (4, 1, "expected declaration or instantiation, found '5'")),
    (_HEAD + "leaf = a\n", (4, 6, "expected ':' or '[' after 'leaf'")),
    ("Flow f\n  a : stream{type = [}\n", (2, 21, "expected attribute value")),
    # a misspelled attribute is refused at its name, not read as a default
    ("Flow f\n  a : stream {tpye = in}\n\nleaf[x_in = a]\n",
     (2, 15, "unknown stream attribute 'tpye' (expected 'type' or 'label')")),
    ("Flow f\n  a : stream {lable = x}\n\nleaf[x_in = a]\n",
     (2, 15, "unknown stream attribute 'lable' (expected 'type' or 'label')")),
    (_HEAD + "b : stream {lable = x}\nleaf[x_in = a, y_out = b]\n",
     (4, 13, "unknown stream attribute 'lable' (expected 'type' or 'label')")),
    ("Flow f\n  a : stream{type = in} b\n", (2, 25, "expected end of declaration")),
    # a repeated attribute is refused at its second name, not overwritten
    ("Flow f\n  a : stream {type = in, type = out}\n\nleaf[p_in = a]\n",
     (2, 26, "stream 'a' repeats attribute 'type'")),
    ("Flow f\n  a : stream {type = in, label = x, label = x}\n\nleaf[p_in = a]\n",
     (2, 37, "stream 'a' repeats label 'x'")),
    (_HEAD + "leaf[x_in = 3]\n", (4, 6, "binding 'x_in' must name a stream")),
])
def test_refusal_names_its_position(src, diagnostic):
    with pytest.raises(DiagnosticError) as err:
        validate_flows(parse_flow_source(src), SymbolTable({"Z": 0}))
    assert [(d.line, d.column, d.message) for d in err.value.diagnostics] \
        == [diagnostic]


def _render_decl(decl, indent, header):
    dims = "".join(f"[{d}]" for d in decl.shape)
    attrs = []
    if decl.direction != ("out" if header else "internal"):
        attrs.append(f"type = {decl.direction}")
    attrs.extend(f"label = {label}" for label in decl.labels)
    suffix = "{" + ", ".join(attrs) + "}" if attrs else ""
    return f"{indent}{decl.name} : stream{dims}{suffix}"


def pretty_print(defs):
    """Render definitions back to parseable source in a canonical layout."""
    lines = []
    for flow in defs:
        if lines:
            lines.append("")
        lines.append(f"Flow {flow.name}")
        for decl in flow.params:
            lines.append(_render_decl(decl, "  ", header=True))
        for decl in flow.internals:
            lines.append(_render_decl(decl, "", header=False))
        for inst in flow.instantiations:
            entries = [f"{it.var} = {it.lower}:{it.upper}" for it in inst.iterators]
            for b in inst.bindings:
                idx = "".join(f"[{i}]" for i in b.actual.indices)
                entries.append(f"{b.formal} = {b.actual.stream}{idx}")
            lines.append(f"{inst.callee}[" + ", ".join(entries) + "]")
    return "\n".join(lines) + "\n"


def _shape(defs):
    """Projection of the AST that ignores source positions."""
    out = []
    for f in defs:
        decls = [(d.name, tuple(d.shape), d.direction, tuple(d.labels))
                 for d in f.params + f.internals]
        insts = []
        for inst in f.instantiations:
            its = [(r.var, r.lower, r.upper) for r in inst.iterators]
            binds = [(b.formal, b.actual.stream, tuple(b.actual.indices))
                     for b in inst.bindings]
            insts.append((inst.callee, tuple(its), tuple(binds)))
        out.append((f.name, tuple(decls), tuple(insts)))
    return out


@pytest.mark.parametrize("source", [BASIC])
def test_pretty_print_round_trip(source):
    defs = parse_flow_source(source)
    again = parse_flow_source(pretty_print(defs))
    assert _shape(again) == _shape(defs)


def test_pretty_print_round_trip_fixture(paper_dir):
    text = (paper_dir / "srs_chest.rdsl").read_text()
    defs = parse_flow_source(text)
    assert _shape(parse_flow_source(pretty_print(defs))) == _shape(defs)


_ident = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)


@given(names=st.lists(_ident, min_size=1, max_size=4, unique=True),
       dims=st.lists(st.integers(min_value=1, max_value=9),
                     min_size=0, max_size=3))
def test_declaration_round_trip_property(names, dims):
    shape = "".join(f"[{d}]" for d in dims)
    decls = "\n".join(f"  {n} : stream{shape}" for n in names)
    body_uses = "\n".join(
        f"leaf{i}[x_in = {n}{''.join(f'[{d}]' for d in dims)}]"
        for i, n in enumerate(names))
    src = f"Flow f\n{decls}\n\n{body_uses}\n"
    defs = parse_flow_source(src)
    assert _shape(parse_flow_source(pretty_print(defs))) == _shape(defs)
