"""Flow DSL front end: lexing, parsing, validation, and stream labels.

The language declares named flows over tensor-shaped immutable streams.
A flow starts with a ``Flow <name>`` header line.  The parameter header is
the run of stream declarations immediately below it that are indented
deeper than the ``Flow`` keyword; everything after that run, until the
next ``Flow`` header, is the body (internal stream declarations plus
instantiations of sub-flows or leaf functions).

Grammar sketch::

    source  := (flow)*
    flow    := 'Flow' IDENT NEWLINE (decl | inst)*
    decl    := IDENT ':' 'stream' ('[' dim ']')* ('{' attrs '}')?
    dim     := INT | IDENT
    attrs   := attr (',' attr)*
    attr    := ('type' | 'label') '=' (IDENT | INT)
    inst    := IDENT '[' entry (',' entry)* ']'
    entry   := IDENT '=' (bound ':' bound | ref)
    bound   := INT | IDENT
    ref     := IDENT ('[' (INT | IDENT) ']')*

``%`` starts a line comment.  Newlines are insignificant inside brackets
and braces, so instantiations may span lines.  Streams are immutable
infinite lists; each element has a single definition, which is checked
during elaboration rather than here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Diagnostic, DiagnosticError, fail

DIRECTIONS = ("in", "out", "internal")

# flows nested deeper than this are refused: elaboration recurses once per
# level, and no RAN description comes near it
MAX_FLOW_NESTING = 256

# ---------------------------------------------------------------------------
# AST


@dataclass
class StreamDecl:
    """One stream declaration, either in a parameter header or a flow body."""

    name: str
    shape: list[int | str]
    direction: str
    labels: list[str] = field(default_factory=list)
    line: int = 0
    column: int = 0

    @property
    def rank(self) -> int:
        return len(self.shape)


@dataclass
class StreamRef:
    """A reference ``stream[idx]...`` inside an instantiation binding."""

    stream: str
    indices: list[int | str]


@dataclass
class IteratorRange:
    """``var = lower:upper`` inside an instantiation, bounds inclusive."""

    var: str
    lower: int | str
    upper: int | str
    line: int = 0
    column: int = 0


@dataclass
class Binding:
    """``formal = actual`` inside an instantiation."""

    formal: str
    actual: StreamRef
    line: int = 0
    column: int = 0


@dataclass
class Instantiation:
    callee: str
    iterators: list[IteratorRange]
    bindings: list[Binding]
    line: int = 0
    column: int = 0


@dataclass
class FlowDef:
    name: str
    params: list[StreamDecl]
    internals: list[StreamDecl]
    instantiations: list[Instantiation]
    line: int = 0
    column: int = 0


@dataclass
class SymbolTable:
    """Deployment-supplied values for symbolic constants like shape sizes."""

    entries: dict[str, int] = field(default_factory=dict)

    def resolve(self, value: int | str) -> int | None:
        if isinstance(value, int):
            return value
        return self.entries.get(value)


# ---------------------------------------------------------------------------
# Lexer

_SYMBOLS = {":": "colon", "[": "lbracket", "]": "rbracket",
            "{": "lbrace", "}": "rbrace", ",": "comma", "=": "equals"}
_KEYWORDS = {"Flow": "flow", "stream": "stream"}
# str.isdigit also takes digits such as '\u00b2' that int() refuses
_DIGITS = "0123456789"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _lex(source: str) -> list[Token]:
    tokens: list[Token] = []
    depth = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        # comments run to end of line and may follow any content
        cut = raw.find("%")
        line = raw if cut < 0 else raw[:cut]
        col = 0
        emitted = False
        while col < len(line):
            ch = line[col]
            if ch in " \t":
                col += 1
                continue
            start = col + 1
            if ch in _SYMBOLS:
                tokens.append(Token(_SYMBOLS[ch], ch, lineno, start))
                if ch in "[{":
                    depth += 1
                elif ch in "]}":
                    depth = max(0, depth - 1)
                col += 1
            elif ch in _DIGITS:
                end = col
                while end < len(line) and line[end] in _DIGITS:
                    end += 1
                tokens.append(Token("int", line[col:end], lineno, start))
                col = end
            elif ch.isalpha() or ch == "_":
                end = col
                while end < len(line) and (line[end].isalnum() or line[end] == "_"):
                    end += 1
                word = line[col:end]
                tokens.append(Token(_KEYWORDS.get(word, "ident"), word, lineno, start))
                col = end
            else:
                raise fail(lineno, start, f"unexpected character {ch!r}")
            emitted = True
        # newlines only separate statements outside brackets
        if emitted and depth == 0:
            tokens.append(Token("newline", "", lineno, len(line) + 1))
    tokens.append(Token("eof", "", len(source.splitlines()) + 1, 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise fail(tok.line, tok.column, f"expected {what}, found {tok.text or tok.kind!r}")
        return self.take()

    def skip_newlines(self) -> None:
        while self.peek().kind == "newline":
            self.take()

    def parse_source(self) -> list[FlowDef]:
        defs: list[FlowDef] = []
        seen: dict[str, int] = {}
        self.skip_newlines()
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "flow":
                raise fail(tok.line, tok.column,
                           f"expected 'Flow' header, found {tok.text or tok.kind!r}")
            flow = self.parse_flow()
            if flow.name in seen:
                raise fail(flow.line, flow.column,
                           f"duplicate flow name {flow.name!r} (first defined on line {seen[flow.name]})")
            seen[flow.name] = flow.line
            defs.append(flow)
            self.skip_newlines()
        return defs

    def parse_flow(self) -> FlowDef:
        kw = self.expect("flow", "'Flow'")
        name = self.expect("ident", "flow name")
        self.expect("newline", "end of header line")
        flow = FlowDef(name=name.text, params=[], internals=[],
                       instantiations=[], line=kw.line, column=kw.column)
        in_header = True
        while True:
            self.skip_newlines()
            tok = self.peek()
            if tok.kind in ("eof", "flow"):
                break
            if tok.kind != "ident":
                raise fail(tok.line, tok.column,
                           f"expected declaration or instantiation, found {tok.text or tok.kind!r}")
            after = self.peek(1)
            if after.kind == "colon":
                # the parameter header is the indented run right under the
                # Flow line; a dedent or an instantiation ends it for good
                in_header = in_header and tok.column > kw.column
                if in_header:
                    flow.params.append(self.parse_decl("out"))
                else:
                    flow.internals.append(self.parse_decl("internal"))
            elif after.kind == "lbracket":
                in_header = False
                flow.instantiations.append(self.parse_instantiation())
            else:
                raise fail(after.line, after.column,
                           f"expected ':' or '[' after {tok.text!r}")
        return flow

    def parse_decl(self, direction: str) -> StreamDecl:
        """A stream declaration, of ``direction`` unless its ``type``
        attribute names another."""
        name = self.take()
        self.expect("colon", "':'")
        self.expect("stream", "'stream'")
        shape: list[int | str] = []
        while self.peek().kind == "lbracket":
            self.take()
            dim = self.parse_scalar("shape dimension")
            self.expect("rbracket", "']' closing shape bracket")
            shape.append(dim)
        decl = StreamDecl(name=name.text, shape=shape, direction=direction,
                          line=name.line, column=name.column)
        if self.peek().kind == "lbrace":
            self.take()
            typed = False
            while True:
                key = self.expect("ident", "attribute name")
                if key.text not in ("type", "label"):
                    raise fail(key.line, key.column,
                               f"unknown stream attribute {key.text!r} "
                               f"(expected 'type' or 'label')")
                if key.text == "type" and typed:
                    raise fail(key.line, key.column,
                               f"stream {name.text!r} repeats attribute 'type'")
                self.expect("equals", "'='")
                val = self.peek()
                if val.kind not in ("ident", "int", "stream"):
                    raise fail(val.line, val.column, "expected attribute value")
                self.take()
                if key.text == "type":
                    typed = True
                    decl.direction = val.text
                elif val.text in decl.labels:
                    raise fail(key.line, key.column,
                               f"stream {name.text!r} repeats label "
                               f"{val.text!r}")
                else:
                    decl.labels.append(val.text)
                if self.peek().kind == "comma":
                    self.take()
                    continue
                break
            self.expect("rbrace", "'}' closing attribute block")
        if self.peek().kind not in ("newline", "eof"):
            tok = self.peek()
            raise fail(tok.line, tok.column, "expected end of declaration")
        return decl

    def parse_scalar(self, what: str) -> int | str:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            return int(tok.text)
        if tok.kind == "ident":
            self.take()
            return tok.text
        raise fail(tok.line, tok.column, f"expected {what}")

    def parse_instantiation(self) -> Instantiation:
        callee = self.take()
        self.expect("lbracket", "'['")
        inst = Instantiation(callee=callee.text, iterators=[], bindings=[],
                             line=callee.line, column=callee.column)
        if self.peek().kind == "rbracket":
            self.take()
            return inst
        while True:
            name = self.expect("ident", "iterator or formal name")
            self.expect("equals", "'='")
            value = self.parse_scalar("iterator bound or stream name")
            if self.peek().kind == "colon":
                self.take()
                upper = self.parse_scalar("iterator upper bound")
                inst.iterators.append(IteratorRange(
                    var=name.text, lower=value, upper=upper,
                    line=name.line, column=name.column))
            else:
                if isinstance(value, int):
                    raise fail(name.line, name.column,
                               f"binding {name.text!r} must name a stream")
                ref = StreamRef(stream=value, indices=[])
                while self.peek().kind == "lbracket":
                    self.take()
                    ref.indices.append(self.parse_scalar("index expression"))
                    self.expect("rbracket", "']' closing index bracket")
                inst.bindings.append(Binding(formal=name.text, actual=ref,
                                             line=name.line, column=name.column))
            if self.peek().kind == "comma":
                self.take()
                continue
            break
        self.expect("rbracket", "']' closing instantiation")
        return inst


def parse_flow_source(text: str) -> list[FlowDef]:
    """Parse flow DSL source into flow definitions.

    Raises DiagnosticError with line/column positions on any syntax error;
    no partial AST is returned.
    """
    return _Parser(_lex(text)).parse_source()


# ---------------------------------------------------------------------------
# Validation


def _resolve_positive(value: int | str, symbols: SymbolTable, line: int,
                      column: int, what: str, diags: list[Diagnostic]) -> int | None:
    resolved = symbols.resolve(value)
    if resolved is None:
        diags.append(Diagnostic(line, column, f"{what} {value!r} is not a known symbol"))
        return None
    if resolved <= 0:
        diags.append(Diagnostic(line, column, f"{what} {value!r} = {resolved} must be positive"))
        return None
    return resolved


def validate_flows(defs: list[FlowDef], symbols: SymbolTable) -> list[FlowDef]:
    """Cross-check every flow: reference resolution, shape arities, iterator
    ranges, and direction placement.  Each instantiation of a flow must bind
    every parameter of it, and each formal bound on a leaf function (a
    callee that is not a flow) needs an ``_in`` or ``_out`` suffix.  No
    flow may instantiate itself, directly or through other flows, and no
    chain of nested flows may be more than ``MAX_FLOW_NESTING`` deep.  Every
    problem is reported once, at its declaration, instantiation or binding,
    however many times elaboration would expand it.  Returns the defs
    unchanged on success, raises DiagnosticError listing every problem
    otherwise.
    """
    diags: list[Diagnostic] = []
    by_name = {f.name: f for f in defs}

    for flow in defs:
        streams: dict[str, StreamDecl] = {}
        for header, decl in [(True, d) for d in flow.params] + [(False, d) for d in flow.internals]:
            if decl.name in streams:
                diags.append(Diagnostic(decl.line, decl.column,
                                        f"stream {decl.name!r} declared twice in flow {flow.name!r}"))
                continue
            streams[decl.name] = decl
            if decl.direction not in DIRECTIONS:
                diags.append(Diagnostic(decl.line, decl.column,
                                        f"unknown stream direction {decl.direction!r}"))
            elif header and decl.direction == "internal":
                diags.append(Diagnostic(decl.line, decl.column,
                                        f"stream {decl.name!r}: direction 'internal' is not allowed in a parameter header"))
            elif not header and decl.direction in ("in", "out"):
                diags.append(Diagnostic(decl.line, decl.column,
                                        f"stream {decl.name!r}: direction {decl.direction!r} is only allowed in a parameter header"))
            for dim in decl.shape:
                _resolve_positive(dim, symbols, decl.line, decl.column,
                                  f"shape dimension of {decl.name!r}", diags)

        for inst in flow.instantiations:
            iter_vars: set[str] = set()
            for it in inst.iterators:
                if it.var in iter_vars:
                    diags.append(Diagnostic(it.line, it.column,
                                            f"iterator {it.var!r} declared twice in {inst.callee!r}"))
                iter_vars.add(it.var)
                lo = _resolve_positive(it.lower, symbols, it.line, it.column,
                                       f"lower bound of iterator {it.var!r}", diags)
                hi = _resolve_positive(it.upper, symbols, it.line, it.column,
                                       f"upper bound of iterator {it.var!r}", diags)
                if lo is not None and hi is not None and lo > hi:
                    diags.append(Diagnostic(it.line, it.column,
                                            f"iterator {it.var!r} has non-positive range {lo}:{hi}"))

            formals: set[str] = set()
            callee = by_name.get(inst.callee)
            params = [d.name for d in callee.params] if callee is not None else []
            for b in inst.bindings:
                if b.formal in formals:
                    diags.append(Diagnostic(b.line, b.column,
                                            f"formal {b.formal!r} bound twice in {inst.callee!r}"))
                formals.add(b.formal)
                if callee is not None and b.formal not in params:
                    diags.append(Diagnostic(b.line, b.column,
                                            f"{inst.callee!r} has no parameter {b.formal!r}"))
                elif callee is None and not b.formal.endswith(("_in", "_out")):
                    # a leaf function has no declaration to take direction from
                    diags.append(Diagnostic(b.line, b.column,
                                            f"cannot infer direction of formal {b.formal!r} "
                                            f"on leaf function {inst.callee!r}; use an _in or "
                                            f"_out suffix"))
                decl = streams.get(b.actual.stream)
                if decl is None:
                    diags.append(Diagnostic(b.line, b.column,
                                            f"unresolved stream {b.actual.stream!r} in flow {flow.name!r}"))
                    continue
                if len(b.actual.indices) > decl.rank:
                    diags.append(Diagnostic(b.line, b.column,
                                            f"stream {decl.name!r} has rank {decl.rank} but is indexed "
                                            f"{len(b.actual.indices)} times"))
                # indices admit iterator variables and integer constants only
                for idx in b.actual.indices:
                    if isinstance(idx, str) and idx not in iter_vars:
                        diags.append(Diagnostic(b.line, b.column,
                                                f"index {idx!r} is not an iterator of this "
                                                f"instantiation"))
            diags.extend(Diagnostic(inst.line, inst.column,
                                    f"instantiation of {inst.callee!r} leaves parameter "
                                    f"{name!r} unbound")
                         for name in params if name not in formals)

    # a flow that reaches itself through its instantiations would expand
    # forever; a depth-first walk meets each instantiation once and reports
    # each cycle at the instantiation that closes it.  The walk keeps its
    # own stack, so deep nesting cannot exhaust Python's.
    done: set[str] = set()
    finished: list[FlowDef] = []
    for root in defs:
        if root.name in done:
            continue
        trail = [root.name]
        stack = [iter(root.instantiations)]
        while stack:
            inst = next(stack[-1], None)
            if inst is None:
                stack.pop()
                done.add(trail[-1])
                finished.append(by_name[trail.pop()])
            elif inst.callee in trail:
                cycle = trail[trail.index(inst.callee):] + [inst.callee]
                diags.append(Diagnostic(inst.line, inst.column,
                                        f"flow {inst.callee!r} instantiates itself: "
                                        + " -> ".join(cycle)))
            elif inst.callee in by_name and inst.callee not in done:
                trail.append(inst.callee)
                stack.append(iter(by_name[inst.callee].instantiations))

    # callers finish after their callees, so the reversed finishing order
    # fixes each flow's deepest level before its instantiations are read;
    # an instantiation against that order closes a cycle, reported above
    rank = {f.name: i for i, f in enumerate(reversed(finished))}
    level = dict.fromkeys(rank, 1)
    for flow in reversed(finished):
        for inst in flow.instantiations:
            if rank.get(inst.callee, -1) <= rank[flow.name]:
                continue
            if level[flow.name] == MAX_FLOW_NESTING:
                diags.append(Diagnostic(inst.line, inst.column,
                                        f"instantiation of {inst.callee!r} nests flows "
                                        f"more than {MAX_FLOW_NESTING} levels deep"))
            level[inst.callee] = max(level[inst.callee], level[flow.name] + 1)

    if diags:
        raise DiagnosticError(diags)
    return defs


def collect_labels(defs: list[FlowDef]) -> dict[str, tuple[str, str]]:
    """Map every stream label to its (flow, stream) pair.

    Labels tag streams that physical-port timing constraints address, so a
    duplicate label is an error.
    """
    labels: dict[str, tuple[str, str]] = {}
    diags: list[Diagnostic] = []
    for flow in defs:
        for decl in flow.params + flow.internals:
            for label in decl.labels:
                if label in labels:
                    other = labels[label]
                    diags.append(Diagnostic(decl.line, decl.column,
                                            f"label {label!r} already tags stream "
                                            f"{other[1]!r} in flow {other[0]!r}"))
                else:
                    labels[label] = (flow.name, decl.name)
    if diags:
        raise DiagnosticError(diags)
    return labels
