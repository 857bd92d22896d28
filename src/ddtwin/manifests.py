"""Constraint manifest front end.

Manifests are multi-document YAML streams.  Every document carries
``apiVersion: rdsl/v0``, a ``kind``, a ``metadata.name``, and a ``spec``.
Three kinds exist:

* ``timing equality``  - pins a named timing variable (or stream label)
  with an equal / le / ge relation to a cycle count.
* ``timing equation``  - a chained linear relation over placeholder
  symbols, e.g. ``C <= A*370 + B < 500``, with one spec key per
  placeholder naming the bound symbol.
* ``SDK``              - per-function metadata: available hardware
  patterns, element size, internal working-set size, and runtime.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

from .diagnostics import DiagnosticError, fail
from .documents import Document, at_field, integer, list_of, mark, read_stream

_OPS = ("equal", "le", "ge")


@dataclass(frozen=True)
class TimingEqualityDoc:
    name: str
    variable_name: str
    op: str
    value: int


@dataclass(frozen=True)
class TimingEquationDoc:
    """A timing equation, parsed once when the document is built:
    ``placeholders`` holds the placeholders it reads, ``relation`` the
    [term, relop, term, ...] sequence ``_parse_equation_text`` returns."""
    name: str
    equation: str
    bindings: dict[str, str] = field(default_factory=dict, hash=False)
    placeholders: frozenset[str] = field(init=False, compare=False, repr=False)
    relation: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        placeholders, relation = _parse_equation_text(self.name, self.equation)
        object.__setattr__(self, "placeholders", placeholders)
        object.__setattr__(self, "relation", relation)


@dataclass(frozen=True)
class FunctionMetadata:
    name: str
    available_patterns: tuple[str, ...]
    elementsize: int
    internalsize: int
    runtime: int


ConstraintDoc = TimingEqualityDoc | TimingEquationDoc | FunctionMetadata


def _doc_error(doc: Document, key: str, message: str) -> DiagnosticError:
    """A refusal of ``doc``'s ``spec.key``, placed where the document
    spells it (at ``spec`` when the key is absent)."""
    return fail(*mark(doc.node, "spec", key), f"{doc.where}: {message}")


def _require(doc: Document, key: str):
    if key not in doc.spec:
        raise _doc_error(doc, key, f"missing required field {key!r}")
    return doc.spec[key]


def _require_int(doc: Document, key: str) -> int:
    value = at_field(doc, key, integer, _require(doc, key),
                     f"{doc.where}: field {key!r}")
    if value <= 0:
        raise _doc_error(doc, key, f"field {key!r} must be positive, got {value}")
    return value


def parse_constraint_stream(text: str) -> list[ConstraintDoc]:
    """Parse a multi-document YAML constraint stream.

    Unknown kinds, missing fields, bad units, and non-positive sizes or
    runtimes are rejected.  Document order is preserved.
    """
    parsers = {"timing equality": _parse_equality,
               "timing equation": _parse_equation, "SDK": _parse_sdk}
    return [parsers[doc.kind](doc)
            for doc in read_stream(text, "constraint stream", tuple(parsers))]


def _check_unit(doc: Document) -> None:
    unit = doc.spec.get("unit", "clock")
    if unit != "clock":
        raise _doc_error(doc, "unit", f"unsupported unit {unit!r} (only 'clock' cycles are supported)")


def _parse_equality(doc: Document) -> TimingEqualityDoc:
    variable = _require(doc, "variable_name")
    op = _require(doc, "constraint")
    if op not in _OPS:
        raise _doc_error(doc, "constraint", f"constraint must be one of {_OPS}, got {op!r}")
    value = _require_int(doc, "value")
    _check_unit(doc)
    return TimingEqualityDoc(name=doc.name, variable_name=str(variable), op=op,
                             value=value)


def _parse_equation(doc: Document) -> TimingEquationDoc:
    equation = str(_require(doc, "equation"))
    bindings = {str(k): str(v) for k, v in doc.spec.items()
                if k not in ("equation", "unit")}
    _check_unit(doc)
    # building the document parses the equation, so malformed equations
    # fail here, at the equation; a column inside it stays in the message
    try:
        parsed = TimingEquationDoc(name=doc.name, equation=equation,
                                   bindings=bindings)
    except DiagnosticError as err:
        raise _doc_error(doc, "equation", err.diagnostics[0].message) from err
    for placeholder in sorted(parsed.placeholders):
        if placeholder not in bindings:
            raise _doc_error(doc, "equation", f"placeholder {placeholder!r} in equation has no spec binding")
    return parsed


def _parse_sdk(doc: Document) -> FunctionMetadata:
    key = "available patterns"
    patterns = doc.spec.get(key)
    if patterns is None:
        raise _doc_error(doc, key, f"missing required field {key!r}")
    at_field(doc, key, list_of, patterns, str, f"{doc.where}: {key!r}")
    if not patterns:
        raise _doc_error(doc, key, f"{key!r} must not be empty")
    return FunctionMetadata(
        name=doc.name,
        available_patterns=tuple(patterns),
        elementsize=_require_int(doc, "elementsize"),
        internalsize=_require_int(doc, "internalsize"),
        runtime=_require_int(doc, "runtime"),
    )


# ---------------------------------------------------------------------------
# Timing equations

_RELOPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
           "=": operator.eq}
_TOKEN_RE = re.compile(r"\s*(<=|>=|<|>|=|\+|\*|[A-Za-z_][A-Za-z0-9_]*|[0-9]+)")


def _tokenize_equation(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if rest:
                column = len(text) - len(rest) + 1
                raise fail(1, column, f"bad equation syntax near "
                           f"{rest.rstrip()!r} (column {column} of the "
                           f"equation)")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _parse_equation_text(name: str, equation: str
                         ) -> tuple[frozenset[str], tuple]:
    """Parse ``term relop term relop term ...`` where each term is a sum of
    products of placeholders and integer constants.  Returns the placeholder
    set and a (term, relop, term, ...) sequence; a term is a tuple of
    (coefficient, placeholder | None) products.
    """
    tokens = _tokenize_equation(equation)
    if not tokens:
        raise fail(1, 1, f"equation of {name!r} is empty")
    placeholders: set[str] = set()
    sequence: list = []
    term: list[tuple[int, str | None]] = []
    factor: list[str] = []

    def close_factor() -> None:
        if not factor:
            raise fail(1, 1, f"dangling operator in equation of {name!r}")
        coeff = 1
        symbol: str | None = None
        for tok in factor:
            if tok.isdigit():
                coeff *= int(tok)
            elif symbol is None:
                symbol = tok
                placeholders.add(tok)
            else:
                raise fail(1, 1, f"non-linear product in equation of {name!r}")
        term.append((coeff, symbol))
        factor.clear()

    def close_term() -> None:
        close_factor()
        sequence.append(tuple(term))
        term.clear()

    for tok in tokens:
        if tok in _RELOPS:
            close_term()
            sequence.append(tok)
        elif tok == "+":
            close_factor()
        elif tok == "*":
            if not factor:
                raise fail(1, 1, f"dangling '*' in equation of {name!r}")
        else:
            factor.append(tok)
    close_term()
    if len(sequence) < 3 or len(sequence) % 2 == 0:
        raise fail(1, 1, f"equation of {name!r} needs at least one relation")
    return frozenset(placeholders), tuple(sequence)


def equation_symbols(doc: TimingEquationDoc) -> set[str]:
    """The symbol names (after placeholder substitution) the equation reads."""
    return {doc.bindings[p] for p in doc.placeholders}


def evaluate_timing_equation(doc: TimingEquationDoc, assignment: dict[str, int]) -> bool:
    """Evaluate a chained relation left to right under exact integer
    arithmetic.  Placeholders map through spec bindings to symbol names,
    which must all be present in the assignment.
    """
    sequence = doc.relation

    def term_value(term: tuple[tuple[int, str | None], ...]) -> int:
        total = 0
        for coeff, placeholder in term:
            if placeholder is None:
                total += coeff
            else:
                symbol = doc.bindings[placeholder]
                if symbol not in assignment:
                    raise KeyError(f"equation {doc.name!r}: symbol {symbol!r} has no assigned value")
                total += coeff * assignment[symbol]
        return total

    result = True
    left = term_value(sequence[0])
    for i in range(1, len(sequence), 2):
        right = term_value(sequence[i + 1])
        result = result and _RELOPS[sequence[i]](left, right)
        left = right
    return result
