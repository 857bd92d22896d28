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

import yaml

from .diagnostics import DiagnosticError, error_at

API_VERSION = "rdsl/v0"
_OPS = ("equal", "le", "ge")


@dataclass(frozen=True)
class TimingEqualityDoc:
    name: str
    variable_name: str
    op: str
    value: int
    unit: str = "clock"


@dataclass(frozen=True)
class TimingEquationDoc:
    name: str
    equation: str
    bindings: dict[str, str] = field(default_factory=dict, hash=False)
    unit: str = "clock"


@dataclass(frozen=True)
class FunctionMetadata:
    name: str
    available_patterns: tuple[str, ...]
    elementsize: int
    internalsize: int
    runtime: int


ConstraintDoc = TimingEqualityDoc | TimingEquationDoc | FunctionMetadata


def _doc_error(index: int, message: str) -> DiagnosticError:
    return DiagnosticError([error_at(index + 1, 1, f"document {index + 1}: {message}")])


def _require(raw: dict, key: str, index: int):
    if key not in raw:
        raise _doc_error(index, f"missing required field {key!r}")
    return raw[key]


def _require_int(raw: dict, key: str, index: int, positive: bool = True) -> int:
    value = _require(raw, key, index)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _doc_error(index, f"field {key!r} must be an integer, got {value!r}")
    if positive and value <= 0:
        raise _doc_error(index, f"field {key!r} must be positive, got {value}")
    return value


def parse_constraint_stream(text: str) -> list[ConstraintDoc]:
    """Parse a multi-document YAML constraint stream.

    Unknown kinds, missing fields, bad units, and non-positive sizes or
    runtimes are rejected.  Document order is preserved.
    """
    try:
        raw_docs = list(yaml.safe_load_all(text))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = (mark.line + 1) if mark else 1
        col = (mark.column + 1) if mark else 1
        raise DiagnosticError([error_at(line, col, f"YAML parse error: {exc}")]) from exc

    docs: list[ConstraintDoc] = []
    for i, raw in enumerate(raw_docs):
        if raw is None:
            continue
        if not isinstance(raw, dict):
            raise _doc_error(i, "document is not a mapping")
        version = _require(raw, "apiVersion", i)
        if version != API_VERSION:
            raise _doc_error(i, f"unsupported apiVersion {version!r} (expected {API_VERSION!r})")
        kind = _require(raw, "kind", i)
        metadata = _require(raw, "metadata", i)
        if not isinstance(metadata, dict) or "name" not in metadata:
            raise _doc_error(i, "metadata.name is required")
        name = str(metadata["name"])
        spec = _require(raw, "spec", i)
        if not isinstance(spec, dict):
            raise _doc_error(i, "spec must be a mapping")

        if kind == "timing equality":
            docs.append(_parse_equality(name, spec, i))
        elif kind == "timing equation":
            docs.append(_parse_equation(name, spec, i))
        elif kind == "SDK":
            docs.append(_parse_sdk(name, spec, i))
        else:
            raise _doc_error(i, f"unknown kind {kind!r}")
    return docs


def _check_unit(spec: dict, index: int) -> str:
    unit = spec.get("unit", "clock")
    if unit != "clock":
        raise _doc_error(index, f"unsupported unit {unit!r} (only 'clock' cycles are supported)")
    return unit


def _parse_equality(name: str, spec: dict, index: int) -> TimingEqualityDoc:
    variable = _require(spec, "variable_name", index)
    op = _require(spec, "constraint", index)
    if op not in _OPS:
        raise _doc_error(index, f"constraint must be one of {_OPS}, got {op!r}")
    value = _require_int(spec, "value", index)
    return TimingEqualityDoc(name=name, variable_name=str(variable), op=op,
                             value=value, unit=_check_unit(spec, index))


def _parse_equation(name: str, spec: dict, index: int) -> TimingEquationDoc:
    equation = str(_require(spec, "equation", index))
    bindings = {str(k): str(v) for k, v in spec.items() if k not in ("equation", "unit")}
    doc = TimingEquationDoc(name=name, equation=equation, bindings=bindings,
                            unit=_check_unit(spec, index))
    # parse now so malformed equations and unbound placeholders fail early
    terms, _ = _parse_equation_text(doc)
    for placeholder in terms:
        if placeholder not in bindings:
            raise _doc_error(index, f"placeholder {placeholder!r} in equation has no spec binding")
    return doc


def _parse_sdk(name: str, spec: dict, index: int) -> FunctionMetadata:
    patterns = spec.get("available patterns", spec.get("available_patterns"))
    if patterns is None:
        raise _doc_error(index, "missing required field 'available patterns'")
    if not isinstance(patterns, list) or not all(isinstance(p, str) for p in patterns):
        raise _doc_error(index, "'available patterns' must be a list of pattern names")
    if not patterns:
        raise _doc_error(index, "'available patterns' must not be empty")
    return FunctionMetadata(
        name=name,
        available_patterns=tuple(patterns),
        elementsize=_require_int(spec, "elementsize", index),
        internalsize=_require_int(spec, "internalsize", index),
        runtime=_require_int(spec, "runtime", index),
    )


# ---------------------------------------------------------------------------
# Timing equations

_RELOPS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt,
           "=": operator.eq}
_TOKEN_RE = re.compile(r"\s*(<=|>=|<|>|=|\+|\*|[A-Za-z_][A-Za-z0-9_]*|\d+)")


def _tokenize_equation(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise DiagnosticError([error_at(1, pos + 1,
                                                f"bad equation syntax near {text[pos:].strip()!r}")])
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _parse_equation_text(doc: TimingEquationDoc) -> tuple[set[str], list]:
    """Parse ``term relop term relop term ...`` where each term is a sum of
    products of placeholders and integer constants.  Returns the placeholder
    set and a [term, relop, term, ...] sequence; a term is a list of
    (coefficient, placeholder | None) products.
    """
    tokens = _tokenize_equation(doc.equation)
    if not tokens:
        raise DiagnosticError([error_at(1, 1, f"equation of {doc.name!r} is empty")])
    placeholders: set[str] = set()
    sequence: list = []
    term: list[tuple[int, str | None]] = []
    factor: list[str] = []

    def close_factor() -> None:
        if not factor:
            raise DiagnosticError([error_at(1, 1, f"dangling operator in equation of {doc.name!r}")])
        coeff = 1
        symbol: str | None = None
        for tok in factor:
            if tok.isdigit():
                coeff *= int(tok)
            elif symbol is None:
                symbol = tok
                placeholders.add(tok)
            else:
                raise DiagnosticError([error_at(1, 1,
                                                f"non-linear product in equation of {doc.name!r}")])
        term.append((coeff, symbol))
        factor.clear()

    def close_term() -> None:
        close_factor()
        sequence.append(list(term))
        term.clear()

    for tok in tokens:
        if tok in _RELOPS:
            close_term()
            sequence.append(tok)
        elif tok == "+":
            close_factor()
        elif tok == "*":
            if not factor:
                raise DiagnosticError([error_at(1, 1,
                                                f"dangling '*' in equation of {doc.name!r}")])
        else:
            factor.append(tok)
    close_term()
    if len(sequence) < 3 or len(sequence) % 2 == 0:
        raise DiagnosticError([error_at(1, 1,
                                        f"equation of {doc.name!r} needs at least one relation")])
    return placeholders, sequence


def equation_symbols(doc: TimingEquationDoc) -> set[str]:
    """The symbol names (after placeholder substitution) the equation reads."""
    placeholders, _ = _parse_equation_text(doc)
    return {doc.bindings[p] for p in placeholders}


def evaluate_timing_equation(doc: TimingEquationDoc, assignment: dict[str, int]) -> bool:
    """Evaluate a chained relation left to right under exact integer
    arithmetic.  Placeholders map through spec bindings to symbol names,
    which must all be present in the assignment.
    """
    _, sequence = _parse_equation_text(doc)

    def term_value(term: list[tuple[int, str | None]]) -> int:
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
