"""The one reader behind the YAML front ends: the run manifest, topology,
deployment, constraint and SDK manifests, and scenario documents.

YAML is read with ``_LOADER``: libyaml's ``yaml.CSafeLoader`` where PyYAML
has it, else ``yaml.SafeLoader``.  A syntax error becomes a diagnostic at
the parser's line and column, worded by libyaml when it is present, and
each document of a stream keeps its node, so that a reader can place a
diagnostic at the entry it refuses (``mark``, ``at_field``).
A versioned document is a mapping with ``apiVersion: rdsl/v0``, a kind
its reader accepts, and a ``spec`` mapping.  A typed field is taken as
written, never coerced: an integer is an ``int`` that is not a ``bool``,
a boolean is a real ``bool``, and a list or mapping of another shape is
an error, reported as ``"{where} must be an integer, got {value!r}"``
with the caller's ``where``.  Text fields are read with ``str()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .diagnostics import DiagnosticError, fail

API_VERSION = "rdsl/v0"
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_NAMES = {int: "an integer", bool: "a boolean", str: "a string",
          list: "a list", dict: "a mapping"}


@dataclass(frozen=True)
class Document:
    where: str                     # "document 2", counting empty ones
    kind: str
    name: str                      # metadata.name
    spec: dict
    # what the document was built from; two loaders' nodes never compare
    # equal, so documents compare without them
    node: yaml.Node = field(compare=False, repr=False)


def _syntax_error(exc: yaml.YAMLError, what: str) -> DiagnosticError:
    mark = getattr(exc, "problem_mark", None)
    line, column = (mark.line + 1, mark.column + 1) if mark else (1, 1)
    return fail(line, column, f"YAML parse error in {what}: {exc}")


def load_document(text: str, what: str):
    """The single YAML document in ``text``; ``what`` names it."""
    try:
        return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise _syntax_error(exc, what) from exc


def envelope(raw, kinds: tuple[str, ...], where: str,
             line: int = 1) -> tuple[str, dict]:
    """The kind and spec of a versioned document."""
    if not isinstance(raw, dict):
        raise fail(line, 1, f"{where}: document is not a mapping")
    if raw.get("apiVersion") != API_VERSION:
        raise fail(line, 1, f"{where}: unsupported apiVersion "
                            f"{raw.get('apiVersion')!r} (expected {API_VERSION!r})")
    kind = raw.get("kind")
    if kind not in kinds:
        raise fail(line, 1, f"{where}: expected kind "
                            f"{' or '.join(map(repr, kinds))}, got {kind!r}")
    return kind, typed(raw.get("spec"), dict, f"{where}: spec", line)


def read_stream(text: str, what: str,
                kinds: tuple[str, ...]) -> list[Document]:
    """The non-empty documents of a multi-document stream, in order, each
    a versioned document with a ``metadata.name``."""
    loader = _LOADER(text)
    raws = []
    try:
        while loader.check_node():         # as yaml.load_all, keeping nodes
            node = loader.get_node()
            raws.append((node, loader.construct_document(node)))
    except yaml.YAMLError as exc:
        raise _syntax_error(exc, what) from exc
    finally:
        loader.dispose()
    docs: list[Document] = []
    for index, (node, raw) in enumerate(raws, 1):
        if raw is None:
            continue
        where = f"document {index}"
        line = node.start_mark.line + 1
        kind, spec = envelope(raw, kinds, where, line)
        metadata = raw.get("metadata")
        if not isinstance(metadata, dict) or "name" not in metadata:
            raise fail(line, 1, f"{where}: metadata.name is required")
        docs.append(Document(where, kind, str(metadata["name"]), spec, node))
    return docs


def mark(node: yaml.Node, *path, key: bool = False) -> tuple[int, int]:
    """The line and column at which the node at ``path`` below ``node``
    starts, each step a mapping key (its last occurrence, which is the one
    read) or a sequence index; with ``key``, those of the last step's key
    rather than of its value.  A step the node does not spell out, such
    as a key that comes by a merge, stops the walk at the node reached."""
    last = len(path) - 1
    for i, step in enumerate(path):
        if isinstance(node, yaml.MappingNode):
            found = [pair[0 if key and i == last else 1]
                     for pair in node.value if pair[0].value == step]
        elif isinstance(node, yaml.SequenceNode):
            found = node.value[step:step + 1]
        else:
            found = []
        if not found:
            break
        node = found[-1]
    return node.start_mark.line + 1, node.start_mark.column + 1


def at_field(doc: Document, key: str, check, *args):
    """``check(*args)``, whose refusal is placed where ``doc`` spells
    ``spec.key`` (at ``spec`` when the key is absent).  The mark is taken
    only on refusal, so a document that passes costs nothing more."""
    try:
        return check(*args)
    except DiagnosticError as err:
        raise fail(*mark(doc.node, "spec", key),
                   err.diagnostics[0].message) from None


def _is(value, kind: type) -> bool:
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def typed(value, kind: type, where: str, line: int = 1, column: int = 1):
    """``value`` if it is a ``kind``: int, bool, str, list or dict."""
    if not _is(value, kind):
        raise fail(line, column,
                   f"{where} must be {_NAMES[kind]}, got {value!r}")
    return value


def integer(value, where: str, line: int = 1, column: int = 1) -> int:
    return typed(value, int, where, line, column)


def section(raw: dict, key: str, kind: type, where: str, line: int = 1):
    """``raw[key]`` if it is a ``kind``; an empty one if absent or null."""
    value = raw.get(key)
    return kind() if value is None else typed(value, kind, where, line)


def known_keys(raw: dict, keys: tuple[str, ...], where: str, line: int = 1,
               column: int = 1) -> dict:
    """``raw`` if it has no key outside ``keys``."""
    for key in raw:
        if key not in keys:
            raise fail(line, column, f"{where} has unknown key {key!r}; "
                                     f"expected one of {', '.join(keys)}")
    return raw


def list_of(value, kind: type, where: str, line: int = 1,
            column: int = 1) -> list:
    """``value`` if it is a list of ``kind``s."""
    if not (isinstance(value, list) and all(_is(v, kind) for v in value)):
        raise fail(line, column,
                   f"{where} must be {_NAMES[kind]} list, got {value!r}")
    return value
