"""The YAML reader: the fast loader builds what the pure-Python one builds,
and reports syntax errors at the same positions."""

from __future__ import annotations

import pytest
import yaml

from ddtwin import documents
from ddtwin.diagnostics import DiagnosticError
from conftest import FIXTURES

pytestmark = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"),
    reason="PyYAML was built without libyaml, so the reader runs "
           "yaml.SafeLoader and there is no second loader to compare")

FIXTURE_YAML = sorted(FIXTURES.rglob("*.yaml"))

MALFORMED = {
    "unclosed flow sequence": "a: [1, 2\nb: 3\n",
    "nested mapping value": "a: b: c\n",
    "tab indent": "a:\n\tb: 1\n",
    "undefined alias": "a: 1\nb: *x\n",
    "broken second document": "apiVersion: rdsl/v0\n---\nb: [\n",
}


def kinds_in(text):
    return tuple({d["kind"] for d in yaml.safe_load_all(text)
                  if isinstance(d, dict) and "kind" in d})


def read(monkeypatch, loader, text, kinds=()):
    """What ``load_document`` and ``read_stream`` make of ``text`` under
    ``loader``: a value, or the position of the diagnostic raised."""
    monkeypatch.setattr(documents, "_LOADER", loader)
    got = []
    for read_one in (lambda: documents.load_document(text, "input"),
                     lambda: documents.read_stream(text, "input", kinds)):
        try:
            got.append(read_one())
        except DiagnosticError as exc:
            (diag,) = exc.diagnostics
            got.append((diag.line, diag.column))
    return got


def test_the_reader_binds_libyaml():
    assert documents._LOADER is yaml.CSafeLoader


@pytest.mark.parametrize("path", FIXTURE_YAML,
                         ids=lambda p: str(p.relative_to(FIXTURES)))
def test_fixtures_read_alike_under_both_loaders(path, monkeypatch):
    # documents compare field by field, their nodes aside
    text = path.read_text()
    kinds = kinds_in(text)
    assert read(monkeypatch, yaml.CSafeLoader, text, kinds) \
        == read(monkeypatch, yaml.SafeLoader, text, kinds)


def test_stream_documents_keep_their_first_lines(paper_dir, monkeypatch):
    # pinned, so that two loaders that both lost the documents cannot agree
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        lines = {}
        for name in ("constraints.yaml", "sdk_stubs.yaml"):
            text = (paper_dir / name).read_text()
            lines[name] = [documents.mark(d.node)[0] for d in
                           read(monkeypatch, loader, text, kinds_in(text))[1]]
        assert lines == {"constraints.yaml": [1, 14], "sdk_stubs.yaml": [4, 30]}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_syntax_errors_sit_where_the_python_parser_puts_them(text, monkeypatch):
    fast = read(monkeypatch, yaml.CSafeLoader, text)
    assert all(isinstance(position, tuple) for position in fast)
    assert fast == read(monkeypatch, yaml.SafeLoader, text)
