"""Hardware pattern catalog.

A pattern is an allowed data movement of a buffer from definition (a
function writes its output) to observation (a function reads it), named
after the route it takes through the memory hierarchy.  Three classes
exist:

* ``pipeline``  - definer and observers stay in one core's cache
  hierarchy; no bulk transfer.
* ``L2toL2``    - core-to-core handoff staged through the L3 slice.
* ``big_delay`` - round trip through DDR behind the L3 slice.

Catalogs are either parsed from XML (``<patterns>`` root with one
``<pattern>`` element per entry) or generated from a hardware topology.
Pattern names in the wild mix ``.`` and ``_`` separators and letter case
(``accl3_0`` vs ``accL3_0``); two spellings name one pattern when their
``canonical_name`` (split on both separators, digit suffixes merged)
agrees.  ``Pattern.name`` keeps the spelling its source gives.

A name is parsed once, when its ``Pattern`` is built.  After that only
``PatternCatalog`` reads names: it interns each spelling, canonicalising
it the first time it is asked about it, so names from two sources (the XML
catalog, an SDK manifest, a scenario YAML) are compared through the
catalog (``get`` / ``lookup`` / ``index``), never as raw strings, and the
code past it works with the resolved patterns and their positions.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .diagnostics import Diagnostic, DiagnosticError, fail

SHARE_KEYS = ("L2_II", "L2_IO", "L2_OI", "L2_OO",
              "L3_II", "L3_IO", "L3_OI", "L3_OO")

_SPLIT_RE = re.compile(r"[._]")


def canonical_name(name: str) -> tuple[str, ...]:
    """Canonical token form of a pattern name.

    Splits on dots and underscores, lowercases, and merges digit tokens
    into the preceding token, so ``big_delay.c.0.L3.0.DDR.0.accl3_0`` and
    ``big_delay.c_0.L3_0.DDR_0.accL3_0`` compare equal.
    """
    tokens = [t for t in _SPLIT_RE.split(name.strip().lower()) if t]
    merged: list[str] = []
    for tok in tokens:
        if tok.isdigit() and merged and not merged[-1].isdigit():
            merged[-1] += tok
        else:
            merged.append(tok)
    return tuple(merged)


def pattern_class(name: str) -> str:
    """The cost class a pattern name denotes; raises on unknown classes."""
    tokens = canonical_name(name)
    if tokens[:1] == ("pipeline",):
        return "pipeline"
    if tokens[:1] == ("l2tol2",):
        return "L2toL2"
    if tokens[:2] == ("big", "delay"):
        return "big_delay"
    raise fail(1, 1, f"unknown pattern class in name {name!r}")


def _core_of(token: str) -> int | None:
    """The core a canonical token such as ``c0`` names, if it names one."""
    digits = token[1:]
    if token[:1] == "c" and digits.isascii() and digits.isdigit():
        return int(digits)
    return None


def _core_hint(tokens: tuple[str, ...]) -> int | None:
    return next((c for c in map(_core_of, tokens) if c is not None), None)


@dataclass
class Pattern:
    name: str
    defining_memory: str
    observing_memory: str
    exclusive_define_with: tuple[str, ...] = ()
    shares: dict[str, tuple[str, ...]] = field(default_factory=dict)
    can_observe: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.canonical = canonical_name(self.name)
        self.klass = pattern_class(self.name)
        self.core_hint = _core_hint(self.canonical)
        for key in SHARE_KEYS:
            self.shares.setdefault(key, ())


class PatternCatalog:
    """Ordered pattern collection that resolves any spelling of a name to
    its position, with a precomputed symmetric contention relation and the
    anchors derived from it, the same for parsed and generated catalogs.
    It declares no interchangeable cores: the search derives those, by one
    rule for every catalog (``solver.SearchPlan._core_groups``)."""

    def __init__(self, patterns: list[Pattern]):
        self.patterns = list(patterns)
        # spelling -> catalog position (None: no such pattern), grown by
        # position; resolving each pattern's own name seeds it and finds
        # duplicates
        self._ids: dict[str, int | None] = {}
        # (a, b, L2 of a, L2 of b) -> what ``swapped`` returns for it
        self._swaps: dict[tuple, tuple[int, ...] | None] = {}
        diags = [Diagnostic(1, 1, f"duplicate pattern name {p.name!r}")
                 for i, p in enumerate(self.patterns) if self.position(p.name) != i]

        def serializing(p: Pattern) -> tuple[str, ...]:
            return p.exclusive_define_with + tuple(
                m for key in SHARE_KEYS for m in p.shares[key])

        diags += [Diagnostic(1, 1, f"pattern {p.name!r} references unknown pattern {member!r}")
                  for p in self.patterns for member in serializing(p) + p.can_observe
                  if self.position(member) is None]
        if diags:
            raise DiagnosticError(diags)
        # contention closes the declared relations symmetrically: a transfer
        # pair serializes if either side declares exclusivity or sharing.
        # Bit j of contention[i] is set when positions i and j contend.
        masks = [0] * len(self.patterns)
        for i, p in enumerate(self.patterns):
            for j in map(self.position, serializing(p)):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
        self.contention: tuple[int, ...] = tuple(masks)
        # position -> the anchors its transfers pass.  An anchor is a
        # maximal clique of self-contending patterns: any two transfers
        # through it, of one pattern or of two, never overlap.
        anchors: list[set[int]] = [set() for _ in self.patterns]
        for a, clique in enumerate(_maximal_cliques(masks)):
            for i in _bits(clique):
                anchors[i].add(a)
        self.anchors: tuple[frozenset[int], ...] = tuple(map(frozenset, anchors))

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def position(self, name: str) -> int | None:
        """Position of the pattern ``name`` spells.  A spelling not seen
        before is canonicalised once and remembered, resolved or not."""
        if name not in self._ids:
            canonical = canonical_name(name)
            self._ids[name] = next((i for i, p in enumerate(self.patterns)
                                    if p.canonical == canonical), None)
        return self._ids[name]

    def get(self, name: str) -> Pattern | None:
        i = self.position(name)
        return None if i is None else self.patterns[i]

    def lookup(self, name: str) -> Pattern:
        return self.patterns[self.index(name)]

    def index(self, name: str) -> int:
        i = self.position(name)
        if i is None:
            raise KeyError(f"pattern {name!r} is not in the catalog")
        return i

    def contends(self, a: str, b: str) -> bool:
        return bool(self.contention[self.index(a)] >> self.index(b) & 1)

    def swapped(self, a: int, b: int, l2a: str, l2b: str
                ) -> tuple[int, ...] | None:
        """Position -> the position of its pattern's role once cores ``a``
        and ``b``, whose L2s are ``l2a`` and ``l2b``, swap, or ``None`` when
        that map is not an automorphism of the catalog.  A pattern's role is
        its canonical name with each token that names ``a`` or ``b``
        renamed to name the other (so its core hint swaps too), and its
        memories with the two L2s swapped.  The map is an automorphism when
        every role names a pattern, one to one since names are unique, and
        it keeps every contention bit.  Remembered per argument tuple."""
        key = a, b, l2a, l2b
        if key not in self._swaps:
            roles = {(p.canonical, p.defining_memory, p.observing_memory): i
                     for i, p in enumerate(self.patterns)}
            l2 = {l2a: l2b, l2b: l2a}

            def role(p: Pattern) -> tuple:
                name = tuple(f"c{a + b - c}" if (c := _core_of(t)) in (a, b)
                             else t for t in p.canonical)
                return (name, l2.get(p.defining_memory, p.defining_memory),
                        l2.get(p.observing_memory, p.observing_memory))

            image = tuple(roles.get(role(p)) for p in self.patterns)
            kept = None not in image and all(
                self.contention[image[i]] >> image[j] & 1 == mask >> j & 1
                for i, mask in enumerate(self.contention)
                for j in range(len(image)))
            self._swaps[key] = image if kept else None
        return self._swaps[key]


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, least first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _maximal_cliques(adjacency: list[int]) -> list[int]:
    """Every maximal clique, as a bit mask, of the graph on the vertices
    whose own bit is set in their row of ``adjacency``, ordered by mask.
    Bron-Kerbosch with pivoting (Tomita et al., TCS 2006), on bit masks
    and with an explicit stack."""
    n = len(adjacency)
    vertices = sum(1 << v for v in range(n) if adjacency[v] >> v & 1)
    neighbours = [adjacency[v] & vertices & ~(1 << v) for v in range(n)]
    cliques = []
    stack = [(0, vertices, 0)]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates:
            if not excluded:
                cliques.append(clique)
            continue
        pivot = max(_bits(candidates | excluded),
                    key=lambda u: (candidates & neighbours[u]).bit_count())
        for v in _bits(candidates & ~neighbours[pivot]):
            stack.append((clique | 1 << v, candidates & neighbours[v],
                          excluded & neighbours[v]))
            candidates &= ~(1 << v)
            excluded |= 1 << v
    return sorted(cliques)


# ---------------------------------------------------------------------------
# XML parsing and serialization


def parse_pattern_catalog(text: str) -> PatternCatalog:
    """Parse an XML pattern catalog.

    The root element is ``<patterns>``; each child ``<pattern>`` carries a
    ``name`` attribute, ``defining_memory`` / ``observing_memory`` anchor
    elements, and membership lists of ``<member>`` names.  Cross references
    are validated against the full catalog after parsing, so a member that
    names an absent pattern is a dangling-reference error.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, col = exc.position if exc.position else (1, 0)
        raise fail(line, col + 1, f"XML parse error: {exc}") from exc
    if root.tag != "patterns":
        raise fail(1, 1, f"expected <patterns> root, found <{root.tag}>")

    def members(parent: ET.Element | None) -> tuple[str, ...]:
        if parent is None:
            return ()
        return tuple((m.text or "").strip() for m in parent.findall("member"))

    patterns: list[Pattern] = []
    diags = []
    for elem in root.findall("pattern"):
        name = elem.get("name")
        if not name:
            diags.append(Diagnostic(1, 1, "<pattern> element without a name attribute"))
            continue
        defining = elem.findtext("defining_memory")
        observing = elem.findtext("observing_memory")
        if not defining or not observing:
            diags.append(Diagnostic(1, 1, f"pattern {name!r} must declare defining and observing memories"))
            continue
        shares = {key: members(elem.find(f"shares_{key}_with")) for key in SHARE_KEYS}
        patterns.append(Pattern(
            name=name,
            defining_memory=defining.strip(),
            observing_memory=observing.strip(),
            exclusive_define_with=members(elem.find("exclusive_define_with")),
            shares=shares,
            can_observe=members(elem.find("can_observe")),
        ))
    if diags:
        raise DiagnosticError(diags)
    return PatternCatalog(patterns)


def serialize_pattern_catalog(catalog: PatternCatalog) -> str:
    """Render a catalog back to the XML exchange format."""
    root = ET.Element("patterns")
    for p in catalog:
        elem = ET.SubElement(root, "pattern", name=p.name)
        ET.SubElement(elem, "defining_memory").text = p.defining_memory
        ET.SubElement(elem, "observing_memory").text = p.observing_memory
        blocks = [("exclusive_define_with", p.exclusive_define_with),
                  *((f"shares_{key}_with", p.shares[key]) for key in SHARE_KEYS),
                  ("can_observe", p.can_observe)]
        for tag, names in blocks:
            block = ET.SubElement(elem, tag)
            for n in names:
                ET.SubElement(block, "member").text = n
    ET.indent(root)
    return ET.tostring(root, encoding="unicode") + "\n"


# ---------------------------------------------------------------------------
# Generation from a hardware topology


def _anchor_sets(specs: list[dict]) -> list[Pattern]:
    """Derive the membership sets from side anchors.

    Each spec carries per-level anchors for the defining (Input) and
    observing (Output) sides.  Two patterns share a level-X side pair YZ
    exactly when this pattern's Y-side anchor at level X equals the other
    pattern's Z-side anchor, which makes membership symmetric under the
    side-pair swap YZ <-> ZY.  exclusive_define_with groups patterns whose
    defining-side L2 anchor coincides (writes leave the same core).
    """
    patterns: list[Pattern] = []
    for spec in specs:
        anchors = spec["anchors"]
        exclusive = tuple(
            q["name"] for q in specs
            if anchors["L2"][0] is not None and q["anchors"]["L2"][0] == anchors["L2"][0])
        shares: dict[str, tuple[str, ...]] = {}
        for level in ("L2", "L3"):
            for i, side_a in enumerate(("I", "O")):
                for j, side_b in enumerate(("I", "O")):
                    mine = anchors[level][i]
                    shares[f"{level}_{side_a}{side_b}"] = tuple(
                        q["name"] for q in specs
                        if mine is not None and q["anchors"][level][j] == mine)
        can_observe = tuple(
            q["name"] for q in specs
            if q["defining_memory"] == spec["observing_memory"])
        patterns.append(Pattern(
            name=spec["name"],
            defining_memory=spec["defining_memory"],
            observing_memory=spec["observing_memory"],
            exclusive_define_with=exclusive,
            shares=shares,
            can_observe=can_observe))
    return patterns


def generate_patterns_from_topology(topology) -> PatternCatalog:
    """Generate the full pattern catalog a hardware topology admits.

    Per core ``c`` attached to L3 slice ``m``, and per DDR ``d`` behind it:

    * ``pipeline.c_<c>.<m>``                 (stay in the core's hierarchy)
    * ``L2toL2.c_<c>.<m>.acc<m>``            (core to core via the slice)
    * ``big_delay.c_<c>.<m>.DDR_<d>.<m>``    (round trip through DDR)
    * ``big_delay.c_<c>.<m>.DDR_<d>.acc<m>`` (DDR round trip, slice port)

    Anchor model behind the derived sets: every pattern defines from the
    core's own L2.  pipeline observes in that same L2; the other classes
    deliver into whichever L2 the observer runs on, modeled as one shared
    per-slice anchor, so their transfers contend pairwise.  L2toL2 data is
    staged in the slice itself (L3 residency); big_delay data only transits
    the slice on its way to DDR, so big_delay carries no L3 anchor at all.

    The catalog groups no cores, so written to XML and parsed back it is
    the same catalog to the search too.
    """
    specs: list[dict] = []
    for core in topology.cores:
        m = core.l3
        l2 = core.l2
        l2_any = f"{m}.l2port"
        for ddr in topology.memories_of_level("DDR"):
            for port in (m, f"acc{m}"):
                specs.append({
                    "name": f"big_delay.c_{core.id}.{m}.{ddr.id}.{port}",
                    "defining_memory": m, "observing_memory": m,
                    "anchors": {"L2": (l2, l2_any), "L3": (None, None)},
                })
        specs.append({
            "name": f"pipeline.c_{core.id}.{m}",
            "defining_memory": l2, "observing_memory": l2,
            "anchors": {"L2": (l2, l2), "L3": (None, None)},
        })
        specs.append({
            "name": f"L2toL2.c_{core.id}.{m}.acc{m}",
            "defining_memory": l2, "observing_memory": m,
            "anchors": {"L2": (l2, l2_any), "L3": (None, m)},
        })
    return PatternCatalog(_anchor_sets(specs))


# ---------------------------------------------------------------------------
# Transfer cost


def transfer_cost(klass: str, size: int, cost_table: dict) -> int:
    """Cycles a transfer of ``size`` bytes takes under cost class ``klass``
    (a ``Pattern.klass``).

    cost = base latency + ceil(size / bandwidth); classes without a
    bandwidth entry (pipeline stays in cache) have no size term.
    """
    if klass not in cost_table:
        raise KeyError(f"cost table has no entry for pattern class {klass!r}")
    base, bandwidth = cost_table[klass]
    if size < 0:
        raise ValueError(f"negative transfer size {size}")
    if bandwidth is None:
        return base
    return base + -(-size // bandwidth)
