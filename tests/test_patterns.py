"""Pattern catalog: canonical names, XML round trip, generation, costs."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from ddtwin.diagnostics import DiagnosticError
from ddtwin.hardware import DEFAULT_COST_TABLE, Core, HardwareTopology, Memory
from ddtwin.patterns import (Pattern, PatternCatalog, SHARE_KEYS,
                             canonical_name, generate_patterns_from_topology,
                             parse_pattern_catalog, pattern_class,
                             serialize_pattern_catalog, transfer_cost)
from conftest import make_topology

FIG6_NAMES = [
    "big_delay.c_0.L3_0.DDR_0.L3_0", "big_delay.c_0.L3_0.DDR_0.accL3_0",
    "pipeline.c_0.L3_0", "L2toL2.c_0.L3_0.accL3_0",
    "big_delay.c_1.L3_0.DDR_0.L3_0", "big_delay.c_1.L3_0.DDR_0.accL3_0",
    "pipeline.c_1.L3_0", "L2toL2.c_1.L3_0.accL3_0",
    "big_delay.c_2.L3_0.DDR_0.L3_0", "big_delay.c_2.L3_0.DDR_0.accL3_0",
    "pipeline.c_2.L3_0", "L2toL2.c_2.L3_0.accL3_0",
    "big_delay.c_3.L3_0.DDR_0.L3_0", "big_delay.c_3.L3_0.DDR_0.accL3_0",
    "pipeline.c_3.L3_0", "L2toL2.c_3.L3_0.accL3_0",
]


def test_dotted_and_underscored_names_are_equivalent():
    assert canonical_name("big_delay.c.0.L3.0.DDR.0.L3.0") \
        == canonical_name("big_delay.c_0.L3_0.DDR_0.L3_0")


def test_canonical_name_is_case_insensitive():
    assert canonical_name("L2toL2.C_0.L3_0.accL3_0") \
        == canonical_name("l2tol2.c_0.l3_0.accl3_0")


def test_pattern_class_from_name():
    assert pattern_class("pipeline.c_1.L3_0") == "pipeline"
    assert pattern_class("L2toL2.c_0.L3_0.accL3_0") == "L2toL2"
    assert pattern_class("big_delay.c.0.L3.0.DDR.0.L3.0") == "big_delay"
    with pytest.raises(DiagnosticError):
        pattern_class("teleport.c_0")


@pytest.mark.parametrize("name,hint", [
    ("pipeline.c_3.L3_0", 3),
    ("big_delay.c.12.L3.0.DDR.0.L3.0", 12),
    # only ASCII digits name a core: an Arabic-Indic three is no hint
    ("pipeline.c_\u0663.L3_0", None),
    ("pipeline.c.L3_0", None),
])
def test_core_hint_reads_ascii_digits_only(name, hint):
    assert Pattern(name, "c0.l2", "L3_0").core_hint == hint

def test_bundled_catalog_parses(paper_dir):
    cat = parse_pattern_catalog((paper_dir / "patterns.xml").read_text())
    assert len(cat) == 16
    assert {canonical_name(n) for n in FIG6_NAMES} \
        == {p.canonical for p in cat}


def test_bundled_dotted_element_relations(paper_dir):
    cat = parse_pattern_catalog((paper_dir / "patterns.xml").read_text())
    p = cat.lookup("big_delay.c.0.L3.0.DDR.0.L3.0")
    assert p.name.startswith("big_delay.c.0")      # dotted spelling kept
    assert len(p.exclusive_define_with) == 4       # includes itself
    assert len(p.shares["L2_OO"]) == 12
    assert p.shares["L3_II"] == () and p.shares["L3_OO"] == ()
    assert len(p.can_observe) == 8


def test_generation_counts_match_core_count():
    assert len(generate_patterns_from_topology(make_topology(1))) == 4
    cat = generate_patterns_from_topology(make_topology(4))
    assert len(cat) == 16
    # four patterns per core, grouped by core, in a fixed class order
    classes = [p.klass for p in cat]
    assert classes == ["big_delay", "big_delay", "pipeline", "L2toL2"] * 4


def test_generated_names_match_bundled_catalog_names(paper_dir):
    from ddtwin.hardware import parse_topology
    topo = parse_topology((paper_dir / "topology.yaml").read_text())
    cat = generate_patterns_from_topology(topo)
    assert [p.canonical for p in cat] \
        == [canonical_name(n) for n in FIG6_NAMES]


def test_swapping_two_cores_maps_each_pattern_to_its_counterpart():
    cat = generate_patterns_from_topology(make_topology(4))
    image = cat.swapped(0, 1, "L2_0", "L2_1")
    names = [p.name for p in cat]
    for i, name in enumerate(names):
        swapped = name.replace("c_0", "c_x").replace("c_1", "c_0")
        assert names[image[i]] == swapped.replace("c_x", "c_1")
    assert cat.swapped(0, 1, "L2_0", "L2_1") is image        # remembered
    # given another L2 for core 1, pipeline.c_0.L3_0's role has no pattern
    assert cat.swapped(0, 1, "L2_0", "L2_9") is None


def test_contention_is_symmetric():
    cat = generate_patterns_from_topology(make_topology(3))
    names = [p.name for p in cat]
    for a in names:
        for b in names:
            assert cat.contends(a, b) == cat.contends(b, a)


def test_big_delay_contends_across_cores():
    cat = generate_patterns_from_topology(make_topology(2))
    assert cat.contends("big_delay.c_0.L3_0.DDR_0.L3_0",
                        "big_delay.c_1.L3_0.DDR_0.L3_0")


def test_pipeline_does_not_contend_across_cores():
    cat = generate_patterns_from_topology(make_topology(2))
    assert not cat.contends("pipeline.c_0.L3_0", "pipeline.c_1.L3_0")


def test_serialize_parse_round_trip():
    cat = generate_patterns_from_topology(make_topology(2))
    again = parse_pattern_catalog(serialize_pattern_catalog(cat))
    assert [p.canonical for p in again] == [p.canonical for p in cat]
    for p, q in zip(cat, again):
        assert p.defining_memory == q.defining_memory
        assert p.observing_memory == q.observing_memory
        assert set(p.exclusive_define_with) == set(q.exclusive_define_with)
        for key in SHARE_KEYS:
            assert set(p.shares[key]) == set(q.shares[key])
        assert set(p.can_observe) == set(q.can_observe)


def test_round_trip_escapes_markup_in_memory_ids():
    topo = HardwareTopology(
        memories=[Memory(id="L2&0", level="L2", capacity=10**6),
                  Memory(id="L2<1", level="L2", capacity=10**6),
                  Memory(id="L3&<0", level="L3", capacity=10**7),
                  Memory(id="DDR_0", level="DDR", capacity=10**9)],
        cores=[Core(id=0, l2="L2&0", l3="L3&<0"), Core(id=1, l2="L2<1", l3="L3&<0")])
    cat = generate_patterns_from_topology(topo)
    again = parse_pattern_catalog(serialize_pattern_catalog(cat))
    assert [p.name for p in again] == [p.name for p in cat]
    assert [(p.defining_memory, p.observing_memory) for p in again] == [
        (p.defining_memory, p.observing_memory) for p in cat]
    assert {"L3&<0"} <= {p.defining_memory for p in again}
    assert [p.shares for p in again] == [p.shares for p in cat]
    assert again.anchors == cat.anchors


def test_anchors_survive_the_xml_round_trip(du_dir):
    from ddtwin.hardware import parse_topology

    topo = parse_topology((du_dir / "topology.yaml").read_text())
    cat = generate_patterns_from_topology(topo)
    again = parse_pattern_catalog(serialize_pattern_catalog(cat))
    assert again.anchors == cat.anchors
    # per core, its four patterns; and every non-pipeline pattern, which all
    # deliver through the slice's one L2 port
    cliques = {frozenset(p.name for p, mine in zip(cat, cat.anchors) if a in mine)
               for a in set().union(*cat.anchors)}
    assert cliques == {frozenset(n for n in FIG6_NAMES if ".c_%d." % c in n)
                       for c in range(4)} | {
        frozenset(n for n in FIG6_NAMES if not n.startswith("pipeline"))}


def test_dangling_member_rejected_by_name():
    cat = generate_patterns_from_topology(make_topology(1))
    specs = [Pattern(name=p.name, defining_memory=p.defining_memory,
                     observing_memory=p.observing_memory,
                     exclusive_define_with=p.exclusive_define_with,
                     shares=dict(p.shares), can_observe=p.can_observe)
             for p in cat]
    specs[0] = Pattern(name=specs[0].name,
                       defining_memory=specs[0].defining_memory,
                       observing_memory=specs[0].observing_memory,
                       exclusive_define_with=("ghost",),
                       shares=dict(specs[0].shares),
                       can_observe=specs[0].can_observe)
    with pytest.raises(DiagnosticError, match="ghost"):
        PatternCatalog(specs)


def test_duplicate_pattern_name_rejected():
    cat = generate_patterns_from_topology(make_topology(1))
    p = cat.patterns[0]
    dup = Pattern(name=p.name.replace("_", "."),  # same canonical spelling
                  defining_memory=p.defining_memory,
                  observing_memory=p.observing_memory)
    with pytest.raises(DiagnosticError, match="duplicate"):
        PatternCatalog(list(cat.patterns) + [dup])


# -- transfer costs ----------------------------------------------------------

@pytest.mark.parametrize("text,diagnostic", [
    # the parser's line and its 0-based column, made 1-based
    ("<patterns>\n  <pattern name='a'>\n</patterns>\n",
     (3, 3, "XML parse error: mismatched tag: line 3, column 2")),
    ("<catalog/>", (1, 1, "expected <patterns> root, found <catalog>")),
    ("<patterns><pattern><defining_memory>L2_0</defining_memory>"
     "<observing_memory>L2_1</observing_memory></pattern></patterns>",
     (1, 1, "<pattern> element without a name attribute")),
    ("<patterns><pattern name='p'><defining_memory>L2_0</defining_memory>"
     "</pattern></patterns>",
     (1, 1, "pattern 'p' must declare defining and observing memories")),
])
def test_malformed_catalogs_rejected(text, diagnostic):
    with pytest.raises(DiagnosticError) as err:
        parse_pattern_catalog(text)
    assert [(d.line, d.column, d.message)
            for d in err.value.diagnostics] == [diagnostic]


def test_default_cost_table_values():
    assert DEFAULT_COST_TABLE["pipeline"] == (0, None)
    assert DEFAULT_COST_TABLE["L2toL2"] == (200, 64)
    assert DEFAULT_COST_TABLE["big_delay"] == (1000, 16)


def test_round_trip_ddr_cost_at_published_size():
    # 2.8 MB over a 16 B/cycle DDR path plus the base latency
    cost = transfer_cost("big_delay", 2_800_000, DEFAULT_COST_TABLE)
    assert cost == 176_000


def test_pipeline_cost_has_no_size_term():
    assert transfer_cost("pipeline", 0, DEFAULT_COST_TABLE) == 0
    assert transfer_cost("pipeline", 10**9, DEFAULT_COST_TABLE) == 0


def test_cost_rounds_partial_lines_up():
    assert transfer_cost("L2toL2", 1, DEFAULT_COST_TABLE) == 201
    assert transfer_cost("L2toL2", 64, DEFAULT_COST_TABLE) == 201
    assert transfer_cost("L2toL2", 65, DEFAULT_COST_TABLE) == 202


@given(size=st.integers(min_value=0, max_value=10**8),
       bump=st.integers(min_value=1, max_value=10**6))
def test_cost_monotone_in_size(size, bump):
    a = transfer_cost("big_delay", size, DEFAULT_COST_TABLE)
    b = transfer_cost("big_delay", size + bump, DEFAULT_COST_TABLE)
    assert b >= a


@given(size=st.integers(min_value=0, max_value=10**8))
def test_cost_orders_classes_at_equal_size(size):
    pipeline = transfer_cost("pipeline", size, DEFAULT_COST_TABLE)
    near = transfer_cost("L2toL2", size, DEFAULT_COST_TABLE)
    far = transfer_cost("big_delay", size, DEFAULT_COST_TABLE)
    assert pipeline <= near <= far
