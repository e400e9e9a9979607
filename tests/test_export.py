import csv
import gc
import io
import json
import math
import random
import re
import weakref
import xml.etree.ElementTree as ET
from xml.sax import saxutils

import pytest
from hypothesis import given, settings, strategies as st

from scholar_sounder.analysis import Graph
from scholar_sounder.cli import main
from scholar_sounder.errors import FormatError
from scholar_sounder.export import (
    GEXF_NS,
    escape,
    from_gexf,
    make_bundle,
    quoteattr,
    to_edge_csv,
    to_gexf,
    to_graphml,
    to_json_report,
)

import export_reference
import gexf_reference


def small_bundle():
    g = Graph()
    g.add_node("a", rate=3, visited=True)
    g.add_node("b", rate=1, visited=False)
    g.add_edge("a", "b", 1)
    return make_bundle(g, config_digest="cfg123", tool_version="scholar-sounder test")


def random_bundle(rng, max_nodes=200):
    g = Graph()
    n = rng.randint(0, max_nodes)
    for i in range(n):
        g.add_node(
            f"n{i:04d}",
            rate=rng.randint(0, 50),
            visited=rng.random() < 0.5,
            score=rng.random(),
            name=f"node {i}",
        )
    names = sorted(g.nodes)
    for _ in range(rng.randint(0, 3 * n)):
        a, b = rng.sample(names, 2) if n >= 2 else (None, None)
        if a is None:
            break
        try:
            g.add_edge(a, b, rng.choice([1, 2, 3, 0.5]))
        except ValueError:
            pass  # duplicate pair
    return make_bundle(g, config_digest=f"digest{rng.randint(0, 9)}", tool_version="t")


class TestGexf:
    def test_counts_read_back(self):
        bundle = small_bundle()
        doc = to_gexf(bundle)
        back = from_gexf(doc)
        assert len(back.graph.nodes) == 2
        assert len(back.graph.edges) == 1

    def test_empty_graph_is_valid(self):
        bundle = make_bundle(Graph())
        back = from_gexf(to_gexf(bundle))
        assert back.graph.nodes == {} and back.graph.edges == {}

    def test_round_trip_identity(self):
        bundle = small_bundle()
        back = from_gexf(to_gexf(bundle))
        assert back.canonical_form() == bundle.canonical_form()

    def test_fixture_notion_network_round_trip(self, optics_config, fixture_fetcher):
        from scholar_sounder.notion_graph import sound_tags
        from scholar_sounder.parser import parse_label_page

        net = sound_tags(optics_config, fixture_fetcher.fetch, parse_label_page)
        bundle = make_bundle(net, "d", "v")
        back = from_gexf(to_gexf(bundle))
        assert back.canonical_form() == bundle.canonical_form()
        assert back.graph.edges[("optics", "physical_optics")] == 2

    @pytest.mark.parametrize("seed", range(25))
    def test_round_trip_random_bundles(self, seed):
        bundle = random_bundle(random.Random(seed), max_nodes=60)
        back = from_gexf(to_gexf(bundle))
        assert back.canonical_form() == bundle.canonical_form()

    def test_byte_stability(self):
        g = Graph()
        g.add_node("x", rate=1)
        bundle = make_bundle(g, "d", "v", created_at="2026-01-01T00:00:00+00:00")
        assert to_gexf(bundle) == to_gexf(bundle)

    def test_stamp_is_written_only_when_given(self):
        g = Graph()
        g.add_node("x", rate=1)
        plain = to_gexf(make_bundle(g, "d", "v"))
        assert "  <meta>\n" in plain and "<description>config_digest=d</description>" in plain
        assert "lastmodifieddate" not in plain and "created_at" not in plain
        stamped = to_gexf(make_bundle(g, "d", "v", created_at="2026-01-01T00:00:00+00:00"))
        assert '<meta lastmodifieddate="2026-01-01">' in stamped
        assert "config_digest=d;created_at=2026-01-01T00:00:00+00:00</description>" in stamped
        assert from_gexf(stamped).metadata["created_at"] == "2026-01-01T00:00:00+00:00"

    def test_stamp_with_a_quote_stays_well_formed(self):
        doc = to_gexf(make_bundle(Graph(), "d", "v", created_at='2026"01'))
        assert from_gexf(doc).metadata["created_at"] == '2026"01'

    def test_bundle_holds_export_values_and_shares_edges(self):
        g = Graph()
        g.add_node("a", labels=["x", "y"], h_index=None)
        g.add_edge("a", "b", 2)
        bundle = make_bundle(g)
        assert bundle.graph.nodes == {"a": {"labels": "x|y"}, "b": {}}
        assert bundle.graph.edges is g.edges
        assert g.nodes["a"] == {"labels": ["x", "y"], "h_index": None}

    def test_directed_graph_rejected(self):
        doc = to_gexf(small_bundle()).replace(
            'defaultedgetype="undirected"', 'defaultedgetype="directed"'
        )
        with pytest.raises(FormatError, match="undirected"):
            from_gexf(doc)

    def test_directed_edge_rejected(self):
        doc = to_gexf(small_bundle()).replace("<edge id=", '<edge type="directed" id=')
        with pytest.raises(FormatError, match="directed"):
            from_gexf(doc)

    def test_unknown_attribute_named_in_error(self):
        doc = to_gexf(small_bundle()).replace('for="0"', 'for="99"')
        with pytest.raises(FormatError, match="99"):
            from_gexf(doc)

    def test_malformed_xml_rejected(self):
        with pytest.raises(FormatError):
            from_gexf("<gexf><graph>")

    def test_schema_declares_every_used_attribute(self):
        bundle = small_bundle()
        schema = bundle.attribute_schema()
        used = set()
        for attrs in bundle.graph.nodes.values():
            used |= set(attrs)
        assert used == set(schema)
        assert schema == {"rate": "integer", "visited": "boolean"}


def mixed_bundle():
    """Two nodes with every attribute type, one edge."""
    g = Graph()
    g.add_node("a", rate=3, visited=True, score=0.5, name="A & <a>")
    g.add_node("b", rate=1, visited=False, score=2.0, name="B")
    g.add_edge("a", "b", 2)
    return make_bundle(g, config_digest="cfg", tool_version="t", created_at="2026-01-01")


MIXED_GEXF = to_gexf(mixed_bundle())
XML_ATTRIBUTE = re.compile(r' \w+="[^"]*"')
GEXF_FRAGMENTS = [
    "", '"', "'", "<", ">", "/>", "=", "&", "&#0;", "&amp;", "<![CDATA[", "<!DOCTYPE x>",
    "</node>", "<node/>", '<node id="c"/>', "<edge/>", '<edge source="a" target="a"/>',
    "<attvalues>", '<attvalue for="9"/>', '<attvalue for="0"/>', '<attribute type="integer"/>',
    ' id="0"', ' title="x"', ' type="string"', ' type="directed"', ' class="edge"',
    ' weight="x"', ' weight="nan"', ' value="1e999"', ' value="' + "9" * 5000 + '"',
]


def mutate(data, doc, fragments):
    """Drop or replace XML attributes of doc, or splice text into it, one to
    four times."""
    for _ in range(data.draw(st.integers(1, 4))):
        spans = [m.span() for m in XML_ATTRIBUTE.finditer(doc)]
        if spans and data.draw(st.booleans()):
            i, j = data.draw(st.sampled_from(spans))
        else:
            i = data.draw(st.integers(0, len(doc)))
            j = data.draw(st.integers(i, min(len(doc), i + 30)))
        doc = doc[:i] + data.draw(st.sampled_from(fragments) | st.text(max_size=4)) + doc[j:]
    return doc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_from_gexf_raises_only_format_error_on_mutated_documents(data):
    """Drop or replace XML attributes of a valid document, or splice text
    into it; whatever from_gexf accepts, every writer can write back."""
    doc = mutate(data, MIXED_GEXF, GEXF_FRAGMENTS)
    try:
        bundle = from_gexf(doc)
    except FormatError:
        return
    for writer in (to_gexf, to_graphml, to_edge_csv, to_json_report):
        writer(bundle)


def read_outcome(reader, doc):
    """None if reader raises FormatError, else everything a bundle holds."""
    try:
        bundle = reader(doc)
    except FormatError:
        return None
    # repr, so that NaN values compare equal and 1, 1.0 and True do not.
    return repr((bundle.canonical_form(), bundle.metadata, bundle.graph.nodes))


def graph_elements(doc) -> int:
    return sum(child.tag.rsplit("}", 1)[-1] == "graph" for child in ET.fromstring(doc))


def assert_readers_agree(doc):
    """The streaming reader and the element-tree reference both reject doc
    or read the same bundle from it. The one allowed difference: the
    streaming reader rejects a second <graph>, where the reference reads
    the last one."""
    expected = read_outcome(gexf_reference.from_gexf, doc)
    got = read_outcome(from_gexf, doc)
    if got is None and expected is not None and graph_elements(doc) > 1:
        return
    assert got == expected


# Fragments that reach what the mutations above rarely do: namespace
# prefixes, unknown elements where nodes and edges go, and markup inside
# <creator> and <description>.
ORACLE_FRAGMENTS = [
    '<g:node xmlns:g="http://www.gexf.net/1.2draft" id="g"/>', '<g:x xmlns:g="urn:g"/>',
    ' xmlns:g="urn:g"', ' g:id="c"', '<g:node id="c"/>', '<g:attvalues/>',
    '<unknown id="u"/>', '<unknown source="a" target="b" weight="3"/>', '<b>x</b>', "<i/>",
    '<attvalues><attvalue for="0" value="7"/></attvalues>',
    '<other><attvalue for="0" value="7"/></other>',
    '<graph defaultedgetype="undirected"/>',
]
START_TAG_ENDS = [m.end() for m in re.finditer(r"<[a-z][^>]*>", MIXED_GEXF)]
# Labels other than the ids, as Gephi and networkx write them.
LABELLED_GEXF = f"""<?xml version="1.0" encoding="UTF-8"?>
<gexf xmlns="{GEXF_NS}" version="1.2">
  <graph defaultedgetype="undirected" mode="static">
    <attributes class="node"/>
    <nodes>
      <node id="n1" label="Alice Smith"/>
      <node id="n2" label="n2"/>
    </nodes>
    <edges>
      <edge id="0" source="n1" target="n2" weight="1.0"/>
    </edges>
  </graph>
</gexf>
"""


class TestReaderAgreesWithReference:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_bundles(self, seed):
        assert_readers_agree(to_gexf(random_bundle(random.Random(seed), max_nodes=60)))

    @pytest.mark.parametrize("stem", ["notion", "coauthors"])
    def test_quick_start_files(self, quick_start_out, stem):
        doc = (quick_start_out / f"{stem}.gexf").read_text("utf-8")
        assert_readers_agree(doc)
        assert to_gexf(from_gexf(doc)) == doc

    @pytest.mark.parametrize("with_long", [False, True], ids=["accepted", "long-attribute"])
    def test_networkx_file(self, tmp_path, with_long):
        nx = pytest.importorskip("networkx")
        g = nx.Graph()
        g.add_node("a", name="A & <a>", score=0.5, flag=True)
        g.add_node("b", name="B", score=2.0, flag=False)
        g.add_node("c")
        g.add_edge("a", "b", weight=2.0)
        g.add_edge("b", "c", weight=1)
        if with_long:
            g.nodes["a"]["rank"] = 3  # written with GEXF type "long", which we reject
        nx.write_gexf(g, tmp_path / "nx.gexf")
        doc = (tmp_path / "nx.gexf").read_text("utf-8")
        assert_readers_agree(doc)
        assert (read_outcome(from_gexf, doc) is None) == with_long

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_documents(self, data):
        doc = MIXED_GEXF
        if data.draw(st.booleans()):
            i = data.draw(st.sampled_from(START_TAG_ENDS))
            doc = doc[:i] + data.draw(st.sampled_from(ORACLE_FRAGMENTS)) + doc[i:]
        assert_readers_agree(mutate(data, doc, GEXF_FRAGMENTS + ORACLE_FRAGMENTS))

    @pytest.mark.parametrize("doc", [
        MIXED_GEXF.replace("<creator>t", "<creator>t<b>x</b>y"),
        MIXED_GEXF.replace(";created_at", "<i/>;created_at"),
        MIXED_GEXF.replace("<creator>t", "<creator><![CDATA[<t>]]><!-- c -->&amp;"),
        MIXED_GEXF.replace("<nodes>", '<nodes><unknown id="u"/>'),
        MIXED_GEXF.replace("</attvalues>", '</attvalues><other><attvalue for="0" value="7"/></other>'),
        MIXED_GEXF.replace("<nodes>", '<nodes><node id="c"/>').replace(
            "<edges>", '<edges><unknown source="b" target="c"/>'),
        MIXED_GEXF.replace("<gexf ", '<gexf xmlns:g="urn:g" ').replace(
            "<node ", "<g:node ").replace("</node>", "</g:node>"),
        MIXED_GEXF.replace("<node ", "<g:node ").replace("</node>", "</g:node>"),
        MIXED_GEXF.replace("<gexf ", '<!DOCTYPE gexf SYSTEM "x"><gexf ').replace(
            "<creator>t", "<creator>t&undefined;"),
        MIXED_GEXF.replace("</nodes>", '<node id="a"/></nodes>'),
        LABELLED_GEXF,
        MIXED_GEXF.replace('label="a">', 'label="Alice &amp; Co">'),
    ], ids=["element-in-creator", "element-in-description", "cdata-in-creator",
            "unknown-node-element", "attvalue-outside-attvalues", "unknown-edge-element",
            "declared-prefix", "unbound-prefix", "undefined-entity", "repeated-node",
            "label", "label-with-attributes"])
    def test_hand_written_documents(self, doc):
        assert_readers_agree(doc)

    @pytest.mark.parametrize("doc, error", [
        (MIXED_GEXF.replace('source="a" target="b"', 'source="a" target="a"'),
         "self-loop on 'a' (at edge 0)"),
        (MIXED_GEXF.replace(
            '<edge id="0" source="a" target="b" weight="2"/>',
            '<edge id="0" source="a" target="b" weight="2"/>'
            '<edge id="1" source="b" target="a" weight="1"/>',
        ), "duplicate edge ('a', 'b') (at edge 1)"),
        (MIXED_GEXF.replace('weight="2"', 'weight="2.5"'), None),
        (MIXED_GEXF.replace(
            "</attributes>", '<attribute id="4" title="rate" type="string"/></attributes>'
        ), None),
        (re.sub(r"<graph.*</graph>", "", MIXED_GEXF, flags=re.S), "no <graph> element"),
        (MIXED_GEXF.replace("</nodes>", '<node label="x"/></nodes>'), "node without id"),
        (MIXED_GEXF.replace('value="0.5"', 'value="NaN"'),
         "bad double value 'NaN' for 'score' (at node a)"),
    ], ids=["self-loop", "same-pair-reversed", "non-integral-weight", "redeclared-attribute",
            "no-graph", "node-without-id", "non-finite-double"])
    def test_readers_give_the_same_error_or_graph(self, doc, error):
        """Stricter than assert_readers_agree: a rejection must carry the
        same message and location."""
        def outcome(reader):
            try:
                reader(doc)
            except FormatError as exc:
                return str(exc), exc.location
            return read_outcome(reader, doc)

        got = outcome(from_gexf)
        assert got == outcome(gexf_reference.from_gexf)
        if error is None:
            assert isinstance(got, str)
        else:
            assert got[0] == error

    def test_labels_survive_re_export(self):
        bundle = from_gexf(LABELLED_GEXF)
        assert bundle.graph.nodes == {"n1": {"label": "Alice Smith"}, "n2": {}}
        doc = to_gexf(bundle)
        assert '<node id="n1" label="Alice Smith">' in doc
        assert from_gexf(doc).canonical_form() == bundle.canonical_form()

    def test_declared_label_attribute_wins_over_the_xml_label(self):
        doc = LABELLED_GEXF.replace(
            '<attributes class="node"/>',
            '<attributes class="node"><attribute id="0" title="label" type="string"/>'
            "</attributes>",
        ).replace(
            '<node id="n1" label="Alice Smith"/>',
            '<node id="n1" label="Alice Smith"><attvalues>'
            '<attvalue for="0" value="A. Smith"/></attvalues></node>',
        )
        assert from_gexf(doc).graph.nodes["n1"] == {"label": "A. Smith"}
        assert_readers_agree(doc)

    def test_second_graph_element_is_rejected(self):
        doc = MIXED_GEXF.replace("</gexf>", '<graph defaultedgetype="undirected"/></gexf>')
        assert gexf_reference.from_gexf(doc).graph.nodes == {}  # the last <graph> wins
        with pytest.raises(FormatError, match="more than one <graph> element"):
            from_gexf(doc)

    def test_loaded_graph_dies_with_its_bundle(self):
        was_enabled = gc.isenabled()
        gc.disable()  # only reference counting may free the graph
        try:
            bundle = from_gexf(MIXED_GEXF)
            graph = weakref.ref(bundle.graph)
            del bundle
            assert graph() is None
        finally:
            if was_enabled:
                gc.enable()


# Text that quoting must handle: both quote characters, markup, line breaks
# and tabs, non-ASCII and a CDATA end.
HOSTILE_PIECES = ['"', "'", "<", ">", "&", "\n", "\r", "\t", "é", "中", "]]>", "a", " "]
HOSTILE_TEXT = st.lists(st.sampled_from(HOSTILE_PIECES), max_size=5).map("".join)
ATTRIBUTE_VALUES = (
    HOSTILE_TEXT
    | st.integers(-(10 ** 20), 10 ** 20)
    | st.booleans()
    | st.floats()
    | st.sampled_from([math.inf, -math.inf, -0.0, 0.5])
    | st.lists(HOSTILE_TEXT, max_size=3)
    | st.none()
)


@st.composite
def hostile_bundles(draw):
    """Bundles whose ids, labels, attribute names, string values and
    metadata hold hostile text, with labels of every type, mixed attribute
    types and edge endpoints that have no node entry."""
    g = Graph()
    ids = draw(st.lists(HOSTILE_TEXT, max_size=8, unique=True))
    for node in ids:
        attrs = draw(st.dictionaries(
            st.sampled_from(["label", "name", "h<&>", "n'q\"", "rate"]), ATTRIBUTE_VALUES,
            max_size=4,
        ))
        if draw(st.booleans()):
            attrs["label"] = node
        g.add_node(node, **attrs)
    endpoints = ids + draw(st.lists(HOSTILE_TEXT, max_size=2))
    if endpoints:
        for a, b, w in draw(st.lists(st.tuples(
            st.sampled_from(endpoints), st.sampled_from(endpoints),
            st.sampled_from([1, 2, 0.5, 3.0, 1e20]),
        ), max_size=12)):
            g.add_weight(a, b, w)
    return make_bundle(
        g, config_digest=draw(HOSTILE_TEXT), tool_version=draw(HOSTILE_TEXT),
        created_at=draw(st.none() | HOSTILE_TEXT),
    )


def hostile_bundle():
    """One bundle with each case the writers special-case, by hand."""
    g = Graph()
    g.add_node('"q"', label="it's", name='both "\'', score=math.inf)
    g.add_node("<a&b>", label=5, name="line\nbreak\r\ttab", score=-0.0)
    g.add_node("]]>", label="]]>", name="café 中", score=0.5)
    g.add_node("5", label=5, name="<![CDATA[x]]>", score=-math.inf)
    g.add_node("plain", score=3)
    g.add_node("bare")
    g.add_edge('"q"', "<a&b>", 2)
    g.add_weight("]]>", "no 'node' entry", 0.5)
    g.add_weight('"q"', "\n", 1)
    return make_bundle(g, config_digest="d<&>", tool_version='t"\'', created_at="2026-01-01\n&")


class TestWritersAgreeWithReference:
    """to_gexf and to_graphml write the bytes of the xml.sax-based writers
    they replaced."""

    def assert_writers_agree(self, bundle):
        assert to_gexf(bundle) == export_reference.to_gexf(bundle)
        assert to_graphml(bundle) == export_reference.to_graphml(bundle)

    def test_hostile_bundle(self):
        bundle = hostile_bundle()
        assert bundle.attribute_schema() == {
            "label": "string", "name": "string", "score": "double",
        }
        self.assert_writers_agree(bundle)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_bundles(self, seed):
        self.assert_writers_agree(random_bundle(random.Random(seed)))

    def test_mixed_bundle(self):
        self.assert_writers_agree(mixed_bundle())

    @settings(max_examples=300, deadline=None)
    @given(hostile_bundles())
    def test_hostile_bundles(self, bundle):
        self.assert_writers_agree(bundle)

    @settings(max_examples=500, deadline=None)
    @given(st.text() | HOSTILE_TEXT)
    def test_quoting_matches_saxutils(self, text):
        assert escape(text) == saxutils.escape(text)
        assert quoteattr(text) == saxutils.quoteattr(text)


class TestGraphml:
    def test_structure(self):
        doc = to_graphml(small_bundle())
        assert doc.count("<node") == 2
        assert doc.count("<edge") == 1
        assert 'edgedefault="undirected"' in doc
        assert 'attr.name="rate"' in doc

    def test_byte_stability(self):
        bundle = small_bundle()
        assert to_graphml(bundle) == to_graphml(bundle)


class TestEdgeCsv:
    def test_single_edge_two_lines(self):
        g = Graph()
        g.add_edge("a", "b", 2)
        text = to_edge_csv(make_bundle(g))
        rows = list(csv.reader(io.StringIO(text)))
        assert rows == [["source", "target", "weight"], ["a", "b", "2"]]

    def test_empty_graph_header_only(self):
        text = to_edge_csv(make_bundle(Graph()))
        assert text.strip() == "source,target,weight"

    def test_row_count_matches_edges(self, optics_config, fixture_fetcher):
        from scholar_sounder.notion_graph import sound_tags
        from scholar_sounder.parser import parse_label_page

        net = sound_tags(optics_config, fixture_fetcher.fetch, parse_label_page)
        text = to_edge_csv(make_bundle(net))
        rows = list(csv.reader(io.StringIO(text)))
        assert len(rows) - 1 == len(net.edges)


class TestJsonReport:
    def test_empty_graph_zero_counts(self):
        report = json.loads(to_json_report(make_bundle(Graph())))
        assert report["graph"] == {"nodes": 0, "edges": 0, "total_weight": 0}

    def test_byte_identical_on_rerun(self):
        bundle = small_bundle()
        assert to_json_report(bundle) == to_json_report(bundle)


@pytest.fixture(scope="module")
def quick_start_out(tmp_path_factory):
    """Outputs of the README quick start: ``all`` on the bundled fixtures."""
    root = tmp_path_factory.mktemp("quick_start")
    config = root / "config.json"
    config.write_text(
        json.dumps(
            {
                "base_tags": ["physical optics"],
                "dictionary": ["optics", "optical", "photonics", "laser"],
                "fetch": {"mode": "fixture"},
            }
        ),
        "utf-8",
    )
    out = root / "out"
    main(["all", "--config", str(config), "--fixtures", "bundled", "--out", str(out)])
    return out


class TestNetworkxInterop:
    @pytest.fixture()
    def nx(self):
        return pytest.importorskip("networkx")

    @pytest.mark.parametrize(
        "stem, nodes, edges", [("notion", 26, 33), ("coauthors", 10, 10)]
    )
    @pytest.mark.parametrize("fmt", ["gexf", "graphml"])
    def test_reads_our_exports(self, nx, quick_start_out, stem, nodes, edges, fmt):
        ours = from_gexf((quick_start_out / f"{stem}.gexf").read_text("utf-8")).graph
        read = nx.read_gexf if fmt == "gexf" else nx.read_graphml
        theirs = read(quick_start_out / f"{stem}.{fmt}")
        assert not theirs.is_directed()
        assert set(theirs.nodes) == set(ours.nodes)
        assert len(ours.nodes) == nodes
        assert {
            tuple(sorted((a, b))): w for a, b, w in theirs.edges(data="weight")
        } == ours.edges
        assert len(ours.edges) == edges
