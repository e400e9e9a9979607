"""Serialization of graphs into Gephi-consumable interchange formats.

GEXF 1.2 is the primary format and the only one with a reader; the sounding
commands write only GEXF, and ``export`` makes GraphML, edge CSV and the JSON
summary from it. Each writer returns the file's text in canonical sorted
order, so identical inputs give byte-identical files, and ``cli`` writes it
with ``write_atomic``; ``json_text`` is the one layout of every JSON file.
The XML writers quote each node id once and escape only string values;
their ``escape`` and ``quoteattr`` write what ``xml.sax.saxutils`` writes.
The GEXF reader is a single streaming expat pass that fills the graph
directly, with no element tree; it accepts the subset ``to_gexf`` writes
and raises ``FormatError``, with a location where one applies, on
anything else.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from xml.parsers import expat

from .analysis import Graph, canonical_number
from .errors import FormatError

GEXF_NS = "http://www.gexf.net/1.2draft"


@dataclass
class ExportBundle:
    """A graph ready to write: its node maps hold the values the files
    carry, and ``metadata`` fills the file header."""

    graph: Graph
    metadata: dict[str, str]

    def attribute_schema(self) -> dict[str, str]:
        """Attribute name -> GEXF type, inferred over all values. Every key
        used anywhere appears exactly once here."""
        by_name: dict[str, list] = {}
        for attrs in self.graph.nodes.values():
            for name, value in attrs.items():
                by_name.setdefault(name, []).append(value)
        return {name: _infer_type(values) for name, values in sorted(by_name.items())}

    def canonical_form(self) -> dict:
        """Comparable form: everything except the creation timestamp."""
        return {
            **self.graph.to_canonical_dict(),
            "metadata": {k: v for k, v in self.metadata.items() if k != "created_at"},
        }


def make_bundle(graph: Graph, config_digest: str = "", tool_version: str = "",
                created_at: str | None = None) -> ExportBundle:
    """Bundle a graph for export. The bundle's graph shares the edge map and
    holds export values in its node maps: None-valued attributes are dropped
    and list values joined with ``|``. The files carry a creation timestamp
    only when ``created_at`` is given, so identical graphs give identical
    bytes."""
    export = Graph()
    export.nodes = {
        node: {
            k: "|".join(v) if isinstance(v, list) else v
            for k, v in attrs.items()
            if v is not None
        }
        for node, attrs in graph.nodes.items()
    }
    export.edges = graph.edges
    metadata = {
        "config_digest": config_digest,
        "tool_version": tool_version,
        "created_at": created_at or "",
    }
    return ExportBundle(graph=export, metadata=metadata)


def _infer_type(values) -> str:
    if all(isinstance(v, bool) for v in values):
        return "boolean"
    if all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        return "integer"
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        return "double"
    return "string"


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _parse_double(text: str) -> float:
    """A finite double: the writers have no ``xsd:double`` form for others."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# Per GEXF attribute type: its GraphML type, the text a value is written as,
# and the reader of that text. Only strings can hold markup.
_TYPES = {
    "boolean": ("boolean", lambda value: "true" if value else "false", _parse_bool),
    "integer": ("int", str, int),
    "double": ("double", lambda value: repr(float(value)), _parse_double),
    "string": ("string", str, str),
}


def escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` escaped, as ``xml.sax.saxutils.escape``
    writes it. Importing that module loads ``urllib.request`` and the HTTP stack."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """``text`` as a quoted XML attribute value, as ``xml.sax.saxutils.quoteattr``
    writes it: escaped, with line breaks and tabs as character references, in
    double quotes unless it holds one, then in single quotes unless it holds
    both, then in double quotes with ``&quot;``."""
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


# -- GEXF -------------------------------------------------------------


def to_gexf(bundle: ExportBundle) -> str:
    """GEXF 1.2 document: undirected, weighted, with a declared node
    attribute schema. Byte-stable for identical bundles."""
    schema = bundle.attribute_schema()
    meta = bundle.metadata
    stamp = meta.get("created_at", "")
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<gexf xmlns="{GEXF_NS}" version="1.2">',
        f"  <meta lastmodifieddate={quoteattr(stamp[:10])}>" if stamp else "  <meta>",
        f'    <creator>{escape(meta.get("tool_version", ""))}</creator>',
        f'    <description>config_digest={escape(meta.get("config_digest", ""))}'
        f'{";created_at=" + escape(stamp) if stamp else ""}</description>',
        "  </meta>",
        '  <graph defaultedgetype="undirected" mode="static">',
        '    <attributes class="node">',
    ]
    # Per attribute: the start of its attvalue element, its formatter and
    # whether the text needs escaping.
    columns = {}
    for i, (name, gexf_type) in enumerate(schema.items()):
        lines.append(f'      <attribute id="{i}" title={quoteattr(name)} type="{gexf_type}"/>')
        columns[name] = (
            f'          <attvalue for="{i}" value=', _TYPES[gexf_type][1], gexf_type == "string"
        )
    lines.append("    </attributes>")
    lines.append("    <nodes>")
    quoted = {}  # node id -> its quoted form, reused for the label and the edges
    for node, attrs in sorted(bundle.graph.nodes.items()):
        quoted_id = quoted[node] = quoteattr(node)
        label = attrs.get("label", node)
        quoted_label = quoted_id if label == node else quoteattr(str(label))
        open_tag = f"      <node id={quoted_id} label={quoted_label}"
        if not attrs:
            lines.append(open_tag + "/>")
            continue
        lines.append(open_tag + ">")
        lines.append("        <attvalues>")
        for name in sorted(attrs):
            start, fmt, markup = columns[name]
            value = quoteattr(fmt(attrs[name])) if markup else f'"{fmt(attrs[name])}"'
            lines.append(f"{start}{value}/>")
        lines.append("        </attvalues>")
        lines.append("      </node>")
    lines.append("    </nodes>")
    lines.append("    <edges>")
    for i, ((a, b), w) in enumerate(sorted(bundle.graph.edges.items())):
        # An endpoint without a node entry (see Graph.add_weight) is quoted here.
        source = quoted.get(a) or quoteattr(a)
        target = quoted.get(b) or quoteattr(b)
        lines.append(
            f'      <edge id="{i}" source={source} target={target} weight="{canonical_number(w)}"/>'
        )
    lines += ["    </edges>", "  </graph>", "</gexf>", ""]
    return "\n".join(lines)  # the empty last line ends the text with a newline, uncopied


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


# The structural contexts of the GEXF reader: per context, the local names of
# the children that open a context of that name. Any other child is skipped
# with its subtree. Every child of <nodes>, <edges>, <attributes> and
# <attvalues> is read as a node, edge, declaration or value, whatever its name.
_OPENS = {
    "gexf": {"meta", "graph"},
    "meta": {"creator", "description"},
    "graph": {"attributes", "nodes", "edges"},
    "node": {"attvalues"},
}


def from_gexf(document: str) -> ExportBundle:
    """Read back the GEXF subset that to_gexf emits. Anything else raises
    FormatError.

    One expat pass fills the graph as elements open; no element tree is
    built. Elements are interpreted by position: every child of ``<nodes>``
    is a node, of ``<edges>`` an edge, of ``<attributes>`` an attribute
    declaration, and of a node's ``<attvalues>`` an attribute value;
    anything else under ``<gexf>``, ``<meta>``, ``<graph>`` or a node is
    skipped with its subtree. The text of ``<creator>`` and
    ``<description>`` is read up to their first child element. A node's XML
    ``label`` other than its id is kept as the attribute ``label``, which a
    declared ``label`` attvalue overrides. A second ``<graph>``, a repeated
    node id and a non-finite edge weight are rejected.
    """
    metadata = {"config_digest": "", "tool_version": "", "created_at": ""}
    schema: dict[str, str] = {}
    id_to_name: dict[str, str] = {}
    graph = Graph()
    nodes, edges = graph.nodes, graph.edges
    # One context per open element; "skip" marks a subtree that is ignored.
    stack = ["document"]
    push, pop = stack.append, stack.pop
    text: list[str] = []
    node_id: str = ""
    attrs: dict = {}
    attribute_index = 0
    seen_graph = False
    parser = expat.ParserCreate(namespace_separator="}")

    def start(tag, xml_attrs):
        nonlocal node_id, attrs, attribute_index, seen_graph
        context = stack[-1]
        if context == "attvalues":
            ref = xml_attrs.get("for")
            if ref not in id_to_name:
                raise FormatError(
                    f"attvalue references unknown attribute id {ref!r}",
                    location=f"node {node_id}",
                )
            name = id_to_name[ref]
            value = xml_attrs.get("value", "")
            try:
                attrs[name] = _TYPES[schema[name]][2](value)
            except ValueError:
                raise FormatError(
                    f"bad {schema[name]} value {value!r} for {name!r}",
                    location=f"node {node_id}",
                ) from None
            push("skip")
        elif context == "edges":
            if xml_attrs.get("type") == "directed":
                raise FormatError("directed edge", location=f"edge {xml_attrs.get('id')}")
            a, b = xml_attrs.get("source"), xml_attrs.get("target")
            if a is None or b is None or a not in nodes or b not in nodes:
                raise FormatError(
                    f"edge endpoints {a!r}-{b!r} not declared",
                    location=f"edge {xml_attrs.get('id')}",
                )
            try:
                weight = _parse_double(xml_attrs.get("weight", "1"))
            except ValueError:
                raise FormatError(
                    f"bad edge weight {xml_attrs.get('weight')!r}",
                    location=f"edge {xml_attrs.get('id')}",
                ) from None
            if a == b:
                raise FormatError(f"self-loop on {a!r}", location=f"edge {xml_attrs.get('id')}")
            pair = (a, b) if a <= b else (b, a)  # analysis.canonical_pair, one call less per edge
            if pair in edges:
                raise FormatError(f"duplicate edge {pair}", location=f"edge {xml_attrs.get('id')}")
            edges[pair] = canonical_number(weight)
            push("skip")
        elif context == "nodes":
            node_id = xml_attrs.get("id")
            if node_id is None:
                raise FormatError("node without id")
            if node_id in nodes:
                raise FormatError(f"repeated node id {node_id!r}", location=f"node {node_id}")
            label = xml_attrs.get("label", node_id)
            attrs = nodes[node_id] = {} if label == node_id else {"label": label}
            push("node")
        elif context == "attributes":
            name, attr_id = xml_attrs.get("title"), xml_attrs.get("id")
            if name is None or attr_id is None:
                raise FormatError(
                    "attribute without title or id", location=f"attribute {attribute_index}"
                )
            gexf_type = xml_attrs.get("type")
            if gexf_type not in _TYPES:
                raise FormatError(f"unsupported attribute type {gexf_type!r}", location=name)
            schema[name] = gexf_type
            id_to_name[attr_id] = name
            attribute_index += 1
            push("skip")
        elif context in _OPENS:  # gexf, meta, graph or a node
            kind = _local(tag)
            if kind not in _OPENS[context]:
                kind = "skip"
            elif kind == "graph":
                if seen_graph:
                    raise FormatError("more than one <graph> element", location="graph")
                seen_graph = True
                if xml_attrs.get("defaultedgetype") != "undirected":
                    raise FormatError(
                        f"unsupported edge type {xml_attrs.get('defaultedgetype')!r}; "
                        "only undirected graphs are supported",
                        location="graph",
                    )
            elif kind == "attributes":
                if xml_attrs.get("class") != "node":
                    raise FormatError(
                        f"unsupported attribute class {xml_attrs.get('class')!r}"
                    )
                attribute_index = 0
            elif kind in ("creator", "description"):
                text.clear()
                parser.CharacterDataHandler = text.append
            push(kind)
        elif context == "document":  # the root element
            if _local(tag) != "gexf":
                raise FormatError(f"root element is <{_local(tag)}>, expected <gexf>")
            push("gexf")
        else:  # skip, creator or description: their text ends at the first child
            parser.CharacterDataHandler = None
            push("skip")

    def end(tag):
        context = pop()
        if context == "skip":
            return
        if context == "creator":
            parser.CharacterDataHandler = None
            metadata["tool_version"] = "".join(text)
        elif context == "description":
            parser.CharacterDataHandler = None
            for part in "".join(text).split(";"):
                if "=" in part:
                    k, v = part.split("=", 1)
                    if k in metadata:
                        metadata[k] = v

    def skipped_entity(name, is_parameter_entity):
        raise FormatError(
            f"not well-formed XML: undefined entity &{name};: "
            f"line {parser.CurrentLineNumber}, column {parser.CurrentColumnNumber}"
        )

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.SkippedEntityHandler = skipped_entity
    try:
        parser.Parse(document, True)
    except expat.ExpatError as exc:
        raise FormatError(f"not well-formed XML: {exc}") from exc
    finally:
        # The handlers reach the parser through their closure; drop them so
        # the parser, and with it the graph, is freed without a cycle pass.
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = parser.SkippedEntityHandler = None
    if not seen_graph:
        raise FormatError("no <graph> element")
    return ExportBundle(graph=graph, metadata=metadata)


# -- GraphML (write-only) ----------------------------------------------


def to_graphml(bundle: ExportBundle) -> str:
    schema = bundle.attribute_schema()
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    ]
    # Per attribute: the start of its data element, its formatter and
    # whether the text needs escaping.
    columns = {}
    for i, (name, gexf_type) in enumerate(schema.items()):
        graphml_type, fmt, _ = _TYPES[gexf_type]
        lines.append(
            f'  <key id="d{i}" for="node" attr.name={quoteattr(name)} attr.type="{graphml_type}"/>'
        )
        columns[name] = (f'      <data key="d{i}">', fmt, gexf_type == "string")
    lines.append('  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>')
    lines.append('  <graph edgedefault="undirected">')
    quoted = {}  # node id -> its quoted form, reused for the edges
    for node, attrs in sorted(bundle.graph.nodes.items()):
        quoted_id = quoted[node] = quoteattr(node)
        if not attrs:
            lines.append(f"    <node id={quoted_id}/>")
            continue
        lines.append(f"    <node id={quoted_id}>")
        for name in sorted(attrs):
            start, fmt, markup = columns[name]
            value = escape(fmt(attrs[name])) if markup else fmt(attrs[name])
            lines.append(f"{start}{value}</data>")
        lines.append("    </node>")
    for (a, b), w in sorted(bundle.graph.edges.items()):
        source = quoted.get(a) or quoteattr(a)
        target = quoted.get(b) or quoteattr(b)
        lines.append(
            f"    <edge source={source} target={target}>"
            f'<data key="weight">{canonical_number(w)}</data></edge>'
        )
    lines += ["  </graph>", "</graphml>", ""]
    return "\n".join(lines)  # the empty last line ends the text with a newline, uncopied


# -- CSV / JSON ---------------------------------------------------------


def to_edge_csv(bundle: ExportBundle) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["source", "target", "weight"])
    for (a, b), w in sorted(bundle.graph.edges.items()):
        writer.writerow([a, b, canonical_number(w)])
    return buf.getvalue()


def to_json_report(bundle: ExportBundle) -> str:
    """Node and edge counts, total weight and metadata. The weight is summed in
    sorted pair order, so it does not depend on the order edges were read in."""
    graph = bundle.graph
    weight = canonical_number(sum(graph.edges[pair] for pair in sorted(graph.edges)))
    summary = {"nodes": len(graph.nodes), "edges": len(graph.edges), "total_weight": weight}
    return json_text({"graph": summary, "metadata": bundle.metadata})


def json_text(value) -> str:
    """The layout of every JSON file the tool writes: sorted keys, two-space
    indent and a final newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"
