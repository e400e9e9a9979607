"""Serialization of graphs into Gephi-consumable interchange formats.

GEXF 1.2 is the primary format and the only one with a reader; GraphML and
edge CSV are write-only. Everything is emitted in canonical sorted order so
identical inputs give byte-identical files. The GEXF reader is a single
streaming expat pass that fills the graph directly, with no element tree; it
accepts the subset ``to_gexf`` writes and raises ``FormatError``, with a
location where one applies, on anything else.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from xml.parsers import expat
from xml.sax.saxutils import escape, quoteattr

from .analysis import Graph
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
            "nodes": {n: _canon_attrs(attrs) for n, attrs in sorted(self.graph.nodes.items())},
            "edges": {f"{a}|{b}": _num(w) for (a, b), w in sorted(self.graph.edges.items())},
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


def _num(w):
    f = float(w)
    return int(f) if f.is_integer() else f


def _canon_attrs(attrs: dict) -> dict:
    return {k: (_num(v) if isinstance(v, float) else v) for k, v in sorted(attrs.items())}


def _fmt_value(value, gexf_type: str) -> str:
    if gexf_type == "boolean":
        return "true" if value else "false"
    if gexf_type == "double":
        return repr(float(value))
    return str(value)


def _parse_value(text: str, gexf_type: str):
    if gexf_type == "boolean":
        if text not in ("true", "false"):
            raise ValueError(text)
        return text == "true"
    if gexf_type == "integer":
        return int(text)
    if gexf_type == "double":
        return float(text)
    return text


def _fmt_weight(w) -> str:
    return str(_num(w))


# -- GEXF -------------------------------------------------------------


def to_gexf(bundle: ExportBundle) -> str:
    """GEXF 1.2 document: undirected, weighted, with a declared node
    attribute schema. Byte-stable for identical bundles."""
    schema = bundle.attribute_schema()
    attr_ids = {name: str(i) for i, name in enumerate(schema)}
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
    for name, gexf_type in schema.items():
        lines.append(
            f'      <attribute id="{attr_ids[name]}" title={quoteattr(name)} type="{gexf_type}"/>'
        )
    lines.append("    </attributes>")
    lines.append("    <nodes>")
    for node, attrs in sorted(bundle.graph.nodes.items()):
        label = str(attrs.get("label", node))
        open_tag = f"      <node id={quoteattr(node)} label={quoteattr(label)}"
        if not attrs:
            lines.append(open_tag + "/>")
            continue
        lines.append(open_tag + ">")
        lines.append("        <attvalues>")
        for name in sorted(attrs):
            lines.append(
                f'          <attvalue for="{attr_ids[name]}" '
                f"value={quoteattr(_fmt_value(attrs[name], schema[name]))}/>"
            )
        lines.append("        </attvalues>")
        lines.append("      </node>")
    lines.append("    </nodes>")
    lines.append("    <edges>")
    for i, ((a, b), w) in enumerate(sorted(bundle.graph.edges.items())):
        lines.append(
            f'      <edge id="{i}" source={quoteattr(a)} target={quoteattr(b)} '
            f'weight="{_fmt_weight(w)}"/>'
        )
    lines.append("    </edges>")
    lines.append("  </graph>")
    lines.append("</gexf>")
    return "\n".join(lines) + "\n"


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def from_gexf(document: str) -> ExportBundle:
    """Read back the GEXF subset that to_gexf emits. Anything else raises
    FormatError.

    One expat pass fills the graph as elements open; no element tree is
    built. Elements are interpreted by position: every child of ``<nodes>``
    is a node, of ``<edges>`` an edge, of ``<attributes>`` an attribute
    declaration, and of a node's ``<attvalues>`` an attribute value;
    anything else under ``<gexf>``, ``<meta>``, ``<graph>`` or a node is
    skipped with its subtree. The text of ``<creator>`` and
    ``<description>`` is read up to their first child element. A second
    ``<graph>`` and a repeated node id are rejected.
    """
    metadata = {"config_digest": "", "tool_version": "", "created_at": ""}
    schema: dict[str, str] = {}
    id_to_name: dict[str, str] = {}
    graph = Graph()
    nodes = graph.nodes
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
                attrs[name] = _parse_value(value, schema[name])
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
                weight = float(xml_attrs.get("weight", "1"))
            except ValueError:
                raise FormatError(
                    f"bad edge weight {xml_attrs.get('weight')!r}",
                    location=f"edge {xml_attrs.get('id')}",
                ) from None
            try:
                graph.add_edge(a, b, _num(weight))
            except ValueError as exc:  # self-loop or duplicate pair
                raise FormatError(str(exc), location=f"edge {xml_attrs.get('id')}") from None
            push("skip")
        elif context == "skip":
            push("skip")
        elif context == "node":
            push("attvalues" if _local(tag) == "attvalues" else "skip")
        elif context == "nodes":
            node_id = xml_attrs.get("id")
            if node_id is None:
                raise FormatError("node without id")
            if node_id in nodes:
                raise FormatError(f"repeated node id {node_id!r}", location=f"node {node_id}")
            attrs = nodes[node_id] = {}
            push("node")
        elif context == "attributes":
            name, attr_id = xml_attrs.get("title"), xml_attrs.get("id")
            if name is None or attr_id is None:
                raise FormatError(
                    "attribute without title or id", location=f"attribute {attribute_index}"
                )
            gexf_type = xml_attrs.get("type")
            if gexf_type not in ("boolean", "integer", "double", "string"):
                raise FormatError(f"unsupported attribute type {gexf_type!r}", location=name)
            schema[name] = gexf_type
            id_to_name[attr_id] = name
            attribute_index += 1
            push("skip")
        elif context == "graph":
            kind = _local(tag)
            if kind == "attributes":
                if xml_attrs.get("class") != "node":
                    raise FormatError(
                        f"unsupported attribute class {xml_attrs.get('class')!r}"
                    )
                attribute_index = 0
                push(kind)
            else:
                push(kind if kind in ("nodes", "edges") else "skip")
        elif context == "meta":
            kind = _local(tag)
            if kind in ("creator", "description"):
                text.clear()
                parser.CharacterDataHandler = text.append
                push(kind)
            else:
                push("skip")
        elif context in ("creator", "description"):
            parser.CharacterDataHandler = None  # text ends at the first child
            push("skip")
        elif context == "gexf":
            kind = _local(tag)
            if kind == "graph":
                if seen_graph:
                    raise FormatError("more than one <graph> element", location="graph")
                seen_graph = True
                if xml_attrs.get("defaultedgetype") != "undirected":
                    raise FormatError(
                        f"unsupported edge type {xml_attrs.get('defaultedgetype')!r}; "
                        "only undirected graphs are supported",
                        location="graph",
                    )
                push(kind)
            else:
                push("meta" if kind == "meta" else "skip")
        else:  # the root element
            if _local(tag) != "gexf":
                raise FormatError(f"root element is <{_local(tag)}>, expected <gexf>")
            push("gexf")

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
    type_map = {"boolean": "boolean", "integer": "int", "double": "double", "string": "string"}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    ]
    for i, (name, gexf_type) in enumerate(schema.items()):
        lines.append(
            f'  <key id="d{i}" for="node" attr.name={quoteattr(name)} '
            f'attr.type="{type_map[gexf_type]}"/>'
        )
    lines.append('  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>')
    lines.append('  <graph edgedefault="undirected">')
    key_ids = {name: f"d{i}" for i, name in enumerate(schema)}
    for node, attrs in sorted(bundle.graph.nodes.items()):
        if not attrs:
            lines.append(f"    <node id={quoteattr(node)}/>")
            continue
        lines.append(f"    <node id={quoteattr(node)}>")
        for name in sorted(attrs):
            lines.append(
                f'      <data key="{key_ids[name]}">'
                f"{escape(_fmt_value(attrs[name], schema[name]))}</data>"
            )
        lines.append("    </node>")
    for (a, b), w in sorted(bundle.graph.edges.items()):
        lines.append(
            f"    <edge source={quoteattr(a)} target={quoteattr(b)}>"
            f'<data key="weight">{_fmt_weight(w)}</data></edge>'
        )
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


# -- CSV / JSON ---------------------------------------------------------


def to_edge_csv(bundle: ExportBundle) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["source", "target", "weight"])
    for (a, b), w in sorted(bundle.graph.edges.items()):
        writer.writerow([a, b, _fmt_weight(w)])
    return buf.getvalue()


def to_json_report(bundle: ExportBundle, analysis_outputs: dict | None = None) -> str:
    """Single structured report: graph summary, analysis sections, metadata.
    Sorted keys; byte-stable for identical inputs."""
    report = {
        "graph": {
            "nodes": len(bundle.graph.nodes),
            "edges": len(bundle.graph.edges),
            "total_weight": _num(bundle.graph.total_weight()),
        },
        "metadata": dict(bundle.metadata),
    }
    report.update(analysis_outputs or {})
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
