"""Serialization of graphs into Gephi-consumable interchange formats.

GEXF 1.2 is the primary format and the only one with a reader; GraphML and
edge CSV are write-only. Everything is emitted in canonical sorted order so
identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any
from xml.sax.saxutils import escape, quoteattr

from .analysis import Graph
from .errors import FormatError

GEXF_NS = "http://www.gexf.net/1.2draft"


@dataclass
class ExportBundle:
    graph: Graph
    node_attributes: dict[str, dict[str, Any]]
    metadata: dict[str, str] = field(default_factory=dict)

    def attribute_schema(self) -> dict[str, str]:
        """Attribute name -> GEXF type, inferred over all values. Every key
        used anywhere appears exactly once here."""
        by_name: dict[str, list] = {}
        for attrs in self.node_attributes.values():
            for name, value in attrs.items():
                by_name.setdefault(name, []).append(value)
        return {name: _infer_type(values) for name, values in sorted(by_name.items())}

    def canonical_form(self) -> dict:
        """Comparable form: everything except the creation timestamp."""
        return {
            "nodes": {n: _canon_attrs(self.node_attributes.get(n, {})) for n in sorted(self.graph.nodes)},
            "edges": {f"{a}|{b}": _num(w) for (a, b), w in sorted(self.graph.edges.items())},
            "metadata": {k: v for k, v in self.metadata.items() if k != "created_at"},
        }


def make_bundle(graph: Graph, config_digest: str = "", tool_version: str = "",
                created_at: str | None = None) -> ExportBundle:
    """Bundle a graph for export, lifting node attribute maps: None-valued
    attributes are dropped and list values joined with ``|``."""
    node_attributes = {
        node: {
            k: "|".join(v) if isinstance(v, list) else v
            for k, v in attrs.items()
            if v is not None
        }
        for node, attrs in graph.nodes.items()
    }
    metadata = {
        "config_digest": config_digest,
        "tool_version": tool_version,
        "created_at": created_at or datetime.now(timezone.utc).isoformat(),
    }
    return ExportBundle(graph=graph, node_attributes=node_attributes, metadata=metadata)


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
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<gexf xmlns="{GEXF_NS}" version="1.2">',
        f'  <meta lastmodifieddate="{escape(meta.get("created_at", "")[:10])}">',
        f'    <creator>{escape(meta.get("tool_version", ""))}</creator>',
        f'    <description>config_digest={escape(meta.get("config_digest", ""))};'
        f'created_at={escape(meta.get("created_at", ""))}</description>',
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
    for node in sorted(bundle.graph.nodes):
        attrs = bundle.node_attributes.get(node, {})
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
    FormatError."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise FormatError(f"not well-formed XML: {exc}") from exc
    if _local(root.tag) != "gexf":
        raise FormatError(f"root element is <{_local(root.tag)}>, expected <gexf>")

    metadata = {"config_digest": "", "tool_version": "", "created_at": ""}
    graph_el = None
    for child in root:
        if _local(child.tag) == "meta":
            for m in child:
                if _local(m.tag) == "creator":
                    metadata["tool_version"] = m.text or ""
                elif _local(m.tag) == "description":
                    for part in (m.text or "").split(";"):
                        if "=" in part:
                            k, v = part.split("=", 1)
                            if k in metadata:
                                metadata[k] = v
        elif _local(child.tag) == "graph":
            graph_el = child
    if graph_el is None:
        raise FormatError("no <graph> element")
    if graph_el.get("defaultedgetype") != "undirected":
        raise FormatError(
            f"unsupported edge type {graph_el.get('defaultedgetype')!r}; "
            "only undirected graphs are supported",
            location="graph",
        )

    schema: dict[str, str] = {}
    id_to_name: dict[str, str] = {}
    graph = Graph()
    node_attributes: dict[str, dict[str, Any]] = {}
    for section in graph_el:
        kind = _local(section.tag)
        if kind == "attributes":
            if section.get("class") != "node":
                raise FormatError(f"unsupported attribute class {section.get('class')!r}")
            for i, attr in enumerate(section):
                name, attr_id = attr.get("title"), attr.get("id")
                if name is None or attr_id is None:
                    raise FormatError("attribute without title or id", location=f"attribute {i}")
                gexf_type = attr.get("type")
                if gexf_type not in ("boolean", "integer", "double", "string"):
                    raise FormatError(f"unsupported attribute type {gexf_type!r}", location=name)
                schema[name] = gexf_type
                id_to_name[attr_id] = name
        elif kind == "nodes":
            for node_el in section:
                node_id = node_el.get("id")
                if node_id is None:
                    raise FormatError("node without id")
                graph.add_node(node_id)
                attrs: dict[str, Any] = {}
                for sub in node_el:
                    if _local(sub.tag) != "attvalues":
                        continue
                    for av in sub:
                        ref = av.get("for")
                        if ref not in id_to_name:
                            raise FormatError(
                                f"attvalue references unknown attribute id {ref!r}",
                                location=f"node {node_id}",
                            )
                        name = id_to_name[ref]
                        value = av.get("value", "")
                        try:
                            attrs[name] = _parse_value(value, schema[name])
                        except ValueError:
                            raise FormatError(
                                f"bad {schema[name]} value {value!r} for {name!r}",
                                location=f"node {node_id}",
                            ) from None
                node_attributes[node_id] = attrs
                graph.nodes[node_id].update(attrs)
        elif kind == "edges":
            for edge_el in section:
                if edge_el.get("type") == "directed":
                    raise FormatError("directed edge", location=f"edge {edge_el.get('id')}")
                a, b = edge_el.get("source"), edge_el.get("target")
                if a is None or b is None or a not in graph.nodes or b not in graph.nodes:
                    raise FormatError(
                        f"edge endpoints {a!r}-{b!r} not declared",
                        location=f"edge {edge_el.get('id')}",
                    )
                try:
                    weight = float(edge_el.get("weight", "1"))
                except ValueError:
                    raise FormatError(
                        f"bad edge weight {edge_el.get('weight')!r}",
                        location=f"edge {edge_el.get('id')}",
                    ) from None
                try:
                    graph.add_edge(a, b, _num(weight))
                except ValueError as exc:  # self-loop or duplicate pair
                    raise FormatError(str(exc), location=f"edge {edge_el.get('id')}") from None
    return ExportBundle(graph=graph, node_attributes=node_attributes, metadata=metadata)


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
    for node in sorted(bundle.graph.nodes):
        attrs = bundle.node_attributes.get(node, {})
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
