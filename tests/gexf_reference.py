"""Reference GEXF reader: the ElementTree walk that ``export.from_gexf``
replaced with a single streaming pass. Tests compare the two; nothing in
the package imports this module."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any

from scholar_sounder.analysis import Graph
from scholar_sounder.errors import FormatError
from scholar_sounder.export import ExportBundle, _num, _parse_value


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
                if node_id in graph.nodes:
                    raise FormatError(f"repeated node id {node_id!r}", location=f"node {node_id}")
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
    return ExportBundle(graph=graph, metadata=metadata)
