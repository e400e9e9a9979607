"""Reference GEXF and GraphML writers: ``export.to_gexf`` and
``export.to_graphml`` as they were when they quoted through
``xml.sax.saxutils``, before they learned to quote each id once and to
escape only string values. Tests compare the two byte for byte; nothing in
the package imports this module."""

from __future__ import annotations

from xml.sax.saxutils import escape, quoteattr

from scholar_sounder.analysis import canonical_number
from scholar_sounder.export import GEXF_NS, ExportBundle


def _fmt_value(value, gexf_type: str) -> str:
    if gexf_type == "boolean":
        return "true" if value else "false"
    if gexf_type == "double":
        return repr(float(value))
    return str(value)


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
            f'weight="{canonical_number(w)}"/>'
        )
    lines.append("    </edges>")
    lines.append("  </graph>")
    lines.append("</gexf>")
    return "\n".join(lines) + "\n"


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
            f'<data key="weight">{canonical_number(w)}</data></edge>'
        )
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"
