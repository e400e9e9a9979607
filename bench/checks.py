"""Output checks, run after the timed passes. Each check returns a list of
failure messages; an empty list means the outputs are correct.

Where ``networkx`` imports, components and k-core are also compared with
its implementations as a second opinion.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from scholar_sounder.coauthor_graph import sound_authors
from scholar_sounder.config import build_config
from scholar_sounder.export import from_gexf, to_gexf
from scholar_sounder.fetcher import Fetcher
from scholar_sounder.notion_graph import sound_tags
from scholar_sounder.parser import parse_author_page, parse_label_page

try:
    import networkx as nx
except ImportError:
    nx = None


def _nx_graph(graph, min_weight=None):
    g = nx.Graph()
    g.add_nodes_from(graph.nodes)
    g.add_edges_from(p for p, w in graph.edges.items() if min_weight is None or w >= min_weight)
    return g


def _as_blocks(components) -> set[frozenset]:
    return {frozenset(c) for c in components}


def _round_trip(bundle, what: str) -> list[str]:
    if from_gexf(to_gexf(bundle)).canonical_form() != bundle.canonical_form():
        return [f"{what}: from_gexf(to_gexf(b)) differs from b"]
    return []


def _sections(graph, sections: dict, what: str) -> list[str]:
    """Components partition the nodes and the partition covers them."""
    errors = []
    nodes = set(graph.nodes)
    components = sections["components"]
    flat = [n for c in components for n in c]
    if len(flat) != len(nodes) or set(flat) != nodes:
        errors.append(f"{what}: components do not partition the {len(nodes)} nodes")
    if nx is not None and _as_blocks(components) != _as_blocks(nx.connected_components(_nx_graph(graph))):
        errors.append(f"{what}: components differ from networkx")
    if "communities" in sections and set(sections["communities"]["assignment"]) != nodes:
        errors.append(f"{what}: community partition does not cover every node")
    return errors


def _load(path: Path):
    return from_gexf(path.read_text("utf-8"))


def check_replay(out: Path) -> list[str]:
    errors = []
    manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            errors.append(f"replay: sha256 of {entry['path']} does not match the manifest")
    report = json.loads((out / "report.json").read_text("utf-8"))
    notion, coauthors = _load(out / "notion.gexf"), _load(out / "coauthors.gexf")
    errors += _sections(notion.graph, report, "replay notion")
    errors += _sections(coauthors.graph, report["coauthors"], "replay coauthors")
    errors += _round_trip(notion, "replay notion")
    errors += _round_trip(coauthors, "replay coauthors")
    return errors


def replay_networks(raw_config: dict, tree: Path) -> dict:
    """The canonical networks a fixture-mode run builds from ``tree``."""
    raw = dict(raw_config, fetch={"mode": "fixture", "fixtures_dir": str(tree)})
    config = build_config(raw)
    client = Fetcher(config.fetch)
    tags = sound_tags(config, client.fetch, parse_label_page)
    authors = sound_authors(config, client.fetch, parse_author_page, parse_label=parse_label_page)
    return {"notion": tags.to_canonical_dict(), "coauthor": authors.to_canonical_dict()}


def check_crawl(networks_file: Path, raw_config: dict, tree: Path, passes: list[dict],
                hits: int, not_found: int) -> list[str]:
    errors = []
    networks = json.loads(networks_file.read_text("utf-8"))
    if networks["cold"] != networks["warm"]:
        errors.append("crawl-live: cold and warm networks differ")
    if networks["cold"] != replay_networks(raw_config, tree):
        errors.append("crawl-live: live networks differ from the fixture-mode replay networks")
    issued = sum(p["parts"]["live_requests"] + p["parts"]["rerun_requests"] for p in passes)
    if hits != issued:
        errors.append(f"crawl-live: server answered {hits} requests, fetchers logged {issued}")
    if not_found != sum(p["misses"] for p in passes):
        errors.append("crawl-live: 404s answered differ from the profile failures reported")
    for key in ("live_requests", "rerun_requests"):
        if len({p["parts"][key] for p in passes}) != 1:
            errors.append(f"crawl-live: {key} differs between passes")
    return errors


def check_analyze(out: Path, bundle, stem: str, k: int = 2, min_weight: float = 2) -> list[str]:
    errors = _round_trip(bundle, "analyze-large input")
    graph = bundle.graph
    report = json.loads((out / "report.json").read_text("utf-8"))
    errors += _sections(graph, report, "analyze-large")
    core = set(report["kcore"]["nodes"])
    degree = dict.fromkeys(core, 0)
    for (a, b), w in graph.edges.items():
        if w >= min_weight and a in core and b in core:
            degree[a] += 1
            degree[b] += 1
    if any(d < k for d in degree.values()):
        errors.append(f"analyze-large: a {k}-core node has degree below {k}")
    if nx is not None and core != set(nx.k_core(_nx_graph(graph, min_weight), k)):
        errors.append("analyze-large: k-core differs from networkx")
    if _load(out / f"{stem}.gexf").canonical_form() != bundle.canonical_form():
        errors.append("analyze-large: re-exported GEXF differs from its input")
    csv_rows = (out / f"edges_{stem}.csv").read_text("utf-8").splitlines()
    if len(csv_rows) != len(graph.edges) + 1:
        errors.append("analyze-large: edge CSV row count differs from the edge count")
    summary = json.loads((out / f"{stem}.json").read_text("utf-8"))["graph"]
    if (summary["nodes"], summary["edges"]) != (len(graph.nodes), len(graph.edges)):
        errors.append("analyze-large: JSON report counts differ from the graph")
    if not (out / f"{stem}.graphml").is_file():
        errors.append("analyze-large: GraphML export missing")
    return errors
