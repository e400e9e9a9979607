"""Reference model of both soundings: the networks that the README's rules give
an abstract corpus, with no HTML, fetcher or parser, one rule per function.
Tests render the corpus into pages (``fakes.render_corpus``) to compare."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

UNLINKED = "name:"  # the id prefix of an author listed without a profile link


@dataclass(frozen=True)
class Author:
    """A linked author as result pages and their profile show them."""

    name: str
    labels: tuple[str, ...] = ()  # normalized tags, each once
    cited_by: int | None = None
    h_index: int | None = None
    coauthors: tuple[str, ...] = ()  # distinct ids, never the author's own
    has_profile: bool = True


@dataclass
class Corpus:
    """What the service holds: each tag's result pages in order, as ids of
    authors who carry the tag, and each linked author. An unlinked co-author
    ``name:<slug>`` is not in ``authors``; lists name it ``<slug>``."""

    pages: dict[str, list[list[str]]]
    authors: dict[str, Author]


def result_pages(corpus: Corpus, tag: str, config) -> list[list[str]]:
    """A tag's result pages, at most ``max_pages_per_label`` of them."""
    return corpus.pages.get(tag, [])[: config.fetch.max_pages_per_label]


def attested_pairs(labels, tag: str, edge_policy: str):
    """``star`` links the visited tag to each co-listed label, ``clique`` every label pair."""
    if edge_policy == "star":
        return [(tag, other) for other in labels if other != tag]
    return [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]


def next_tag(nodes: dict, dictionary) -> str | None:
    """The unvisited theme-matching tag of highest rate, ties to the smallest."""
    frontier = [t for t, n in nodes.items() if not n["visited"] and any(w in t for w in dictionary)]
    return min(frontier, key=lambda t: (-nodes[t]["rate"], t), default=None)


def visit(nodes: dict, edges: dict, corpus: Corpus, tag: str, step: int, config) -> int:
    """Visit a tag on the ``step``-th visit (from 0) of a base tag's expansion.
    Each author entry on its pages adds 1 to the rate of every other label
    it lists, and 1 to the weight of every pair it attests. A tag first seen
    here has ``depth_discovered`` ``step + 1``. Returns the page count."""
    nodes[tag]["visited"] = True
    pages = result_pages(corpus, tag, config)
    for page in pages:
        for author_id in page:
            labels = corpus.authors[author_id].labels
            for other in labels:
                if other != tag:
                    new = {"rate": 0, "visited": False, "depth_discovered": step + 1}
                    nodes.setdefault(other, new)["rate"] += 1
            for a, b in attested_pairs(labels, tag, config.edge_policy):
                key = f"{min(a, b)}|{max(a, b)}"
                edges[key] = edges.get(key, 0) + 1
    return len(pages)


def notion_network(corpus: Corpus, config) -> tuple[dict, list[tuple]]:
    """The canonical notion network and its trace rows. Each base tag in
    order gets ``depth`` visits: itself first unless already visited, then
    the frontier's best tag, until the frontier is empty."""
    nodes, edges, trace = {}, {}, []
    for base in config.base_tags:
        nodes.setdefault(base, {"rate": 0, "visited": False, "depth_discovered": 0})
        for step in range(config.depth):
            tag = base if not nodes[base]["visited"] else next_tag(nodes, config.dictionary)
            if tag is None:
                break
            nodes_before, edges_before = len(nodes), len(edges)
            pages = visit(nodes, edges, corpus, tag, step, config)
            trace.append((len(trace) + 1, base, tag, pages,
                          len(nodes) - nodes_before, len(edges) - edges_before))
    return {"nodes": nodes, "edges": edges}, trace


def seed_ids(corpus: Corpus, config) -> list[str]:
    """The authors on the base tags' result pages, in base-tag and page
    order, each once."""
    seeds: dict[str, None] = {}
    for base in config.base_tags:
        for page in result_pages(corpus, base, config):
            seeds.update(dict.fromkeys(page))
    return list(seeds)


def listed_name(corpus: Corpus, author_id: str) -> str:
    """The name a co-author list shows: a linked author's own, else the slug."""
    if author_id.startswith(UNLINKED):
        return author_id[len(UNLINKED):]
    return corpus.authors[author_id].name


def coauthor_network(corpus: Corpus, config, seeds: list[str]) -> tuple[dict, dict]:
    """The canonical co-author network and its four run counts. Seeds sit at
    hop 0 with their result-page entry's labels and citations. A listed
    author is admitted one hop further and fetched in turn, breadth-first,
    when within ``hop_limit``. A listing adds 1 to its pair's weight, so a
    pair whose sides list each other weighs 2. An author whose fetch is due
    but who has no profile, or no profile link, stays a ``fetch_failed`` stub."""
    nodes, edges = {}, {}
    queue: deque[str] = deque()
    counts = {"profiles_fetched": 0, "failures": 0}

    def admit(author_id: str, name: str, hop: int, labels=(), cited_by=None) -> bool:
        """No author is admitted once the network holds ``author_cap``."""
        if len(nodes) >= config.author_cap:
            return False
        nodes[author_id] = {"name": name, "labels": list(labels), "cited_by": cited_by,
                            "h_index": None, "hop": hop, "stub": True, "fetch_failed": False}
        if hop <= config.hop_limit:
            queue.append(author_id)
        return True

    for author_id in seeds:
        author = corpus.authors[author_id]
        admit(author_id, author.name, 0, author.labels, author.cited_by)
    while queue:
        author_id = queue.popleft()
        node = nodes[author_id]
        linked = not author_id.startswith(UNLINKED)
        author = corpus.authors.get(author_id)
        if not (linked and author.has_profile):
            node["fetch_failed"] = True
            counts["failures"] += linked
            continue
        counts["profiles_fetched"] += 1
        node.update(stub=False, labels=list(author.labels), cited_by=author.cited_by,
                    h_index=author.h_index)
        for other in author.coauthors:  # a listing of an author not admitted adds no edge
            if other in nodes or admit(other, listed_name(corpus, other), node["hop"] + 1):
                key = f"{min(author_id, other)}|{max(author_id, other)}"
                edges[key] = edges.get(key, 0) + 1
    counts["stubs"] = sum(node["stub"] for node in nodes.values())
    counts["reciprocal_edges"] = sum(weight == 2 for weight in edges.values())
    return {"nodes": nodes, "edges": edges}, counts
