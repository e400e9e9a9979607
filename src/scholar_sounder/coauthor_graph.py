"""Build the weighted co-authorship network by fetching author profiles
reachable from the base tags' result pages, breadth-first up to a hop limit.

Edge weight is the number of directions in which the listing is attested
(1 or 2); weight 2 means each side names the other."""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field

from .analysis import Graph, canonical_pair
from .errors import FetchError, ParseError
from .fetcher import AUTHOR_PROFILE, PageRequest
from .notion_graph import fetch_label_pages
from .parser import AuthorSummary

log = logging.getLogger(__name__)

# Synthetic ids minted for co-authors listed without a profile link.
SYNTHETIC_ID_PREFIX = "name:"


@dataclass
class AuthorNode:
    author_id: str
    name: str
    labels: list[str] = field(default_factory=list)
    cited_by: int | None = None
    h_index: int | None = None
    hop: int = 0
    stub: bool = False          # profile never fetched
    fetch_failed: bool = False  # fetch was attempted and failed


@dataclass
class RunReport:
    profiles_fetched: int = 0
    stubs: int = 0
    failures: int = 0
    reciprocal_edges: int = 0


class CoauthorNetwork:
    def __init__(self):
        self.nodes: dict[str, AuthorNode] = {}
        # canonical pair -> set of endpoint ids that listed the other side
        self._listers: dict[tuple[str, str], set[str]] = {}
        self.report = RunReport()

    @property
    def edges(self) -> dict[tuple[str, str], int]:
        return {pair: min(2, len(who)) for pair, who in self._listers.items()}

    def is_reciprocal(self, a: str, b: str) -> bool:
        return len(self._listers.get(canonical_pair(a, b), ())) >= 2

    def add_listing(self, lister: str, listed: str):
        if lister == listed:
            return
        self._listers.setdefault(canonical_pair(lister, listed), set()).add(lister)

    def to_graph(self) -> Graph:
        g = Graph()
        for aid, n in self.nodes.items():
            g.add_node(
                aid,
                name=n.name,
                labels="|".join(n.labels),
                cited_by=n.cited_by,
                h_index=n.h_index,
                hop=n.hop,
                stub=n.stub,
                fetch_failed=n.fetch_failed,
            )
        for pair, w in self.edges.items():
            g.add_edge(pair[0], pair[1], w)
        return g

    def to_canonical_dict(self) -> dict:
        return {
            "nodes": {
                aid: {
                    "name": n.name,
                    "labels": list(n.labels),
                    "cited_by": n.cited_by,
                    "h_index": n.h_index,
                    "hop": n.hop,
                    "stub": n.stub,
                    "fetch_failed": n.fetch_failed,
                }
                for aid, n in sorted(self.nodes.items())
            },
            "edges": {
                f"{a}|{b}": {"weight": w, "reciprocal": w == 2}
                for (a, b), w in sorted(self.edges.items())
            },
        }


def seed_authors(config, fetch, parse) -> list[AuthorSummary]:
    """Author summaries from the base tags' result pages, deduplicated by
    id, keeping first-seen document order."""
    seeds: list[AuthorSummary] = []
    seen: set[str] = set()
    for base in config.base_tags:
        for page in fetch_label_pages(base, config, fetch, parse):
            for author in page.authors:
                if author.author_id not in seen:
                    seen.add(author.author_id)
                    seeds.append(author)
    return seeds


def sound_authors(config, fetch, parse_profile, seeds=None, parse_label=None) -> CoauthorNetwork:
    """Breadth-first profile sounding from the seed authors.

    An author dequeued at hop h <= hop_limit gets its profile fetched; each
    listed co-author gains an edge and, if unseen, joins the queue at hop
    h+1 (subject to hop_limit and author_cap). Fetch or parse failures keep
    the author as a stub and the run continues. FIFO order makes the result
    deterministic.
    """
    net = CoauthorNetwork()
    if seeds is None:
        seeds = seed_authors(config, fetch, parse_label)

    queue: deque[str] = deque()
    for summary in seeds:
        if summary.author_id in net.nodes:
            continue
        net.nodes[summary.author_id] = AuthorNode(
            author_id=summary.author_id,
            name=summary.name,
            labels=list(summary.labels),
            cited_by=summary.cited_by,
            hop=0,
            stub=True,
        )
        queue.append(summary.author_id)

    while queue:
        author_id = queue.popleft()
        node = net.nodes[author_id]
        if node.hop > config.hop_limit:
            continue
        profile = _fetch_profile(author_id, fetch, parse_profile, net)
        if profile is None:
            continue
        node.stub = False
        node.labels = list(profile.labels)
        if profile.name:
            node.name = node.name or profile.name
        if profile.cited_by is not None:
            node.cited_by = profile.cited_by
        if profile.h_index is not None:
            node.h_index = profile.h_index
        for coauthor_id, coauthor_name in profile.coauthors:
            net.add_listing(author_id, coauthor_id)
            if coauthor_id not in net.nodes:
                net.nodes[coauthor_id] = AuthorNode(
                    author_id=coauthor_id,
                    name=coauthor_name,
                    hop=node.hop + 1,
                    stub=True,
                )
                if node.hop + 1 <= config.hop_limit and len(net.nodes) <= config.author_cap:
                    queue.append(coauthor_id)

    _finalize_report(net)
    return net


def _fetch_profile(author_id, fetch, parse_profile, net: CoauthorNetwork):
    if author_id.startswith(SYNTHETIC_ID_PREFIX):
        # No profile link was ever seen; the node stays a flagged stub.
        net.nodes[author_id].fetch_failed = True
        return None
    request = PageRequest(kind=AUTHOR_PROFILE, key=author_id)
    try:
        raw = fetch(request)
        profile = parse_profile(raw)
    except (FetchError, ParseError) as exc:
        log.warning("profile fetch failed for %s: %s", author_id, exc)
        net.nodes[author_id].fetch_failed = True
        net.report.failures += 1
        return None
    net.report.profiles_fetched += 1
    return profile


def _finalize_report(net: CoauthorNetwork):
    net.report.stubs = sum(1 for n in net.nodes.values() if n.stub)
    net.report.reciprocal_edges = sum(1 for w in net.edges.values() if w == 2)
