"""Build the weighted co-authorship network by fetching author profiles
reachable from the base tags' result pages, breadth-first up to a hop limit.

Edge weight is the number of directions in which the listing is attested
(1 or 2); weight 2 means each side names the other."""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

from .analysis import Graph
from .errors import FetchError
from .fetcher import AUTHOR_PROFILE, PageRequest
from .notion_graph import fetch_label_pages
from .parser import SYNTHETIC_ID_PREFIX, AuthorSummary

log = logging.getLogger(__name__)


@dataclass
class RunReport:
    profiles_fetched: int = 0
    stubs: int = 0
    failures: int = 0
    reciprocal_edges: int = 0


class CoauthorNetwork(Graph):
    """Undirected co-authorship graph. Node attributes: ``name``, ``labels``
    (a list), ``cited_by``, ``h_index``, ``hop``, ``stub`` (profile never
    fetched) and ``fetch_failed`` (its fetch failed, or the author has no
    profile link, a ``name:`` id, so no fetch was tried)."""

    def __init__(self):
        super().__init__()
        self.report = RunReport()

    def admit(self, author_id: str, name: str, hop: int, labels=(), cited_by=None):
        self.add_node(
            author_id, name=name, labels=list(labels), cited_by=cited_by, h_index=None,
            hop=hop, stub=True, fetch_failed=False,
        )


def seed_authors(config, pages_of) -> list[AuthorSummary]:
    """Author summaries from the base tags' result pages, ``pages_of(tag)``,
    deduplicated by id, keeping first-seen document order. A failed page has
    already raised its ``SoundingError`` in ``fetch_label_pages``."""
    seeds: list[AuthorSummary] = []
    seen: set[str] = set()
    for base in config.base_tags:
        for page in pages_of(base):
            for author in page.authors:
                if author.author_id not in seen:
                    seen.add(author.author_id)
                    seeds.append(author)
    return seeds


def sound_authors(config, fetch, parse_profile, seeds=None, parse_label=None) -> CoauthorNetwork:
    """Breadth-first profile sounding from the seed authors.

    Seeds sit at hop 0. Each queued author at hop h gets its profile
    fetched; each listed co-author gains an edge and, if unseen, is admitted
    at hop h+1 and queued if h+1 <= hop_limit. No author is admitted once
    the network holds author_cap nodes, and a listing of an author not
    admitted adds no edge. ``fetch`` returns only pages holding their
    marker; its failures keep the author as a stub and the run continues.
    FIFO order makes the result deterministic. Without ``seeds``, the seeds
    come from the base tags' result pages, fetched with ``fetch`` and parsed
    with ``parse_label``.
    """
    net = CoauthorNetwork()
    if seeds is None:
        seeds = seed_authors(config, lambda tag: fetch_label_pages(tag, config, fetch, parse_label))

    queue: deque[str] = deque()
    for summary in seeds:
        if summary.author_id in net.nodes or len(net.nodes) >= config.author_cap:
            continue
        net.admit(summary.author_id, summary.name, 0, summary.labels, summary.cited_by)
        queue.append(summary.author_id)

    while queue:
        author_id = queue.popleft()
        node = net.nodes[author_id]
        profile = _fetch_profile(author_id, fetch, parse_profile, net)
        if profile is None:
            continue
        node["stub"] = False
        node["labels"] = list(profile.labels)
        if profile.name:
            node["name"] = node["name"] or profile.name
        if profile.cited_by is not None:
            node["cited_by"] = profile.cited_by
        if profile.h_index is not None:
            node["h_index"] = profile.h_index
        hop = node["hop"] + 1
        for coauthor_id, coauthor_name in profile.coauthors:
            if coauthor_id not in net.nodes:
                if len(net.nodes) >= config.author_cap:
                    continue
                net.admit(coauthor_id, coauthor_name, hop)
                if hop <= config.hop_limit:
                    queue.append(coauthor_id)
            # One more direction attests the pair. Each profile is fetched
            # once and lists a co-author once, so the weight is 1 or 2.
            net.add_weight(author_id, coauthor_id)

    _finalize_report(net)
    return net


def _fetch_profile(author_id, fetch, parse_profile, net: CoauthorNetwork):
    if author_id.startswith(SYNTHETIC_ID_PREFIX):
        # No profile link was ever seen; the node stays a flagged stub.
        net.nodes[author_id]["fetch_failed"] = True
        return None
    request = PageRequest(kind=AUTHOR_PROFILE, key=author_id)
    try:
        raw = fetch(request)
        profile = parse_profile(raw)
    except FetchError as exc:
        log.warning("profile fetch failed for %s: %s", author_id, exc)
        net.nodes[author_id]["fetch_failed"] = True
        net.report.failures += 1
        return None
    net.report.profiles_fetched += 1
    return profile


def _finalize_report(net: CoauthorNetwork):
    net.report.stubs = sum(1 for attrs in net.nodes.values() if attrs["stub"])
    net.report.reciprocal_edges = sum(1 for w in net.edges.values() if w == 2)
