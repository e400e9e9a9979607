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
    profiles_fetched: int
    stubs: int
    failures: int
    reciprocal_edges: int


class CoauthorNetwork(Graph):
    """Undirected co-authorship graph. Node attributes: ``name``, ``labels``
    (a list), ``cited_by``, ``h_index``, ``hop``, ``stub`` (profile never
    fetched) and ``fetch_failed`` (its fetch was due but failed, or the
    author has no profile link, a ``name:`` id, so no fetch was tried).
    ``sound_authors`` sets ``report`` from the finished network."""

    report: RunReport

    def admit(self, author_id: str, name: str, hop: int, labels=(), cited_by=None):
        self.add_node(
            author_id, name=name, labels=list(labels), cited_by=cited_by, h_index=None,
            hop=hop, stub=True, fetch_failed=False,
        )


def seed_authors(config, pages_of) -> list[AuthorSummary]:
    """Author summaries from the base tags' result pages, ``pages_of(tag)``,
    each id's first in document order. A failed page has already raised its
    ``SoundingError`` in ``fetch_label_pages``."""
    seeds: dict[str, AuthorSummary] = {}
    for base in config.base_tags:
        for page in pages_of(base):
            for author in page.authors:
                seeds.setdefault(author.author_id, author)
    return list(seeds.values())


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
        profile = _fetch_profile(author_id, fetch, parse_profile, node)
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


def _fetch_profile(author_id, fetch, parse_profile, node: dict):
    """The author's parsed profile, or None: the one place a failed profile
    is decided. An author without a profile link (a ``name:`` id) is never
    requested, and a failed fetch is logged; either way the node stays a
    stub flagged ``fetch_failed`` and the run goes on."""
    if not author_id.startswith(SYNTHETIC_ID_PREFIX):
        try:
            return parse_profile(fetch(PageRequest(kind=AUTHOR_PROFILE, key=author_id)))
        except FetchError as exc:
            log.warning("profile fetch failed for %s: %s", author_id, exc)
    node["fetch_failed"] = True
    return None


def _finalize_report(net: CoauthorNetwork):
    """Set the run counts, read off the finished network: a stub was never
    fetched, and a failure is a ``fetch_failed`` node with a profile link."""
    stubs = sum(1 for attrs in net.nodes.values() if attrs["stub"])
    failures = sum(
        1 for author_id, attrs in net.nodes.items()
        if attrs["fetch_failed"] and not author_id.startswith(SYNTHETIC_ID_PREFIX)
    )
    reciprocal = sum(1 for w in net.edges.values() if w == 2)  # each side lists the other
    net.report = RunReport(len(net.nodes) - stubs, stubs, failures, reciprocal)
