"""Grow a weighted tag co-occurrence network by iteratively sounding the
citation service: fetch the results page for a tag, absorb the neighboring
tags it reveals, then move to the highest-rated unvisited tag that matches
the theme dictionary."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations

from .analysis import Graph
from .errors import FetchError, FixtureMissingError, SoundingError
from .fetcher import LABEL_SEARCH, PageRequest
from .parser import LabelPage

log = logging.getLogger(__name__)

EDGE_POLICY_STAR = "star"
EDGE_POLICY_CLIQUE = "clique"


def theme_matches(tag: str, dictionary: list[str]) -> bool:
    """True iff any dictionary word occurs as a substring of the tag."""
    return any(word in tag for word in dictionary)


@dataclass
class TraceRecord:
    iteration: int
    base_tag: str
    visited_tag: str
    pages_fetched: int
    new_nodes: int
    new_edges: int


class NotionNetwork(Graph):
    """Undirected weighted tag graph. Node attributes: ``rate`` (author
    entries, across fetched pages, listing the tag), ``visited`` (its label
    page has been fetched) and ``depth_discovered``. Edge weight doubles as
    the provenance count: the number of (page, author entry) pairs
    co-listing both ends. ``trace`` holds one record per visit, and
    ``base_pages`` each base tag's result pages as parsed."""

    def __init__(self):
        super().__init__()
        self.trace: list[TraceRecord] = []
        self.base_pages: dict[str, list[LabelPage]] = {}

    def ensure_node(self, tag: str, depth: int = 0) -> dict:
        return self.nodes.setdefault(tag, {"rate": 0, "visited": False, "depth_discovered": depth})


def absorb_label_page(
    net: NotionNetwork,
    page: LabelPage,
    current: str,
    depth: int = 0,
    edge_policy: str = EDGE_POLICY_STAR,
):
    """Fold one results page into the network.

    Per author entry, every label other than the current tag gains +1 rate,
    and edge evidence accrues per the policy: ``star`` links the current tag
    to each co-listed label; ``clique`` links all label pairs of the entry.
    """
    net.ensure_node(current, depth)["visited"] = True
    star = edge_policy == EDGE_POLICY_STAR
    for author in page.authors:
        others = [t for t in author.labels if t != current]
        for tag in others:
            net.ensure_node(tag, depth + 1)["rate"] += 1
        for a, b in [(current, t) for t in others] if star else combinations(author.labels, 2):
            net.add_weight(a, b)


def select_next_tag(net: NotionNetwork, dictionary: list[str]) -> str | None:
    """Highest-rated unvisited theme-matching tag; ties go to the
    lexicographically smallest value. None when the frontier is exhausted."""
    best: str | None = None
    best_rate = -1
    for tag, attrs in net.nodes.items():
        rate = attrs["rate"]
        if (
            (rate > best_rate or rate == best_rate and tag < best)
            and not attrs["visited"]
            and theme_matches(tag, dictionary)
        ):
            best, best_rate = tag, rate
    return best


def fetch_label_pages(tag: str, config, fetch, parse) -> list[LabelPage]:
    """Fetch up to max_pages_per_label result pages for a tag, chaining the
    continuation token each page embeds. The one place a failed tag page is
    decided: a missing fixture ends the corpus there; any other ``FetchError``
    aborts the run as a ``SoundingError`` naming the tag, which ``cli.main`` reports."""
    pages: list[LabelPage] = []
    token: str | None = None
    for index in range(config.fetch.max_pages_per_label):
        request = PageRequest(kind=LABEL_SEARCH, key=tag, page_index=index)
        try:
            raw = fetch(request, token)
        except FixtureMissingError as exc:
            log.info("no fixture for %s page %d (%s); treating as empty", tag, index, exc)
            break
        except FetchError as exc:
            raise SoundingError(tag, exc) from exc
        page = parse(raw, tag)
        pages.append(page)
        token = page.next_page_token
        if not token:
            break
    return pages


def sound_tags(config, fetch, parse) -> NotionNetwork:
    """Run the full sounding loop over every base tag.

    Each base tag gets at most ``config.depth`` visits: the base tag itself
    unless already visited, then each time the highest-rated frontier tag
    (``select_next_tag``). All visits merge into one network and each appends
    a trace record. Each base tag's pages go into ``base_pages``, also when an
    earlier base tag's turn visited it. ``fetch`` returns only pages holding
    their marker; a failed tag page aborts with ``fetch_label_pages``' ``SoundingError``.
    """
    net = NotionNetwork()
    for base in config.base_tags:
        net.ensure_node(base, 0)
        for step in range(config.depth):
            tag = base if not net.nodes[base]["visited"] else select_next_tag(net, config.dictionary)
            if tag is None:
                break
            nodes_before, edges_before = len(net.nodes), len(net.edges)
            pages = fetch_label_pages(tag, config, fetch, parse)
            for page in pages:
                absorb_label_page(net, page, tag, depth=step, edge_policy=config.edge_policy)
            net.nodes[tag]["visited"] = True
            if tag in config.base_tags:
                net.base_pages[tag] = pages
            net.trace.append(TraceRecord(
                len(net.trace) + 1, base, tag, len(pages),
                len(net.nodes) - nodes_before, len(net.edges) - edges_before,
            ))
    return net
