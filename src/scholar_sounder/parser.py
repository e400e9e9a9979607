"""HTML parsing for label-search and author-profile pages, plus tag
normalization into the canonical underscore form (e.g. ``physical_optics``)."""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from html.parser import HTMLParser
from urllib.parse import parse_qs, urlparse

from .errors import EmptyTagError, ParseError

# Structural markers the service embeds in its pages. Parsing keys off
# these; anything else in the HTML is cosmetic.
LABEL_RESULTS_MARKER = "gsc_sa_ccl"
PROFILE_MARKER = "gsc_prf_in"


def normalize_tag(raw: str) -> str:
    """Canonicalize a raw tag string.

    Lowercase, '&' becomes "and", Unicode folded to ASCII where a
    decomposition exists, every other non-alphanumeric run collapses to a
    single underscore. Idempotent on its own output.
    """
    s = _fold(raw)
    if not s:
        raise EmptyTagError(f"nothing survives normalization of {raw!r}")
    return s


def _fold(raw: str) -> str:
    """The normalized form of ``raw``; empty when nothing survives."""
    s = raw.lower().replace("&", " and ")
    s = unicodedata.normalize("NFKD", s)
    s = s.encode("ascii", "ignore").decode("ascii")
    return re.sub(r"[^a-z0-9]+", "_", s).strip("_")


def _synthetic_id(name: str) -> str | None:
    """``name:<normalized name>`` for an entry without a profile link; None
    when nothing of the name survives normalization."""
    slug = _fold(name)
    return "name:" + slug if slug else None


@dataclass
class AuthorSummary:
    """One author entry on a label-search results page."""

    author_id: str
    name: str
    labels: list[str]
    cited_by: int | None = None
    low_confidence: bool = False


@dataclass
class LabelPage:
    queried_tag: str
    authors: list[AuthorSummary]
    next_page_token: str | None = None
    dropped: int = 0  # entries lacking the queried tag, removed post-parse


@dataclass
class AuthorProfile:
    author_id: str
    name: str
    labels: list[str]
    coauthors: list[tuple[str, str]]  # (author_id, name), page order
    cited_by: int | None = None
    h_index: int | None = None


def _author_id_from_href(href: str) -> str | None:
    try:
        qs = parse_qs(urlparse(href).query)
    except ValueError:  # a malformed host, such as an unclosed "["
        return None
    ids = qs.get("user")
    return ids[0] if ids else None


def _count(text: str) -> int | None:
    """The first run of digits in ``text``. None when there is none, or when
    it is too long to be a count (int() refuses over 4,300 digits)."""
    m = re.search(r"\d+", text)
    return int(m.group()) if m and len(m.group()) <= 18 else None


def _classes(attrs) -> set[str]:
    d = dict(attrs)
    return set((d.get("class") or "").split())


class _LabelPageExtractor(HTMLParser):
    """Pulls author blocks out of a label-search results page.

    Markers: results container ``gsc_sa_ccl``, one ``gsc_1usr`` div per
    author, name link in ``gs_ai_name``, interest links ``gs_ai_one_int``,
    cited-by line ``gs_ai_cby``, next-page button ``gs_btnPR`` carrying a
    ``data-after`` token.
    """

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.container_seen = False
        self.blocks: list[dict] = []
        self.next_page_token: str | None = None
        self._block: dict | None = None
        self._depth = 0  # div depth inside the current block
        self._in_name = False
        self._in_interest = False
        self._in_cby = False

    def handle_starttag(self, tag, attrs):
        d = dict(attrs)
        cls = _classes(attrs)
        if d.get("id") == LABEL_RESULTS_MARKER:
            self.container_seen = True
        if tag == "div" and "gsc_1usr" in cls:
            self._block = {"name": "", "author_id": None, "labels": [], "cited_by": None}
            self._depth = 1
            self._in_name = self._in_interest = self._in_cby = False
            return
        if self._block is not None and tag == "div":
            self._depth += 1
            if "gs_ai_cby" in cls:
                self._in_cby = True
        if self._block is not None and tag == "a":
            href = d.get("href", "")
            if "gs_ai_one_int" in cls:
                self._in_interest = True
                self._block["labels"].append("")
            elif "user=" in href and self._block["author_id"] is None:
                self._block["author_id"] = _author_id_from_href(href)
                self._in_name = True
        if tag == "button" and "gs_btnPR" in cls and "data-after" in d:
            if d.get("disabled") is None and d["data-after"]:
                self.next_page_token = d["data-after"]

    def handle_endtag(self, tag):
        if tag == "a":
            self._in_name = False
            self._in_interest = False
        if self._block is not None and tag == "div":
            if self._in_cby:
                self._in_cby = False
            self._depth -= 1
            if self._depth == 0:
                self.blocks.append(self._block)
                self._block = None

    def handle_data(self, data):
        if self._block is None:
            return
        if self._in_name:
            self._block["name"] += data
        elif self._in_interest:
            self._block["labels"][-1] += data
        elif self._in_cby:
            count = _count(data)
            if count is not None:
                self._block["cited_by"] = count


class _AuthorPageExtractor(HTMLParser):
    """Pulls name, interests, metrics, and the co-author sidebar out of a
    profile page. Markers: ``gsc_prf_in`` (name), ``gsc_prf_inta``
    (interest links), ``gsc_rsb_std`` metric cells keyed by the row header,
    ``gsc_rsb_aa`` co-author list items."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.name = ""
        self.name_seen = False
        self.labels: list[str] = []
        self.metrics: dict[str, int] = {}
        self.coauthors: list[dict] = []
        self._in_name = False
        self._in_interest = False
        self._row_header = ""
        self._in_row_header = False
        self._in_metric = False
        self._coauthor: dict | None = None
        self._in_coauthor_name = False

    def handle_starttag(self, tag, attrs):
        d = dict(attrs)
        cls = _classes(attrs)
        if d.get("id") == PROFILE_MARKER:
            self.name_seen = True
            self._in_name = True
        if "gsc_prf_inta" in cls:
            self._in_interest = True
            self.labels.append("")
        if tag == "td":
            if "gsc_rsb_sc1" in cls:
                self._in_row_header = True
                self._row_header = ""
            elif "gsc_rsb_std" in cls and self._row_header:
                self._in_metric = True
        if tag == "li" and "gsc_rsb_aa" in cls:
            self._coauthor = {"name": "", "author_id": None}
        if self._coauthor is not None and tag == "a" and "user=" in d.get("href", ""):
            self._coauthor["author_id"] = _author_id_from_href(d["href"])
            self._in_coauthor_name = True
        if self._coauthor is not None and tag == "span":
            self._in_coauthor_name = True

    def handle_endtag(self, tag):
        if tag in ("div", "span", "a", "td"):
            self._in_name = False
            self._in_interest = False
            self._in_row_header = False
            self._in_metric = False
            if tag in ("a", "span"):
                self._in_coauthor_name = False
        if tag == "li" and self._coauthor is not None:
            self.coauthors.append(self._coauthor)
            self._coauthor = None

    def handle_data(self, data):
        if self._in_name:
            self.name += data
        elif self._in_interest:
            self.labels[-1] += data
        elif self._in_row_header:
            self._row_header += data
        elif self._in_metric:
            count = _count(data)
            if count is not None and self._row_header.strip().lower() not in self.metrics:
                self.metrics[self._row_header.strip().lower()] = count
        elif self._in_coauthor_name and self._coauthor is not None:
            self._coauthor["name"] += data


def _marker_offset(body: bytes, marker: str) -> int:
    """Byte position of the first structural mismatch: how far the document
    got before the expected marker failed to appear."""
    pos = body.find(marker.encode("utf-8"))
    return len(body) if pos < 0 else pos


def _feed(extractor: HTMLParser, text: str):
    """Run an extractor over a whole page. The stdlib parser signals some
    malformed markup (``<![foo``, say) with AssertionError, and a numeric
    character reference too long for ``int`` with ValueError."""
    try:
        extractor.feed(text)
        extractor.close()
    except (AssertionError, ValueError) as exc:
        line, col = extractor.getpos()
        scanned = sum(len(part) + 1 for part in text.split("\n")[: line - 1]) + col
        raise ParseError(
            f"malformed markup: {exc}", offset=len(text[:scanned].encode("utf-8"))
        ) from None


def parse_label_page(page, queried: str) -> LabelPage:
    """Parse a label-search results page into structured author entries.

    Entries that do not carry the queried tag, or that have neither a
    profile link nor a name that survives normalization, are dropped and
    counted in ``dropped``. Label strings come back normalized and
    deduplicated; labels that normalize to nothing are dropped.
    """
    if page.request.kind != "label_search":
        raise ValueError(f"expected a label-search page, got {page.request.kind}")
    body = page.body
    text = body.decode("utf-8", errors="replace")
    if LABEL_RESULTS_MARKER not in text:
        raise ParseError(
            f"label results container '{LABEL_RESULTS_MARKER}' not found",
            offset=_marker_offset(body, LABEL_RESULTS_MARKER),
        )
    ex = _LabelPageExtractor()
    _feed(ex, text)

    authors: list[AuthorSummary] = []
    seen_ids: set[str] = set()
    dropped = 0
    for block in ex.blocks:
        labels = _normalize_label_list(block["labels"])
        name = block["name"].strip()
        author_id = block["author_id"] or _synthetic_id(name)
        if not author_id:
            dropped += 1
            continue
        if author_id in seen_ids:
            continue
        if queried not in labels:
            dropped += 1
            continue
        seen_ids.add(author_id)
        authors.append(
            AuthorSummary(
                author_id=author_id,
                name=name,
                labels=labels,
                cited_by=block["cited_by"],
                low_confidence=block["author_id"] is None,
            )
        )
    return LabelPage(
        queried_tag=queried,
        authors=authors,
        next_page_token=ex.next_page_token,
        dropped=dropped,
    )


def parse_author_page(page) -> AuthorProfile:
    """Parse an author profile page: labels, metrics, co-author sidebar.

    Self-references in the co-author list are stripped; entries without a
    profile link get the synthetic id ``name:<normalized name>``, or are
    dropped when their name normalizes to nothing.
    """
    if page.request.kind != "author_profile":
        raise ValueError(f"expected an author-profile page, got {page.request.kind}")
    body = page.body
    text = body.decode("utf-8", errors="replace")
    if PROFILE_MARKER not in text:
        raise ParseError(
            f"profile marker '{PROFILE_MARKER}' not found",
            offset=_marker_offset(body, PROFILE_MARKER),
        )
    ex = _AuthorPageExtractor()
    _feed(ex, text)

    author_id = page.request.key
    coauthors: list[tuple[str, str]] = []
    seen: set[str] = set()
    for c in ex.coauthors:
        name = c["name"].strip()
        cid = c["author_id"] or _synthetic_id(name)
        if not cid or cid == author_id or cid in seen:
            continue
        seen.add(cid)
        coauthors.append((cid, name))
    return AuthorProfile(
        author_id=author_id,
        name=ex.name.strip(),
        labels=_normalize_label_list(ex.labels),
        coauthors=coauthors,
        cited_by=ex.metrics.get("citations"),
        h_index=ex.metrics.get("h-index"),
    )


def _normalize_label_list(raw_labels: list[str]) -> list[str]:
    out: list[str] = []
    for raw in raw_labels:
        tag = _fold(raw)
        if tag and tag not in out:
            out.append(tag)
    return out
