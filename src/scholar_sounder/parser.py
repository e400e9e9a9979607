"""HTML parsing for label-search and author-profile pages, plus tag
normalization into the canonical underscore form (e.g. ``physical_optics``).

Two string conversions are pure and repeat across pages, so each is
memoised for the life of the process: ``normalize_tag`` and the author id
of a profile link (``_author_id_from_href``). Their keys are labels, names
and profile links, so their caches grow with the graph a run builds, not
with the page content it parses; an exception is never cached."""

from __future__ import annotations

import functools
import re
import unicodedata
from dataclasses import dataclass
from html import unescape
from urllib.parse import parse_qs, urlparse

# The page kinds, and the structural marker the service embeds in each. The
# fetcher returns no page without its marker; anything else in the HTML is
# cosmetic.
LABEL_SEARCH = "label_search"
AUTHOR_PROFILE = "author_profile"
LABEL_RESULTS_MARKER = "gsc_sa_ccl"
PROFILE_MARKER = "gsc_prf_in"
MARKERS = {LABEL_SEARCH: LABEL_RESULTS_MARKER, AUTHOR_PROFILE: PROFILE_MARKER}


@functools.cache
def normalize_tag(raw: str) -> str:
    """Canonicalize a raw tag string; empty when nothing survives.

    Lowercase, '&' becomes "and", Unicode folded to ASCII where a
    decomposition exists, every other non-alphanumeric run collapses to a
    single underscore. Idempotent on its own output.
    """
    s = raw.lower().replace("&", " and ")
    s = unicodedata.normalize("NFKD", s)
    s = s.encode("ascii", "ignore").decode("ascii")
    return re.sub(r"[^a-z0-9]+", "_", s).strip("_")


# The prefix of the ids minted for authors listed without a profile link.
SYNTHETIC_ID_PREFIX = "name:"


def _synthetic_id(name: str) -> str | None:
    """``name:<normalized name>`` for an entry without a profile link; None
    when nothing of the name survives normalization."""
    slug = normalize_tag(name)
    return SYNTHETIC_ID_PREFIX + slug if slug else None


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


@functools.cache
def _author_id_from_href(href: str) -> str | None:
    """The ``user`` query parameter of a profile link; None when it has none
    or does not parse."""
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


def _classes(attrs: dict) -> list[str]:
    return (attrs.get("class") or "").split()


class _LabelPageExtractor:
    """Pulls author blocks out of a label-search results page.

    Markers: results container ``gsc_sa_ccl``, one ``gsc_1usr`` div per
    author, name link in ``gs_ai_name``, interest links ``gs_ai_one_int``,
    cited-by line ``gs_ai_cby``, next-page button ``gs_btnPR`` carrying a
    ``data-after`` token.
    """

    def __init__(self):
        self.blocks: list[dict] = []
        self.next_page_token: str | None = None
        self._block: dict | None = None
        self._depth = 0  # div depth inside the current block
        self._in_name = False
        self._in_interest = False
        self._in_cby = False

    def handle_starttag(self, tag, d):
        cls = _classes(d)
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
            if "disabled" not in d and d["data-after"]:
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


class _AuthorPageExtractor:
    """Pulls name, interests, metrics, and the co-author sidebar out of a
    profile page. Markers: ``gsc_prf_in`` (name), ``gsc_prf_inta``
    (interest links), ``gsc_rsb_std`` metric cells keyed by the row header,
    ``gsc_rsb_aa`` co-author list items."""

    def __init__(self):
        self.name = ""
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

    def handle_starttag(self, tag, d):
        cls = _classes(d)
        if d.get("id") == PROFILE_MARKER:
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


# -- tokenizer ----------------------------------------------------------
#
# One pattern splits a page into the tokens html.parser finds when it is
# fed the page, in the same chunks of text: text runs to the next "<", and
# a "<" that opens nothing is a chunk of its own. A construct that is never
# terminated (an unclosed comment, quote, tag or marked section, or a "<"
# at the very end) ends the page, and nothing after it is read, because
# html.parser's end-of-input pass, which makes it text and rescans the rest
# of the page at every later "<", costs time quadratic in the page; the 2025
# CPython security releases also end it at the end of the input. Every "<"
# then starts a complete token or ends the page, so finditer walks the page
# once, starting again after the raw text of a script or style element.

_TAG_NAME = r"[a-zA-Z][^\t\n\r\f />\x00]*"
_SEPARATORS = r"(?:\s|/(?!>))*"
# An attribute name follows a quote, space or slash; a quoted value may
# hold ">".
_ATTR_NAME = r"""(?<=['"\s/])[^\s/>][^\s/=>]*"""
_VALUE = r"""'[^']*'|"[^"]*"|(?!['"])[^>\s]*"""
# Marked-section keywords: "<![CDATA[ ... ]]>" and "<![if ...]>".
_SECTION = r"(?ai:temp|cdata|ignore|include|rcdata)(?![-_.a-zA-Z0-9])"
_MS_SECTION = r"(?ai:if|else|endif)(?![-_.a-zA-Z0-9])"

# A start tag: the longest head a tag can have, taken whole (a lookahead
# does not backtrack), then ">" ("start") or "/>" ("empty"). A head
# followed by anything but those, a letter, "=", "/" or the end of the page
# is no tag ("nottag"), and its text is data.
_START = rf"""
    (?P<start>(?=(?P<head><(?P<tag>{_TAG_NAME}){_SEPARATORS}
        (?:{_ATTR_NAME}(?:\s*=+\s*(?:{_VALUE}))?{_SEPARATORS})*\s*))(?P=head))
      (?:>|(?P<empty>/>)|(?P<nottag>)(?=[^a-zA-Z=/>]))
  | </(?:\s*(?P<endtag>[a-zA-Z][-.a-zA-Z0-9:_]*)\s*>|(?P<endtag2>{_TAG_NAME})[^>]*>)
"""
# Skipped: comments, declarations, processing instructions, marked sections.
_TOKEN = re.compile(
    rf"""(?P<text>[^<]+) | {_START}
      | (?P<skip></[^>]*>|<\?[^>]*>|<!(?!--|\[)[^>]*>|<!--.*?--\s*>
          |<!\[{_SECTION}.*?\]\s*\]\s*>|<!\[{_MS_SECTION}.*?\]\s*>)
      | (?P<chars><(?=[^a-zA-Z/!?])) | (?P<unterminated><)""",
    re.S | re.X,
)
_ATTRIBUTE = re.compile(rf"({_ATTR_NAME})(\s*=+\s*({_VALUE}))?{_SEPARATORS}")
_END_TAG = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
# Elements whose content is raw text up to their end tag.
_RAW_TEXT_END = {name: re.compile(rf"</\s*{name}\s*>", re.I) for name in ("script", "style")}


def _feed(extractor, text: str):
    """Drive an extractor's handle_starttag(tag, attrs), handle_endtag(tag)
    and handle_data(text) over a page, up to its first unterminated
    construct. Tag and attribute names come lower-cased; attrs is a dict,
    the last of repeated names winning, and a valueless attribute maps to
    None. Markup that html.parser rejects ends the page too: a marked
    section with an unknown or missing keyword (``<![foo``), which the
    catch-all "<" takes, and a decimal reference too long for int()."""
    on_start, on_end, on_data = (
        extractor.handle_starttag, extractor.handle_endtag, extractor.handle_data
    )
    pos = 0
    while pos is not None:
        for m in _TOKEN.finditer(text, pos):
            kind = m.lastgroup
            if kind == "text":
                chunk = m.group()
                if "&" in chunk:
                    try:
                        chunk = unescape(chunk)
                    except ValueError:
                        return
                on_data(chunk)
            elif kind == "start" or kind == "empty":
                end = m.end()
                tag_end = m.end("tag")
                attrs = {}
                if end - tag_end > 1:
                    # Past the tag name only the head's attributes can
                    # start a match.
                    for name, given, value in _ATTRIBUTE.findall(text, tag_end, end):
                        if not given:
                            value = None
                        else:
                            if value[:1] in ("'", '"'):
                                value = value[1:-1]
                            if "&" in value:
                                try:
                                    value = unescape(value)
                                except ValueError:
                                    return
                        attrs[name.lower()] = value
                tag = m.group("tag").lower()
                on_start(tag, attrs)
                if kind == "empty":
                    on_end(tag)
                elif tag in _RAW_TEXT_END:
                    pos = _raw_text(text, end, tag, on_end, on_data)
                    break
            elif kind == "chars" or kind == "nottag":
                on_data(m.group())
            elif kind == "endtag" or kind == "endtag2":
                on_end(m.group(kind).lower())
            elif kind == "unterminated":
                return
        else:
            return


def _raw_text(text: str, pos: int, tag: str, on_end, on_data) -> int | None:
    """Hand the raw text of a script or style element to ``on_data`` and
    return where its end tag ends; None when it never ends, in which case
    the rest of the page is dropped, as html.parser drops it."""
    close = _RAW_TEXT_END[tag]
    while True:
        m = close.search(text, pos)
        if m is None:
            return None
        if m.start() > pos:
            on_data(text[pos:m.start()])
        name = _END_TAG.match(m.group())
        if name and name.group(1).lower() == tag:
            on_end(tag)
            return m.end()
        on_data(m.group())  # matched only by case folding, as "</ſcript>"
        pos = m.end()


def parse_label_page(page, queried: str) -> LabelPage:
    """Parse a label-search results page into structured author entries.

    Entries that do not carry the queried tag, or that have neither a
    profile link nor a name that survives normalization, are dropped and
    counted in ``dropped``. Label strings come back normalized and
    deduplicated; labels that normalize to nothing are dropped.
    """
    ex = _LabelPageExtractor()
    _feed(ex, page.body.decode("utf-8", errors="replace"))
    return _label_page(ex, queried)


def parse_author_page(page) -> AuthorProfile:
    """Parse an author profile page: labels, metrics, co-author sidebar.

    Self-references in the co-author list are stripped; entries without a
    profile link get the synthetic id ``name:<normalized name>``, or are
    dropped when their name normalizes to nothing.
    """
    ex = _AuthorPageExtractor()
    _feed(ex, page.body.decode("utf-8", errors="replace"))
    return _author_profile(ex, page.request.key)


# The characters XML 1.0 cannot hold, not even as character references.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _xml_safe(text: str) -> str:
    """``text`` with each character that XML cannot hold replaced by U+FFFD."""
    return text if text.isprintable() else _NOT_XML.sub("\ufffd", text)


def _label_page(ex, queried: str) -> LabelPage:
    """The page an extractor's author blocks and pager describe."""
    authors: list[AuthorSummary] = []
    seen_ids: set[str] = set()
    dropped = 0
    for block in ex.blocks:
        labels = _normalize_label_list(block["labels"])
        name = _xml_safe(block["name"].strip())
        author_id = _xml_safe(block["author_id"] or "") or _synthetic_id(name)
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


def _author_profile(ex, author_id: str) -> AuthorProfile:
    """The profile an extractor collected for ``author_id``."""
    coauthors: list[tuple[str, str]] = []
    seen: set[str] = set()
    for c in ex.coauthors:
        name = _xml_safe(c["name"].strip())
        cid = _xml_safe(c["author_id"] or "") or _synthetic_id(name)
        if not cid or cid == author_id or cid in seen:
            continue
        seen.add(cid)
        coauthors.append((cid, name))
    return AuthorProfile(
        author_id=author_id,
        name=_xml_safe(ex.name.strip()),
        labels=_normalize_label_list(ex.labels),
        coauthors=coauthors,
        cited_by=ex.metrics.get("citations"),
        h_index=ex.metrics.get("h-index"),
    )


def _normalize_label_list(raw_labels: list[str]) -> list[str]:
    out: list[str] = []
    for raw in raw_labels:
        tag = normalize_tag(raw)
        if tag and tag not in out:
            out.append(tag)
    return out
