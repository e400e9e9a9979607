"""HTML parsing for label-search and author-profile pages, plus tag
normalization into the canonical underscore form (e.g. ``physical_optics``).

``_tokens`` splits a page into its start tags, end tags and text, as
html.parser reads them. ``parse_label_page`` and ``parse_author_page`` each
walk that list once, with their state in local variables.

Two string conversions are pure and repeat across pages, so each is
memoised for the life of the process: ``normalize_tag`` and the author id
of a profile link (``_author_id_from_href``). Their keys are labels, names
and profile links, so their caches grow with the graph a run builds, not
with the page content it parses. The third memo, the token of a start tag's
text (``_start_token``), is keyed by page content, so it alone is bounded:
it keeps the most recently used tags, as templated pages repeat theirs. An
exception is never cached."""

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
# once, reading a script or style element's raw text with its start tag.

_TAG_NAME = r"[a-zA-Z][^\t\n\r\f />\x00]*"
_SEPARATORS = r"(?:\s|/(?!>))*"
# An attribute name follows a quote, space or slash; a quoted value may
# hold ">".
_ATTR_NAME = r"""(?<=['"\s/])[^\s/>][^\s/=>]*"""
_VALUE = r"""'[^']*'|"[^"]*"|(?!['"])[^>\s]*"""
_ATTRS = rf"{_SEPARATORS}(?:{_ATTR_NAME}(?:\s*=+\s*(?:{_VALUE}))?{_SEPARATORS})*\s*"
# Marked-section keywords: "<![CDATA[ ... ]]>" and "<![if ...]>".
_SECTION = r"(?ai:temp|cdata|ignore|include|rcdata)(?![-_.a-zA-Z0-9])"
_MS_SECTION = r"(?ai:if|else|endif)(?![-_.a-zA-Z0-9])"

# A start tag: the longest head a tag can have, taken whole (a lookahead
# does not backtrack), then ">" ("start") or "/>" ("empty"). A head
# followed by anything but those, a letter, "=", "/" or the end of the page
# is no tag ("nottag"), and its text is data. A script or style start tag
# ending in ">" ("raw") takes its text up to an end tag of the same name in
# any ASCII case, or to the end of the page.
# Skipped: comments, declarations, processing instructions, marked sections.
_TOKEN = re.compile(
    rf"""(?P<text>[^<]+)
      | </(?:\s*(?P<endtag>[a-zA-Z][-.a-zA-Z0-9:_]*)\s*>|(?P<endtag2>{_TAG_NAME})[^>]*>)
      | (?P<raw>(?=(?P<rhead><(?P<rtag>(?ai:script|style))(?=[\t\n\r\f />\x00]){_ATTRS}))
          (?P=rhead)>(?P<rawtext>.*?)(?:(?P<rawend></\s*(?ai:(?P=rtag))\s*>)|\Z))
      | (?P<start>(?=(?P<head><(?P<tag>{_TAG_NAME}){_ATTRS}))(?P=head))
          (?:>|(?P<empty>/>)|(?P<nottag>)(?=[^a-zA-Z=/>]))
      | (?P<skip></[^>]*>|<\?[^>]*>|<!(?!--|\[)[^>]*>|<!--.*?--\s*>
          |<!\[{_SECTION}.*?\]\s*\]\s*>|<!\[{_MS_SECTION}.*?\]\s*>)
      | (?P<chars><(?=[^a-zA-Z/!?])) | (?P<unterminated><)""",
    re.S | re.X,
)
_NAME = re.compile(_TAG_NAME)
_ATTRIBUTE = re.compile(rf"({_ATTR_NAME})(\s*=+\s*({_VALUE}))?{_SEPARATORS}")
# In raw text, the end tags that only case folding matches, as "</ſcript>".
_RAW_TEXT_END = {name: re.compile(rf"(</\s*{name}\s*>)", re.I) for name in ("script", "style")}


def _tokens(text: str) -> list[tuple]:
    """A page's tokens up to its first unterminated construct, as
    ``("start", tag, attrs)``, ``("end", tag, None)`` and ``("data", text,
    None)``. Tag and attribute names come lower-cased; attrs is a dict, the
    last of repeated names winning, and a valueless attribute maps to None.
    A script or style element's text is raw up to its end tag in any ASCII
    case (``</ſcript>`` stays text), and one that never ends drops the rest.
    Markup that html.parser rejects ends the page too: a marked section with
    an unknown or missing keyword (``<![foo``), which the catch-all "<"
    takes, and a decimal reference too long for int(). Start tags of equal
    text share one token and one attrs dict, so no caller may mutate them."""
    out: list[tuple] = []
    append = out.append
    try:
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "text":
                chunk = m[0]
                append(("data", unescape(chunk) if "&" in chunk else chunk, None))
            elif kind == "endtag" or kind == "endtag2":
                append(("end", m[kind].lower(), None))
            elif kind == "start" or kind == "empty":
                token = _start_token(m[0])
                append(token)
                if kind == "empty":
                    append(("end", token[1], None))
            elif kind == "raw":
                token = _start_token(text[m.start():m.start("rawtext")])
                append(token)
                tag = token[1]
                *chunks, rest = _RAW_TEXT_END[tag].split(m["rawtext"])
                out.extend(("data", chunk, None) for chunk in chunks if chunk)
                if m["rawend"] is None:  # an element that never ends drops the rest
                    return out
                if rest:
                    append(("data", rest, None))
                append(("end", tag, None))
            elif kind == "chars" or kind == "nottag":
                append(("data", m[0], None))
            elif kind == "unterminated":
                return out
    except ValueError:  # a character reference too long for int()
        pass
    return out


# The most start tags whose tokens are kept: a page's structural tags recur
# every few tokens and stay, its one-off links pass through.
_START_TAG_MEMO = 256


@functools.lru_cache(maxsize=_START_TAG_MEMO)
def _start_token(tag: str) -> tuple:
    """The start token of a start tag's text, from its "<" to its ">" or
    "/>": past the name only attributes can start a match."""
    name = _NAME.match(tag, 1)[0]
    attrs = {}
    for attr, given, value in _ATTRIBUTE.findall(tag, len(name) + 1):
        if given:
            if value[:1] in ("'", '"'):
                value = value[1:-1]
            if "&" in value:
                value = unescape(value)
        attrs[attr.lower()] = value if given else None
    return "start", name.lower(), attrs


def parse_label_page(page, queried: str) -> LabelPage:
    """Parse a label-search results page into structured author entries.

    Markers: results container ``gsc_sa_ccl``, one ``gsc_1usr`` div per
    author, name link in ``gs_ai_name``, interest links ``gs_ai_one_int``,
    cited-by line ``gs_ai_cby``, next-page button ``gs_btnPR`` carrying a
    ``data-after`` token. Entries that do not carry the queried tag, or that
    have neither a profile link nor a name that survives normalization, are
    dropped and counted in ``dropped``. Label strings come back normalized
    and deduplicated; labels that normalize to nothing are dropped.
    """
    blocks: list[dict] = []
    next_page_token = None
    block = None
    depth = 0  # div depth inside the current block
    in_name = in_interest = in_cby = False
    for kind, value, attrs in _tokens(page.body.decode("utf-8", errors="replace")):
        if kind == "data":
            if block is None:
                continue
            if in_name:
                block["name"].append(value)
            elif in_interest:
                block["labels"][-1].append(value)
            elif in_cby:
                count = _count(value)
                if count is not None:
                    block["cited_by"] = count
        elif kind == "start":
            cls = (attrs.get("class") or "").split()
            if value == "div" and "gsc_1usr" in cls:
                block = {"name": [], "author_id": None, "labels": [], "cited_by": None}
                depth = 1
                in_name = in_interest = in_cby = False
                continue
            if block is not None and value == "div":
                depth += 1
                if "gs_ai_cby" in cls:
                    in_cby = True
            if block is not None and value == "a":
                href = attrs.get("href") or ""  # None when the attribute has no value
                if "gs_ai_one_int" in cls:
                    in_interest = True
                    block["labels"].append([])
                elif "user=" in href and block["author_id"] is None:
                    block["author_id"] = _author_id_from_href(href)
                    in_name = True
            if value == "button" and "gs_btnPR" in cls and "data-after" in attrs:
                if "disabled" not in attrs and attrs["data-after"]:
                    next_page_token = attrs["data-after"]
        else:
            if value == "a":
                in_name = in_interest = False
            if block is not None and value == "div":
                in_cby = False
                depth -= 1
                if depth == 0:
                    blocks.append(block)
                    block = None
    return _label_page(blocks, next_page_token, queried)


def parse_author_page(page) -> AuthorProfile:
    """Parse an author profile page: labels, metrics, co-author sidebar.

    Markers: ``gsc_prf_in`` (name), ``gsc_prf_inta`` (interest links),
    ``gsc_rsb_std`` metric cells keyed by the row header, ``gsc_rsb_aa``
    co-author list items. Self-references in the co-author list are
    stripped; entries without a profile link get the synthetic id
    ``name:<normalized name>``, or are dropped when their name normalizes to
    nothing.
    """
    name = row_header = metric_key = ""
    labels: list[list[str]] = []
    metrics: dict[str, int] = {}
    coauthors: list[dict] = []
    coauthor = None
    in_name = in_interest = in_row_header = in_metric = in_coauthor_name = False
    for kind, value, attrs in _tokens(page.body.decode("utf-8", errors="replace")):
        if kind == "data":
            if in_name:
                name += value
            elif in_interest:
                labels[-1].append(value)
            elif in_row_header:
                row_header += value
            elif in_metric:
                count = _count(value)
                if count is not None and metric_key not in metrics:
                    metrics[metric_key] = count
            elif in_coauthor_name and coauthor is not None:
                coauthor["name"].append(value)
        elif kind == "start":
            cls = (attrs.get("class") or "").split()
            if attrs.get("id") == PROFILE_MARKER:
                in_name = True
            if "gsc_prf_inta" in cls:
                in_interest = True
                labels.append([])
            if value == "td":
                if "gsc_rsb_sc1" in cls:
                    in_row_header = True
                    row_header = ""
                elif "gsc_rsb_std" in cls and row_header:
                    in_metric = True
            if value == "li" and "gsc_rsb_aa" in cls:
                coauthor = {"name": [], "author_id": None}
            if coauthor is not None and value == "a" and "user=" in (attrs.get("href") or ""):
                coauthor["author_id"] = _author_id_from_href(attrs["href"])
                in_coauthor_name = True
            if coauthor is not None and value == "span":
                in_coauthor_name = True
        else:
            if value in ("div", "span", "a", "td"):
                if in_row_header:  # the header text changes only while this is set
                    metric_key = row_header.strip().lower()
                in_name = in_interest = in_row_header = in_metric = False
                if value in ("a", "span"):
                    in_coauthor_name = False
            if value == "li" and coauthor is not None:
                coauthors.append(coauthor)
                coauthor = None
    return _author_profile(page.request.key, name, labels, metrics, coauthors)


# The characters XML 1.0 cannot hold, not even as character references.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _xml_safe(text: str) -> str:
    """``text`` with each character that XML cannot hold replaced by U+FFFD."""
    return text if text.isprintable() else _NOT_XML.sub("\ufffd", text)


def _listed(link_id: str | None, name_chunks: list[str]) -> tuple[str | None, str]:
    """The id and name of an author listed with ``link_id`` from a profile
    link, if any, and the name in ``name_chunks``. Without a link the id is
    ``name:<normalized name>``, None when nothing of the name survives."""
    name = _xml_safe("".join(name_chunks).strip())
    if link_id:
        return _xml_safe(link_id), name
    slug = normalize_tag(name)
    return (SYNTHETIC_ID_PREFIX + slug if slug else None), name


def _label_page(blocks: list[dict], next_page_token: str | None, queried: str) -> LabelPage:
    """The page that a results page's author blocks and pager describe."""
    authors: dict[str, AuthorSummary] = {}  # id -> entry, the first listing of each id
    dropped = 0
    for block in blocks:
        labels = _normalize_label_list(block["labels"])
        author_id, name = _listed(block["author_id"], block["name"])
        if author_id in authors:
            continue
        if not author_id or queried not in labels:
            dropped += 1
            continue
        authors[author_id] = AuthorSummary(author_id, name, labels, block["cited_by"],
                                           low_confidence=block["author_id"] is None)
    return LabelPage(queried, list(authors.values()), next_page_token, dropped)


def _author_profile(author_id: str, name: str, labels: list[list[str]], metrics: dict[str, int],
                    coauthors: list[dict]) -> AuthorProfile:
    """The profile that a profile page's fields describe for ``author_id``."""
    listed: dict[str, str] = {}  # id -> name, the first listing of each id
    for c in coauthors:
        cid, shown = _listed(c["author_id"], c["name"])
        if cid and cid != author_id:
            listed.setdefault(cid, shown)
    return AuthorProfile(
        author_id=author_id,
        name=_xml_safe(name.strip()),
        labels=_normalize_label_list(labels),
        coauthors=list(listed.items()),
        cited_by=metrics.get("citations"),
        h_index=metrics.get("h-index"),
    )


def _normalize_label_list(raw_labels: list[list[str]]) -> list[str]:
    """The labels, each given as the chunks of its text, normalized, each once
    in first-seen order, empty ones dropped."""
    return [tag for tag in dict.fromkeys(map(normalize_tag, map("".join, raw_labels))) if tag]
