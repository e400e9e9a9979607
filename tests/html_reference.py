"""Reference HTML extractors: the ``html.parser.HTMLParser`` subclasses that
``parser``'s compiled tokenizer replaced. Tests compare the two; nothing in
the package imports this module.

The tokenizer reproduces ``html.parser`` as shipped with Python 3.11.7, fed a
page without its end-of-input pass: the page is read up to its first
unterminated construct (an unclosed comment, quote, tag or marked section, or
a "<" at the very end), and nothing after it. ``html.parser`` reads malformed
markup differently from one Python release to another, so on another release
a disagreement on malformed markup may be the reference's change rather than
the package's.

Run as a script to check a fixture tree or a live cache against the
reference:

    PYTHONPATH=src python3 tests/html_reference.py DIR

It parses every ``labels/<tag>/<n>.html`` and ``authors/<id>.html`` under
DIR, and every row of ``DIR/pages.sqlite`` (keyed by the same paths), with
both implementations and prints the first disagreement (path, field, both
values). It exits 1 on a disagreement and 2 when DIR holds no pages.
"""

from __future__ import annotations

import sqlite3
import sys
from contextlib import closing
from dataclasses import asdict
from html.parser import HTMLParser
from itertools import chain
from pathlib import Path, PurePosixPath
from urllib.parse import parse_qs, urlparse

from scholar_sounder import parser
from scholar_sounder.fetcher import AUTHOR_PROFILE, LABEL_SEARCH, PageRequest, RawPage
from scholar_sounder.parser import PROFILE_MARKER, _count


def _author_id_from_href(href: str) -> str | None:
    try:
        qs = parse_qs(urlparse(href).query)
    except ValueError:  # a malformed host, such as an unclosed "["
        return None
    ids = qs.get("user")
    return ids[0] if ids else None


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


class _AuthorPageExtractor(HTMLParser):
    """Pulls name, interests, metrics, and the co-author sidebar out of a
    profile page. Markers: ``gsc_prf_in`` (name), ``gsc_prf_inta``
    (interest links), ``gsc_rsb_std`` metric cells keyed by the row header,
    ``gsc_rsb_aa`` co-author list items."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
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

    def handle_starttag(self, tag, attrs):
        d = dict(attrs)
        cls = _classes(attrs)
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


def _feed(extractor: HTMLParser, text: str):
    """Run an extractor over a page up to its first unterminated construct.
    ``feed`` stops at that construct and leaves the rest unread; ``close``,
    which would make the construct text and read on, runs only when what is
    left unread does not start with "<", where it merely flushes the text
    held back for a character reference that might continue. The stdlib
    parser signals some malformed markup (``<![foo``, say) with
    AssertionError, and a numeric character reference too long for ``int``
    with ValueError; html.parser stops there, and so does the page."""
    try:
        extractor.feed(text)
        if not extractor.rawdata.startswith("<"):
            extractor.close()
    except (AssertionError, ValueError):
        return


def parse_label_page(page, queried: str) -> parser.LabelPage:
    ex = _LabelPageExtractor()
    _feed(ex, page.body.decode("utf-8", errors="replace"))
    return parser._label_page(ex, queried)


def parse_author_page(page) -> parser.AuthorProfile:
    ex = _AuthorPageExtractor()
    _feed(ex, page.body.decode("utf-8", errors="replace"))
    return parser._author_profile(ex, page.request.key)


def outcome(parse, *args):
    """A parse result as plain data."""
    return asdict(parse(*args))


def first_difference(a, b, field: str = ""):
    """(field, a value, b value) of the first place two outcomes differ, or
    None when they are equal."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        items = [(a[k], b[k], f"{field}.{k}" if field else k) for k in a]
    elif isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) and len(a) == len(b):
        items = [(x, y, f"{field}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    else:
        return None if a == b else (field or "page", a, b)
    for item in items:
        diff = first_difference(*item)
        if diff:
            return diff
    return None


def compare(request: PageRequest, body: bytes):
    """The first difference between the package's parse of a page and the
    reference parse, or None."""
    page = RawPage(request, body, "fixture")
    if request.kind == LABEL_SEARCH:
        return first_difference(
            outcome(parser.parse_label_page, page, request.key),
            outcome(parse_label_page, page, request.key),
        )
    return first_difference(
        outcome(parser.parse_author_page, page), outcome(parse_author_page, page)
    )


def request_at(path: PurePosixPath) -> PageRequest | None:
    """The request that a tree path, ``labels/<tag>/<n>.html`` or
    ``authors/<id>.html``, stands for; None for any other path."""
    if path.suffix != ".html":
        return None
    if len(path.parts) == 3 and path.parts[0] == "labels" and path.stem.isdecimal():
        return PageRequest(LABEL_SEARCH, path.parent.name, int(path.stem))
    if len(path.parts) == 2 and path.parts[0] == "authors":
        return PageRequest(AUTHOR_PROFILE, path.stem)
    return None


def pages(root: Path):
    """(path, request) for every page of a fixture or cache tree."""
    for path in sorted((root / "labels").glob("*/*.html")) + sorted((root / "authors").glob("*.html")):
        if request := request_at(PurePosixPath(path.relative_to(root).as_posix())):
            yield path, request


def cache_pages(root: Path):
    """(name, request, body) for every row of a live cache, ``root/pages.sqlite``."""
    cache = root / "pages.sqlite"
    if cache.is_file():
        with closing(sqlite3.connect(cache)) as db:
            for key, body in db.execute("SELECT path, body FROM pages ORDER BY path"):
                if request := request_at(PurePosixPath(key)):
                    yield f"{cache}:{key}", request, body


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: html_reference.py DIR", file=sys.stderr)
        return 2
    checked = 0
    root = Path(argv[0])
    tree = ((path, request, path.read_bytes()) for path, request in pages(root))
    for name, request, body in chain(tree, cache_pages(root)):
        diff = compare(request, body)
        if diff:
            field, new, reference = diff
            print(f"{name}: {field}: package {new!r}, reference {reference!r}")
            return 1
        checked += 1
    if not checked:
        print(f"no labels/<tag>/<n>.html or authors/<id>.html pages under {argv[0]}"
              " or in its pages.sqlite", file=sys.stderr)
        return 2
    print(f"{checked} pages parse the same")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
