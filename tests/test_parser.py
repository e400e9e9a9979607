import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict, replace
from html.parser import HTMLParser
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from scholar_sounder import parser
from scholar_sounder.fetcher import AUTHOR_PROFILE, LABEL_SEARCH, PageRequest, RawPage
from scholar_sounder.parser import normalize_tag, parse_author_page, parse_label_page

import html_reference
from conftest import LABEL_PAGE, load_golden, server_url
from htmlgen import pad_page, render_label_page, render_profile_page
from test_fetcher import live_fetcher

ROOT = Path(__file__).resolve().parents[1]


def make_raw(kind, key, body, page_index=0):
    return RawPage(
        request=PageRequest(kind, key, page_index),
        body=body if isinstance(body, bytes) else body.encode("utf-8"),
        source="fixture",
    )


def parse(kind, key, body):
    """The package's parse of a ``kind`` page; a label page is parsed for
    the tag ``key``."""
    raw = make_raw(kind, key, body)
    return parse_label_page(raw, key) if kind == LABEL_SEARCH else parse_author_page(raw)


class TestNormalizeTag:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Physical Optics", "physical_optics"),
            ("Fourier Optics & Signal Processing", "fourier_optics_and_signal_processing"),
            ("physical_optics", "physical_optics"),
            ("  Piezo and Electrooptics ", "piezo_and_electrooptics"),
            ("The Dynamical Casimir Effect", "the_dynamical_casimir_effect"),
            ("Optique  --  Quantique", "optique_quantique"),
            ("Café Physics", "cafe_physics"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_tag(raw) == expected

    @pytest.mark.parametrize("raw", ["   ", "", "---", "☃"])
    def test_empty_after_normalization(self, raw):
        assert normalize_tag(raw) == ""

    @given(st.text(min_size=0, max_size=40))
    def test_idempotent_and_canonical(self, raw):
        tag = normalize_tag(raw)
        if not tag:
            return
        assert re.fullmatch(r"[a-z0-9]+(_[a-z0-9]+)*", tag)
        assert normalize_tag(tag) == tag


class TestParseLabelPage:
    def test_physical_optics_fixture(self, fixture_fetcher):
        raw = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "physical_optics", 0))
        page = parse_label_page(raw, "physical_optics")
        assert len(page.authors) == 8
        first = page.authors[0]
        assert first.name == "Tiberiu Tudor"
        assert first.labels == [
            "physical_optics",
            "polarization",
            "coherence",
            "lasers",
            "quantum_optics",
        ]
        assert first.cited_by == 2148
        assert page.next_page_token is None
        assert page.dropped == 0

    def test_every_author_carries_queried_tag(self, fixture_fetcher):
        raw = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "optics", 0))
        page = parse_label_page(raw, "optics")
        assert page.authors
        for author in page.authors:
            assert "optics" in author.labels

    def test_off_tag_entries_dropped_with_count(self):
        html = render_label_page("optics", ["A_TUDOR", "A_BANDRES"])
        # Tudor does not carry plain "optics": dropped, counted.
        page = parse_label_page(make_raw(LABEL_SEARCH, "optics", html), "optics")
        assert [a.author_id for a in page.authors] == ["A_BANDRES"]
        assert page.dropped == 1

    def test_an_author_listed_twice_is_kept_once_and_not_counted_as_dropped(self):
        html = render_label_page("optics", ["A_BANDRES", "A_TUDOR", "A_BANDRES"])
        raw = make_raw(LABEL_SEARCH, "optics", html)
        page = parse_label_page(raw, "optics")
        assert [a.author_id for a in page.authors] == ["A_BANDRES"]
        assert page.dropped == 1  # Tudor, off the tag
        assert html_reference.compare(raw.request, raw.body) is None

    def test_empty_results_page(self):
        html = render_label_page("optics", [])
        page = parse_label_page(make_raw(LABEL_SEARCH, "optics", html), "optics")
        assert page.authors == []
        assert page.next_page_token is None

    def test_next_page_token_extracted(self, fixture_fetcher):
        raw = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "quantum_optics", 0))
        page = parse_label_page(raw, "quantum_optics")
        assert page.next_page_token == "qo-page-1"
        raw1 = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "quantum_optics", 1))
        page1 = parse_label_page(raw1, "quantum_optics")
        assert page1.next_page_token is None
        assert len(page.authors) + len(page1.authors) == 8

    def test_parse_determinism(self, fixture_fetcher):
        raw = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "physical_optics", 0))
        a = parse_label_page(raw, "physical_optics")
        b = parse_label_page(raw, "physical_optics")
        assert asdict(a) == asdict(b)


class TestParseAuthorPage:
    def test_tudor_profile(self, fixture_fetcher):
        raw = fixture_fetcher.fetch(PageRequest(AUTHOR_PROFILE, "A_TUDOR"))
        profile = parse_author_page(raw)
        assert profile.author_id == "A_TUDOR"
        assert profile.name == "Tiberiu Tudor"
        assert "physical_optics" in profile.labels
        assert len(profile.coauthors) == 3
        assert profile.cited_by == 2148
        assert profile.h_index == 21

    def test_self_reference_stripped_order_preserved(self, fixture_fetcher):
        raw = fixture_fetcher.fetch(PageRequest(AUTHOR_PROFILE, "A_SKAB"))
        profile = parse_author_page(raw)
        ids = [cid for cid, _ in profile.coauthors]
        assert "A_SKAB" not in ids
        assert ids == ["A_VLOKH"]

    def test_linkless_coauthor_gets_synthetic_id(self, fixture_fetcher):
        raw = fixture_fetcher.fetch(PageRequest(AUTHOR_PROFILE, "A_VLOKH"))
        profile = parse_author_page(raw)
        assert ("name:oleh_krupych", "Oleh Krupych") in profile.coauthors

    def test_profile_without_sidebar(self):
        html = render_profile_page("A_X", "Solo Author", ["Optics"], None, None, [])
        profile = parse_author_page(make_raw(AUTHOR_PROFILE, "A_X", html))
        assert profile.coauthors == []
        assert profile.cited_by is None
        assert profile.h_index is None


LABEL_MARKER = '<div id="gsc_sa_ccl">'
PROFILE_MARKER = '<div id="gsc_prf_in">'
# Markup the extractors key off, plus constructs that html.parser rejected,
# for the fuzz tests below.
FRAGMENTS = [
    '<div class="gsc_1usr">', '<div class="gs_ai_cby">', "</div>", '<h3 class="gs_ai_name">',
    '<a class="gs_ai_one_int">', '<a href="/citations?user=A1">', '<a href="?user=">',
    '<a href="http://[::1?user=x">', "<a href>", "</a>", '<button class="gs_btnPR" data-after="t">',
    '<a class="gsc_prf_inta">', '<td class="gsc_rsb_sc1">', '<td class="gsc_rsb_std">', "</td>",
    '<li class="gsc_rsb_aa">', "</li>", "<span>", "</span>", "<![", "<!", "<?", "</", "<",
    "&#", "&amp;", "王伟", "!!", "Optics", "Cited by 12", "Citations", "h-index", "12", "9" * 5000,
]
BODIES = st.lists(st.sampled_from(FRAGMENTS) | st.text(max_size=6), max_size=30).map("".join)


class TestParsersNeverRaise:
    def test_labels_that_normalize_to_nothing_are_dropped(self):
        authors = {"A_X": ("Author X", ["Optics", "王伟", "!!"], 3)}
        html = render_label_page("optics", ["A_X"], authors=authors)
        page = parse_label_page(make_raw(LABEL_SEARCH, "optics", html), "optics")
        assert page.authors[0].labels == ["optics"]

    def test_unlinked_label_entry_with_empty_name_is_dropped_and_counted(self):
        html = render_label_page("optics", ["A_X"], authors={"A_X": ("王伟", ["Optics"], 3)})
        html = html.replace("user=A_X&amp;", "user=&amp;")  # a link that names no author
        page = parse_label_page(make_raw(LABEL_SEARCH, "optics", html), "optics")
        assert page.authors == []
        assert page.dropped == 1

    def test_unlinked_coauthors_with_empty_names_are_dropped(self):
        html = render_profile_page(
            "A_X", "Author X", ["Optics"], 1, 1, [(None, "王伟"), (None, "!!"), (None, ""), ("B", "B")]
        )
        profile = parse_author_page(make_raw(AUTHOR_PROFILE, "A_X", html))
        assert profile.coauthors == [("B", "B")]

    def test_counts_too_long_to_be_real_are_ignored(self):
        big = "9" * 5000  # int() refuses strings over 4,300 digits
        authors = {"A_X": ("Author X", ["Optics"], big)}
        html = render_label_page("optics", ["A_X"], authors=authors)
        page = parse_label_page(make_raw(LABEL_SEARCH, "optics", html), "optics")
        assert page.authors[0].cited_by is None
        html = render_profile_page("A_X", "Author X", ["Optics"], big, 7, [])
        profile = parse_author_page(make_raw(AUTHOR_PROFILE, "A_X", html))
        assert (profile.cited_by, profile.h_index) == (None, 7)

    @pytest.mark.parametrize("kind", [LABEL_SEARCH, AUTHOR_PROFILE], ids=["label", "profile"])
    @pytest.mark.parametrize("construct", ["<![foo", "&#" + "9" * 5000 + ";"],
                             ids=["unknown-section-keyword", "overlong-character-reference"])
    def test_markup_the_html_parser_rejects_ends_the_page(self, kind, construct):
        """The entries before the construct are kept, and none after it."""
        if kind == LABEL_SEARCH:
            authors = {aid: (aid, ["Optics"], 1) for aid in ("A1", "A2")}
            html, key = render_label_page("optics", ["A1", "A2"], authors=authors), "optics"
            entry = '<div class="gsc_1usr">'
        else:
            html = render_profile_page("A_X", "X", ["Optics"], 1, 1, [("A1", "A1"), ("A2", "A2")])
            key, entry = "A_X", '<li class="gsc_rsb_aa">'
        at = html.rindex(entry)
        parsed = parse(kind, key, html[:at] + construct + html[at:])
        if kind == LABEL_SEARCH:
            assert [author.author_id for author in parsed.authors] == ["A1"]
        else:
            assert parsed.coauthors == [("A1", "A1")]

    @pytest.mark.parametrize("kind", [LABEL_SEARCH, AUTHOR_PROFILE], ids=["label", "profile"])
    def test_a_link_whose_href_has_no_value_is_no_profile_link(self, kind):
        # A valueless attribute maps to None, which raised TypeError when read as a string.
        if kind == LABEL_SEARCH:
            html = render_label_page("optics", ["A_X"], authors={"A_X": ("X", ["Optics"], 3)})
            html, key = html.replace('<a href="/citations?user=A_X&amp;hl=en">', "<a href>"), "optics"
            page = parse(kind, key, html)
            assert (page.authors, page.dropped) == ([], 1)
        else:
            html = render_profile_page("A_X", "X", ["Optics"], 1, 1, [("B", "B"), ("C", "C")])
            html, key = html.replace('<a href="/citations?user=B&amp;hl=en">', "<a href>"), "A_X"
            assert parse(kind, key, html).coauthors == [("C", "C")]
        assert "<a href>" in html
        assert html_reference.compare(PageRequest(kind, key), html.encode()) is None

    @settings(max_examples=300, deadline=None)
    @given(before=BODIES, after=BODIES)
    def test_label_page_fuzz(self, before, after):
        parse_label_page(make_raw(LABEL_SEARCH, "optics", before + LABEL_MARKER + after), "optics")

    @settings(max_examples=300, deadline=None)
    @given(before=BODIES, after=BODIES)
    def test_profile_page_fuzz(self, before, after):
        parse_author_page(make_raw(AUTHOR_PROFILE, "A_X", before + PROFILE_MARKER + after))


class TestGoldenStability:
    """Every fixture page parses to its checked-in golden record."""

    @pytest.mark.parametrize(
        "tag,index",
        [
            ("physical_optics", 0),
            ("optics", 0),
            ("singular_optics", 0),
            ("quantum_optics", 0),
            ("quantum_optics", 1),
            ("nonlinear_optics", 0),
            ("microwave_quantum_optics", 0),
            ("quantum_optics_and_quantum_information", 0),
            ("wave_localization", 0),
        ],
    )
    def test_label_pages(self, fixture_fetcher, tag, index):
        raw = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, tag, index))
        page = parse_label_page(raw, tag)
        canonical = json.loads(json.dumps(asdict(page), sort_keys=True))
        assert canonical == load_golden(f"label_{tag}_{index}.json")

    @pytest.mark.parametrize(
        "author_id", ["A_TUDOR", "A_CHAVEZ", "A_LLAVE", "A_SKAB", "A_VLOKH", "A_KIM"]
    )
    def test_author_pages(self, fixture_fetcher, author_id):
        raw = fixture_fetcher.fetch(PageRequest(AUTHOR_PROFILE, author_id))
        profile = parse_author_page(raw)
        canonical = json.loads(json.dumps(asdict(profile), sort_keys=True))
        assert canonical == load_golden(f"author_{author_id}.json")


class TestPager:
    @pytest.mark.parametrize("button, token", [
        ('<button class="gs_btnPR" data-after="TOK">', "TOK"),
        ('<button class="gs_btnPR" disabled data-after="TOK">', None),
        ('<button class="gs_btnPR" disabled="" data-after="TOK">', None),
        ('<button class="gs_btnPR" disabled="disabled" data-after="TOK">', None),
    ], ids=["enabled", "bare-disabled", "empty-disabled", "disabled-disabled"])
    def test_a_disabled_button_in_any_form_is_not_followed(self, button, token):
        raw = make_raw(LABEL_SEARCH, "optics", f"{LABEL_MARKER}</div>{button}</button>")
        assert parse_label_page(raw, "optics").next_page_token == token
        assert html_reference.parse_label_page(raw, "optics").next_page_token == token


class Recorder(HTMLParser):
    """An extractor that records the calls html.parser makes on it."""

    def __init__(self):
        self.calls = []
        super().__init__()

    def handle_starttag(self, tag, attrs):
        self.calls.append(("start", tag, dict(attrs)))

    def handle_endtag(self, tag):
        self.calls.append(("end", tag))

    def handle_data(self, data):
        self.calls.append(("data", data))


def tokens(text):
    """The package's tokens for ``text``, in the form ``Recorder`` records."""
    return [(kind, value, attrs) if kind == "start" else (kind, value)
            for kind, value, attrs in parser._tokens(text)]


def reference_tokens(text):
    recorder = Recorder()
    html_reference._feed(recorder, text)
    return recorder.calls


class TestTokenizer:
    """The tokenizer's handling of the constructs where html.parser, which
    it reproduces, departs from the obvious, and of unterminated
    constructs, each of which ends the page."""

    @pytest.mark.parametrize("text, calls", [
        ("a &amp; b&lt;", [("data", "a & b<")]),
        ('<p class="a>b">t</p>', [("start", "p", {"class": "a>b"}), ("data", "t"), ("end", "p")]),
        ("<a href=?user=U1 disabled>", [("start", "a", {"href": "?user=U1", "disabled": None})]),
        ('<A HREF=X Class="Y">', [("start", "a", {"href": "X", "class": "Y"})]),
        ('<a b="1" b="2">', [("start", "a", {"b": "2"})]),
        ("<br/><a / /><a b=/>", [("start", "br", {}), ("end", "br"), ("start", "a", {}),
                                 ("end", "a"), ("start", "a", {"b": "/"})]),
        ("Cited by 1<2", [("data", "Cited by 1"), ("data", "<"), ("data", "2")]),
        ("<!-- x > y", []),
        ('<a b="c <b>', []),
        ('<a b="c', []),
        ("<script>if (a<b) {}</div></SCRIPT >z", [
            ("start", "script", {}), ("data", "if (a<b) {}</div>"), ("end", "script"),
            ("data", "z")]),
        ("<style>a</ſtyle>b</style>", [
            ("start", "style", {}), ("data", "a"), ("data", "</ſtyle>"), ("data", "b"),
            ("end", "style")]),
        ("<script>never <b>closed</b>", [("start", "script", {})]),
        ("</ a></a b></></ a b>", [("end", "a"), ("end", "a")]),
        ("<!doctype html><?php x ?><!--c--><![CDATA[x]]><![if x]>y", [("data", "y")]),
        ("<a\x00>", [("data", "<a"), ("data", "\x00>")]),
        ("x<", [("data", "x")]),
        ("<!--a><b>c<!--d>", []),
        ("<![CDATA[a>b<i><![CDATA[c>", []),
        ("<![if a>b<i><![if c>", []),
        ("<b>t</b><a b<c", [("start", "b", {}), ("data", "t"), ("end", "b")]),
        ("<a\x00<b <c\x00", [("data", "<a"), ("data", "\x00")]),
        ("<a b='x><!--c--><![CDATA[d]]><![if e]>f", []),
        ("<a<a\x0b\x00", []),
        ("<a<a\xa0\x00", []),
        ("<a b='x> <c> '", []),
        ("ab\n<![foo</x>", [("data", "ab\n")]),
        ("é<![1", [("data", "é")]),
        ("<![foo", []),
        ("<p>&#" + "9" * 5000 + ";", [("start", "p", {})]),
        ('é<a title="&#' + "9" * 5000 + ';">', [("data", "é")]),
        ("<SCRIPT>a</script>b", [("start", "script", {}), ("data", "a"), ("end", "script"),
                                 ("data", "b")]),
        ("<script/>x</script>", [("start", "script", {}), ("end", "script"), ("data", "x"),
                                 ("end", "script")]),
        ("<script\x0b>a</script>", [("start", "script\x0b", {}), ("data", "a"), ("end", "script")]),
        ("<style>a</script>b</style>c", [("start", "style", {}), ("data", "a</script>b"),
                                         ("end", "style"), ("data", "c")]),
        ("<script>a</ſcript>b", [("start", "script", {}), ("data", "a"), ("data", "</ſcript>")]),
        ('<script a="</script>">x</script>y', [("start", "script", {"a": "</script>"}),
                                               ("data", "x"), ("end", "script"), ("data", "y")]),
        ("<Style>x</STYLE>y", [("start", "style", {}), ("data", "x"), ("end", "style"), ("data", "y")]),
        ("<script >a</script\t>b", [("start", "script", {}), ("data", "a"), ("end", "script"),
                                    ("data", "b")]),
        ("<scripts>a</scripts>", [("start", "scripts", {}), ("data", "a"), ("end", "scripts")]),
        ("<script>a&amp;b</script>", [("start", "script", {}), ("data", "a&amp;b"), ("end", "script")]),
        ("<script>a</script >b", [("start", "script", {}), ("data", "a"), ("end", "script"),
                                  ("data", "b")]),
        ("<ſcript>a</script>b", [("data", "<"), ("data", "ſcript>a"), ("end", "script"),
                                 ("data", "b")]),
        ("<script>a</scrİpt>b", [("start", "script", {}), ("data", "a"), ("data", "</scrİpt>")]),
    ], ids=[
        "character-references", "gt-in-quoted-value", "unquoted-and-valueless",
        "upper-case-names", "last-repeated-attribute-wins", "self-closing",
        "lone-lt-is-a-chunk", "unclosed-comment-ends-the-page",
        "unclosed-quote-ends-the-page", "unclosed-quote-without-gt-ends-the-page",
        "script-raw-text", "raw-text-end-matched-by-case-folding", "unclosed-script-drops-the-rest",
        "end-tag-forms", "skipped-constructs", "nul-after-tag-name", "lt-at-end-ends-the-page",
        "comments-never-closed-end-the-page", "sections-never-closed-end-the-page",
        "conditional-sections-never-closed-end-the-page", "tag-without-gt-ends-the-page",
        "tag-without-gt-after-nul-ends-the-page", "nothing-after-an-unclosed-quote-is-read",
        "nul-after-vertical-tab-in-a-tag-without-gt-ends-the-page",
        "nul-after-no-break-space-in-a-tag-without-gt-ends-the-page",
        "start-tag-inside-an-unclosed-quote-is-not-read",
        "unknown-section-keyword-ends-the-page", "no-section-keyword-ends-the-page",
        "marked-section-open-at-the-end-ends-the-page",
        "overlong-reference-in-text-ends-the-page",
        "overlong-reference-in-attribute-ends-the-page",
        "raw-text-start-tag-in-any-ascii-case", "self-closing-script-has-no-raw-text",
        "script-name-ending-in-vertical-tab-is-not-raw", "raw-text-ends-only-at-its-own-end-tag",
        "raw-text-end-matched-by-case-folding-then-never-ended",
        "raw-text-end-tag-inside-an-attribute-value", "raw-text-end-tag-in-any-ascii-case",
        "raw-text-tags-with-whitespace", "longer-tag-name-is-not-raw",
        "raw-text-is-not-unescaped", "raw-text-end-tag-with-trailing-space",
        "raw-text-start-tag-matched-only-by-case-folding-is-not-raw",
        "raw-text-end-tag-lower-cased-to-ascii-is-text",
    ])
    def test_tokens(self, text, calls):
        assert tokens(text) == calls

    NEVER_COMPLETE = [
        *(("", c) for c in ("<a b='", "<a", "<!--", "</a", "<!--x>", "<![CDATA[x>", "<![if x>", "<?x")),
        # Inside a script element that never ends.
        *(("<script>", c) for c in ("</scrip", "</ſcript>", "</script")),
    ]

    @pytest.mark.parametrize("prefix, construct", NEVER_COMPLETE,
                             ids=[prefix + construct for prefix, construct in NEVER_COMPLETE])
    def test_constructs_that_never_complete_cost_linear_time(self, prefix, construct):
        # html.parser's end-of-input pass rescans to the end of the page for
        # every repetition: 20,000 of "<a b='" take it over a minute.
        text = prefix + construct * 20_000
        start = time.process_time()
        parser._tokens(text)
        assert time.process_time() - start < 1.0

    def test_start_tags_that_fail_inside_failed_heads_cost_linear_time(self):
        # Each "<a" after the first sits in the first head's attributes,
        # which run to the end of the page; rescanning them for every "<a"
        # took 20 s at 8,000 repetitions.
        text = "<a c='>' " * 8_000
        start = time.process_time()
        parser._tokens(text)
        assert time.process_time() - start < 2.0
        assert tokens("<a c='>' " * 2) == []


class TestParseCost:
    @pytest.mark.parametrize("kind", [LABEL_SEARCH, AUTHOR_PROFILE])
    def test_many_labels_cost_linear_time(self, kind):
        # Deduplicating by list membership is quadratic: 20,000 labels took
        # 2.5 s of process time on a shared 2-core host.
        labels = [f"{kind} label {i}" for i in range(20_000)]
        if kind == LABEL_SEARCH:
            html = render_label_page("optics", ["A_X"], authors={"A_X": ("X", ["Optics", *labels], 1)})
        else:
            html = render_profile_page("A_X", "X", labels, 1, 1, [])
        start = time.process_time()
        parsed = parse(kind, "optics" if kind == LABEL_SEARCH else "A_X", html)
        assert time.process_time() - start < 1.0
        labels_parsed = parsed.authors[0].labels if kind == LABEL_SEARCH else parsed.labels
        assert len(labels_parsed) == 20_000 + (kind == LABEL_SEARCH)

    # One field's text in 60,000 chunks, 2.4 million characters. Adding each
    # chunk to the text held in a dict or list copies it: each of the first
    # four cases took 7-8 s of process time on a shared 2-core host. The
    # profile name, a local, was already linear.
    CHUNK = "<i>" + "x" * 40 + "</i>"
    LONG = CHUNK * 60_000
    # A 400,000-character row header, in 10,000 chunks, then 30,000 chunks of
    # its metric cell: reading the header's key for every chunk took 10.6 s.
    METRIC_ROW = (f'<td class="gsc_rsb_sc1">{CHUNK * 10_000}</td>'
                  f'<td class="gsc_rsb_std">{"<i>1</i>" * 30_000}</td>'
                  '<td class="gsc_rsb_sc1">Citations</td><td class="gsc_rsb_std">7</td>')

    @pytest.mark.parametrize("kind,body,field,expected", [
        (LABEL_SEARCH, f'<div class="gsc_1usr"><a href="?user=A1">{LONG}</a>'
         '<a class="gs_ai_one_int">Optics</a></div>', lambda p: len(p.authors[0].name), 2_400_000),
        (LABEL_SEARCH, '<div class="gsc_1usr"><a href="?user=A1">X</a><a class="gs_ai_one_int">Optics</a>'
         f'<a class="gs_ai_one_int">{LONG}</a></div>', lambda p: len(p.authors[0].labels[1]), 2_400_000),
        (AUTHOR_PROFILE, f'<a class="gsc_prf_inta">{LONG}</a>', lambda p: len(p.labels[0]), 2_400_000),
        (AUTHOR_PROFILE, f'<li class="gsc_rsb_aa"><a href="?user=B1">{LONG}</a></li>',
         lambda p: len(p.coauthors[0][1]), 2_400_000),
        (AUTHOR_PROFILE, f'<div id="gsc_prf_in">{LONG}</div>', lambda p: len(p.name), 2_400_000),
        (AUTHOR_PROFILE, METRIC_ROW, lambda p: p.cited_by, 7),
    ], ids=["result name", "result label", "profile label", "coauthor name", "profile name",
            "metric row"])
    def test_text_in_many_chunks_costs_linear_time(self, kind, body, field, expected):
        start = time.process_time()
        parsed = parse(kind, "optics" if kind == LABEL_SEARCH else "A_X", body)
        assert time.process_time() - start < 1.0
        assert field(parsed) == expected


# The fuzz fragments plus the constructs where a tokenizer is most likely to
# go wrong.
REFERENCE_FRAGMENTS = FRAGMENTS + [
    "<![foo", "<![CDATA[x]]>", '<a class="x', '<a class="x>', "&#" + "9" * 5000 + ";",
    "<script>", "</script>", "<style>", "</STYLE>", '<script><div class="gs_ai_cby">', "<b",
    "Cited by 1<2", '<a href="?user=A>B">', "<a href=?user=U1>", '<DIV CLASS="gsc_1usr">',
    '<A HREF="?user=A2">', "<TD CLASS=gsc_rsb_std>", "<button class=gs_btnPR disabled data-after=x>",
    "<br/>", "<a b=/>", "<!--", "-->", "<!doctype html>", "'", '"', "=", "/>", ">", " ", "\n",
    "<!--x>", "<![CDATA[x>", "<![if x>", "]]>", "]>", "<a", "\x00", "\x0b", "\xa0",
]
# html.parser reads malformed markup differently from one Python release to
# another (the 2025 security releases changed how several malformed
# constructs are read), so the token streams and parses of malformed markup,
# up to its first unterminated construct, are compared with html.parser's
# only on the release whose html.parser the tokenizer reproduces.
# TestTokenizer pins the same behaviour on every release.
REFERENCE_RELEASE_ONLY = pytest.mark.skipif(
    sys.version_info[:3] != (3, 11, 7),
    reason="the tokenizer reproduces html.parser of Python 3.11.7 on malformed markup",
)
REFERENCE_BODIES = st.lists(
    st.sampled_from(REFERENCE_FRAGMENTS) | st.text(max_size=6), max_size=30
).map("".join)
# Start tags whose heads fail (an unclosed quote, no ">" after the
# attributes) with other "<" inside them, after a ">" in a quoted value.
FAILED_HEAD_BODIES = st.lists(st.sampled_from([
    "<a", "<b ", " c", "='", '="', "'", '"', ">", "/>", "/", "=", "=x", " ", "\n", "x", "<",
    "\x00", "\x0b", "\xa0", "&amp;", "</a>", "<!--", "-->", "<script>", "</script>",
    "<a c='>' ", "<a b=' <c d='>",
]), max_size=40).map("".join)


def load_bench_corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "bench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAgreesWithReference:
    """The package parses every page as the html.parser-driven extractors of
    tests/html_reference.py do: the same LabelPage or AuthorProfile."""

    def assert_tree_agrees(self, root: Path, expected_pages: int):
        pages = list(html_reference.pages(root))
        assert len(pages) == expected_pages
        for path, request in pages:
            assert html_reference.compare(request, path.read_bytes()) is None, path

    def test_bundled_fixtures(self, fixtures_dir):
        self.assert_tree_agrees(fixtures_dir, 15)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_bench_corpus(self, tmp_path, seed):
        counts = load_bench_corpus().build_fixture_tree(ROOT, seed, tmp_path)["counts"]
        self.assert_tree_agrees(tmp_path, counts["label_pages"] + counts["profiles"])

    def test_padded_pages(self, fixtures_dir):
        kinds = set()
        for path, request in html_reference.pages(fixtures_dir):
            body = path.read_bytes()
            padded = pad_page(body.decode(), request.key).encode()
            assert padded.count(b'<tr class="gsc_a_tr">') == 100
            assert html_reference.compare(request, padded) is None, path
            parsed = parse(request.kind, request.key, padded)
            assert parsed == parse(request.kind, request.key, body), path
            kinds.add(request.kind)
        assert kinds == {LABEL_SEARCH, AUTHOR_PROFILE}

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(st.tuples(
            st.text(max_size=12), st.lists(st.text(max_size=10), max_size=4),
            st.integers(0, 10**6) | st.text(max_size=5),
        ), max_size=6),
        token=st.none() | st.text(max_size=8),
        h_index=st.none() | st.integers(0, 200),
    )
    def test_rendered_pages(self, entries, token, h_index):
        authors = {f"A{i}": (name, ["Optics", *labels], cited)
                   for i, (name, labels, cited) in enumerate(entries)}
        html = render_label_page("optics", list(authors), next_token=token, authors=authors)
        assert html_reference.compare(PageRequest(LABEL_SEARCH, "optics"), html.encode()) is None
        for aid, (name, labels, cited) in authors.items():
            coauthors = [(None if i % 3 else other, authors[other][0])
                         for i, other in enumerate(authors)]
            html = render_profile_page(aid, name, labels, cited, h_index, coauthors)
            request = PageRequest(AUTHOR_PROFILE, aid)
            assert html_reference.compare(request, html.encode()) is None

    @REFERENCE_RELEASE_ONLY
    @settings(max_examples=300, deadline=None)
    @given(before=REFERENCE_BODIES, after=REFERENCE_BODIES)
    def test_label_page_fuzz(self, before, after):
        body = (before + LABEL_MARKER + after).encode()
        assert html_reference.compare(PageRequest(LABEL_SEARCH, "optics"), body) is None

    @REFERENCE_RELEASE_ONLY
    @settings(max_examples=300, deadline=None)
    @given(before=REFERENCE_BODIES, after=REFERENCE_BODIES)
    def test_profile_page_fuzz(self, before, after):
        body = (before + PROFILE_MARKER + after).encode()
        assert html_reference.compare(PageRequest(AUTHOR_PROFILE, "A_X"), body) is None

    @REFERENCE_RELEASE_ONLY
    @settings(max_examples=500, deadline=None)
    @given(REFERENCE_BODIES)
    def test_token_stream(self, text):
        assert tokens(text) == reference_tokens(text)

    @REFERENCE_RELEASE_ONLY
    @settings(max_examples=500, deadline=None)
    @given(FAILED_HEAD_BODIES)
    def test_token_stream_after_failed_start_tags(self, text):
        assert tokens(text) == reference_tokens(text)


HREFS = st.lists(st.sampled_from([
    "https://", "scholar.example", "/citations", "?", "user=", "A_1", "&", "hl=en", "#", "[",
    "]", "%2F", "%", "+", "=", ";", " ",
]) | st.text(max_size=4), max_size=12).map("".join)
REFERENCE_TEXT = st.lists(st.sampled_from([
    "&amp;", "&lt", "&#", "&#x", "9", "41", ";", "&", "amp", "x", " ", "&#" + "9" * 5000 + ";",
]) | st.text(max_size=4), max_size=12).map("".join)


def outcome(convert, value):
    try:
        return convert(value)
    except ValueError as exc:
        return type(exc)


class TestCachedConversions:
    """The conversions memoised for the life of the process give what their
    uncached forms give; an exception is raised again, never cached. So does
    the bounded memo of start-tag tokens."""

    @settings(max_examples=300, deadline=None)
    @given(st.text() | HREFS | REFERENCE_TEXT)
    def test_cached_equals_uncached(self, text):
        for convert in (parser.normalize_tag, parser._author_id_from_href):
            expected = outcome(convert.__wrapped__, text)
            assert outcome(convert, text) == expected
            assert outcome(convert, text) == expected

    @settings(max_examples=300, deadline=None)
    @given(page=REFERENCE_BODIES | BODIES, other=REFERENCE_BODIES | BODIES)
    def test_memoised_start_tags_tokenize_as_uncached(self, page, other):
        parser._tokens(other)
        warm = parser._tokens(page)
        parser._start_token.cache_clear()
        cold = parser._tokens(page)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parser, "_start_token", parser._start_token.__wrapped__)
            uncached = parser._tokens(page)
        assert warm == cold == uncached

    def test_a_reference_too_long_for_int_ends_the_page_every_time(self):
        page = 'x<b>y<a href="&#' + "9" * 5000 + ';">z'
        expected = [("data", "x", None), ("start", "b", {}), ("data", "y", None)]
        assert parser._tokens(page) == expected
        assert parser._tokens(page) == expected

    @pytest.mark.parametrize("href", [
        "/citations?user=A_TUDOR&hl=en",
        "https://[::1/citations?user=A",
        "/citations?user=A%2FB%41&hl=en",
        "/citations?user=A+B",
        "/citations?user=&hl=en",
        "/citations?user=A#user=B",
        "/citations#?user=A",
        "/citations?user=A&user=B",
        "/citations?hl=en",
        "",
    ], ids=["plain", "unclosed-bracket", "percent-escapes", "plus", "blank-user", "fragment",
            "only-in-fragment", "repeated", "no-user", "empty"])
    def test_href_conversion_matches_reference(self, href):
        assert parser._author_id_from_href(href) == html_reference._author_id_from_href(href)

    @settings(max_examples=300, deadline=None)
    @given(HREFS)
    def test_href_conversion_matches_reference_fuzz(self, href):
        assert parser._author_id_from_href(href) == html_reference._author_id_from_href(href)


class TestParserMemory:
    """Parsing keeps nothing that grows with page content beyond a fixed
    bound: distinct padded pages with the same labels and authors, parsed
    after the first 50, leave under 100 KB traced. A memo keyed by the text
    chunks that hold "&" would keep about 5 KB a page here, 1 MB in all."""

    def assert_no_growth(self, parse_page):
        tracemalloc.start()
        try:
            for i in range(50):
                parse_page(i)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for i in range(50, 250):
                parse_page(i)
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert growth < 100_000

    def test_distinct_pages_leave_no_memory_behind(self):
        def parse_profile(i):
            key = f"A_{i}"
            html = render_profile_page(key, f"Author {i}", ["Optics"], 10, 2, [("A_B", "B")])
            parse(AUTHOR_PROFILE, key, pad_page(html, key, rows=10))

        self.assert_no_growth(parse_profile)

    def test_distinct_label_pages_leave_no_memory_behind(self):
        html = render_label_page("optics", ["A_X", "A_Y"], next_token="t", authors={
            "A_X": ("X", ["Optics", "Lasers"], 10), "A_Y": ("Y", ["Optics"], 2)})

        def parse_label(i):
            parse(LABEL_SEARCH, "optics", pad_page(html, f"L_{i}", rows=10))

        self.assert_no_growth(parse_label)


def blank_the_name(monkeypatch):
    """Make the package parse every profile's name as empty."""
    parse_author = parser.parse_author_page
    monkeypatch.setattr(parser, "parse_author_page", lambda page: replace(parse_author(page), name=""))


class TestReferenceTreeChecker:
    def test_script_on_the_bundled_fixtures(self, fixtures_dir):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run(
            [sys.executable, str(ROOT / "tests" / "html_reference.py"), str(fixtures_dir)],
            capture_output=True, text=True, env=env,
        )
        assert (run.returncode, run.stdout) == (0, "15 pages parse the same\n")

    def test_first_disagreement_is_reported(self, fixtures_dir, monkeypatch, capsys):
        blank_the_name(monkeypatch)
        assert html_reference.main([str(fixtures_dir)]) == 1
        out = capsys.readouterr().out
        assert out == (
            f"{fixtures_dir / 'authors' / 'A_CHAVEZ.html'}: name: "
            "package '', reference 'Sabino Chavez-Cerda'\n"
        )

    def test_script_on_a_live_cache(
        self, scripted_server, fixtures_dir, tmp_path, capsys, monkeypatch
    ):
        profile = (fixtures_dir / "authors" / "A_CHAVEZ.html").read_bytes()
        server = scripted_server((200, LABEL_PAGE), (200, profile))
        fetcher = live_fetcher(server_url(server), tmp_path)
        fetcher.fetch(PageRequest(LABEL_SEARCH, "physical_optics", 0))
        fetcher.fetch(PageRequest(AUTHOR_PROFILE, "A_CHAVEZ"))
        del fetcher  # closes the cache
        assert html_reference.main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == "2 pages parse the same\n"
        blank_the_name(monkeypatch)
        assert html_reference.main([str(tmp_path)]) == 1
        assert capsys.readouterr().out == (
            f"{tmp_path / 'pages.sqlite'}:authors/A_CHAVEZ.html: name: "
            "package '', reference 'Sabino Chavez-Cerda'\n"
        )

    def test_a_tree_without_pages_is_an_error(self, tmp_path):
        assert html_reference.main([str(tmp_path)]) == 2
