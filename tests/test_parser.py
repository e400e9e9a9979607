import json
import re
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from scholar_sounder.errors import EmptyTagError, ParseError
from scholar_sounder.fetcher import AUTHOR_PROFILE, LABEL_SEARCH, PageRequest, RawPage, build_url
from scholar_sounder.parser import normalize_tag, parse_author_page, parse_label_page

from conftest import load_golden
from htmlgen import render_label_page, render_profile_page


def make_raw(kind, key, body, page_index=0):
    from datetime import datetime, timezone

    req = PageRequest(kind, key, page_index)
    return RawPage(
        request=req,
        url=build_url(req),
        body=body if isinstance(body, bytes) else body.encode("utf-8"),
        retrieved_at=datetime.now(timezone.utc),
        source="fixture",
    )


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
        with pytest.raises(EmptyTagError):
            normalize_tag(raw)

    @given(st.text(min_size=0, max_size=40))
    def test_idempotent_and_canonical(self, raw):
        try:
            tag = normalize_tag(raw)
        except EmptyTagError:
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

    def test_empty_results_page(self):
        html = render_label_page("optics", [])
        page = parse_label_page(make_raw(LABEL_SEARCH, "optics", html), "optics")
        assert page.authors == []
        assert page.next_page_token is None

    def test_truncated_html_raises_with_offset(self, fixture_fetcher):
        raw = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "physical_optics", 0))
        truncated = make_raw(LABEL_SEARCH, "physical_optics", raw.body[:100])
        with pytest.raises(ParseError) as exc:
            parse_label_page(truncated, "physical_optics")
        assert exc.value.offset == 100

    def test_next_page_token_extracted(self, fixture_fetcher):
        raw = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "quantum_optics", 0))
        page = parse_label_page(raw, "quantum_optics")
        assert page.next_page_token == "qo-page-1"
        raw1 = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "quantum_optics", 1))
        page1 = parse_label_page(raw1, "quantum_optics")
        assert page1.next_page_token is None
        assert len(page.authors) + len(page1.authors) == 8

    def test_wrong_page_kind_rejected(self, fixture_fetcher):
        raw = fixture_fetcher.fetch(PageRequest(AUTHOR_PROFILE, "A_TUDOR"))
        with pytest.raises(ValueError):
            parse_label_page(raw, "physical_optics")

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

    def test_truncated_profile_raises(self, fixture_fetcher):
        raw = fixture_fetcher.fetch(PageRequest(AUTHOR_PROFILE, "A_TUDOR"))
        with pytest.raises(ParseError):
            parse_author_page(make_raw(AUTHOR_PROFILE, "A_TUDOR", raw.body[:50]))


LABEL_MARKER = '<div id="gsc_sa_ccl">'
PROFILE_MARKER = '<div id="gsc_prf_in">'
# Markup the extractors key off, plus constructs the stdlib HTML parser
# rejects, for the fuzz tests below.
FRAGMENTS = [
    '<div class="gsc_1usr">', '<div class="gs_ai_cby">', "</div>", '<h3 class="gs_ai_name">',
    '<a class="gs_ai_one_int">', '<a href="/citations?user=A1">', '<a href="?user=">',
    '<a href="http://[::1?user=x">', "</a>", '<button class="gs_btnPR" data-after="t">',
    '<a class="gsc_prf_inta">', '<td class="gsc_rsb_sc1">', '<td class="gsc_rsb_std">', "</td>",
    '<li class="gsc_rsb_aa">', "</li>", "<span>", "</span>", "<![", "<!", "<?", "</", "<",
    "&#", "&amp;", "王伟", "!!", "Optics", "Cited by 12", "Citations", "h-index", "12", "9" * 5000,
]
BODIES = st.lists(st.sampled_from(FRAGMENTS) | st.text(max_size=6), max_size=30).map("".join)


class TestParsersRaiseOnlyParseError:
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

    @pytest.mark.parametrize("kind, marker", [
        (LABEL_SEARCH, LABEL_MARKER), (AUTHOR_PROFILE, PROFILE_MARKER),
    ], ids=["label", "profile"])
    def test_markup_the_html_parser_rejects_raises_parse_error(self, kind, marker):
        raw = make_raw(kind, "optics", f"<html>{marker}</div>\n<![foo</html>")
        with pytest.raises(ParseError, match="malformed markup") as info:
            parse_label_page(raw, "optics") if kind == LABEL_SEARCH else parse_author_page(raw)
        assert info.value.offset == len(f"<html>{marker}</div>\n")

    @pytest.mark.parametrize("kind, marker", [
        (LABEL_SEARCH, LABEL_MARKER), (AUTHOR_PROFILE, PROFILE_MARKER),
    ], ids=["label", "profile"])
    def test_overlong_character_reference_raises_parse_error(self, kind, marker):
        raw = make_raw(kind, "optics", f"<html>{marker}</div>&#{'9' * 5000};</html>")
        with pytest.raises(ParseError, match="malformed markup") as info:
            parse_label_page(raw, "optics") if kind == LABEL_SEARCH else parse_author_page(raw)
        assert info.value.offset == len(f"<html>{marker}</div>")

    @settings(max_examples=300, deadline=None)
    @given(before=BODIES, after=BODIES)
    def test_label_page_fuzz(self, before, after):
        raw = make_raw(LABEL_SEARCH, "optics", before + LABEL_MARKER + after)
        try:
            parse_label_page(raw, "optics")
        except ParseError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(before=BODIES, after=BODIES)
    def test_profile_page_fuzz(self, before, after):
        raw = make_raw(AUTHOR_PROFILE, "A_X", before + PROFILE_MARKER + after)
        try:
            parse_author_page(raw)
        except ParseError:
            pass


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
