import json
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from scholar_sounder.analysis import canonical_pair
from scholar_sounder.config import build_config
from scholar_sounder.errors import FetchError, PageMissingError, SoundingError
from scholar_sounder.export import make_bundle
from scholar_sounder.notion_graph import (
    EDGE_POLICY_CLIQUE,
    NotionNetwork,
    absorb_label_page,
    fetch_label_pages,
    select_next_tag,
    sound_tags,
    theme_matches,
)
from scholar_sounder.fetcher import LABEL_SEARCH, PageRequest
from scholar_sounder.parser import AuthorSummary, LabelPage, normalize_tag, parse_label_page

from conftest import load_golden
from fakes import random_label_corpus

OPTICS_DICT = ["optics", "optical", "photonics", "laser"]


def label_page(tag, author_labels):
    """LabelPage from bare label lists; author ids are positional."""
    authors = [
        AuthorSummary(author_id=f"A{i}", name=f"Author {i}", labels=labels)
        for i, labels in enumerate(author_labels)
    ]
    return LabelPage(queried_tag=tag, authors=authors)


def memory_config(dictionary=OPTICS_DICT, **overrides):
    data = {
        "base_tags": overrides.pop("base_tags", ["physical_optics"]),
        "dictionary": dictionary,
        "fetch": {"mode": "fixture", "fixtures_dir": "."},
    }
    data.update(overrides)
    return build_config(data)


class TestThemeMatches:
    @pytest.mark.parametrize(
        "tag,expected",
        [
            ("quantum_optics", True),
            ("seismology", False),
            ("optical_solitons", True),
            ("lasers", True),
            ("photonics", True),
            ("topology", False),
        ],
    )
    def test_examples(self, tag, expected):
        assert theme_matches(tag, OPTICS_DICT) is expected


class TestAbsorbLabelPage:
    def test_physical_optics_fixture_weights(self, fixture_fetcher):
        from scholar_sounder.fetcher import LABEL_SEARCH, PageRequest

        raw = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "physical_optics", 0))
        page = parse_label_page(raw, "physical_optics")
        net = NotionNetwork()
        net.ensure_node("physical_optics")
        absorb_label_page(net, page, "physical_optics")
        assert net.edges[canonical_pair("physical_optics", "optics")] == 2
        assert net.edges[canonical_pair("physical_optics", "polarization")] == 1
        assert net.nodes["physical_optics"]["visited"] is True

    def test_empty_page_only_marks_visited(self):
        net = NotionNetwork()
        net.ensure_node("optics")
        absorb_label_page(net, label_page("optics", []), "optics")
        assert net.nodes["optics"]["visited"] is True
        assert len(net.nodes) == 1
        assert net.edges == {}

    def test_entry_with_only_current_label_adds_nothing(self):
        net = NotionNetwork()
        net.ensure_node("optics")
        absorb_label_page(net, label_page("optics", [["optics"]]), "optics")
        assert len(net.nodes) == 1
        assert net.edges == {}

    def test_monotonicity(self):
        net = NotionNetwork()
        net.ensure_node("optics")
        absorb_label_page(net, label_page("optics", [["optics", "lasers"]]), "optics")
        rates = {t: s["rate"] for t, s in net.nodes.items()}
        weights = dict(net.edges)
        absorb_label_page(net, label_page("optics", [["optics", "lasers", "holography"]]), "optics")
        for tag, rate in rates.items():
            assert net.nodes[tag]["rate"] >= rate
        for pair, w in weights.items():
            assert net.edges[pair] >= w

    def test_clique_policy_links_all_pairs(self):
        net = NotionNetwork()
        net.ensure_node("optics")
        page = label_page("optics", [["optics", "lasers", "holography"]])
        absorb_label_page(net, page, "optics", edge_policy=EDGE_POLICY_CLIQUE)
        assert net.edges[canonical_pair("lasers", "holography")] == 1
        assert net.edges[canonical_pair("optics", "lasers")] == 1
        assert net.edges[canonical_pair("optics", "holography")] == 1


class TestSelectNextTag:
    def test_rate_beats_lower_rates_theme_filter_applies(self, fixture_fetcher):
        from scholar_sounder.fetcher import LABEL_SEARCH, PageRequest

        raw = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "physical_optics", 0))
        page = parse_label_page(raw, "physical_optics")
        net = NotionNetwork()
        net.ensure_node("physical_optics")
        absorb_label_page(net, page, "physical_optics")
        # interferometry also has rate 2 but fails the theme dictionary
        assert net.nodes["interferometry"]["rate"] == 2
        assert select_next_tag(net, OPTICS_DICT) == "optics"

    def test_exhausted_frontier(self):
        net = NotionNetwork()
        net.ensure_node("optics")["visited"] = True
        assert select_next_tag(net, OPTICS_DICT) is None

    def test_lexicographic_tie_break(self):
        net = NotionNetwork()
        for tag in ("crystal_optics", "acoustooptics"):
            net.ensure_node(tag)["rate"] = 1
        assert select_next_tag(net, OPTICS_DICT) == "acoustooptics"

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.text(alphabet="aciopst_", max_size=8),
            st.tuples(st.integers(0, 4), st.booleans()),
            max_size=25,
        ),
        st.lists(st.sampled_from(["optics", "op", "tic", "a", "_", ""]), max_size=3),
    )
    def test_matches_sorted_scan(self, nodes, dictionary):
        net = NotionNetwork()
        for tag, (rate, visited) in nodes.items():
            net.ensure_node(tag).update(rate=rate, visited=visited)
        assert select_next_tag(net, dictionary) == sorted_scan(net, dictionary)


def sorted_scan(net, dictionary):
    """Brute-force oracle: every tag in sorted order, the first of the
    highest rate among the unvisited theme matches."""
    best, best_rate = None, -1
    for tag in sorted(net.nodes):
        attrs = net.nodes[tag]
        if not attrs["visited"] and theme_matches(tag, dictionary) and attrs["rate"] > best_rate:
            best, best_rate = tag, attrs["rate"]
    return best


class TestFetchLabelPages:
    """fetch_label_pages decides what a failed tag page does."""

    def failing_at_page_one(self, fixture_fetcher, error):
        def fetch(request, token=None):
            if request.page_index == 1:
                raise error
            return fixture_fetcher.fetch(request, token)

        return fetch

    def test_a_fetch_error_after_page_zero_aborts_naming_the_tag(self, fixture_fetcher):
        error = FetchError("connection refused")
        fetch = self.failing_at_page_one(fixture_fetcher, error)
        config = memory_config(base_tags=["quantum_optics"])
        with pytest.raises(SoundingError, match="'quantum_optics'") as info:
            fetch_label_pages("quantum_optics", config, fetch, parse_label_page)
        assert info.value.__cause__ is error

    def test_a_missing_page_after_page_zero_ends_the_tags_pages(self, fixture_fetcher):
        fetch = self.failing_at_page_one(fixture_fetcher, PageMissingError("1.html"))
        config = memory_config(base_tags=["quantum_optics"])
        pages = fetch_label_pages("quantum_optics", config, fetch, parse_label_page)
        first = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "quantum_optics", 0))
        assert pages == [parse_label_page(first, "quantum_optics")]
        assert pages[0].next_page_token  # page 0 names a page 1


class TestSoundTags:
    def test_golden_run(self, optics_config, fixture_fetcher):
        net = sound_tags(optics_config, fixture_fetcher.fetch, parse_label_page)
        golden = load_golden("notion_network.json")
        assert net.to_canonical_dict() == golden["network"]
        bundle_form = make_bundle(net).canonical_form()
        del bundle_form["metadata"]
        assert bundle_form == net.to_canonical_dict()
        assert [json.loads(json.dumps(asdict(r))) for r in net.trace] == golden["trace"]
        assert [r.visited_tag for r in net.trace][:2] == ["physical_optics", "optics"]

    def test_depth_one_visits_only_base_tag(self, optics_config, fixture_fetcher):
        optics_config.depth = 1
        net = sound_tags(optics_config, fixture_fetcher.fetch, parse_label_page)
        assert [r.visited_tag for r in net.trace] == ["physical_optics"]
        visited = [t for t, s in net.nodes.items() if s["visited"]]
        assert visited == ["physical_optics"]

    def test_base_tag_without_pages(self, fixture_fetcher):
        config = memory_config(base_tags=["dark_matter"])
        config.fetch = fixture_fetcher.policy
        net = sound_tags(config, fixture_fetcher.fetch, parse_label_page)
        assert set(net.nodes) == {"dark_matter"}
        stats = net.nodes["dark_matter"]
        assert stats["visited"] is True
        assert stats["rate"] == 0

    def test_determinism(self, optics_config, fixture_fetcher):
        a = sound_tags(optics_config, fixture_fetcher.fetch, parse_label_page)
        b = sound_tags(optics_config, fixture_fetcher.fetch, parse_label_page)
        assert a.to_canonical_dict() == b.to_canonical_dict()
        assert [asdict(r) for r in a.trace] == [asdict(r) for r in b.trace]

    def test_frontier_soundness(self, optics_config, fixture_fetcher):
        net = sound_tags(optics_config, fixture_fetcher.fetch, parse_label_page)
        base = set(optics_config.base_tags)
        for record in net.trace:
            if record.visited_tag not in base:
                assert theme_matches(record.visited_tag, optics_config.dictionary)

    def test_edge_evidence_recount(self, optics_config, fixture_fetcher):
        """Brute-force recount over the fetched pages reproduces every edge
        weight (star policy: one unit per (page, author entry) co-listing)."""
        net = sound_tags(optics_config, fixture_fetcher.fetch, parse_label_page)
        recount: dict = {}
        for record in net.trace:
            for index in range(record.pages_fetched):
                raw = fixture_fetcher.fetch(
                    PageRequest(LABEL_SEARCH, record.visited_tag, index)
                )
                page = parse_label_page(raw, record.visited_tag)
                for author in page.authors:
                    for tag in author.labels:
                        if tag != record.visited_tag:
                            pair = canonical_pair(record.visited_tag, tag)
                            recount[pair] = recount.get(pair, 0) + 1
        assert recount == net.edges

    def test_multiple_base_tags_merge_into_one_network(self, fixture_fetcher):
        config = memory_config(base_tags=["physical_optics", "wave_localization"], depth=1)
        config.fetch = fixture_fetcher.policy
        net = sound_tags(config, fixture_fetcher.fetch, parse_label_page)
        visited = sorted(t for t, s in net.nodes.items() if s["visited"])
        assert visited == ["physical_optics", "wave_localization"]
        assert "phase_space_techniques" in net.nodes

    def test_base_pages_hold_each_base_tags_pages_as_parsed(self, fixture_fetcher):
        # singular_optics is visited in physical_optics' expansion, before its own turn.
        config = memory_config(
            base_tags=["physical_optics", "singular_optics", "nonlinear_optics"], depth=4
        )
        config.fetch = fixture_fetcher.policy
        net = sound_tags(config, fixture_fetcher.fetch, parse_label_page)
        assert [r.base_tag for r in net.trace if r.visited_tag == "singular_optics"] == [
            "physical_optics"
        ]
        assert sorted(net.base_pages) == sorted(config.base_tags)
        for tag, pages in net.base_pages.items():
            assert pages == fetch_label_pages(tag, config, fixture_fetcher.fetch, parse_label_page)

    def test_requests_are_label_pages_of_normalized_tags_counting_from_zero(self, fixture_fetcher):
        """PageRequest itself checks nothing: the crawl asks only for label
        pages of normalized tags, each tag's pages in order from 0 and at most
        max_pages_per_label of them."""
        requests = []

        def fetch(request, token=None):
            requests.append(request)
            return fixture_fetcher.fetch(request, token)

        config = memory_config(base_tags=["physical_optics", "quantum_optics"])
        config.fetch = fixture_fetcher.policy
        sound_tags(config, fetch, parse_label_page)
        assert {r.kind for r in requests} == {LABEL_SEARCH}
        indices = {}
        for r in requests:
            assert r.key and normalize_tag(r.key) == r.key
            indices.setdefault(r.key, []).append(r.page_index)
        assert indices["quantum_optics"] == [0, 1]
        for pages in indices.values():
            assert pages == list(range(len(pages)))
            assert len(pages) <= config.fetch.max_pages_per_label

    def test_depth_bound_property(self):
        """Random corpora, random depths: per base tag, visited count <= depth."""
        for trial in range(100):
            rng = random.Random(1000 + trial)
            corpus, tags = random_label_corpus(rng)
            depth = rng.randint(1, 6)
            base = rng.choice(tags)
            config = memory_config(
                dictionary=["optics", "laser"], base_tags=[base], depth=depth
            )
            net = sound_tags(config, corpus.fetch, parse_label_page)
            assert len(net.trace) <= depth
            visited = [t for t, s in net.nodes.items() if s["visited"]]
            assert len(visited) <= depth
