import random

from scholar_sounder.config import build_config
from scholar_sounder.coauthor_graph import seed_authors, sound_authors
from scholar_sounder.notion_graph import fetch_label_pages
from scholar_sounder.parser import AuthorSummary, parse_author_page, parse_label_page

from conftest import load_golden
from fakes import InMemoryCorpus, random_profile_corpus
from htmlgen import render_profile_page


def memory_config(**overrides):
    data = {
        "base_tags": overrides.pop("base_tags", ["physical_optics"]),
        "dictionary": ["optics"],
        "fetch": {"mode": "fixture", "fixtures_dir": "."},
    }
    data.update(overrides)
    return build_config(data)


def simple_corpus():
    """Seed A lists B and C; B lists A back; C has no profile."""
    corpus = InMemoryCorpus()
    corpus.add_profile(
        "A", render_profile_page("A", "Author A", ["Optics"], 10, 3,
                                 [("B", "Author B"), ("C", "Author C")])
    )
    corpus.add_profile(
        "B", render_profile_page("B", "Author B", ["Optics"], 5, 2, [("A", "Author A")])
    )
    seeds = [AuthorSummary(author_id="A", name="Author A", labels=["optics"])]
    return corpus, seeds


def fetched_pages(config, fetcher):
    """``seed_authors``' page source that fetches each base tag's pages."""
    return lambda tag: fetch_label_pages(tag, config, fetcher.fetch, parse_label_page)


class TestSeedAuthors:
    def test_physical_optics_seeds(self, optics_config, fixture_fetcher):
        seeds = seed_authors(optics_config, fetched_pages(optics_config, fixture_fetcher))
        assert len(seeds) == 8
        by_name = {s.name: s for s in seeds}
        assert by_name["Vlokh Rostyslav"].labels == ["physical_optics"]

    def test_shared_author_appears_once(self, fixture_fetcher):
        config = memory_config(base_tags=["physical_optics", "singular_optics"])
        config.fetch = fixture_fetcher.policy
        seeds = seed_authors(config, fetched_pages(config, fixture_fetcher))
        ids = [s.author_id for s in seeds]
        assert len(ids) == len(set(ids))
        assert ids.count("A_SKAB") == 1
        # singular_optics contributes only the one author not already seeded
        assert "A_DENNIS" in ids

    def test_empty_page_contributes_nothing(self, fixture_fetcher):
        config = memory_config(base_tags=["no_such_tag"])
        config.fetch = fixture_fetcher.policy
        assert seed_authors(config, fetched_pages(config, fixture_fetcher)) == []


class TestSoundAuthors:
    def test_hop_zero_semantics(self):
        corpus, seeds = simple_corpus()
        config = memory_config(hop_limit=0)
        net = sound_authors(config, corpus.fetch, parse_author_page, seeds=seeds)
        assert set(net.nodes) == {"A", "B", "C"}
        assert net.edges == {("A", "B"): 1, ("A", "C"): 1}
        assert net.nodes["B"]["stub"] and net.nodes["C"]["stub"]
        assert net.nodes["B"]["hop"] == 1 == net.nodes["C"]["hop"]

    def test_reciprocal_listing_gives_weight_two(self):
        corpus, seeds = simple_corpus()
        config = memory_config(hop_limit=1)
        net = sound_authors(config, corpus.fetch, parse_author_page, seeds=seeds)
        assert net.edges[("A", "B")] == 2
        assert net.edges[("A", "C")] == 1
        # C's profile is missing: kept as a flagged stub
        assert net.nodes["C"]["stub"] and net.nodes["C"]["fetch_failed"]

    def test_golden_network(self, optics_config, fixture_fetcher):
        net = sound_authors(
            optics_config,
            fixture_fetcher.fetch,
            parse_author_page,
            parse_label=parse_label_page,
        )
        assert net.to_canonical_dict() == load_golden("coauthor_network.json")
        assert net.report.profiles_fetched == 6
        assert net.report.reciprocal_edges == 3

    def test_hop_limit_zero_fetches_only_seeds(self, optics_config, fixture_fetcher):
        optics_config.hop_limit = 0
        net = sound_authors(
            optics_config,
            fixture_fetcher.fetch,
            parse_author_page,
            parse_label=parse_label_page,
        )
        # A_BANDRES is discovered from A_CHAVEZ's profile but never fetched
        assert net.nodes["A_BANDRES"]["stub"]
        assert net.nodes["A_BANDRES"]["hop"] == 1

    def test_author_cap_bounds_expansion(self):
        corpus = InMemoryCorpus()
        for i in range(10):
            coauthors = [(f"N{j}", f"Author N{j}") for j in range(i * 3, i * 3 + 3)]
            corpus.add_profile(
                f"N{i}", render_profile_page(f"N{i}", f"Author N{i}", ["Optics"], 1, 1, coauthors)
            )
        seeds = [AuthorSummary(author_id="N0", name="Author N0", labels=["optics"])]
        config = memory_config(hop_limit=5, author_cap=4)
        net = sound_authors(config, corpus.fetch, parse_author_page, seeds=seeds)
        fetched = [n for n in net.nodes.values() if not n["stub"]]
        assert len(fetched) <= config.author_cap
        assert len(net.nodes) <= config.author_cap
        assert all(a in net.nodes and b in net.nodes for a, b in net.edges)

    def test_author_cap_bounds_seeds(self):
        corpus, seeds = simple_corpus()
        seeds = seeds + [AuthorSummary(author_id=f"S{i}", name=f"S{i}", labels=[]) for i in range(3)]
        net = sound_authors(memory_config(author_cap=2), corpus.fetch, parse_author_page, seeds=seeds)
        assert set(net.nodes) == {"A", "S0"}
        assert net.edges == {}

    def test_invariants_on_random_networks(self):
        """Symmetry (canonical pair storage), no self-loops, hop and weight
        bounds, over 200 random profile corpora."""
        for trial in range(200):
            rng = random.Random(5000 + trial)
            corpus, seeds = random_profile_corpus(rng)
            config = memory_config(hop_limit=rng.randint(0, 2))
            net = sound_authors(config, corpus.fetch, parse_author_page, seeds=seeds)
            seen_pairs = set()
            for (a, b), w in net.edges.items():
                assert a < b, "edges must be stored under canonical ordering"
                assert a != b
                assert (b, a) not in seen_pairs
                seen_pairs.add((a, b))
                assert a in net.nodes and b in net.nodes
                assert w in (1, 2)
                if w == 2:
                    assert not net.nodes[a]["stub"] and not net.nodes[b]["stub"]
            for node in net.nodes.values():
                if not node["stub"]:
                    assert node["hop"] <= config.hop_limit
                else:
                    assert node["hop"] == config.hop_limit + 1 or node["fetch_failed"]

    def test_determinism(self, optics_config, fixture_fetcher):
        run = lambda: sound_authors(
            optics_config,
            fixture_fetcher.fetch,
            parse_author_page,
            parse_label=parse_label_page,
        ).to_canonical_dict()
        assert run() == run()
