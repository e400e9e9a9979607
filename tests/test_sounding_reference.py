"""Both soundings against the reference model on drawn abstract corpora:
missing profiles, unlinked co-authors, several base tags, small caps and
both edge policies."""

from dataclasses import astuple

from hypothesis import given, settings, strategies as st

from scholar_sounder.coauthor_graph import seed_authors, sound_authors
from scholar_sounder.config import build_config
from scholar_sounder.notion_graph import fetch_label_pages, sound_tags
from scholar_sounder.parser import parse_author_page, parse_label_page

from fakes import render_corpus
from sounding_reference import Author, Corpus, coauthor_network, notion_network, seed_ids

TAGS = ["a_optics", "b_optics", "c_laser", "d_laser_optics", "e_studies", "f_studies"]
IDS = [f"P{i}" for i in range(8)]
UNLINKED_IDS = ["name:u0", "name:u1"]
optional_counts = st.integers(-1, 99).map(lambda n: None if n < 0 else n)  # a count the page may omit


def subset(pool: list[str], mask: int) -> list[str]:
    """The items of ``pool`` whose bit is set in ``mask``, in pool order. One
    drawn integer per subset keeps generation cheap."""
    return [item for i, item in enumerate(pool) if mask >> i & 1]


@st.composite
def corpora(draw) -> Corpus:
    ids = IDS[: draw(st.integers(1, len(IDS)))]
    authors = {}
    for aid in ids:
        listable = [c for c in ids if c != aid] + UNLINKED_IDS
        authors[aid] = Author(
            name=f"Author {aid}",
            labels=tuple(subset(TAGS, draw(st.integers(0, 2 ** len(TAGS) - 1)))),
            cited_by=draw(optional_counts),
            h_index=draw(optional_counts),
            coauthors=tuple(subset(listable, draw(st.integers(0, 2 ** len(listable) - 1)))),
            has_profile=draw(st.integers(0, 4)) > 0,  # one in five profiles is missing
        )
    pages = {}
    for tag in TAGS:
        carriers = [aid for aid in ids if tag in authors[aid].labels]
        pages[tag] = [
            subset(carriers, draw(st.integers(0, 2 ** len(carriers) - 1)))
            for _ in range(draw(st.integers(0, 3)))
        ]
    return Corpus(pages=pages, authors=authors)


@st.composite
def config_data(draw) -> dict:
    """A config file's contents."""
    return {
        "base_tags": draw(st.lists(st.sampled_from(TAGS), min_size=1, max_size=3, unique=True)),
        "dictionary": ["optics", "laser"],
        "depth": draw(st.integers(1, 4)),
        "hop_limit": draw(st.integers(0, 2)),
        "author_cap": draw(st.integers(1, 10)),
        "edge_policy": draw(st.sampled_from(["star", "clique"])),
        "fetch": {
            "mode": "fixture", "fixtures_dir": ".",
            "max_pages_per_label": draw(st.integers(1, 3)),
        },
    }


def configs():
    return config_data().map(build_config)


@settings(max_examples=200, deadline=None)
@given(corpora(), configs())
def test_sound_tags_equals_the_reference(corpus, config):
    net = sound_tags(config, render_corpus(corpus).fetch, parse_label_page)
    network, trace = notion_network(corpus, config)
    assert net.to_canonical_dict() == network
    assert [astuple(r) for r in net.trace] == trace


@settings(max_examples=200, deadline=None)
@given(corpora(), configs())
def test_seed_authors_and_sound_authors_equal_the_reference(corpus, config):
    fetch = render_corpus(corpus).fetch
    seeds = seed_authors(config, lambda tag: fetch_label_pages(tag, config, fetch, parse_label_page))
    ids = seed_ids(corpus, config)
    assert [(s.author_id, s.name, s.labels, s.cited_by) for s in seeds] == [
        (aid, a.name, list(a.labels), a.cited_by) for aid, a in zip(ids, map(corpus.authors.get, ids))
    ]
    net = sound_authors(config, fetch, parse_author_page, parse_label=parse_label_page)
    network, counts = coauthor_network(corpus, config, ids)
    assert net.to_canonical_dict() == network
    assert vars(net.report) == counts
