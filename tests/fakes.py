"""In-memory page corpus for property tests: no filesystem, same HTML shape
as the bundled fixtures."""

from __future__ import annotations

import random

from scholar_sounder.errors import PageMissingError
from scholar_sounder.fetcher import LABEL_SEARCH, RawPage

from htmlgen import render_label_page, render_profile_page
from sounding_reference import UNLINKED, listed_name


class InMemoryCorpus:
    def __init__(self):
        self.label_pages: dict[tuple[str, int], str] = {}
        self.profiles: dict[str, str] = {}

    def add_label_page(self, tag, index, html):
        self.label_pages[(tag, index)] = html

    def add_profile(self, author_id, html):
        self.profiles[author_id] = html

    def fetch(self, request, token=None) -> RawPage:
        if request.kind == LABEL_SEARCH:
            html = self.label_pages.get((request.key, request.page_index))
        else:
            html = self.profiles.get(request.key)
        if html is None:
            raise PageMissingError(f"<memory:{request.key}/{request.page_index}>")
        return RawPage(request=request, body=html.encode("utf-8"), source="fixture")

    def write_tree(self, root):
        """Write the pages as a fixture tree: labels/<tag>/<n>.html and authors/<id>.html."""
        files = {f"labels/{tag}/{index}.html": html for (tag, index), html in self.label_pages.items()}
        files.update({f"authors/{aid}.html": html for aid, html in self.profiles.items()})
        for name, html in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(html, "utf-8")


def render_corpus(corpus) -> InMemoryCorpus:
    """A ``sounding_reference.Corpus`` as result pages, each but the last of
    a tag naming a next page, and a profile page per author that has one."""
    shown = {aid: (a.name, list(a.labels), a.cited_by) for aid, a in corpus.authors.items()}
    memory = InMemoryCorpus()
    for tag, pages in corpus.pages.items():
        for index, ids in enumerate(pages):
            token = f"{tag}-{index + 1}" if index + 1 < len(pages) else None
            memory.add_label_page(tag, index, render_label_page(tag, ids, token, authors=shown))
    for aid, a in corpus.authors.items():
        if a.has_profile:
            listed = [
                (None if c.startswith(UNLINKED) else c, listed_name(corpus, c)) for c in a.coauthors
            ]
            html = render_profile_page(aid, a.name, list(a.labels), a.cited_by, a.h_index, listed)
            memory.add_profile(aid, html)
    return memory


def random_label_corpus(rng: random.Random, n_tags: int = 50, theme_words=("optics", "laser")):
    """Random tag universe and label pages; roughly half the tags match the
    theme words. Returns (corpus, tags)."""
    tags = []
    for i in range(n_tags):
        if rng.random() < 0.5:
            tags.append(f"field{i:02d}_{rng.choice(theme_words)}")
        else:
            tags.append(f"area{i:02d}_studies")
    authors = {}
    for j in range(30):
        aid = f"R{j:03d}"
        labels = rng.sample(tags, rng.randint(1, 5))
        authors[aid] = (f"Researcher {j}", [t.replace("_", " ").title() for t in labels], rng.randint(0, 500))
    corpus = InMemoryCorpus()
    for tag in tags:
        carrying = [
            aid
            for aid, (_, labels, _) in authors.items()
            if tag in [l.lower().replace(" ", "_") for l in labels]
        ]
        if carrying and rng.random() < 0.8:
            corpus.add_label_page(tag, 0, render_label_page(tag, carrying, authors=authors))
    return corpus, tags


def random_profile_corpus(rng: random.Random, n_authors: int = 12):
    """Random author universe with profile pages listing random co-authors.
    Returns (corpus, seed summaries)."""
    from scholar_sounder.parser import AuthorSummary

    ids = [f"P{j:03d}" for j in range(n_authors)]
    corpus = InMemoryCorpus()
    for aid in ids:
        if rng.random() < 0.2:
            continue  # some profiles missing -> failed fetches
        coauthors = [
            (cid, f"Author {cid}")
            for cid in rng.sample(ids, rng.randint(0, min(4, n_authors - 1)))
            if cid != aid
        ]
        html = render_profile_page(
            aid, f"Author {aid}", ["Optics"], rng.randint(0, 100), rng.randint(0, 20), coauthors
        )
        corpus.add_profile(aid, html)
    n_seeds = rng.randint(1, max(1, n_authors // 2))
    seeds = [
        AuthorSummary(author_id=aid, name=f"Author {aid}", labels=["optics"])
        for aid in rng.sample(ids, n_seeds)
    ]
    return corpus, seeds
