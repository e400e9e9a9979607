"""Seeded synthetic inputs for the benchmark.

``build_fixture_tree`` writes a service-shaped page corpus (label pages and
author profiles) in the layout fixture mode reads; the replay and crawl-live
workloads use it. ``build_gexf`` writes the co-author-shaped graph the
analyze-large workload loads. The same seed gives byte-identical inputs.

Pages are rendered by ``tests/htmlgen.py``, the renderer of the bundled
fixtures, so the benchmark corpus has exactly the shape the parser is tested
against.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from scholar_sounder.analysis import Graph
from scholar_sounder.export import make_bundle, to_gexf
from scholar_sounder.parser import normalize_tag

# Theme dictionary of the sounding config; tags containing one of these
# words are the ones sound_tags may expand into.
DICTIONARY = ["optics", "optical", "photonics", "laser"]
N_BASE_TAGS = 8
PAGE_SIZE = 10          # author entries per label results page
MAX_PAGES = 5           # pages rendered per tag (the fetch budget per tag)
MAX_SIDEBAR = 20        # co-authors listed on one profile

N_AUTHORS = 1000
N_TAGS = 350
TAG_EXPONENT = 1.1      # Zipf exponent of tag popularity
THEME_EVERY = 3         # every third popularity rank is a theme tag
LABELS_PER_AUTHOR = (2, 5)
COAUTHOR_LINKS = (2, 3)  # preferential-attachment links per new author
MISSING_EVERY = 33      # every 33rd profile is missing (3%)
UNLINKED_SHARE = 0.10   # co-author entries without a profile link
LISTING_SHARE = 0.8     # chance a profile lists a given co-author

GEXF_NODES = 3000
GEXF_EDGES = 9000
GEXF_HEAVY_SHARE = 0.2  # edges of weight 2

CREATED_AT = "2016-05-07T00:00:00+00:00"

_SYLLABLES = [
    "ka", "lo", "mi", "ren", "sa", "to", "vi", "an", "el", "or", "du", "ne",
    "pa", "ri", "zu", "ho", "be", "ta", "li", "mo", "qu", "xe", "ya", "go",
]
_FIELDS = [
    "Nonlinear", "Quantum", "Fiber", "Ultrafast", "Integrated", "Biomedical",
    "Adaptive", "Singular", "Computational", "Atmospheric", "Nano", "Crystal",
    "Plasma", "Statistical", "Applied", "Wave", "Guided", "Terahertz",
]
_OTHER = [
    "Chemistry", "Materials", "Condensed Matter", "Machine Learning", "Acoustics",
    "Topology", "Signal Processing", "Metrology", "Spectroscopy", "Biophysics",
    "Astronomy", "Mechanics", "Electronics", "Seismology", "Microscopy",
]


def load_htmlgen(root: Path):
    """Import the fixture renderer from the repository's tests directory."""
    path = root / "tests" / "htmlgen.py"
    spec = importlib.util.spec_from_file_location("htmlgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _name(rng: random.Random, index: int) -> str:
    first = "".join(rng.choice(_SYLLABLES) for _ in range(2)).title()
    last = "".join(rng.choice(_SYLLABLES) for _ in range(3)).title()
    return f"{first} {last} {index}"


def _tag_labels(rng: random.Random) -> list[str]:
    """Display labels in popularity-rank order, each normalizing to a
    distinct canonical tag. Theme tags sit at fixed ranks, so the popularity
    of the tags sound_tags can expand into does not vary with the seed."""
    labels = []
    for rank in range(N_TAGS):
        if rank % THEME_EVERY == 0:
            labels.append(f"{rng.choice(_FIELDS)} {rng.choice(DICTIONARY).title()} {rank}")
        else:
            labels.append(f"{rng.choice(_OTHER)} {rank}")
    return labels


def _draw_labels(rng: random.Random, labels: list[str], cum_weights: list[float], k: int) -> list[str]:
    chosen: list[str] = []
    while len(chosen) < k:
        label = rng.choices(labels, cum_weights=cum_weights)[0]
        if label not in chosen:
            chosen.append(label)
    return chosen


def _coauthor_edges(rng: random.Random, n: int, links: tuple[int, int]) -> list[set[int]]:
    """Preferential attachment: each author links to earlier authors chosen
    in proportion to their degree (plus one)."""
    adj: list[set[int]] = [set() for _ in range(n)]
    targets: list[int] = [0]
    for i in range(1, n):
        want = min(i, rng.randint(*links))
        picked: set[int] = set()
        while len(picked) < want:
            picked.add(rng.choice(targets))
        for j in picked:
            adj[i].add(j)
            adj[j].add(i)
            targets.append(j)
        targets.extend([i] * (len(picked) + 1))
    return adj


def build_fixture_tree(root: Path, seed: int, out: Path) -> dict:
    """Write ``labels/<tag>/<n>.html`` and ``authors/<id>.html`` under
    ``out`` and return the sounding config (without the fetch section)
    plus corpus counts."""
    htmlgen = load_htmlgen(root)
    rng = random.Random(seed)

    tag_labels = _tag_labels(rng)
    weights = [1.0 / (rank + 1) ** TAG_EXPONENT for rank in range(N_TAGS)]
    cum, total = [], 0.0
    for w in weights:
        total += w
        cum.append(total)

    ids = [f"U{seed % 1000:03d}{i:05d}" for i in range(N_AUTHORS)]
    authors = {}
    for i, aid in enumerate(ids):
        labels = _draw_labels(rng, tag_labels, cum, rng.randint(*LABELS_PER_AUTHOR))
        cited_by = int(rng.paretovariate(1.2) * 40)
        authors[aid] = (_name(rng, i), labels, cited_by)

    carriers: dict[str, list[str]] = {}
    for aid, (_, labels, _) in authors.items():
        for label in labels:
            carriers.setdefault(label, []).append(aid)
    label_pages = 0
    for label, aids in carriers.items():
        aids.sort(key=lambda a: (-authors[a][2], a))
        tag = normalize_tag(label)
        page_dir = out / "labels" / tag
        page_dir.mkdir(parents=True)
        chunks = [aids[i:i + PAGE_SIZE] for i in range(0, len(aids), PAGE_SIZE)][:MAX_PAGES]
        for index, chunk in enumerate(chunks):
            more = (index + 1) * PAGE_SIZE < len(aids)
            token = f"{tag}-after-{index + 1}" if more else None
            html = htmlgen.render_label_page(tag, chunk, next_token=token, authors=authors)
            (page_dir / f"{index}.html").write_text(html, "utf-8")
            label_pages += 1

    adj = _coauthor_edges(rng, N_AUTHORS, COAUTHOR_LINKS)
    author_dir = out / "authors"
    author_dir.mkdir(parents=True)
    profiles = 0
    for i, aid in enumerate(ids):
        if i % MISSING_EVERY == MISSING_EVERY // 2:
            continue  # the service has no such profile
        name, labels, cited_by = authors[aid]
        listed = []
        for j in sorted(adj[i], key=lambda j: (-authors[ids[j]][2], j)):
            if rng.random() >= LISTING_SHARE:
                continue
            coname = authors[ids[j]][0]
            linked = rng.random() >= UNLINKED_SHARE
            listed.append((ids[j] if linked else None, coname))
            if len(listed) == MAX_SIDEBAR:
                break
        html = htmlgen.render_profile_page(
            aid, name, labels, cited_by, rng.randint(1, 60), listed
        )
        (author_dir / f"{aid}.html").write_text(html, "utf-8")
        profiles += 1

    theme_tags = [normalize_tag(t) for t in tag_labels if t in carriers
                  and any(w in normalize_tag(t) for w in DICTIONARY)]
    return {
        "config": {
            "base_tags": theme_tags[:N_BASE_TAGS],
            "dictionary": DICTIONARY,
            "depth": 25,
            "hop_limit": 2,
            "author_cap": 20000,
        },
        "counts": {
            "authors": N_AUTHORS,
            "tags": len(carriers),
            "label_pages": label_pages,
            "profiles": profiles,
        },
    }


def build_gexf(seed: int, out: Path):
    """Write a co-author-shaped GEXF of exactly ``GEXF_NODES`` nodes and
    ``GEXF_EDGES`` edges, ``GEXF_HEAVY_SHARE`` of them with weight 2, through
    the package's own ``make_bundle`` and ``to_gexf``. Returns the bundle."""
    rng = random.Random(seed)
    ids = [f"G{seed % 1000:03d}{i:05d}" for i in range(GEXF_NODES)]
    graph = Graph()
    for i, aid in enumerate(ids):
        stub = rng.random() < 0.3
        attrs = {
            "name": _name(rng, i),
            "labels": "|".join(f"topic_{rng.randrange(400)}_optics" for _ in range(rng.randint(1, 4))),
            "hop": rng.randint(0, 3),
            "stub": stub,
            "fetch_failed": stub and rng.random() < 0.1,
            "cited_by": int(rng.paretovariate(1.2) * 40),
        }
        if not stub:
            attrs["h_index"] = rng.randint(1, 60)
        graph.add_node(aid, **attrs)
    # Preferential attachment up to the edge budget keeps the degree
    # distribution co-author-like; every node joins with at least one edge.
    targets = [0]
    for i in range(1, GEXF_NODES):
        j = rng.choice(targets)
        graph.add_edge(ids[i], ids[j], 1)
        targets.extend([i, j])
    while len(graph.edges) < GEXF_EDGES:
        a, b = rng.choice(targets), rng.choice(targets)
        if a == b or (min(ids[a], ids[b]), max(ids[a], ids[b])) in graph.edges:
            continue
        graph.add_edge(ids[a], ids[b], 1)
        targets.extend([a, b])
    pairs = sorted(graph.edges)
    for pair in rng.sample(pairs, int(GEXF_HEAVY_SHARE * len(pairs))):
        graph.edges[pair] = 2
    bundle = make_bundle(graph, config_digest=f"bench-seed-{seed}",
                         tool_version="scholar-sounder bench", created_at=CREATED_AT)
    out.write_text(to_gexf(bundle), "utf-8")
    return bundle

