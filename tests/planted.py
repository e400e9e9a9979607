"""Planted corpora: seeded ``sounding_reference.Corpus`` instances whose tags
and authors belong to known subject areas, so that tests can score how well
the analyses recover them, and the NMI score that does it.

Area ``k`` holds ``tags_per_area`` tags ``a<k>_t<j>_optics``, all matching the
theme word ``optics``. Each author has a primary area, and with probability
``two_area_share`` a second one. An author draws 1 to 5 labels (a profile
lists at most five interests), each from one of the author's areas with
probability ``own_label``, else from any area. An author starts 2 to 6
co-author links. Each closes a triangle (a co-author's co-author) with
probability ``closure``; otherwise it stays in the primary area with
probability ``in_area_link``. Links are mutual, and each tag has one result
page that lists every author who carries it."""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass

from sounding_reference import Author, Corpus

THEME = "optics"


@dataclass
class Planted:
    corpus: Corpus
    tag_area: dict[str, int]
    author_areas: dict[str, tuple[int, ...]]  # the primary area first


def planted_corpus(seed: int, areas: int = 6, tags_per_area: int = 20, authors: int = 600,
                   two_area_share: float = 0.2, own_label: float = 0.9,
                   in_area_link: float = 0.85, closure: float = 0.3) -> Planted:
    rng = random.Random(seed)
    tags = [[f"a{k}_t{j:02d}_{THEME}" for j in range(tags_per_area)] for k in range(areas)]
    tag_area = {tag: k for k, area_tags in enumerate(tags) for tag in area_tags}
    ids = [f"P{i:04d}" for i in range(authors)]
    author_areas = {}
    for aid in ids:
        primary = rng.randrange(areas)
        second = (primary + rng.randrange(1, areas)) % areas
        author_areas[aid] = (primary, second) if rng.random() < two_area_share else (primary,)
    members = {k: [aid for aid in ids if author_areas[aid][0] == k] for k in range(areas)}
    labels = {}
    for aid in ids:
        drawn = []
        for _ in range(rng.randint(1, 5)):
            area = rng.choice(author_areas[aid]) if rng.random() < own_label else rng.randrange(areas)
            drawn.append(rng.choice(tags[area]))
        labels[aid] = tuple(dict.fromkeys(drawn))
    links: dict[str, dict[str, None]] = {aid: {} for aid in ids}  # insertion-ordered sets
    for aid in ids:
        for _ in range(rng.randint(2, 6)):
            reachable = [c for via in links[aid] for c in links[via] if c != aid]
            if reachable and rng.random() < closure:
                other = rng.choice(reachable)
            else:
                area = author_areas[aid][0] if rng.random() < in_area_link else rng.randrange(areas)
                other = rng.choice(members[area] or ids)
            if other != aid:
                links[aid][other] = links[other][aid] = None
    corpus = Corpus(
        pages={tag: [[aid for aid in ids if tag in labels[aid]]] for tag in tag_area},
        authors={aid: Author(name=f"Author {aid}", labels=labels[aid], cited_by=rng.randrange(1000),
                             h_index=rng.randrange(60), coauthors=tuple(links[aid]))
                 for aid in ids},
    )
    return Planted(corpus, tag_area, author_areas)


def nmi(found: dict, planted: dict) -> float:
    """The normalized mutual information of two partitions of ``found``'s
    nodes, each a node -> cluster mapping (Danon, Díaz-Guilera, Duch and
    Arenas, J. Stat. Mech. P09008, 2005): 1 when they agree up to the names
    of the clusters, 0 when they are independent."""
    n = len(found)
    joint = Counter((found[v], planted[v]) for v in found)
    sizes_a, sizes_b = Counter(found.values()), Counter(planted[v] for v in found)
    mutual = sum(m * math.log(m * n / (sizes_a[a] * sizes_b[b])) for (a, b), m in joint.items())
    entropy = -sum(m * math.log(m / n) for sizes in (sizes_a, sizes_b) for m in sizes.values())
    return 2 * mutual / entropy if entropy else 1.0
