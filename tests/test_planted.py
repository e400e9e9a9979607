"""Planted corpora sounded end to end: ``all`` in fixture mode over about 720
generated pages, scored against the areas the generator planted."""

import json
import math

import pytest

from scholar_sounder.cli import main

from fakes import render_corpus
from planted import THEME, nmi, planted_corpus

SEEDS = [1, 2, 3]


@pytest.fixture(scope="module", params=SEEDS, ids=[f"seed{s}" for s in SEEDS])
def planted_run(request, tmp_path_factory):
    """A planted corpus and the output directory of ``all`` run over it,
    with one base tag per area and enough depth to visit every tag."""
    planted = planted_corpus(request.param)
    root = tmp_path_factory.mktemp("planted")
    render_corpus(planted.corpus).write_tree(root / "tree")
    config = {
        "base_tags": sorted({tag for tag in planted.tag_area if tag.endswith(f"t00_{THEME}")}),
        "dictionary": [THEME],
        "depth": 25,
        "fetch": {"mode": "fixture", "fixtures_dir": str(root / "tree")},
    }
    (root / "config.json").write_text(json.dumps(config), "utf-8")
    assert main(["all", "--config", str(root / "config.json"), "--out", str(root / "out")]) == 0
    return planted, root / "out"


class TestNmi:
    def test_equal_partitions_up_to_names_score_one(self):
        assert nmi({1: "a", 2: "a", 3: "b"}, {1: 7, 2: 7, 3: 8}) == pytest.approx(1.0)

    def test_independent_partitions_score_zero(self):
        assert nmi({v: v // 2 for v in range(4)}, {v: v % 2 for v in range(4)}) == pytest.approx(0.0)

    def test_two_of_four_areas_merged(self):
        # H(found) = 1.5 bits, H(planted) = 2 bits, I = 1.5 bits: 2 * 1.5 / 3.5.
        found = {v: min(v // 2, 2) for v in range(8)}
        assert nmi(found, {v: v // 2 for v in range(8)}) == pytest.approx(3 / 3.5)

    def test_one_cluster_each(self):
        assert nmi({1: 0, 2: 0}, {1: 5, 2: 5}) == 1.0
        assert math.isclose(nmi({1: 0, 2: 0}, {1: 5, 2: 6}), 0.0, abs_tol=1e-12)


class TestPlantedCorpus:
    def test_same_seed_same_corpus(self):
        assert planted_corpus(5) == planted_corpus(5)
        assert planted_corpus(5) != planted_corpus(6)

    def test_parameters_shape_the_corpus(self):
        planted = planted_corpus(4, areas=3, tags_per_area=5, authors=50, two_area_share=1.0)
        assert sorted(set(planted.tag_area.values())) == [0, 1, 2]
        assert len(planted.tag_area) == 15 and len(planted.corpus.authors) == 50
        assert all(len(areas) == 2 and areas[0] != areas[1] for areas in planted.author_areas.values())
        for aid, author in planted.corpus.authors.items():
            assert author.labels and aid not in author.coauthors
            for other in author.coauthors:  # links are mutual
                assert aid in planted.corpus.authors[other].coauthors

    def test_own_label_one_keeps_every_label_in_the_authors_areas(self):
        planted = planted_corpus(4, own_label=1.0)
        for aid, author in planted.corpus.authors.items():
            assert {planted.tag_area[tag] for tag in author.labels} <= set(planted.author_areas[aid])


class TestSoundedPlantedCorpus:
    def test_every_planted_tag_is_visited(self, planted_run):
        planted, out = planted_run
        rows = (out / "trace.tsv").read_text("utf-8").splitlines()[1:]
        visited = [row.split("\t")[2] for row in rows]
        assert sorted(visited) == sorted(planted.tag_area)

    @pytest.mark.parametrize("network", ["notion", "coauthors"])
    def test_the_exported_networks_hold_the_planted_areas(self, planted_run, network):
        # networkx Louvain finds the areas in the graphs the run exports. The
        # run's own communities are scored in CHANGES.md, not bounded here.
        nx = pytest.importorskip("networkx")
        planted, out = planted_run
        areas = planted.tag_area if network == "notion" else {
            aid: own[0] for aid, own in planted.author_areas.items()}
        graph = nx.read_graphml(out / f"{network}.graphml")
        found = nx.community.louvain_communities(graph, weight="weight", seed=0)
        assignment = {node: i for i, community in enumerate(found) for node in community}
        assert nmi(assignment, areas) >= (0.9 if network == "notion" else 0.6)
