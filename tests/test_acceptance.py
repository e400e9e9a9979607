"""Acceptance suite: one test per release criterion. Each test ends with a
single PASS line (visible with -s / on failure the assert is the FAIL line)."""

import json
import random
import time
from dataclasses import asdict

from scholar_sounder import bundled_fixtures_dir
from scholar_sounder.analysis import (
    canonical_pair, connected_components, detect_communities, indexed_adjacency, k_core,
)
from scholar_sounder.cli import main
from scholar_sounder.coauthor_graph import sound_authors
from scholar_sounder.config import build_config
from scholar_sounder.export import from_gexf, to_gexf
from scholar_sounder.fetcher import LABEL_SEARCH, FetchPolicy, Fetcher, PageRequest
from scholar_sounder.notion_graph import sound_tags
from scholar_sounder.parser import parse_author_page, parse_label_page

from conftest import LABEL_PAGE, export_run_file, load_golden, server_url
from fakes import random_label_corpus, random_profile_corpus
from test_analysis import (
    communities,
    components_oracle,
    k_core_oracle,
    modularity,
    partitions_of,
    random_graph,
)
from test_export import random_bundle


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def _corpus_config(**overrides):
    data = {
        "base_tags": overrides.pop("base_tags", ["physical_optics"]),
        "dictionary": overrides.pop("dictionary", ["optics", "optical", "photonics", "laser"]),
        "fetch": {"mode": "fixture", "fixtures_dir": str(bundled_fixtures_dir())},
    }
    data.update(overrides)
    return build_config(data)


def _fixture_fetcher():
    return Fetcher(FetchPolicy(mode="fixture", fixtures_dir=bundled_fixtures_dir()))


def test_criterion_1_fixture_fidelity():
    fetcher = _fixture_fetcher()
    root = bundled_fixtures_dir() / "labels"
    authors = {}
    for page_path in sorted(root.glob("*/*.html")):
        tag, index = page_path.parent.name, int(page_path.stem)
        raw = fetcher.fetch(PageRequest(LABEL_SEARCH, tag, index))
        for author in parse_label_page(raw, tag).authors:
            authors.setdefault(author.author_id, author)
    assert len(authors) == 22
    tudor = [a for a in authors.values() if a.name == "Tiberiu Tudor"]
    assert len(tudor) == 1
    assert tudor[0].labels == [
        "physical_optics", "polarization", "coherence", "lasers", "quantum_optics",
    ]
    _report(1, "corpus yields 22 distinct authors with exact label rows")


def test_criterion_2_sounding_trace():
    config = _corpus_config()
    assert config.depth == 5
    net = sound_tags(config, _fixture_fetcher().fetch, parse_label_page)
    visited = [r.visited_tag for r in net.trace]
    assert len(visited) <= 5
    assert visited[:2] == ["physical_optics", "optics"]
    golden = load_golden("notion_network.json")
    assert [json.loads(json.dumps(asdict(r))) for r in net.trace] == golden["trace"]
    _report(2, "trace visits physical_optics then optics and matches the golden")


def test_criterion_3_edge_evidence():
    fetcher = _fixture_fetcher()
    net = sound_tags(_corpus_config(), fetcher.fetch, parse_label_page)
    assert net.edges[canonical_pair("physical_optics", "optics")] == 2
    assert net.edges[canonical_pair("physical_optics", "polarization")] == 1
    recount: dict = {}
    for record in net.trace:
        for index in range(record.pages_fetched):
            raw = fetcher.fetch(PageRequest(LABEL_SEARCH, record.visited_tag, index))
            for author in parse_label_page(raw, record.visited_tag).authors:
                for tag in author.labels:
                    if tag != record.visited_tag:
                        pair = canonical_pair(record.visited_tag, tag)
                        recount[pair] = recount.get(pair, 0) + 1
    assert recount == net.edges
    _report(3, "edge weights 2/1 confirmed and brute-force recount matches all edges")


def test_criterion_4_depth_bound_property():
    for trial in range(100):
        rng = random.Random(40_000 + trial)
        corpus, tags = random_label_corpus(rng)
        depth = rng.randint(1, 6)
        config = _corpus_config(
            base_tags=[rng.choice(tags)], dictionary=["optics", "laser"], depth=depth
        )
        net = sound_tags(config, corpus.fetch, parse_label_page)
        visited = [t for t, s in net.nodes.items() if s["visited"]]
        assert len(visited) <= depth
    _report(4, "visited-tag count stayed within depth in 100/100 random trials")


def test_criterion_5_coauthor_semantics():
    net = sound_authors(
        _corpus_config(),
        _fixture_fetcher().fetch,
        parse_author_page,
        parse_label=parse_label_page,
    )
    assert net.to_canonical_dict() == load_golden("coauthor_network.json")
    assert net.report.reciprocal_edges == 3 == sum(w == 2 for w in net.edges.values())
    for trial in range(200):
        rng = random.Random(50_000 + trial)
        corpus, seeds = random_profile_corpus(rng)
        config = _corpus_config(hop_limit=rng.randint(0, 2))
        rand_net = sound_authors(config, corpus.fetch, parse_author_page, seeds=seeds)
        for (a, b), w in rand_net.edges.items():
            assert a < b and a != b
            assert a in rand_net.nodes and b in rand_net.nodes
            assert w in (1, 2)
    _report(5, "golden co-author network plus invariants on 200 random networks")


def test_criterion_6_oracle_equivalence():
    start = time.monotonic()
    for trial in range(100):
        rng = random.Random(60_000 + trial)
        g = random_graph(rng, max_nodes=12, edge_prob=0.3)
        k = rng.choice([2, 3])
        assert set(k_core(indexed_adjacency(g), k)[0]) == k_core_oracle(g, k)
    for trial in range(100):
        g = random_graph(random.Random(61_000 + trial), max_nodes=50, edge_prob=0.05)
        assert list(map(set, connected_components(indexed_adjacency(g)))) == components_oracle(g)
    from test_analysis import two_triangles_with_bridge

    g = two_triangles_with_bridge()
    blocks = [set(m) for m in communities(detect_communities(indexed_adjacency(g))).values()]
    assert sorted(map(sorted, blocks)) == [["a", "b", "c"], ["d", "e", "f"]]
    best = max(partitions_of(sorted(g.nodes)), key=lambda p: modularity(g, p))
    assert sorted(map(sorted, best)) == sorted(map(sorted, blocks))
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(6, f"k-core, components, and clustering match their oracles in {elapsed:.1f}s")


def test_criterion_7_round_trip_and_determinism(tmp_path):
    for trial in range(100):
        bundle = random_bundle(random.Random(70_000 + trial), max_nodes=200)
        assert from_gexf(to_gexf(bundle)).canonical_form() == bundle.canonical_form()

    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "base_tags": ["physical_optics"],
                "dictionary": ["optics", "optical", "photonics", "laser"],
                "fetch": {"mode": "fixture", "fixtures_dir": str(bundled_fixtures_dir())},
            }
        ),
        "utf-8",
    )
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["sound-tags", "--config", str(config_path), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("trace.tsv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    for fmt in ("csv", "graphml"):  # the edge CSV and GraphML that export makes of each run
        exported = [export_run_file(out / "notion.gexf", fmt, out / "export") for out in outs]
        assert exported[0].read_bytes() == exported[1].read_bytes()
    forms = [
        from_gexf((out / "notion.gexf").read_text("utf-8")).canonical_form() for out in outs
    ]
    assert forms[0] == forms[1]
    _report(7, "100 bundles round-trip and reruns are byte-identical minus timestamps")


def test_criterion_8_politeness(tmp_path, scripted_server):
    server = scripted_server(*[(200, LABEL_PAGE)] * 10)
    policy = FetchPolicy(
        mode="live", cache_dir=tmp_path / "cache", min_delay_ms=200, base_url=server_url(server)
    )
    fetcher = Fetcher(policy)
    requests = [PageRequest(LABEL_SEARCH, f"tag_{i}", 0) for i in range(10)]
    start = time.monotonic()
    for request in requests:
        assert fetcher.fetch(request).source == "live"
    gaps = [
        b - a
        for (a, _), (b, _) in zip(fetcher.request_log, fetcher.request_log[1:])
    ]
    assert len(fetcher.request_log) == 10
    assert all(gap >= 0.200 for gap in gaps), gaps
    for request in requests:
        assert fetcher.fetch(request).source == "cache"
    assert len(fetcher.request_log) == 10, "second pass must not hit the network"
    assert server.hits == 10
    assert fetcher.cache_hits == 10
    elapsed = time.monotonic() - start
    assert elapsed < 5
    _report(8, f"10 fetches gapped >= 200 ms, second pass fully cached, {elapsed:.1f}s total")
