"""``all`` end to end on drawn corpora, run three ways: in fixture mode over
the rendered tree, live against a loopback stub with a cold cache, and live
again on the warm cache. Drawn tags may lack result pages, which the stub
answers with a 404. The runs write the same files, the networks are the
reference model's, and the cold run requests each page it needs once; the
warm run requests only the pages the cold one could not cache."""

import dataclasses
import json
import tempfile
from collections import Counter
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest
from hypothesis import given, settings

from scholar_sounder import cli
from scholar_sounder.analysis import Graph
from scholar_sounder.config import build_config
from scholar_sounder.export import from_gexf, make_bundle
from scholar_sounder.fetcher import Fetcher

from conftest import CorpusHandler, loopback_server, server_url
from fakes import render_corpus
from sounding_reference import UNLINKED, coauthor_network, notion_network, seed_ids
from test_sounding_reference import config_data, corpora

MANIFEST = "run_manifest.json"


def run_all(config_file: Path, out: Path, *flags) -> tuple[int, dict[str, bytes]]:
    """The exit code of ``all`` and the files it wrote, by name."""
    argv = ["all", "--config", str(config_file), "--out", str(out), "--delay-ms", "1", *flags]
    code = cli.main(argv)
    return code, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def outputs(files: dict[str, bytes]) -> dict[str, bytes]:
    """Every file but the manifest, whose timestamps differ between runs."""
    return {name: body for name, body in files.items() if name != MANIFEST}


def page_keys(paths) -> Counter:
    """How often each page was requested: a label page as (tag, index), a
    profile as its author id."""
    keys = Counter()
    for path in paths:
        query = {k: v[0] for k, v in parse_qs(urlparse(path).query).items()}
        if "user" in query:
            keys[query["user"]] += 1
        else:
            keys[query["mauthors"].removeprefix("label:"), int(query.get("astart", "0")) // 10] += 1
    return keys


def read_network(files: dict[str, bytes], stem: str) -> dict:
    return from_gexf(files[f"{stem}.gexf"].decode()).graph.to_canonical_dict()


def canonical(network: dict) -> dict:
    """A reference network as its GEXF file carries it."""
    graph = Graph()
    graph.nodes = network["nodes"]
    graph.edges = {tuple(pair.split("|")): weight for pair, weight in network["edges"].items()}
    return make_bundle(graph).graph.to_canonical_dict()


@settings(max_examples=25, deadline=None)
@given(corpora(), config_data())
def test_fixture_cold_and_warm_runs_equal_the_reference(corpus, data):
    config = build_config(data)
    notion, trace = notion_network(corpus, config)
    authors, counts = coauthor_network(corpus, config, seed_ids(corpus, config))
    linked = {aid: node for aid, node in authors["nodes"].items() if not aid.startswith(UNLINKED)}
    # The first, third, ... missing profile in id order answers an interstitial, the rest 404.
    lacking = sorted(aid for aid, author in corpus.authors.items() if not author.has_profile)
    memory = render_corpus(corpus)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch, \
            loopback_server(CorpusHandler, corpus=memory, interstitials=set(lacking[::2])) as stub:
        root = Path(tmp)
        config_file = root / "config.json"
        config_file.write_text(json.dumps(data), "utf-8")
        (root / "tree").mkdir()  # a corpus without pages writes no file into it
        memory.write_tree(root / "tree")
        url = server_url(stub)  # where the live runs' requests go
        patch.setattr(
            cli, "Fetcher", lambda policy: Fetcher(dataclasses.replace(policy, base_url=url)))

        fixture = run_all(config_file, root / "fixture", "--fixtures", str(root / "tree"))
        live = ["--mode", "live", "--cache", str(root / "cache")]
        cold = run_all(config_file, root / "cold", *live)
        cold_requests = page_keys(stub.paths)
        stub.paths.clear()
        warm = run_all(config_file, root / "warm", *live)
        warm_requests = page_keys(stub.paths)

    assert fixture[0] == cold[0] == warm[0]
    assert list(fixture[1]) == list(cold[1]) == list(warm[1])
    assert outputs(cold[1]) == outputs(warm[1])
    # Config.digest() covers fetch.mode, so the fixture run's differs by design.
    digests = [json.loads(run[1][MANIFEST])["config_digest"].encode() for run in (fixture, cold)]
    assert outputs(cold[1]) == {
        name: body.replace(*digests) for name, body in outputs(fixture[1]).items()
    }

    files = cold[1]
    assert read_network(files, "notion") == canonical(notion)
    assert read_network(files, "coauthors") == canonical(authors)
    rows = [tuple(line.split("\t")) for line in files["trace.tsv"].decode().splitlines()[1:]]
    assert rows == [tuple(map(str, row)) for row in trace]
    assert json.loads(files["report.json"])["coauthor_run"] == counts

    visited_pages = [(tag, index) for _, _, tag, pages, _, _ in trace for index in range(pages)]
    # A tag without pages asks for page 0 and gets a 404, which is not cached.
    absent = [(tag, 0) for _, _, tag, pages, _, _ in trace if pages == 0]
    due = [aid for aid, node in linked.items() if node["hop"] <= config.hop_limit]
    assert cold_requests == Counter(visited_pages + absent + due)
    failed = [aid for aid, node in linked.items() if node["fetch_failed"]]
    assert warm_requests == Counter(absent + failed)
