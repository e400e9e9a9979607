"""The README quick-start run (`all` on the bundled fixtures) must produce
the same bytes from one change to the next, and from one run to the next:
only `run_manifest.json` carries clock time. The GraphML and edge CSV that
`export` makes of the two quick-start GEXF files, and the `analyze` reports
with a k-core and communities on them, are pinned too, as are the run
manifest's counts, and `analyze` and `export` into the run directory must
keep the manifest's digests true.

After a deliberate change to the outputs, refresh the goldens with
``PYTHONPATH=src python3 tests/test_quickstart_digests.py``."""

import dataclasses
import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from scholar_sounder import bundled_fixtures_dir, cli
from scholar_sounder.cli import main
from scholar_sounder.fetcher import Fetcher

from conftest import TreeHandler, export_run_file, loopback_server, server_url

GOLDEN = Path(__file__).parent / "golden" / "quickstart_sha256.json"
KCORE_GOLDEN = Path(__file__).parent / "golden" / "quickstart_kcore_sha256.json"
EXPORT_GOLDEN = Path(__file__).parent / "golden" / "quickstart_export_sha256.json"
FILES = ["report.json", "trace.tsv", "notion.gexf", "coauthors.gexf"]
STEMS = ("notion", "coauthors")
SECTIONS = ("degree_stats", "components", "communities", "top_clusters")  # analyze --communities
QUICKSTART_CONFIG = {
    "base_tags": ["physical optics"],
    "dictionary": ["optics", "optical", "photonics", "laser"],
    "fetch": {"mode": "fixture"},
}


def run_quickstart(work: Path, out_name: str = "out") -> Path:
    config = work / "config.json"
    config.write_text(json.dumps(QUICKSTART_CONFIG), "utf-8")
    out = work / out_name
    assert main(["all", "--config", str(config), "--fixtures", "bundled", "--out", str(out)]) == 3
    return out


def quickstart_digests(work: Path) -> dict[str, str]:
    out = run_quickstart(work)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES}


def exported(out: Path, into: Path) -> dict[str, bytes]:
    """The GraphML and edge CSV that ``export`` writes into ``into`` from each
    GEXF file in the run directory ``out``, by name."""
    paths = [export_run_file(out / f"{stem}.gexf", fmt, into) for stem in STEMS
             for fmt in ("graphml", "csv")]
    return {path.name: path.read_bytes() for path in paths}


def export_digests(work: Path) -> dict[str, str]:
    out = run_quickstart(work)
    return {name: hashlib.sha256(body).hexdigest() for name, body in exported(out, work).items()}


def kcore_report_digests(work: Path) -> dict[str, str]:
    """SHA-256 of the ``analyze --k-core 2 --min-weight 2 --communities``
    report.json of each quick-start network."""
    out = run_quickstart(work)
    digests = {}
    for stem in STEMS:
        analysis = work / f"analyze_{stem}"
        assert main([
            "analyze", "--in", str(out / f"{stem}.gexf"), "--out", str(analysis),
            "--k-core", "2", "--min-weight", "2", "--communities",
        ]) == 0
        digests[stem] = hashlib.sha256((analysis / "report.json").read_bytes()).hexdigest()
    return digests


def test_quickstart_outputs_match_pinned_digests(tmp_path):
    assert quickstart_digests(tmp_path) == json.loads(GOLDEN.read_text("utf-8"))


def test_exports_of_the_quickstart_gexf_match_pinned_digests(tmp_path):
    assert export_digests(tmp_path) == json.loads(EXPORT_GOLDEN.read_text("utf-8"))


def test_a_live_run_against_the_bundled_tree_writes_the_fixture_run_files(tmp_path, monkeypatch):
    """The service's 404 for a page the tree lacks is an absent page, as a
    missing fixture is: a live run of the quick start against a stub serving
    exactly the bundled tree writes the fixture run's files."""
    fixture = run_quickstart(tmp_path)
    with loopback_server(TreeHandler, tree=bundled_fixtures_dir()) as stub:
        url = server_url(stub)
        monkeypatch.setattr(
            cli, "Fetcher", lambda policy: Fetcher(dataclasses.replace(policy, base_url=url)))
        live = tmp_path / "live"
        assert main([
            "all", "--config", str(tmp_path / "config.json"), "--out", str(live),
            "--mode", "live", "--cache", str(tmp_path / "cache"), "--delay-ms", "1",
        ]) == 3
    manifests = [json.loads((out / "run_manifest.json").read_text("utf-8")) for out in (fixture, live)]
    assert len(stub.paths) == manifests[1]["counts"]["pages_fetched"] == 14
    assert manifests[0]["counts"] == manifests[1]["counts"]
    # Config.digest() covers fetch.mode, so the fixture run's differs by design.
    digests = [manifest["config_digest"].encode() for manifest in manifests]
    for name in FILES:
        assert (live / name).read_bytes() == (fixture / name).read_bytes().replace(*digests), name
    assert exported(live, tmp_path / "live_export") == exported(fixture, tmp_path / "export")


def test_reruns_into_other_directories_give_identical_outputs(tmp_path):
    manifests = [
        json.loads((run_quickstart(tmp_path, name) / "run_manifest.json").read_text("utf-8"))
        for name in ("first", "second")
    ]
    assert manifests[0]["outputs"] == manifests[1]["outputs"]
    assert {entry["path"] for entry in manifests[0]["outputs"]} == set(FILES)


def test_quickstart_manifest_counts(tmp_path):
    # 14 distinct label and profile pages, each read once: the co-author
    # phase is seeded from the base tag's pages that the tag phase read.
    manifest = json.loads((run_quickstart(tmp_path) / "run_manifest.json").read_text("utf-8"))
    assert manifest["counts"] == {"cache_hits": 0, "pages_fetched": 14, "warnings": 3}


def test_analyze_into_the_run_directory_keeps_the_manifest_digests_true(tmp_path):
    out = run_quickstart(tmp_path)
    before = json.loads((out / "run_manifest.json").read_text("utf-8"))
    for stem in STEMS:
        assert main([
            "analyze", "--in", str(out / f"{stem}.gexf"), "--out", str(out),
            "--k-core", "2", "--communities",
        ]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
    assert [entry["path"] for entry in manifest["outputs"]] == sorted(FILES)
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert entry["sha256"] == digest, entry["path"]
    # Only the report.json digest changed.
    for entry in before["outputs"]:
        if entry["path"] == "report.json":
            entry["sha256"] = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    assert manifest == before


def test_analyze_of_the_coauthors_into_the_run_directory_updates_their_section(tmp_path):
    out = run_quickstart(tmp_path)
    before = json.loads((out / "report.json").read_text("utf-8"))
    command = ["analyze", "--in", str(out / "coauthors.gexf"), "--k-core", "2", "--communities"]
    assert main([*command, "--out", str(out)]) == 0
    assert main([*command, "--out", str(tmp_path / "fresh")]) == 0
    after = json.loads((out / "report.json").read_text("utf-8"))
    fresh = json.loads((tmp_path / "fresh" / "report.json").read_text("utf-8"))
    assert "kcore" in fresh and "coauthors" not in fresh
    assert after["coauthors"] == {**before["coauthors"], **fresh}
    # The notion network's sections, at the top level, are left as they were.
    del after["coauthors"], before["coauthors"]
    assert after == before


def test_analyze_of_the_coauthors_into_a_sound_tags_run_adds_their_section(tmp_path):
    full = run_quickstart(tmp_path, "full")
    tags = tmp_path / "tags"
    config = str(tmp_path / "config.json")  # the quick-start config run_quickstart wrote
    assert main(["sound-tags", "--config", config, "--fixtures", "bundled", "--out", str(tags)]) == 0
    before = json.loads((tags / "report.json").read_text("utf-8"))
    assert main([
        "analyze", "--in", str(full / "coauthors.gexf"), "--out", str(tags), "--communities",
    ]) == 0
    after = json.loads((tags / "report.json").read_text("utf-8"))
    run = json.loads((full / "report.json").read_text("utf-8"))
    assert after.pop("coauthors") == {key: run["coauthors"][key] for key in SECTIONS}
    assert after == before  # the notion network's sections are left as they were


def test_all_and_analyze_cluster_each_network_alike(tmp_path):
    out = run_quickstart(tmp_path)
    report = json.loads((out / "report.json").read_text("utf-8"))
    for stem, sections in (("notion", report), ("coauthors", report["coauthors"])):
        fresh = tmp_path / f"analyze_{stem}"
        assert main([
            "analyze", "--in", str(out / f"{stem}.gexf"), "--out", str(fresh), "--communities",
        ]) == 0
        analyzed = json.loads((fresh / "report.json").read_text("utf-8"))
        assert analyzed == {key: sections[key] for key in SECTIONS}, stem


@pytest.mark.parametrize("command, name", [
    (["export", "--format", "gexf"], "notion.gexf"),
    (["export", "--format", "graphml"], "notion.graphml"),
    (["export", "--format", "csv"], "edges_notion.csv"),
    (["export", "--format", "json"], "notion.json"),
    (["analyze", "--communities"], "report.json"),
], ids=["gexf", "graphml", "csv", "json", "analyze"])
def test_export_into_a_run_directory_keeps_the_manifest_digests_true(tmp_path, command, name):
    """Every write into a run directory leaves each manifest entry's digest
    equal to the SHA-256 of its file. A run's manifest lists no GraphML, edge
    CSV or JSON summary, so ``export`` writes those beside it, unlisted."""
    a = run_quickstart(tmp_path, "A")
    config = tmp_path / "clique.json"
    config.write_text(json.dumps({**QUICKSTART_CONFIG, "edge_policy": "clique", "depth": 2}))
    b = tmp_path / "B"
    assert main(["all", "--config", str(config), "--fixtures", "bundled", "--out", str(b)]) == 3
    old = (a / name).read_bytes() if (a / name).exists() else None
    assert main([command[0], "--in", str(b / "notion.gexf"), *command[1:], "--out", str(a)]) == 0
    new = (a / name).read_bytes()
    assert new != old
    if command[0] == "export" and name in FILES:  # the other run's own file, byte for byte
        assert new == (b / name).read_bytes()
    elif command[2:] in (["graphml"], ["csv"]):  # what export writes of B's GEXF anywhere
        elsewhere = export_run_file(b / "notion.gexf", command[2], tmp_path / "elsewhere")
        assert new == elsewhere.read_bytes()
    manifest = json.loads((a / "run_manifest.json").read_text("utf-8"))
    assert [entry["path"] for entry in manifest["outputs"]] == sorted(FILES)
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((a / entry["path"]).read_bytes()).hexdigest()
        assert entry["sha256"] == digest, entry["path"]


def test_top_clusters_agree_with_the_community_assignment(tmp_path):
    report = json.loads((run_quickstart(tmp_path) / "report.json").read_text("utf-8"))
    for sections in (report, report["coauthors"]):
        communities, top = sections["communities"], sections["top_clusters"]
        sizes = Counter(communities["assignment"].values())
        for entry in top:
            assert entry.keys() == {"community_id", "size", "internal_edges", "internal_weight"}
            assert entry["size"] == sizes[entry["community_id"]]
        assert sorted(entry["community_id"] for entry in top) == list(range(communities["count"]))
        assert top == sorted(top, key=lambda entry: (-entry["size"], entry["community_id"]))


def test_kcore_reports_match_pinned_digests(tmp_path):
    assert kcore_report_digests(tmp_path) == json.loads(KCORE_GOLDEN.read_text("utf-8"))


if __name__ == "__main__":
    for golden, digests_of in [
        (GOLDEN, quickstart_digests), (EXPORT_GOLDEN, export_digests),
        (KCORE_GOLDEN, kcore_report_digests),
    ]:
        with tempfile.TemporaryDirectory() as work:
            digests = digests_of(Path(work))
        golden.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", "utf-8")
