"""The README quick-start run (`all` on the bundled fixtures) must produce
the same bytes from one change to the next, and from one run to the next:
only `run_manifest.json` carries clock time. The `analyze` reports with a
k-core and communities on the two quick-start GEXF files are pinned too, as
are the run manifest's counts, and `analyze` and `export` into the run
directory must keep the manifest's digests true.

After a deliberate change to the outputs, refresh the goldens with
``PYTHONPATH=src python3 tests/test_quickstart_digests.py``."""

import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from scholar_sounder.cli import main

GOLDEN = Path(__file__).parent / "golden" / "quickstart_sha256.json"
KCORE_GOLDEN = Path(__file__).parent / "golden" / "quickstart_kcore_sha256.json"
FILES = [
    "notion.graphml", "coauthors.graphml", "edges_notion.csv", "edges_coauthors.csv",
    "report.json", "trace.tsv", "notion.gexf", "coauthors.gexf",
]
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


def kcore_report_digests(work: Path) -> dict[str, str]:
    """SHA-256 of the ``analyze --k-core 2 --min-weight 2 --communities``
    report.json of each quick-start network."""
    out = run_quickstart(work)
    digests = {}
    for stem in ("notion", "coauthors"):
        analysis = work / f"analyze_{stem}"
        assert main([
            "analyze", "--in", str(out / f"{stem}.gexf"), "--out", str(analysis),
            "--k-core", "2", "--min-weight", "2", "--communities",
        ]) == 0
        digests[stem] = hashlib.sha256((analysis / "report.json").read_bytes()).hexdigest()
    return digests


def test_quickstart_outputs_match_pinned_digests(tmp_path):
    assert quickstart_digests(tmp_path) == json.loads(GOLDEN.read_text("utf-8"))


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
    for stem in ("notion", "coauthors"):
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
    (["export", "--format", "json"], "notion.json"),  # a file the manifest does not list
    (["analyze", "--communities"], "report.json"),
], ids=["gexf", "graphml", "csv", "json", "analyze"])
def test_export_into_a_run_directory_keeps_the_manifest_digests_true(tmp_path, command, name):
    """Every write into a run directory leaves each manifest entry's digest
    equal to the SHA-256 of its file."""
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
    for golden, digests_of in [(GOLDEN, quickstart_digests), (KCORE_GOLDEN, kcore_report_digests)]:
        with tempfile.TemporaryDirectory() as work:
            digests = digests_of(Path(work))
        golden.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", "utf-8")
