import argparse
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from pathlib import Path

import pytest

from scholar_sounder import bundled_fixtures_dir, cli
from scholar_sounder.analysis import Graph
from scholar_sounder.cli import build_parser, main
from scholar_sounder.config import Config, build_config, read_config_file
from scholar_sounder.errors import ConfigError, FetchError, SoundingError
from scholar_sounder.export import from_gexf, make_bundle, to_gexf
from scholar_sounder.fetcher import LABEL_SEARCH, Fetcher, FetchPolicy, PageRequest
from scholar_sounder.parser import parse_label_page
from scholar_sounder.notion_graph import TraceRecord

from conftest import export_run_file, server_url

ROOT = Path(__file__).resolve().parents[1]
FIXTURES_DIR = bundled_fixtures_dir()


def minimal_data(**overrides):
    data = {
        "base_tags": ["physical optics"],
        "dictionary": ["optics", "optical", "photonics", "laser"],
        "fetch": {"mode": "fixture", "fixtures_dir": str(FIXTURES_DIR)},
    }
    data.update(overrides)
    return data


def write_config(tmp_path, **overrides) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_data(**overrides)), "utf-8")
    return path


class TestBuildConfig:
    def test_minimal_defaults(self):
        config = build_config(minimal_data())
        assert config.depth == 5
        assert config.hop_limit == 1
        assert config.author_cap == 500
        assert config.edge_policy == "star"
        assert config.fetch.min_delay_ms == 2000
        assert config.fetch.max_pages_per_label == 5

    def test_base_tags_are_normalized(self):
        config = build_config(minimal_data())
        assert config.base_tags == ["physical_optics"]

    def test_dictionary_lowercased(self):
        words = ["Optics", "LASER", "Quantum Optics", "X-Ray"]
        config = build_config(minimal_data(dictionary=words))
        assert config.dictionary == ["optics", "laser", "quantum_optics", "x_ray"]

    def test_dictionary_word_limit(self):
        words = [f"word{i}" for i in range(11)]
        with pytest.raises(ConfigError, match="dictionary"):
            build_config(minimal_data(dictionary=words))

    def test_ten_words_allowed(self):
        config = build_config(minimal_data(dictionary=[f"word{i}" for i in range(10)]))
        assert len(config.dictionary) == 10

    def test_empty_base_tags_rejected(self):
        with pytest.raises(ConfigError, match="base_tags"):
            build_config(minimal_data(base_tags=[]))

    def test_unnormalizable_base_tag_rejected(self):
        with pytest.raises(ConfigError, match=r"base_tags\[0\]"):
            build_config(minimal_data(base_tags=["???"]))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="dept"):
            build_config(minimal_data(dept=3))

    def test_fixture_mode_requires_fixtures_dir(self):
        with pytest.raises(ConfigError, match="fixtures_dir"):
            build_config(minimal_data(fetch={"mode": "fixture"}))

    def test_delay_of_one_day_is_the_largest_allowed(self):
        config = build_config(minimal_data(fetch={"mode": "live", "min_delay_ms": 86_400_000}))
        assert config.fetch.min_delay_ms == 86_400_000
        with pytest.raises(ConfigError, match="fetch.min_delay_ms"):
            build_config(minimal_data(fetch={"mode": "live", "min_delay_ms": 86_400_001}))

    def test_bad_edge_policy_rejected(self):
        with pytest.raises(ConfigError, match="edge_policy"):
            build_config(minimal_data(edge_policy="mesh"))

    def test_flags_beat_the_file_and_unset_flags_leave_it(self):
        data = minimal_data(depth=3, out_dir="from_file", hop_limit=4)
        flags = {"depth": 2, "fetch.min_delay_ms": 7, "out_dir": "", "hop_limit": None}
        config = build_config(data, flags)
        assert (config.depth, config.fetch.min_delay_ms) == (2, 7)
        assert (config.out_dir, config.hop_limit) == (Path("from_file"), 4)

    def test_digest_stable_and_sensitive(self):
        a = build_config(minimal_data())
        b = build_config(minimal_data())
        c = build_config(minimal_data(depth=3))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


def load_config_file(path):
    return build_config(read_config_file(path))


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        config = load_config_file(write_config(tmp_path))
        assert config.base_tags == ["physical_optics"]
        assert config.depth == 5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such file"):
            load_config_file(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", "utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config_file(path)

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"base_tags": ["optics\xff"], "dictionary": ["optics"]}')
        with pytest.raises(ConfigError, match="config field '<file>': not UTF-8"):
            load_config_file(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", "utf-8")
        with pytest.raises(ConfigError, match="object"):
            load_config_file(path)


class TestCliSoundTags:
    def run_sound_tags(self, tmp_path, *extra):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["sound-tags", "--config", str(config), "--out", str(out), *extra])
        return code, out

    def test_exit_zero_and_outputs(self, tmp_path):
        code, out = self.run_sound_tags(tmp_path)
        assert code == 0
        for name in ["notion.gexf", "trace.tsv", "report.json", "run_manifest.json"]:
            assert (out / name).is_file(), name
        for fmt in ["graphml", "csv"]:  # the formats export makes of the run's GEXF
            assert export_run_file(out / "notion.gexf", fmt, tmp_path / "export").is_file(), fmt

    def test_gexf_has_expected_weight(self, tmp_path):
        _, out = self.run_sound_tags(tmp_path)
        bundle = from_gexf((out / "notion.gexf").read_text("utf-8"))
        assert bundle.graph.edges[("optics", "physical_optics")] == 2
        assert bundle.graph.edges[("physical_optics", "polarization")] == 1

    def test_trace_starts_with_base_tag(self, tmp_path):
        _, out = self.run_sound_tags(tmp_path)
        lines = (out / "trace.tsv").read_text("utf-8").splitlines()
        assert lines[0].split("\t") == [f.name for f in fields(TraceRecord)]
        assert lines[1].split("\t")[2] == "physical_optics"
        assert lines[2].split("\t")[2] == "optics"

    def test_manifest_digests_match_files(self, tmp_path):
        _, out = self.run_sound_tags(tmp_path)
        manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
        assert manifest["counts"]["warnings"] == 0
        assert manifest["outputs"], "manifest must list the outputs"
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"], entry["path"]

    def test_dictionary_words_match_like_tags(self, tmp_path):
        config = write_config(tmp_path, dictionary=["quantum optics"])
        out = tmp_path / "out"
        assert main(["sound-tags", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "trace.tsv").read_text("utf-8").splitlines()[1:]
        assert [line.split("\t")[2] for line in lines] == ["physical_optics", "quantum_optics"]

    def test_depth_override(self, tmp_path):
        code, out = self.run_sound_tags(tmp_path, "--depth", "1")
        assert code == 0
        lines = [l for l in (out / "trace.tsv").read_text("utf-8").splitlines()[1:] if l]
        assert len(lines) == 1

    def test_bundled_fixtures_alias(self, tmp_path):
        code, out = self.run_sound_tags(tmp_path, "--fixtures", "bundled")
        assert code == 0
        assert (out / "notion.gexf").is_file()

    def test_reruns_byte_identical_except_timestamps(self, tmp_path):
        _, out1 = self.run_sound_tags(tmp_path)
        out2 = tmp_path / "out2"
        config = write_config(tmp_path)
        assert main(["sound-tags", "--config", str(config), "--out", str(out2)]) == 0
        for name in ["trace.tsv", "report.json"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        for fmt in ["csv", "graphml"]:
            exported = [export_run_file(o / "notion.gexf", fmt, o / "export") for o in (out1, out2)]
            assert exported[0].read_bytes() == exported[1].read_bytes(), fmt
        a = from_gexf((out1 / "notion.gexf").read_text("utf-8"))
        b = from_gexf((out2 / "notion.gexf").read_text("utf-8"))
        assert a.canonical_form() == b.canonical_form()

    def test_cache_flag_is_read_and_old_cache_variable_ignored(self, tmp_path, monkeypatch):
        # Only the flag's cache holds the page and the live path is cut off,
        # so the run succeeds only if the --cache directory is read; the
        # SCHOLAR_SOUNDER_CACHE variable, which the tool no longer reads,
        # names another directory.
        flag_cache = tmp_path / "flag_cache"
        Fetcher(FetchPolicy(mode="live", cache_dir=flag_cache))._write_cache(
            PageRequest(LABEL_SEARCH, "physical_optics", 0),
            (FIXTURES_DIR / "labels" / "physical_optics" / "0.html").read_bytes(),
        )
        monkeypatch.setenv("SCHOLAR_SOUNDER_CACHE", str(tmp_path / "env_cache"))

        def offline(self, request, page_token):
            raise FetchError("live fetch attempted")

        monkeypatch.setattr(Fetcher, "_fetch_live", offline)
        out = tmp_path / "out"
        code = main([
            "sound-tags", "--config", str(write_config(tmp_path)), "--out", str(out),
            "--mode", "live", "--cache", str(flag_cache), "--depth", "1", "--max-pages", "1",
        ])
        assert code == 0
        manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
        assert manifest["counts"]["cache_hits"] == 1

    def test_a_cache_that_is_not_a_database_exits_two_with_one_line(
        self, tmp_path, capsys, monkeypatch
    ):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "pages.sqlite").write_bytes(b"not a database\n" * 512)

        def offline(self, request, page_token):
            raise FetchError("live fetch attempted")

        monkeypatch.setattr(Fetcher, "_fetch_live", offline)
        code = main([
            "all", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out"),
            "--mode", "live", "--cache", str(cache),
        ])
        assert code == 2
        err = capsys.readouterr().err
        # A CacheError is no page failure: no tag is named before it.
        assert err.startswith(f"error: page cache {cache / 'pages.sqlite'}: ")
        assert err.count("\n") == 1
        assert str(cache / "pages.sqlite") in err and "live fetch attempted" not in err

    def test_verbose_applies_to_every_call_in_a_process(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING)  # the root level, restored afterwards
        caplog.handler.setLevel(logging.NOTSET)  # keep whatever the root lets through
        assert self.run_sound_tags(tmp_path)[0] == 0
        assert not caplog.records
        assert self.run_sound_tags(tmp_path, "--verbose")[0] == 0
        assert [r for r in caplog.records if r.levelno < logging.WARNING]
        caplog.clear()
        assert self.run_sound_tags(tmp_path)[0] == 0
        assert not caplog.records

    def test_empty_out_flag_is_ignored(self, tmp_path):
        file_out = tmp_path / "file_out"
        config = write_config(tmp_path, out_dir=str(file_out))
        assert main(["sound-tags", "--config", str(config), "--out", "", "--depth", "1"]) == 0
        assert (file_out / "notion.gexf").is_file()

    @pytest.mark.parametrize("overrides, field", [
        ({"fetch": "x"}, "fetch"),
        ({"fetch": 5}, "fetch"),
        ({"fetch": ["ab"]}, "fetch"),
        ({"fetch": {"min_delay": 1}}, "fetch.min_delay"),
        ({"fetch": {"min_delay_ms": True}}, "fetch.min_delay_ms"),
        ({"fetch": {"min_delay_ms": "5"}}, "fetch.min_delay_ms"),
        ({"fetch": {"max_pages_per_label": 2.9}}, "fetch.max_pages_per_label"),
        ({"fetch": {"max_retries": 5.0}}, "fetch.max_retries"),
        ({"fetch": {"max_retries": -1}}, "fetch.max_retries"),
        ({"fetch": {"base_url": "http://x"}}, "fetch.base_url"),
        ({"depth": True}, "depth"),
        ({"seed": True}, "seed"),
        ({"seed": 0}, "seed"),
        ({"fetch": {"max_retries": 2}}, "fetch.max_retries"),
        ({"base_tags": ["physical optics", None]}, "base_tags[1]"),
        ({"base_tags": [5]}, "base_tags[0]"),
        ({"base_tags": [True]}, "base_tags[0]"),
        ({"base_tags": [["physical optics"]]}, "base_tags[0]"),
        ({"base_tags": ["physical optics", "Physical Optics"]}, "base_tags[1]"),
        ({"dictionary": ["optics", None]}, "dictionary[1]"),
        ({"dictionary": [1.5]}, "dictionary[0]"),
        ({"dictionary": ["optics", True]}, "dictionary[1]"),
        ({"dictionary": [["optics"]]}, "dictionary[0]"),
        ({"dictionary": ["optics", "--"]}, "dictionary[1]"),
        ({"dictionary": ["optics", "Optics"]}, "dictionary[1]"),
    ], ids=[
        "fetch-string", "fetch-number", "fetch-list", "fetch-typo", "delay-bool", "delay-string",
        "pages-float", "retries-integral-float", "retries-negative", "base-url", "depth-bool",
        "seed-bool", "seed-field", "retries-field", "tag-null", "tag-number", "tag-bool",
        "tag-list", "tag-duplicate", "word-null", "word-number", "word-bool", "word-list",
        "word-empty", "word-duplicate",
    ])
    def test_bad_config_exits_one_with_one_line(self, tmp_path, capsys, overrides, field):
        out = tmp_path / "out"
        code = main([
            "sound-tags", "--config", str(write_config(tmp_path, **overrides)),
            "--fixtures", "bundled", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '{field}': ") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_fixtures_dir_exits_one_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        missing = tmp_path / "no_such_fixtures"
        code = main([
            "all", "--config", str(write_config(tmp_path)), "--fixtures", str(missing),
            "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: config field 'fetch.fixtures_dir': no such directory: {missing}\n"
        assert not out.exists()

    @pytest.mark.parametrize("overrides, flags, field, reason", [
        ({"out_dir": "o\0x"}, [], "out_dir", "must not contain a NUL character"),
        ({"fetch": {"mode": "fixture", "fixtures_dir": "f\0x"}}, ["--out", "out"],
         "fetch.fixtures_dir", "must not contain a NUL character"),
        ({"fetch": {"mode": "fixture", "fixtures_dir": str(FIXTURES_DIR), "cache_dir": "c\0x"}},
         ["--out", "out"], "fetch.cache_dir", "must not contain a NUL character"),
        ({}, ["--out", "out", "--delay-ms", str(10**400)], "fetch.min_delay_ms",
         "must be at most 86400000"),
    ], ids=["out-dir-nul", "fixtures-dir-nul", "cache-dir-nul", "huge-delay"])
    def test_value_that_would_end_in_a_traceback_exits_one_with_one_line(
        self, tmp_path, capsys, monkeypatch, overrides, flags, field, reason
    ):
        monkeypatch.chdir(tmp_path)
        code = main(["all", "--config", str(write_config(tmp_path, **overrides)), *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: config field '{field}': {reason}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, field", [
        ({"out_dir": ""}, "out_dir"),
        ({"fetch": {"mode": "fixture", "fixtures_dir": ""}}, "fetch.fixtures_dir"),
        ({"fetch": {"mode": "fixture", "fixtures_dir": str(FIXTURES_DIR), "cache_dir": ""}},
         "fetch.cache_dir"),
    ], ids=["out-dir", "fixtures-dir", "cache-dir"])
    def test_empty_path_in_the_file_exits_one_with_one_line(
        self, tmp_path, capsys, monkeypatch, overrides, field
    ):
        # An empty path would be the current directory: outputs, fixtures or
        # the page cache there, without a word.
        monkeypatch.chdir(tmp_path)
        code = main(["all", "--config", str(write_config(tmp_path, **overrides)), "--depth", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"error: config field '{field}': must not be empty\n"
        assert os.listdir(tmp_path) == ["config.json"]

    def test_config_not_utf8_exits_one_with_one_line(self, tmp_path, capsys):
        config, out = tmp_path / "config.json", tmp_path / "out"
        config.write_bytes(b'{"base_tags": ["optics\xff"], "dictionary": ["optics"]}')
        code = main(["sound-tags", "--config", str(config), "--fixtures", "bundled", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field '<file>': ") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["sound-tags", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCliSoundAuthors:
    def test_partial_exit_on_profile_failures(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["sound-authors", "--config", str(config), "--out", str(out)])
        # the bundled corpus deliberately lacks some profiles, so the run
        # completes with warnings
        assert code == 3
        manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
        assert manifest["counts"]["warnings"] == 3
        bundle = from_gexf((out / "coauthors.gexf").read_text("utf-8"))
        assert len(bundle.graph.nodes) == 10
        assert len(bundle.graph.edges) == 10

    def test_page_text_that_xml_cannot_hold_is_replaced(self, tmp_path):
        """A co-author link and name holding C0 control characters give
        readable exports, and a stderr that holds none of them."""
        fixtures = tmp_path / "fixtures"
        shutil.copytree(FIXTURES_DIR, fixtures)
        profile = fixtures / "authors" / "A_KIM.html"
        entry = '<li class="gsc_rsb_aa"><a href="/citations?user={}&amp;hl=en">{}</a></li>'
        kept = entry.format("A_ZURITA", "G. Rodriguez Zurita")
        html = profile.read_text("utf-8")
        assert kept in html
        bad = entry.format("BAD%01ID", "Bad\x02Name")
        profile.write_text(html.replace(kept, kept + bad), "utf-8")
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-m", "scholar_sounder.cli", "all", "--config",
             str(write_config(tmp_path)), "--fixtures", str(fixtures), "--out", str(out)],
            capture_output=True, encoding="utf-8", env=env,
        )
        assert run.returncode == 3
        assert "profile fetch failed for BAD\ufffdID" in run.stderr
        assert not re.search("[\x00-\x09\x0b-\x1f]", run.stderr)
        assert "Bad\ufffdName" in (out / "coauthors.gexf").read_text("utf-8")
        ET.parse(export_run_file(out / "coauthors.gexf", "graphml", tmp_path / "export"))
        analysis = tmp_path / "analysis"
        assert main(["analyze", "--in", str(out / "coauthors.gexf"), "--out", str(analysis)]) == 0

    def test_all_produces_both_networks(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["all", "--config", str(config), "--out", str(out)])
        assert code == 3
        for name in ["notion.gexf", "coauthors.gexf", "report.json"]:
            assert (out / name).is_file(), name
        report = json.loads((out / "report.json").read_text("utf-8"))
        assert report["coauthor_run"]["profiles_fetched"] == 6
        assert report["coauthor_run"]["reciprocal_edges"] == 3

    def test_all_reports_how_clustering_ended(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        main(["all", "--config", str(config), "--out", str(out)])
        report = json.loads((out / "report.json").read_text("utf-8"))
        for section in (report["communities"], report["coauthors"]["communities"]):
            assert section["converged"] is True
            assert 1 <= section["sweeps"] < 100

    def test_run_alone_writes_no_trace_and_reports_its_counts(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        for _ in range(2):
            assert main(["sound-authors", "--config", str(config), "--out", str(out)]) == 3
            assert not (out / "trace.tsv").exists()
            manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
            assert "trace.tsv" not in [entry["path"] for entry in manifest["outputs"]]
            report = json.loads((out / "report.json").read_text("utf-8"))
            assert report["coauthor_run"] == {
                "profiles_fetched": 6, "stubs": 4, "failures": 3, "reciprocal_edges": 3,
            }

    def test_all_trace_is_the_sound_tags_trace(self, tmp_path):
        config = write_config(tmp_path)
        main(["sound-tags", "--config", str(config), "--out", str(tmp_path / "tags")])
        main(["all", "--config", str(config), "--out", str(tmp_path / "all")])
        main(["all", "--config", str(config), "--out", str(tmp_path / "all")])
        tags = (tmp_path / "tags" / "trace.tsv").read_bytes()
        assert (tmp_path / "all" / "trace.tsv").read_bytes() == tags

    @pytest.mark.parametrize("command", ["sound-tags", "sound-authors", "all"])
    def test_unparsable_base_tag_page_aborts_with_tag_and_manifest(
        self, tmp_path, capsys, command
    ):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(FIXTURES_DIR, fixtures)
        (fixtures / "labels" / "physical_optics" / "0.html").write_text(
            "<html><body>no results</body></html>", "utf-8"
        )
        config, out = write_config(tmp_path), tmp_path / "out"
        code = main([command, "--config", str(config), "--fixtures", str(fixtures), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sounding failed at 'physical_optics': ")
        assert err.count("\n") == 1
        manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
        assert manifest["outputs"] == []
        assert not (out / "report.json").exists()

    def test_base_tag_page_cut_before_its_marker_aborts_with_the_tag(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(FIXTURES_DIR, fixtures)
        page = fixtures / "labels" / "physical_optics" / "0.html"
        body = page.read_bytes()
        page.write_bytes(body[:body.index(b"gsc_sa_ccl")])
        config, out = write_config(tmp_path), tmp_path / "out"
        code = main(["all", "--config", str(config), "--fixtures", str(fixtures), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sounding failed at 'physical_optics': ")
        assert err.count("\n") == 1

    def test_profile_cut_before_its_marker_leaves_a_fetch_failed_stub(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(FIXTURES_DIR, fixtures)
        profile = fixtures / "authors" / "A_TUDOR.html"
        body = profile.read_bytes()
        profile.write_bytes(body[:body.index(b"gsc_prf_in")])
        config, out = write_config(tmp_path), tmp_path / "out"
        code = main(["all", "--config", str(config), "--fixtures", str(fixtures), "--out", str(out)])
        assert code == 3
        node = from_gexf((out / "coauthors.gexf").read_text("utf-8")).graph.nodes["A_TUDOR"]
        assert node["stub"] is True and node["fetch_failed"] is True

    def test_abort_in_author_phase_keeps_the_tag_phase_outputs(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        main(["sound-tags", "--config", str(config), "--out", str(tmp_path / "tags")])

        def fail(*args, **kwargs):
            raise SoundingError("physical_optics", FetchError("no results"))

        monkeypatch.setattr(cli, "sound_authors", fail)
        out = tmp_path / "out"
        assert main(["all", "--config", str(config), "--out", str(out)]) == 2
        trace = (out / "trace.tsv").read_bytes()
        assert trace == (tmp_path / "tags" / "trace.tsv").read_bytes()
        manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
        assert [entry["path"] for entry in manifest["outputs"]] == ["notion.gexf", "trace.tsv"]

    @pytest.mark.parametrize("command, phase, kept", [
        ("sound-tags", "sound_tags", []),
        ("sound-authors", "sound_authors", []),
        ("all", "sound_authors", ["notion.gexf", "trace.tsv"]),
    ])
    def test_interrupt_exits_two_and_keeps_the_finished_phases(
        self, tmp_path, capsys, monkeypatch, command, phase, kept
    ):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, phase, interrupt)
        config, out = write_config(tmp_path), tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: interrupted\n"
        manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
        assert [entry["path"] for entry in manifest["outputs"]] == kept
        assert not (out / "report.json").exists()

    def test_coauthor_name_that_normalizes_to_nothing_does_not_abort(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(FIXTURES_DIR, fixtures)
        profile = fixtures / "authors" / "A_TUDOR.html"
        profile.write_text(profile.read_text("utf-8").replace(
            '<ul class="gsc_rsb_a">',
            '<ul class="gsc_rsb_a">\n  <li class="gsc_rsb_aa"><span>王伟</span></li>'
            '\n  <li class="gsc_rsb_aa"></li>',
        ), "utf-8")
        config, out = write_config(tmp_path), tmp_path / "out"
        code = main(["all", "--config", str(config), "--fixtures", str(fixtures), "--out", str(out)])
        assert code == 3
        assert (out / "report.json").is_file() and (out / "run_manifest.json").is_file()
        expected = tmp_path / "expected"
        main(["all", "--config", str(config), "--out", str(expected)])
        for name in ["coauthors.gexf", "report.json"]:
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    def test_coauthor_id_that_leaves_the_fixture_tree_stays_a_stub(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        shutil.copytree(FIXTURES_DIR, fixtures)
        profile = fixtures / "authors" / "A_TUDOR.html"
        # "authors/../../secret.html" is a profile page beside the tree
        shutil.copy(profile, tmp_path / "secret.html")
        text = profile.read_text("utf-8")
        assert "user=A_KIM&" in text
        profile.write_text(text.replace("user=A_KIM&", "user=..%2F..%2Fsecret&"), "utf-8")
        config, out = write_config(tmp_path), tmp_path / "out"
        code = main([
            "sound-authors", "--config", str(config), "--fixtures", str(fixtures), "--out", str(out),
        ])
        assert code == 3
        node = from_gexf((out / "coauthors.gexf").read_text("utf-8")).graph.nodes["../../secret"]
        assert node["stub"] is True and node["fetch_failed"] is True
        assert "cited_by" not in node
        manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
        assert manifest["counts"]["warnings"] == 4


class TestBaseTagWithoutPages:
    """A base tag without result pages, a missing fixture or the service's
    404 alike, is a warning: the run goes on and exits 3."""

    @pytest.mark.parametrize("command", ["sound-tags", "sound-authors", "all"])
    def test_each_page_less_base_tag_is_one_warning(self, tmp_path, caplog, command):
        empty = tmp_path / "empty"
        empty.mkdir()
        config = write_config(tmp_path, base_tags=["physical optics", "singular optics"])
        out = tmp_path / "out"
        code = main([command, "--config", str(config), "--fixtures", str(empty), "--out", str(out)])
        assert code == 3
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            f"base tag '{tag}' has no result pages" for tag in ("physical_optics", "singular_optics")
        ]
        manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
        assert manifest["counts"] == {"pages_fetched": 2, "cache_hits": 0, "warnings": 2}

    @pytest.mark.parametrize("command", ["sound-tags", "sound-authors", "all"])
    def test_a_live_404_for_a_base_tag_is_one_warning(
        self, tmp_path, caplog, monkeypatch, scripted_server, command
    ):
        server = scripted_server((404, b"gone"))
        url = server_url(server)
        monkeypatch.setattr(cli, "Fetcher", lambda policy: Fetcher(replace(policy, base_url=url)))
        out = tmp_path / "out"
        code = main([
            command, "--config", str(write_config(tmp_path)), "--out", str(out),
            "--mode", "live", "--cache", str(tmp_path / "cache"), "--delay-ms", "1",
        ])
        assert code == 3
        assert server.hits == 1
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            "base tag 'physical_optics' has no result pages"
        ]
        manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
        assert manifest["counts"] == {"pages_fetched": 1, "cache_hits": 0, "warnings": 1}


# Three base tags, of which the second is visited in the first one's expansion.
THREE_BASE_TAGS = {
    "base_tags": ["physical optics", "singular optics", "nonlinear optics"],
    "depth": 4, "edge_policy": "clique", "author_cap": 6,
}


class TestEachLabelPageReadOnce:
    @pytest.mark.parametrize("overrides", [{}, THREE_BASE_TAGS], ids=["quickstart", "three-bases"])
    def test_all_fetches_and_parses_each_label_page_once(self, tmp_path, monkeypatch, overrides):
        fetched = []  # label-search requests, one per page fetched
        parsed = []  # (request, tag), one per parse

        def fetch(self, request, page_token=None):
            raw = real_fetch(self, request, page_token)
            if request.kind == LABEL_SEARCH:
                fetched.append(request)
            return raw

        def parse(raw, tag):
            parsed.append((raw.request, tag))
            return parse_label_page(raw, tag)

        real_fetch = Fetcher.fetch
        monkeypatch.setattr(Fetcher, "fetch", fetch)
        monkeypatch.setattr(cli, "parse_label_page", parse)
        config = write_config(tmp_path, **overrides)
        assert main(["all", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        assert fetched and len(fetched) == len(set(fetched))
        assert [request for request, _ in parsed] == fetched
        assert all(request.key == tag for request, tag in parsed)

    @pytest.mark.parametrize("overrides", [{}, THREE_BASE_TAGS], ids=["quickstart", "three-bases"])
    def test_all_gives_the_coauthor_outputs_of_sound_authors(self, tmp_path, overrides):
        config = write_config(tmp_path, **overrides)
        both, alone = tmp_path / "all", tmp_path / "alone"
        assert main(["all", "--config", str(config), "--out", str(both)]) == 3
        assert main(["sound-authors", "--config", str(config), "--out", str(alone)]) == 3
        assert (both / "coauthors.gexf").read_bytes() == (alone / "coauthors.gexf").read_bytes()
        for fmt in ["graphml", "csv"]:
            exported = [
                export_run_file(d / "coauthors.gexf", fmt, d / "export") for d in (both, alone)
            ]
            assert exported[0].read_bytes() == exported[1].read_bytes(), fmt
        reports = [json.loads((d / "report.json").read_text("utf-8")) for d in (both, alone)]
        assert reports[0]["coauthor_run"] == reports[1]["coauthor_run"]
        assert reports[0]["coauthors"] == reports[1]["coauthors"]
        if overrides:
            visits = [
                line.split("\t")[1:3]
                for line in (both / "trace.tsv").read_text("utf-8").splitlines()[1:]
            ]
            assert ["physical_optics", "singular_optics"] in visits
            assert ["singular_optics", "singular_optics"] not in visits


class TestRunContext:
    def test_manifest_digests_are_of_the_bytes_written(self, tmp_path):
        out = tmp_path / "out"
        ctx = cli.RunContext(build_config(minimal_data(out_dir=str(out))))
        ctx.write("x.txt", "a")
        ctx.write("y.txt", "first")
        ctx.write("y.txt", "second")  # a name written twice keeps its last digest
        (out / "x.txt").write_text("changed on disk", "utf-8")
        ctx.finish_manifest()
        manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
        assert manifest["outputs"] == [
            {"path": "x.txt", "sha256": hashlib.sha256(b"a").hexdigest()},
            {"path": "y.txt", "sha256": hashlib.sha256(b"second").hexdigest()},
        ]

    @pytest.mark.parametrize("command, code, written", [
        ("sound-tags", 0, ["notion.gexf", "report.json", "trace.tsv"]),
        ("sound-authors", 3, ["coauthors.gexf", "report.json"]),
        ("all", 3, ["coauthors.gexf", "notion.gexf", "report.json", "trace.tsv"]),
    ])
    def test_a_run_directory_holds_only_what_its_manifest_lists(
        self, tmp_path, command, code, written
    ):
        """One GEXF file per network, and no file that the manifest leaves out."""
        config, out = write_config(tmp_path), tmp_path / "out"
        assert main([command, "--config", str(config), "--out", str(out)]) == code
        manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
        assert [entry["path"] for entry in manifest["outputs"]] == written
        assert sorted(path.name for path in out.iterdir()) == sorted([*written, "run_manifest.json"])


class TestCliAnalyzeExport:
    @pytest.fixture()
    def gexf_path(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["sound-tags", "--config", str(config), "--out", str(out)]) == 0
        return out / "notion.gexf"

    def test_analyze_adds_sections(self, gexf_path, tmp_path):
        out = tmp_path / "analysis"
        code = main([
            "analyze", "--in", str(gexf_path), "--out", str(out),
            "--k-core", "2", "--min-weight", "2", "--communities",
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text("utf-8"))
        assert "kcore" in report and "communities" in report
        assert report["kcore"]["k"] == 2
        graph = from_gexf(gexf_path.read_text("utf-8")).graph
        assert set(report["kcore"]["nodes"]) <= set(graph.nodes)

    def test_analyze_reports_how_clustering_ended(self, gexf_path, tmp_path):
        out = tmp_path / "analysis"
        assert main(["analyze", "--in", str(gexf_path), "--out", str(out), "--communities"]) == 0
        section = json.loads((out / "report.json").read_text("utf-8"))["communities"]
        assert section["converged"] is True
        assert 1 <= section["sweeps"] < 100
        assert section["count"] == len(set(section["assignment"].values()))

    def test_analyze_empty_graph_communities(self, tmp_path):
        empty = tmp_path / "empty.gexf"
        empty.write_text(to_gexf(make_bundle(Graph())), "utf-8")
        out = tmp_path / "analysis"
        assert main(["analyze", "--in", str(empty), "--out", str(out), "--communities"]) == 0
        report = json.loads((out / "report.json").read_text("utf-8"))
        assert report["communities"]["count"] == 0
        assert report["top_clusters"] == []

    @pytest.mark.parametrize("command", [
        ["analyze", "--communities"],
        ["export", "--format", "csv"],
    ], ids=["analyze", "export"])
    @pytest.mark.parametrize("old, new, location", [
        ('weight="1"', 'weight="heavy"', "edge"),
        ('<attvalue for="0" value="1"/>', '<attvalue for="0" value="1.5"/>', "node"),
        ('<edge id="1" source="acoustooptics" target="singular_optics"',
         '<edge id="1" source="acoustooptics" target="physical_optics"', "edge 1"),
        ('<edge id="1" source="acoustooptics" target="singular_optics"',
         '<edge id="1" source="acoustooptics" target="acoustooptics"', "edge 1"),
        ('<attribute id="0" title="depth_discovered" type="integer"/>',
         '<attribute id="0" type="integer"/>', "attribute 0"),
        ("</nodes>", '<node id="acoustooptics"/></nodes>', "node acoustooptics"),
        ('weight="1"', 'weight="nan"', "edge"),
        ('weight="1"', 'weight="inf"', "edge"),
    ], ids=["weight", "integer", "duplicate-edge", "self-loop", "untitled-attribute",
            "repeated-node", "nan-weight", "inf-weight"])
    def test_bad_gexf_values_exit_two_with_one_line(
        self, gexf_path, tmp_path, capsys, command, old, new, location
    ):
        text = gexf_path.read_text("utf-8")
        assert old in text
        bad = tmp_path / "bad.gexf"
        bad.write_text(text.replace(old, new, 1), "utf-8")
        code = main([command[0], "--in", str(bad), "--out", str(tmp_path / "x"), *command[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"(at {location}" in err

    @pytest.mark.parametrize("stem, content", [
        ("notion", "{not json"),
        ("notion", "[1, 2]"),
        ("coauthors", '{"coauthors": [1]}'),  # the co-author sections go under this key
        ("coauthors", '{"coauthors": null}'),
    ], ids=["not-json", "not-object", "coauthors-list", "coauthors-null"])
    def test_analyze_bad_report_in_out_exits_two_with_one_line(
        self, gexf_path, tmp_path, capsys, stem, content
    ):
        gexf = tmp_path / f"{stem}.gexf"
        shutil.copy(gexf_path, gexf)
        out = tmp_path / "analysis"
        out.mkdir()
        (out / "report.json").write_text(content, "utf-8")
        code = main(["analyze", "--in", str(gexf), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "report.json" in err
        assert (out / "report.json").read_text("utf-8") == content
        assert [p.name for p in out.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("content", [
        "{not json", "[1, 2]", "{}", '{"outputs": {"path": "report.json"}}', '{"outputs": [5]}',
    ], ids=["not-json", "not-object", "no-outputs", "outputs-object", "output-number"])
    def test_analyze_bad_manifest_in_out_exits_two_with_one_line(
        self, gexf_path, tmp_path, capsys, content
    ):
        out = tmp_path / "analysis"
        out.mkdir()
        (out / "run_manifest.json").write_text(content, "utf-8")
        code = main(["analyze", "--in", str(gexf_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "run_manifest.json" in err
        assert (out / "run_manifest.json").read_text("utf-8") == content
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("content", ["{not json", '{"outputs": [5]}'],
                             ids=["not-json", "output-number"])
    def test_export_bad_manifest_in_out_exits_two_with_one_line(
        self, gexf_path, tmp_path, capsys, content
    ):
        out = tmp_path / "exported"
        out.mkdir()
        (out / "run_manifest.json").write_text(content, "utf-8")
        code = main(["export", "--in", str(gexf_path), "--format", "csv", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "run_manifest.json" in err
        assert [p.name for p in out.iterdir()] == ["run_manifest.json"]
        assert (out / "run_manifest.json").read_text("utf-8") == content

    @pytest.fixture()
    def default_int_digits(self):
        """CPython's default limit on the digits of an int read from text,
        pinned so that no environment setting lifts it for the test."""
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python reads integers of any length")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("content", [
        b"[" * 100_000, b'{"depth": ' + b"7" * 5000 + b"}", b'{"depth": "\xff"}',
    ], ids=["deep-nesting", "long-integer", "not-utf8"])
    @pytest.mark.parametrize("command, name, code", [
        (["all"], "config.json", 1),
        (["analyze", "--communities"], "report.json", 2),
        (["export", "--format", "csv"], "run_manifest.json", 2),
    ], ids=["config", "report", "manifest"])
    def test_json_the_decoder_refuses_exits_with_one_line_naming_the_file(
        self, gexf_path, tmp_path, capsys, default_int_digits, command, name, code, content
    ):
        """The JSON decoder refuses these with a RecursionError, a plain
        ValueError or a UnicodeDecodeError, none of them a JSONDecodeError."""
        work = tmp_path / "work"
        work.mkdir()
        bad = work / name
        bad.write_bytes(content)
        if command == ["all"]:
            argv = ["all", "--config", str(bad), "--fixtures", "bundled", "--out", str(work / "out")]
            named = "config field '<file>': "
        else:
            argv = [command[0], "--in", str(gexf_path), "--out", str(work), *command[1:]]
            named = f"{bad} is not JSON: "
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1
        assert "Traceback" not in err
        assert bad.read_bytes() == content
        assert [p.name for p in work.iterdir()] == [name]

    @pytest.mark.parametrize("command, name", [
        (["analyze", "--communities"], "report.json"),
        (["export", "--format", "csv"], "edges_notion.csv"),
    ], ids=["analyze", "export"])
    def test_failed_replace_leaves_the_old_file_whole(
        self, gexf_path, tmp_path, capsys, monkeypatch, command, name
    ):
        out = tmp_path / "analysis"
        out.mkdir()
        old = b'{"kept": true}\n'
        (out / name).write_bytes(old)

        def disk_full(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("scholar_sounder.cli.os.replace", disk_full)
        code = main([command[0], "--in", str(gexf_path), "--out", str(out), *command[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert (out / name).read_bytes() == old
        assert [p.name for p in out.iterdir()] == [name]  # no temporary file left

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_analyze_non_positive_k_core_is_a_config_error(self, gexf_path, tmp_path, capsys, k):
        out = tmp_path / "analysis"
        code = main(["analyze", "--in", str(gexf_path), "--out", str(out), "--k-core", k])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--k-core" in err
        assert not out.exists()

    def test_analyze_cluster_weight_past_the_float_range_stays_strict_json(self, tmp_path):
        graph = Graph()
        graph.add_edge("a", "b", 1e308)
        graph.add_edge("a", "c", 1e308)
        gexf = tmp_path / "huge.gexf"
        gexf.write_text(to_gexf(make_bundle(graph)), "utf-8")
        out = tmp_path / "analysis"
        assert main(["analyze", "--in", str(gexf), "--out", str(out), "--communities"]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads((out / "report.json").read_text("utf-8"), parse_constant=reject)
        assert [c["internal_weight"] for c in report["top_clusters"]] == [2 * int(1e308)]

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_analyze_non_finite_min_weight_is_a_config_error(
        self, gexf_path, tmp_path, capsys, weight
    ):
        out = tmp_path / "analysis"
        code = main([
            "analyze", "--in", str(gexf_path), "--out", str(out), "--k-core", "1",
            f"--min-weight={weight}",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--min-weight" in err
        assert not out.exists()

    def test_analyze_min_weight_without_k_core_is_a_config_error(self, gexf_path, tmp_path, capsys):
        """The threshold filters only the k-core, so alone it would do nothing."""
        out = tmp_path / "analysis"
        code = main(["analyze", "--in", str(gexf_path), "--out", str(out), "--min-weight", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config field '--min-weight':") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [["analyze", "--communities"], ["export", "--format", "csv"]],
                             ids=["analyze", "export"])
    def test_graphml_input_exits_two_with_one_line(self, gexf_path, tmp_path, capsys, command):
        """``export --format graphml`` writes notion.graphml from notion.gexf; only
        the GEXF file is an input."""
        out = tmp_path / "x"
        graphml = str(export_run_file(gexf_path, "graphml", tmp_path / "graphml"))
        code = main([command[0], "--in", graphml, "--out", str(out), *command[1:]])
        assert code == 2
        assert capsys.readouterr().err == "error: root element is <graphml>, expected <gexf>\n"
        assert not out.exists()

    def test_analyze_rejects_missing_input(self, tmp_path, capsys):
        code = main(["analyze", "--in", str(tmp_path / "nope.gexf"), "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_undecodable_input_exits_two_with_one_line(self, gexf_path, tmp_path, capsys):
        bad = tmp_path / "bad.gexf"
        bad.write_bytes(gexf_path.read_bytes().replace(b"optics", b"optic\xff", 1))
        code = main(["export", "--in", str(bad), "--format", "csv", "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command, name", [
        (["analyze", "--communities"], "detect_communities"),
        (["export", "--format", "graphml"], "to_graphml"),
    ], ids=["analyze", "export"])
    def test_interrupt_exits_two_with_one_line(
        self, gexf_path, tmp_path, capsys, monkeypatch, command, name
    ):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, name, interrupt)
        code = main([command[0], "--in", str(gexf_path), "--out", str(tmp_path / "x"), *command[1:]])
        assert code == 2
        assert capsys.readouterr().err == "error: interrupted\n"

    def test_analyze_report_does_not_depend_on_edge_order(self, tmp_path):
        # float sums depend on their order: 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
        edges = [("a", "b", "0.1"), ("a", "c", "0.2"), ("a", "d", "0.3")]
        reports = []
        for name, listed in [("forward", edges), ("reverse", edges[::-1])]:
            gexf = tmp_path / f"{name}.gexf"
            gexf.write_text(
                '<?xml version="1.0" encoding="UTF-8"?>\n'
                '<gexf xmlns="http://gexf.net/1.3" version="1.3">'
                '<graph defaultedgetype="undirected"><nodes>'
                + "".join(f'<node id="{n}" label="{n}"/>' for n in "abcd")
                + "</nodes><edges>"
                + "".join(
                    f'<edge id="{i}" source="{a}" target="{b}" weight="{w}"/>'
                    for i, (a, b, w) in enumerate(listed)
                )
                + "</edges></graph></gexf>\n",
                "utf-8",
            )
            out = tmp_path / f"analysis_{name}"
            assert main(["analyze", "--in", str(gexf), "--out", str(out), "--communities"]) == 0
            assert main(["export", "--in", str(gexf), "--format", "json", "--out", str(out)]) == 0
            reports.append([(out / f).read_bytes() for f in ("report.json", f"{name}.json")])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command, builds", [
        (["analyze", "--in", "GEXF", "--k-core", "2", "--communities"], 1),
        (["all", "--config", "CONFIG"], 2),
    ], ids=["analyze", "all"])
    def test_one_index_per_analysed_graph(self, gexf_path, tmp_path, monkeypatch, command, builds):
        calls = []
        build = cli.indexed_adjacency

        def counted(graph):
            calls.append(graph)
            return build(graph)

        monkeypatch.setattr(cli, "indexed_adjacency", counted)
        paths = {"GEXF": str(gexf_path), "CONFIG": str(write_config(tmp_path))}
        main([paths.get(arg, arg) for arg in command] + ["--out", str(tmp_path / "x")])
        assert len(calls) == builds

    def test_export_csv(self, gexf_path, tmp_path):
        out = tmp_path / "exported"
        code = main(["export", "--in", str(gexf_path), "--format", "csv", "--out", str(out)])
        assert code == 0
        text = (out / "edges_notion.csv").read_text("utf-8")
        assert text.startswith("source,target,weight")

    def test_export_graphml(self, gexf_path, tmp_path):
        out = tmp_path / "exported"
        code = main(["export", "--in", str(gexf_path), "--format", "graphml", "--out", str(out)])
        assert code == 0
        assert 'edgedefault="undirected"' in (out / "notion.graphml").read_text("utf-8")

    def test_export_rejects_directed_gexf(self, tmp_path, gexf_path, capsys):
        bad = tmp_path / "directed.gexf"
        bad.write_text(
            gexf_path.read_text("utf-8").replace(
                'defaultedgetype="undirected"', 'defaultedgetype="directed"'
            ),
            "utf-8",
        )
        code = main(["export", "--in", str(bad), "--format", "csv", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def config_keys() -> set[str]:
    """Every key a config file or a run flag may set."""
    keys = {f.name for f in fields(Config)} - {"fetch"}
    return keys | {f"fetch.{f.name}" for f in fields(FetchPolicy)} - {"fetch.base_url"}


def run_command_actions() -> dict[str, list[argparse.Action]]:
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    return {
        command: [a for a in commands[command]._actions if not isinstance(a, argparse._HelpAction)]
        for command in ("sound-tags", "sound-authors", "all")
    }


class TestCliUsage:
    def test_every_run_flag_sets_a_config_key(self):
        for command, actions in run_command_actions().items():
            dests = {a.dest for a in actions}
            assert {"config", "verbose"} <= dests
            assert dests - {"config", "verbose"} <= config_keys(), command

    def test_the_readme_configuration_table_matches_the_code(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = [
            [cell.strip().strip("`") for cell in line.split("|")[1:3]]
            for line in section.splitlines() if line.startswith("| `")
        ]
        assert sorted(field for field, _ in rows) == sorted(config_keys())
        for command, actions in run_command_actions().items():
            dest_of = {flag: a.dest for a in actions for flag in a.option_strings}
            for field, flag in rows:
                if flag:
                    assert dest_of.get(flag) == field, (command, flag)

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0
        assert "usage" in capsys.readouterr().err.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "scholar-sounder" in capsys.readouterr().out
