"""Command-line orchestration: load config, run soundings, run analysis,
write exports and a run manifest.

Exit codes: 0 success, 1 config error, 2 a fetch, file, encoding or format
failure or an interrupt (Ctrl-C) that aborted the run, 3 completed with
warnings (recorded in the manifest).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import astuple, fields
from datetime import datetime, timezone
from pathlib import Path

from . import TOOL_NAME, __version__, bundled_fixtures_dir
from .analysis import (
    canonical_number, connected_components, degree_stats, detect_communities, indexed_adjacency,
    k_core, top_clusters,
)
from .config import Config, build_config, read_config_file
from .coauthor_graph import seed_authors, sound_authors
from .errors import ConfigError, FormatError, ScholarSounderError
from .export import (
    ExportBundle, from_gexf, json_text, make_bundle, to_edge_csv, to_gexf, to_graphml,
    to_json_report,
)
from .fetcher import Fetcher
from .notion_graph import TraceRecord, fetch_label_pages, sound_tags
from .parser import parse_author_page, parse_label_page

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORTED = 2
EXIT_PARTIAL = 3

log = logging.getLogger(__name__)

COAUTHORS = "coauthors"  # the co-author network's file stem and report.json section


def _fixtures_dir(value: str) -> str:
    """``--fixtures`` value: ``bundled`` names the corpus shipped with the package."""
    return str(bundled_fixtures_dir()) if value == "bundled" else value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=TOOL_NAME, description=__doc__)
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        # Each dest is the config key the flag overrides (see config.build_config).
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--mode", dest="fetch.mode", choices=["live", "fixture"])
        p.add_argument(
            "--fixtures", dest="fetch.fixtures_dir", type=_fixtures_dir,
            help="fixture corpus dir, or 'bundled'",
        )
        p.add_argument("--cache", dest="fetch.cache_dir", help="cache dir for live mode")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--depth", type=int)
        p.add_argument("--hop-limit", type=int, dest="hop_limit")
        p.add_argument("--delay-ms", type=int, dest="fetch.min_delay_ms")
        p.add_argument("--max-pages", type=int, dest="fetch.max_pages_per_label")
        p.add_argument("--verbose", action="store_true")

    for name, help_text in [
        ("sound-tags", "build the tag notion network"),
        ("sound-authors", "build the co-authorship network"),
        ("all", "sound both networks, analyze, and export"),
    ]:
        p = sub.add_parser(name, help=help_text)
        add_run_flags(p)

    p = sub.add_parser("analyze", help="analyze an exported GEXF graph")
    p.add_argument("--in", dest="input", required=True, help="GEXF file")
    p.add_argument("--k-core", type=int, dest="kcore")
    p.add_argument("--min-weight", type=float, dest="min_weight", default=0.0)
    p.add_argument("--communities", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("export", help="re-emit an exported graph in another format")
    p.add_argument("--in", dest="input", required=True, help="GEXF file")
    p.add_argument("--format", choices=["gexf", "graphml", "csv", "json"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--verbose", action="store_true")

    return parser


def write_atomic(path: Path, text: str) -> str:
    """Replace ``path`` in one step with ``text`` as UTF-8, so a crash never
    leaves half a file, and return the SHA-256 hex digest of the bytes
    written. A failed write or rename leaves ``path`` as it was and removes
    the temporary file. The temporary name carries the process id, so two
    runs that share an output directory never rename each other's."""
    data = text.encode("utf-8")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return hashlib.sha256(data).hexdigest()


class RunContext:
    def __init__(self, config: Config):
        self.config = config
        self.started_at = datetime.now(timezone.utc).isoformat()
        self.digests: dict[str, str] = {}  # output name -> SHA-256 of the bytes last written
        self.warnings = 0
        self.fetcher = Fetcher(config.fetch)
        config.out_dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str):
        self.digests[name] = write_atomic(self.config.out_dir / name, text)

    def finish_manifest(self):
        manifest = {
            "config_digest": self.config.digest(),
            "tool_version": f"{TOOL_NAME} {__version__}",
            "started_at": self.started_at,
            "finished_at": datetime.now(timezone.utc).isoformat(),
            "counts": {
                "pages_fetched": self.fetcher.pages_fetched,
                "cache_hits": self.fetcher.cache_hits,
                "warnings": self.warnings,
            },
            "outputs": [{"path": n, "sha256": d} for n, d in sorted(self.digests.items())],
        }
        write_atomic(self.config.out_dir / "run_manifest.json", json_text(manifest))


def _analysis_sections(graph, kcore=None, min_weight=0.0, communities=True) -> dict:
    index = indexed_adjacency(graph)  # built once, shared by every operation
    sections = {"degree_stats": degree_stats(index), "components": connected_components(index)}
    if communities:
        partition = detect_communities(index)
        count = len(set(partition.assignment.values()))
        sections["communities"] = {"count": count, **vars(partition)}
        sections["top_clusters"] = top_clusters(index, partition)
    if kcore is not None:
        nodes, edges = k_core(index, kcore, min_weight)
        sections["kcore"] = {
            "k": kcore, "min_weight": canonical_number(min_weight), "nodes": nodes, "edges": edges,
        }
    return sections


def _write_network(ctx: RunContext, stem: str, net):
    """Write ``<stem>.gexf``; ``export`` makes the GraphML and edge CSV from it."""
    bundle = make_bundle(net, ctx.config.digest(), f"{TOOL_NAME} {__version__}")
    ctx.write(f"{stem}.gexf", to_gexf(bundle))


def _cmd_sound(args) -> int:
    """Run the phases that ``args.command`` names. The tag phase writes
    ``trace.tsv``, a header and one row per tag visit; the co-author run
    counts are in ``report.json``'s ``coauthor_run`` only. A base tag without
    result pages is a warning. An abort (an error such as a tag page's
    ``SoundingError`` from ``fetch_label_pages``, or an interrupt) keeps what
    the finished phases wrote, as the manifest lists; ``main`` reports it."""
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config", "verbose")}
    config = build_config(read_config_file(args.config), flags)
    ctx = RunContext(config)
    report: dict = {"metadata": {"config_digest": config.digest()}}
    try:
        if args.command == "sound-authors":  # run alone, it fetches the base tags' pages itself
            base_pages = {
                tag: fetch_label_pages(tag, config, ctx.fetcher.fetch, parse_label_page)
                for tag in config.base_tags
            }
        else:
            net = sound_tags(config, ctx.fetcher.fetch, parse_label_page)
            base_pages = net.base_pages
            _write_network(ctx, "notion", net)
            trace = ["\t".join(f.name for f in fields(TraceRecord))]
            trace += ["\t".join(map(str, astuple(r))) for r in net.trace]
            ctx.write("trace.tsv", "\n".join(trace) + "\n")
            report.update(_analysis_sections(net))
            del net
        for tag in config.base_tags:
            if not base_pages[tag]:
                log.warning("base tag '%s' has no result pages", tag)
                ctx.warnings += 1
        if args.command != "sound-tags":
            seeds = seed_authors(config, base_pages.__getitem__)
            del base_pages  # freed, with the tag network, before the author phase runs
            net = sound_authors(config, ctx.fetcher.fetch, parse_author_page, seeds)
            ctx.warnings += net.report.failures
            _write_network(ctx, COAUTHORS, net)
            report[COAUTHORS] = _analysis_sections(net)
            report["coauthor_run"] = vars(net.report)
            del net  # serialising report.json is the run's memory peak
        ctx.write("report.json", json_text(report))
    finally:  # also on an abort or an interrupt, which main reports
        ctx.finish_manifest()
    return EXIT_PARTIAL if ctx.warnings else EXIT_OK


def _load_gexf(args) -> tuple[ExportBundle, Path]:
    """Read the ``--in`` GEXF file and create the ``--out`` directory."""
    bundle = from_gexf(Path(args.input).read_text("utf-8"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return bundle, out_dir


def _read_json_object(path: Path) -> dict:
    try:
        value = json.loads(path.read_text("utf-8"))
    except (ValueError, RecursionError) as exc:  # also a UnicodeDecodeError
        raise FormatError(f"{path} is not JSON: {exc}") from None
    if not isinstance(value, dict):
        raise FormatError(f"{path} does not hold a JSON object")
    return value


def _write_into_run(out_dir: Path, name: str, text: str):
    """Write ``out_dir/name``. If ``out_dir`` holds a run manifest that lists
    the file, its entry gets the SHA-256 of the bytes written, so the manifest
    keeps describing the files on disk. A manifest that is not a JSON object
    with a list of output objects is an error before anything is written."""
    manifest_path = out_dir / "run_manifest.json"
    manifest = _read_json_object(manifest_path) if manifest_path.is_file() else {"outputs": []}
    outputs = manifest.get("outputs")
    if not isinstance(outputs, list) or not all(isinstance(e, dict) for e in outputs):
        raise FormatError(f"{manifest_path} does not hold a list of outputs")
    digest = write_atomic(out_dir / name, text)
    listed = [entry for entry in outputs if entry.get("path") == name]
    for entry in listed:
        entry["sha256"] = digest
    if listed:
        write_atomic(manifest_path, json_text(manifest))


def _cmd_analyze(args) -> int:
    if args.kcore is not None and args.kcore < 1:
        raise ConfigError("--k-core", "must be at least 1")
    if not math.isfinite(args.min_weight):
        raise ConfigError("--min-weight", "must be a finite number")
    if args.min_weight and args.kcore is None:
        raise ConfigError("--min-weight", "is the k-core's edge threshold, so it needs --k-core")
    bundle, out_dir = _load_gexf(args)
    report_path = out_dir / "report.json"
    report = _read_json_object(report_path) if report_path.is_file() else {}
    # A run's report keeps the notion sections at its top level and the co-author
    # ones apart; a fresh report holds either graph's sections at its top level.
    section = report
    if report and Path(args.input).stem == COAUTHORS:
        section = report.setdefault(COAUTHORS, {})
    if not isinstance(section, dict):
        raise FormatError(f"{report_path}: '{COAUTHORS}' does not hold a JSON object")
    section.update(_analysis_sections(bundle.graph, args.kcore, args.min_weight, args.communities))
    _write_into_run(out_dir, "report.json", json_text(report))
    return EXIT_OK


def _cmd_export(args) -> int:
    bundle, out_dir = _load_gexf(args)
    stem = Path(args.input).stem
    name, writer = {
        "gexf": (f"{stem}.gexf", to_gexf),
        "graphml": (f"{stem}.graphml", to_graphml),
        "csv": (f"edges_{stem}.csv", to_edge_csv),
        "json": (f"{stem}.json", to_json_report),
    }[args.format]
    _write_into_run(out_dir, name, writer(bundle))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")  # no-op after the first call
    logging.getLogger().setLevel(logging.DEBUG if args.verbose else logging.WARNING)
    try:
        if args.command in ("sound-tags", "sound-authors", "all"):
            return _cmd_sound(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_export(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, UnicodeDecodeError, ScholarSounderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_ABORTED


if __name__ == "__main__":
    sys.exit(main())
