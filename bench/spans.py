"""In-memory span tracing of the package's public functions, installed from
outside the package, and the per-layer metrics derived from the spans.

Each wrapped call records a span ``[name, start, end, parent, run]``:
``parent`` is the index of the innermost span open when the call began, and
``run`` the pass it belongs to. Functions are wrapped where their callers
look them up: ``cli`` imports its helpers by name, so the wrapper goes into
the ``cli`` namespace as well as the defining module. Observers pull counts
(bytes, dropped entries, result sizes) out of arguments and results after
the span has closed.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict

from scholar_sounder import analysis, cli, coauthor_graph, fetcher, notion_graph, parser

SWEEP_CAP = 100  # detect_communities stops after this many sweeps


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = None
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.fetchers: dict[int, tuple] = {}  # id -> (Fetcher, requests seen)
        self.last: dict[str, object] = {}     # most recent result per span name
        self.first = 0                        # index of the current pass's first span

    def begin_pass(self, run_id: str):
        self.run = run_id
        self.counts = defaultdict(float)
        self.fetchers = {}
        self.last = {}
        self.first = len(self.spans)

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.run]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result, error = None, None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                tracer.last[name] = result
                if observe is not None:
                    observe(tracer, args, result, error)

        return traced


# -- observers ----------------------------------------------------------


def _observe_label_parse(tr: Tracer, args, page, error):
    tr.counts["parser.bytes"] += len(args[0].body)
    if error is not None:
        tr.counts["parser.errors"] += 1
        return
    tr.counts["parser.dropped"] += page.dropped
    tr.counts["parser.low_confidence"] += sum(a.low_confidence for a in page.authors)


def _observe_profile_parse(tr: Tracer, args, profile, error):
    tr.counts["parser.bytes"] += len(args[0].body)
    if error is not None:
        tr.counts["parser.errors"] += 1


def _observe_fetch(tr: Tracer, args, raw, error):
    client, request = args[0], args[1]
    tr.fetchers.setdefault(id(client), (client, set()))[1].add(request)
    if error is not None:
        tr.counts["fetcher.failed"] += 1
        return
    tr.counts["fetcher.bytes"] += len(raw.body)
    tr.counts["fetcher.cache_hits"] += raw.source == "cache"


def _observe_export_in(tr: Tracer, args, result, error):
    tr.counts["export.bytes_in"] += len(args[0].encode("utf-8"))


def _observe_export_out(tr: Tracer, args, text, error):
    if text is not None:
        tr.counts["export.bytes_out"] += len(text.encode("utf-8"))


def _observe_sound_tags(tr: Tracer, args, net, error):
    if net is not None:
        tr.counts["notion_graph.visits"] += len(net.trace)


def _observe_sound_authors(tr: Tracer, args, net, error):
    if net is not None:
        tr.counts["coauthor_graph.profiles_fetched"] += net.report.profiles_fetched
        tr.counts["coauthor_graph.failures"] += net.report.failures


def _observe_communities(tr: Tracer, args, partition, error):
    if partition is not None:
        tr.counts["analysis.communities"] += len(set(partition.assignment.values()))


# (module or class, attribute, span name, observer). A name imported into
# cli appears once for its home module and once for cli.
_PARSE_LABEL = ("parser.parse_label_page", _observe_label_parse)
_PARSE_PROFILE = ("parser.parse_author_page", _observe_profile_parse)
_SOUND_TAGS = ("notion_graph.sound_tags", _observe_sound_tags)
_SOUND_AUTHORS = ("coauthor_graph.sound_authors", _observe_sound_authors)
_DETECT = ("analysis.detect_communities", _observe_communities)
TARGETS = [
    (parser, "parse_label_page", *_PARSE_LABEL),
    (parser, "parse_author_page", *_PARSE_PROFILE),
    (cli, "parse_label_page", *_PARSE_LABEL),
    (cli, "parse_author_page", *_PARSE_PROFILE),
    (fetcher.Fetcher, "fetch", "fetcher.fetch", _observe_fetch),
    (notion_graph, "sound_tags", *_SOUND_TAGS),
    (cli, "sound_tags", *_SOUND_TAGS),
    (notion_graph, "select_next_tag", "notion_graph.select_next_tag", None),
    (notion_graph, "absorb_label_page", "notion_graph.absorb_label_page", None),
    (coauthor_graph, "sound_authors", *_SOUND_AUTHORS),
    (cli, "sound_authors", *_SOUND_AUTHORS),
    (coauthor_graph, "seed_authors", "coauthor_graph.seed_authors", None),
    (cli, "degree_stats", "analysis.degree_stats", None),
    (cli, "connected_components", "analysis.connected_components", None),
    (cli, "k_core", "analysis.k_core", None),
    (cli, "detect_communities", *_DETECT),
    (analysis, "propagation_sweep", "analysis.propagation_sweep", None),
    (cli, "top_clusters", "analysis.top_clusters", None),
    (cli, "from_gexf", "export.from_gexf", _observe_export_in),
    (cli, "make_bundle", "export.make_bundle", None),
    (cli, "to_gexf", "export.to_gexf", _observe_export_out),
    (cli, "to_graphml", "export.to_graphml", _observe_export_out),
    (cli, "to_edge_csv", "export.to_edge_csv", _observe_export_out),
    (cli, "to_json_report", "export.to_json_report", _observe_export_out),
    (cli.RunContext, "finish_manifest", "cli.finish_manifest", None),
    (cli, "main", "cli.main", None),
]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every target for its traced wrapper; restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
    try:
        for owner, attr, name, observe in TARGETS:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], observe))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# -- per-layer metrics ----------------------------------------------------


def _durations(spans, name) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]


def _self_time(spans, offset: int, name: str) -> float:
    """Summed duration of ``name`` spans minus the time their direct child
    spans cover (calls are sequential, so children never overlap)."""
    total = 0.0
    owners = {}
    for i, s in enumerate(spans):
        if s[0] == name:
            owners[offset + i] = True
            total += s[2] - s[1]
    for s in spans:
        if s[3] in owners:
            total -= s[2] - s[1]
    return total


def _pct_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1000
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the pass the tracer last began."""
    offset = tracer.first
    spans = tracer.spans[offset:]
    c = tracer.counts
    label = _durations(spans, "parser.parse_label_page")
    profile = _durations(spans, "parser.parse_author_page")
    fetch = _durations(spans, "fetcher.fetch")
    parse_s = sum(label) + sum(profile)
    unique = sum(len(seen) for _, seen in tracer.fetchers.values())
    requests = sum(len(client.request_log) for client, _ in tracer.fetchers.values())

    detect_ids = [offset + i for i, s in enumerate(spans) if s[0] == "analysis.detect_communities"]
    sweeps_per_call = [
        sum(1 for s in spans if s[0] == "analysis.propagation_sweep" and s[3] == d)
        for d in detect_ids
    ]
    sweep = _durations(spans, "analysis.propagation_sweep")

    tags = tracer.last.get("notion_graph.sound_tags")
    authors = tracer.last.get("coauthor_graph.sound_authors")
    m = {
        "parser.label_pages": len(label),
        "parser.label_s": sum(label),
        "parser.label_ms_p50": _pct_ms(label, 50),
        "parser.label_ms_p99": _pct_ms(label, 99),
        "parser.profile_pages": len(profile),
        "parser.profile_s": sum(profile),
        "parser.profile_ms_p50": _pct_ms(profile, 50),
        "parser.profile_ms_p99": _pct_ms(profile, 99),
        "parser.kb_per_s": c["parser.bytes"] / 1000 / parse_s if parse_s else 0.0,
        "parser.dropped": c["parser.dropped"],
        "parser.low_confidence": c["parser.low_confidence"],
        "parser.errors": c["parser.errors"],
        "fetcher.fetch_calls": len(fetch),
        "fetcher.unique_pages": unique,
        "fetcher.unique_ratio": unique / len(fetch) if fetch else 0.0,
        "fetcher.dup_fetches": len(fetch) - unique,
        "fetcher.fetch_s": sum(fetch),
        "fetcher.fetch_ms_p50": _pct_ms(fetch, 50),
        "fetcher.fetch_ms_p99": _pct_ms(fetch, 99),
        "fetcher.cache_hits": c["fetcher.cache_hits"],
        "fetcher.http_requests": requests,
        "fetcher.failed": c["fetcher.failed"],
        "fetcher.bytes": c["fetcher.bytes"],
        "notion_graph.sound_tags_s": sum(_durations(spans, "notion_graph.sound_tags")),
        "notion_graph.self_s": _self_time(spans, offset, "notion_graph.sound_tags"),
        "notion_graph.select_next_tag_s": sum(_durations(spans, "notion_graph.select_next_tag")),
        "notion_graph.select_calls": len(_durations(spans, "notion_graph.select_next_tag")),
        "notion_graph.absorb_s": sum(_durations(spans, "notion_graph.absorb_label_page")),
        "notion_graph.visits": c["notion_graph.visits"],
        "notion_graph.nodes": len(tags.nodes) if tags else 0,
        "notion_graph.edges": len(tags.edges) if tags else 0,
        "coauthor_graph.sound_authors_s": sum(_durations(spans, "coauthor_graph.sound_authors")),
        "coauthor_graph.self_s": _self_time(spans, offset, "coauthor_graph.sound_authors"),
        "coauthor_graph.seed_authors_s": sum(_durations(spans, "coauthor_graph.seed_authors")),
        "coauthor_graph.profiles_fetched": c["coauthor_graph.profiles_fetched"],
        "coauthor_graph.failures": c["coauthor_graph.failures"],
        "coauthor_graph.stubs": authors.report.stubs if authors else 0,
        "coauthor_graph.nodes": len(authors.nodes) if authors else 0,
        "coauthor_graph.edges": len(authors.edges) if authors else 0,
        "analysis.degree_stats_s": sum(_durations(spans, "analysis.degree_stats")),
        "analysis.connected_components_s": sum(_durations(spans, "analysis.connected_components")),
        "analysis.k_core_s": sum(_durations(spans, "analysis.k_core")),
        "analysis.detect_communities_s": sum(_durations(spans, "analysis.detect_communities")),
        "analysis.sweeps": max(sweeps_per_call, default=0),
        "analysis.sweep_ms": statistics.median(sweep) * 1000 if sweep else 0.0,
        "analysis.converged": int(bool(sweeps_per_call) and max(sweeps_per_call) < SWEEP_CAP),
        "analysis.communities": c["analysis.communities"],
        "analysis.top_clusters_s": sum(_durations(spans, "analysis.top_clusters")),
        "export.from_gexf_s": sum(_durations(spans, "export.from_gexf")),
        "export.to_gexf_s": sum(_durations(spans, "export.to_gexf")),
        "export.to_graphml_s": sum(_durations(spans, "export.to_graphml")),
        "export.to_edge_csv_s": sum(_durations(spans, "export.to_edge_csv")),
        "export.to_json_report_s": sum(_durations(spans, "export.to_json_report")),
        "export.make_bundle_s": sum(_durations(spans, "export.make_bundle")),
        "export.bytes_in": c["export.bytes_in"],
        "export.bytes_out": c["export.bytes_out"],
        "cli.self_s": _self_time(spans, offset, "cli.main"),
        "cli.finish_manifest_s": sum(_durations(spans, "cli.finish_manifest")),
        "trace.spans": len(spans),
    }
    return {k: float(v) for k, v in m.items()}
