"""One fresh process that runs a workload pass after pass for a fixed time.

Usage: ``python3 bench/worker.py <job.json>``. The job names the workload,
its inputs and the run length; the worker prints one JSON object with the
per-pass timings and counts, its peak resident memory, and, when tracing,
the per-layer metrics of each traced pass. Passes are closed-loop: one
sequential caller, at most one connection open. With tracing on, untraced
and traced passes alternate so the difference of their medians is the
tracing overhead.

A speed probe runs between passes. The machine's speed drifts by up to 2x
over tens of seconds on a shared host; each pass's ``speed_factor``, worked
out from the probe's times just before and after the pass, lets the report
state pass times at a fixed reference speed.
"""

from __future__ import annotations

import json
import logging
import random
import resource
import shutil
import sys
import time
from html.parser import HTMLParser
from pathlib import Path

from scholar_sounder import cli, coauthor_graph, notion_graph, parser
from scholar_sounder.config import build_config
from scholar_sounder.fetcher import Fetcher

import spans
from stub_server import StubService

EXPECTED_EXITS = (cli.EXIT_OK, cli.EXIT_PARTIAL)  # 3: finished, some profiles missing


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def replay_pass(job: dict) -> dict:
    out = _fresh(Path(job["work"]) / "replay_out")
    start = time.perf_counter()
    code = cli.main(["all", "--config", job["config_file"], "--out", str(out)])
    wall = time.perf_counter() - start
    counts = json.loads((out / "run_manifest.json").read_text("utf-8"))["counts"]
    return {
        "wall_s": wall,
        "parts": {"replay_s": wall},
        "ops": counts["pages_fetched"] + 1,
        "misses": counts["warnings"],
        "bad": int(code not in EXPECTED_EXITS),
        "exit_codes": [code],
    }


def _crawl_phase(raw_config: dict, base_url: str):
    config = build_config(raw_config)
    config.fetch.base_url = base_url
    client = Fetcher(config.fetch)
    tags = notion_graph.sound_tags(config, client.fetch, parser.parse_label_page)
    authors = coauthor_graph.sound_authors(
        config, client.fetch, parser.parse_author_page, parse_label=parser.parse_label_page
    )
    return client, tags, authors


def crawl_pass(job: dict) -> dict:
    cache = _fresh(Path(job["work"]) / "cache")
    raw = dict(job["config"])
    raw["fetch"] = {"mode": "live", "cache_dir": str(cache), "min_delay_ms": 1}
    phases = {}
    for phase in ("cold", "warm"):
        start = time.perf_counter()
        client, tags, authors = _crawl_phase(raw, job["base_url"])
        phases[phase] = (time.perf_counter() - start, client, tags, authors)
    cold, warm = phases["cold"], phases["warm"]
    Path(job["work"], "crawl_networks.json").write_text(json.dumps({
        phase: {"notion": p[2].to_canonical_dict(), "coauthor": p[3].to_canonical_dict()}
        for phase, p in phases.items()
    }), "utf-8")
    return {
        "wall_s": cold[0] + warm[0],
        "parts": {
            "cold_crawl_s": cold[0],
            "warm_crawl_s": warm[0],
            "live_requests": len(cold[1].request_log),
            "rerun_requests": len(warm[1].request_log),
        },
        "ops": cold[1].pages_fetched + warm[1].pages_fetched,
        "misses": cold[3].report.failures + warm[3].report.failures,
        "bad": 0,
    }


def analyze_pass(job: dict) -> dict:
    out = _fresh(Path(job["work"]) / "analyze_out")
    gexf = job["gexf"]
    codes = []
    start = time.perf_counter()
    codes.append(cli.main(["analyze", "--in", gexf, "--k-core", "2", "--min-weight", "2",
                           "--communities", "--out", str(out)]))
    mid = time.perf_counter()
    for fmt in ("gexf", "graphml", "csv", "json"):
        codes.append(cli.main(["export", "--in", gexf, "--format", fmt, "--out", str(out)]))
    end = time.perf_counter()
    return {
        "wall_s": end - start,
        "parts": {"analyze_s": mid - start, "export_s": end - mid},
        "ops": len(codes),
        "misses": 0,
        "bad": sum(code != cli.EXIT_OK for code in codes),
        "exit_codes": codes,
    }


PASSES = {"replay": replay_pass, "crawl-live": crawl_pass, "analyze-large": analyze_pass}


class SpeedProbe:
    """A fixed kernel of the kinds of work the toolkit does (HTML parsing
    with the stdlib parser, weighted label sweeps over dicts, string keys
    and sorting), independent of the code under test. Its run time tracks
    how fast the machine runs Python at the moment it is measured; on a
    shared host that varies by up to 2x over tens of seconds."""

    NOMINAL_S = 0.040  # the kernel's median time on the machine the benchmark was tuned on
    # Pass times move less than the probe's: over 340 passes on that machine,
    # log(pass time) rose 0.47 to 0.66 times as much as log(probe time).
    ELASTICITY = 0.65

    def factor(self, probe_s: float) -> float:
        """Multiplier that turns a time measured while the probe took
        ``probe_s`` into a time at reference speed."""
        return (self.NOMINAL_S / probe_s) ** self.ELASTICITY

    def __init__(self):
        rng = random.Random(20160507)
        self.adjacency = {n: {} for n in range(600)}
        for _ in range(1800):
            a, b = rng.randrange(600), rng.randrange(600)
            if a != b:
                self.adjacency[a][b] = self.adjacency[b][a] = float(rng.randint(1, 2))
        self.page = "".join(
            f'<div class="gsc_1usr"><h3><a href="/citations?user=U{i}">Name {i}</a></h3>'
            f'<a class="gs_ai_one_int">Topic {rng.randrange(50)} Optics</a></div>\n'
            for i in range(40)
        )

    def measure(self) -> float:
        start = time.perf_counter()
        for _ in range(8):
            page = HTMLParser()
            page.feed(self.page)
            page.close()
        labels = {n: n for n in self.adjacency}
        for _ in range(5):
            nxt = {}
            for node in sorted(self.adjacency):
                weight: dict[int, float] = {}
                for nbr, w in self.adjacency[node].items():
                    weight[labels[nbr]] = weight.get(labels[nbr], 0.0) + w
                nxt[node] = max(weight.items(), key=lambda kv: (kv[1], -kv[0]))[0] if weight else labels[node]
            labels = nxt
        counts: dict[str, int] = {}
        for i in range(40000):
            key = f"k{i % 2000}"
            counts[key] = counts.get(key, 0) + i
        sorted(counts.items(), key=lambda kv: -kv[1])
        return time.perf_counter() - start


def run_passes(job: dict) -> dict:
    """Passes until ``job["seconds"]`` have gone by, each bracketed by speed
    probes; with tracing on, every untraced pass is followed by a traced one."""
    run_pass = PASSES[job["workload"]]
    tracer = spans.Tracer() if job["trace"] else None
    probe = SpeedProbe()
    passes, traced = [], []
    begin = time.perf_counter()
    reference = probe.measure()

    def timed(result: dict) -> dict:
        nonlocal reference
        after = probe.measure()
        result["speed_factor"] = probe.factor((reference + after) / 2)
        reference = after
        return result

    while True:
        passes.append(timed(run_pass(job)))
        if tracer is not None:
            tracer.begin_pass(f"{job['workload']}:{job['seed']}:{len(traced)}")
            with spans.installed(tracer):
                result = run_pass(job)
            result["layers"] = spans.layer_metrics(tracer)
            traced.append(timed(result))
        if time.perf_counter() - begin >= job["seconds"]:
            break
    if tracer is not None:
        with open(job["spans_file"], "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
    return {"passes": passes, "traced": traced, "elapsed_s": time.perf_counter() - begin}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text("utf-8"))
    if job["workload"] == "crawl-live":
        # The stub server runs on a thread of this process: while the client
        # waits on its socket the server runs, so the two share one core.
        with StubService(Path(job["tree"])) as service:
            job["base_url"] = service.base_url
            result = run_passes(job)
        result["server"] = {"hits": service.hits, "not_found": service.not_found}
    else:
        result = run_passes(job)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # The program logs one warning per missing profile; send them to a file
    # next to the job, off the benchmark's output, still paying for them.
    with open(Path(sys.argv[1]).with_suffix(".log"), "w", encoding="utf-8") as log:
        logging.basicConfig(level=logging.WARNING, stream=log)
        code = main(sys.argv[1])
    sys.exit(code)
