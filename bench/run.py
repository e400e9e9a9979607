"""scholar-sounder benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload replay --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (see bench/README.md for why each exists):

- ``replay``: ``cli.main(["all", ...])`` in fixture mode on a seeded
  synthetic fixture tree.
- ``crawl-live``: the same corpus fetched in live mode from a loopback stub
  server, ``sound_tags`` then ``sound_authors``, once into an empty cache
  (cold) and once from the filled cache (warm).
- ``analyze-large``: ``cli.main(["analyze", ...])`` and four
  ``cli.main(["export", ...])`` calls on a seeded co-author-shaped GEXF.

The inputs are generated from ``--seed`` and the passes run in a fresh
worker process for ``--seconds``; the outputs are checked afterwards. With
``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
traced passes and the tracing overhead. The exit code is nonzero if an
output check fails.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("replay", "crawl-live", "analyze-large")
SETUP_PROBES = 9
DEADLINE_S = 170  # every run ends well inside three minutes

SETUP_CODE = """
import time
start = time.perf_counter()
import scholar_sounder.cli
from scholar_sounder import bundled_fixtures_dir
from scholar_sounder.config import build_config
from scholar_sounder.fetcher import Fetcher
config = build_config({"base_tags": ["physical optics"], "dictionary": ["optics"],
                       "fetch": {"mode": "fixture", "fixtures_dir": str(bundled_fixtures_dir())}})
Fetcher(config.fetch)
print(time.perf_counter() - start)
"""

# Units of the figures each workload reports beyond the end-to-end metrics.
DETAIL_UNITS = {
    "replay_s": "s", "cold_crawl_s": "s", "warm_crawl_s": "s",
    "live_requests": "count", "rerun_requests": "count",
    "analyze_s": "s", "export_s": "s",
}


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first, no
    proxy between the client and the loopback server, and no cache override."""
    env = {
        k: v for k, v in os.environ.items()
        if k.lower() not in ("http_proxy", "https_proxy", "all_proxy")
        and k != "SCHOLAR_SOUNDER_CACHE"
    }
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(env: dict) -> list[float]:
    """Seconds from the first scholar_sounder import to a built Config and
    Fetcher, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout.split()[-1]))
    return times


def describe(name: str, values: list[float], unit: str, note: str = "") -> str:
    """``name median unit`` with the sample count and quartiles."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [med] * 3
    note = f"{note}; " if note else ""
    return f"{name} {med:.6g} {unit}  ({note}median of {len(values)}, quartiles {q1:.6g}-{q3:.6g})"


def run_workload(name: str, seed: int, seconds: int, trace: bool, started: float):
    import checks
    import corpus

    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    results = ROOT / ".bench_out"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    lines = []
    try:
        gen_start = time.perf_counter()
        job = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "work": str(work),
               "spans_file": str(results / f"spans_{name}_seed{seed}.jsonl")}
        if name == "analyze-large":
            bundle = corpus.build_gexf(seed, work / "large.gexf")
            job["gexf"] = str(work / "large.gexf")
            inputs = f"{len(bundle.graph.nodes)} nodes, {len(bundle.graph.edges)} edges"
        else:
            tree = work / "tree"
            meta = corpus.build_fixture_tree(ROOT, seed, tree)
            job["config"] = meta["config"]
            job["config_file"] = str(work / "config.json")
            fixture_config = dict(meta["config"], fetch={"mode": "fixture", "fixtures_dir": str(tree)})
            Path(job["config_file"]).write_text(json.dumps(fixture_config), "utf-8")
            c = meta["counts"]
            inputs = (f"{c['authors']} authors, {c['tags']} tags, {c['label_pages']} label pages, "
                      f"{c['profiles']} profiles")
        gen_s = time.perf_counter() - gen_start

        env = child_env()
        setup = measure_setup(env)
        job_file = work / "job.json"
        budget = DEADLINE_S - (time.monotonic() - started) - 10

        def run_worker():
            job_file.write_text(json.dumps(job), "utf-8")
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_file)],
                                  env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(budget, seconds + 5))
            if proc.returncode != 0:
                raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
            return json.loads(proc.stdout.strip().splitlines()[-1])

        if name == "crawl-live":
            job["tree"] = str(tree)
        raw = run_worker()

        passes, traced = raw["passes"], raw["traced"]
        every = passes + traced
        bad = sum(p["bad"] for p in every)
        errors = [f"{bad} CLI calls ended with an unexpected exit code"] if bad else []
        if name == "replay":
            errors += checks.check_replay(work / "replay_out")
            if len({p["ops"] for p in every}) != 1:
                errors.append("replay: pages fetched differ between passes")
        elif name == "crawl-live":
            errors += checks.check_crawl(work / "crawl_networks.json", meta["config"], tree,
                                         every, raw["server"]["hits"], raw["server"]["not_found"])
        else:
            errors += checks.check_analyze(work / "analyze_out", bundle, "large")

        attempted = sum(p["ops"] for p in every)
        misses = sum(p["misses"] for p in every)
        failed = attempted if errors else bad
        lines.append(f"# workload {name}, seed {seed}: closed loop, one sequential client; "
                     f"inputs {inputs} (generated in {gen_s:.2f} s)")
        lines.append(f"# {len(passes)} untraced and {len(traced)} traced passes in "
                     f"{raw['elapsed_s']:.1f} s; times in s are at reference speed: "
                     "wall time x speed factor of the pass")
        factors = [p["speed_factor"] for p in passes]
        pass_s = [p["wall_s"] * p["speed_factor"] for p in passes]
        lines.append(describe("pass_s", pass_s, "s"))
        lines.append(describe("pass_wall_s", [p["wall_s"] for p in passes], "s", "raw wall time"))
        lines.append(describe("speed_factor", factors, "x", "(0.040 s / speed probe time) ** 0.65"))
        for key, unit in DETAIL_UNITS.items():
            if key in passes[0]["parts"]:
                values = [p["parts"][key] * (p["speed_factor"] if unit == "s" else 1)
                          for p in passes]
                lines.append(describe(key, values, unit))
        lines.append(describe("setup_s", setup, "s", "fresh interpreters, wall time"))
        lines.append(f"peak_rss_mb {raw['peak_rss_mb']:.1f} MB  (worker process)")
        lines.append(f"failed_ratio {(misses + failed) / attempted:.4f} ratio  "
                     f"({misses} profiles the corpus omits on purpose + {failed} failed, "
                     f"of {attempted} operations: page fetch plus parse, or CLI call)")
        for message in errors:
            lines.append(f"CHECK FAILED: {message}")

        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": statistics.median(pass_s), "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
        if trace:
            metrics = layer_summary(traced, passes)
            for key, entry in metrics.items():
                lines.append(f"{key} {entry['value']:.6g} {entry['unit']}")
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "setup_s": setup, "generate_s": gen_s, "errors": errors,
                  "metrics": metrics, "raw": raw}
        (results / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1), "utf-8")
        return {"correct": not errors, "attempted": attempted, "failed": failed,
                "metrics": metrics}, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)


LAYER_UNITS = {"kb_per_s": "KB/s", "unique_ratio": "ratio", "converged": "flag",
               "bytes": "B", "bytes_in": "B", "bytes_out": "B"}


def layer_unit(key: str) -> str:
    leaf = key.split(".", 1)[1]
    if leaf in LAYER_UNITS:
        return LAYER_UNITS[leaf]
    if "_ms" in leaf:
        return "ms"
    return "s" if leaf.endswith("_s") else "count"


def layer_summary(traced: list[dict], untraced: list[dict]) -> dict:
    """Median of each per-layer metric over the traced passes, plus the
    tracing overhead: median traced pass minus median untraced pass, both at
    reference speed."""
    metrics = {}
    for key in traced[0]["layers"]:
        value = statistics.median(p["layers"][key] for p in traced)
        metrics[key] = {"value": value, "unit": layer_unit(key)}
    overhead = (statistics.median(p["wall_s"] * p["speed_factor"] for p in traced)
                - statistics.median(p["wall_s"] * p["speed_factor"] for p in untraced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    missing = [p for p in ("src/scholar_sounder/__init__.py", "tests/htmlgen.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a scholar-sounder checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The fixture-mode rebuild in the crawl-live check logs one warning per
    # missing profile; those are expected.
    logging.getLogger("scholar_sounder").setLevel(logging.ERROR)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), started)
        print("\n".join(lines), flush=True)
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
