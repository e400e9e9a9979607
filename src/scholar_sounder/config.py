"""Run configuration: a single JSON file, validated and normalized, with
flag overrides applied by the CLI. Precedence: flags > file > defaults.
The SCHOLAR_SOUNDER_CACHE environment variable applies only when neither
``--cache`` nor ``fetch.cache_dir`` sets the cache directory."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, EmptyTagError
from .fetcher import FetchPolicy
from .parser import normalize_tag

MAX_DICTIONARY_WORDS = 10


@dataclass
class Config:
    base_tags: list[str]
    dictionary: list[str]
    depth: int = 5
    hop_limit: int = 1
    author_cap: int = 500
    edge_policy: str = "star"
    fetch: FetchPolicy = field(default_factory=FetchPolicy)
    out_dir: Path = Path("out")
    seed: int = 0

    def digest(self) -> str:
        payload = {
            "base_tags": self.base_tags,
            "dictionary": self.dictionary,
            "depth": self.depth,
            "hop_limit": self.hop_limit,
            "author_cap": self.author_cap,
            "edge_policy": self.edge_policy,
            "seed": self.seed,
            "fetch": {
                "mode": self.fetch.mode,
                "min_delay_ms": self.fetch.min_delay_ms,
                "max_pages_per_label": self.fetch.max_pages_per_label,
                "max_retries": self.fetch.max_retries,
            },
        }
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _require(condition: bool, fieldname: str, reason: str):
    if not condition:
        raise ConfigError(fieldname, reason)


def build_config(data: dict) -> Config:
    """Validate a raw config mapping and apply defaults."""
    known = {
        "base_tags", "dictionary", "depth", "hop_limit", "author_cap",
        "edge_policy", "fetch", "out_dir", "seed",
    }
    for key in data:
        _require(key in known, key, "unknown field")

    raw_tags = data.get("base_tags")
    _require(isinstance(raw_tags, list) and raw_tags, "base_tags", "must be a nonempty list")
    base_tags = []
    for i, raw in enumerate(raw_tags):
        try:
            base_tags.append(normalize_tag(str(raw)))
        except EmptyTagError:
            raise ConfigError(f"base_tags[{i}]", "normalizes to nothing")

    raw_dict = data.get("dictionary")
    _require(isinstance(raw_dict, list) and raw_dict, "dictionary", "must be a nonempty list")
    _require(
        len(raw_dict) <= MAX_DICTIONARY_WORDS,
        "dictionary",
        f"at most {MAX_DICTIONARY_WORDS} words, got {len(raw_dict)}",
    )
    dictionary = [str(w).lower() for w in raw_dict]
    _require(all(w.strip() for w in dictionary), "dictionary", "words must be nonempty")

    depth = data.get("depth", 5)
    _require(isinstance(depth, int) and depth >= 1, "depth", "must be an integer >= 1")
    hop_limit = data.get("hop_limit", 1)
    _require(isinstance(hop_limit, int) and hop_limit >= 0, "hop_limit", "must be an integer >= 0")
    author_cap = data.get("author_cap", 500)
    _require(isinstance(author_cap, int) and author_cap >= 1, "author_cap", "must be an integer >= 1")
    edge_policy = data.get("edge_policy", "star")
    _require(edge_policy in ("star", "clique"), "edge_policy", "must be 'star' or 'clique'")
    seed = data.get("seed", 0)
    _require(isinstance(seed, int), "seed", "must be an integer")

    fetch_data = data.get("fetch", {})
    _require(isinstance(fetch_data, dict), "fetch", "must be a mapping")
    try:
        fetch = FetchPolicy(
            mode=fetch_data.get("mode", "fixture"),
            fixtures_dir=fetch_data.get("fixtures_dir"),
            cache_dir=fetch_data.get("cache_dir"),
            min_delay_ms=int(fetch_data.get("min_delay_ms", 2000)),
            max_pages_per_label=int(fetch_data.get("max_pages_per_label", 5)),
            max_retries=int(fetch_data.get("max_retries", 2)),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError("fetch", str(exc))
    _require(fetch.min_delay_ms > 0, "fetch.min_delay_ms", "must be positive")
    _require(fetch.max_pages_per_label > 0, "fetch.max_pages_per_label", "must be positive")
    _require(fetch.max_retries >= 0, "fetch.max_retries", "must be non-negative")
    if fetch.mode == "fixture":
        _require(fetch.fixtures_dir is not None, "fetch.fixtures_dir", "required in fixture mode")

    return Config(
        base_tags=base_tags,
        dictionary=dictionary,
        depth=depth,
        hop_limit=hop_limit,
        author_cap=author_cap,
        edge_policy=edge_policy,
        fetch=fetch,
        out_dir=Path(data.get("out_dir", "out")),
        seed=seed,
    )


def read_config_file(path) -> dict:
    """Raw (unvalidated) config mapping from a JSON file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError("<path>", f"no such file: {path}")
    try:
        data = json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}")
    _require(isinstance(data, dict), "<file>", "top level must be an object")
    return data
