"""Run configuration: a single JSON file that ``build_config`` merges with the
CLI flags and validates in one place. Precedence: flags > file > the defaults
declared on ``Config`` and ``FetchPolicy``. Integer fields must be JSON
integers (not bools, floats or strings), and unknown keys, at the top level or
under ``fetch``, are rejected. Base tags and dictionary words are normalized
with ``normalize_tag``; one that normalizes to nothing, or to an earlier entry
of its list, is rejected."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .fetcher import FetchPolicy
from .parser import normalize_tag

MAX_DICTIONARY_WORDS = 10

# Fields that say where files live, not what a run computes: the digest leaves
# them out. ``base_url`` is a test seam, not a setting, so no file or flag sets it.
LOCATIONS = ("out_dir", "fixtures_dir", "cache_dir", "base_url")

# Lower bound of each integer setting, by config key.
INTEGER_BOUNDS = {
    "depth": 1, "hop_limit": 0, "author_cap": 1,
    "fetch.min_delay_ms": 1, "fetch.max_pages_per_label": 1,
}


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

    def digest(self) -> str:
        payload = {**_settings(self), "fetch": _settings(self.fetch)}
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _settings(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in LOCATIONS}


def _require(condition: bool, fieldname: str, reason: str):
    if not condition:
        raise ConfigError(fieldname, reason)


def _tag_list(raw, key: str) -> list[str]:
    """The nonempty list of strings ``raw``, each normalized like a tag; an
    entry that normalizes to nothing or to an earlier entry is rejected."""
    _require(isinstance(raw, list) and raw, key, "must be a nonempty list")
    tags = []
    for i, entry in enumerate(raw):
        _require(isinstance(entry, str), f"{key}[{i}]", "must be a string")
        tag = normalize_tag(entry)
        _require(tag, f"{key}[{i}]", "normalizes to nothing")
        if tag in tags:
            raise ConfigError(f"{key}[{i}]", f"duplicates {key}[{tags.index(tag)}]")
        tags.append(tag)
    return tags


def _field(config: Config, key: str):
    """The object and attribute name that the config key ``key`` names."""
    section, _, name = key.rpartition(".")
    return (config.fetch if section else config), name


def build_config(data: dict, flags: dict | None = None) -> Config:
    """Lay ``flags`` over the raw config mapping ``data``, fill what neither
    sets from the dataclass defaults and validate every field.

    ``flags`` maps config keys to values, fetch keys as ``fetch.<key>``; a
    value of ``None`` or ``""`` leaves the key unset."""
    _require(isinstance(data, dict), "<file>", "top level must be an object")
    fetch = data.get("fetch", {})
    _require(isinstance(fetch, dict), "fetch", "must be a mapping")
    data, fetch = dict(data), dict(fetch)
    for key, value in (flags or {}).items():
        if value is not None and value != "":
            section, _, name = key.rpartition(".")
            (fetch if section else data)[name] = value
    for prefix, section, cls in (("", data, Config), ("fetch.", fetch, FetchPolicy)):
        known = {f.name for f in fields(cls)} - {"base_url"}
        for key in section:
            _require(key in known, prefix + key, "unknown field")

    base_tags = _tag_list(data.get("base_tags"), "base_tags")
    dictionary = _tag_list(data.get("dictionary"), "dictionary")
    _require(
        len(dictionary) <= MAX_DICTIONARY_WORDS,
        "dictionary",
        f"at most {MAX_DICTIONARY_WORDS} words, got {len(dictionary)}",
    )
    config = Config(**{
        **data, "base_tags": base_tags, "dictionary": dictionary, "fetch": FetchPolicy(**fetch),
    })
    for key, minimum in INTEGER_BOUNDS.items():
        value = getattr(*_field(config, key))
        _require(type(value) is int, key, "must be an integer")
        _require(value >= minimum, key, f"must be at least {minimum}")
    _require(config.edge_policy in ("star", "clique"), "edge_policy", "must be 'star' or 'clique'")
    _require(config.fetch.mode in ("live", "fixture"), "fetch.mode", "must be 'live' or 'fixture'")
    for key in ("out_dir", "fetch.fixtures_dir", "fetch.cache_dir"):
        owner, name = _field(config, key)
        value = getattr(owner, name)
        if value is not None or owner is config:  # None leaves a fetch path unset
            _require(isinstance(value, (str, Path)), key, "must be a string")
            setattr(owner, name, Path(value))
    if config.fetch.mode == "fixture":
        root = config.fetch.fixtures_dir
        _require(root is not None, "fetch.fixtures_dir", "required in fixture mode")
        _require(root.is_dir(), "fetch.fixtures_dir", f"no such directory: {root}")
    return config


def read_config_file(path) -> dict:
    """Raw (unvalidated) config value from a JSON file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError("<path>", f"no such file: {path}")
    try:
        return json.loads(path.read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}")
