"""Run configuration: a single JSON file that ``build_config`` merges with the
CLI flags and validates in one place. Precedence: flags > file > the defaults
declared on ``Config`` and ``FetchPolicy``. Integer fields must be JSON
integers (not bools, floats or strings), and unknown keys, at the top level or
under ``fetch``, are rejected."""

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

    raw_tags = data.get("base_tags")
    _require(isinstance(raw_tags, list) and raw_tags, "base_tags", "must be a nonempty list")
    base_tags = []
    for i, raw in enumerate(raw_tags):
        _require(isinstance(raw, str), f"base_tags[{i}]", "must be a string")
        tag = normalize_tag(raw)
        _require(tag, f"base_tags[{i}]", "normalizes to nothing")
        if tag in base_tags:
            raise ConfigError(f"base_tags[{i}]", f"duplicates base_tags[{base_tags.index(tag)}]")
        base_tags.append(tag)

    raw_dict = data.get("dictionary")
    _require(isinstance(raw_dict, list) and raw_dict, "dictionary", "must be a nonempty list")
    _require(
        len(raw_dict) <= MAX_DICTIONARY_WORDS,
        "dictionary",
        f"at most {MAX_DICTIONARY_WORDS} words, got {len(raw_dict)}",
    )
    dictionary = []
    for i, raw in enumerate(raw_dict):
        _require(isinstance(raw, str), f"dictionary[{i}]", "must be a string")
        word = normalize_tag(raw)
        _require(word, f"dictionary[{i}]", "normalizes to nothing")
        dictionary.append(word)

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
