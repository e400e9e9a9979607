"""Page acquisition: live HTTP with caching and politeness, or a local
fixture corpus for offline runs."""

from __future__ import annotations

import logging
import re
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

from .errors import CacheError, FetchError, FixtureMissingError, HttpStatusError, NetworkError
from .parser import AUTHOR_PROFILE, LABEL_SEARCH, MARKERS

log = logging.getLogger(__name__)

BASE_URL = "https://scholar.google.com"

# Retries of a live request after a failed connection, a 5xx or a 429.
MAX_RETRIES = 2

# Seconds the page cache waits out another run's lock, also when opening a fresh cache.
CACHE_LOCK_TIMEOUT_S = 5

# Longest wait a Retry-After header can ask for before the next attempt.
RETRY_AFTER_CEILING_S = 60

# Seconds a live request may wait on connect or on each read before the
# attempt counts as failed and is retried.
REQUEST_TIMEOUT_S = 30

# A page key names a file and a URL parameter; tags and author ids are plain ids.
PLAIN_KEY = re.compile(r"[A-Za-z0-9_-]+")


@dataclass(frozen=True)
class PageRequest:
    """A request for one page: a label-search results page (paginated) or
    an author profile (always page 0)."""

    kind: str  # LABEL_SEARCH | AUTHOR_PROFILE
    key: str   # canonical tag, or author id
    page_index: int = 0


@dataclass
class RawPage:
    request: PageRequest
    body: bytes
    source: str  # "live" | "cache" | "fixture"


@dataclass
class FetchPolicy:
    """A run's ``fetch`` settings; retry count, Retry-After cap and timeout are constants."""

    mode: str = "fixture"  # "live" | "fixture"
    fixtures_dir: Path | None = None
    cache_dir: Path | None = None
    min_delay_ms: int = 2000
    max_pages_per_label: int = 5
    # Test seam: where live requests actually go; build_url keeps the canonical URL.
    base_url: str = BASE_URL


def build_url(request: PageRequest, page_token: str | None = None) -> str:
    """Canonical URL for a request.

    Label pages past index 0 need the continuation token the service embeds
    in the preceding results page; when known it is appended, percent-encoded,
    along with the result offset.
    """
    if request.kind == AUTHOR_PROFILE:
        return f"{BASE_URL}/citations?user={request.key}&hl=en"
    url = (
        f"{BASE_URL}/citations?view_op=search_authors"
        f"&mauthors=label:{request.key}&hl=en"
    )
    if request.page_index > 0:
        if page_token:
            url += f"&after_author={quote(page_token, safe='')}"
        url += f"&astart={10 * request.page_index}"
    return url


def _relative_page_path(request: PageRequest) -> str:
    if request.kind == LABEL_SEARCH:
        return f"labels/{request.key}/{request.page_index}.html"
    return f"authors/{request.key}.html"


def _has_marker(request: PageRequest, body: bytes) -> bool:
    """False for an interstitial page or a body cut off before its results.
    The marker is ASCII, and UTF-8 decoding with replacement never absorbs an
    ASCII byte, so the parser's decoded text holds it exactly when this is True."""
    return MARKERS[request.kind].encode() in body


class Fetcher:
    """Reads pages from fixtures, or from the cache and then the live
    service, spacing live requests by the politeness delay. One request at
    a time, but only within one process: two runs sharing a cache directory
    are not spaced against each other (ROADMAP item 18)."""

    def __init__(self, policy: FetchPolicy):
        self.policy = policy
        # (monotonic timestamp, url) per network hit: the politeness clock, and its audit
        self.request_log: list[tuple[float, str]] = []
        self.cache_hits = 0
        self.pages_fetched = 0
        self._cache = None  # sqlite3.Connection: opened on first use, closed when dropped

    def fetch(self, request: PageRequest, page_token: str | None = None) -> RawPage:
        """Return the page body for a request; it holds its kind's marker,
        whatever its source, or FetchError is raised.

        Fixture mode reads only from ``fixtures_dir`` and never touches the
        network. Live mode checks the cache first, passing over a cached
        page without its marker, and writes every fresh body to the cache
        before returning it. A key that is not a plain id raises FetchError
        before any file or the network is touched.
        """
        if not PLAIN_KEY.fullmatch(request.key):
            raise FetchError(f"refusing page key {request.key!r}: not a plain id")
        self.pages_fetched += 1
        if self.policy.mode == "fixture":
            return self._fetch_fixture(request)
        cached = self._read_cache(request)
        if cached is not None:
            self.cache_hits += 1
            return cached
        return self._fetch_live(request, page_token)

    # -- fixture ------------------------------------------------------

    def _fetch_fixture(self, request: PageRequest) -> RawPage:
        path = self.policy.fixtures_dir / _relative_page_path(request)
        if not path.is_file():
            raise FixtureMissingError(path)
        body = path.read_bytes()
        if not _has_marker(request, body):
            raise FetchError(f"fixture {path} lacks marker '{MARKERS[request.kind]}'")
        return RawPage(request=request, body=body, source="fixture")

    # -- cache: one SQLite row per page, keyed by its fixture-tree path --

    def _cache_row(self, sql: str, *params):
        """Run one statement on ``cache_dir/pages.sqlite``, opening it on first
        use; each statement is its own transaction, so writes go through."""
        # Imported here, so fixture and analysis runs never load it.
        import sqlite3

        path = self.policy.cache_dir / "pages.sqlite"
        try:
            if self._cache is None:
                path.parent.mkdir(parents=True, exist_ok=True)
                # Any thread may drop the Fetcher, so any thread may close it.
                self._cache = sqlite3.connect(
                    path, CACHE_LOCK_TIMEOUT_S, isolation_level=None, check_same_thread=False)
                weakref.finalize(self, self._cache.close)
                for _ in range(round(CACHE_LOCK_TIMEOUT_S / 0.01)):  # a WAL switch never waits
                    try:
                        self._cache.execute("PRAGMA journal_mode=WAL")
                        break
                    except sqlite3.OperationalError:
                        time.sleep(0.01)
                self._cache.executescript(  # its WAL switch is the last try
                    "PRAGMA journal_mode=WAL; PRAGMA synchronous=NORMAL; PRAGMA cache_size=-64;"
                    "CREATE TABLE IF NOT EXISTS pages(path TEXT PRIMARY KEY, body BLOB NOT NULL)"
                )
            return self._cache.execute(sql, params).fetchone()
        except sqlite3.Error as exc:
            raise CacheError(f"page cache {path}: {exc}") from None

    def _read_cache(self, request: PageRequest) -> RawPage | None:
        if self.policy.cache_dir is None:
            return None
        key = _relative_page_path(request)
        row = self._cache_row("SELECT body FROM pages WHERE path = ?", key)
        if row is None:
            return None
        if not _has_marker(request, row[0]):
            log.warning("ignoring cached page without marker: %s", key)
            return None
        return RawPage(request=request, body=row[0], source="cache")

    def _write_cache(self, request: PageRequest, body: bytes):
        if self.policy.cache_dir is not None:
            self._cache_row(
                "INSERT OR REPLACE INTO pages VALUES (?, ?)", _relative_page_path(request), body
            )

    # -- live ---------------------------------------------------------

    def _fetch_live(self, request: PageRequest, page_token: str | None) -> RawPage:
        # Imported here, so fixture and analysis runs never load the HTTP and TLS stack.
        import http.client
        import urllib.error
        import urllib.request

        target_url = build_url(request, page_token).replace(BASE_URL, self.policy.base_url, 1)
        attempts = MAX_RETRIES + 1
        last_exc: Exception | None = None
        retry_after_s = 0.0
        for attempt in range(attempts):
            self._wait_politely(target_url, retry_after_s)
            retry_after_s = 0.0
            try:
                with urllib.request.urlopen(target_url, timeout=REQUEST_TIMEOUT_S) as resp:
                    status, headers, body = resp.status, resp.headers, resp.read()
            except urllib.error.HTTPError as exc:
                exc.close()
                status, headers, body = exc.code, exc.headers, b""
            except (OSError, http.client.HTTPException) as exc:
                # Refused or reset connections, timeouts, truncated bodies.
                last_exc = exc
                log.warning("fetch attempt %d failed for %s: %s", attempt + 1, target_url, exc)
                continue
            if status >= 500 or status == http.HTTPStatus.TOO_MANY_REQUESTS:
                last_exc = HttpStatusError(f"status {status} for {target_url}", status=status)
                retry_after = (headers.get("Retry-After") or "").strip()
                if retry_after.isdecimal():  # the HTTP-date form is ignored
                    retry_after_s = min(float(retry_after), RETRY_AFTER_CEILING_S)
                continue
            if status != 200:
                raise HttpStatusError(f"status {status} for {target_url}", status=status)
            if not _has_marker(request, body):
                # Interstitial / anti-bot page: refuse to parse it.
                raise HttpStatusError(
                    f"page at {target_url} lacks marker '{MARKERS[request.kind]}'",
                    status=status,
                )
            self._write_cache(request, body)
            return RawPage(request=request, body=body, source="live")
        raise NetworkError(f"giving up on {target_url} after {attempts} attempts: {last_exc}")

    def _wait_politely(self, url: str, at_least_s: float = 0.0):
        """Hold the request until min_delay_ms, or at_least_s if longer, has
        passed since the previous one started."""
        delay = max(self.policy.min_delay_ms / 1000.0, at_least_s)
        if self.request_log:
            remaining = self.request_log[-1][0] + delay - time.monotonic()
            if remaining > 0:
                time.sleep(remaining)
        self.request_log.append((time.monotonic(), url))
