"""Page acquisition: live HTTP with caching and politeness, or a local
fixture corpus for offline runs."""

from __future__ import annotations

import logging
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

from .errors import FetchError, FixtureMissingError, HttpStatusError, NetworkError
from .parser import AUTHOR_PROFILE, LABEL_SEARCH, MARKERS

log = logging.getLogger(__name__)

BASE_URL = "https://scholar.google.com"

# Retries of a live request after a failed connection, a 5xx or a 429.
MAX_RETRIES = 2

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

    def __post_init__(self):
        if self.kind not in MARKERS:
            raise ValueError(f"unknown request kind: {self.kind!r}")
        if not self.key:
            raise ValueError("request key must be nonempty")
        if self.page_index < 0:
            raise ValueError("page_index must be non-negative")
        if self.kind == AUTHOR_PROFILE and self.page_index != 0:
            raise ValueError("author-profile requests are not paginated")


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


def _relative_page_path(request: PageRequest) -> Path:
    if request.kind == LABEL_SEARCH:
        return Path("labels") / request.key / f"{request.page_index}.html"
    return Path("authors") / f"{request.key}.html"


def _has_marker(request: PageRequest, body: bytes) -> bool:
    """False for an interstitial page or a body cut off before its results."""
    return MARKERS[request.kind].encode() in body


def write_atomic(path: Path, data: bytes):
    """Replace ``path`` in one step, so a crash never leaves half a file. A
    failed write or rename leaves ``path`` as it was and removes the
    temporary file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Fetcher:
    """Reads pages from fixtures, or from the cache and then the live
    service, spacing live requests by the politeness delay. One request at
    a time, but only within one process: two runs sharing a cache directory
    are not spaced against each other (ROADMAP item 5)."""

    def __init__(self, policy: FetchPolicy):
        self.policy = policy
        self._last_request_at: float | None = None
        # (monotonic timestamp, url) per network hit, for politeness audits
        self.request_log: list[tuple[float, str]] = []
        self.cache_hits = 0
        self.pages_fetched = 0

    def fetch(self, request: PageRequest, page_token: str | None = None) -> RawPage:
        """Return the page body for a request.

        Fixture mode reads only from ``fixtures_dir`` and never touches the
        network. Live mode checks the cache first and writes every fresh
        body to the cache before returning it. A key that is not a plain id
        raises FetchError before any file or the network is touched.
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
        return RawPage(request=request, body=path.read_bytes(), source="fixture")

    # -- cache: one file per page, holding its body only --------------

    def _read_cache(self, request: PageRequest) -> RawPage | None:
        if self.policy.cache_dir is None:
            return None
        path = self.policy.cache_dir / _relative_page_path(request)
        if not path.is_file():
            return None
        body = path.read_bytes()
        if not _has_marker(request, body):
            log.warning("ignoring cached page without marker: %s", path)
            return None
        return RawPage(request=request, body=body, source="cache")

    def _write_cache(self, request: PageRequest, body: bytes):
        if self.policy.cache_dir is None:
            return
        path = self.policy.cache_dir / _relative_page_path(request)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, body)

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
        if self._last_request_at is not None:
            remaining = self._last_request_at + delay - time.monotonic()
            if remaining > 0:
                time.sleep(remaining)
        self._last_request_at = time.monotonic()
        self.request_log.append((self._last_request_at, url))
