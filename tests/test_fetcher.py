import errno
import http.server
import socket
import threading
import time
from urllib.parse import parse_qs, urlsplit

import pytest

from scholar_sounder import bundled_fixtures_dir, fetcher as fetcher_module
from scholar_sounder.config import build_config
from scholar_sounder.errors import FetchError, FixtureMissingError, HttpStatusError, NetworkError
from scholar_sounder.fetcher import (
    AUTHOR_PROFILE,
    LABEL_SEARCH,
    PLAIN_KEY,
    FetchPolicy,
    Fetcher,
    PageRequest,
    build_url,
    write_atomic,
)
from scholar_sounder.parser import parse_label_page


class TestPageRequest:
    def test_rejects_empty_key(self):
        with pytest.raises(ValueError):
            PageRequest(LABEL_SEARCH, "")

    def test_rejects_negative_page(self):
        with pytest.raises(ValueError):
            PageRequest(LABEL_SEARCH, "optics", -1)

    def test_rejects_paginated_profile(self):
        with pytest.raises(ValueError):
            PageRequest(AUTHOR_PROFILE, "A_TUDOR", 1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            PageRequest("publication", "x")


class TestBuildUrl:
    def test_label_search(self):
        url = build_url(PageRequest(LABEL_SEARCH, "physical_optics", 0))
        assert url == (
            "https://scholar.google.com/citations?view_op=search_authors"
            "&mauthors=label:physical_optics&hl=en"
        )

    def test_author_profile(self):
        url = build_url(PageRequest(AUTHOR_PROFILE, "AUTH123"))
        assert url == "https://scholar.google.com/citations?user=AUTH123&hl=en"

    def test_deterministic(self):
        req = PageRequest(LABEL_SEARCH, "optics", 1)
        assert build_url(req, "tok") == build_url(req, "tok")

    def test_pagination_token_chained_from_previous_page(self, fixture_fetcher):
        # The token for page n comes from the parsed page n-1.
        raw0 = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "quantum_optics", 0))
        token = parse_label_page(raw0, "quantum_optics").next_page_token
        assert token
        page0_url = build_url(PageRequest(LABEL_SEARCH, "quantum_optics", 0))
        url = build_url(PageRequest(LABEL_SEARCH, "quantum_optics", 2), token)
        assert url == f"{page0_url}&after_author={token}&astart=20"


class TestFixtureMode:
    def test_fetch_reads_fixture_bytes(self, fixture_fetcher, fixtures_dir):
        raw = fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "physical_optics", 0))
        expected = (fixtures_dir / "labels" / "physical_optics" / "0.html").read_bytes()
        assert raw.source == "fixture"
        assert raw.body == expected

    def test_missing_fixture(self, fixture_fetcher):
        with pytest.raises(FixtureMissingError):
            fixture_fetcher.fetch(PageRequest(LABEL_SEARCH, "no_such_tag", 0))

    def test_pure_function_of_request(self, fixture_fetcher):
        req = PageRequest(LABEL_SEARCH, "optics", 0)
        a = fixture_fetcher.fetch(req)
        b = fixture_fetcher.fetch(req)
        assert a.body == b.body


class TestPageKey:
    """A page key is used as a path component and a URL parameter, so only
    plain ids are fetched."""

    def test_every_bundled_page_key_is_plain(self):
        root = bundled_fixtures_dir()
        keys = [p.stem for p in (root / "authors").iterdir()]
        keys += [p.name for p in (root / "labels").iterdir()]
        assert keys and all(PLAIN_KEY.fullmatch(key) for key in keys)

    def test_fixture_fetch_refuses_a_key_that_leaves_the_tree(self, tmp_path):
        (tmp_path / "tree" / "authors").mkdir(parents=True)
        (tmp_path / "secret.html").write_bytes(b"<html>secret</html>")
        fetcher = Fetcher(FetchPolicy(mode="fixture", fixtures_dir=tmp_path / "tree"))
        with pytest.raises(FetchError, match="not a plain id"):
            fetcher.fetch(PageRequest(AUTHOR_PROFILE, "../../secret"))
        assert fetcher.pages_fetched == 0

    @pytest.mark.parametrize("key", ["../x", "a/b", "..", "x y", "x&hl=de", "x\n"])
    def test_live_fetch_refuses_the_key_before_cache_or_network(self, tmp_path, key):
        fetcher = Fetcher(FetchPolicy(
            mode="live", cache_dir=tmp_path / "cache", min_delay_ms=1,
            base_url="http://127.0.0.1:1",
        ))
        with pytest.raises(FetchError, match="not a plain id"):
            fetcher.fetch(PageRequest(AUTHOR_PROFILE, key))
        assert fetcher.request_log == []
        assert list(tmp_path.iterdir()) == []


class TestWriteAtomic:
    @pytest.mark.parametrize("step", ["write", "replace"])
    def test_a_full_disk_keeps_the_old_file_and_leaves_no_temporary(
        self, tmp_path, monkeypatch, step
    ):
        target = tmp_path / "report.json"
        target.write_bytes(b"old")

        def half_written(path, data):
            path.write_text(data[:2].decode(), "utf-8")
            raise OSError(errno.ENOSPC, "No space left on device")

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        if step == "write":
            monkeypatch.setattr(fetcher_module.Path, "write_bytes", half_written)
        else:
            monkeypatch.setattr(fetcher_module.os, "replace", disk_full)
        with pytest.raises(OSError) as raised:
            write_atomic(target, b"new")
        assert raised.value.errno == errno.ENOSPC
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


LABEL_PAGE = (bundled_fixtures_dir() / "labels" / "physical_optics" / "0.html").read_bytes()
LABEL_REQUEST = PageRequest(LABEL_SEARCH, "physical_optics", 0)
TRUNCATED = "truncated"  # script step: 200 announcing the full page, half of it sent
STALL = "stall"  # script step: no response for STALL_S, then the connection closes
STALL_S = 0.6


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers each GET with the next step of the server's script: a
    ``(status, body)`` pair, a ``(status, body, headers)`` triple,
    TRUNCATED or STALL."""

    def do_GET(self):
        self.server.hits += 1
        self.server.paths.append(self.path)
        step = self.server.script.pop(0)
        if step == STALL:
            time.sleep(STALL_S)
            return
        status, body, *headers = (200, LABEL_PAGE) if step == TRUNCATED else step
        self.send_response(status)
        self.send_header("Content-Type", "text/html")
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body[: len(body) // 2] if step == TRUNCATED else body)

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    """Start a loopback server that plays the given script, one step per
    request; ``server.hits`` counts the requests it saw. Each request gets
    its own thread, so a stalled one does not hold up the retry after it;
    ``server.paths`` holds the request targets."""
    servers = []

    def start(*script):
        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
        server.script = list(script)
        server.hits = 0
        server.paths = []  # the request target of each request seen
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        ).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def live_fetcher(base_url, cache_dir) -> Fetcher:
    return Fetcher(
        FetchPolicy(mode="live", cache_dir=cache_dir, min_delay_ms=1, base_url=base_url)
    )


def server_url(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}"


CACHED_PAGE = b'<html><div id="gsc_sa_ccl">cached</div></html>'


class TestCache:
    def _seed_cache(self, cache_dir, req, body):
        path = cache_dir / "labels" / req.key / f"{req.page_index}.html"
        path.parent.mkdir(parents=True)
        path.write_bytes(body)

    def test_live_mode_serves_from_cache_without_network(self, tmp_path):
        req = PageRequest(LABEL_SEARCH, "optics", 0)
        self._seed_cache(tmp_path, req, CACHED_PAGE)
        # base_url points nowhere; a network attempt would fail loudly.
        fetcher = Fetcher(
            FetchPolicy(mode="live", cache_dir=tmp_path, base_url="http://127.0.0.1:1")
        )
        raw = fetcher.fetch(req)
        assert raw.source == "cache"
        assert raw.body == CACHED_PAGE
        assert fetcher.request_log == []

    def test_cache_idempotence(self, tmp_path):
        req = PageRequest(LABEL_SEARCH, "optics", 0)
        self._seed_cache(tmp_path, req, CACHED_PAGE)
        fetcher = Fetcher(
            FetchPolicy(mode="live", cache_dir=tmp_path, base_url="http://127.0.0.1:1")
        )
        assert fetcher.fetch(req).body == fetcher.fetch(req).body
        assert fetcher.cache_hits == 2

    @staticmethod
    def live_policy(**fetch) -> FetchPolicy:
        data = {"base_tags": ["optics"], "dictionary": ["optics"], "fetch": {"mode": "live", **fetch}}
        return build_config(data).fetch

    def test_cache_env_var_is_ignored(self, tmp_path, monkeypatch):
        # the cache directory comes from the --cache flag or the config file only
        monkeypatch.setenv("SCHOLAR_SOUNDER_CACHE", str(tmp_path / "envcache"))
        assert self.live_policy().cache_dir is None

    def test_explicit_cache_dir_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCHOLAR_SOUNDER_CACHE", str(tmp_path / "envcache"))
        policy = self.live_policy(cache_dir=str(tmp_path / "explicit"))
        assert policy.cache_dir == tmp_path / "explicit"

    def test_live_fetch_writes_one_file_per_page(self, scripted_server, tmp_path):
        server = scripted_server((200, LABEL_PAGE))
        live_fetcher(server_url(server), tmp_path).fetch(LABEL_REQUEST)
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert files == [tmp_path / "labels" / "physical_optics" / "0.html"]

    def test_live_fetch_without_cache_dir_requests_every_time_and_writes_nothing(
        self, scripted_server, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        server = scripted_server((200, LABEL_PAGE), (200, LABEL_PAGE))
        fetcher = live_fetcher(server_url(server), None)
        pages = [fetcher.fetch(LABEL_REQUEST) for _ in range(2)]
        assert [page.source for page in pages] == ["live", "live"]
        assert server.hits == len(fetcher.request_log) == 2
        assert fetcher.cache_hits == 0
        assert list(tmp_path.iterdir()) == []

    def test_cached_page_without_marker_is_refetched_and_replaced(
        self, scripted_server, tmp_path
    ):
        # A page cut off before its results marker.
        self._seed_cache(tmp_path, LABEL_REQUEST, LABEL_PAGE[:64])
        server = scripted_server((200, LABEL_PAGE))
        fetcher = live_fetcher(server_url(server), tmp_path)
        raw = fetcher.fetch(LABEL_REQUEST)
        assert raw.source == "live"
        assert server.hits == 1
        html_path = tmp_path / "labels" / "physical_optics" / "0.html"
        assert html_path.read_bytes() == LABEL_PAGE
        assert not list(tmp_path.rglob("*.tmp"))
        assert not list(tmp_path.rglob("*.meta.json"))
        rerun = live_fetcher(server_url(server), tmp_path).fetch(LABEL_REQUEST)
        assert rerun.source == "cache"
        assert rerun.body == LABEL_PAGE
        assert server.hits == 1

    @pytest.mark.parametrize("sidecar", [
        b"{broken",
        b'{"retrieved_at": "yesterday"}',
        b"[]",
        b'{"url": 5}',
        b'{"retrieved_at": 5}',
        b"\xff\xfe",
    ], ids=["not-json", "bad-date", "array", "url-not-text", "date-not-text", "not-utf8"])
    def test_corrupt_sidecar_is_a_miss_and_is_rewritten(
        self, scripted_server, tmp_path, caplog, sidecar
    ):
        """Older versions wrote a ``.meta.json`` sidecar beside each cached
        page. One left over, whatever it holds, is never opened: the page is
        a cache hit, with no warning, and the sidecar stays as it was."""
        self._seed_cache(tmp_path, LABEL_REQUEST, LABEL_PAGE)
        meta_path = tmp_path / "labels" / "physical_optics" / "0.html.meta.json"
        meta_path.write_bytes(sidecar)
        server = scripted_server()
        with caplog.at_level("WARNING", logger="scholar_sounder.fetcher"):
            raw = live_fetcher(server_url(server), tmp_path).fetch(LABEL_REQUEST)
        assert raw.source == "cache"
        assert raw.body == LABEL_PAGE
        assert server.hits == 0
        assert not [r for r in caplog.records if r.levelname == "WARNING"]
        assert meta_path.read_bytes() == sidecar


class TestLiveFaults:
    def test_server_error_then_ok_is_retried(self, scripted_server, tmp_path):
        server = scripted_server((503, b"busy"), (200, LABEL_PAGE))
        fetcher = live_fetcher(server_url(server), tmp_path)
        raw = fetcher.fetch(LABEL_REQUEST)
        assert raw.source == "live"
        assert raw.body == LABEL_PAGE
        assert server.hits == 2

    def test_persistent_server_error_gives_network_error(self, scripted_server, tmp_path):
        server = scripted_server(*[(500, b"")] * 3)
        fetcher = live_fetcher(server_url(server), tmp_path)
        with pytest.raises(NetworkError):
            fetcher.fetch(LABEL_REQUEST)
        assert server.hits == 3

    def test_too_many_requests_then_ok_is_retried(self, scripted_server, tmp_path):
        server = scripted_server((429, b"slow down"), (200, LABEL_PAGE))
        fetcher = live_fetcher(server_url(server), tmp_path)
        raw = fetcher.fetch(LABEL_REQUEST)
        assert raw.source == "live"
        assert raw.body == LABEL_PAGE
        assert server.hits == 2

    def test_retry_after_lengthens_the_wait(self, scripted_server, tmp_path):
        server = scripted_server((429, b"", {"Retry-After": "1"}), (200, LABEL_PAGE))
        fetcher = live_fetcher(server_url(server), tmp_path)
        assert fetcher.fetch(LABEL_REQUEST).source == "live"
        (first, _), (second, _) = fetcher.request_log
        assert second - first >= 1.0

    def test_stall_then_ok_is_retried(self, scripted_server, tmp_path, monkeypatch):
        monkeypatch.setattr(fetcher_module, "REQUEST_TIMEOUT_S", 0.2)
        server = scripted_server(STALL, (200, LABEL_PAGE))
        fetcher = live_fetcher(server_url(server), tmp_path)
        started = time.monotonic()
        raw = fetcher.fetch(LABEL_REQUEST)
        assert time.monotonic() - started < STALL_S  # the timeout ended the first attempt
        assert raw.source == "live"
        assert raw.body == LABEL_PAGE
        assert server.hits == 2

    def test_persistent_stall_gives_network_error(self, scripted_server, tmp_path, monkeypatch):
        monkeypatch.setattr(fetcher_module, "REQUEST_TIMEOUT_S", 0.2)
        attempts = fetcher_module.MAX_RETRIES + 1
        server = scripted_server(*[STALL] * attempts)
        fetcher = live_fetcher(server_url(server), tmp_path)
        started = time.monotonic()
        with pytest.raises(NetworkError):
            fetcher.fetch(LABEL_REQUEST)
        assert time.monotonic() - started < STALL_S * attempts
        assert server.hits == attempts

    def test_not_found_is_not_retried(self, scripted_server, tmp_path):
        server = scripted_server((404, b"gone"))
        fetcher = live_fetcher(server_url(server), tmp_path)
        with pytest.raises(HttpStatusError) as info:
            fetcher.fetch(LABEL_REQUEST)
        assert info.value.status == 404
        assert server.hits == 1

    def test_no_content_is_refused(self, scripted_server, tmp_path):
        server = scripted_server((204, b""))
        fetcher = live_fetcher(server_url(server), tmp_path)
        with pytest.raises(HttpStatusError):
            fetcher.fetch(LABEL_REQUEST)
        assert server.hits == 1

    def test_interstitial_is_refused_and_not_cached(self, scripted_server, tmp_path):
        server = scripted_server((200, b"<html>unusual traffic</html>"))
        cache = tmp_path / "cache"
        fetcher = live_fetcher(server_url(server), cache)
        with pytest.raises(HttpStatusError):
            fetcher.fetch(LABEL_REQUEST)
        assert server.hits == 1
        assert not list(cache.rglob("*"))

    def test_truncated_body_is_retried(self, scripted_server, tmp_path):
        server = scripted_server(TRUNCATED, (200, LABEL_PAGE))
        fetcher = live_fetcher(server_url(server), tmp_path)
        raw = fetcher.fetch(LABEL_REQUEST)
        assert raw.source == "live"
        assert raw.body == LABEL_PAGE
        assert server.hits == 2

    def test_refused_connection_gives_network_error(self, tmp_path):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        fetcher = live_fetcher(f"http://127.0.0.1:{port}", tmp_path)
        with pytest.raises(NetworkError):
            fetcher.fetch(LABEL_REQUEST)
        assert len(fetcher.request_log) == fetcher_module.MAX_RETRIES + 1


class TestContinuationToken:
    @pytest.mark.parametrize("token", ["a b", "x#y", "p&user=q", "a+b/c="])
    def test_the_token_reaches_the_server_whole_in_its_own_parameter(
        self, scripted_server, tmp_path, token
    ):
        server = scripted_server((200, LABEL_PAGE))
        fetcher = live_fetcher(server_url(server), tmp_path)
        fetcher.fetch(PageRequest(LABEL_SEARCH, "physical_optics", 1), token)
        assert server.hits == len(fetcher.request_log) == 1
        query = parse_qs(urlsplit(server.paths[0]).query)
        assert query == {
            "view_op": ["search_authors"], "mauthors": ["label:physical_optics"], "hl": ["en"],
            "after_author": [token], "astart": ["10"],
        }
