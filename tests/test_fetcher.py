import errno
import os
import re
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest

from scholar_sounder import bundled_fixtures_dir, cli, fetcher as fetcher_module
from scholar_sounder.cli import write_atomic
from scholar_sounder.config import build_config
from scholar_sounder.errors import (
    CacheError, FetchError, FixtureMissingError, HttpStatusError, NetworkError,
)
from scholar_sounder.fetcher import (
    AUTHOR_PROFILE,
    LABEL_SEARCH,
    PLAIN_KEY,
    FetchPolicy,
    Fetcher,
    PageRequest,
    build_url,
)
from scholar_sounder.parser import MARKERS, parse_label_page

from conftest import LABEL_PAGE, STALL, STALL_S, TRUNCATED, server_url

ROOT = Path(__file__).resolve().parent.parent
TWO_WRITERS_CHILD = """
import sys
from pathlib import Path
from scholar_sounder.cli import write_atomic
for _ in range(200):
    write_atomic(Path(sys.argv[1]), sys.argv[2] * 65536)
"""
TWO_CACHE_WRITERS_CHILD = """
import sys
from pathlib import Path
from scholar_sounder.fetcher import LABEL_SEARCH, FetchPolicy, Fetcher, PageRequest
fetcher = Fetcher(FetchPolicy(mode="live", cache_dir=Path(sys.argv[1])))
sys.stdin.read()  # both writers start when the parent closes their stdin
for n in range(200):
    request = PageRequest(LABEL_SEARCH, sys.argv[2], n)
    fetcher._write_cache(request, f'<div id="gsc_sa_ccl">{sys.argv[2]} {n}</div>'.encode())
"""


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

    @pytest.mark.parametrize("kind", [LABEL_SEARCH, AUTHOR_PROFILE], ids=["label", "profile"])
    def test_page_without_its_marker_is_refused(self, fixture_fetcher, tmp_path, kind):
        """A fixture that lacks its kind's marker is a failed fetch, not a
        gap in the corpus. The marker is ASCII, and decoding never absorbs
        an ASCII byte, so checking the bytes refuses what a check of the
        decoded text would."""
        requests = {
            LABEL_SEARCH: PageRequest(LABEL_SEARCH, "physical_optics", 0),
            AUTHOR_PROFILE: PageRequest(AUTHOR_PROFILE, "A_TUDOR"),
        }
        request = requests.pop(kind)
        [other] = requests.values()
        body = fixture_fetcher.fetch(request).body
        marker = MARKERS[kind].encode()
        at = body.find(marker)
        marker_less = [
            body[:50],
            body[:100],
            b"",
            body[:at + len(marker) - 1],
            b"\xff\xfe" + body[:at + 3],  # invalid UTF-8 before the cut
            body[:at] + b"\xe2\x82",  # cut inside a character
            body[:at] + marker[:4] + b"\xc3" + marker[4:],  # the marker split by a bad byte
            "王伟".encode()[:-1] + marker[:-1],
            fixture_fetcher.fetch(other).body,  # the other kind's page
        ]
        fetcher = Fetcher(FetchPolicy(mode="fixture", fixtures_dir=tmp_path))
        path = tmp_path / fetcher_module._relative_page_path(request)
        path.parent.mkdir(parents=True)
        for truncated in marker_less:
            path.write_bytes(truncated)
            message = re.escape(f"{path} lacks marker '{MARKERS[kind]}'")
            with pytest.raises(FetchError, match=message) as info:
                fetcher.fetch(request)
            assert not isinstance(info.value, FixtureMissingError), truncated
        path.write_bytes(body)
        assert fetcher.fetch(request).body == body


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

    @pytest.mark.parametrize("key", ["", "../x", "a/b", "..", "x y", "x&hl=de", "x\n"])
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
            monkeypatch.setattr(cli.Path, "write_bytes", half_written)
        else:
            monkeypatch.setattr(cli.os, "replace", disk_full)
        with pytest.raises(OSError) as raised:
            write_atomic(target, "new")
        assert raised.value.errno == errno.ENOSPC
        assert target.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_two_processes_writing_one_path(self, tmp_path):
        """Two runs that share an output directory write the same files:
        neither may rename the other's temporary file or lose its own."""
        target = tmp_path / "page.html"
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", TWO_WRITERS_CHILD, str(target), fill],
                env=child_env(), stderr=subprocess.PIPE, text=True,
            )
            for fill in "ab"
        ]
        errors = [writer.communicate(timeout=120)[1] for writer in writers]
        assert [writer.returncode for writer in writers] == [0, 0], errors
        assert target.read_bytes() in (b"a" * 65536, b"b" * 65536)
        assert list(tmp_path.glob("*.tmp")) == []


LABEL_REQUEST = PageRequest(LABEL_SEARCH, "physical_optics", 0)


def live_fetcher(base_url, cache_dir) -> Fetcher:
    return Fetcher(
        FetchPolicy(mode="live", cache_dir=cache_dir, min_delay_ms=1, base_url=base_url)
    )


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def cache_rows(cache_dir) -> dict[str, bytes]:
    """Every row of a live cache, read with a connection of its own."""
    with closing(sqlite3.connect(cache_dir / "pages.sqlite")) as db:
        return dict(db.execute("SELECT path, body FROM pages"))


CACHED_PAGE = b'<html><div id="gsc_sa_ccl">cached</div></html>'


class TestCache:
    def _seed_cache(self, cache_dir, req, body):
        key = f"labels/{req.key}/{req.page_index}.html"
        with closing(sqlite3.connect(cache_dir / "pages.sqlite")) as db:
            db.execute("CREATE TABLE pages(path TEXT PRIMARY KEY, body BLOB NOT NULL)")
            db.execute("INSERT INTO pages VALUES (?, ?)", (key, body))
            db.commit()

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

    def test_live_fetch_writes_one_row_per_page(self, scripted_server, tmp_path):
        server = scripted_server((200, LABEL_PAGE))
        fetcher = live_fetcher(server_url(server), tmp_path)
        fetcher.fetch(LABEL_REQUEST)
        assert cache_rows(tmp_path) == {"labels/physical_optics/0.html": LABEL_PAGE}
        names = {p.name for p in tmp_path.rglob("*")}
        assert "pages.sqlite" in names
        assert names <= {"pages.sqlite", "pages.sqlite-wal", "pages.sqlite-shm"}

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
        assert cache_rows(tmp_path) == {"labels/physical_optics/0.html": LABEL_PAGE}
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
        """Older versions cached one file per page, some with a ``.meta.json``
        sidecar beside it. Such a page, whatever its sidecar holds, is never
        opened: it is a miss, with no warning, the page is fetched and
        rewritten as a row, and the old files stay as they were."""
        page_path = tmp_path / "labels" / "physical_optics" / "0.html"
        page_path.parent.mkdir(parents=True)
        page_path.write_bytes(LABEL_PAGE)
        meta_path = page_path.with_name("0.html.meta.json")
        meta_path.write_bytes(sidecar)
        server = scripted_server((200, LABEL_PAGE))
        with caplog.at_level("WARNING", logger="scholar_sounder.fetcher"):
            raw = live_fetcher(server_url(server), tmp_path).fetch(LABEL_REQUEST)
        assert raw.source == "live"
        assert raw.body == LABEL_PAGE
        assert server.hits == 1
        assert not [r for r in caplog.records if r.levelname == "WARNING"]
        assert cache_rows(tmp_path) == {"labels/physical_optics/0.html": LABEL_PAGE}
        assert page_path.read_bytes() == LABEL_PAGE
        assert meta_path.read_bytes() == sidecar

    @staticmethod
    def _hold_fresh_cache(cache_dir) -> sqlite3.Connection:
        """Another opener of a fresh cache, still in rollback-journal mode,
        holding a write transaction on it."""
        holder = sqlite3.connect(
            cache_dir / "pages.sqlite", isolation_level=None, check_same_thread=False
        )
        holder.execute("BEGIN IMMEDIATE")
        return holder

    def test_opening_a_fresh_cache_waits_for_another_opener(self, tmp_path):
        """The switch to WAL meets the holder's lock at once, without waiting
        out the busy timeout, so it is retried until the holder lets go."""
        with closing(self._hold_fresh_cache(tmp_path)) as holder:
            release = threading.Timer(0.3, holder.execute, ["ROLLBACK"])
            release.start()
            Fetcher(FetchPolicy(mode="live", cache_dir=tmp_path))._write_cache(
                LABEL_REQUEST, LABEL_PAGE
            )
            release.join()
        assert cache_rows(tmp_path) == {"labels/physical_optics/0.html": LABEL_PAGE}

    def test_a_fresh_cache_held_past_the_lock_timeout_is_a_cache_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(fetcher_module, "CACHE_LOCK_TIMEOUT_S", 0.2)
        fetcher = Fetcher(FetchPolicy(mode="live", cache_dir=tmp_path))
        with closing(self._hold_fresh_cache(tmp_path)):
            started = time.monotonic()
            with pytest.raises(CacheError, match=re.escape(str(tmp_path / "pages.sqlite"))):
                fetcher._write_cache(LABEL_REQUEST, LABEL_PAGE)
            assert time.monotonic() - started >= 0.2

    def test_two_processes_write_one_cache(self, tmp_path):
        """Two runs that share a cache directory write pages at the same
        time: both finish, and no page of either is lost."""
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", TWO_CACHE_WRITERS_CHILD, str(tmp_path), tag],
                env=child_env(), stdin=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for tag in ("optics", "lasers")
        ]
        for writer in writers:
            writer.stdin.close()
        errors = [writer.stderr.read() for writer in writers]
        for writer in writers:
            writer.wait(timeout=120)
        assert [writer.returncode for writer in writers] == [0, 0], errors
        assert len(cache_rows(tmp_path)) == 400
        fetcher = Fetcher(
            FetchPolicy(mode="live", cache_dir=tmp_path, base_url="http://127.0.0.1:1")
        )
        for tag in ("optics", "lasers"):
            for n in range(200):
                raw = fetcher.fetch(PageRequest(LABEL_SEARCH, tag, n))
                assert raw.body == f'<div id="gsc_sa_ccl">{tag} {n}</div>'.encode()
        assert fetcher.cache_hits == 400
        assert fetcher.request_log == []


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

    @pytest.mark.parametrize("retry_after,ceiling_s,shortest,longest", [
        ("1", 60, 1.0, float("inf")),
        ("3", 0.2, 0.2, 2.0),  # held to the ceiling
        ("Wed, 21 Oct 2026 07:28:00 GMT", 60, 0.0, 1.0),  # the HTTP-date form is ignored
    ], ids=["seconds", "over the ceiling", "HTTP-date"])
    def test_retry_after_lengthens_the_wait(self, scripted_server, tmp_path, monkeypatch,
                                            retry_after, ceiling_s, shortest, longest):
        monkeypatch.setattr(fetcher_module, "RETRY_AFTER_CEILING_S", ceiling_s)
        server = scripted_server((429, b"", {"Retry-After": retry_after}), (200, LABEL_PAGE))
        fetcher = live_fetcher(server_url(server), tmp_path)
        assert fetcher.fetch(LABEL_REQUEST).source == "live"
        (first, _), (second, _) = fetcher.request_log
        assert shortest <= second - first < longest

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
        assert cache_rows(cache) == {}

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
