import contextlib
import http.server
import json
import threading
import time
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import pytest

from scholar_sounder import bundled_fixtures_dir
from scholar_sounder.config import build_config
from scholar_sounder.fetcher import Fetcher, FetchPolicy

GOLDEN_DIR = Path(__file__).parent / "golden"


def load_golden(name: str):
    return json.loads((GOLDEN_DIR / name).read_text("utf-8"))


@pytest.fixture
def fixtures_dir() -> Path:
    return bundled_fixtures_dir()


@pytest.fixture
def fixture_fetcher(fixtures_dir) -> Fetcher:
    return Fetcher(FetchPolicy(mode="fixture", fixtures_dir=fixtures_dir))


@pytest.fixture
def optics_config(fixtures_dir):
    """The reference run configuration: physical_optics base tag, the
    four-word optics theme dictionary, depth 5."""
    return build_config(
        {
            "base_tags": ["physical_optics"],
            "dictionary": ["optics", "optical", "photonics", "laser"],
            "fetch": {"mode": "fixture", "fixtures_dir": str(fixtures_dir)},
        }
    )


# A loopback server for the live-path tests, scripted one response per request.
LABEL_PAGE = (bundled_fixtures_dir() / "labels" / "physical_optics" / "0.html").read_bytes()
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


@contextlib.contextmanager
def loopback_server(handler, **state):
    """Serve ``handler`` on 127.0.0.1 until the block ends; the keyword
    arguments become attributes of the server. Each request gets its own
    thread, so a stalled one does not hold up the retry after it;
    ``server.paths`` holds the request targets."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.paths = []
    vars(server).update(state)
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    ).start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def scripted_server():
    """Start a loopback server that plays the given script, one step per
    request; ``server.hits`` counts the requests it saw."""
    with contextlib.ExitStack() as servers:
        yield lambda *script: servers.enter_context(
            loopback_server(_ScriptedHandler, script=list(script), hits=0))


INTERSTITIAL = b"<html><body>Please show that you are not a robot.</body></html>"


class _PageHandler(http.server.BaseHTTPRequestHandler):
    """Answers each GET with the body ``_page`` finds for its query, or a
    404 if it finds none; ``server.paths`` records the request targets."""

    def do_GET(self):
        self.server.paths.append(self.path)
        body = self._page({k: v[0] for k, v in parse_qs(urlparse(self.path).query).items()})
        if body is None:
            self.send_error(404)
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class CorpusHandler(_PageHandler):
    """Answers as the service would from ``server.corpus``, a rendered corpus
    (``fakes.render_corpus``). Label page k answers to ``astart=10k``, and past
    page 0 only with the ``after_author`` token that page k-1 names
    (``<tag>-<k>``). A profile answers to ``user=<id>``; one the corpus lacks
    is a 200 interstitial without the profile marker if its id is in
    ``server.interstitials``. Anything else is a 404."""

    def _page(self, query: dict) -> bytes | None:
        corpus = self.server.corpus
        if "user" in query:
            html = corpus.profiles.get(query["user"])
            if html is None and query["user"] in self.server.interstitials:
                return INTERSTITIAL
        else:
            tag = query.get("mauthors", "").removeprefix("label:")
            index, rest = divmod(int(query.get("astart", "0")), 10)
            if rest or query.get("after_author") != (f"{tag}-{index}" if index else None):
                return None
            html = corpus.label_pages.get((tag, index))
        return None if html is None else html.encode("utf-8")


class TreeHandler(_PageHandler):
    """Answers from ``server.tree``, a fixture tree such as the bundled one,
    whatever its continuation tokens: ``mauthors=label:<tag>`` with
    ``astart=10k`` is ``labels/<tag>/<k>.html`` and ``user=<id>`` is
    ``authors/<id>.html``. A page the tree lacks is a 404."""

    def _page(self, query: dict) -> bytes | None:
        if "user" in query:
            path = self.server.tree / "authors" / f"{query['user']}.html"
        else:
            tag = query.get("mauthors", "").removeprefix("label:")
            path = self.server.tree / "labels" / tag / f"{int(query.get('astart', '0')) // 10}.html"
        return path.read_bytes() if path.is_file() else None


def server_url(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}"
