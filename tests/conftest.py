import http.server
import json
import threading
import time
from pathlib import Path

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


def server_url(server) -> str:
    return f"http://127.0.0.1:{server.server_address[1]}"
