"""Loopback stand-in for the citation service.

Serves a fixture tree over HTTP on 127.0.0.1: label pages keyed by
``mauthors=label:<tag>`` and ``astart``, profiles keyed by ``user=``. A page
the tree lacks is a 404. The server handles one connection at a time, like
the single sequential client it serves, and counts every request it answers.
"""

from __future__ import annotations

import http.server
import threading
from pathlib import Path
from urllib.parse import parse_qs, urlparse


def _load_pages(tree: Path) -> dict[tuple, bytes]:
    pages: dict[tuple, bytes] = {}
    for path in (tree / "labels").glob("*/*.html"):
        pages[("label", path.parent.name, int(path.stem))] = path.read_bytes()
    for path in (tree / "authors").glob("*.html"):
        pages[("user", path.stem)] = path.read_bytes()
    return pages


def page_key(url: str) -> tuple | None:
    """The corpus key a request URL asks for, or None if it names none."""
    query = parse_qs(urlparse(url).query)
    if "user" in query:
        return ("user", query["user"][0])
    label = query.get("mauthors", [""])[0]
    if label.startswith("label:"):
        start = int(query.get("astart", ["0"])[0])
        return ("label", label[len("label:"):], start // 10)
    return None


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        server = self.server
        body = server.pages.get(page_key(self.path))
        server.hits += 1
        if body is None:
            server.not_found += 1
            self.send_error(404)
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class StubService:
    """Context manager running the stub server on a background thread.
    Clients reach it through ``FetchPolicy.base_url``, the fetcher's test
    seam."""

    def __init__(self, tree: Path):
        self.httpd = http.server.HTTPServer(("127.0.0.1", 0), _Handler)
        self.httpd.pages = _load_pages(tree)
        self.httpd.hits = 0
        self.httpd.not_found = 0
        self._thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.httpd.server_address[1]}"

    @property
    def hits(self) -> int:
        return self.httpd.hits

    @property
    def not_found(self) -> int:
        return self.httpd.not_found

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()
        self._thread.join(timeout=10)
