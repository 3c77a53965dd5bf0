"""Shared fixtures: a deterministic local HTTP server for crawl tests.

The server dispatches on the Host header, so fixture sites with arbitrary
hostnames (main.com, sub.main.com) can be exercised through the fetcher's
resolve overrides while everything stays on 127.0.0.1.
"""

from __future__ import annotations

import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest


class FixtureSite:
    """In-memory site: (host, path) -> response spec.

    A spec is a dict with optional keys status (default 200), headers
    (list of (name, value) pairs, duplicates allowed) and body (str|bytes).
    Paths registered under host=None match any Host header.
    """

    def __init__(self):
        self.responses: dict[tuple[str | None, str], dict] = {}
        self.requests: list[tuple[str, str]] = []
        self.user_agents: list[str] = []
        self.host_headers: list[str] = []
        self.host = "127.0.0.1"
        self.port = 0
        # Set at teardown: a delayed response stops waiting, so its handler
        # thread can end before the server is closed.
        self.closing = threading.Event()

    def add(self, path: str, body: str = "", *, host: str | None = None,
            status: int = 200, headers: list[tuple[str, str]] | None = None,
            content_type: str = "text/html; charset=utf-8", delay: float = 0.0) -> None:
        self.responses[(host, path)] = {
            "status": status,
            "headers": headers or [],
            "body": body,
            "content_type": content_type,
            "delay": delay,
        }

    def url(self, path: str, host: str | None = None, scheme: str = "http") -> str:
        authority = host if host else f"{self.host}:{self.port}"
        if host:
            authority = host  # resolve overrides will route it here
        return f"{scheme}://{authority}{path}"

    def resolve_overrides(self, *hosts: str) -> dict[str, str]:
        return {h: f"{self.host}:{self.port}" for h in hosts}


def _make_handler(site: FixtureSite):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self):  # noqa: N802 (http.server API)
            host = (self.headers.get("Host") or "").split(":")[0].lower()
            site.requests.append((host, self.path))
            site.user_agents.append(self.headers.get("User-Agent", ""))
            site.host_headers.append(self.headers.get("Host", ""))
            spec = site.responses.get((host, self.path)) or site.responses.get((None, self.path))
            if spec is None:
                body = b"not found"
                self.send_response(404)
                self.send_header("Content-Type", "text/plain")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return
            if spec["delay"]:
                site.closing.wait(spec["delay"])
            body = spec["body"]
            if isinstance(body, str):
                body = body.encode("utf-8")
            self.send_response(spec["status"])
            self.send_header("Content-Type", spec["content_type"])
            for name, value in spec["headers"]:
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    return Handler


def _serve(site: FixtureSite, server: ThreadingHTTPServer):
    site.host, site.port = server.server_address[:2]
    # A short poll interval keeps shutdown() from waiting out the default 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield site
    finally:
        site.closing.set()
        server.shutdown()
        server.server_close()
        thread.join()


class _FixtureServer(ThreadingHTTPServer):
    # Handler threads are not daemons, so server_close() joins them: none
    # outlives the test that started it.
    daemon_threads = False


class _IPv6Server(_FixtureServer):
    address_family = socket.AF_INET6


@pytest.fixture
def fixture_site():
    site = FixtureSite()
    yield from _serve(site, _FixtureServer(("127.0.0.1", 0), _make_handler(site)))


@pytest.fixture
def fixture_site_v6():
    """The same server on the IPv6 loopback ::1."""
    site = FixtureSite()
    try:
        server = _IPv6Server(("::1", 0), _make_handler(site))
    except OSError as exc:
        pytest.skip(f"no IPv6 loopback: {exc}")
    yield from _serve(site, server)
