"""Loopback server for the crawl world, run as its own process.

    python3 bench/server.py --seed N [--scale S]

Builds the world from the seed, listens on 127.0.0.1 on a free port and
prints one JSON line with the port. It then reads commands on stdin:
`stats` prints the counters so far as one JSON line; `quit` (or end of
input) stops the server, prints the final counters and exits. Counters:
connections accepted, requests served, time spent in handlers, and the
process's CPU time. Traffic crosses the loopback interface, not a real
network link, so the numbers carry no network latency or loss.

Requests are dispatched on the Host header. HTTP/1.1 keep-alive is
supported, so connection reuse by the client shows in requests per
connection. The listen backlog is raised from the default of 5, at which
parallel clients stall on SYN retries.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from gen import REDIRECT_STATUS, World, build_world, render_body, robots_txt

LINK_NOTE = "loopback (127.0.0.1), not a real network link"


class WorldServer(ThreadingHTTPServer):
    request_queue_size = 128
    daemon_threads = True

    def __init__(self, world: World):
        self.world = world
        self.bodies = {url: render_body(world, page)
                       for url, page in world.pages.items() if page.status == 200}
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.service_s = 0.0
        super().__init__(("127.0.0.1", 0), WorldHandler)

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    def stats(self) -> dict:
        with self.lock:
            return {
                "connections": self.connections,
                "requests": self.requests,
                "service_s": self.service_s,
                "cpu_s": time.process_time(),
                "link": LINK_NOTE,
            }


class WorldHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: WorldServer

    def do_GET(self):  # noqa: N802 (http.server API)
        start = time.perf_counter()
        try:
            self._respond()
        finally:
            elapsed = time.perf_counter() - start
            with self.server.lock:
                self.server.requests += 1
                self.server.service_s += elapsed

    def _respond(self) -> None:
        world = self.server.world
        host = (self.headers.get("Host") or "").split(":")[0].lower()
        path = self.path.split("?", 1)[0]
        headers: list[tuple[str, str]] = []
        status, body, ctype = 404, b"not found\n", "text/plain"
        if path == "/robots.txt" and host in world.site_of_host:
            status, body = 200, robots_txt()
        else:
            page = world.pages.get(f"http://{host}{path}")
            if page is not None and page.status == REDIRECT_STATUS:
                status, body = page.status, b""
                headers.append(("Location", page.location))
            elif page is not None:
                status, body, ctype = 200, self.server.bodies[page.url], "text/html; charset=utf-8"
                headers.extend(page.headers)
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        for name, value in headers:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()
    server = WorldServer(build_world(args.seed, args.scale))
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        print(json.dumps({"port": server.server_address[1], "link": LINK_NOTE}), flush=True)
        for line in sys.stdin:
            if line.strip() != "stats":
                break
            print(json.dumps(server.stats()), flush=True)
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        print(json.dumps(server.stats()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
