"""A bundled in-process bug tracker mock for tests and offline demos.

Serves GET /rest/bug with the same query parameters the real client
sends (include_fields, creation_time bounds, order, limit, offset) and
logs every request so contract tests can pin the wire shape.  Fixture
data is generated deterministically.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..rng import Rng

_COMPONENTS = ("editor", "compiler", "network", "storage", "ui", "auth", "search")
_FAILURES = ("crashes", "hangs", "loses data", "renders garbage", "times out", "leaks memory")


def make_fixture_bugs(
    n: int = 250,
    duplicate_links: int = 2,
    dependency_links: int = 3,
    seed: int = 7,
    resolved_fixed: int = 10,
) -> list[dict]:
    """Deterministic bug fixtures with a known number of resolvable links.

    The first duplicate_links bugs get resolution DUPLICATE and a
    dupe_of pointing at an in-window bug; the next dependency_links
    bugs get a depends_on link; resolved_fixed bugs are closed as FIXED
    (so they are not open); everything else is open with a blank
    resolution.  Creation times stay inside 2019-2021.
    """
    if n < duplicate_links + dependency_links + resolved_fixed + 2:
        raise ValueError("fixture needs more records than links")
    rng = Rng(seed).derive("mock-bugs")
    bugs: list[dict] = []
    for i in range(1, n + 1):
        year = 2019 + (i % 3)
        month = 1 + (i * 7) % 12
        day = 1 + (i * 11) % 28
        component = _COMPONENTS[i % len(_COMPONENTS)]
        failure = _FAILURES[i % len(_FAILURES)]
        bugs.append(
            {
                "id": i,
                "summary": f"{component} {failure} when handling request {i}",
                "description": f"steps to reproduce issue {i}: open the {component} and wait",
                "creation_time": f"{year:04d}-{month:02d}-{day:02d}T10:{i % 60:02d}:00Z",
                "resolution": "",
                "dupe_of": [],
                "depends_on": [],
            }
        )
    # Link targets land in the open tail so targets always resolve.
    cursor = 0
    tail_start = duplicate_links + dependency_links + resolved_fixed
    for k in range(duplicate_links):
        target = tail_start + 1 + rng.randbelow(n - tail_start)
        bugs[cursor]["resolution"] = "DUPLICATE"
        bugs[cursor]["dupe_of"] = [target]
        cursor += 1
    for k in range(dependency_links):
        target = tail_start + 1 + rng.randbelow(n - tail_start)
        bugs[cursor]["depends_on"] = [target]
        cursor += 1
    for k in range(resolved_fixed):
        bugs[cursor]["resolution"] = "FIXED"
        cursor += 1
    return bugs


@dataclass
class RequestLogEntry:
    path: str
    params: dict[str, str]


class _Handler(BaseHTTPRequestHandler):
    # self.server is the ThreadingHTTPServer, decorated by
    # MockBugzillaServer with bugs, request_log, and failures_remaining.

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        self.server.request_log.append(RequestLogEntry(parsed.path, params))
        if parsed.path != "/rest/bug":
            self._respond(404, {"error": "unknown path"})
            return
        if self.server.failures_remaining > 0:
            self.server.failures_remaining -= 1
            self._respond(503, {"error": "temporarily unavailable"})
            return
        start = params.get("creation_time_from", "0000-00-00")
        end = params.get("creation_time_to", "9999-99-99")
        selected = [
            b
            for b in self.server.bugs
            if start <= b["creation_time"][:10] <= end
        ]
        selected.sort(key=lambda b: (b["creation_time"], b["id"]), reverse=True)
        limit = int(params.get("limit", "100"))
        offset = int(params.get("offset", "0"))
        page = selected[offset : offset + limit]
        fields = params.get("include_fields")
        if fields:
            keep = fields.split(",")
            page = [{k: b[k] for k in keep if k in b} for b in page]
        self._respond(200, {"bugs": page, "total": len(selected)})

    def _respond(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args) -> None:  # silence default stderr noise
        pass


class MockBugzillaServer:
    """Threaded HTTP server over a fixture bug list.

    Use as a context manager; endpoint gives the base URL.  Setting
    failures_remaining makes the next responses 503, for retry tests.
    """

    def __init__(self, bugs: list[dict], host: str = "127.0.0.1", port: int = 0) -> None:
        self.bugs = bugs
        self.request_log: list[RequestLogEntry] = []
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.request_log = self.request_log  # type: ignore[attr-defined]
        self._httpd.bugs = bugs  # type: ignore[attr-defined]
        self._httpd.failures_remaining = 0  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def failures_remaining(self) -> int:
        return self._httpd.failures_remaining  # type: ignore[attr-defined]

    @failures_remaining.setter
    def failures_remaining(self, value: int) -> None:
        self._httpd.failures_remaining = value  # type: ignore[attr-defined]

    @property
    def endpoint(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "MockBugzillaServer":
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread:
            self._thread.join(timeout=5)

    def __enter__(self) -> "MockBugzillaServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
