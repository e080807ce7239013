"""Stand-in chat-completions model for the remote-loopback workload.

Run as its own process: ``python3 stub_model.py``. It binds an ephemeral
port on 127.0.0.1, prints the port on the first line of its standard
output, and serves until terminated:

* ``POST /v1/chat/completions`` answers the user message from the loaded
  fixture after ``SERVICE_S``. The first attempt at each prompt whose
  digest is among the lowest ``REJECT_SHARE`` of the fixture's digests
  gets 503, so the client's retry path runs on a known count.
* ``POST /control/load`` with ``{"fixture": path}`` loads a
  prompt/completion line file and zeroes the counters.
* ``GET /control/stats`` returns the request count, the 503 count and
  the summed service time since the last load.

Nagle's algorithm is off on every connection: with it, each small
response waits for the client's delayed ACK (about 40 ms on Linux), and
the benchmark would time the kernel's timer instead of the program.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# Fixed service time of every answered request, and the share of the
# fixture's prompts whose first attempt gets 503. The benchmark derives its
# expected request and 503 counts from REJECT_SHARE.
SERVICE_S = 0.002
REJECT_SHARE = 0.02


def digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def reject_count(entries: int) -> int:
    """How many of a fixture's prompts get 503 on their first attempt."""
    return round(REJECT_SHARE * entries)


class StubState:
    def __init__(self):
        self.lock = threading.Lock()
        self.load({})

    def load(self, completions: dict[str, str]) -> None:
        with self.lock:
            self.completions = completions
            self.reject = set(sorted(completions)[:reject_count(len(completions))])
            self.requests = 0
            self.rejected = 0
            self.busy_s = 0.0

    def stats(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "rejected": self.rejected,
                    "service_s": self.busy_s, "reject_set": len(self.reject)}


def load_fixture_file(path: str) -> dict[str, str]:
    completions = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                completions[digest(obj["prompt"])] = obj["completion"]
    return completions


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    state: StubState  # set on the subclass built in serve()

    def log_message(self, format, *args):  # noqa: A002 - base class signature
        pass

    def _reply(self, status: int, obj: dict) -> None:
        body = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        return json.loads(self.rfile.read(int(self.headers.get("Content-Length", "0"))))

    def do_GET(self):
        if self.path == "/control/stats":
            self._reply(200, self.state.stats())
        else:
            self._reply(404, {"error": "not found"})

    def do_POST(self):
        start = time.perf_counter()
        body = self._body()
        if self.path == "/control/load":
            self.state.load(load_fixture_file(body["fixture"]))
            self._reply(200, {"entries": len(self.state.completions)})
            return
        if not self.path.endswith("/chat/completions"):
            self._reply(404, {"error": "not found"})
            return
        state = self.state
        key = digest(body["messages"][0]["content"])
        with state.lock:
            state.requests += 1
            reject = key in state.reject
            if reject:
                state.reject.discard(key)
                state.rejected += 1
        if reject:
            self._reply(503, {"error": "overloaded, retry"})
            return
        time.sleep(SERVICE_S)
        completion = state.completions.get(key)
        if completion is None:
            self._reply(404, {"error": "no completion for prompt"})
        else:
            self._reply(200, {"choices": [{"message": {"role": "assistant",
                                                       "content": completion}}]})
        with state.lock:
            state.busy_s += time.perf_counter() - start


def main() -> int:
    handler = type("BoundHandler", (Handler,), {"state": StubState()})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
