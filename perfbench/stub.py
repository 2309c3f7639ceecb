"""Stub chat-completions endpoint for the endpoint workload, in its own process.

Usage:

    python3 perfbench/stub.py CONFIG

CONFIG is JSON: ``{"seed": int, "latency_s": float, "faults": [[title, kind,
fault], ...]}``.  The stub prints ``PORT <n>`` once it listens on 127.0.0.1,
serves until its standard input closes, then prints its counters as one JSON
line and exits.

It speaks HTTP/1.1 with keep-alive and waits ``latency_s`` before each answer.
Answers depend only on the prompt in the request body and on how many times
that body was sent before, never on arrival order:

* the answer is a permutation of the prompt's candidate ids, seeded by the
  prompt text (``permutation``);
* a prompt named in ``faults`` (by its query title and agent kind) gets
  ``429`` on its first attempt, or a repairable malformed answer: the list
  wrapped in prose, or prose plus a duplicated id (``answer``).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_QUERY_TITLE_RE = re.compile(r"^\{title: (.*)\}$", re.MULTILINE)
_CANDIDATE_RE = re.compile(r"^ID:\d+ title: ", re.MULTILINE)
PROSE = "Here is the ranking you asked for:\n{}\nThe first ones are the most likely complements."


def prompt_key(prompt: str) -> tuple[str, str]:
    """(query title, agent kind) of a rendered prompt."""
    title = _QUERY_TITLE_RE.search(prompt).group(1)
    kind = "diversity" if "focus on the diversity aspect" in prompt else "accuracy"
    return title, kind


def permutation(prompt: str, seed: int) -> list[int]:
    order = list(range(len(_CANDIDATE_RE.findall(prompt))))
    random.Random(hashlib.sha256(f"{seed}:{prompt}".encode()).hexdigest()).shuffle(order)
    return order


def answer(prompt: str, seed: int, fault: str | None) -> str:
    """The completion text the stub returns for ``prompt`` once it succeeds."""
    order = permutation(prompt, seed)
    if fault == "duplicate" and len(order) > 1:
        order[1] = order[0]
    listing = "[" + ", ".join(map(str, order)) + "]"
    return PROSE.format(listing) if fault in ("prose", "duplicate") else listing


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, seed: int, latency_s: float, faults: list[list[str]]):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.seed = seed
        self.latency_s = latency_s
        self.faults = {(title, kind): fault for title, kind, fault in faults}
        self.lock = threading.Lock()
        self.attempts: dict[str, int] = {}
        self.stats = {"requests": 0, "connections": 0, "injected": {"429": 0, "prose": 0, "duplicate": 0}}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def setup(self) -> None:
        super().setup()
        with self.server.lock:
            self.server.stats["connections"] += 1

    def do_POST(self) -> None:
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        prompt = json.loads(raw)["messages"][0]["content"]
        fault = self.server.faults.get(prompt_key(prompt))
        body_key = hashlib.sha256(raw).hexdigest()
        with self.server.lock:
            stats = self.server.stats
            stats["requests"] += 1
            attempt = self.server.attempts.get(body_key, 0) + 1
            self.server.attempts[body_key] = attempt
            if fault == "429" and attempt > 1:
                fault = None
            if fault:
                stats["injected"][fault] += 1
        time.sleep(self.server.latency_s)
        if fault == "429":
            self._send(429, {"error": {"message": "rate limited"}}, {"Retry-After": "0"})
        else:
            content = answer(prompt, self.server.seed, fault)
            self._send(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})

    def _send(self, status: int, payload: dict, headers: dict | None = None) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:
        pass


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        config = json.load(fh)
    server = StubServer(config["seed"], config["latency_s"], config["faults"])
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
    print(json.dumps(server.stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
