import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from complerank.catalog import ComplementGraph, Item

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def tiny_graph() -> ComplementGraph:
    """Six items in two category families, four edges, hand-checkable."""
    items = [
        Item(id="a1", title="camera body pro", categories=("photo", "cameras"), price=500.0),
        Item(id="a2", title="camera lens zoom", categories=("photo", "lenses"), price=250.0),
        Item(id="a3", title="camera strap soft", categories=("photo", "accessories"), price=25.0),
        Item(id="b1", title="stand mixer large", categories=("kitchen", "appliances"), price=300.0),
        Item(id="b2", title="mixing bowl steel", categories=("kitchen", "tools"), price=30.0),
        Item(id="b3", title="bread knife sharp", categories=("kitchen", "tools"), price=20.0),
    ]
    edges = [("a1", "a2"), ("a1", "a3"), ("b1", "b2"), ("b2", "b3")]
    return ComplementGraph(items={item.id: item for item in items}, edges=frozenset(edges))


@pytest.fixture
def prompt_fixture():
    """The 5-candidate fixture frozen in the golden prompt snapshots."""
    query = Item(id="q1", title="Acoustic Guitar", categories=("music",), price=199.0)
    candidates = [
        Item(id="c1", title="Guitar Strings Set"),
        Item(id="c2", title="Guitar Capo"),
        Item(id="c3", title="Electric Kettle"),
        Item(id="c4", title="Guitar Tuner Clip"),
        Item(id="c5", title="Sheet Music Stand"),
    ]
    return query, candidates


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        self.server.requests.append(
            {
                "path": self.path,
                "raw": raw,
                "body": json.loads(raw) if length else {},
                "auth": self.headers.get("Authorization"),
            }
        )
        entry = self.server.script[min(len(self.server.requests) - 1, len(self.server.script) - 1)]
        if entry[0] == "drop":
            self.close_connection = True
            return
        if entry[0] == "sleep":
            time.sleep(entry[1])
            entry = entry[2:]
        status, payload, *headers = entry
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        try:
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):  # a client that timed out has gone
            self.close_connection = True

    def log_message(self, *args):  # keep pytest output clean
        pass


class MockChatServer:
    """Local chat-completions endpoint with a scriptable response sequence.

    ``script`` is a list of (status, payload) pairs, each optionally followed
    by a dict of extra response headers; a ``bytes`` payload is sent as is,
    any other is JSON-encoded.  ``("drop",)`` closes the connection without
    answering, and ``("sleep", seconds, status, payload[, headers])`` waits
    that long before answering.  The last entry repeats once the sequence is
    exhausted.  Each request is recorded with its raw body bytes and the
    parsed JSON.
    """

    def __init__(self):
        self.server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
        self.server.requests = []
        self.server.script = [(200, self.completion("[0]"))]
        # A short poll keeps ``shutdown`` (each teardown) from waiting out the 0.5 s default.
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    @staticmethod
    def completion(text: str) -> dict:
        return {"choices": [{"message": {"role": "assistant", "content": text}}]}

    @property
    def url(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    @property
    def requests(self) -> list:
        return self.server.requests

    def set_script(self, script):
        self.server.requests.clear()
        self.server.script = list(script)

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def chat_server():
    server = MockChatServer()
    yield server
    server.close()
