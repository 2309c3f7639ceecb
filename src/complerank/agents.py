"""Reranking agents: prompt rendering, LLM transport, permutation parsing.

Two agent kinds share one prompt skeleton (query info, numbered candidate
list, task definition, few-shot examples, ranking instructions, output
format) and differ in exactly one ranking-instruction sentence: the diversity
agent pushes varied genres to the head of the list, the accuracy agent pushes
the most precisely complementary items.

The model is asked to answer with a bracketed ID permutation such as
``[1, 4, 3, 0, 2]``.  Models stray from that, so :func:`parse_permutation`
never rejects: it extracts the first bracketed integer list it can find and
repairs it into a full permutation, flagging every repair for audit.
"""

from __future__ import annotations

import json
import os
import random
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Container, Iterable, Mapping, Sequence

from .catalog import Item


class AgentKind(str, Enum):
    DIVERSITY = "diversity"
    ACCURACY = "accuracy"


class PromptError(ValueError):
    """Unrenderable prompt request (empty or oversized candidate list)."""


class TransportError(RuntimeError):
    """LLM endpoint unreachable or persistently failing after retries."""


MAX_CANDIDATES = 100

_INSTRUCTION = {
    AgentKind.DIVERSITY: "Meanwhile, focus on the diversity aspect \
(more items with different 'genre' feature at the top of the list).",
    AgentKind.ACCURACY: "Meanwhile, focus on the accuracy aspect \
(choose items that are most precisely and correctly complementary to the given product).",
}


def render_prompt(query: Item, candidates: Sequence[Item], kind: AgentKind) -> str:
    """The reranking prompt for ``candidates`` in input order, labeled ``ID:0 .. ID:n-1``.

    Only titles are exposed to the agent.  Rendering is deterministic:
    identical inputs give byte-identical prompt text.
    """
    listing = "\n".join([f"ID:{k} title: {item.title}" for k, item in enumerate(candidates)])
    return f"""Considering a product, its basic information is:
{{title: {query.title}}}

Here's a list of the candidate products:
{listing}

The task is identifying the complementary relation between the given product and candidates.
Complementary is defined as: products are likely to be purchased or used at the same time, \
but it is not a direct substitute.

A complementary product can be:
- An accessory of the given product (e.g., iPhone Case is complementary to iPhone)
- Both accessories to the same product (e.g., Speaker Cables can be complementary to Speaker Stands)
- Products used together for the same activity (e.g., Bowl can be complementary to Plate)

Then rerank the candidates based on above given information. \
The order of reranking result should represent how likely the candidate is a complementary product.
{_INSTRUCTION[kind]}

Your answer should ONLY rank all mentioned candidates ID, do NOT repeat or include Name. \
And omit anything else such as your thinking and decision-making process.
Example answer format for 5 candidates: [1, 4, 3, 0, 2]
"""


@dataclass
class PromptBundle:
    """A prompt's inputs: local integer ID ``k`` names the item ``items[ids[k]]``.

    ``text`` looks the titles up and renders the prompt on each read, keeping
    nothing, so a bundle holds no prompt text and a transport that never reads
    it renders none and looks up no candidate.
    """

    query: Item
    ids: Sequence[str]
    items: Mapping[str, Item]
    kind: AgentKind

    @property
    def text(self) -> str:
        return render_prompt(self.query, [self.items[item_id] for item_id in self.ids], self.kind)


def build_prompt(query: Item, ids: Sequence[str], items: Mapping[str, Item], kind: AgentKind) -> PromptBundle:
    """The prompt bundle for the ``items`` of ``ids`` in input order: the ids are checked now (nonempty,
    at most ``MAX_CANDIDATES``, no repeat), and ``items`` is read only when the text is rendered."""
    if not ids:
        raise PromptError("candidate list is empty")
    if len(ids) > MAX_CANDIDATES:
        raise PromptError(f"{len(ids)} candidates exceed the maximum of {MAX_CANDIDATES}")
    if len(set(ids)) != len(ids):
        raise PromptError("candidate list contains duplicate item ids")
    return PromptBundle(query, ids, items, kind)


def is_http_url(url: str) -> bool:
    """Whether ``url`` is an http(s) URL with a host and a valid port if any, in printable ASCII without " ?#"."""
    # http.client sends no other URL, and ``complete`` appends a path that must not follow a ``?`` or ``#``.
    if not (url.isascii() and url.isprintable()) or any(c in url for c in " ?#"):
        return False
    try:
        parts = urllib.parse.urlsplit(url)
        parts.port  # raises ValueError for a port that is not a number in 0-65535
    except ValueError:  # also raised for a bracketed host that is not an IPv6 address
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


@dataclass(frozen=True)
class LlmConfig:
    """Connection settings for an OpenAI-compatible chat-completions endpoint."""

    endpoint: str
    model: str
    api_key_env: str = "OPENAI_API_KEY"
    temperature: float = 0.0
    max_retries: int = 3
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if not is_http_url(self.endpoint):
            raise ValueError(
                "endpoint must be an http:// or https:// URL with a host, in printable ASCII"
                f" without spaces, '?' or '#', got {json.dumps(self.endpoint)}"
            )
        key = os.environ.get(self.api_key_env, "")  # a header value; the error names the variable, not the key
        if not (key.isascii() and key.isprintable()):
            raise ValueError(f"${self.api_key_env}: the API key must be printable ASCII")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:  # the most a socket or a lock can wait
            raise ValueError(f"timeout must be positive and at most {threading.TIMEOUT_MAX:.0f} seconds")
        if not self.temperature >= 0:  # also rejects NaN
            raise ValueError("temperature must be nonnegative")


def _retry_after_seconds(value: str | None) -> float | None:
    """A ``Retry-After`` of non-negative integer seconds, else None (an HTTP-date included)."""
    value = (value or "").strip()
    # ``float`` reads a digit string of any length (a huge one as inf); ``int`` would refuse one.
    return float(value) if value.isascii() and value.isdigit() else None


BACKOFF_SECONDS = 0.2  # the wait before the first retry; each later one doubles
_opener = None  # the urllib opener of every request, built on the first (see complete)


def complete(prompt: PromptBundle, config: LlmConfig) -> str:
    """POST the prompt as a single user message and return the assistant text.

    Retries transport errors and HTTP 408, 429 and 5xx up to ``max_retries``
    times with exponential backoff; any other non-2xx status fails at once,
    a 3xx redirect included (none is followed).  A retryable status
    whose ``Retry-After`` is a whole number of seconds waits that long
    instead, at most ``timeout``.  Raises :class:`TransportError` carrying
    the last failure, and for a completion that is not JSON or whose content
    is missing or not a string.  An empty or missing API key sends no
    Authorization header (fine for unauthenticated local endpoints).  The
    standard-library HTTP client is imported on the first call, so mock runs
    never load it; it opens one connection per attempt.
    """
    global _opener
    import http.client
    import urllib.request

    if _opener is None:  # built once and kept, as urlopen keeps its own
        # Without HTTPErrorProcessor every status is the response, so no redirect is followed.
        _opener = urllib.request.OpenerDirector()
        for handler in (urllib.request.ProxyHandler, urllib.request.UnknownHandler,
                        urllib.request.HTTPHandler, urllib.request.HTTPSHandler):
            _opener.add_handler(handler())

    url = config.endpoint.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(config.api_key_env, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt.text}],
        "temperature": config.temperature,
    }
    data = json.dumps(body, allow_nan=False).encode("utf-8")

    retry_after = None  # seconds the last retryable answer asked to wait, if it said
    for attempt in range(config.max_retries + 1):
        if attempt:
            backoff = BACKOFF_SECONDS * 2 ** (attempt - 1)
            time.sleep(backoff if retry_after is None else min(retry_after, config.timeout))
            retry_after = None
        try:
            # A fresh Request per attempt: urllib's proxy handling rewrites the one it sends.
            request = urllib.request.Request(url, data, headers)
            with _opener.open(request, timeout=config.timeout) as response:
                status, reply_headers, payload = response.status, response.headers, response.read()
        except (http.client.HTTPException, OSError) as exc:  # OSError covers urllib.error.URLError
            last_failure = f"transport error: {exc}"
            continue
        if not 200 <= status < 300:
            last_failure = f"HTTP {status}: {payload.decode('utf-8', errors='replace')[:200]}"
            if status in (408, 429) or status >= 500:
                retry_after = _retry_after_seconds(reply_headers.get("Retry-After"))
                continue
            break
        try:
            content = json.loads(payload)["choices"][0]["message"]["content"]
        except (ValueError, RecursionError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"unparseable completion payload from {url}: {exc!r}")
        if not isinstance(content, str):
            raise TransportError(f"completion from {url} has non-string content {content!r}")
        return content
    raise TransportError(
        f"request to {url} failed after {attempt + 1} attempt(s); last: {last_failure}"
    )


# Repair flags attached to parsed permutations.
DEDUPLICATED = "deduplicated"
DROPPED_OUT_OF_RANGE = "dropped_out_of_range"
APPENDED_MISSING = "appended_missing"
FALLBACK_IDENTITY = "fallback_identity"
NO_REPAIRS: frozenset[str] = frozenset()  # one shared empty set, as most answers need no repair

_BRACKET_RE = re.compile(r"\[([^\[\]]*)\]")
_INT_RE = re.compile(r"[+-]?\d+")
# The identity order of ``n`` positions, one byte each, is ``_IDENTITY[n]``, for every ``n`` a byte
# indexes; an order that keeps its input as it stands shares one of these.
_IDENTITY = tuple(bytes(range(n)) for n in range(257))
_LOCAL_IDS = {str(k): k for k in range(256)}  # the plain decimal spelling of each ID a byte holds


def _read_int(token: str, n: int) -> int:
    """``int(token)``, or the out-of-range ID ``n`` for a token with more digits than ``int`` reads."""
    try:
        return int(token)
    except ValueError:
        return n


def parse_permutation(raw: str, n: int) -> "ParsedPermutation":
    """Extract and repair a ranking over local IDs ``0..n-1`` from model output, ``1 <= n <= 256``.

    The first bracketed comma-separated list containing at least one integer
    is used.  Repairs, applied in order: drop non-integer tokens, drop
    out-of-range IDs (an integer with more digits than ``int`` reads counts
    as out of range), keep the first occurrence of duplicates, append missing
    IDs in ascending order.  With no usable bracketed list at all, the
    identity order is returned.  Every input yields a valid permutation, one
    byte per ID; the ``repairs`` flags record how much of the model's answer
    survived.
    """
    if not 0 < n < len(_IDENTITY):
        raise ValueError(f"n must be in 1..{len(_IDENTITY) - 1}, got {n}")

    # Fast path: a clean "[i, j, ...]" answer in plain decimal, read by lookup.  With n tokens that
    # leave none of 0..n-1 out, it is a permutation.  Any other answer, other spellings of the same
    # IDs included, goes through the loop below.
    tokens = raw[1:-1].split(", ") if raw[:1] == "[" and raw[-1:] == "]" else ()
    if len(tokens) == n:
        try:
            order = bytes(map(_LOCAL_IDS.__getitem__, tokens))
        except KeyError:  # a token the table does not spell
            pass
        else:
            if not _IDENTITY[n].translate(None, order):
                return ParsedPermutation(order, NO_REPAIRS)

    values: list[int] | None = None
    for match in _BRACKET_RE.finditer(raw):
        tokens = [token.strip() for token in match.group(1).split(",")]
        parsed = [_read_int(token, n) for token in tokens if _INT_RE.fullmatch(token)]
        if parsed:
            values = parsed
            break

    if values is None:
        return ParsedPermutation(_IDENTITY[n], frozenset({FALLBACK_IDENTITY}))

    in_range = [v for v in values if 0 <= v < n]
    order = bytes(dict.fromkeys(in_range))  # each ID at its first occurrence
    missing = _IDENTITY[n].translate(None, order)  # in ascending order
    flags = (
        (DROPPED_OUT_OF_RANGE, len(in_range) < len(values)),
        (DEDUPLICATED, len(order) < len(in_range)),
        (APPENDED_MISSING, bool(missing)),
    )
    repairs = frozenset(flag for flag, hit in flags if hit)
    return ParsedPermutation(order + missing, repairs or NO_REPAIRS)


@dataclass
class ParsedPermutation:
    """A repaired ranking: ``order`` is always a permutation of ``0..n-1``, one byte per ID."""

    order: bytes
    repairs: frozenset[str]


Transport = Callable[[PromptBundle], str]


def http_transport(config: LlmConfig) -> Transport:
    """Wrap :func:`complete` as a per-prompt callable."""
    return lambda bundle: complete(bundle, config)


def _render(order: Iterable[int]) -> str:
    return "[" + ", ".join(str(v) for v in order) + "]"


def mock_agent(policy: str, ground_truth: Mapping[str, Container[str]] | None = None) -> Transport:
    """Deterministic stand-ins for :func:`complete`, for tests and dry runs.

    ``policy`` is ``identity|reverse|shuffle:<seed>|oracle``: ``identity``
    echoes the input order, ``reverse`` flips it, ``shuffle:<seed>`` returns a
    seed-deterministic permutation (independent of call order), and
    ``oracle`` moves the candidates in ``ground_truth[bundle.query.id]`` to
    the front while preserving input order within both groups.
    """
    if policy == "identity":
        return lambda bundle: _render(range(len(bundle.ids)))
    if policy == "reverse":
        return lambda bundle: _render(reversed(range(len(bundle.ids))))
    if policy.startswith("shuffle:"):
        try:
            seed = int(policy[len("shuffle:"):])
        except ValueError:
            raise ValueError(f"mock policy {policy!r} needs an integer seed") from None

        rendered: dict[int, str] = {}  # the answer depends only on (seed, n)

        def shuffled(bundle: PromptBundle) -> str:
            n = len(bundle.ids)
            if n not in rendered:
                order = list(range(n))
                random.Random(f"{seed}:{n}").shuffle(order)
                rendered[n] = _render(order)
            return rendered[n]

        return shuffled
    if policy == "oracle":
        if ground_truth is None:
            raise ValueError("oracle requires the ground-truth ids of each query")

        def oracled(bundle: PromptBundle) -> str:
            truth = ground_truth[bundle.query.id]
            hits = [k for k, item_id in enumerate(bundle.ids) if item_id in truth]
            misses = [k for k, item_id in enumerate(bundle.ids) if item_id not in truth]
            return _render(hits + misses)

        return oracled
    raise ValueError(f"unknown mock policy {policy!r}")
