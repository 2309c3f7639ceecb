import json
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complerank import agents
from complerank.agents import (
    APPENDED_MISSING,
    DEDUPLICATED,
    DROPPED_OUT_OF_RANGE,
    FALLBACK_IDENTITY,
    AgentKind,
    LlmConfig,
    PromptError,
    TransportError,
    build_prompt,
    complete,
    http_transport,
    mock_agent,
    parse_permutation,
)
from complerank.catalog import Item

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def prompt_of(query, candidates, kind):
    """``build_prompt`` over the candidates' ids in order and the items map they index."""
    return build_prompt(query, tuple(item.id for item in candidates), {item.id: item for item in candidates}, kind)


class TestBuildPrompt:
    def test_diversity_golden_snapshot(self, prompt_fixture):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates, AgentKind.DIVERSITY)
        expected = (GOLDEN_DIR / "prompt_diversity.txt").read_text(encoding="utf-8")
        assert bundle.text == expected

    def test_accuracy_golden_snapshot(self, prompt_fixture):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates, AgentKind.ACCURACY)
        expected = (GOLDEN_DIR / "prompt_accuracy.txt").read_text(encoding="utf-8")
        assert bundle.text == expected

    def test_required_phrases(self, prompt_fixture):
        query, candidates = prompt_fixture
        text = prompt_of(query, candidates, AgentKind.DIVERSITY).text
        for phrase in [
            "products are likely to be purchased or used at the same time, "
            "but it is not a direct substitute",
            "An accessory of the given product (e.g., iPhone Case is complementary to iPhone)",
            "Both accessories to the same product "
            "(e.g., Speaker Cables can be complementary to Speaker Stands)",
            "Products used together for the same activity "
            "(e.g., Bowl can be complementary to Plate)",
            "Example answer format for 5 candidates: [1, 4, 3, 0, 2]",
            "focus on the diversity aspect "
            "(more items with different 'genre' feature at the top of the list)",
        ]:
            assert phrase in text

    def test_accuracy_phrase(self, prompt_fixture):
        query, candidates = prompt_fixture
        text = prompt_of(query, candidates, AgentKind.ACCURACY).text
        assert (
            "focus on the accuracy aspect (choose items that are most precisely "
            "and correctly complementary to the given product)"
        ) in text

    def test_kinds_differ_in_exactly_one_line(self, prompt_fixture):
        query, candidates = prompt_fixture
        div = prompt_of(query, candidates, AgentKind.DIVERSITY).text.splitlines()
        acc = prompt_of(query, candidates, AgentKind.ACCURACY).text.splitlines()
        assert len(div) == len(acc)
        differing = [i for i, (a, b) in enumerate(zip(div, acc)) if a != b]
        assert len(differing) == 1

    def test_candidates_listed_in_input_order(self, prompt_fixture):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates, AgentKind.DIVERSITY)
        for k, item in enumerate(candidates):
            assert f"ID:{k} title: {item.title}" in bundle.text
        assert bundle.ids == tuple(item.id for item in candidates)

    def test_single_candidate(self, prompt_fixture):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        assert "ID:0 title:" in bundle.text
        assert "ID:1" not in bundle.text

    def test_bundle_names_the_query(self, prompt_fixture):
        query, candidates = prompt_fixture
        assert prompt_of(query, candidates, AgentKind.ACCURACY).query.id == "q1"

    def test_determinism(self, prompt_fixture):
        query, candidates = prompt_fixture
        first = prompt_of(query, candidates, AgentKind.DIVERSITY).text
        second = prompt_of(query, candidates, AgentKind.DIVERSITY).text
        assert first == second

    def test_empty_candidates_rejected(self, prompt_fixture):
        query, _ = prompt_fixture
        with pytest.raises(PromptError):
            build_prompt(query, (), {}, AgentKind.DIVERSITY)

    def test_oversized_candidate_list_rejected(self, prompt_fixture):
        query, _ = prompt_fixture
        candidates = [Item(id=f"c{k}", title=f"item {k}") for k in range(101)]
        prompt_of(query, candidates[:100], AgentKind.DIVERSITY)
        with pytest.raises(PromptError, match="101 candidates exceed the maximum of 100"):
            prompt_of(query, candidates, AgentKind.DIVERSITY)

    def test_duplicate_candidate_ids_rejected(self, prompt_fixture):
        query, candidates = prompt_fixture
        with pytest.raises(PromptError):
            prompt_of(query, candidates + [candidates[0]], AgentKind.DIVERSITY)


class TestParsePermutation:
    def test_clean_answer(self):
        """The fast path's exact form, and clean answers that miss it and go through the repair pass."""
        answers = {"[1, 4, 3, 0, 2]": [1, 4, 3, 0, 2], "[1,0]": [1, 0], "Answer: [1, 0]": [1, 0],
                   " [1, 0]": [1, 0], "[1, 0]\n": [1, 0]}
        for raw, order in answers.items():
            parsed = parse_permutation(raw, len(order))
            assert parsed.order == bytes(order)
            assert parsed.repairs is agents.NO_REPAIRS  # one shared set, not an empty set per answer

    def test_duplicates_and_missing(self):
        parsed = parse_permutation("[2, 2, 0]", 4)
        assert parsed.order == bytes([2, 0, 1, 3])
        assert parsed.repairs == {DEDUPLICATED, APPENDED_MISSING}

    def test_no_list_falls_back_to_identity(self):
        parsed = parse_permutation("no list here", 3)
        assert parsed.order == bytes([0, 1, 2])
        assert parsed.repairs == {FALLBACK_IDENTITY}

    def test_out_of_range_dropped(self):
        parsed = parse_permutation("[7, 1]", 3)
        assert parsed.order == bytes([1, 0, 2])
        assert parsed.repairs == {DROPPED_OUT_OF_RANGE, APPENDED_MISSING}

    def test_negative_ids_dropped(self):
        parsed = parse_permutation("[-1, 0]", 2)
        assert parsed.order == bytes([0, 1])
        assert parsed.repairs == {DROPPED_OUT_OF_RANGE, APPENDED_MISSING}

    def test_integer_too_long_for_int_dropped(self):
        for raw in ("[" + "9" * 5000 + ", 0]", "Ranking: [" + "0" * 4999 + "1, 0]"):
            parsed = parse_permutation(raw, 2)
            assert parsed.order == bytes([0, 1])
            assert parsed.repairs == {DROPPED_OUT_OF_RANGE, APPENDED_MISSING}

    def test_non_integer_tokens_dropped_silently(self):
        parsed = parse_permutation("[first, 2]", 3)
        assert parsed.order == bytes([2, 0, 1])
        assert parsed.repairs == {APPENDED_MISSING}

    def test_skips_bracket_groups_without_integers(self):
        parsed = parse_permutation("[n/a] final ranking: [1, 0]", 2)
        assert parsed.order == bytes([1, 0])
        assert parsed.repairs == frozenset()

    def test_surrounding_prose(self):
        parsed = parse_permutation("Sure! The ranking is [1,0].", 2)
        assert parsed.order == bytes([1, 0])
        assert parsed.repairs == frozenset()

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            parse_permutation("[0]", 0)

    def test_n_must_fit_in_a_byte(self):
        """One byte per ID: 256 IDs is the most an order holds."""
        plain = "[" + ", ".join(map(str, range(255, -1, -1))) + "]"
        assert parse_permutation(plain, 256).order == bytes(range(255, -1, -1))
        assert parse_permutation("[1, 0]", 256).order == bytes([1, 0, *range(2, 256)])
        with pytest.raises(ValueError, match="257"):
            parse_permutation("[0]", 257)

    def test_plain_answers_of_every_size_are_read_by_the_table(self, monkeypatch):
        """A clean answer of up to 256 IDs never reaches the repair loop."""
        monkeypatch.setattr(agents, "_BRACKET_RE", None)  # the loop would fail on its first step
        for n in (1, 99, 100, 150, 256):
            order = list(range(n))
            random.Random(n).shuffle(order)
            assert parse_permutation("[" + ", ".join(map(str, order)) + "]", n).order == bytes(order)

    @pytest.mark.parametrize("raw", ["[2, 0, 1]", "[2, 2]", "Ranking: [2,0,1]", "no list", "[9]"])
    def test_order_is_bytes(self, raw):
        """Each way through the parser gives the stage's positions as ``bytes``, ready to be stored."""
        assert type(parse_permutation(raw, 3).order) is bytes

    @given(raw=st.text(max_size=200), n=st.integers(1, 200))
    @settings(max_examples=300, deadline=None)
    def test_always_a_permutation(self, raw, n):
        parsed = parse_permutation(raw, n)
        assert sorted(parsed.order) == list(range(n))

    @given(raw=st.binary(max_size=200).map(lambda b: b.decode("latin-1")), n=st.integers(1, 200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_always_a_permutation(self, raw, n):
        parsed = parse_permutation(raw, n)
        assert sorted(parsed.order) == list(range(n))


_BRACKET_RE = re.compile(r"\[([^\[\]]*)\]")
_INT_RE = re.compile(r"[+-]?\d+")


def reference_parse(raw, n):
    """The parser before its fast path, kept as the oracle: (order, repairs).

    An integer with more digits than ``int`` reads is out of range, like any too large ID.
    """
    values = None
    for match in _BRACKET_RE.finditer(raw):
        tokens = [token.strip() for token in match.group(1).split(",")]
        parsed = [
            n if len(token.lstrip("+-")) > sys.get_int_max_str_digits() else int(token)
            for token in tokens
            if _INT_RE.fullmatch(token)
        ]
        if parsed:
            values = parsed
            break
    if values is None:
        return list(range(n)), frozenset({FALLBACK_IDENTITY})
    repairs = set()
    in_range = [v for v in values if 0 <= v < n]
    if len(in_range) != len(values):
        repairs.add(DROPPED_OUT_OF_RANGE)
    order, seen = [], set()
    for v in in_range:
        if v in seen:
            repairs.add(DEDUPLICATED)
            continue
        seen.add(v)
        order.append(v)
    if len(order) < n:
        repairs.add(APPENDED_MISSING)
        order.extend(v for v in range(n) if v not in seen)
    return order, frozenset(repairs)


def parse(raw, n):
    try:
        parsed = parse_permutation(raw, n)
    except ValueError as exc:
        return type(exc)
    return list(parsed.order), parsed.repairs


# Near-miss variants of the plain "[d, d, ...]" answer the fast path takes.
_LIST_TOKENS = st.one_of(
    st.integers(-3, 260).map(str),
    st.sampled_from(["00", "1_0", "+3", " 2", "2 ", "\u0663", "\u00b2", "\uff11", "", "x", "[1", "1]"]),
)
_NEAR_PLAIN = st.builds(
    lambda prefix, tokens, sep, suffix: prefix + "[" + sep.join(tokens) + "]" + suffix,
    st.sampled_from(["", "", " ", "[", "a", "\n"]),
    st.lists(_LIST_TOKENS, max_size=12),
    st.sampled_from([", ", ", ", ",", " , ", ",  "]),
    st.sampled_from(["", "", " ", "]", ".", "\n"]),
)


class TestParseMatchesReference:
    @pytest.mark.parametrize(
        "raw",
        ["[1_0]", "[ +3 , -1 ]", "[\u0661, \u0660]", "[\u0663, 1, 0, 2]", "[\u00b2, 1]", "[]", "[[2,1]]",
         "[2, 0, 1]", "[0, 0, 1]", "[5, 1]", "[00, 1]", "[0,1]", " [0, 1]", "[0, 1]\n", "[2, 1, 0, 3]",
         "[1, 0] and [0, 1]", "[" + "9" * 5000 + "]", "[" + "0" * 4999 + "1, 0]", "[1, -" + "9" * 4301 + "]",
         "[0, " + "9" * 4300 + ", 1]"],
    )
    def test_explicit_cases(self, raw):
        for n in (1, 2, 3, 4, 12):
            assert parse(raw, n) == reference_parse(raw, n)

    @given(raw=st.one_of(st.text(max_size=200), _NEAR_PLAIN), n=st.integers(1, 200))
    @settings(max_examples=300, deadline=None)
    def test_text(self, raw, n):
        assert parse(raw, n) == reference_parse(raw, n)

    @given(raw=st.binary(max_size=200).map(lambda b: b.decode("latin-1")), n=st.integers(1, 200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes(self, raw, n):
        assert parse(raw, n) == reference_parse(raw, n)

    def test_seeded_fuzz(self):
        """The 40 000 cases of the acceptance fuzz, a plain list of each size, the lookup table's
        edges included, and plain lists with one token spelled otherwise."""
        rng = random.Random(99)
        for _ in range(10_000):
            text = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 200))).decode("latin-1")
            for n in (1, 5, 50, 100):
                assert parse(text, n) == reference_parse(text, n)
        for n in (1, 2, 5, 50, 99, 100, 101, 150, 255, 256):
            order = list(range(n))
            rng.shuffle(order)
            plain = "[" + ", ".join(map(str, order)) + "]"
            assert parse(plain, n) == reference_parse(plain, n) == (order, frozenset())
            assert parse_permutation(plain, n).repairs is agents.NO_REPAIRS
        for n in (10, 100):
            order = list(range(n))
            rng.shuffle(order)
            for respelled in ("07", "\u0667", "+7", "7 "):
                raw = "[" + ", ".join(respelled if v == 7 else str(v) for v in order) + "]"
                assert parse(raw, n) == reference_parse(raw, n)


class TestMockAgents:
    def bundle(self, prompt_fixture, n=3):
        query, candidates = prompt_fixture
        return prompt_of(query, candidates[:n], AgentKind.DIVERSITY)

    def test_identity(self, prompt_fixture):
        assert mock_agent("identity")(self.bundle(prompt_fixture)) == "[0, 1, 2]"

    def test_reverse(self, prompt_fixture):
        assert mock_agent("reverse")(self.bundle(prompt_fixture)) == "[2, 1, 0]"

    def test_oracle_moves_truth_first(self, prompt_fixture):
        # candidate at local ID 2 is item c3
        agent = mock_agent("oracle", ground_truth={"q1": {"c3"}})
        assert agent(self.bundle(prompt_fixture)) == "[2, 0, 1]"

    def test_oracle_preserves_order_within_groups(self, prompt_fixture):
        agent = mock_agent("oracle", ground_truth={"q1": {"c1", "c3"}})
        assert agent(self.bundle(prompt_fixture)) == "[0, 2, 1]"

    def test_shuffle_deterministic(self, prompt_fixture):
        bundle = self.bundle(prompt_fixture, n=5)
        first = mock_agent("shuffle:42")(bundle)
        second = mock_agent("shuffle:42")(bundle)
        assert first == second
        order = parse_permutation(first, 5)
        assert sorted(order.order) == list(range(5))
        assert order.repairs == frozenset()

    def test_shuffle_answer_depends_only_on_seed_and_size(self):
        items = [Item(id=f"c{k}", title=f"item {k}") for k in range(60)]
        query = Item(id="q", title="query")
        agent = mock_agent("shuffle:7")
        for n in (5, 60, 5, 17, 60):
            bundle = prompt_of(query, items[:n], AgentKind.ACCURACY)
            order = list(range(n))
            random.Random(f"7:{n}").shuffle(order)
            assert agent(bundle) == "[" + ", ".join(map(str, order)) + "]"
            assert agent(bundle) == mock_agent("shuffle:7")(bundle)

    def test_shuffle_requires_integer_seed(self):
        for policy in ("shuffle", "shuffle:", "shuffle:x"):
            with pytest.raises(ValueError):
                mock_agent(policy)

    def test_oracle_answers_by_the_bundles_query_id(self, prompt_fixture):
        query, candidates = prompt_fixture
        agent = mock_agent("oracle", ground_truth={"q1": {"c2"}, "q2": {"c3"}})
        other = prompt_of(Item(id="q2", title="Kettle Base"), candidates[:3], AgentKind.ACCURACY)
        assert agent(self.bundle(prompt_fixture)) == "[1, 0, 2]"
        assert agent(other) == "[2, 0, 1]"

    def test_oracle_requires_ground_truth(self):
        with pytest.raises(ValueError):
            mock_agent("oracle")

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            mock_agent("bogus")


class TestComplete:
    @pytest.fixture(autouse=True)
    def short_backoff(self, monkeypatch):
        monkeypatch.setattr(agents, "BACKOFF_SECONDS", 0.01)

    def config(self, server, **overrides):
        defaults = dict(
            endpoint=server.url,
            model="test-model",
            api_key_env="COMPLERANK_TEST_KEY",
            max_retries=3,
            timeout=5.0,
        )
        defaults.update(overrides)
        return LlmConfig(**defaults)

    def test_echo_round_trip(self, chat_server, prompt_fixture, monkeypatch):
        monkeypatch.delenv("COMPLERANK_TEST_KEY", raising=False)
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        chat_server.set_script([(200, chat_server.completion("[0]"))])
        assert complete(bundle, self.config(chat_server)) == "[0]"
        request = chat_server.requests[0]
        assert request["path"] == "/chat/completions"
        assert request["body"]["model"] == "test-model"
        assert request["body"]["temperature"] == 0.0
        assert request["body"]["messages"] == [{"role": "user", "content": bundle.text}]
        assert request["auth"] is None

    def test_bearer_token_from_env(self, chat_server, prompt_fixture, monkeypatch):
        monkeypatch.setenv("COMPLERANK_TEST_KEY", "sekrit")
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        chat_server.set_script([(200, chat_server.completion("[0]"))])
        complete(bundle, self.config(chat_server))
        assert chat_server.requests[0]["auth"] == "Bearer sekrit"

    def test_retries_through_transient_errors(self, chat_server, prompt_fixture):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        chat_server.set_script(
            [(500, {}), (500, {}), (200, chat_server.completion("[0]"))]
        )
        assert complete(bundle, self.config(chat_server, max_retries=3)) == "[0]"
        assert len(chat_server.requests) == 3

    def test_exhausted_retries_carry_last_status(self, chat_server, prompt_fixture):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        chat_server.set_script([(503, {})])
        with pytest.raises(TransportError, match="503"):
            complete(bundle, self.config(chat_server, max_retries=1))
        assert len(chat_server.requests) == 2

    def test_client_error_not_retried(self, chat_server, prompt_fixture):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        chat_server.set_script([(400, {}), (200, chat_server.completion("[0]"))])
        with pytest.raises(TransportError, match="400"):
            complete(bundle, self.config(chat_server, max_retries=3))
        assert len(chat_server.requests) == 1

    def test_rate_limit_retried(self, chat_server, prompt_fixture):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        chat_server.set_script([(429, {}), (200, chat_server.completion("[0]"))])
        assert complete(bundle, self.config(chat_server, max_retries=3)) == "[0]"
        assert len(chat_server.requests) == 2

    @pytest.mark.parametrize(
        "retry_after, slept",
        [
            ("0", 0.0),
            ("7", 7.0),
            ("120", 10.0),  # capped at the 10 s timeout
            ("Wed, 21 Oct 2015 07:28:00 GMT", 0.01),  # an HTTP-date falls back to the backoff
            ("1.5", 0.01),  # not a whole number of seconds
            (None, 0.01),
        ],
    )
    def test_retry_after_seconds_replace_backoff(
        self, chat_server, prompt_fixture, monkeypatch, retry_after, slept
    ):
        sleeps = []
        monkeypatch.setattr(agents.time, "sleep", sleeps.append)
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        chat_server.set_script([(429, {}, headers), (503, {}), (200, chat_server.completion("[0]"))])
        assert complete(bundle, self.config(chat_server, max_retries=3, timeout=10.0)) == "[0]"
        assert sleeps == [slept, 0.02]  # the second wait, after a 503 without the header, is the backoff
        assert len(chat_server.requests) == 3

    def test_retry_after_on_client_error_not_retried(self, chat_server, prompt_fixture, monkeypatch):
        sleeps = []
        monkeypatch.setattr(agents.time, "sleep", sleeps.append)
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        chat_server.set_script([(400, {}, {"Retry-After": "1"}), (200, chat_server.completion("[0]"))])
        with pytest.raises(TransportError, match="400"):
            complete(bundle, self.config(chat_server, max_retries=3))
        assert sleeps == [] and len(chat_server.requests) == 1

    def test_unreachable_host_no_retries(self, prompt_fixture):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        config = LlmConfig(endpoint="http://127.0.0.1:9", model="m", max_retries=0, timeout=0.5)
        with pytest.raises(TransportError, match="transport error"):
            complete(bundle, config)

    def test_dropped_connection_retried(self, chat_server, prompt_fixture):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        chat_server.set_script([("drop",)])
        with pytest.raises(TransportError, match="transport error"):
            complete(bundle, self.config(chat_server, max_retries=2))
        assert len(chat_server.requests) == 3

    def test_reply_slower_than_timeout(self, chat_server, prompt_fixture):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        chat_server.set_script([("sleep", 0.5, 200, chat_server.completion("[0]"))])
        with pytest.raises(TransportError, match="transport error"):
            complete(bundle, self.config(chat_server, max_retries=0, timeout=0.1))

    def test_non_json_body_unparseable(self, chat_server, prompt_fixture):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        chat_server.set_script([(200, b"<html>not json</html>")])
        with pytest.raises(TransportError, match="unparseable completion payload"):
            complete(bundle, self.config(chat_server))
        assert len(chat_server.requests) == 1

    def test_body_nested_too_deep_unparseable(self, chat_server, prompt_fixture):
        """A reply nested past the decoder's recursion limit fails the request, not the whole run."""
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        chat_server.set_script([(200, b"[" * 100_000)])
        with pytest.raises(TransportError, match="unparseable completion payload.*RecursionError"):
            complete(bundle, self.config(chat_server))
        assert len(chat_server.requests) == 1

    def test_request_body_bytes(self, chat_server):
        bundle = prompt_of(Item(id="q", title="q"), [Item(id="x", title="Café — 音楽")], AgentKind.DIVERSITY)
        text = bundle.text
        assert "ID:0 title: Café — 音楽\n" in text
        chat_server.set_script([(200, chat_server.completion("[0]"))])
        complete(bundle, self.config(chat_server, temperature=0.5))
        body = {
            "model": "test-model",
            "messages": [{"role": "user", "content": text}],
            "temperature": 0.5,
        }
        request = chat_server.requests[0]
        assert request["raw"] == json.dumps(body, allow_nan=False).encode()
        assert request["body"]["messages"][0]["content"] == text

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_not_followed(self, chat_server, prompt_fixture, status):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        location = {"Location": chat_server.url + "/v2/chat/completions"}
        chat_server.set_script([(status, {}, location), (200, chat_server.completion("[0]"))])
        with pytest.raises(TransportError, match=f"HTTP {status}"):
            complete(bundle, self.config(chat_server))
        assert len(chat_server.requests) == 1

    def test_every_attempt_through_https_proxy_tunnels(self, prompt_fixture, monkeypatch):
        # urllib's proxy handling rewrites the Request it sends; a reused one
        # would go out on later attempts as plain HTTP to the proxy.
        import socket
        import urllib.request

        with socket.socket() as sock:  # a local port nothing listens on: every attempt is refused
            sock.bind(("127.0.0.1", 0))
            proxy_port = sock.getsockname()[1]
        for name in ("NO_PROXY", "no_proxy", "https_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTPS_PROXY", f"http://127.0.0.1:{proxy_port}")
        monkeypatch.setattr(agents, "_opener", None)  # rebuilt from the environment above
        seen = []
        real_open = urllib.request.OpenerDirector.open

        def recording_open(opener, request, *args, **kwargs):
            seen.append((request.type, request._tunnel_host))
            return real_open(opener, request, *args, **kwargs)

        monkeypatch.setattr(urllib.request.OpenerDirector, "open", recording_open)
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        config = LlmConfig(endpoint="https://127.0.0.1:9/v1", model="m", max_retries=2, timeout=0.5)
        with pytest.raises(TransportError, match="transport error"):
            complete(bundle, config)
        assert seen == [("https", None)] * 3

    def test_proxy_of_unknown_scheme_refused(self, prompt_fixture, monkeypatch):
        # urllib reads no socks5 proxy; without its UnknownHandler the request
        # would go out as plain HTTP to the proxy's host and port.
        for name in ("NO_PROXY", "no_proxy", "http_proxy"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", "socks5://127.0.0.1:9")
        monkeypatch.setattr(agents, "_opener", None)  # rebuilt from the environment above
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:1], AgentKind.DIVERSITY)
        config = LlmConfig(endpoint="http://127.0.0.1:9/v1", model="m", max_retries=0, timeout=0.5)
        with pytest.raises(TransportError, match="unknown url type: socks5"):
            complete(bundle, config)

    def test_http_transport_wraps_complete(self, chat_server, prompt_fixture):
        query, candidates = prompt_fixture
        bundle = prompt_of(query, candidates[:2], AgentKind.DIVERSITY)
        chat_server.set_script([(200, chat_server.completion("[1, 0]"))])
        transport = http_transport(self.config(chat_server))
        assert transport(bundle) == "[1, 0]"


def test_llm_config_validation():
    with pytest.raises(ValueError):
        LlmConfig(endpoint="http://x", model="m", max_retries=-1)
    for timeout in (0, 1e10, float("nan")):  # 1e10 s overflows the socket's timeout
        with pytest.raises(ValueError, match="timeout must be positive"):
            LlmConfig(endpoint="http://x", model="m", timeout=timeout)
    for temperature in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            LlmConfig(endpoint="http://x", model="m", temperature=temperature)
    for url in ("localhost:8000/v1", "file:///v1", "ftp://h/v1", "http:///v1", "http://h:80a/v1", "http://[::1/v1",
                "http://h/v 1", "http://h/v\n1", "http://h/v\t1", "http://h/v\x7f1", "http://h/v\u00e91",
                "http://h/v1?key=abc", "http://h/v1?", "http://h/v1#x", "http://h/v1#"):
        with pytest.raises(ValueError, match="endpoint"):
            LlmConfig(endpoint=url, model="m")
