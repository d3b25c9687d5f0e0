"""Byte-level fuzzing of the HTTP request parser.

:func:`repro.serve.http.protocol.read_request` is the server's trust
boundary.  Whatever bytes a client sends, in whatever read splits, each
call must answer with a well-formed request, ``None`` at a clean end of
stream, or a :class:`ProtocolError` carrying 400 or 413: never a hang,
never another exception.  Well-formed requests must parse back exactly,
however they are pipelined and split into reads.
"""

import asyncio
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.http.protocol import (
    MAX_HEADER_BYTES,
    HttpRequest,
    ProtocolError,
    read_request,
)

# small limits so the fuzzer reaches them
HEAD_LIMIT = 512
BODY_LIMIT = 256
TIMEOUT_S = 10.0

TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")


def chunked(raw: bytes, cuts: list[int]) -> list[bytes]:
    """``raw`` split at the given offsets: one chunk per read."""
    bounds = [0, *sorted(set(cuts)), len(raw)]
    return [raw[a:b] for a, b in zip(bounds, bounds[1:])]


async def _parse_stream(chunks: list[bytes], head_limit: int) -> list:
    # the reader's buffer limit, past which readuntil gives up, is
    # twice the head limit (the server's: 64 KiB against 32 KiB)
    reader = asyncio.StreamReader(limit=2 * head_limit)

    async def feed() -> None:
        for chunk in chunks:
            reader.feed_data(chunk)
            await asyncio.sleep(0)
        reader.feed_eof()

    feeder = asyncio.ensure_future(feed())
    outcomes: list = []
    try:
        while True:
            try:
                request = await read_request(reader, head_limit, BODY_LIMIT)
            except ProtocolError as exc:
                outcomes.append(exc.status)
                break  # the server answers and closes the connection
            if request is None:
                break
            outcomes.append(request)
    finally:
        await feeder
    return outcomes


def parse_stream(chunks: list[bytes], head_limit: int = HEAD_LIMIT) -> list:
    """Every outcome of reading requests off one connection until it
    ends or errors; a hang fails with ``TimeoutError``."""
    return asyncio.run(
        asyncio.wait_for(_parse_stream(chunks, head_limit), TIMEOUT_S)
    )


def assert_allowed(outcomes: list) -> None:
    """Parsed requests are well-formed; only the last outcome may be an
    error, and only a 400 or a 413."""
    for outcome in outcomes[:-1]:
        assert isinstance(outcome, HttpRequest)
    for outcome in outcomes:
        if not isinstance(outcome, HttpRequest):
            assert outcome in (400, 413)
            continue
        assert TOKEN.fullmatch(outcome.method)
        assert outcome.path or outcome.query
        assert all(TOKEN.fullmatch(name) for name in outcome.headers)
        assert all(
            not set(value) & set("\r\n\x00") for value in outcome.headers.values()
        )
        assert "transfer-encoding" not in outcome.headers
        length = outcome.headers.get("content-length")
        if length is None:
            assert outcome.body == b""
        else:
            assert length.isascii() and length.isdigit()
            assert int(length) == len(outcome.body) <= BODY_LIMIT


# -- well-formed requests -----------------------------------------------------

methods = st.from_regex(r"[A-Za-z]{1,8}", fullmatch=True)
paths = st.from_regex(r"/[A-Za-z0-9._~/-]{0,20}", fullmatch=True)
queries = st.from_regex(r"[a-z0-9=&]{0,10}", fullmatch=True)
header_names = st.from_regex(r"x-[a-z0-9-]{1,10}", fullmatch=True)
header_values = st.from_regex(r"([!-~]([ -~]{0,20}[!-~])?)?", fullmatch=True)


@st.composite
def requests(draw) -> tuple[bytes, dict]:
    """One serialised request and the fields it must parse back to."""
    method = draw(methods)
    path = draw(paths)
    query = draw(queries)
    headers = draw(st.dictionaries(header_names, header_values, max_size=4))
    body = draw(st.binary(max_size=BODY_LIMIT))
    if body or draw(st.booleans()):
        headers["content-length"] = str(len(body))
    target = f"{path}?{query}" if query else path
    head = f"{method} {target} HTTP/1.1\r\n" + "".join(
        f"{name}: {value}\r\n" for name, value in headers.items()
    )
    raw = (head + "\r\n").encode("latin-1") + body
    expected = dict(
        method=method.upper(), path=path, query=query, headers=headers, body=body
    )
    return raw, expected


@settings(max_examples=150, deadline=None)
@given(batch=st.lists(requests(), max_size=4), data=st.data())
def test_pipelined_requests_parse_back_in_any_read_split(batch, data):
    raw = b"".join(request for request, _ in batch)
    cuts = data.draw(st.lists(st.integers(0, len(raw)), max_size=12))
    outcomes = parse_stream(chunked(raw, cuts))
    assert [vars(outcome) for outcome in outcomes] == [
        expected for _, expected in batch
    ]


# -- arbitrary and mutated bytes ----------------------------------------------

# fragments that sit on the parser's decision points
FRAGMENTS = [
    b"\r", b"\n", b"\r\n", b"\r\n\r\n", b" ", b"\t", b":", b"\x00", b"\x7f",
    b"\xff", b"0", b"9", b"+", b"-", b"_", b"?", b"HTTP/1.1", b"HTTP/2",
    b"Content-Length: 5\r\n", b"Content-Length: 99999\r\n",
    b"content-length:3\r\n", b"Transfer-Encoding: chunked\r\n",
    b"Connection: close\r\n",
]


@st.composite
def mutated(draw) -> bytes:
    """Well-formed requests with a few splices, cuts and overwrites."""
    raw = bytearray(b"".join(r for r, _ in draw(st.lists(requests(), max_size=3))))
    for _ in range(draw(st.integers(0, 6))):
        at = draw(st.integers(0, len(raw)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            raw[at:at] = draw(st.sampled_from(FRAGMENTS) | st.binary(max_size=8))
        elif edit == "delete":
            del raw[at : at + draw(st.integers(1, 8))]
        else:
            raw[at : at + 1] = draw(st.binary(min_size=1, max_size=1))
    return bytes(raw)


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=600) | mutated(), data=st.data())
def test_any_bytes_parse_or_answer_400_or_413(raw, data):
    cuts = data.draw(st.lists(st.integers(0, len(raw)), max_size=12))
    assert_allowed(parse_stream(chunked(raw, cuts)))


# -- the limits and the framing headers ---------------------------------------


@settings(max_examples=40, deadline=None)
@given(extra=st.integers(1, 2 * HEAD_LIMIT), data=st.data())
def test_oversized_head_answers_413(extra, data):
    # past HEAD_LIMIT after the head ends, or past the reader's buffer
    # before it does: both are 413
    raw = b"GET / HTTP/1.1\r\nx-pad: " + b"a" * (HEAD_LIMIT + extra) + b"\r\n\r\n"
    cuts = data.draw(st.lists(st.integers(0, len(raw)), max_size=8))
    assert parse_stream(chunked(raw, cuts)) == [413]


@pytest.mark.parametrize(
    "length, status",
    [
        (str(BODY_LIMIT + 1), 413),
        ("9" * 30, 413),
        ("0" * 5000 + "4", 200),  # leading zeros are still a number
        ("1" * 5000, 413),  # beyond int()'s digit limit
        ("+4", 400),
        ("-4", 400),
        ("4_0", 400),
        ("4.0", 400),
        ("0x4", 400),
        ("", 400),
        ("٤", 400),  # a non-ASCII digit (Arabic-Indic four)
    ],
    ids=[
        "over-limit", "30-digits", "zero-padded", "5000-digits", "plus",
        "minus", "underscore", "decimal", "hex", "empty", "non-ascii",
    ],
)
def test_content_length_must_be_plain_digits(length, status):
    raw = f"POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\nabcd".encode(
        "utf-8"
    )
    outcomes = parse_stream([raw], MAX_HEADER_BYTES)
    if status == 200:
        assert len(outcomes) == 1 and outcomes[0].body == b"abcd"
    else:
        assert outcomes == [status]


@pytest.mark.parametrize(
    "headers",
    [
        "Content-Length: 4\r\nContent-Length: 2\r\n",
        "Content-Length: 4\r\ncontent-length: 4\r\n",
        "Connection: close\r\nConnection: keep-alive\r\n",
    ],
    ids=["length-differs", "length-same", "connection"],
)
def test_repeated_header_answers_400(headers):
    raw = f"POST / HTTP/1.1\r\n{headers}\r\nabcd".encode("latin-1")
    assert parse_stream([raw]) == [400]


@pytest.mark.parametrize(
    "head",
    [
        "GET  HTTP/1.1",  # empty target
        " / HTTP/1.1",  # empty method
        "G(T / HTTP/1.1",  # method not a token
        "GET /\x01 HTTP/1.1",  # control byte in the target
        "GET / HTTP/1.1x",
        "GET / HTTP/1.1\r\n: empty-name",
        "GET / HTTP/1.1\r\nx foo: space in the name",
        "GET / HTTP/1.1\r\nx-foo : space before the colon",
        "GET / HTTP/1.1\r\n folded: obs-fold line",
        "GET / HTTP/1.1\r\nx-foo: bare\nnewline",
        "GET / HTTP/1.1\r\nx-foo: bare\rcarriage return",
        "GET / HTTP/1.1\r\nx-foo: nul\x00byte",
        "\r\nGET / HTTP/1.1",
    ],
    ids=[
        "empty-target", "empty-method", "method-not-token", "target-control",
        "bad-version", "empty-name", "space-in-name", "space-before-colon",
        "obs-fold", "bare-lf", "bare-cr", "nul", "leading-crlf",
    ],
)
def test_malformed_head_answers_400(head):
    assert parse_stream([f"{head}\r\n\r\n".encode("latin-1")]) == [400]


@settings(max_examples=60, deadline=None)
@given(body=st.binary(min_size=1, max_size=64), claim=st.integers(0, 128))
def test_lying_content_length(body, claim):
    # a short claim leaves the rest of the body to be read as the next
    # request; a long one runs into the end of the stream: a 400 then
    raw = f"POST / HTTP/1.1\r\nContent-Length: {claim}\r\n\r\n".encode() + body
    outcomes = parse_stream([raw])
    assert_allowed(outcomes)
    if claim > len(body):
        assert outcomes == [400]
    else:
        assert outcomes[0].body == body[:claim]
        # the rest of the body, if any, is read as what follows
        assert len(outcomes) == 1 if claim == len(body) else len(outcomes) >= 2
