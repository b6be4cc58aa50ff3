"""The service plane's edges: deadlines, mutated requests, malformed
payloads and out-of-range integers.

Every request a client can send ends in one of two ways: a well-formed
HTTP status line with a structured JSON ``{"error": ...}`` body, or a
clean close. Never a 500 from the parser, never a connection held past
the whole-request deadline. The HTTP half talks to a bare
:class:`~repro.service.http.HttpServer` over raw sockets (the test
harness is outside protolint PL001's scope); the route half drives a
live :class:`~repro.service.app.ReproService`.
"""

import base64
import json
import re
import socket
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.protocol import wire
from repro.protocol.client import RoundConfig
from repro.protocol.messages import BlindedReport
from repro.service.app import ReproService
from repro.service.client import (
    OperatorClient,
    RemoteClient,
    ServiceAPIError,
    ServiceHTTP,
)
from repro.service.http import HttpServer, Request, Response

MAX_BODY = 4096
FUZZ_TIMEOUT = 2.0
STATUS_LINE = re.compile(rb"HTTP/1\.1 (\d{3}) [A-Za-z ]+")


def echo_handler(request: Request) -> Response:
    return Response.json({
        "method": request.method,
        "path": request.path,
        "query": request.query,
        "body": request.json(),
    })


@pytest.fixture(scope="module")
def fuzz_server():
    srv = HttpServer(echo_handler, max_body=MAX_BODY, timeout=FUZZ_TIMEOUT)
    yield srv.start()
    srv.stop()


@pytest.fixture()
def deadline_server():
    srv = HttpServer(echo_handler, max_body=MAX_BODY, timeout=0.5)
    yield srv.start()
    srv.stop()


def parse_responses(raw: bytes):
    """Split one connection's bytes into ``(status, json body)`` pairs,
    asserting each response is well-formed."""
    responses = []
    while raw:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        assert sep, f"response head never ends: {raw[:80]!r}"
        status_line, *header_lines = head.split(b"\r\n")
        match = STATUS_LINE.fullmatch(status_line)
        assert match, f"malformed status line {status_line!r}"
        headers = dict(line.split(b": ", 1) for line in header_lines)
        length = int(headers[b"content-length"])
        body, raw = rest[:length], rest[length:]
        assert len(body) == length, "response body truncated"
        responses.append((int(match.group(1)), json.loads(body)))
    return responses


def read_until_close(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# The whole-request deadline
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_trickling_peer_is_cut_off(self, deadline_server):
        """One byte every 0.1 s beats any per-read timeout of 0.5 s;
        only a deadline on the whole request closes the connection."""
        trickle = iter(b"GET / HTTP/1.1\r\nx-pad: " + b"a" * 100)
        with socket.create_connection(deadline_server, timeout=5) as sock:
            sock.settimeout(0.1)
            started = time.monotonic()
            while time.monotonic() - started < 5:
                try:
                    sock.sendall(bytes([next(trickle)]))
                    if not sock.recv(4096):
                        break
                except TimeoutError:
                    continue
                except (ConnectionResetError, BrokenPipeError):
                    break
            elapsed = time.monotonic() - started
        assert 0.4 <= elapsed < 2.0

    def test_idle_keep_alive_connection_is_closed(self, deadline_server):
        """The deadline starts while the server waits for a request
        line, so a served connection left idle is closed too."""
        with socket.create_connection(deadline_server, timeout=5) as sock:
            sock.sendall(b"GET /first HTTP/1.1\r\n\r\n")
            started = time.monotonic()
            raw = read_until_close(sock)
            elapsed = time.monotonic() - started
        ((status, body),) = parse_responses(raw)
        assert (status, body["path"]) == (200, "/first")
        assert elapsed < 2.0


# ---------------------------------------------------------------------------
# Counters shared by connection threads
# ---------------------------------------------------------------------------


def read_one_response(sock: socket.socket):
    """Read exactly one response off a keep-alive connection."""
    raw = b""
    while b"\r\n\r\n" not in raw:
        chunk = sock.recv(4096)
        assert chunk, "connection closed before the response head ended"
        raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    length = int(re.search(rb"content-length: (\d+)", head).group(1))
    while len(body) < length:
        chunk = sock.recv(4096)
        assert chunk, "connection closed mid-body"
        body += chunk
    (response,) = parse_responses(head + b"\r\n\r\n" + body)
    return response


def test_concurrent_connections_lose_no_counter_update():
    """Connection threads share the envelope counters; with more
    clients than cores and a tiny switch interval, none is lost."""
    srv = HttpServer(echo_handler)
    host, port = srv.start()
    clients, per_client = 8, 25
    request = b"GET /count HTTP/1.1\r\n\r\n"

    def hammer():
        with socket.create_connection((host, port), timeout=10) as sock:
            for _ in range(per_client):
                sock.sendall(request)
                assert read_one_response(sock)[0] == 200

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        srv.stop()
    assert srv.requests_served == clients * per_client
    assert srv.bytes_in == clients * per_client * len(request)


# ---------------------------------------------------------------------------
# Mutated valid requests
# ---------------------------------------------------------------------------

VALID_REQUESTS = [
    b"GET /ping?a=1&b=x HTTP/1.1\r\nhost: localhost\r\naccept: */*\r\n\r\n",
    b"POST /echo HTTP/1.1\r\nhost: localhost\r\n"
    b"content-type: application/json\r\ncontent-length: 9\r\n\r\n"
    b'{"k": 1}\n',
]


@st.composite
def mutated_requests(draw):
    data = bytearray(draw(st.sampled_from(VALID_REQUESTS)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        mutation = draw(st.sampled_from(
            ["flip", "truncate", "length", "duplicate"]))
        if mutation == "flip" and data:
            index = draw(st.integers(min_value=0, max_value=len(data) - 1))
            data[index] ^= draw(st.integers(min_value=1, max_value=255))
        elif mutation == "truncate":
            data = data[:draw(st.integers(min_value=0,
                                          max_value=len(data)))]
        elif mutation == "length":
            declared = draw(st.sampled_from(
                [MAX_BODY - 1, MAX_BODY + 1, 2 ** 31, 10 ** 30]))
            end = data.find(b"\r\n") + 2
            data[end:end] = b"content-length: %d\r\n" % declared
        else:
            lines = bytes(data).split(b"\r\n")
            if len(lines) > 2:
                index = draw(st.integers(min_value=1,
                                         max_value=len(lines) - 2))
                lines.insert(index, lines[index])
            data = bytearray(b"\r\n".join(lines))
    return bytes(data)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(payload=mutated_requests())
def test_mutated_requests_get_a_structured_answer_or_a_clean_close(
        fuzz_server, payload):
    with socket.create_connection(fuzz_server,
                                  timeout=FUZZ_TIMEOUT + 2) as sock:
        started = time.monotonic()
        try:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
        except (ConnectionResetError, BrokenPipeError):
            pass  # refused mid-send; what was answered is still checked
        raw = read_until_close(sock)
        elapsed = time.monotonic() - started
    assert elapsed < FUZZ_TIMEOUT + 1.0
    for status, body in parse_responses(raw):
        assert status != 500, body
        if status >= 400:
            assert isinstance(body.get("error"), str), body


# ---------------------------------------------------------------------------
# Route-level validation on a live service
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def service():
    config = RoundConfig(cms_depth=3, cms_width=64, cms_seed=7, id_space=512)
    with ReproService(config, seed=11) as svc:
        yield svc


@pytest.fixture(scope="module")
def edge_member(service):
    """A client token of its own, for the client-only routes."""
    member = RemoteClient(*service.address, "edge")
    member.enroll()
    return member


def post_status(http, path, payload):
    """The HTTP status a POST gets (200 when it succeeds)."""
    try:
        http.post(path, payload)
    except ServiceAPIError as exc:
        return exc.status
    return 200


class TestRoutes:
    def test_truncated_reports_are_refused_with_a_4xx(self, service):
        """Every cut of a report's payload, with the header's length
        fixed up, is a client error, never a 500."""
        host, port = service.address
        members = [RemoteClient(host, port, uid) for uid in ("u0", "u1")]
        for member in members:
            member.enroll()
        operator = OperatorClient(host, port, service.operator_token)
        operator.advance_epoch()
        round_id = operator.open_round()
        data = wire.encode(BlindedReport("u0", round_id, cells=(1, 2, 3)))
        statuses = []
        for cut in range(16, len(data)):
            header = bytearray(data[:16])
            header[8:12] = (cut - 16).to_bytes(4, "big")
            payload = base64.b64encode(bytes(header) + data[16:cut])
            statuses.append(post_status(
                members[0].http, f"/v1/rounds/{round_id}/messages",
                {"payload": payload.decode()}))
        assert all(400 <= s < 500 for s in statuses), statuses

    @pytest.mark.parametrize("who, path, payload", [
        ("operator", "/v1/epoch", {"leaves": "u0"}),
        ("operator", "/v1/epoch", {"leaves": [1]}),
        ("anyone", "/v1/enroll", {"user_id": 5}),
        ("client", "/v1/rounds/{rid}/messages", {"payload": 5}),
        ("client", "/v1/rounds/{rid}/messages", {"payload": "!!"}),
    ], ids=["leaves-not-a-list", "leaves-not-strings", "user-id-not-a-string",
            "payload-not-a-string", "payload-not-base64"])
    def test_malformed_bodies_are_400(self, service, edge_member, who, path,
                                      payload):
        host, port = service.address
        http = {"operator": ServiceHTTP(host, port, service.operator_token),
                "client": edge_member.http,
                "anyone": ServiceHTTP(host, port)}[who]
        path = path.format(rid=service.state.open_round or 0)
        assert post_status(http, path, payload) == 400

    @pytest.mark.parametrize("path", [
        "/v1/rounds/{n}/summary",
        "/v1/snapshots/{n}",
        "/v1/history/rounds?epoch={n}",
        "/v1/history/flagged?since_week={n}",
    ], ids=["round-id", "week", "epoch", "since-week"])
    def test_out_of_range_integers_are_400(self, service, path):
        """Past SQLite's signed 64 bits is the client's error, not an
        OverflowError."""
        http = ServiceHTTP(*service.address, service.operator_token)
        with pytest.raises(ServiceAPIError) as exc:
            http.get(path.format(n=2 ** 70))
        assert exc.value.status == 400
