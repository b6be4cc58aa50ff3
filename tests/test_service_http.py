"""The HTTP layer: reader discipline, dispatch, lifecycle.

The server promises the frames-layer rules applied to HTTP: every
length validated before allocation, truncation an error instead of a
hang, handler failures answered as structured errors. These tests talk
to a live threaded server with ``http.client`` (and drop to a raw
socket only to send deliberately malformed requests — the test harness
is outside protolint PL001's scope by design).
"""

import http.client
import json
import socket

import pytest

from repro.service.client import ServiceAPIError, ServiceHTTP
from repro.service.http import (
    MAX_HEADER_BLOCK,
    MAX_REQUEST_LINE,
    HttpError,
    HttpServer,
    Request,
    Response,
)


def echo_handler(request: Request) -> Response:
    if request.path == "/boom":
        raise RuntimeError("handler exploded")
    if request.path == "/teapot":
        raise HttpError(418, "short and stout")
    if request.path == "/reply":
        # The reply body the query names, as is: what a client makes of
        # answers the service's own serializer would never write.
        return Response(body={
            "garbage": b"not json{",
            "deep": b"[" * 5000,
            "list": b"[1, 2]",
        }[request.query["body"]])
    return Response.json({
        "method": request.method,
        "path": request.path,
        "query": request.query,
        "body": request.json(),
    })


@pytest.fixture()
def server():
    srv = HttpServer(echo_handler, max_body=4096, timeout=5.0)
    host, port = srv.start()
    yield srv, host, port
    srv.stop()


def _request(host, port, method="GET", path="/", body=None, headers=None):
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def _raw(host, port, payload: bytes) -> bytes:
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


class TestDispatch:
    def test_round_trips_json_and_query(self, server):
        _, host, port = server
        status, body = _request(host, port, "POST", "/echo?a=1&b=x",
                                body=json.dumps({"k": "v"}),
                                headers={"content-type": "application/json"})
        assert status == 200
        assert body["method"] == "POST"
        assert body["path"] == "/echo"
        assert body["query"] == {"a": "1", "b": "x"}
        assert body["body"] == {"k": "v"}

    def test_http_error_becomes_structured_response(self, server):
        _, host, port = server
        status, body = _request(host, port, path="/teapot")
        assert status == 418
        assert body["error"] == "short and stout"

    def test_handler_crash_becomes_500_not_a_hang(self, server):
        _, host, port = server
        status, body = _request(host, port, path="/boom")
        assert status == 500
        assert "handler exploded" in body["error"]

    def test_bad_json_body_is_400(self, server):
        _, host, port = server
        status, body = _request(host, port, "POST", "/echo",
                                body=b"not json{")
        assert status == 400
        assert "not valid JSON" in body["error"]

    def test_json_body_that_is_not_an_object_is_400(self, server):
        _, host, port = server
        status, body = _request(host, port, "POST", "/echo", body=b"[1, 2]")
        assert status == 400
        assert "must be a JSON object" in body["error"]

    @pytest.mark.parametrize("body", [b"[" * 4000, b'{"":' * 1000],
                             ids=["arrays", "objects"])
    def test_deeply_nested_json_body_is_400_not_500(self, server, body):
        """Nesting past the parser's depth is the client's malformed
        body, not a server fault."""
        _, host, port = server
        status, answer = _request(host, port, "POST", "/echo", body=body)
        assert status == 400
        assert "not valid JSON" in answer["error"]

    def test_non_utf8_body_is_400(self, server):
        _, host, port = server
        status, body = _request(host, port, "POST", "/echo",
                                body=b'{"k": "\xff\xfe"}')
        assert status == 400
        assert "not valid JSON" in body["error"]

    @pytest.mark.parametrize("reply,message", [
        ("garbage", "unparseable response body"),
        ("deep", "unparseable response body"),
        ("list", "expected a JSON object"),
    ], ids=["garbage", "deep", "list"])
    def test_client_refuses_replies_that_are_not_json_objects(
            self, server, reply, message):
        _, host, port = server
        with pytest.raises(ServiceAPIError, match=message) as excinfo:
            ServiceHTTP(host, port).get(f"/reply?body={reply}")
        assert excinfo.value.status == 200

    def test_envelope_telemetry_counts(self, server):
        srv, host, port = server
        before_in, before_out = srv.bytes_in, srv.bytes_out
        _request(host, port, path="/")
        assert srv.bytes_in > before_in
        assert srv.bytes_out > before_out
        assert srv.requests_served >= 1


class TestReaderDiscipline:
    def test_declared_oversize_body_refused_before_buffering(self, server):
        """The frames.py rule: the Content-Length is rejected up front,
        no matter how large — the body is never allocated."""
        _, host, port = server
        declared = 50 * 1024 * 1024 * 1024  # 50 GiB, never sent
        raw = _raw(host, port,
                   f"POST / HTTP/1.1\r\ncontent-length: {declared}"
                   f"\r\n\r\n".encode())
        assert b"413" in raw.split(b"\r\n", 1)[0]

    def test_request_line_cap(self, server):
        _, host, port = server
        raw = _raw(host, port,
                   b"GET /" + b"x" * (MAX_REQUEST_LINE + 10)
                   + b" HTTP/1.1\r\n\r\n")
        assert b"431" in raw.split(b"\r\n", 1)[0]

    def test_chunked_encoding_refused(self, server):
        _, host, port = server
        raw = _raw(host, port,
                   b"POST / HTTP/1.1\r\ntransfer-encoding: chunked"
                   b"\r\n\r\n0\r\n\r\n")
        assert b"501" in raw.split(b"\r\n", 1)[0]

    def test_truncated_body_errors_instead_of_hanging(self, server):
        _, host, port = server
        raw = _raw(host, port,
                   b"POST / HTTP/1.1\r\ncontent-length: 100\r\n\r\nshort")
        assert b"400" in raw.split(b"\r\n", 1)[0]

    def test_negative_content_length_is_400(self, server):
        _, host, port = server
        raw = _raw(host, port,
                   b"GET / HTTP/1.1\r\ncontent-length: -5\r\n\r\n")
        assert b"400" in raw.split(b"\r\n", 1)[0]

    def test_header_line_without_a_colon_is_400(self, server):
        _, host, port = server
        raw = _raw(host, port, b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"malformed header line" in raw

    def test_non_numeric_content_length_is_400(self, server):
        _, host, port = server
        raw = _raw(host, port,
                   b"GET / HTTP/1.1\r\ncontent-length: ten\r\n\r\n")
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"bad content-length" in raw

    def test_header_block_cap(self, server):
        """Many short header lines, each under the per-line cap, still
        add up to a refused block."""
        _, host, port = server
        line = b"x-pad: " + b"y" * 1000 + b"\r\n"
        count = MAX_HEADER_BLOCK // len(line) + 2
        raw = _raw(host, port, b"GET / HTTP/1.1\r\n" + line * count
                   + b"\r\n")
        assert b"431" in raw.split(b"\r\n", 1)[0]
        assert b"header block exceeds" in raw

    def test_malformed_request_target_is_400(self, server):
        _, host, port = server
        raw = _raw(host, port, b"GET http://[::1/ HTTP/1.1\r\n\r\n")
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"malformed request target" in raw

    def test_malformed_request_line_is_400(self, server):
        _, host, port = server
        raw = _raw(host, port, b"NONSENSE\r\n\r\n")
        assert b"400" in raw.split(b"\r\n", 1)[0]


class TestLifecycle:
    def test_keep_alive_serves_sequential_requests(self, server):
        _, host, port = server
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            for i in range(3):
                conn.request("GET", f"/ping{i}")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["path"] == f"/ping{i}"
        finally:
            conn.close()

    def test_double_start_refused(self, server):
        srv, _, _ = server
        with pytest.raises(HttpError, match="already started"):
            srv.start()

    def test_stop_is_idempotent(self):
        srv = HttpServer(echo_handler)
        srv.start()
        srv.stop()
        srv.stop()

    def test_bind_failure_propagates(self, server):
        _, _, port = server
        clash = HttpServer(echo_handler, port=port)
        with pytest.raises(HttpError, match="failed to bind"):
            clash.start()
