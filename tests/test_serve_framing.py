"""HTTP/1.1 framing of ``bind_http`` over a real socket.

A toy app on the shared ``dispatch`` pipeline answers ``/echo``, so the
bytes on the wire depend only on the framing: keep-alive, pipelining,
``Connection: close``, HTTP/1.0, ``Expect: 100-continue``, the statuses
of malformed requests, and whole answers pinned byte for byte except
the ``Date`` value. Each answer is two writes (head, then body) with
Nagle's algorithm left on.

The last two classes pin fixes: header names are case-insensitive for
the routes of a real ``ServeApp``, and a bad ``Content-Length`` is
answered with 400 instead of a dropped connection. ``_http_date`` must
format what ``email.utils.formatdate`` does, without importing it.
"""

import email.utils
import json
import re
import socket
import socketserver
import sys
import threading
import time

import pytest

from repro.experiments import build_model
from repro.serve import ServeApp, bind_http, export_bundle, load_bundle
from repro.serve.http import Response, Route, _http_date, dispatch, route_table
from repro.telemetry import MetricRegistry, Tracer

SERVER = "BaseHTTP/0.6 Python/" + sys.version.split()[0]
DATE = re.compile(rb"\r\nDate: ([^\r]*)\r\n")


class Echo:
    """``GET /echo`` returns its query, ``POST /echo`` its JSON body."""

    def __init__(self):
        self.routes = route_table(
            Route("GET", "/echo", lambda r: Response(200, {"q": r.arg("q")})),
            Route("POST", "/echo", lambda r: Response(200, r.payload)),
            Route("GET", "/busy", lambda r: Response(429, {"error": "busy"},
                                                     {"Retry-After": "3"})),
        )
        self.tracer = Tracer(sample_rate=0.0, seed=0)
        self.registry = MetricRegistry()

    def handle(self, method, path, body, headers=None):
        return dispatch(
            self.routes, method, path, body, headers,
            tracer=self.tracer, span="http", slo=None, registry=self.registry,
            retry_after=lambda error, scope: {},
        )


def _serve(app):
    server = bind_http(app, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


@pytest.fixture()
def echo():
    server, thread = _serve(Echo())
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


class Conn:
    """One raw client connection that reads whole answers."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.reader = self.sock.makefile("rb")

    def send(self, raw: bytes) -> None:
        self.sock.sendall(raw)

    def answer(self) -> bytes:
        """One whole answer: status line, headers and ``Content-Length`` body."""
        head = b""
        while not head.endswith(b"\r\n\r\n"):
            line = self.reader.readline()
            assert line, f"connection closed mid-answer after {head!r}"
            head += line
        length = re.search(rb"\r\nContent-Length: (\d+)\r\n", head)
        return head + (self.reader.read(int(length.group(1))) if length else b"")

    def closed(self) -> bool:
        """True when the server has closed its end (EOF within the timeout).

        A server that closes with request bytes still unread resets the
        connection; that is a close too.
        """
        try:
            return self.reader.read(1) == b""
        except ConnectionResetError:
            return True

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _status(answer: bytes) -> int:
    return int(answer.split(b" ", 2)[1])


def _body(answer: bytes) -> dict:
    return json.loads(answer.split(b"\r\n\r\n", 1)[1])


def get(path: str, *headers: str, version: str = "HTTP/1.1") -> bytes:
    lines = [f"GET {path} {version}", "Host: t", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def post(path: str, body: bytes, *headers: str, version: str = "HTTP/1.1") -> bytes:
    lines = [f"POST {path} {version}", "Host: t", f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _pinned(status_line: str, body: bytes, *extra: str) -> bytes:
    head = [status_line, f"Server: {SERVER}", "Date: <date>",
            "Content-Type: application/json", f"Content-Length: {len(body)}", *extra]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def _undated(answer: bytes) -> bytes:
    date = DATE.search(answer)
    assert date is not None, answer
    # The Date value parses as an RFC 9110 date within a minute of now.
    when = email.utils.parsedate_to_datetime(date.group(1).decode())
    assert abs(when.timestamp() - time.time()) < 60
    return DATE.sub(b"\r\nDate: <date>\r\n", answer, count=1)


class TestConnections:
    def test_keep_alive_answers_several_requests(self, echo):
        conn = Conn(echo)
        try:
            for i in range(3):
                conn.send(get(f"/echo?q={i}"))
                assert _body(conn.answer()) == {"q": str(i)}
            conn.send(post("/echo", b'{"n": 3}'))
            assert _body(conn.answer()) == {"n": 3}
        finally:
            conn.close()

    def test_32_pipelined_requests_answer_in_order(self, echo):
        conn = Conn(echo)
        try:
            requests = [post("/echo", json.dumps({"n": i}).encode()) if i % 2
                        else get(f"/echo?q={i}") for i in range(32)]
            conn.send(b"".join(requests))
            bodies = [_body(conn.answer()) for _ in requests]
            assert bodies == [{"n": i} if i % 2 else {"q": str(i)} for i in range(32)]
        finally:
            conn.close()

    def test_connection_close_is_honoured(self, echo):
        conn = Conn(echo)
        try:
            conn.send(get("/echo?q=a", "Connection: close"))
            answer = conn.answer()
            assert _status(answer) == 200 and b"Connection" not in answer
            assert conn.closed()
        finally:
            conn.close()

    def test_http_10_closes_unless_kept_alive(self, echo):
        conn = Conn(echo)
        try:
            conn.send(get("/echo?q=a", version="HTTP/1.0"))
            answer = conn.answer()
            assert answer.startswith(b"HTTP/1.1 200 OK\r\n")
            assert conn.closed()
        finally:
            conn.close()
        conn = Conn(echo)
        try:
            for q in "ab":
                conn.send(get(f"/echo?q={q}", "Connection: keep-alive", version="HTTP/1.0"))
                assert _body(conn.answer()) == {"q": q}
        finally:
            conn.close()

    def test_expect_100_continue(self, echo):
        conn = Conn(echo)
        try:
            body = b'{"n": 1}'
            request = post("/echo", body, "Expect: 100-continue")
            conn.send(request[: -len(body)])
            assert conn.reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert conn.reader.readline() == b"\r\n"
            conn.send(body)
            assert _body(conn.answer()) == {"n": 1}
        finally:
            conn.close()


#: (request, status): malformed requests are answered, then the connection closes.
MALFORMED = [
    pytest.param(b"GET / extra HTTP/1.1\r\n\r\n", 400, id="four-words"),
    pytest.param(b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 414, id="long-request-line"),
    pytest.param(get("/echo", "X-Long: " + "a" * 70000), 431, id="long-header-line"),
    pytest.param(get("/echo", *[f"X-H{i}: v" for i in range(101)]), 431, id="101-headers"),
    pytest.param(b"DELETE /echo HTTP/1.1\r\nHost: t\r\n\r\n", 501, id="delete"),
    pytest.param(b"HEAD /echo HTTP/1.1\r\nHost: t\r\n\r\n", 501, id="head"),
]


class TestMalformed:
    @pytest.mark.parametrize("raw,status", MALFORMED)
    def test_status_then_close(self, echo, raw, status):
        conn = Conn(echo)
        try:
            conn.send(raw)
            head = b""
            while not head.endswith(b"\r\n\r\n"):
                head += conn.reader.readline()
            assert _status(head) == status
            assert b"\r\nConnection: close\r\n" in head
            if raw.startswith(b"HEAD"):
                assert conn.closed()  # a HEAD answer carries no body
        finally:
            conn.close()

    @pytest.mark.parametrize("raw,status", [
        (b"GARBAGE\r\n\r\n", 400),
        (b"GET / HTTP/1.x\r\n\r\n", 400),
        (b"GET / HTTP/2.0\r\n\r\n", 505),
    ])
    def test_unversioned_refusals_still_carry_a_status_line(self, echo, raw, status):
        # Not an HTTP/0.9 body-only page: every answer has a status line.
        conn = Conn(echo)
        try:
            conn.send(raw)
            answer = conn.answer()
            assert _status(answer) == status and "error" in _body(answer)
            assert conn.closed()
        finally:
            conn.close()

    def test_headers_under_the_limit_are_accepted(self, echo):
        conn = Conn(echo)
        try:
            conn.send(get("/echo?q=a", *[f"X-H{i}: v" for i in range(98)]))
            assert _body(conn.answer()) == {"q": "a"}
        finally:
            conn.close()


class TestPinnedBytes:
    def test_200_400_404_and_route_headers(self, echo):
        conn = Conn(echo)
        try:
            conn.send(get("/echo?q=x"))
            assert _undated(conn.answer()) == _pinned("HTTP/1.1 200 OK", b'{"q": "x"}')
            conn.send(post("/echo", b"[1]"))
            assert _undated(conn.answer()) == _pinned(
                "HTTP/1.1 400 Bad Request", b'{"error": "request body must be a JSON object"}')
            conn.send(get("/nowhere"))
            assert _undated(conn.answer()) == _pinned(
                "HTTP/1.1 404 Not Found", b'{"error": "no route GET /nowhere"}')
            conn.send(get("/busy"))
            assert _undated(conn.answer()) == _pinned(
                "HTTP/1.1 429 Too Many Requests", b'{"error": "busy"}', "Retry-After: 3")
        finally:
            conn.close()

    def test_head_and_body_are_two_writes_with_nagle_on(self, monkeypatch):
        writes = []
        write = socketserver._SocketWriter.write

        def counting(self, data):
            writes.append(bytes(data))
            return write(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", counting)
        server, thread = _serve(Echo())
        try:
            assert server.RequestHandlerClass.disable_nagle_algorithm is False
            conn = Conn(server.server_address[:2])
            try:
                conn.send(get("/echo?q=x"))
                answer = conn.answer()
            finally:
                conn.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)
        assert len(writes) == 2 and writes[1] == b'{"q": "x"}'
        assert b"".join(writes) == answer


def test_date_matches_rfc_9110_in_any_locale():
    # Fixed English names; email.utils formats the same value.
    for timestamp in (0, 784111777, 951782400, 1700000000.9, 4102444799):
        assert _http_date(timestamp) == email.utils.formatdate(timestamp, usegmt=True)


# ----------------------------------------------------------------------
# Fixes over a real ServeApp
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served(tiny_ctx, tmp_path_factory):
    base = str(tmp_path_factory.mktemp("framing") / "bundle")
    export_bundle(build_model("FC-LSTM", tiny_ctx), "FC-LSTM", tiny_ctx, base)
    app = ServeApp(load_bundle(base), registry=MetricRegistry())
    server, thread = _serve(app)
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)


def _one(address, raw: bytes) -> bytes:
    conn = Conn(address)
    try:
        conn.send(raw)
        return conn.answer()
    finally:
        conn.close()


class TestHeaderNamesAnyCase:
    @pytest.mark.parametrize("name", ["X-Tenant", "x-tenant", "X-TENANT"])
    def test_unknown_tenant_is_404(self, served, name):
        answer = _one(served, get("/healthz", f"{name}: nosuch"))
        assert _status(answer) == 404 and "nosuch" in _body(answer)["error"]

    @pytest.mark.parametrize("name", ["Accept", "accept"])
    def test_metrics_honour_accept(self, served, name):
        answer = _one(served, get("/metrics", f"{name}: application/json"))
        assert b"\r\nContent-Type: application/json\r\n" in answer
        assert "counters" in _body(answer)


class TestBadContentLength:
    @pytest.mark.parametrize("value", ["abc", "-5", "1.5", ""])
    def test_answered_400_then_closed(self, served, value):
        conn = Conn(served)
        try:
            conn.send(f"POST /observe HTTP/1.1\r\nHost: t\r\nContent-Length: {value}"
                      "\r\n\r\n{}".encode())
            answer = conn.answer()
            assert _status(answer) == 400 and "Content-Length" in _body(answer)["error"]
            assert b"\r\nConnection: close\r\n" in answer
            assert conn.closed()
        finally:
            conn.close()
