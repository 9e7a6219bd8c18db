"""The daemon's connection lifecycle: framing, timeouts, drains, flushes.

These tests talk to :class:`SweepServer` over raw sockets where the
client library would hide the behaviour: request bodies the handler
must refuse before reading (malformed, oversized, chunked), requests
read correctly however their bytes arrive (one send, a byte at a time,
pipelined, keep-alive or not), heads the stdlib refuses, the slowloris
read timeout, ``/healthz``'s advertisement, and the graceful shutdown
that drains in-flight requests, 503s new ones, and flushes the cache's
memory tier back to disk.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.batch.cache import SweepCache
from repro.service import ServiceClient, SweepServer
from repro.service.schema import allocation_payload, decode_arrays

SIDES = list(range(64, 256, 16))


def _recv_all(sock: socket.socket, timeout: float = 5.0) -> bytes:
    """Read until the peer closes (or the timeout trips)."""
    sock.settimeout(timeout)
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except (TimeoutError, OSError):
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


def _http(method: str, path: str, body: bytes = b"", headers: str = "") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n{headers}"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body


# --------------------------------------------------------------------------
# Request framing: bodies refused before a byte is read
# --------------------------------------------------------------------------


class TestRequestFraming:
    @pytest.fixture()
    def server(self):
        with SweepServer(port=0, read_timeout_s=2.0) as srv:
            errors: list[object] = []
            real = srv._httpd.handle_error

            def record(request, client_address):
                errors.append(client_address)
                real(request, client_address)

            srv._httpd.handle_error = record
            srv.handler_errors = errors
            yield srv

    @staticmethod
    def _exchange(server: SweepServer, head: str, tail: bytes = b"") -> tuple[int, dict, bytes]:
        """Send one raw request; return (status, JSON body, whole reply)."""
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(head.encode("latin-1") + tail)
            data = _recv_all(sock, timeout=10.0)
        status_line, _, rest = data.partition(b"\r\n")
        _headers, _, body = rest.partition(b"\r\n\r\n")
        return int(status_line.split()[1]), json.loads(body), data

    @pytest.mark.parametrize("length", ["abc", "-5", "1_000", "0x10", "+7", ""])
    def test_malformed_content_length_is_a_400(self, server, length):
        status, body, data = self._exchange(
            server,
            f"POST /v1/compute HTTP/1.1\r\nHost: t\r\nContent-Length: {length}\r\n\r\n",
        )
        assert status == 400
        assert body["status"] == "error"
        assert "Content-Length" in body["error"]
        assert b"Connection: close" in data
        assert server.handler_errors == []

    def test_oversized_body_is_a_413_without_reading_it(self, server):
        status, body, data = self._exchange(
            server,
            "PUT /v1/cache/" + "a" * 64 + " HTTP/1.1\r\nHost: t\r\n"
            "Content-Type: application/octet-stream\r\n"
            "Content-Length: 999999999999\r\n\r\n",
        )
        assert status == 413
        assert "256 MiB" in body["error"]
        assert b"Connection: close" in data
        assert server.handler_errors == []

    @pytest.mark.parametrize("coding", ["chunked", "gzip, chunked", "Chunked"])
    def test_chunked_body_is_a_501(self, server, coding):
        chunked = b'7\r\n{"a":1}\r\n0\r\n\r\n'
        status, body, data = self._exchange(
            server,
            "POST /v1/compute HTTP/1.1\r\nHost: t\r\n"
            f"Transfer-Encoding: {coding}\r\n\r\n",
            chunked,
        )
        assert status == 501
        assert "chunked" in body["error"]
        # Exactly one response: the chunk bytes were never parsed as a
        # second request.
        assert data.count(b"HTTP/1.1 ") == 1
        assert server.handler_errors == []

    def test_header_line_without_a_colon_is_a_400(self, server):
        # The stdlib ends the head at such a line, so the Content-Length
        # after it would be dropped and the body read as a new request.
        body = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        status, reply, data = self._exchange(
            server,
            "POST /v1/compute HTTP/1.1\r\nHost: t\r\nno colon here\r\n"
            f"Content-Length: {len(body)}\r\n\r\n",
            body,
        )
        assert status == 400
        assert "malformed header line" in reply["error"]
        assert data.count(b"HTTP/1.1 ") == 1
        assert server.handler_errors == []

    def test_conflicting_content_lengths_are_a_400(self, server):
        status, body, data = self._exchange(
            server,
            "POST /v1/compute HTTP/1.1\r\nHost: t\r\n"
            "Content-Length: 2\r\nContent-Length: 40\r\n\r\n{}",
        )
        assert status == 400
        assert "conflicting Content-Length" in body["error"]
        assert b"Connection: close" in data
        assert server.handler_errors == []

    def test_repeated_identical_content_length_is_accepted(self, server):
        status, body, _data = self._exchange(
            server,
            "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            "Content-Length: 0\r\nContent-Length: 0\r\n\r\n",
        )
        assert status == 200
        assert body["status"] == "ok"

    def test_refused_requests_leave_the_daemon_serving(self, server):
        self._exchange(
            server, "POST /v1/compute HTTP/1.1\r\nHost: t\r\nContent-Length: x\r\n\r\n"
        )
        curve = ServiceClient(server.url).allocation_curve(
            "paper-bus", "5-point", "square", SIDES
        )
        assert curve.speedup.shape == (len(SIDES),)
        assert server.stats_payload()["counters"]["requests"] == 1
        assert server.handler_errors == []


# --------------------------------------------------------------------------
# Reading requests off the wire: however the bytes arrive
# --------------------------------------------------------------------------


def _read_response(sock: socket.socket) -> tuple[int, dict[str, str], bytes]:
    """Read exactly one ``Content-Length``-framed response off ``sock``.

    Never reads past it — the head byte by byte, the body by its
    declared length — because pipelined responses may already sit in
    the socket buffer; a mis-framed response then breaks the next read.
    """
    sock.settimeout(10.0)
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        chunk = sock.recv(1)
        assert chunk, "server closed the connection mid-response"
        head += chunk
    status_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in lines)
    }
    length = int(headers["content-length"])
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        assert chunk, "server closed the connection mid-body"
        body += chunk
    return int(status_line.split()[1]), headers, body


def _peer_closed(sock: socket.socket, timeout: float = 5.0) -> bool:
    """Whether the server hangs up (True) or keeps the socket open."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except TimeoutError:
        return False


class TestWireReading:
    @pytest.fixture()
    def server(self):
        with SweepServer(port=0, read_timeout_s=5.0) as srv:
            yield srv

    @staticmethod
    def _compute_request() -> tuple[bytes, dict]:
        payload = allocation_payload("paper-bus", "5-point", "square", SIDES)
        body = json.dumps(payload).encode()
        head = (
            "POST /v1/compute HTTP/1.1\r\nHost: t\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        return head + body, payload

    @staticmethod
    def _assert_served_exactly(server: SweepServer, reply: bytes, payload: dict) -> None:
        expected = ServiceClient(server.url, binary=False).compute(payload)
        arrays = decode_arrays(json.loads(reply)["arrays"])
        assert sorted(arrays) == sorted(expected)
        for name in expected:
            assert arrays[name].tobytes() == expected[name].tobytes()

    def test_whole_request_in_one_send(self, server):
        raw, payload = self._compute_request()
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(raw)
            status, _headers, reply = _read_response(sock)
        assert status == 200
        self._assert_served_exactly(server, reply, payload)

    def test_request_dribbled_a_byte_at_a_time(self, server):
        raw, payload = self._compute_request()
        with socket.create_connection((server.host, server.port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for index in range(len(raw)):
                sock.sendall(raw[index : index + 1])
            status, _headers, reply = _read_response(sock)
        assert status == 200
        self._assert_served_exactly(server, reply, payload)

    def test_body_split_across_sends(self, server):
        raw, payload = self._compute_request()
        cut = raw.index(b"\r\n\r\n") + 4 + 10  # the head plus 10 body bytes
        with socket.create_connection((server.host, server.port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(raw[:cut])
            time.sleep(0.2)  # the handler is now blocked mid-body
            sock.sendall(raw[cut:])
            status, _headers, reply = _read_response(sock)
        assert status == 200
        self._assert_served_exactly(server, reply, payload)

    def test_three_pipelined_requests_in_one_buffer_plus_a_tail(self, server):
        health = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
        last = b"GET /v1/stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        with socket.create_connection((server.host, server.port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(health * 3 + last[:9])  # ...and half a fourth head
            for _ in range(3):
                status, _headers, reply = _read_response(sock)
                assert status == 200
                assert json.loads(reply)["status"] == "ok"
            assert not _peer_closed(sock, timeout=0.3)  # waiting for the tail
            sock.sendall(last[9:])
            status, headers, reply = _read_response(sock)
            assert status == 200
            assert "counters" in json.loads(reply)
            assert _peer_closed(sock)

    @pytest.mark.parametrize(
        ("version", "connection", "closes"),
        [
            ("HTTP/1.1", "", False),
            ("HTTP/1.1", "Connection: close\r\n", True),
            ("HTTP/1.0", "", True),
            ("HTTP/1.0", "Connection: keep-alive\r\n", False),
        ],
    )
    def test_connection_close_and_http10_semantics(
        self, server, version, connection, closes
    ):
        request = f"GET /healthz {version}\r\nHost: t\r\n{connection}\r\n".encode()
        with socket.create_connection((server.host, server.port)) as sock:
            sock.sendall(request)
            status, _headers, _reply = _read_response(sock)
            assert status == 200
            assert _peer_closed(sock, timeout=0.5 if not closes else 5.0) is closes
            if not closes:  # the kept-alive socket serves a second request
                sock.sendall(request)
                assert _read_response(sock)[0] == 200


class TestRefusedRequestHeads:
    """Heads the stdlib refuses before the handler runs: answered, closed."""

    @pytest.mark.parametrize(
        ("raw", "status"),
        [
            (b"NONSENSE\r\n\r\n", 400),
            (b"GET /healthz SPDY/3\r\n\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
            (b"BREW /healthz HTTP/1.1\r\nHost: t\r\n\r\n", 501),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431),
            (
                b"GET /healthz HTTP/1.1\r\n"
                + b"".join(b"X-%d: 1\r\n" % i for i in range(150))
                + b"\r\n",
                431,
            ),
        ],
        ids=[
            "no-version",
            "not-http",
            "http2",
            "unknown-method",
            "long-request-line",
            "long-header-line",
            "too-many-headers",
        ],
    )
    def test_bad_head_is_refused_and_the_daemon_keeps_serving(self, raw, status):
        with SweepServer(port=0, read_timeout_s=5.0) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(raw)
                start = time.monotonic()
                data = _recv_all(sock, timeout=10.0)
            assert time.monotonic() - start < 5.0  # refused and closed at once
            assert f"Error code: {status}".encode() in data
            health = ServiceClient(server.url).health()
            assert health["status"] == "ok"
            assert server.stats_payload()["counters"]["requests"] == 0


# --------------------------------------------------------------------------
# Read timeouts (slowloris) and the /healthz advertisement
# --------------------------------------------------------------------------


class TestReadTimeout:
    def test_healthz_advertises_backend_and_timeout(self):
        with SweepServer(port=0, read_timeout_s=12.5) as server:
            health = ServiceClient(server.url).health()
            assert health["backend"] == "thread"
            assert health["read_timeout_s"] == 12.5

    def test_half_a_request_head_then_stall_gets_disconnected(self):
        with SweepServer(port=0, read_timeout_s=0.5) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: stall")  # ...and stop
                start = time.monotonic()
                data = _recv_all(sock, timeout=10.0)
                elapsed = time.monotonic() - start
            # The server hung up on its own — well before the 10 s the
            # reader was willing to wait.
            assert elapsed < 5.0
            assert data == b""

    def test_idle_keepalive_connection_is_reaped(self):
        with SweepServer(port=0, read_timeout_s=0.5) as server:
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
                )
                start = time.monotonic()
                data = _recv_all(sock, timeout=10.0)
                elapsed = time.monotonic() - start
            assert b"200" in data.split(b"\r\n", 1)[0]  # the request was served
            assert elapsed < 5.0  # ...and the idle socket reaped after it


# --------------------------------------------------------------------------
# Graceful shutdown
# --------------------------------------------------------------------------


class TestGracefulShutdown:
    def test_slow_request_racing_shutdown_still_completes(self, monkeypatch):
        server = SweepServer(port=0).start_background()
        try:
            slow_started = threading.Event()
            real = server.compute_with_key

            def slow(payload):
                slow_started.set()
                time.sleep(0.5)
                return real(payload)

            monkeypatch.setattr(server, "compute_with_key", slow)
            client = ServiceClient(server.url)
            result: dict = {}

            def fire():
                result["curve"] = client.allocation_curve(
                    "paper-bus", "5-point", "square", SIDES
                )

            thread = threading.Thread(target=fire)
            thread.start()
            assert slow_started.wait(5.0)
            server.shutdown()  # races the sleeping compute
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            # The in-flight request was drained, not killed: the full,
            # correct response got out before the server exited.
            assert result["curve"].speedup.shape == (len(SIDES),)
        finally:
            server.shutdown()

    def test_draining_server_rejects_new_requests_with_503(self):
        with SweepServer(port=0) as server:
            assert server.drain(timeout_s=1.0) is True  # nothing in flight
            with socket.create_connection((server.host, server.port)) as sock:
                sock.sendall(_http("GET", "/healthz"))
                data = _recv_all(sock)
            head, _, body = data.partition(b"\r\n\r\n")
            assert b"503" in head.split(b"\r\n", 1)[0]
            assert json.loads(body)["error"] == "server is draining"

    def test_drain_times_out_when_a_request_outlasts_it(self):
        core = SweepServer(port=0)
        try:
            assert core.begin_request() is True
            start = time.monotonic()
            assert core.drain(timeout_s=0.2) is False
            assert 0.15 <= time.monotonic() - start < 2.0
            core.end_request()
            assert core.drain(timeout_s=1.0) is True
        finally:
            core.close()

    def test_close_flushes_memory_entries_back_to_disk(self, tmp_path):
        server = SweepServer(port=0, cache_dir=str(tmp_path)).start_background()
        client = ServiceClient(server.url)
        client.allocation_curve("paper-bus", "5-point", "square", SIDES)
        client.close()
        written = list(tmp_path.glob("*.npz"))
        assert written  # store() wrote through at compute time
        for path in written:
            path.unlink()  # simulate a lost disk tier
        server.shutdown()
        assert list(tmp_path.glob("*.npz"))  # close() flushed them back


class TestSweepCacheFlush:
    def test_flush_rewrites_only_missing_disk_entries(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.store("a" * 64, {"x": np.arange(3.0)})
        cache.store("b" * 64, {"y": np.arange(4.0)})
        assert cache.flush() == 0  # store() already wrote through
        (tmp_path / ("a" * 64 + ".npz")).unlink()
        assert cache.flush() == 1
        arrays, level = cache.lookup_level("a" * 64)
        assert level == "memory"
        np.testing.assert_array_equal(arrays["x"], np.arange(3.0))

    def test_memory_only_cache_flushes_nothing(self):
        cache = SweepCache(None)
        cache.store("c" * 64, {"z": np.zeros(2)})
        assert cache.flush() == 0
