"""HTTP/1.1 pipelining through ``ServiceClient.compute_many``.

Pipelining is only worth having if it is invisible except in the
timing: the results must be bit-identical to sequential ``compute()``
calls, in request order, whatever the client-side depth.  These
tests pin that, plus the failure surface — a rejected request raises
naming its index without poisoning the connection, and a stale pooled
socket replays the whole batch invisibly (``/v1/compute`` is pure).
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.service import ServiceClient, ServiceError, SweepServer
from repro.service.schema import allocation_payload

SIDES = list(range(64, 256, 16))


def _payloads(count: int) -> list[dict]:
    """``count`` distinguishable requests: each has a different curve length."""
    return [
        allocation_payload("paper-bus", "5-point", "square", SIDES[: 2 + index % 10])
        for index in range(count)
    ]


def _assert_same_arrays(ours: dict, theirs: dict) -> None:
    assert sorted(ours) == sorted(theirs)
    for name in ours:
        assert ours[name].tobytes() == theirs[name].tobytes()


@pytest.fixture()
def server():
    with SweepServer(port=0) as srv:
        yield srv


# The pipelined path negotiates the response encoding per request like
# the sequential one, so every test runs under both of the client's
# wire formats: the binary frame and the ``binary=False`` base64-JSON.
@pytest.fixture(params=[True, False], ids=["frame", "json"])
def binary(request):
    return request.param


class TestPipelinedResults:
    def test_depth_one_is_the_sequential_path(self, server, binary):
        client = ServiceClient(server.url, binary=binary)
        payloads = _payloads(3)
        results = client.compute_many(payloads, pipeline=1)
        expected = [client.compute(p) for p in payloads]
        for ours, theirs in zip(results, expected):
            _assert_same_arrays(ours, theirs)

    def test_pipelined_results_are_bit_identical_to_sequential(self, server, binary):
        client = ServiceClient(server.url, pipeline=8, binary=binary)
        payloads = _payloads(12)
        pipelined = client.compute_many(payloads)
        sequential = [client.compute(p) for p in payloads]
        for ours, theirs in zip(pipelined, sequential):
            _assert_same_arrays(ours, theirs)

    def test_responses_come_back_in_request_order(self, server, binary):
        # Each payload has a distinct curve length, so a reordered
        # response stream cannot masquerade as correct.
        client = ServiceClient(server.url, binary=binary)
        payloads = _payloads(10)
        results = client.compute_many(payloads, pipeline=10)
        for payload, arrays in zip(payloads, results):
            assert arrays["speedup"].shape == (len(payload["grid_sides"]),)

    def test_negotiated_protocol_is_used_on_the_pipelined_path(self, server, binary):
        client = ServiceClient(server.url, binary=binary)
        client.compute_many(_payloads(4), pipeline=4)
        assert client.last_protocol == ("frame" if binary else "json")


class TestDepthVersusServerCap:
    def test_client_depth_beyond_server_max_pipeline_still_drains(self, binary):
        # A 32-deep client burst against a server that reads one
        # request at a time: the backlog queues in the socket buffers
        # and must drain in order, not deadlock or drop requests.
        with SweepServer(port=0) as srv:
            client = ServiceClient(srv.url, binary=binary)
            payloads = _payloads(32)
            results = client.compute_many(payloads, pipeline=32)
            assert len(results) == 32
            for payload, arrays in zip(payloads, results):
                assert arrays["speedup"].shape == (len(payload["grid_sides"]),)


class TestPipelineFailures:
    def test_rejected_request_names_its_index(self, server, binary):
        payloads = _payloads(5)
        payloads[2] = {"kind": "allocation_curve", "machine": "no-such-machine"}
        client = ServiceClient(server.url, binary=binary)
        with pytest.raises(ServiceError, match="pipelined request 2 of 5"):
            client.compute_many(payloads, pipeline=5)
        # A 400 is an application answer, not a transport failure: the
        # keep-alive connection survives and the client keeps working.
        assert client.health()["status"] == "ok"
        good = _payloads(3)
        assert len(client.compute_many(good, pipeline=3)) == 3

    def test_stale_pooled_socket_replays_the_whole_batch(self, server, binary):
        client = ServiceClient(server.url, retries=0, binary=binary)
        client.compute_many(_payloads(2), pipeline=2)  # park a pooled socket
        with client._pool._lock:
            (idle,) = client._pool._idle
        assert idle.sock is not None
        idle.sock.shutdown(socket.SHUT_RDWR)  # the server "timed it out"
        payloads = _payloads(4)
        results = client.compute_many(payloads, pipeline=4)  # replays, 0 retries
        sequential = [client.compute(p) for p in payloads]
        for ours, theirs in zip(results, sequential):
            _assert_same_arrays(ours, theirs)

    def test_empty_batch_is_a_no_op(self, server, binary):
        assert ServiceClient(server.url, binary=binary).compute_many([]) == []


class TestWarmHitsStayWarm:
    def test_pipelined_repeats_hit_the_cache(self, server, binary):
        client = ServiceClient(server.url, binary=binary)
        payload = allocation_payload("paper-bus", "5-point", "square", SIDES)
        client.compute(payload)  # seed
        before = client.stats()["counters"]["hits"]
        results = client.compute_many([payload] * 16, pipeline=16)
        after = client.stats()["counters"]["hits"]
        assert after - before == 16
        reference = client.compute(payload)
        for arrays in results:
            _assert_same_arrays(arrays, reference)
