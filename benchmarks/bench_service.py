"""BENCH-SERVICE: the sweep daemon — latency, pipelining, throughput, dedup.

Four measurements against one ``SweepServer``, recorded to
``results/BENCH_service.json`` so the serving layer's behavior is
tracked across PRs:

* **server vs direct latency** — a warm allocation-curve request
  through ``repro serve`` versus the same request answered by the
  in-process cache.  The client negotiates the zero-copy binary frame
  over a pooled keep-alive connection; the base64-JSON path is also
  timed.  **Gate:** the warm hit's wire overhead (server minus direct)
  must be at most ``MAX_WIRE_OVERHEAD_RATIO`` times the direct cost —
  the protocol may not dominate the compute.
* **pipelined throughput** — warm hits issued through
  ``compute_many(pipeline=16)`` versus the same count sequentially
  over one keep-alive connection.  **Gate:** ``pipelined_rps`` must be
  at least ``MIN_PIPELINE_SPEEDUP`` times the sequential rate —
  pipelining has to buy real round trips.
* **sustained throughput** — N concurrent keep-alive clients hammer
  warm requests for a fixed count (reported, not gated — CI boxes
  vary).
* **dedup under concurrency** — 8 concurrent clients each issue the
  same cold request 4 times; coalescing plus the shared cache must
  answer at least 90% of the 32 requests without recomputing (gate).

Run as a script (CI's smoke bench) or under pytest:

    PYTHONPATH=src python benchmarks/bench_service.py
    pytest benchmarks/bench_service.py -s
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.batch import SweepCache, optimal_allocation_curve
from repro.machines.catalog import PAPER_BUS
from repro.report.csvio import default_results_dir
from repro.service import ServiceClient, SweepServer
from repro.service.schema import allocation_payload
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

SIDES = list(range(64, 2064, 4))  # 500-point axis: a realistic curve request
CLIENTS = 8
ROUNDS = 4
THROUGHPUT_CLIENTS = 8
THROUGHPUT_REQUESTS = 100  # per client, warm, over keep-alive connections
PIPELINE_DEPTH = 16
PIPELINE_REQUESTS = 256  # warm hits per timing arm

#: The acceptance bar: fraction of concurrent identical requests that
#: must be answered by the cache or by coalescing onto the one compute.
MIN_DEDUP_RATIO = 0.90

#: The wire-tax bar: a warm hit's protocol overhead (server latency
#: minus direct latency) must stay within this multiple of the direct
#: cost.  Before the persistent-connection binary path it was ~4x.
MAX_WIRE_OVERHEAD_RATIO = 2.0

#: Pipelined warm hits must beat one-at-a-time keep-alive requests by
#: at least this factor.
MIN_PIPELINE_SPEEDUP = 1.5


def _median_seconds(fn, repeats: int = 15) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def bench_latency(server) -> dict:
    """Median warm-request latency: daemon round trip vs direct cache.

    The daemon is timed twice — once over the negotiated binary frame
    (the default client) and once forced onto the base64-JSON path
    — so the frame's win is itself a tracked number.
    """
    client = ServiceClient(server.url)
    json_client = ServiceClient(server.url, binary=False)
    kind = PartitionKind.SQUARE

    direct_cache = SweepCache()
    direct = optimal_allocation_curve(
        PAPER_BUS, FIVE_POINT, kind, SIDES, integer=True, cache=direct_cache
    )
    served = client.allocation_curve("paper-bus", "5-point", "square", SIDES, integer=True)
    np.testing.assert_array_equal(served.speedup, direct.speedup)
    protocol = client.last_protocol

    server_s = _median_seconds(
        lambda: client.allocation_curve(
            "paper-bus", "5-point", "square", SIDES, integer=True
        )
    )
    json_s = _median_seconds(
        lambda: json_client.allocation_curve(
            "paper-bus", "5-point", "square", SIDES, integer=True
        )
    )
    direct_s = _median_seconds(
        lambda: optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, kind, SIDES, integer=True, cache=direct_cache
        )
    )
    return {
        "points": len(SIDES),
        "protocol": protocol,
        "warm_server_seconds": server_s,
        "warm_server_json_seconds": json_s,
        "warm_direct_seconds": direct_s,
        "wire_overhead_seconds": server_s - direct_s,
        "wire_overhead_ratio": (server_s - direct_s) / direct_s,
        "warm_ratio": server_s / direct_s,
        "last_served": client.last_served,
    }


def bench_pipelining(server) -> dict:
    """Warm hits: ``compute_many(pipeline=16)`` vs sequential keep-alive."""
    axis = list(range(80, 1080, 4))  # distinct from the latency axis
    payload = allocation_payload("paper-bus", "5-point", "strip", axis, integer=True)
    client = ServiceClient(server.url)
    client.compute(payload)  # warm the entry; every timed request is a hit

    batch = [payload] * PIPELINE_REQUESTS

    start = time.perf_counter()
    for item in batch:
        client.compute(item)
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    results = client.compute_many(batch, pipeline=PIPELINE_DEPTH)
    pipelined_s = time.perf_counter() - start
    assert len(results) == PIPELINE_REQUESTS

    sequential_rps = PIPELINE_REQUESTS / sequential_s
    pipelined_rps = PIPELINE_REQUESTS / pipelined_s
    return {
        "requests": PIPELINE_REQUESTS,
        "pipeline_depth": PIPELINE_DEPTH,
        "sequential_seconds": sequential_s,
        "pipelined_seconds": pipelined_s,
        "sequential_rps": sequential_rps,
        "pipelined_rps": pipelined_rps,
        "speedup": pipelined_rps / sequential_rps,
    }


def bench_throughput(server) -> dict:
    """Sustained warm req/s under concurrent keep-alive clients."""
    axis = list(range(48, 1048, 4))  # distinct from the latency axis
    ServiceClient(server.url).allocation_curve(
        "paper-bus", "5-point", "strip", axis, integer=True
    )  # warm the entry once

    barrier = threading.Barrier(THROUGHPUT_CLIENTS + 1)

    def hammer() -> None:
        client = ServiceClient(server.url)
        barrier.wait()
        for _ in range(THROUGHPUT_REQUESTS):
            client.allocation_curve("paper-bus", "5-point", "strip", axis, integer=True)

    threads = [threading.Thread(target=hammer) for _ in range(THROUGHPUT_CLIENTS)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    total = THROUGHPUT_CLIENTS * THROUGHPUT_REQUESTS
    return {
        "clients": THROUGHPUT_CLIENTS,
        "requests_per_client": THROUGHPUT_REQUESTS,
        "requests": total,
        "elapsed_seconds": elapsed,
        "requests_per_second": total / elapsed,
    }


def bench_dedup(server) -> dict:
    """Concurrent identical cold requests: how many avoided a compute?"""
    before = server.stats_payload()
    axis = list(range(100, 1400, 3))  # distinct from the latency axis: cold

    def fire() -> None:
        client = ServiceClient(server.url)
        for _ in range(ROUNDS):
            client.allocation_curve(
                "paper-bus", "9-point-box", "strip", axis, integer=True
            )

    threads = [threading.Thread(target=fire) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    after = server.stats_payload()

    requests = after["counters"]["requests"] - before["counters"]["requests"]
    computed = after["counters"]["computed"] - before["counters"]["computed"]
    coalesced = after["counters"]["coalesced"] - before["counters"]["coalesced"]
    # Compute-path hits only — the same numerator /v1/stats reports, so
    # the gated ratio matches what an operator sees.
    hits = after["counters"]["hits"] - before["counters"]["hits"]
    deduplicated = hits + coalesced
    return {
        "clients": CLIENTS,
        "rounds": ROUNDS,
        "requests": requests,
        "computed": computed,
        "coalesced": coalesced,
        "cache_hits": hits,
        "dedup_ratio": deduplicated / requests if requests else 0.0,
        "elapsed_seconds": elapsed,
    }


def run_bench(output_path: Path | None = None) -> dict:
    with SweepServer(port=0) as server:
        latency = bench_latency(server)
        pipelining = bench_pipelining(server)
        throughput = bench_throughput(server)
        dedup = bench_dedup(server)
    payload = {
        "bench": "service",
        "latency": latency,
        "pipelining": pipelining,
        "throughput": throughput,
        "dedup": dedup,
        "min_dedup_ratio": MIN_DEDUP_RATIO,
        "max_wire_overhead_ratio": MAX_WIRE_OVERHEAD_RATIO,
        "min_pipeline_speedup": MIN_PIPELINE_SPEEDUP,
    }
    path = output_path or (default_results_dir() / "BENCH_service.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    payload["path"] = str(path)
    return payload


def _check_gates(payload: dict) -> list[str]:
    """Every failed gate as a human-readable line (empty means PASS)."""
    failures = []
    latency = payload["latency"]
    if latency["last_served"] != "memory":
        failures.append("warm request was not a memory hit")
    if latency["protocol"] != "frame":
        failures.append("client fell back off the binary frame")
    if latency["wire_overhead_ratio"] > MAX_WIRE_OVERHEAD_RATIO:
        failures.append(
            f"wire overhead {latency['wire_overhead_ratio']:.2f}x "
            f"direct exceeds {MAX_WIRE_OVERHEAD_RATIO}x"
        )
    pipe = payload["pipelining"]
    if pipe["speedup"] < MIN_PIPELINE_SPEEDUP:
        failures.append(
            f"pipelined speedup {pipe['speedup']:.2f}x "
            f"below {MIN_PIPELINE_SPEEDUP}x sequential"
        )
    if payload["dedup"]["dedup_ratio"] < MIN_DEDUP_RATIO:
        failures.append(
            f"dedup ratio {payload['dedup']['dedup_ratio']:.3f} "
            f"below {MIN_DEDUP_RATIO}"
        )
    if payload["throughput"]["requests_per_second"] <= 0:
        failures.append("throughput bench recorded zero req/s")
    return failures


def test_bench_service(results_dir):
    payload = run_bench(results_dir / "BENCH_service.json")
    print()
    print(json.dumps(payload, indent=2))
    failures = _check_gates(payload)
    assert not failures, "\n".join(failures)


if __name__ == "__main__":
    report = run_bench()
    json.dump(report, sys.stdout, indent=2)
    print()
    failures = _check_gates(report)
    latency = report["latency"]
    pipe = report["pipelining"]
    print(
        f"warm {latency['warm_server_seconds'] * 1e3:.2f} ms "
        f"({latency['protocol']}) vs direct "
        f"{latency['warm_direct_seconds'] * 1e3:.2f} ms "
        f"(wire {latency['wire_overhead_ratio']:.2f}x); "
        f"pipelined {pipe['pipelined_rps']:.0f} req/s vs sequential "
        f"{pipe['sequential_rps']:.0f} req/s ({pipe['speedup']:.2f}x)"
    )
    print(
        f"dedup ratio {report['dedup']['dedup_ratio']:.3f}; "
        f"{report['throughput']['requests_per_second']:.0f} req/s sustained"
    )
    for line in failures:
        print(f"FAIL: {line}")
    print("PASS" if not failures else f"{len(failures)} gate(s) failed")
    sys.exit(0 if not failures else 1)
