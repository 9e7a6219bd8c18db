"""Metric names, units, and the per-layer report of a traced run.

Per-layer times and counts are per operation: one reproduction on
``reproduce``, one request on the query and served workloads.  A
``<layer>_s`` figure is the layer's inclusive time; ``self.<group>_s``
is a group's *self* time (its spans minus the child spans they cover),
and ``share.<group>`` that self time over the end-to-end time, its
Amdahl serial fraction: speeding up every other group can save at most
``1 - share``.
Metrics of layers a workload does not reach read 0.
"""

from __future__ import annotations

from typing import Any

from common import percentile

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

SHARE_GROUPS = ("experiments", "solver", "stencils", "core", "build", "cache", "graph",
                "analysis", "kernel", "sim", "client", "server", "queue", "unattributed")

# Each group notes the end-to-end metric it should move, and on which
# workload; elsewhere the prediction is no change.
PER_LAYER = (
    # Experiments, solver, stencils, scalar core searches: latency_p50_ms
    # (reproduce_s) on reproduce, and nothing elsewhere.
    ("experiments.E-SOLVE_s", "s/op"), ("experiments.E-FIG7_s", "s/op"),
    ("experiments.E-SIMVAL_s", "s/op"), ("experiments.rest_s", "s/op"),
    ("solver.solve_s", "s/op"), ("solver.sweeps", "count/op"),
    ("stencils.apply_calls", "count/op"), ("stencils.apply_s", "s/op"),
    ("core.search_s", "s/op"), ("core.cycle_time_calls", "count/op"),
    # Identity and the cache: latency_p50_ms on warm-queries, barely on
    # cold-queries; store time moves throughput_per_s on cold-queries.
    ("cache.fingerprint_calls", "count/op"), ("cache.fingerprint_s", "s/op"),
    ("cache.lookup_s", "s/op"), ("cache.store_s", "s/op"),
    ("cache.hits", "count/op"), ("cache.misses", "count/op"),
    ("cache.hit_ratio", "ratio"), ("cache.evictions", "count/op"),
    # Request building and planning: latency_p50_ms on warm-queries; fusion
    # (siblings_fused, evaluations) moves throughput_per_s on cold-queries.
    ("batch.spec_s", "s/op"), ("graph.build_s", "s/op"), ("graph.plan_s", "s/op"),
    ("graph.execute_s", "s/op"), ("graph.nodes_planned", "count/op"),
    ("graph.evaluations", "count/op"), ("graph.siblings_fused", "count/op"),
    ("graph.subgraphs_deduped", "count/op"),
    # Result conversion: latency_p50_ms on warm-queries, more at large axes.
    ("analysis.convert_s", "s/op"),
    # Kernels (output bytes computed from array sizes, not measured
    # traffic): throughput_per_s and latency_p99_ms on cold-queries; ~0 on
    # warm-queries.
    ("kernel.s", "s/op"), ("kernel.points", "points/op"), ("kernel.bytes_out", "B/op"),
    ("sim.replicas", "count/op"), ("sim.s", "s/op"),
    # Client: latency_p50_ms on served.
    ("client.encode_s", "s/op"), ("client.roundtrip_s", "s/op"),
    ("client.decode_s", "s/op"), ("client.retries", "count/op"),
    ("client.failures", "count/op"),
    # Server (handle_s is self time, batch-window sleep included) and the
    # generator: latency_p99_ms and throughput_per_s on served.
    ("server.handle_s", "s/op"), ("server.compute_s", "s/op"),
    ("server.hits", "count/op"), ("server.computed", "count/op"),
    ("server.coalesced", "count/op"), ("server.batched", "count/op"),
    ("server.dedup_ratio", "ratio"),
    ("served.generator_lag_ms", "ms"),
    *((f"self.{g}_s", "s/op") for g in SHARE_GROUPS),
    *((f"share.{g}", "ratio") for g in SHARE_GROUPS),
    ("trace.coverage", "ratio"), ("trace.overhead", "ratio"), ("trace.op_s", "s/op"),
)

# Span name -> share group.  The root span's self time is what no layer
# accounts for.
_GROUP = {
    "solver.solve": "solver", "stencils.apply": "stencils", "core.search": "core",
    "graph.build": "build", "batch.spec": "build",
    "cache.fingerprint": "cache", "cache.lookup": "cache", "cache.store": "cache",
    "graph.plan": "graph", "graph.execute": "graph", "analysis.convert": "analysis",
    "kernel": "kernel", "sim": "sim", "client.compute": "client",
    "client.roundtrip": "client", "client.decode": "client", "server.handle": "server",
    "op": "unattributed",
}


def _group(span: str) -> str:
    return "experiments" if span.startswith("experiments.") else _GROUP[span]


def _total(spans: dict, name: str) -> float:
    return spans.get(name, [0, 0.0, 0.0])[1]


def _self(spans: dict, name: str) -> float:
    return spans.get(name, [0, 0.0, 0.0])[2]


def _cache_delta(before: dict, after: dict) -> dict[str, float]:
    def runs(stats: dict) -> int:
        return sum(stats["executor_runs"].values())

    return {
        "hits": (after["memory_hits"] + after["disk_hits"])
        - (before["memory_hits"] + before["disk_hits"]),
        "misses": after["misses"] - before["misses"],
        "evictions": (after["memory_evictions"] + after["disk_evictions"])
        - (before["memory_evictions"] + before["disk_evictions"]),
        "nodes_planned": after["nodes_planned"] - before["nodes_planned"],
        "siblings_fused": after["siblings_fused"] - before["siblings_fused"],
        "subgraphs_deduped": after["subgraphs_deduped"] - before["subgraphs_deduped"],
        "evaluations": runs(after) - runs(before),
    }


def per_layer(trace: dict[str, Any], *, overhead: float,
              cache_before: dict | None = None, cache_after: dict | None = None,
              server: dict | None = None, lag_ms: list[float] | None = None,
              failures: int = 0) -> dict[str, float]:
    """Every per-layer metric from one traced pass.

    ``trace`` is this process's tracer snapshot.  On ``served`` the
    daemon's snapshot and ``/v1/stats`` before and after arrive in
    ``server``; server-side layers are read from there, client-side
    layers from ``trace``, and ``lag_ms`` is each request's send delay.
    """
    spans, counts = trace["spans"], trace["counts"]
    ops = spans.get("op", [0, 0.0, 0.0])[0] or 1
    lag_s = sum(lag_ms or []) / 1e3
    e2e = _total(spans, "op") + lag_s
    m: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}

    named = ("E-SOLVE", "E-FIG7", "E-SIMVAL")
    for name in named:
        m[f"experiments.{name}_s"] = _total(spans, f"experiments.{name}") / ops
    m["experiments.rest_s"] = sum(
        rec[1] for name, rec in spans.items()
        if name.startswith("experiments.") and name[12:] not in named) / ops
    m["solver.solve_s"] = _total(spans, "solver.solve") / ops
    m["solver.sweeps"] = counts.get("solver.sweeps", 0) / ops
    m["stencils.apply_calls"] = spans.get("stencils.apply", [0])[0] / ops
    m["stencils.apply_s"] = _total(spans, "stencils.apply") / ops
    m["core.search_s"] = _total(spans, "core.search") / ops
    m["core.cycle_time_calls"] = counts.get("core.cycle_time_calls", 0) / ops
    m["client.encode_s"] = _self(spans, "client.compute") / ops
    m["client.roundtrip_s"] = _total(spans, "client.roundtrip") / ops
    m["client.decode_s"] = _total(spans, "client.decode") / ops
    m["client.retries"] = counts.get("client.retries", 0) / ops
    m["client.failures"] = failures / ops

    # The layers below run in this process, or in the daemon on served.
    side = server["trace"] if server is not None else trace
    sspans, scounts = side["spans"], side["counts"]
    m["cache.fingerprint_calls"] = sspans.get("cache.fingerprint", [0])[0] / ops
    for metric, span in (("cache.fingerprint_s", "cache.fingerprint"),
                         ("cache.lookup_s", "cache.lookup"), ("cache.store_s", "cache.store"),
                         ("batch.spec_s", "batch.spec"), ("graph.build_s", "graph.build"),
                         ("graph.plan_s", "graph.plan"), ("graph.execute_s", "graph.execute"),
                         ("analysis.convert_s", "analysis.convert"), ("kernel.s", "kernel"),
                         ("sim.s", "sim")):
        m[metric] = _total(sspans, span) / ops
    for metric in ("kernel.points", "kernel.bytes_out", "sim.replicas"):
        m[metric] = scounts.get(metric, 0) / ops
    if server is not None:
        cache_before = server["stats_before"]["cache"]
        cache_after = server["stats_after"]["cache"]
        before = server["stats_before"]["counters"]
        after = server["stats_after"]["counters"]
        delta = {k: after[k] - before[k] for k in after}
        for key in ("hits", "computed", "coalesced", "batched"):
            m[f"server.{key}"] = delta[key] / ops
        if delta["requests"]:
            m["server.dedup_ratio"] = (
                delta["hits"] + delta["coalesced"] + delta["batched"]) / delta["requests"]
        m["server.handle_s"] = _self(sspans, "server.handle") / ops
        m["server.compute_s"] = _total(sspans, "kernel") / ops
        m["served.generator_lag_ms"] = percentile(lag_ms or [0.0], 99.0)
    if cache_before is not None and cache_after is not None:
        delta = _cache_delta(cache_before, cache_after)
        for key in ("hits", "misses", "evictions"):
            m[f"cache.{key}"] = delta[key] / ops
        probes = delta["hits"] + delta["misses"]
        m["cache.hit_ratio"] = delta["hits"] / probes if probes else 0.0
        for key in ("nodes_planned", "siblings_fused", "subgraphs_deduped", "evaluations"):
            m[f"graph.{key}"] = delta[key] / ops

    # Amdahl shares: self time per group over end-to-end time.
    shares = {g: 0.0 for g in SHARE_GROUPS}
    for name, rec in spans.items():
        shares[_group(name)] += rec[2]
    if server is not None:
        for name, rec in sspans.items():
            shares[_group(name)] += rec[2]
        # The client's wire time contains the daemon's handling time.
        shares["client"] -= _total(sspans, "server.handle")
        shares["queue"] = lag_s
    for g in SHARE_GROUPS:
        m[f"self.{g}_s"] = shares[g] / ops
        m[f"share.{g}"] = shares[g] / e2e if e2e else 0.0
    m["trace.coverage"] = 1.0 - m["share.unattributed"]
    m["trace.overhead"] = overhead
    m["trace.op_s"] = e2e / ops
    return m
