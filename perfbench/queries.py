"""warm-queries and cold-queries: in-process closed loops, one caller.

Requests go through the public analysis entry points with an explicit
cache (``optimal_allocation_curve``, ``max_useful_processors_curve``,
``minimal_problem_size_curve``, ``speedup_ratio_curve``,
``cached_run_sweep``, ``simulate_replicas_cached``); cold sibling groups
go through ``repro.graph.evaluate``.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from common import digest, median, percentile, remove_dir, scratch_dir
from gen import SWEEP_PROCESSORS, ColdStream, Query, warm_order, warm_working_set

# Bound on each cache tier in cold-queries, so the disk store of a long
# run stays small; evictions are part of what that workload measures.
COLD_CACHE_BYTES = 64 << 20
# Every ORACLE_EVERY-th cold request (at a seeded offset) is checked
# against executor="oracle" on ORACLE_POINTS axis points after the loop.
ORACLE_EVERY = 40
ORACLE_POINTS = 24


def prepare(q: Query) -> Query:
    """Resolve names to library objects (outside any timed region)."""
    for member in (q, *q.siblings):
        if member.objects is None:
            member.objects = _objects(member)
    return q


def _objects(q: Query) -> dict[str, Any]:
    from repro.machines.catalog import DEFAULT_MACHINES
    from repro.stencils.library import by_name
    from repro.stencils.perimeter import PartitionKind

    out = dict(q.args)
    for key in ("machine", "machine_a", "machine_b"):
        if key in out:
            out[key] = DEFAULT_MACHINES[out[key]]
    out["stencil"] = by_name(out["stencil"])
    out["kind"] = PartitionKind(out["kind"])
    return out


def call(q: Query, cache: Any) -> Any:
    """One request through the public API; returns the library's result."""
    from repro import batch

    a = q.objects
    if q.siblings:
        from repro.graph import evaluate, nodes

        group = [q, *q.siblings]
        return evaluate([nodes.allocation_curve(
            a["machine"], a["stencil"], a["kind"], m.args["grid_sides"],
            integer=a["integer"]) for m in group], cache=cache)
    if q.family == "alloc":
        return batch.optimal_allocation_curve(
            a["machine"], a["stencil"], a["kind"], a["grid_sides"],
            integer=a["integer"], cache=cache)
    if q.family == "max_useful":
        return batch.max_useful_processors_curve(
            a["machine"], a["stencil"], a["kind"], a["axis"], cache=cache)
    if q.family == "n2_min":
        return batch.minimal_problem_size_curve(
            a["machine"], a["stencil"], a["kind"], a["axis"], cache=cache)
    if q.family == "ratio":
        return batch.speedup_ratio_curve(
            a["machine_a"], a["machine_b"], a["stencil"], a["kind"], a["grid_sides"],
            cache=cache)
    if q.family == "sweep":
        spec = batch.SweepSpec.across_catalog(
            a["grid_sides"], SWEEP_PROCESSORS, machines=list(a["machines"]),
            stencil=a["stencil"], kind=a["kind"])
        return batch.cached_run_sweep(spec, cache=cache)
    if q.family == "sim":
        spec = batch.ReplicaBatchSpec.monte_carlo(
            a["machine"], a["stencil"], a["kind"], a["n"], a["p"], a["replicas"],
            seed=a["seed"], mode=a["mode"], jitter=a["jitter"])
        return batch.simulate_replicas_cached(spec, cache=cache)
    raise ValueError(q.family)


def arrays_of(q: Query, result: Any) -> list[dict[str, np.ndarray]]:
    """The named arrays a result carries (one dict per request in a group)."""
    if q.siblings:
        return list(result)
    if q.family in ("alloc", "sim"):
        return [result.to_arrays()]
    if q.family == "sweep":
        return [dict(result.cycle_times)]
    return [{"value": result}]


def _equal_bits(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype.kind == "U":  # label arrays: width depends on the labels present
        return b.dtype.kind == "U" and a.tolist() == b.tolist()
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --------------------------------------------------------------------------
# Oracle spot checks (cold-queries)
# --------------------------------------------------------------------------


def _oracle_node(q: Query, axis: np.ndarray) -> Any:
    from repro.batch import SweepSpec
    from repro.graph import nodes

    a = _objects(q)
    if q.family == "alloc":
        return nodes.allocation_curve(a["machine"], a["stencil"], a["kind"], axis,
                                      integer=a["integer"])
    if q.family == "max_useful":
        return nodes.max_useful_processors(a["machine"], a["stencil"], a["kind"], axis)
    if q.family == "n2_min":
        return nodes.minimal_problem_size(a["machine"], a["stencil"], a["kind"], axis)
    if q.family == "ratio":
        return nodes.speedup_ratio(a["machine_a"], a["machine_b"], a["stencil"],
                                   a["kind"], axis)
    if q.family == "sweep":
        return nodes.sweep(SweepSpec.across_catalog(
            axis, SWEEP_PROCESSORS, machines=list(a["machines"]),
            stencil=a["stencil"], kind=a["kind"]))
    if q.family == "sim":
        return nodes.sim_sweep(a["machine"], a["stencil"], a["kind"], a["n"], a["p"],
                               [int(s) for s in axis], mode=a["mode"], jitter=a["jitter"])
    raise ValueError(q.family)


def _full_axis(q: Query) -> np.ndarray:
    if q.family == "sim":
        seed = q.args["seed"]
        return np.arange(seed, seed + q.args["replicas"], dtype=np.uint64)
    if q.family in ("max_useful", "n2_min"):
        return q.args["axis"]
    return q.args["grid_sides"]


def sample(q: Query, result: Any, rng: np.random.Generator) -> list[tuple]:
    """A few axis points of each member's result, copied for a later check."""
    out = []
    for member, arrays in zip([q, *q.siblings], arrays_of(q, result)):
        axis = _full_axis(member)
        points = ORACLE_POINTS // 3 if member.family in ("sim", "sweep") else ORACLE_POINTS
        idx = np.sort(rng.choice(axis.size, size=min(points, axis.size), replace=False))
        out.append((member, axis[idx],
                    {name: np.asarray(a)[idx].copy() for name, a in arrays.items()}))
    return out


def oracle_matches(samples: list[tuple]) -> bool:
    """Sampled points bit-equal to the same points under executor="oracle"."""
    from repro.graph import evaluate

    for member, axis, got in samples:
        expected = evaluate([_oracle_node(member, axis)], cache=None, executor="oracle")[0]
        if member.family in ("max_useful", "n2_min"):
            (expected,) = expected.values()  # the curve functions return the array
        if not isinstance(expected, dict):
            expected = {"value": expected}
        if expected.keys() != got.keys() or not all(
                _equal_bits(got[name], np.asarray(want)) for name, want in expected.items()):
            return False
    return True


# --------------------------------------------------------------------------
# The closed loops
# --------------------------------------------------------------------------


def probe_warm(seed: int) -> None:
    """Set-up as a fresh process pays it: import, build the cache, warm it."""
    from repro.batch import SweepCache

    cache = SweepCache()
    for q in warm_working_set(seed):
        call(prepare(q), cache)


def probe_cold(seed: int) -> None:
    from repro.batch import SweepCache

    path = scratch_dir("cold-probe-")
    try:
        SweepCache(path, max_bytes=COLD_CACHE_BYTES)
        ColdStream(seed).next()
    finally:
        remove_dir(path)


class LoopResult:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        #: The request type of each latency (see :func:`best_summary`).
        self.types: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, ok: bool, latency: float | None, error: str | None = None,
            request_type: int = 0) -> None:
        self.attempted += 1
        if latency is not None:
            self.latencies.append(latency)
            self.types.append(request_type)
        if not ok:
            self.failed += 1
            if error and len(self.errors) < 5:
                self.errors.append(error)


def _closed_loop(next_query, cache, seconds, tracer, on_result, out: LoopResult,
                 type_of=lambda tag: tag, min_requests: int = 0) -> None:
    """Request until ``seconds`` have passed and ``min_requests`` were made."""
    # The root span "op" is one whole request.
    request = call if tracer is None else tracer.span("op", call)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or out.attempted < min_requests:
        q, tag = next_query()
        start = time.perf_counter()
        try:
            result = request(q, cache)
        except Exception as exc:  # a failed request counts, the loop goes on
            out.add(False, None, f"{q.family}: {type(exc).__name__}: {exc}")
            continue
        latency = time.perf_counter() - start
        ok = on_result(q, tag, result)
        out.add(ok, latency, None if ok else f"{q.family}: answer differs from warm-up",
                type_of(tag))


def run_warm(seed: int, seconds: float, tracer: Any) -> dict[str, Any]:
    from repro.batch import SweepCache

    working = [prepare(q) for q in warm_working_set(seed)]
    cache = SweepCache()
    expected = [digest(arrays_of(q, call(q, cache))) for q in working]
    order = warm_order(seed, len(working), rounds=2000)
    position = iter(range(len(order)))

    def next_query():
        i = order[next(position) % len(order)]
        return working[i], i

    def check(q, i, result):
        return digest(arrays_of(q, result)) == expected[i]

    out = _measure(next_query, cache, seconds, tracer, check, lambda: 0)
    out["types"] = len(working)
    return out


def run_cold(seed: int, seconds: float, tracer: Any) -> dict[str, Any]:
    from repro.batch import SweepCache

    path = scratch_dir("cold-cache-")
    try:
        cache = SweepCache(path, max_bytes=COLD_CACHE_BYTES)
        stream = ColdStream(seed)
        counter = iter(range(1 << 40))
        rng = np.random.default_rng([seed, 6])
        offset = int(rng.integers(ORACLE_EVERY))
        sampled: list[list[tuple]] = []

        def next_query():
            return prepare(stream.next()), next(counter)

        def keep(q, i, result):
            if i % ORACLE_EVERY == offset:
                sampled.append(sample(q, result, rng))
            return True

        def verify():
            return sum(not oracle_matches(samples) for samples in sampled)

        # A request's type is its place in the design block.
        block = ColdStream.BLOCK
        out = _measure(next_query, cache, seconds, tracer, keep, verify,
                       type_of=lambda i: i % block, min_requests=block)
        out["oracle_checked"] = len(sampled)
        out["types"] = block
        return out
    finally:
        remove_dir(path)


def _measure(next_query, cache, seconds, tracer, on_result, verify,
             **loop: Any) -> dict[str, Any]:
    """Untraced: one loop.  Traced: an untraced half, then a traced half."""
    untraced = LoopResult()
    traced = LoopResult()
    before = after = None
    if tracer is None:
        _closed_loop(next_query, cache, seconds, None, on_result, untraced, **loop)
    else:
        _closed_loop(next_query, cache, seconds / 2, None, on_result, untraced, **loop)
        before = cache.stats_snapshot()
        tracer.start()
        _closed_loop(next_query, cache, seconds / 2, tracer, on_result, traced)
        tracer.enabled = False
        after = cache.stats_snapshot()
    # Checked outside the timed region; a wrong answer is a failed request.
    wrong = verify()
    if wrong:
        untraced.failed += wrong
        untraced.errors.append(f"{wrong} sampled results differ from executor='oracle'")
    return {
        "untraced": untraced,
        "traced": traced,
        "cache_before": before,
        "cache_after": after,
    }


def summarize(loop: LoopResult) -> dict[str, float]:
    lat_ms = [x * 1e3 for x in loop.latencies]
    busy = sum(loop.latencies)
    return {
        "p50_ms": median(lat_ms),
        "p99_ms": percentile(lat_ms, 99.0),
        "rps": len(lat_ms) / busy if busy else 0.0,
        "n": len(lat_ms),
    }


def best_summary(loop: LoopResult, types: int) -> dict[str, float]:
    """Latency figures from each request type's best time in the run.

    Every type recurs through a run (a warm entry on each pass over the
    working set, a cold design cell once per block), and the best of its
    times is its cost with the least interference from other tenants of
    a shared host; only whole passes count.  p50 and p99 are taken over
    the types, and ``rps`` is one pass over every type per sum of bests.
    """
    passes = max(1, min(loop.types.count(t) for t in range(types)))
    best: dict[int, float] = {}
    seen = [0] * types
    for t, latency in zip(loop.types, loop.latencies):
        if seen[t] < passes:
            seen[t] += 1
            best[t] = min(latency, best.get(t, latency))
    lat_ms = [x * 1e3 for x in best.values()]
    return {
        "p50_ms": median(lat_ms),
        "p99_ms": percentile(lat_ms, 99.0),
        "rps": len(lat_ms) / sum(lat_ms) * 1e3 if lat_ms else 0.0,
        "n": len(loop.latencies),
    }
