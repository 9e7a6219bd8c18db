"""served: the daemon in its own process, driven in an open loop.

``python -m repro serve --port 0 --cache-dir <tmp>`` with default
settings; one :class:`~repro.service.ServiceClient` with two pooled
connections, used by two sender threads.  Requests are due at a fixed
offered rate whether or not earlier ones have finished; latency runs
from the due time, so a stall is charged to every request it delays.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from pathlib import Path
from typing import Any

import numpy as np

from common import (SETUP_REPS, Daemon, KeepAwake, digest, median, percentile, remove_dir,
                    scratch_dir)
from gen import SERVED_WINDOW, served_schedule, served_warm_set

SENDERS = 2
# The fixed offered rate for latency, and the rate ladder for capacity.
FIXED_RPS = 150.0
LADDER_RPS = tuple(round(300 * 1.2 ** k) for k in range(14))  # 300 .. 3207
# Latency limit on p99 (from the due time) for a rate to count as served.
P99_LIMIT_MS = 100.0
# Share of the run spent at the fixed rate; the ladder gets the rest, split
# as if LADDER_RUNGS_BUDGETED rungs run (it stops after two failing rungs).
FIXED_SHARE = 0.5
LADDER_RUNGS_BUDGETED = 9
MIN_RUNG_REQUESTS = 400


def offline(payload: dict[str, Any]) -> dict[str, np.ndarray]:
    """The same request computed in this process through ``repro.graph``."""
    from repro.batch import SweepSpec
    from repro.graph import evaluate, nodes
    from repro.machines.catalog import DEFAULT_MACHINES
    from repro.stencils.library import by_name
    from repro.stencils.perimeter import PartitionKind

    stencil = by_name(payload["stencil"])
    kind = PartitionKind(payload["partition"])
    if payload["kind"] == "allocation_curve":
        node = nodes.allocation_curve(
            DEFAULT_MACHINES[payload["machine"]], stencil, kind, payload["grid_sides"],
            payload["t_flop"], payload["max_processors"], payload["integer"])
    elif payload["kind"] == "sim_sweep":
        first = payload["seed"]
        node = nodes.sim_sweep(
            DEFAULT_MACHINES[payload["machine"]], stencil, kind, payload["n"],
            payload["n_processors"], list(range(first, first + payload["replicas"])),
            payload["t_flop"], payload["mode"], payload["jitter"])
    elif payload["kind"] == "sweep":
        node = nodes.sweep(SweepSpec.across_catalog(
            payload["grid_sides"], payload["processors"], machines=payload["machines"],
            stencil=stencil, kind=kind, t_flop=payload["t_flop"]))
    else:
        raise ValueError(payload["kind"])
    return dict(evaluate([node], cache=None)[0])


class Phase:
    """One open-loop phase at a fixed offered rate."""

    def __init__(self, rate: float, count: int) -> None:
        self.rate = rate
        self.count = count
        self.latency_ms: list[float] = []
        #: Schedule index of each entry of ``latency_ms``.
        self.index: list[int] = []
        #: (schedule index, ms from due time to send) per request.
        self.lag_by_index: list[tuple[int, float]] = []
        self.failed = 0
        self.attempted = 0
        self.new: list[tuple[dict[str, Any], bytes]] = []

    @property
    def lag_ms(self) -> list[float]:
        return [ms for _, ms in self.lag_by_index]

    @property
    def p99_ms(self) -> float:
        """p99 of the better half of the rung: one stall of a shared host
        does not fail it, while a growing backlog still does (:meth:`keeps_up`)."""
        if self.failed:
            return math.inf
        return best_window(self, -(-self.count // 2))["p99_ms"]

    def keeps_up(self) -> bool:
        """No growing backlog: the last tenth was not sent later than the limit."""
        tail = [lag for i, lag in self.lag_by_index if i >= 0.9 * self.count]
        return median(tail) <= P99_LIMIT_MS


def drive(client: Any, schedule: list[tuple[float, Any]], warm: list[dict[str, Any]],
          warm_digests: list[bytes], rate: float, tracer: Any = None) -> Phase:
    """Send ``schedule`` from ``SENDERS`` threads; each request at its due time."""
    from repro.service.client import ServiceError

    phase = Phase(rate, len(schedule))
    # The root span "op" is one request from send to answer.
    compute = client.compute if tracer is None else tracer.span("op", client.compute)
    lock = threading.Lock()
    indices = itertools.count()
    start = time.perf_counter() + 0.02

    def sender() -> None:
        latency, lag, new, failed = [], [], [], 0
        while True:
            i = next(indices)
            if i >= len(schedule):
                break
            offset, item = schedule[i]
            payload = warm[item] if isinstance(item, int) else item
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            try:
                arrays = compute(payload)
            except ServiceError:
                failed += 1
                continue
            done = time.perf_counter()
            latency.append((i, (done - due) * 1e3))
            lag.append((i, (sent - due) * 1e3))
            got = digest([arrays])
            if isinstance(item, int):
                failed += got != warm_digests[item]
            else:
                new.append((payload, got))
        with lock:
            phase.index.extend(i for i, _ in latency)
            phase.latency_ms.extend(ms for _, ms in latency)
            phase.lag_by_index.extend(lag)
            phase.new.extend(new)
            phase.failed += failed

    threads = [threading.Thread(target=sender) for _ in range(SENDERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    phase.attempted = len(schedule)
    return phase


def _passes(phase: Phase) -> bool:
    return phase.p99_ms <= P99_LIMIT_MS and phase.keeps_up()


def capacity(phases: list[Phase]) -> float:
    """Highest offered rate meeting the p99 limit without a growing backlog.

    ``phases`` climb the fixed rate ladder.  Between the highest rung that
    passes and the rung above it the rate is interpolated where log p99
    crosses the limit, so the figure moves smoothly instead of jumping a
    rung.
    """
    passing = [i for i, phase in enumerate(phases) if _passes(phase)]
    if not passing:  # even the lowest rate fails
        return phases[0].rate * min(1.0, P99_LIMIT_MS / phases[0].p99_ms)
    high = passing[-1]
    if high == len(phases) - 1:
        return phases[high].rate
    low, fail = phases[high], phases[high + 1]
    worse = max(fail.p99_ms, P99_LIMIT_MS * 1.001)
    frac = (math.log(P99_LIMIT_MS) - math.log(low.p99_ms)) / (
        math.log(worse) - math.log(low.p99_ms))
    return low.rate * (fail.rate / low.rate) ** min(1.0, max(0.0, frac))


def start_daemon(warm: list[dict[str, Any]], spans_out: Path | None = None) -> tuple:
    """Spawn a daemon on a fresh store and load the warm set; returns its handles."""
    from repro.service import ServiceClient

    cache_dir = scratch_dir("served-cache-")
    try:
        daemon = Daemon(cache_dir, spans_out)
    except BaseException:
        remove_dir(cache_dir)
        raise
    client = ServiceClient(daemon.url, pool_size=SENDERS)
    try:
        for payload in warm:
            client.compute(payload)
    except BaseException:  # never leave the daemon running
        stop_daemon(daemon, client, cache_dir)
        raise
    return daemon, client, cache_dir


def stop_daemon(daemon: Daemon, client: Any, cache_dir: Path) -> None:
    client.close()
    daemon.stop()
    remove_dir(cache_dir)


def run(seed: int, seconds: float, tracer: Any) -> dict[str, Any]:
    """Untraced: the fixed rate, then the ladder on a second daemon.

    Traced: the fixed rate for half the time untraced, then again against
    the traced launcher with the client traced too.
    """
    warm = served_warm_set(seed)
    warm_digests = [digest([offline(p)]) for p in warm]

    # Set-up is spawning the daemon and loading the warm set; the last of
    # the repetitions stays up for the measurement.
    setup_s = []
    reps = SETUP_REPS if tracer is None else 1
    for rep in range(reps):
        begin = time.perf_counter()
        handles = start_daemon(warm)
        setup_s.append(time.perf_counter() - begin)
        if rep < reps - 1:
            stop_daemon(*handles)
    # A whole number of latency windows (see best_window).
    fixed_n = SERVED_WINDOW * max(1, round(FIXED_RPS * seconds * FIXED_SHARE / SERVED_WINDOW))
    daemon, client, cache_dir = handles
    try:
        with KeepAwake():
            fixed = drive(client, served_schedule(seed, 0, FIXED_RPS, fixed_n, len(warm)),
                          warm, warm_digests, FIXED_RPS)
        stats = client.stats()
    finally:
        stop_daemon(daemon, client, cache_dir)
    out: dict[str, Any] = {"setup_s": setup_s, "phases": [fixed], "stats": stats,
                           "daemon_rss_mb": daemon.rss_mb}
    if tracer is not None:
        out.update(_traced_half(seed, fixed_n, warm, warm_digests, tracer))
        return out
    # The ladder runs on a daemon of its own, so the fixed-rate daemon's
    # memory and counters do not depend on how far the ladder climbs.
    handles = start_daemon(warm)
    rung_s = seconds * (1 - FIXED_SHARE) / LADDER_RUNGS_BUDGETED
    try:
        failures = 0
        for k, rate in enumerate(LADDER_RPS, start=1):
            phase = drive(handles[1], served_schedule(
                seed, k, rate, max(MIN_RUNG_REQUESTS, int(rate * rung_s)), len(warm)),
                warm, warm_digests, rate)
            out["phases"].append(phase)
            # One failing rung may be a stall; two in a row end the climb.
            failures = 0 if _passes(phase) else failures + 1
            if failures == 2:
                break
    finally:
        stop_daemon(*handles)
    return out


def _traced_half(seed, count, warm, warm_digests, tracer) -> dict[str, Any]:
    """The fixed rate again, against the traced daemon launcher, client traced too."""
    spans_dir = scratch_dir("served-spans-")
    spans_out = spans_dir / "spans.json"
    daemon, client, cache_dir = start_daemon(warm, spans_out)
    try:
        before = client.stats()
        daemon.reset_trace()
        with KeepAwake():
            tracer.start()
            phase = drive(client, served_schedule(seed, 0, FIXED_RPS, count, len(warm)),
                          warm, warm_digests, FIXED_RPS, tracer)
            tracer.enabled = False
        after = client.stats()
    finally:
        stop_daemon(daemon, client, cache_dir)
    server = json.loads(spans_out.read_text())
    remove_dir(spans_dir)
    return {"traced": phase, "stats_before": before, "stats_after": after,
            "server_trace": server}


def verify_new(phases: list[Phase]) -> int:
    """New requests bit-equal to the offline computation; returns mismatches."""
    return sum(digest([offline(payload)]) != got for ph in phases for payload, got in ph.new)


def best_window(phase: Phase, size: int) -> dict[str, float]:
    """p50 and p99 of the phase's best window of ``size`` requests.

    At the fixed rate a window is one cycle of the new-request cells
    (``SERVED_WINDOW``), so windows ask for the same work; the best of
    them is the one a slow spell of a shared host disturbed least.  p50
    and p99 are each their own best.
    """
    windows: dict[int, list[float]] = {}
    for i, ms in zip(phase.index, phase.latency_ms):
        windows.setdefault(i // size, []).append(ms)
    return {
        "p50_ms": min(median(w) for w in windows.values()),
        "p99_ms": min(percentile(w, 99.0) for w in windows.values()),
        "n": len(phase.latency_ms),
    }


def summarize(phase: Phase) -> dict[str, float]:
    return {
        "p50_ms": median(phase.latency_ms),
        "p99_ms": percentile(phase.latency_ms, 99.0),
        "lag_p99_ms": percentile(phase.lag_ms, 99.0),
        "n": len(phase.latency_ms),
    }
