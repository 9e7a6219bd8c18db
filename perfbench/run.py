"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (why each exists is recorded in ``BENCHMARK.json``):

* ``reproduce`` -- ``run_experiments()`` into a temp dir, every CSV
  byte-compared to ``results/``.
* ``warm-queries`` -- closed loop, one caller, over a pre-warmed working
  set of six request families (100 to 20k points); every answer is
  checked bit-equal to the one from warm-up.
* ``cold-queries`` -- the same loop with every request unique (2k to 50k
  points, 1k to 10k replicas) on a bounded disk-backed cache; a seeded
  sample is checked against ``executor="oracle"`` after the loop.
* ``served`` -- ``repro serve`` in its own process, driven by
  ``ServiceClient`` from two threads in an open loop at fixed offered
  rates; every answer is checked against the offline computation.
  At the fixed rate, one ``awake.py`` busy loop per CPU keeps idle CPUs
  from halting, so wake-ups of the daemon and the senders do not go
  through the hypervisor; the rate ladder keeps the CPUs busy itself.

End-to-end metrics (``--trace 0``; the names in parentheses are the ones
printed per workload above the result line):

* ``setup_s`` -- median of three set-ups, each from a fresh process:
  importing the experiment suite; importing and warming the working
  set; importing and opening the disk cache; spawning the daemon and
  loading its warm set.
* ``latency_p50_ms`` / ``latency_p99_ms`` -- per request.  On the
  in-process workloads a request type recurs through the run (a
  working-set entry on every pass, a cold design cell in every block,
  each experiment in every reproduction) and its best time in the run is
  its cost, so that a slow spell of a shared host moves the figure
  little; the percentiles are over the request types (``query_p50_ms``,
  ``query_p99_ms``).  A reproduction is one request type, so both are its
  best time: the sum of each experiment's best (``reproduce_s``).  On
  ``served``, per request timed from its due time at the fixed offered
  rate, in the best window of requests that each ask for every new
  request type once (``served_p50_ms``, ``served_p99_ms``).
* ``throughput_per_s`` -- reproductions per second and queries per busy
  second (``query_rps``), from the same best times; on ``served``, the
  highest offered rate that keeps p99 within the limit without a growing
  backlog (``served_capacity_rps``).
* ``peak_rss_mb`` -- peak resident memory of the benchmark process, plus
  the daemon's on ``served``.

``--trace 1`` runs half the time untraced and half traced, and reports
the per-layer metrics of :mod:`report` instead.  Wrong answers count as
failed operations; any failure makes the run exit 1.  Without the
program's sources next to it, the benchmark exits 2 before measuring.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import SETUP_REPS, median, peak_rss_mb, percentile  # noqa: E402
from report import END_TO_END, PER_LAYER, per_layer  # noqa: E402

WORKLOADS = ("reproduce", "warm-queries", "cold-queries", "served")


class Outcome:
    """What one run measured, before it is printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.e2e: dict[str, float] = {}
        #: (name, value, unit, samples) lines under the workload's own names.
        self.named: list[tuple[str, float, str, int]] = []
        self.layers: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        #: Peak RSS of processes the workload measured besides this one.
        self.extra_rss_mb = 0.0


def _setup(workload: str, seed: int) -> list[float]:
    return [common.time_probe([workload, str(seed)]) for _ in range(SETUP_REPS)]


def _reproduce(seed: int, seconds: float, tracer: Any) -> Outcome:
    import reproduce

    out = Outcome()
    setup = [] if tracer else _setup("reproduce", seed)
    res = reproduce.run(seconds, tracer)
    times = res["untraced"]
    out.attempted = len(res["errors"])
    out.errors = [e for e in res["errors"] if e]
    out.failed = len(out.errors)
    if tracer is None:
        # One reproduction is the workload's only request type; its best
        # time adds each experiment's best time over the reproductions.
        rounds = res["experiments"]
        best = sum(min(r[e] for r in rounds) for e in rounds[0])
        out.e2e = {
            "setup_s": median(setup),
            "latency_p50_ms": best * 1e3,
            "latency_p99_ms": best * 1e3,
            "throughput_per_s": 1.0 / best,
        }
        out.named = [("setup_s", median(setup), "s", len(setup)),
                     ("reproduce_s", best, "s", len(times)),
                     ("reproduce_s.median_of_runs", median(times), "s", len(times))]
    else:
        out.layers = per_layer(tracer.snapshot(),
                               overhead=median(res["traced"]) / median(times) - 1.0)
    out.samples = {"reproductions": len(times), "traced_reproductions": len(res["traced"]),
                   "setup": len(setup)}
    return out


def _queries(kind: str):
    def runner(seed: int, seconds: float, tracer: Any) -> Outcome:
        import queries

        out = Outcome()
        setup = [] if tracer else _setup(kind, seed)
        fn = queries.run_warm if kind == "warm-queries" else queries.run_cold
        res = fn(seed, seconds, tracer)
        loop, traced = res["untraced"], res["traced"]
        out.attempted = loop.attempted + traced.attempted
        out.failed = loop.failed + traced.failed
        out.errors = loop.errors + traced.errors
        s = queries.summarize(loop)
        if tracer is None:
            b = queries.best_summary(loop, res["types"])
            out.e2e = {"setup_s": median(setup), "latency_p50_ms": b["p50_ms"],
                       "latency_p99_ms": b["p99_ms"], "throughput_per_s": b["rps"]}
            out.named = [("setup_s", median(setup), "s", len(setup)),
                         ("query_p50_ms", b["p50_ms"], "ms", b["n"]),
                         ("query_p99_ms", b["p99_ms"], "ms", b["n"]),
                         ("query_rps", b["rps"], "1/s", b["n"]),
                         ("query_p50_ms.all_requests", s["p50_ms"], "ms", s["n"]),
                         ("query_p99_ms.all_requests", s["p99_ms"], "ms", s["n"])]
        else:
            t = queries.summarize(traced)
            out.layers = per_layer(tracer.snapshot(), overhead=t["p50_ms"] / s["p50_ms"] - 1.0,
                                   cache_before=res["cache_before"],
                                   cache_after=res["cache_after"])
        out.samples = {"queries": s["n"], "traced_queries": len(traced.latencies),
                       "request_types": res["types"],
                       "setup": len(setup), "oracle_checked": res.get("oracle_checked", 0)}
        return out

    return runner


def _served(seed: int, seconds: float, tracer: Any) -> Outcome:
    import served

    out = Outcome()
    res = served.run(seed, seconds, tracer)
    phases = res["phases"] + ([res["traced"]] if "traced" in res else [])
    out.attempted = sum(p.attempted for p in phases)
    out.failed = sum(p.failed for p in phases) + served.verify_new(phases)
    if out.failed:
        out.errors.append(f"{out.failed} requests failed or differ from the offline answer")
    fixed = served.summarize(res["phases"][0])
    if tracer is None:
        best = served.best_window(res["phases"][0], served.SERVED_WINDOW)
        cap = served.capacity(res["phases"])
        setup = res["setup_s"]
        out.e2e = {"setup_s": median(setup), "latency_p50_ms": best["p50_ms"],
                   "latency_p99_ms": best["p99_ms"], "throughput_per_s": cap}
        rate = f"{served.FIXED_RPS:g}rps"
        out.named = [("setup_s", median(setup), "s", len(setup)),
                     (f"served_p50_ms@{rate}", best["p50_ms"], "ms", best["n"]),
                     (f"served_p99_ms@{rate}", best["p99_ms"], "ms", best["n"]),
                     (f"served_p50_ms@{rate}.all_requests", fixed["p50_ms"], "ms", fixed["n"]),
                     (f"served_p99_ms@{rate}.all_requests", fixed["p99_ms"], "ms", fixed["n"]),
                     ("served_capacity_rps", cap, "1/s", len(res["phases"]) - 1),
                     ("generator_lag_p99_ms", fixed["lag_p99_ms"], "ms", fixed["n"])]
        for p in res["phases"][1:]:
            s = served.summarize(p)
            out.named.append((f"ladder_p99_ms@{p.rate:g}rps", s["p99_ms"], "ms", s["n"]))
        counters = res["stats"]["counters"]
        out.named += [(f"server.{k}", counters[k], "count", counters["requests"])
                      for k in ("requests", "hits", "computed", "coalesced", "batched")]
    else:
        traced = res["traced"]
        t = served.summarize(traced)
        out.layers = per_layer(
            tracer.snapshot(), overhead=t["p50_ms"] / fixed["p50_ms"] - 1.0,
            server={"trace": res["server_trace"], "stats_before": res["stats_before"],
                    "stats_after": res["stats_after"]},
            lag_ms=traced.lag_ms, failures=traced.failed)
    out.samples = {"requests": sum(len(p.latency_ms) for p in phases),
                   "fixed_rate_requests": fixed["n"], "rungs": len(res["phases"]) - 1}
    out.extra_rss_mb = res["daemon_rss_mb"]
    return out


RUNNERS = {
    "reproduce": _reproduce,
    "warm-queries": _queries("warm-queries"),
    "cold-queries": _queries("cold-queries"),
    "served": _served,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.program_present():
        print(f"perfbench: no repro sources at {common.SRC} (or no results/); "
              "nothing to measure", file=sys.stderr)
        return 2
    common.use_checkout_sources()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()  # installed and started after the untraced half
    out = RUNNERS[args.workload](args.seed, args.seconds, tracer)

    if tracer is None:
        out.e2e["peak_rss_mb"] = peak_rss_mb() + out.extra_rss_mb
        metrics = {name: {"value": out.e2e[name], "unit": unit} for name, unit in END_TO_END}
        for name, value, unit, n in out.named:
            print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
        print(f"{args.workload} peak_rss_mb = {out.e2e['peak_rss_mb']:.6g} MB")
    else:
        metrics = {name: {"value": out.layers[name], "unit": unit} for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            print(f"{args.workload} {name} = {out.layers[name]:.6g} {unit}")
        coverage = out.layers["trace.coverage"]
        verdict = "ok" if coverage >= 0.9 else "LOW"
        print(f"{args.workload} layer self times cover {coverage:.1%} of end-to-end "
              f"time ({verdict}; need >= 90%)")
    error_rate = out.failed / out.attempted if out.attempted else 1.0
    print(f"{args.workload} error_rate = {error_rate:.6g} ({out.failed}/{out.attempted})")
    for error in out.errors[:5]:
        print(f"{args.workload} error: {error}")
    print(json.dumps({"stamp": common.stamp(out.samples), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    result = {"correct": out.failed == 0 and out.attempted > 0,
              "attempted": out.attempted, "failed": out.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
