"""BENCH-ANALYSIS: the vectorized analysis layer vs the scalar core.

Two measurements, recorded to ``results/BENCH_analysis.json`` so the
perf trajectory is tracked across PRs:

* **scalar vs vectorized** — a 2000-point capacity-planning sweep
  (integer-constrained optimal allocations over a dense grid-side axis
  on the paper's bus) through ``repro.batch.analysis`` versus the
  equivalent per-point ``optimize_allocation`` loop.  The layer
  promises ≥ 50×; typical is well above.
* **cold vs warm cache** — the same sweep through the content-addressed
  sweep cache: a cold disk-backed miss (compute + store) versus a warm
  disk hit from a fresh process-like cache instance.
* **memory hit vs compute** — a 500-point allocation curve served from a
  warmed in-memory cache versus computed without a cache, each the
  median of interleaved, warmed-up repeats.  A hit pays only request
  identity (fingerprinting), the probe, and result conversion, so this
  gates that overhead: a hit must be ≥ 5× faster than the compute.

Run as a script (CI's smoke bench) or under pytest:

    PYTHONPATH=src python benchmarks/bench_analysis.py
    pytest benchmarks/bench_analysis.py -s
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.batch import SweepCache, clear_default_cache, optimal_allocation_curve
from repro.core.allocation import optimize_allocation
from repro.core.parameters import Workload
from repro.machines.catalog import PAPER_BUS
from repro.report.csvio import default_results_dir
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind

GRID_POINTS = 2000

#: The acceptance bar for the vectorized analysis layer.
MIN_SPEEDUP = 50.0

#: Axis points, timed repeats, and the acceptance bar of the memory-hit
#: measurement.
HIT_POINTS = 500
HIT_REPEATS = 60
MIN_HIT_SPEEDUP = 5.0


def _axis() -> list[int]:
    """2000 distinct grid sides spanning [64, 8192]."""
    sides = np.unique(
        np.round(np.geomspace(64, 8192, GRID_POINTS)).astype(int)
    ).tolist()
    taken = set(sides)
    extra = (n for n in range(64, 8192) if n not in taken)
    while len(sides) < GRID_POINTS:
        sides.append(next(extra))
    return sorted(sides[:GRID_POINTS])


def bench_vectorized() -> dict:
    """Time the capacity-planning sweep both ways and check they agree."""
    sides = _axis()
    kind = PartitionKind.SQUARE

    start = time.perf_counter()
    curve = optimal_allocation_curve(
        PAPER_BUS, FIVE_POINT, kind, sides, integer=True
    )
    vectorized_s = time.perf_counter() - start

    start = time.perf_counter()
    scalar_speedup = np.empty(len(sides))
    scalar_area = np.empty(len(sides))
    for i, n in enumerate(sides):
        alloc = optimize_allocation(
            PAPER_BUS, Workload(n=n, stencil=FIVE_POINT), kind, integer=True
        )
        scalar_speedup[i] = alloc.speedup
        scalar_area[i] = alloc.area
    scalar_s = time.perf_counter() - start

    np.testing.assert_array_equal(curve.speedup, scalar_speedup)
    np.testing.assert_array_equal(curve.area, scalar_area)
    return {
        "points": len(sides),
        "machine": "paper-bus",
        "scalar_seconds": scalar_s,
        "vectorized_seconds": vectorized_s,
        "speedup": scalar_s / vectorized_s,
    }


def bench_cache() -> dict:
    """Cold (compute + store) vs warm (disk hit) for the same sweep."""
    sides = _axis()
    kind = PartitionKind.SQUARE
    with tempfile.TemporaryDirectory() as tmp:
        cold_cache = SweepCache(tmp)
        start = time.perf_counter()
        cold = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, kind, sides, integer=True, cache=cold_cache
        )
        cold_s = time.perf_counter() - start

        warm_cache = SweepCache(tmp)  # fresh memory, same store
        start = time.perf_counter()
        warm = optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, kind, sides, integer=True, cache=warm_cache
        )
        warm_s = time.perf_counter() - start
        np.testing.assert_array_equal(cold.speedup, warm.speedup)
        warm_stats = warm_cache.stats.snapshot()
    return {
        "points": len(sides),
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "speedup": cold_s / warm_s,
        "warm_stats": warm_stats,
        "warm_was_pure_hit": warm_stats["misses"] == 0,
    }


def _spread(samples: list[float]) -> dict:
    q10, q50, q90 = np.percentile(samples, [10, 50, 90])
    return {"median_seconds": q50, "p10_seconds": q10, "p90_seconds": q90}


def bench_memory_hit() -> dict:
    """Warm memory-tier hit vs uncached compute for one 500-point curve."""
    sides = _axis()[:: GRID_POINTS // HIT_POINTS]
    kind = PartitionKind.SQUARE
    clear_default_cache()  # "uncached" must not reach a default cache

    def compute() -> object:
        return optimal_allocation_curve(PAPER_BUS, FIVE_POINT, kind, sides, integer=True)

    cache = SweepCache()
    expected = compute()

    def hit() -> object:
        return optimal_allocation_curve(
            PAPER_BUS, FIVE_POINT, kind, sides, integer=True, cache=cache
        )

    for _ in range(5):  # warm-up; the first call fills the cache
        compute()
        hit()
    compute_s: list[float] = []
    hit_s: list[float] = []
    for _ in range(HIT_REPEATS):  # interleaved, so drift hits both alike
        for fn, samples in ((compute, compute_s), (hit, hit_s)):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    np.testing.assert_array_equal(hit().speedup, expected.speedup)
    stats = cache.stats.snapshot()
    compute_spread, hit_spread = _spread(compute_s), _spread(hit_s)
    return {
        "points": len(sides),
        "repeats": HIT_REPEATS,
        "compute": compute_spread,
        "memory_hit": hit_spread,
        "speedup": compute_spread["median_seconds"] / hit_spread["median_seconds"],
        "min_speedup": MIN_HIT_SPEEDUP,
        "hit_stats": stats,
        "hits_were_pure": stats["misses"] == 1 and stats["memory_hits"] >= HIT_REPEATS,
    }


def run_bench(output_path: Path | None = None) -> dict:
    payload = {
        "bench": "analysis",
        "vectorized_analysis": bench_vectorized(),
        "sweep_cache": bench_cache(),
        "memory_hit": bench_memory_hit(),
    }
    path = output_path or (default_results_dir() / "BENCH_analysis.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    payload["path"] = str(path)
    return payload


def test_bench_analysis(results_dir):
    payload = run_bench(results_dir / "BENCH_analysis.json")
    print()
    print(json.dumps(payload, indent=2))
    analysis = payload["vectorized_analysis"]
    assert analysis["speedup"] >= MIN_SPEEDUP, analysis
    cache = payload["sweep_cache"]
    assert cache["warm_was_pure_hit"], cache
    hit = payload["memory_hit"]
    assert hit["hits_were_pure"], hit
    assert hit["speedup"] >= MIN_HIT_SPEEDUP, hit


if __name__ == "__main__":
    report = run_bench()
    json.dump(report, sys.stdout, indent=2)
    print()
    hit = report["memory_hit"]
    ok = (
        report["vectorized_analysis"]["speedup"] >= MIN_SPEEDUP
        and report["sweep_cache"]["warm_was_pure_hit"]
        and hit["hits_were_pure"]
        and hit["speedup"] >= MIN_HIT_SPEEDUP
    )
    print(
        f"vectorized analysis {report['vectorized_analysis']['speedup']:.1f}x "
        f"(>= {MIN_SPEEDUP:g}x), warm cache "
        f"{report['sweep_cache']['speedup']:.1f}x vs cold "
        f"({'hit' if report['sweep_cache']['warm_was_pure_hit'] else 'MISS'}), "
        f"memory hit {hit['memory_hit']['median_seconds'] * 1e3:.3f} ms vs compute "
        f"{hit['compute']['median_seconds'] * 1e3:.3f} ms = {hit['speedup']:.1f}x "
        f"(>= {MIN_HIT_SPEEDUP:g}x): {'PASS' if ok else 'FAIL'}"
    )
    sys.exit(0 if ok else 1)
