"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files: :func:`instrument`
replaces each layer's public functions with a wrapper, rebinding every
name under which a ``repro`` module looks the function up (a
``from x import f`` copy is rebound too), so the program itself is
unchanged.

A span is aggregated, not stored: each thread keeps a stack of open
spans, and on exit a span adds its duration to its name's total, its
duration minus its children's to its name's *self* time, and its
duration to its parent's child time.  Self times of all spans under a
root therefore sum to the root's duration minus the root's own self
time, which is the time no layer accounts for.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable

# name -> [calls, total seconds, self seconds]
Stats = dict[str, list[float]]


class Tracer:
    """Per-thread span stacks and counters, merged on :meth:`snapshot`."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._all: list[tuple[Stats, dict[str, float]]] = []

    def _state(self) -> Any:
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.stats = {}
            st.counts = {}
            with self._lock:
                self._all.append((st.stats, st.counts))
        return st

    def start(self) -> None:
        """Install the span wrappers (first call only) and start recording."""
        instrument(self)
        self.enabled = True

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        measure: Callable[[tuple, dict, Any], dict[str, float]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span; ``measure`` derives counters from a call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            st = tracer._state()
            stack = st.stack
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[0]
            if measure is not None:
                for key, value in measure(args, kwargs, result).items():
                    st.counts[key] = st.counts.get(key, 0) + value
            return result

        wrapper.__wrapped_by_tracer__ = True  # type: ignore[attr-defined]
        return wrapper

    def counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped to count calls only (no span, near-zero cost)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.enabled:
                counts = tracer._state().counts
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict[str, Any]:
        """Merged ``{"spans": {name: [calls, total, self]}, "counts": {...}}``."""
        spans: Stats = {}
        counts: dict[str, float] = {}
        with self._lock:
            parts = list(self._all)
        for stats, cnts in parts:
            for name, (calls, total, self_s) in list(stats.items()):
                rec = spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for name, value in list(cnts.items()):
                counts[name] = counts.get(name, 0) + value
        return {"spans": spans, "counts": counts}

    def reset(self) -> None:
        with self._lock:
            for stats, cnts in self._all:
                stats.clear()
                cnts.clear()


# --------------------------------------------------------------------------
# Installing the wrappers
# --------------------------------------------------------------------------


def _rebind(original: Callable[..., Any], wrapped: Callable[..., Any]) -> None:
    """Replace ``original`` under every name a loaded repro module holds."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _wrap_function(tracer: Tracer, module: Any, attr: str, name: str, measure=None) -> None:
    original = getattr(module, attr)
    _rebind(original, tracer.span(name, original, measure))


def _wrap_method(tracer: Tracer, cls: type, attr: str, name: str, measure=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.span(name, raw.__func__, measure)))
    else:
        setattr(cls, attr, tracer.span(name, raw, measure))


def _kernel_measure(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    axis = args[3] if len(args) > 3 else kwargs["axis"]
    return {
        "kernel.points": int(getattr(axis, "size", 0)),
        "kernel.bytes_out": sum(int(a.nbytes) for a in result.values()),
    }


def _sim_measure(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    return {"sim.replicas": int(result.n_replicas)}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports; idempotent per process."""
    import repro.batch  # noqa: F401  (loads repro.graph as well)
    import repro.core.optimize as optimize
    import repro.experiments.runner  # noqa: F401  (fills the registry)
    import repro.graph.nodes as nodes
    import repro.graph.planner as planner
    import repro.machines.base as machines_base
    import repro.service  # noqa: F401
    import repro.solver.jacobi as jacobi
    import repro.solver.parallel as parallel
    import repro.solver.sor as sor
    import repro.stencils.apply as apply
    from repro.batch import analysis, cache, sim
    from repro.experiments import registry
    from repro.graph.executors import NumpyExecutor
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceCore

    if getattr(planner.plan, "__wrapped_by_tracer__", False):
        return

    # repro.experiments: one span per registered experiment.
    for exp_id, fn in list(registry._REGISTRY.items()):
        registry._REGISTRY[exp_id] = tracer.span(f"experiments.{exp_id}", fn)

    # repro.solver / repro.stencils / repro.core (scalar searches).
    for module, attr in ((jacobi, "solve_jacobi"), (parallel, "solve_jacobi_parallel"),
                         (sor, "solve_sor")):
        _wrap_function(tracer, module, attr, "solver.solve")
    for module, attr in ((jacobi, "jacobi_sweep"), (sor, "sor_sweep")):
        original = getattr(module, attr)
        _rebind(original, tracer.counter("solver.sweeps", original))
    parallel.ParallelJacobi.sweep = tracer.counter(
        "solver.sweeps", parallel.ParallelJacobi.sweep
    )
    _wrap_function(tracer, apply, "apply_stencil_into", "stencils.apply")
    _wrap_function(tracer, optimize, "golden_section_minimize", "core.search")
    pending = [machines_base.Architecture]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "cycle_time" in cls.__dict__:
            setattr(cls, "cycle_time",
                    tracer.counter("core.cycle_time_calls", cls.__dict__["cycle_time"]))

    # repro.batch.cache.
    _wrap_function(tracer, cache, "fingerprint", "cache.fingerprint")
    _wrap_method(tracer, cache.SweepCache, "lookup_level", "cache.lookup")
    _wrap_method(tracer, cache.SweepCache, "store", "cache.store")

    # Request specs (validation) and repro.graph node construction, planning,
    # execution.
    _wrap_method(tracer, repro.batch.SweepSpec, "across_catalog", "batch.spec")
    _wrap_method(tracer, repro.batch.ReplicaBatchSpec, "build", "batch.spec")
    _wrap_function(tracer, sim, "replica_request", "batch.spec")
    for attr in ("allocation_curve", "max_useful_processors", "minimal_problem_size",
                 "grid_for_efficiency", "sweep", "plan_grid", "sim_sweep", "sim_validate",
                 "speedup_ratio", "strip_square_ratio", "isoefficiency_fit"):
        _wrap_function(tracer, nodes, attr, "graph.build")
    _wrap_function(tracer, planner, "plan", "graph.plan")
    _wrap_method(tracer, planner.Plan, "execute", "graph.execute")

    # repro.batch.analysis result conversion; kernels; replica simulation.
    _wrap_method(tracer, analysis.AllocationCurve, "from_arrays", "analysis.convert")
    _wrap_method(tracer, NumpyExecutor, "evaluate", "kernel", _kernel_measure)
    _wrap_function(tracer, sim, "simulate_replicas", "sim", _sim_measure)

    # repro.service: client transport and the server's request handler.
    _wrap_method(tracer, ServiceClient, "compute", "client.compute")
    _wrap_method(tracer, ServiceClient, "_request", "client.roundtrip")
    _wrap_method(tracer, ServiceClient, "_decode_compute_response", "client.decode")
    ServiceClient._retry_delay = tracer.counter("client.retries", ServiceClient._retry_delay)
    _wrap_method(tracer, ServiceCore, "handle_request", "server.handle")
