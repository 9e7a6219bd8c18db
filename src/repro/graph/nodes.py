"""Lazy sweep-graph nodes: analysis requests as data, not calls.

A :class:`Node` records *what* to compute — an analysis family plus its
parameters and its elementwise evaluation axis — without computing it.
Requests built here form small DAGs (sweep → analysis → reduction) that
:mod:`repro.graph.planner` fuses, dedups against the content-addressed
:class:`~repro.batch.SweepCache`, and dispatches to a pluggable executor
(:mod:`repro.graph.executors`).

Two node classes exist:

* **evaluation leaves** — one analysis family evaluated over a 1-D
  axis the result is elementwise in (grid sides for allocation curves,
  processor counts for isoefficiency searches, …).  Leaves carry the
  *same* cache-request tuple the eager analysis layer has always used,
  so graph-planned results and pre-graph cache stores share entries,
  plus a *compatibility* request: two leaves with equal ``compat``
  fingerprints differ only in their axis and may be fused onto one
  vectorized evaluation over the union axis.  Both fingerprints are
  computed lazily, and ``compat`` only when the planner's fuse pass
  needs it — a warm cache hit never does.
* **reductions** — pure array-to-array post-processing (speedup
  ratios, isoefficiency exponent fits) over child nodes.  Reductions
  are cheap and never cached; their children are.

Machines canonicalize through the cache's closed-form bus encoding, so
two presets whose cycle-time surfaces coincide build nodes that dedup
*and* fuse with each other — the same cross-preset sharing the cache
layer already guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, Sequence

import numpy as np

from repro.batch.cache import fingerprint
from repro.batch.engine import SweepSpec
from repro.core.parameters import DEFAULT_T_FLOP
from repro.errors import InvalidParameterError
from repro.machines.base import Architecture
from repro.machines.bus import BusArchitecture
from repro.stencils.perimeter import PartitionKind
from repro.stencils.stencil import Stencil

__all__ = [
    "Node",
    "allocation_curve",
    "max_useful_processors",
    "minimal_problem_size",
    "grid_for_efficiency",
    "sweep",
    "plan_grid",
    "sim_sweep",
    "sim_validate",
    "speedup_ratio",
    "strip_square_ratio",
    "isoefficiency_fit",
]

#: Families whose result arrays are 2-D surfaces sliced on axis 0; every
#: other family's arrays are 1-D and parallel to the node's axis.
SURFACE_OPS = frozenset({"sweep"})

#: Reduction ops (uncached, executed by the planner from child results).
REDUCE_OPS = frozenset({"ratio", "isoefficiency_fit"})


@dataclass(frozen=True, eq=False)
class Node:
    """One vertex of a lazy sweep graph.

    Identity is the cache fingerprint of the request (:attr:`key`), not
    object identity — two separately-built nodes for the same request
    are one subgraph to the planner.
    """

    #: Family name ("allocation_curve", "sweep", …) or reduction op.
    op: str
    #: Evaluation arguments for the executors (machine/stencil objects,
    #: scalars) — everything but the axis.
    args: Mapping[str, Any]
    #: The cache-request tuple (exactly the eager layer's), or ``None``
    #: for reductions, which are never cached.
    request: tuple | None
    #: Fusion-compatibility request: nodes whose :attr:`compat`
    #: fingerprints match differ only in their axis.  ``None`` marks a
    #: non-fusable node.
    compat_request: tuple | None
    #: The 1-D axis the result is elementwise over (``None`` for
    #: reductions).
    axis: np.ndarray | None
    #: Child nodes (reductions only).
    inputs: tuple["Node", ...] = ()
    #: Human-readable summary for ``--explain`` output.
    detail: str = ""

    @cached_property
    def key(self) -> str:
        """Content-addressed identity: the request fingerprint.

        Reductions fingerprint over their op and child keys instead —
        they have no cache request of their own.
        """
        if self.request is not None:
            return fingerprint(self.request)
        return fingerprint(
            ("graph-reduce", self.op, tuple(child.key for child in self.inputs))
        )

    @cached_property
    def compat(self) -> str | None:
        """Fusion-compatibility fingerprint, or ``None`` when not fusable."""
        if self.compat_request is None:
            return None
        return fingerprint(self.compat_request)

    @property
    def is_reduction(self) -> bool:
        return self.op in REDUCE_OPS

    @property
    def is_fusable(self) -> bool:
        return self.compat_request is not None and self.axis is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.detail or self.op})"


# --------------------------------------------------------------------------
# Shared validation / labelling
# --------------------------------------------------------------------------


def _machine_label(machine: Architecture) -> str:
    """Catalog name when the machine is a preset, else its class name."""
    from repro.machines.catalog import DEFAULT_MACHINES

    for name, preset in DEFAULT_MACHINES.items():
        if preset is machine:
            return name
    return type(machine).__name__


def _grid_axis(grid_sides: Sequence[int]) -> np.ndarray:
    n = np.asarray(grid_sides, dtype=float)
    if n.ndim != 1 or n.size == 0:
        raise InvalidParameterError("grid_sides must be a non-empty 1-D axis")
    if np.any(n < 1):
        raise InvalidParameterError("grid sides must be >= 1")
    return n


def _float_tag(value: float) -> tuple:
    return ("float", repr(float(value)))


# --------------------------------------------------------------------------
# Evaluation leaves
# --------------------------------------------------------------------------


def allocation_curve(
    machine: Architecture,
    stencil: Stencil,
    kind: PartitionKind,
    grid_sides: Sequence[int],
    t_flop: float = DEFAULT_T_FLOP,
    max_processors: float | None = None,
    integer: bool = False,
) -> Node:
    """Lazy :func:`repro.batch.analysis.optimal_allocation_curve`."""
    from repro.batch.analysis import _allocation_request

    n = _grid_axis(grid_sides)
    if max_processors is not None and max_processors < 1:
        raise InvalidParameterError("max_processors must be >= 1")
    return Node(
        op="allocation_curve",
        args={
            "machine": machine,
            "stencil": stencil,
            "kind": kind,
            "t_flop": float(t_flop),
            "max_processors": max_processors,
            "integer": bool(integer),
        },
        request=_allocation_request(
            machine, stencil, kind, n, t_flop, max_processors, integer
        ),
        compat_request=(
            "fuse",
            "allocation_curve",
            machine,
            stencil,
            kind,
            _float_tag(t_flop),
            None if max_processors is None else _float_tag(max_processors),
            bool(integer),
        ),
        axis=n,
        detail=(
            f"allocation_curve[{_machine_label(machine)} {stencil.name} "
            f"{kind.value} n_axis={n.size} integer={bool(integer)}]"
        ),
    )


def max_useful_processors(
    machine: BusArchitecture,
    stencil: Stencil,
    kind: PartitionKind,
    grid_sides: Sequence[int],
    t_flop: float = DEFAULT_T_FLOP,
) -> Node:
    """Lazy :func:`repro.batch.analysis.max_useful_processors_curve`."""
    n = np.asarray(grid_sides, dtype=float)
    if np.any(n < 1):
        raise InvalidParameterError("grid sides must be >= 1")
    return Node(
        op="max_useful",
        args={
            "machine": machine,
            "stencil": stencil,
            "kind": kind,
            "t_flop": float(t_flop),
        },
        request=(
            "max_useful_processors_curve",
            machine,
            stencil,
            kind,
            n,
            _float_tag(t_flop),
        ),
        compat_request=("fuse", "max_useful", machine, stencil, kind, _float_tag(t_flop)),
        axis=n,
        detail=(
            f"max_useful[{_machine_label(machine)} {stencil.name} "
            f"{kind.value} n_axis={n.size}]"
        ),
    )


def minimal_problem_size(
    machine: BusArchitecture,
    stencil: Stencil,
    kind: PartitionKind,
    n_processors: Sequence[int],
    t_flop: float = DEFAULT_T_FLOP,
) -> Node:
    """Lazy :func:`repro.batch.analysis.minimal_problem_size_curve`."""
    p = np.asarray(n_processors, dtype=float)
    if np.any(p < 1):
        raise InvalidParameterError("n_processors must be >= 1")
    return Node(
        op="n2_min",
        args={
            "machine": machine,
            "stencil": stencil,
            "kind": kind,
            "t_flop": float(t_flop),
        },
        request=(
            "minimal_problem_size_curve",
            machine,
            stencil,
            kind,
            p,
            _float_tag(t_flop),
        ),
        compat_request=("fuse", "n2_min", machine, stencil, kind, _float_tag(t_flop)),
        axis=p,
        detail=(
            f"n2_min[{_machine_label(machine)} {stencil.name} "
            f"{kind.value} p_axis={p.size}]"
        ),
    )


def grid_for_efficiency(
    machine: Architecture,
    stencil: Stencil,
    kind: PartitionKind,
    processor_counts: Sequence[int],
    target_efficiency: float,
    t_flop: float = DEFAULT_T_FLOP,
    n_max: int = 1 << 18,
) -> Node:
    """Lazy :func:`repro.batch.analysis.grid_for_efficiency_curve`."""
    if not 0 < target_efficiency < 1:
        raise InvalidParameterError("target efficiency must be in (0, 1)")
    p_int = np.asarray(processor_counts, dtype=int)
    if p_int.ndim != 1 or p_int.size == 0:
        raise InvalidParameterError("processor_counts must be a non-empty 1-D axis")
    if np.any(p_int < 2):
        raise InvalidParameterError("isoefficiency needs at least 2 processors")
    return Node(
        op="grid_for_efficiency",
        args={
            "machine": machine,
            "stencil": stencil,
            "kind": kind,
            "target_efficiency": float(target_efficiency),
            "t_flop": float(t_flop),
            "n_max": int(n_max),
        },
        request=(
            "grid_for_efficiency_curve",
            machine,
            stencil,
            kind,
            p_int,
            _float_tag(target_efficiency),
            _float_tag(t_flop),
            int(n_max),
        ),
        compat_request=(
            "fuse",
            "grid_for_efficiency",
            machine,
            stencil,
            kind,
            _float_tag(target_efficiency),
            _float_tag(t_flop),
            int(n_max),
        ),
        axis=p_int,
        detail=(
            f"grid_for_efficiency[{_machine_label(machine)} {stencil.name} "
            f"{kind.value} e={target_efficiency:g} p_axis={p_int.size}]"
        ),
    )


def sweep(spec: SweepSpec) -> Node:
    """Lazy :func:`repro.batch.run_sweep` over a whole :class:`SweepSpec`.

    The node's axis is the spec's grid-side axis: each row of every
    machine surface depends only on its own ``n``, so compatible sweeps
    (same processors, machines, stencil, kind, flop time) fuse over the
    union of their grid-side axes.
    """
    return Node(
        op="sweep",
        args={"spec": spec},
        request=("run_sweep", spec),
        compat_request=(
            "fuse",
            "sweep",
            spec.processors,
            spec.machines,
            spec.stencil,
            spec.kind,
            _float_tag(spec.t_flop),
        ),
        axis=np.asarray(spec.grid_sides, dtype=int),
        detail=(
            f"sweep[{len(spec.machines)} machines {spec.stencil.name} "
            f"{spec.kind.value} n_axis={len(spec.grid_sides)} "
            f"p_axis={len(spec.processors)}]"
        ),
    )


def plan_grid(machine: BusArchitecture, n_processors: Sequence[int]) -> Node:
    """Lazy capacity-plan curve: minimal grid sides over a machine-size axis.

    The request tuple matches the CLI's historical ``("plan_grid", …)``
    entry, so stores warmed by either path serve the other.
    """
    p = np.asarray(n_processors, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidParameterError("n_processors must be a non-empty 1-D axis")
    if np.any(p < 1):
        raise InvalidParameterError("n_processors must be >= 1")
    return Node(
        op="plan_grid",
        args={"machine": machine},
        request=("plan_grid", machine, p),
        compat_request=("fuse", "plan_grid", machine),
        axis=p,
        detail=f"plan_grid[{_machine_label(machine)} p_axis={p.size}]",
    )


def sim_sweep(
    machine: Architecture,
    stencil: Stencil,
    kind: PartitionKind,
    n: int,
    n_processors: int,
    seeds: Sequence[int],
    t_flop: float = DEFAULT_T_FLOP,
    mode: str = "barrier",
    jitter: float = 0.0,
) -> Node:
    """Lazy :func:`repro.batch.sim.simulate_replicas` over a seed axis.

    One (machine, n, P) configuration, many replicas: the node is
    elementwise in its seed axis (the counter RNG gives every replica an
    independent stream), so sim sweeps sharing a configuration fuse over
    the union of their seed axes and slice back out bit-identically.

    Machines canonicalize through :func:`repro.batch.sim.machine_sim_tag`
    — raw fields, *not* the closed-form bus encoding — because the
    simulator charges ``b`` and ``c`` separately; see that function.
    """
    from repro.batch.sim import ReplicaBatchSpec, machine_sim_tag, replica_request

    # Seeds stay exact Python ints until the final uint64 cast: routing
    # them through np.asarray would promote a list mixing small ints with
    # values past 2**63 to float64 and silently round the top of the
    # seed range (2**64 - 1 -> 2**64).
    try:
        seed_list = [int(s) for s in seeds]
    except (TypeError, ValueError):
        raise InvalidParameterError(
            "seeds must be a non-empty 1-D axis of integers"
        ) from None
    if not seed_list:
        raise InvalidParameterError("seeds must be a non-empty 1-D axis")
    # Spec construction validates n, P, seeds, mode, t_flop, and jitter
    # (before any uint64 conversion could wrap a negative seed); its
    # request tuple is exactly the offline cached path's, so graph
    # stores and simulate_replicas_cached stores share entries.
    spec = ReplicaBatchSpec.build(
        machine, stencil, kind, int(n), int(n_processors), seed_list,
        t_flop=float(t_flop), mode=str(mode), jitter=float(jitter),
    )
    seed_axis = np.asarray(seed_list, dtype=np.uint64)
    return Node(
        op="sim_sweep",
        args={
            "machine": machine,
            "stencil": stencil,
            "kind": kind,
            "n": int(n),
            "n_processors": int(n_processors),
            "t_flop": float(t_flop),
            "mode": str(mode),
            "jitter": float(jitter),
        },
        request=replica_request(spec),
        compat_request=(
            "fuse",
            "sim_sweep",
            machine_sim_tag(machine),
            stencil,
            kind,
            int(n),
            int(n_processors),
            _float_tag(t_flop),
            str(mode),
            _float_tag(jitter),
        ),
        axis=seed_axis,
        detail=(
            f"sim_sweep[{_machine_label(machine)} {stencil.name} "
            f"{kind.value} n={int(n)} p={int(n_processors)} "
            f"seeds={seed_axis.size} mode={mode} jitter={float(jitter):g}]"
        ),
    )


def sim_validate(
    machine: Architecture,
    stencil: Stencil,
    kind: PartitionKind,
    n: int,
    processor_counts: Sequence[int],
    t_flop: float = DEFAULT_T_FLOP,
    mode: str = "barrier",
) -> Node:
    """Lazy :func:`repro.sim.validate.validation_arrays` over a P axis.

    Each processor count's analytic and simulated cycle times depend
    only on that count, so validation sweeps for one (machine, stencil,
    n) fuse over the union of their processor axes.  The simulated
    column is the jitter-free batched replica path, pinned bit-equal to
    the event-level oracle.
    """
    from repro.batch.sim import machine_sim_tag

    p_axis = np.asarray(processor_counts, dtype=np.int64)
    if p_axis.ndim != 1 or p_axis.size == 0:
        raise InvalidParameterError(
            "processor_counts must be a non-empty 1-D axis"
        )
    if np.any(p_axis < 1):
        raise InvalidParameterError("processor counts must be >= 1")
    if int(n) < 1:
        raise InvalidParameterError("grid side n must be >= 1")
    return Node(
        op="sim_validate",
        args={
            "machine": machine,
            "stencil": stencil,
            "kind": kind,
            "n": int(n),
            "t_flop": float(t_flop),
            "mode": str(mode),
        },
        request=(
            "sim_validate",
            machine_sim_tag(machine),
            stencil,
            kind,
            int(n),
            p_axis,
            _float_tag(t_flop),
            str(mode),
        ),
        compat_request=(
            "fuse",
            "sim_validate",
            machine_sim_tag(machine),
            stencil,
            kind,
            int(n),
            _float_tag(t_flop),
            str(mode),
        ),
        axis=p_axis,
        detail=(
            f"sim_validate[{_machine_label(machine)} {stencil.name} "
            f"{kind.value} n={int(n)} p_axis={p_axis.size} mode={mode}]"
        ),
    )


# --------------------------------------------------------------------------
# Reductions
# --------------------------------------------------------------------------


def speedup_ratio(
    machine_a: Architecture,
    machine_b: Architecture,
    stencil: Stencil,
    kind: PartitionKind,
    grid_sides: Sequence[int],
    t_flop: float = DEFAULT_T_FLOP,
    max_processors: float | None = None,
) -> Node:
    """Lazy A-vs-B speedup ratio: one shared-subgraph reduction."""
    a = allocation_curve(machine_a, stencil, kind, grid_sides, t_flop, max_processors)
    b = allocation_curve(machine_b, stencil, kind, grid_sides, t_flop, max_processors)
    return Node(
        op="ratio",
        args={},
        request=None,
        compat_request=None,
        axis=None,
        inputs=(a, b),
        detail=f"ratio[{_machine_label(machine_a)}/{_machine_label(machine_b)}]",
    )


def strip_square_ratio(
    machine: Architecture,
    stencil: Stencil,
    grid_sides: Sequence[int],
    t_flop: float = DEFAULT_T_FLOP,
    max_processors: float | None = None,
) -> Node:
    """Lazy strip-vs-square ratio over one machine's two allocation curves."""
    st = allocation_curve(
        machine, stencil, PartitionKind.STRIP, grid_sides, t_flop, max_processors
    )
    sq = allocation_curve(
        machine, stencil, PartitionKind.SQUARE, grid_sides, t_flop, max_processors
    )
    return Node(
        op="ratio",
        args={},
        request=None,
        compat_request=None,
        axis=None,
        inputs=(st, sq),
        detail=f"ratio[{_machine_label(machine)} strip/square]",
    )


def isoefficiency_fit(
    machine: Architecture,
    stencil: Stencil,
    kind: PartitionKind,
    processor_counts: Sequence[int],
    target_efficiency: float = 0.5,
    t_flop: float = DEFAULT_T_FLOP,
) -> Node:
    """Lazy isoefficiency-exponent fit over a grid-for-efficiency leaf."""
    if len(processor_counts) < 2:
        raise InvalidParameterError("need at least two processor counts")
    sides = grid_for_efficiency(
        machine, stencil, kind, processor_counts, target_efficiency, t_flop
    )
    return Node(
        op="isoefficiency_fit",
        args={"processor_counts": tuple(int(p) for p in processor_counts)},
        request=None,
        compat_request=None,
        axis=None,
        inputs=(sides,),
        detail=(
            f"isoefficiency_fit[{_machine_label(machine)} {stencil.name} "
            f"{kind.value} e={target_efficiency:g}]"
        ),
    )
