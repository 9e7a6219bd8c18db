"""Seeded workload generators.

Every generator takes the run's seed and returns plain request
descriptions; the program sees only these generated inputs.

What a request costs is fixed by a design that is the same for every
seed: each family cycles through its cells (machine, partition kind,
stencil, ...) and each cell owns one stratum of the size distribution,
at the stratum's midpoint.  Cost differs by orders of magnitude between
cells -- a square allocation on ``flex32`` solves a cubic per point --
so drawing cells or sizes from the seed would make the work in a run,
and every figure, depend on the seed.  The seed draws the values the
program computes on: axis offsets and spacings, replica seeds, and the
order of warm repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

ALL_MACHINES = ("ipsc", "fem", "paper-bus", "paper-bus-async", "flex32",
                "flex32-async", "butterfly", "rp3")
BUS_MACHINES = ("paper-bus", "paper-bus-async", "flex32", "flex32-async")
# The event-level simulator models asynchronous buses write by write, which
# is orders of magnitude slower; replica batches stay on the other machines.
SIM_MACHINES = ("ipsc", "fem", "paper-bus", "flex32", "butterfly", "rp3")
SIM_CONFIGS = ((64, 4), (128, 16), (256, 9))
STENCILS = ("5-point", "9-point-box", "9-point-star", "13-point")
KINDS = ("strip", "square")
QUERY_FAMILIES = ("alloc", "max_useful", "n2_min", "ratio", "sweep", "sim")
SWEEP_PROCESSORS = tuple(float(p) for p in range(1, 17))
# Seeds the request-type design only; it is the same for every run.
DESIGN_SEED = 1987


@dataclass
class Query:
    """One in-process request: a family and its arguments (by name)."""

    family: str
    args: dict[str, Any]
    size: int
    #: Further compatible requests evaluated with this one in a single
    #: ``repro.graph.evaluate`` call (cold-queries sibling groups).
    siblings: list["Query"] = field(default_factory=list)
    #: ``args`` with names resolved to library objects, set before timing.
    objects: dict[str, Any] | None = None


def _log_uniform(lo: float, hi: float, u: float) -> int:
    return int(round(math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * u)))


def _design(cells: list[tuple], salt: int,
            count: int | None = None) -> list[tuple[tuple, float]]:
    """``count`` cells in a fixed shuffled order, each with a stratum midpoint.

    The strata split (0, 1) evenly among the chosen cells; stencils rotate
    over them, so every stencil is used.
    """
    rng = np.random.default_rng([DESIGN_SEED, salt])
    order = rng.permutation(len(cells))[:count]
    strata = rng.permutation(len(order))
    return [(cells[i] + (STENCILS[j % len(STENCILS)],), (s + 0.5) / len(order))
            for j, (i, s) in enumerate(zip(order, strata))]


def _cells(family: str) -> list[tuple]:
    """Every request type of ``family``.

    Cheap families list each type twice (``copy`` 0 and 1), so that one
    cold block holds 148 requests: with one request of each size class
    per block, a percentile at a whole multiple of 1% would sit on the
    edge between two classes and jump between runs.
    """
    m = ALL_MACHINES
    if family == "alloc":
        return [(a, k, i) for a in m for k in KINDS for i in (False, True)]
    if family in ("max_useful", "n2_min"):
        return [(a, k, copy) for a in BUS_MACHINES for k in KINDS for copy in (0, 1)]
    if family == "ratio":  # each machine as a and as b, per kind and copy
        return [(m[i], m[(i + 3) % len(m)], k, copy)
                for i in range(len(m)) for k in KINDS for copy in (0, 1)]
    if family == "sweep":
        return [(m[i], m[(i + 5) % len(m)], k) for i in range(len(m)) for k in KINDS]
    if family == "sim":
        return [(a, cfg, k, ("barrier", "pipelined")[j % 2], (0.0, 0.02, 0.05)[j % 3])
                for j, (a, cfg, k) in enumerate(
                    (a, cfg, k) for a in SIM_MACHINES for cfg in SIM_CONFIGS for k in KINDS)]
    raise ValueError(family)


class _Unique:
    """Monotone counter that makes every generated axis distinct."""

    def __init__(self, start: int = 0) -> None:
        self.next = start

    def take(self) -> int:
        value = self.next
        self.next += 1
        return value


def _seed_base(unique: _Unique) -> int:
    """First seed of a replica batch; batches (< 2**20 replicas) never overlap."""
    return (1 << 40) + unique.take() * (1 << 20)


def _axis(rng: np.random.Generator, size: int, unique: _Unique) -> np.ndarray:
    """A distinct axis: a unique start, a seeded spacing."""
    return 8 + unique.take() + int(rng.integers(1, 5)) * np.arange(size, dtype=np.int64)


def make_query(rng: np.random.Generator, family: str, cell: tuple, size: int,
               unique: _Unique) -> Query:
    """One request of ``family`` and type ``cell`` whose axis has ``size`` points."""
    axis = _axis(rng, size, unique)
    stencil = cell[-1]
    if family == "alloc":
        machine, kind, integer, _ = cell
        args = {"machine": machine, "stencil": stencil, "kind": kind,
                "grid_sides": axis, "integer": integer}
    elif family in ("max_useful", "n2_min"):
        machine, kind, _, _ = cell
        args = {"machine": machine, "stencil": stencil, "kind": kind, "axis": axis}
    elif family == "ratio":
        a, b, kind, _, _ = cell
        args = {"machine_a": a, "machine_b": b, "stencil": stencil, "kind": kind,
                "grid_sides": axis}
    elif family == "sweep":
        a, b, kind, _ = cell
        rows = max(2, size // len(SWEEP_PROCESSORS))
        args = {"grid_sides": axis[:rows], "machines": (a, b), "stencil": stencil,
                "kind": kind}
    elif family == "sim":
        machine, (n, p), kind, mode, jitter, _ = cell
        args = {"machine": machine, "stencil": stencil, "kind": kind, "n": n, "p": p,
                "replicas": size, "seed": _seed_base(unique), "mode": mode,
                "jitter": jitter}
    else:
        raise ValueError(family)
    return Query(family, args, size)


def _family_block(rng: np.random.Generator, family: str, count: int | None,
                  lo: float, hi: float, unique: _Unique) -> list[Query]:
    """``count`` cells (default all) of ``family``'s design, one request each."""
    design = _design(_cells(family), QUERY_FAMILIES.index(family), count)
    return [make_query(rng, family, cell, _log_uniform(lo, hi, u), unique)
            for cell, u in design]


def warm_working_set(seed: int, per_family: int = 8) -> list[Query]:
    """The warm-queries working set: every family, 100 to 20k points."""
    rng = np.random.default_rng([seed, 1])
    unique = _Unique()
    out = []
    for family in QUERY_FAMILIES:
        out.extend(_family_block(rng, family, per_family, 100, 20_000, unique))
    return out


def warm_order(seed: int, count: int, rounds: int) -> list[int]:
    """Closed-loop request order: ``rounds`` shuffled passes over the set."""
    rng = np.random.default_rng([seed, 2])
    order: list[int] = []
    for _ in range(rounds):
        order.extend(int(i) for i in rng.permutation(count))
    return order


class ColdStream:
    """Unique cold requests, 2k to 50k points; sims 1k to 10k replicas.

    A block holds every cell of every family once, in a fixed order.
    Allocation cells without integer rounding arrive as groups of three
    compatible curves (same machine, stencil, kind and scalars) on
    overlapping axes that together span the cell's size; the planner
    fuses each group onto one evaluation over the union axis.
    """

    #: Requests in one block (its sibling groups count once).
    BLOCK = sum(len(_cells(f)) for f in QUERY_FAMILIES)

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 3])
        self.unique = _Unique()
        self.order = np.random.default_rng([DESIGN_SEED, 7]).permutation(self.BLOCK)
        self._pending: list[Query] = []

    def _refill(self) -> None:
        block: list[Query] = []
        for family in QUERY_FAMILIES:
            lo, hi = (1_000, 10_000) if family == "sim" else (2_000, 50_000)
            block.extend(_family_block(self.rng, family, None, lo, hi, self.unique))
        for query in block:
            if query.family == "alloc" and not query.args["integer"]:
                self._split(query)
        self._pending = [block[i] for i in self.order]

    def _split(self, query: Query) -> None:
        """Turn ``query`` into a group of three half-size overlapping curves."""
        axis = query.args["grid_sides"]
        half = max(2, axis.size // 2)
        members = [axis[:half], axis[axis.size // 4: axis.size // 4 + half],
                   axis[axis.size - half:]]
        query.args = dict(query.args, grid_sides=members[0])
        query.size = half
        query.siblings = [Query("alloc", dict(query.args, grid_sides=m), half)
                          for m in members[1:]]

    def next(self) -> Query:
        if not self._pending:
            self._refill()
        return self._pending.pop(0)


# --------------------------------------------------------------------------
# served: JSON payloads for the daemon
# --------------------------------------------------------------------------

# Request types of the served mix: allocation curves, replica batches and
# small sweeps, the three families the daemon fuses and batches.
SERVED_CELLS = (
    [("allocation_curve", m, k, (i + j) % 2 == 1)
     for i, m in enumerate(ALL_MACHINES) for j, k in enumerate(KINDS)]
    + [("sim_sweep", m, cfg, KINDS[j % 2])
       for j, (m, cfg) in enumerate((m, cfg) for m in SIM_MACHINES for cfg in SIM_CONFIGS[:2])]
    + [("sweep", m, k, None) for m in ALL_MACHINES[:4] for k in KINDS]
)
# Requests in which every served cell is asked for once as a new request.
SERVED_WINDOW = 10 * len(SERVED_CELLS)


def served_payload(rng: np.random.Generator, cell: tuple, u: float,
                   unique: _Unique) -> dict[str, Any]:
    """One ``/v1/compute`` payload of type ``cell``; its axis is used once."""
    from repro.service.schema import allocation_payload, sim_sweep_payload, sweep_payload

    family, machine, extra, option, stencil = cell
    if family == "allocation_curve":
        size = _log_uniform(100, 1_000, u)
        return allocation_payload(machine, stencil, extra, _axis(rng, size, unique),
                                  integer=option)
    if family == "sim_sweep":
        n, p = extra
        replicas = _log_uniform(100, 1_000, u)
        return sim_sweep_payload(machine, n, p, stencil, option, replicas=replicas,
                                 seed=_seed_base(unique), jitter=0.02)
    rows = _log_uniform(8, 32, u)
    other = ALL_MACHINES[(ALL_MACHINES.index(machine) + 4) % len(ALL_MACHINES)]
    return sweep_payload(_axis(rng, rows, unique), SWEEP_PROCESSORS[:8], (machine, other),
                         stencil, extra)


def served_warm_set(seed: int) -> list[dict[str, Any]]:
    """The daemon's warm set: one request per served cell."""
    rng = np.random.default_rng([seed, 4])
    unique = _Unique()
    return [served_payload(rng, cell, u, unique)
            for cell, u in _design(SERVED_CELLS, 10)]


def served_schedule(seed: int, phase: int, rate: float, count: int,
                    warm_count: int) -> list[tuple[float, Any]]:
    """``count`` requests due every ``1/rate`` s: 90% warm repeats, 10% new.

    Each entry is ``(due offset in s, warm index or new payload)``.  Every
    tenth request is new; new requests cycle through the served cells in a
    fixed order, each cell at its own size stratum.
    """
    rng = np.random.default_rng([seed, 5, phase])
    unique = _Unique(start=1_000_000 * (phase + 1))
    design = _design(SERVED_CELLS, 11)
    out: list[tuple[float, Any]] = []
    for i in range(count):
        if i % 10 == 9:
            cell, u = design[(i // 10) % len(design)]
            item: Any = served_payload(rng, cell, u, unique)
        else:
            item = int(rng.integers(warm_count))
        out.append((i / rate, item))
    return out
