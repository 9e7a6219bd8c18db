"""Partitioned Jacobi: rank-local fields with explicit halo exchange.

This is the MPI-shaped substrate: each partition ("rank") owns a local
array with a ghost ring, and every iteration performs

1. a halo exchange — copy boundary values from neighbouring ranks'
   interiors into this rank's ghosts (the paper's "exchanges with other
   processors information necessary to compute the next iteration");
2. a local damped-Jacobi sweep over the rank's interior;
3. optionally, a local convergence measure combined across ranks (the
   paper's dissemination stage).

Execution here is sequential (single process), but the data movement is
exactly a message-passing run's: ranks touch only their own storage and
explicit halo copies.  That makes two validations possible:

* the parallel iterate is **bit-identical** to the sequential solver's
  (same operations in the same order per point);
* the *measured* halo word counts match the model's volume formulas
  (``2·k·n`` per strip, ``≈4·k·s`` per square) — exercised in tests.

Like the sequential solver, each rank is double-buffered: it owns two
ghost-ringed stores and every sweep reads one and writes the other.
The halo copies and the stencil terms are bound to both stores once,
at construction, as ``(destination, source)`` view pairs and
``(weight, view)`` terms, so a sweep is only copies and arithmetic.
``JacobiResult.field`` is assembled from the buffers holding the last
iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError, InvalidParameterError
from repro.partitioning.decomposition import Decomposition
from repro.solver.convergence import (
    CheckSchedule,
    Criterion,
    InfNormCriterion,
    SumSquaresCriterion,
)
from repro.solver.grid import GridField
from repro.solver.jacobi import JacobiResult, check_damping, update_into
from repro.solver.problems import ModelProblem
from repro.stencils.apply import bind_terms
from repro.stencils.stencil import Stencil

__all__ = ["HaloCopy", "ParallelJacobi", "solve_jacobi_parallel"]


@dataclass(frozen=True)
class HaloCopy:
    """One precomputed ghost-fill instruction.

    Copy ``src_rank.interior[src_rows, src_cols]`` into
    ``dst_rank.storage[dst_rows, dst_cols]`` (ghost coordinates).
    """

    src_rank: int
    dst_rank: int
    src_rows: slice
    src_cols: slice
    dst_rows: slice
    dst_cols: slice
    volume: int


class ParallelJacobi:
    """Damped Jacobi over a decomposition with explicit halo exchange."""

    def __init__(
        self,
        stencil: Stencil,
        problem: ModelProblem,
        decomposition: Decomposition,
        damping: float = 1.0,
    ) -> None:
        check_damping(damping)
        self.stencil = stencil
        self.problem = problem
        self.decomposition = decomposition
        self.damping = damping
        self.ghost = g = stencil.reach
        n = decomposition.n
        scale = stencil.rhs_scale * (1.0 / (n + 1)) ** 2

        rhs_full = problem.rhs_grid(n)
        stores: list[np.ndarray] = []
        self.rhs: list[np.ndarray] = []
        self.scratch: list[np.ndarray] = []
        for part in decomposition.partitions:
            store = np.full(
                (part.n_rows + 2 * g, part.n_cols + 2 * g),
                problem.boundary_value,
                dtype=float,
            )
            store[g : g + part.n_rows, g : g + part.n_cols] = 0.0
            stores.append(store)
            self.rhs.append(
                rhs_full[part.row_start : part.row_stop, part.col_start : part.col_stop]
            )
            self.scratch.append(np.empty((part.n_rows, part.n_cols), dtype=float))
        rhs_terms = [scale * rhs for rhs in self.rhs]
        #: Each rank's two stores; ``buffers[self.current]`` holds the
        #: latest iterate.
        self.buffers = (stores, [store.copy() for store in stores])
        self.current = 0
        self._interiors = tuple(
            [
                store[g : g + part.n_rows, g : g + part.n_cols]
                for store, part in zip(buffer, decomposition.partitions)
            ]
            for buffer in self.buffers
        )
        self.copies = self._plan_halo_exchange()
        self._words_per_exchange = sum(cp.volume for cp in self.copies)
        # Per buffer: the halo copies as (ghost view, source interior view)
        # pairs, and per rank the arguments of one update into the other
        # buffer.
        self._halos = tuple(
            [
                (
                    buffer[cp.dst_rank][cp.dst_rows, cp.dst_cols],
                    interiors[cp.src_rank][cp.src_rows, cp.src_cols],
                )
                for cp in self.copies
            ]
            for buffer, interiors in zip(self.buffers, self._interiors)
        )
        self._updates = tuple(
            [
                (bind_terms(stencil, store), rhs_term, damping, old, new, scratch)
                for store, rhs_term, old, new, scratch in zip(
                    self.buffers[src], rhs_terms, self._interiors[src],
                    self._interiors[1 - src], self.scratch,
                )
            ]
            for src in (0, 1)
        )
        self.iterations = 0
        self.words_exchanged_last_iteration = 0

    # ------------------------------------------------------------- planning

    def _plan_halo_exchange(self) -> list[HaloCopy]:
        """Intersect every rank's expanded box with every other rank's box.

        The ghost frame of rank ``d`` is its partition box expanded by
        the stencil reach; any overlap with another rank's box is a
        rectangle to copy.  Corners fall out of the same intersection,
        so diagonal neighbours need no special case.
        """
        g = self.ghost
        parts = self.decomposition.partitions
        copies: list[HaloCopy] = []
        for dst_idx, dst in enumerate(parts):
            for src_idx, src in enumerate(parts):
                if src_idx == dst_idx:
                    continue
                r0 = max(dst.row_start - g, src.row_start)
                r1 = min(dst.row_stop + g, src.row_stop)
                c0 = max(dst.col_start - g, src.col_start)
                c1 = min(dst.col_stop + g, src.col_stop)
                if r0 >= r1 or c0 >= c1:
                    continue
                copies.append(
                    HaloCopy(
                        src_rank=src_idx,
                        dst_rank=dst_idx,
                        src_rows=slice(r0 - src.row_start, r1 - src.row_start),
                        src_cols=slice(c0 - src.col_start, c1 - src.col_start),
                        dst_rows=slice(
                            r0 - dst.row_start + g, r1 - dst.row_start + g
                        ),
                        dst_cols=slice(
                            c0 - dst.col_start + g, c1 - dst.col_start + g
                        ),
                        volume=(r1 - r0) * (c1 - c0),
                    )
                )
        return copies

    # ------------------------------------------------------------ execution

    @property
    def locals(self) -> list[np.ndarray]:
        """Every rank's store (ghost ring included) holding the latest iterate."""
        return self.buffers[self.current]

    @property
    def interiors(self) -> list[np.ndarray]:
        """Views of every rank's latest iterate (no ghosts, no copy)."""
        return self._interiors[self.current]

    def exchange_halos(self) -> int:
        """Run every planned copy; returns words moved."""
        for dst, src in self._halos[self.current]:
            dst[...] = src
        self.words_exchanged_last_iteration = self._words_per_exchange
        return self._words_per_exchange

    def sweep(self) -> None:
        """One parallel iteration: halo exchange, then rank-local sweeps."""
        self.exchange_halos()
        for update in self._updates[self.current]:
            update_into(*update)
        self.current = 1 - self.current
        self.iterations += 1

    def read_volume_per_rank(self) -> list[int]:
        """Measured halo words each rank reads per iteration."""
        volumes = [0] * self.decomposition.n_processors
        for cp in self.copies:
            volumes[cp.dst_rank] += cp.volume
        return volumes

    def gather(self) -> GridField:
        """Assemble the global field from rank interiors."""
        n = self.decomposition.n
        fld = GridField.zeros(n, self.stencil, self.problem.boundary_value)
        for part, interior in zip(self.decomposition.partitions, self.interiors):
            fld.interior[
                part.row_start : part.row_stop, part.col_start : part.col_stop
            ] = interior
        return fld

    def local_measures(self, criterion: Criterion, previous: list[np.ndarray]) -> float:
        """Combine per-rank convergence measures (the dissemination step).

        Inf-norm combines by max, sum-of-squares by addition; both are
        handled by measuring per rank and reducing with the criterion's
        natural monoid (max for norms, sum handled by measure addition).
        """
        values = [
            criterion.measure(old, new) for old, new in zip(previous, self.interiors)
        ]
        if isinstance(criterion, SumSquaresCriterion):
            return float(sum(values))
        return float(max(values))


def solve_jacobi_parallel(
    stencil: Stencil,
    problem: ModelProblem,
    decomposition: Decomposition,
    criterion: Criterion | None = None,
    schedule: CheckSchedule = CheckSchedule(1),
    max_iterations: int = 100_000,
    damping: float = 1.0,
) -> JacobiResult:
    """Partitioned counterpart of :func:`repro.solver.jacobi.solve_jacobi`.

    Produces bit-identical iterates to the sequential solver; raises
    :class:`ConvergenceError` on iteration exhaustion just the same.
    """
    if max_iterations < 1:
        raise InvalidParameterError("max_iterations must be >= 1")
    criterion = criterion or InfNormCriterion(tol=1e-8)
    runner = ParallelJacobi(stencil, problem, decomposition, damping)
    history: list[float] = []

    for iteration in range(1, max_iterations + 1):
        previous = runner.interiors
        runner.sweep()
        if schedule.should_check(iteration):
            measure = runner.local_measures(criterion, previous)
            history.append(measure)
            if criterion.is_converged(measure):
                return JacobiResult(
                    field=runner.gather(),
                    iterations=iteration,
                    converged=True,
                    history=history,
                )
    raise ConvergenceError(
        f"parallel Jacobi did not converge in {max_iterations} iterations"
    )
