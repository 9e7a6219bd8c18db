"""Point-Jacobi iteration — the paper's reference algorithm (Section 1).

Each sweep computes, for every interior point, a weighted sum of its
stencil neighbours plus the scaled right-hand side, using the *previous*
iterate throughout (hence "every grid point can be updated in
parallel").  Damping (weighted Jacobi, ``u ← (1−ω)·u + ω·J(u)``) is
supported because plain Jacobi diverges for the fourth-order star
stencils (their iteration symbol exceeds 1 at the highest frequency);
``ω = 0.8`` restores convergence.

A solve is double-buffered: it checks its inputs, binds each stencil
term to both buffers and scales the right-hand side once, then
alternates between the two ghost-ringed buffers, reading one and
writing the other.  No sweep copies an iterate, and a convergence check
compares the two buffers directly.  ``JacobiResult.field`` is whichever
buffer holds the last iterate.  Per point, the arithmetic and its order
are those of :func:`jacobi_sweep`, so the iterates are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConvergenceError, InvalidParameterError
from repro.solver.convergence import CheckSchedule, Criterion, InfNormCriterion
from repro.solver.grid import GridField
from repro.solver.problems import ModelProblem
from repro.stencils.apply import Term, accumulate_terms, apply_stencil_into, bind_terms
from repro.stencils.stencil import Stencil

__all__ = ["JacobiResult", "jacobi_sweep", "solve_jacobi"]


@dataclass
class JacobiResult:
    """Outcome of a Jacobi solve."""

    #: The last iterate.  :func:`solve_jacobi` returns one of its two
    #: buffers here; the partitioned solver gathers a fresh field.
    field: GridField
    iterations: int
    converged: bool
    #: Criterion measurements at each *checked* iteration (not every sweep
    #: when a CheckSchedule with period > 1 is used).
    history: list[float] = field(default_factory=list)

    def final_measure(self) -> float:
        if not self.history:
            raise ConvergenceError("no convergence checks were performed")
        return self.history[-1]


def jacobi_sweep(
    stencil: Stencil,
    current: GridField,
    scratch: np.ndarray,
    rhs: np.ndarray | None,
    damping: float = 1.0,
) -> None:
    """One in-place damped Jacobi sweep, checking its arguments.

    A standalone sweep; :func:`solve_jacobi` runs the same arithmetic
    through :func:`update_into` instead.  ``scratch`` must be an
    ``n × n`` array; on return the field's interior holds the new
    iterate.  ``rhs`` is the problem's ``f`` on
    the interior (or ``None`` for the homogeneous case); the ``h²``
    scaling is applied here so callers pass raw ``f`` values.
    """
    check_damping(damping)
    apply_stencil_into(stencil, current.data, scratch)
    if rhs is not None:
        scratch += (stencil.rhs_scale * current.h**2) * rhs
    interior = current.interior
    if damping == 1.0:
        interior[:] = scratch
    else:
        interior *= 1.0 - damping
        interior += damping * scratch


def check_damping(damping: float) -> None:
    """Refuse a damping factor outside ``(0, 1]``."""
    if not 0.0 < damping <= 1.0:
        raise InvalidParameterError("damping must be in (0, 1]")


def update_into(
    terms: tuple[Term, ...],
    rhs_term: np.ndarray,
    damping: float,
    old: np.ndarray,
    new: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Write one damped Jacobi update of ``old`` into ``new``.

    ``terms`` are bound to the buffer whose interior is ``old``, and
    ``rhs_term`` is the pre-scaled ``rhs_scale·h²·f``.  Per point this
    is :func:`jacobi_sweep`'s arithmetic in its order, so the iterates
    are bit-identical; ``scratch`` is only used when damping.
    """
    if damping == 1.0:
        accumulate_terms(terms, new)
        new += rhs_term
    else:
        accumulate_terms(terms, scratch)
        scratch += rhs_term
        np.multiply(old, 1.0 - damping, out=new)
        new += damping * scratch


def solve_jacobi(
    stencil: Stencil,
    problem: ModelProblem,
    n: int,
    criterion: Criterion | None = None,
    schedule: CheckSchedule = CheckSchedule(1),
    max_iterations: int = 100_000,
    damping: float = 1.0,
    initial: GridField | None = None,
) -> JacobiResult:
    """Run damped Jacobi until the criterion holds at a scheduled check.

    Raises :class:`ConvergenceError` when ``max_iterations`` sweeps pass
    without a successful check — iterative-solver failures should never
    be silent.  An ``initial`` field must have side ``n`` and the
    stencil's ghost width.
    """
    if max_iterations < 1:
        raise InvalidParameterError("max_iterations must be >= 1")
    check_damping(damping)
    criterion = criterion or InfNormCriterion(tol=1e-8)
    if initial is None:
        fld = GridField.zeros(n, stencil, problem.boundary_value)
    else:
        g = stencil.reach
        if initial.ghost != g or initial.data.shape != (n + 2 * g, n + 2 * g):
            raise InvalidParameterError(
                f"initial field has storage {initial.data.shape} with ghost width "
                f"{initial.ghost}; n={n} with stencil {stencil.name!r} needs "
                f"{(n + 2 * g, n + 2 * g)} with ghost width {g}"
            )
        fld = initial.copy()
    fld.set_boundary(problem.boundary_value)
    rhs_term = (stencil.rhs_scale * fld.h**2) * problem.rhs_grid(n)
    scratch = np.empty((n, n), dtype=float)
    buffers = (fld, fld.copy())
    # steps[i]: read buffer i, write buffer 1 - i.
    steps = [
        (bind_terms(stencil, src.data), src.interior, dst.interior, dst)
        for src, dst in (buffers, buffers[::-1])
    ]
    history: list[float] = []

    for iteration in range(1, max_iterations + 1):
        terms, old, new, written = steps[(iteration - 1) & 1]
        update_into(terms, rhs_term, damping, old, new, scratch)
        if schedule.should_check(iteration):
            measure = criterion.measure(old, new)
            history.append(measure)
            if criterion.is_converged(measure):
                return JacobiResult(
                    field=written, iterations=iteration, converged=True, history=history
                )
    raise ConvergenceError(
        f"Jacobi did not converge in {max_iterations} iterations "
        f"(last measure: {history[-1] if history else 'never checked'})"
    )
