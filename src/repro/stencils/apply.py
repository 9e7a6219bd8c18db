"""Vectorized stencil application on 2-D fields.

This is the numerical kernel behind the solver substrate: one Jacobi
sweep is ``u_new = apply_stencil(stencil, u) + h² · rhs_scale · f``.
The implementation is pure NumPy slicing — no Python-level loops over
grid points — following the vectorization idiom of the HPC guides.

Fields carry a ghost ring of width ``stencil.reach`` holding boundary
values (constant Dirichlet data in the paper's model problem), so the
update of every interior point is a single shifted-slice expression.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.stencils.stencil import Stencil

#: One update term: a weight and the shifted view of a field it scales.
Term = tuple[float, np.ndarray]

__all__ = [
    "Term",
    "accumulate_terms",
    "apply_stencil",
    "apply_stencil_into",
    "bind_terms",
    "residual_sum_squares",
    "ghost_width",
    "pad_with_boundary",
]


def ghost_width(stencil: Stencil) -> int:
    """Ghost-ring width a field needs to host this stencil (its reach)."""
    return stencil.reach


def pad_with_boundary(interior: np.ndarray, stencil: Stencil, value: float = 0.0) -> np.ndarray:
    """Embed an interior field in a ghost ring filled with ``value``.

    The paper assumes constant boundary values; a constant ring is the
    matching discrete boundary condition.
    """
    g = ghost_width(stencil)
    return np.pad(interior, g, mode="constant", constant_values=value)


def _check_weights(stencil: Stencil) -> None:
    if stencil.weights is None:
        raise InvalidParameterError(
            f"stencil {stencil.name!r} is geometric-only (no weights); "
            "use a stencil from repro.stencils.library for numerics"
        )


def apply_stencil(stencil: Stencil, field: np.ndarray) -> np.ndarray:
    """Weighted sum of shifted neighbours over the interior of ``field``.

    ``field`` must include the ghost ring (shape ``(m + 2g, n + 2g)`` for
    an ``m × n`` interior, ``g = stencil.reach``).  Returns the ``m × n``
    interior result; ghost cells are read, never written.
    """
    out = np.zeros(
        (field.shape[0] - 2 * ghost_width(stencil), field.shape[1] - 2 * ghost_width(stencil)),
        dtype=field.dtype,
    )
    apply_stencil_into(stencil, field, out)
    return out


def apply_stencil_into(stencil: Stencil, field: np.ndarray, out: np.ndarray) -> None:
    """As :func:`apply_stencil` but accumulating into a preallocated ``out``.

    Avoids one allocation per sweep, which dominates for small grids
    (see the in-place-operations guidance in the optimization guide).
    """
    terms = bind_terms(stencil, field)
    g = ghost_width(stencil)
    expected = (field.shape[0] - 2 * g, field.shape[1] - 2 * g)
    if out.shape != expected:
        raise InvalidParameterError(f"out has shape {out.shape}, expected {expected}")
    accumulate_terms(terms, out)


def bind_terms(stencil: Stencil, field: np.ndarray) -> tuple[Term, ...]:
    """Check ``field`` against ``stencil`` once and bind its update terms.

    Returns one ``(weight, shifted view of field)`` pair per nonzero
    weight, in ``weights`` order.  The views share ``field``'s storage,
    so a solver binds them once per buffer and reuses them for every
    sweep: what is left per sweep is the arithmetic.
    """
    _check_weights(stencil)
    g = ghost_width(stencil)
    m = field.shape[0] - 2 * g
    n = field.shape[1] - 2 * g
    if m <= 0 or n <= 0:
        raise InvalidParameterError(
            f"field of shape {field.shape} too small for ghost width {g}"
        )
    assert stencil.weights is not None
    return tuple(
        (w, field[g + di : g + di + m, g + dj : g + dj + n])
        for (di, dj), w in stencil.weights.items()
        if w != 0.0
    )


def accumulate_terms(terms: tuple[Term, ...], out: np.ndarray) -> None:
    """``out = 0.0 + w₁·v₁ + w₂·v₂ + …`` over pre-bound terms, in order.

    The sum starts at ``0.0`` rather than at the first term, so a point
    whose terms are all ``−0.0`` comes out ``+0.0``; folding the first
    term in would give ``−0.0`` and change the iterates' bits.
    """
    out.fill(0.0)
    for w, view in terms:
        out += w * view


def residual_sum_squares(old_interior: np.ndarray, new_interior: np.ndarray) -> float:
    """Sum of squared update differences — the paper's convergence number.

    Section 4 describes disseminating exactly this quantity (or a flag
    derived from it) during convergence checking.
    """
    diff = new_interior - old_interior
    return float(np.sum(diff * diff))
