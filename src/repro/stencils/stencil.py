"""Discretization stencils as first-class geometric objects.

A stencil is the set of relative grid offsets read when updating one
grid point (Figure 1 of the paper), together with the floating-point
work ``E(S)`` one update costs.  The paper treats ``E(S)`` as a given
constant; here it defaults to the natural operation count of a Jacobi
update with that stencil (one multiply-add per neighbour coefficient
plus the normalization), and can be overridden for other algorithms.

Offsets use matrix convention: ``(di, dj)`` where ``di`` moves between
rows (the strip-partition direction) and ``dj`` within a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from repro.errors import InvalidParameterError

__all__ = ["Stencil", "Offset"]

Offset = tuple[int, int]


def _default_flops(n_neighbors: int) -> float:
    # One add per neighbour term, plus one multiply for the 1/denominator
    # normalization: the classic count for a point-Jacobi update.  The
    # 5-point Laplace stencil costs 5 flops/point under this rule, the
    # 9-point box stencil 10 (its two weight classes add one multiply),
    # matching the constants used to anchor Figure 7.
    return float(n_neighbors + 1)


@dataclass(frozen=True)
class Stencil:
    """An update stencil: offsets touched, their weights, and flop cost.

    Parameters
    ----------
    name:
        Human-readable identifier (``"5-point"`` etc.).
    offsets:
        All relative offsets *read* by one update, excluding the center
        unless the scheme genuinely reads the old center value (Jacobi
        for the Laplace equation does not; the center offset may still
        be included for schemes that need it).
    weights:
        Optional mapping from offset to coefficient for an actual PDE
        update ``u'[i,j] = sum(w * u[i+di, j+dj]) + rhs_scale * f[i,j]``.
        When omitted the stencil is purely geometric (enough for the
        performance model, not for the solver substrate).  Treated as
        immutable, like every field: cache fingerprints memoize a
        stencil's encoding and the reaches are cached on first use, so
        edit a copy, never the mapping in place.
    flops_per_point:
        ``E(S)``, floating point operations per grid-point update.
        Defaults to ``len(offsets) + 1``.
    rhs_scale:
        Coefficient applied to the right-hand side ``f`` in a Jacobi
        update (``-h²/4`` for the 5-point Poisson stencil, already
        folded with the normalization).
    """

    name: str
    offsets: tuple[Offset, ...]
    weights: Mapping[Offset, float] | None = None
    flops_per_point: float = field(default=0.0)
    rhs_scale: float = 0.0

    def __post_init__(self) -> None:
        if not self.offsets:
            raise InvalidParameterError(f"stencil {self.name!r} has no offsets")
        if len(set(self.offsets)) != len(self.offsets):
            raise InvalidParameterError(f"stencil {self.name!r} repeats an offset")
        for di, dj in self.offsets:
            if not (isinstance(di, int) and isinstance(dj, int)):
                raise InvalidParameterError(
                    f"stencil {self.name!r} offset {(di, dj)!r} is not integral"
                )
        if self.weights is not None:
            missing = set(self.weights) - set(self.offsets)
            if missing:
                raise InvalidParameterError(
                    f"stencil {self.name!r} has weights for offsets {sorted(missing)} "
                    "that are not part of the stencil"
                )
        if self.flops_per_point == 0.0:
            object.__setattr__(
                self, "flops_per_point", _default_flops(len(self.offsets))
            )
        if self.flops_per_point <= 0:
            raise InvalidParameterError(
                f"stencil {self.name!r}: flops_per_point must be positive"
            )

    # ---------------------------------------------------------------- geometry

    @cached_property
    def reach_rows(self) -> int:
        """Maximum row distance read: ``max |di|``."""
        return max(abs(di) for di, _ in self.offsets)

    @cached_property
    def reach_cols(self) -> int:
        """Maximum column distance read: ``max |dj|``."""
        return max(abs(dj) for _, dj in self.offsets)

    @cached_property
    def reach(self) -> int:
        """Chebyshev radius: perimeters needed around a 2-D partition."""
        return max(self.reach_rows, self.reach_cols)

    @property
    def has_diagonals(self) -> bool:
        """True when any offset moves in both dimensions at once.

        Diagonal offsets force corner points of a square partition to be
        communicated; the paper's footnote 4 notes the (small) error of
        ignoring them in the volume count.
        """
        return any(di != 0 and dj != 0 for di, dj in self.offsets)

    @property
    def n_points(self) -> int:
        """Number of distinct points read per update (center excluded if absent)."""
        return len(self.offsets)

    def halo_offsets(self) -> tuple[Offset, ...]:
        """Offsets that can leave a partition (everything but ``(0, 0)``)."""
        return tuple(o for o in self.offsets if o != (0, 0))

    # ---------------------------------------------------------------- algebra

    def with_flops(self, flops_per_point: float) -> "Stencil":
        """Copy of this stencil with a different ``E(S)``.

        Lets callers model algorithms with extra per-point work (e.g. a
        convergence check roughly adds 50% for the 5-point stencil,
        Section 4) without redefining the geometry.
        """
        return Stencil(
            name=self.name,
            offsets=self.offsets,
            weights=self.weights,
            flops_per_point=flops_per_point,
            rhs_scale=self.rhs_scale,
        )

    def scaled(self, factor: float, name: str | None = None) -> "Stencil":
        """Copy with ``E(S)`` multiplied by ``factor`` (>0)."""
        if factor <= 0:
            raise InvalidParameterError("scale factor must be positive")
        return Stencil(
            name=name or f"{self.name}x{factor:g}",
            offsets=self.offsets,
            weights=self.weights,
            flops_per_point=self.flops_per_point * factor,
            rhs_scale=self.rhs_scale,
        )

    def ascii_art(self) -> str:
        """Render the stencil footprint as ASCII (Figure 1 / Figure 3)."""
        r_i = self.reach_rows
        r_j = self.reach_cols
        rows = []
        present = set(self.offsets)
        for di in range(-r_i, r_i + 1):
            cells = []
            for dj in range(-r_j, r_j + 1):
                if (di, dj) == (0, 0):
                    cells.append("o" if (0, 0) in present else "+")
                elif (di, dj) in present:
                    cells.append("*")
                else:
                    cells.append(".")
            rows.append(" ".join(cells))
        return "\n".join(rows)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Stencil({self.name}, E={self.flops_per_point:g}, k_reach={self.reach})"


def stencil_from_offsets(
    name: str, offsets: Iterable[Offset], flops_per_point: float | None = None
) -> Stencil:
    """Convenience constructor for purely geometric stencils."""
    return Stencil(
        name=name,
        offsets=tuple(offsets),
        flops_per_point=float(flops_per_point) if flops_per_point else 0.0,
    )
