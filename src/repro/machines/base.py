"""Architecture interface: everything the model needs from a machine.

Each architecture supplies one iteration's cycle time

``t_cycle(A) = t_comp(A) + t_a(A)``      (equation (1))

as a function of partition area ``A`` (points per processor), partition
shape, and the workload.  Implementations must accept float areas — the
paper's analysis is continuous, with integrality restored afterwards by
:mod:`repro.core.allocation` — and must be NumPy-friendly so curves can
be evaluated over arrays of areas in one call.

The key structural property the paper exploits is whether ``t_cycle``
is *monotone decreasing in the processor count* (hypercube, mesh,
banyan: optimal allocation is extremal) or can have an *interior
minimum* (buses: contention grows with processors).  Machines declare
this via :attr:`Architecture.monotone_in_processors`.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.core.parameters import Workload
from repro.errors import InvalidParameterError
from repro.stencils.perimeter import PartitionKind, perimeters_required
from repro.stencils.stencil import Stencil

__all__ = ["Architecture", "validate_area", "validate_area_grid", "perimeter_words_grid"]


def validate_area_grid(n: np.ndarray, area: np.ndarray) -> None:
    """Grid analogue of :func:`validate_area`: positive, at most ``n²``."""
    if np.any(area <= 0):
        raise InvalidParameterError("partition area must be positive")
    if np.any(area > n * n):
        raise InvalidParameterError("partition area exceeds grid size")


def perimeter_words_grid(
    stencil: Stencil,
    kind: PartitionKind,
    n: Any,
    area: Any,
    strip_coeff: float,
    square_coeff: float,
) -> np.ndarray:
    """Section-3 boundary word volumes broadcast over (grid side, area).

    The one pattern every grid model shares: ``strip_coeff·k·n`` words
    for strips, ``square_coeff·k·√A`` for squares.  Machines differ only
    in the coefficients (bus/banyan reads: 2 and 4; hypercube
    per-message events: 1 and 1), so they all call this instead of
    keeping hand-copied transcriptions in sync.
    """
    k = perimeters_required(kind, stencil)
    n_arr = np.asarray(n, dtype=float)
    a_arr = np.asarray(area, dtype=float)
    if kind is PartitionKind.STRIP:
        return strip_coeff * k * n_arr + 0.0 * a_arr
    return square_coeff * k * np.sqrt(a_arr)


def validate_area(workload: Workload, area: Any) -> None:
    """Reject non-positive or over-full partition areas.

    Accepts scalars or arrays; an area may not exceed the whole grid
    (that would mean fewer than one processor).  A NaN area passes, as
    both comparisons are false.
    """
    if isinstance(area, (float, int)):
        # The scalar searches' hot path (``np.float64`` is a ``float``):
        # the array path's comparisons and messages without its array calls.
        value = float(area)
        if value <= 0:
            raise InvalidParameterError("partition area must be positive")
        if value > workload.grid_points:
            raise InvalidParameterError(
                f"partition area {value} exceeds grid size {workload.grid_points}"
            )
        return
    arr = np.asarray(area, dtype=float)
    if np.any(arr <= 0):
        raise InvalidParameterError("partition area must be positive")
    if np.any(arr > workload.grid_points):
        raise InvalidParameterError(
            f"partition area {np.max(arr)} exceeds grid size {workload.grid_points}"
        )


class Architecture(abc.ABC):
    """A parallel machine's communication model.

    Two evaluation surfaces are exposed:

    * the scalar/area API (``cycle_time``, ``communication_time``) bound
      to a single :class:`Workload` — one grid size at a time;
    * the *grid* API (``cycle_time_grid`` and friends), which broadcasts
      over arrays of grid sides **and** partition areas simultaneously,
      so a whole (N, P) sweep costs one vectorized call.  The batch
      sweep engine (:mod:`repro.batch`) is built on this surface.
    """

    #: Human-readable architecture family name.
    name: str = "abstract"

    #: True when t_cycle is monotone in the processor count, making the
    #: optimal allocation extremal (Sections 4, 5, 7); False for buses.
    monotone_in_processors: bool = True

    #: True when the machine size is in principle unbounded (hypercube,
    #: banyan built to order); False when vendors cap it (buses, tens of
    #: processors).  Informational — callers pass explicit caps.
    scalable: bool = True

    # ------------------------------------------------------------ interface

    @abc.abstractmethod
    def communication_time(
        self, workload: Workload, kind: PartitionKind, area: Any
    ) -> Any:
        """``t_a``: data access/transfer + synchronization time per cycle.

        For overlap-capable machines this is the *non-overlapped* part,
        i.e. whatever extends the cycle beyond pure computation; the
        asynchronous bus overrides :meth:`cycle_time` instead because
        its overlap is a ``max``, not a sum.
        """

    def cycle_time(self, workload: Workload, kind: PartitionKind, area: Any) -> Any:
        """``t_cycle = t_comp + t_a`` (equation (1))."""
        validate_area(workload, area)
        comp = workload.flops_per_point * np.asarray(area, dtype=float) * workload.t_flop
        total = comp + self.communication_time(workload, kind, area)
        if np.ndim(area) == 0:
            return float(total)
        return total

    # ------------------------------------------------------------- grid API

    def _overrides_any(self, owner: type, *method_names: str) -> bool:
        """True when this instance's class overrides any named method.

        The closed-form grid transcriptions are only valid for the
        scalar formulas they were copied from; a subclass that swaps a
        scalar hook must be routed to the grouped scalar fallback or
        the engine's bit-equality contract breaks silently.
        """
        return any(
            getattr(type(self), name) is not getattr(owner, name)
            for name in method_names
        )

    def _grouped_scalar_grid(
        self,
        method_name: str,
        stencil: Stencil,
        t_flop: float,
        kind: PartitionKind,
        n: Any,
        area: Any,
    ) -> np.ndarray:
        """Evaluate a scalar-API method over broadcast (n, area) arrays.

        Groups cells by grid side, builds one :class:`Workload` per
        side, and calls the named scalar method with that side's area
        slice — bit-exact with per-point evaluation by construction,
        since it *is* the scalar code.  Both grid fallbacks share this.
        """
        from repro.core.parameters import Workload

        n_b, a_b = np.broadcast_arrays(
            np.asarray(n, dtype=float), np.asarray(area, dtype=float)
        )
        out = np.empty(n_b.shape, dtype=float)
        for side in np.unique(n_b):
            mask = n_b == side
            workload = Workload(n=int(side), stencil=stencil, t_flop=t_flop)
            out[mask] = np.asarray(
                getattr(self, method_name)(workload, kind, a_b[mask]), dtype=float
            )
        return out

    def communication_time_grid(
        self,
        stencil: Stencil,
        t_flop: float,
        kind: PartitionKind,
        n: Any,
        area: Any,
    ) -> np.ndarray:
        """``t_a`` broadcast over arrays of grid sides ``n`` and areas.

        The base implementation defers to the scalar
        :meth:`communication_time` grouped by grid side, so any
        architecture works unmodified; the catalog machines override it
        with closed-form broadcasting (no Python-level loop at all).
        """
        return self._grouped_scalar_grid(
            "communication_time", stencil, t_flop, kind, n, area
        )

    def cycle_time_area_grid(
        self,
        stencil: Stencil,
        t_flop: float,
        kind: PartitionKind,
        n: Any,
        area: Any,
    ) -> np.ndarray:
        """``t_cycle = t_comp + t_a`` over broadcast (n, area) arrays.

        The direct grid analogue of :meth:`cycle_time`: no one-processor
        special case (callers comparing against the serial run handle
        that, exactly as the scalar optimizer does).

        A subclass that redefines :meth:`cycle_time` itself (an overlap
        ``max`` instead of the ``comp + comm`` sum) must either override
        this too or get the grouped scalar fallback below — composing
        ``comp + communication_time_grid`` for such a machine would be
        only algebraically, not bitwise, equal to its cycle time.
        """
        n_arr = np.asarray(n, dtype=float)
        a_arr = np.asarray(area, dtype=float)
        validate_area_grid(n_arr, a_arr)
        if type(self).cycle_time is not Architecture.cycle_time:
            return self._grouped_scalar_grid(
                "cycle_time", stencil, t_flop, kind, n_arr, a_arr
            )
        comp = stencil.flops_per_point * a_arr * t_flop
        return comp + self.communication_time_grid(stencil, t_flop, kind, n_arr, a_arr)

    def cycle_time_grid(
        self,
        stencil: Stencil,
        t_flop: float,
        kind: PartitionKind,
        n: Any,
        processors: Any,
    ) -> np.ndarray:
        """``t_cycle`` over a broadcast (grid side, processor count) grid.

        ``P = 1`` maps to the serial time (no communication, Section 4),
        mirroring :func:`repro.core.cycle_time.cycle_time_vs_processors`.
        """
        n_arr, p_arr = np.broadcast_arrays(
            np.asarray(n, dtype=float), np.asarray(processors, dtype=float)
        )
        if np.any(p_arr < 1):
            raise InvalidParameterError("processor counts must be >= 1")
        n2 = n_arr * n_arr
        out = self.cycle_time_area_grid(stencil, t_flop, kind, n_arr, n2 / p_arr)
        serial = stencil.flops_per_point * n2 * t_flop
        return np.where(p_arr == 1.0, serial, out)

    # ----------------------------------------------------------- conveniences

    def cycle_time_all_processors(
        self, workload: Workload, kind: PartitionKind, processors: float
    ) -> float:
        """Cycle time when the grid is spread over ``processors`` machines."""
        if processors <= 0:
            raise InvalidParameterError("processors must be positive")
        if processors == 1:
            # One processor suffers no communication (Section 4).
            return workload.serial_time()
        return float(
            self.cycle_time(workload, kind, workload.grid_points / processors)
        )

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"
