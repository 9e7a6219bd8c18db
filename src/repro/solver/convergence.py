"""Convergence criteria, checking schedules, and their modelled costs.

Section 4 observes that a convergence check is expensive twice over:
extra computation (comparing every updated point against its last
value — up to ~50% of a 5-point update) and non-local communication
(disseminating a flag or a sum of squared differences).  Saltz, Naik &
Nicol showed scheduled checking (every ``m`` iterations) makes the cost
insignificant on hypercubes; mesh machines with convergence hardware
pay nothing; on buses the dissemination is one number per processor and
is ignored by the paper.

This module provides the criteria used by the actual solver plus the
cost model used by the performance layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.parameters import Workload
from repro.errors import InvalidParameterError
from repro.machines.banyan import BanyanNetwork
from repro.machines.base import Architecture
from repro.machines.bus import BusArchitecture
from repro.machines.hypercube import Hypercube
from repro.machines.mesh import MeshGrid

__all__ = [
    "Criterion",
    "InfNormCriterion",
    "SumSquaresCriterion",
    "CheckSchedule",
    "convergence_check_flops",
    "dissemination_time",
    "checked_cycle_time",
]


class Criterion:
    """Convergence test over successive iterates (interface)."""

    def measure(self, old: np.ndarray, new: np.ndarray) -> float:
        raise NotImplementedError

    def is_converged(self, value: float) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class InfNormCriterion(Criterion):
    """Converged when ``max |u_new − u_old| ≤ tol``."""

    tol: float

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise InvalidParameterError("tolerance must be positive")

    def measure(self, old: np.ndarray, new: np.ndarray) -> float:
        # The ndarray method skips np.max's dispatch; same reduction.
        return float(np.abs(new - old).max())

    def is_converged(self, value: float) -> bool:
        return value <= self.tol


@dataclass(frozen=True)
class SumSquaresCriterion(Criterion):
    """Converged when ``Σ (u_new − u_old)² ≤ tol`` — the paper's
    disseminated quantity (partitions sum locally, then combine)."""

    tol: float

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise InvalidParameterError("tolerance must be positive")

    def measure(self, old: np.ndarray, new: np.ndarray) -> float:
        diff = new - old
        return float((diff * diff).sum())

    def is_converged(self, value: float) -> bool:
        return value <= self.tol


@dataclass(frozen=True)
class CheckSchedule:
    """Check every ``period`` iterations (1 = every iteration).

    Scheduled checking trades extra iterations (you may overshoot by up
    to ``period − 1``) for fewer expensive dissemination rounds — the
    Saltz–Naik–Nicol strategy the paper cites to justify ignoring
    convergence cost on available hypercubes.
    """

    period: int = 1

    def __post_init__(self) -> None:
        if self.period < 1:
            raise InvalidParameterError("check period must be >= 1")

    def should_check(self, iteration: int) -> bool:
        """1-based iteration counter."""
        return iteration % self.period == 0


def convergence_check_flops(workload: Workload, area: float) -> float:
    """Extra flops one partition spends measuring its local convergence.

    Per point: subtract, square, accumulate ≈ 3 flops — about 50% of a
    5-point update's ``E = 5``+1, consistent with Section 4's "can be
    50% of the grid update computation" for small stencils.
    """
    if area <= 0:
        raise InvalidParameterError("area must be positive")
    return 3.0 * area


def dissemination_time(machine: Architecture, processors: float) -> float:
    """Time to combine-and-broadcast one scalar across ``processors``.

    * hypercube: two log₂(P) sweeps of one-word messages (reduce +
      broadcast), each costing a startup-dominated message;
    * mesh with convergence hardware: free; without: 2·(P side) hops;
    * bus: one word from each processor, serialized — ``P·(c + b)``;
    * banyan: a reduce tree through the network, 2·log₂(P) word reads.
    """
    if processors < 1:
        raise InvalidParameterError("processors must be >= 1")
    if processors == 1:
        return 0.0
    if isinstance(machine, MeshGrid):
        if machine.convergence_hardware:
            return 0.0
        side = math.sqrt(processors)
        return 2.0 * 2.0 * side * float(machine.message_time(1))
    if isinstance(machine, Hypercube):
        rounds = 2.0 * math.log2(processors)
        return rounds * float(machine.message_time(1))
    if isinstance(machine, BusArchitecture):
        return processors * (machine.c + machine.b)
    if isinstance(machine, BanyanNetwork):
        return 2.0 * float(machine.read_word_time(processors))
    raise InvalidParameterError(f"no dissemination model for {machine.name!r}")


def checked_cycle_time(
    machine: Architecture,
    workload: Workload,
    kind,
    area: float,
    schedule: CheckSchedule = CheckSchedule(1),
) -> float:
    """Average per-iteration time including scheduled convergence checks.

    Adds the local check flops and the dissemination time, amortized
    over the schedule period.
    """
    base = float(machine.cycle_time(workload, kind, area))
    processors = workload.grid_points / area
    extra_comp = convergence_check_flops(workload, area) * workload.t_flop
    extra_comm = dissemination_time(machine, processors)
    return base + (extra_comp + extra_comm) / schedule.period
