"""Golden solver corpus: iterates must not drift by a single bit.

``solver_golden.json`` pins, for every case below, the sha256 of the
returned ``field.data`` bytes (ghost ring included), the iteration
count, and the criterion history as ``float.hex`` strings.  The cases
cover the sequential, partitioned (strip and block) and red-black
solvers across the 5-point, 9-point-box and damped 9-point-star
stencils, both criteria, two check schedules, both model problems and
an ``initial=`` start.  Any change to the sweep arithmetic or its
order shows up here as a changed hash, so the fixture is regenerated
only for a deliberate numerical change::

    PYTHONPATH=src python tests/solver/test_solver_golden.py --write
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
import pytest

from repro.partitioning.decomposition import decomposition_for
from repro.solver.convergence import CheckSchedule, InfNormCriterion, SumSquaresCriterion
from repro.solver.grid import GridField
from repro.solver.jacobi import JacobiResult, solve_jacobi
from repro.solver.parallel import solve_jacobi_parallel
from repro.solver.problems import laplace_problem, poisson_manufactured
from repro.solver.sor import solve_sor
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX, NINE_POINT_STAR

FIXTURE = Path(__file__).with_name("solver_golden.json")

STENCILS = {
    "5pt": (FIVE_POINT, 1.0),
    "9box": (NINE_POINT_BOX, 1.0),
    "9star": (NINE_POINT_STAR, 0.8),
}
PROBLEMS = {"poisson": poisson_manufactured(), "laplace1": laplace_problem(1.0)}
CRITERIA = {"inf": InfNormCriterion(1e-7), "sumsq": SumSquaresCriterion(1e-12)}
N = 8


def _mixed_sign_start(n: int) -> GridField:
    """A rough start with both signs, so the solve has real work to do."""
    return GridField.from_function(
        n,
        FIVE_POINT,
        lambda x, y: np.sin(3 * math.pi * x) * np.cos(2 * math.pi * y) - 0.5,
        boundary_value=1.0,
    )


def _cases() -> Iterator[tuple[str, Callable[[], JacobiResult]]]:
    checks = [(c, period) for c in CRITERIA for period in (1, 3)]
    # The partitioned runs rotate through the four checks, one rotation per
    # decomposition, so every (decomposition, criterion, schedule) appears.
    rotation = {"strip": itertools.cycle(checks), "block": itertools.cycle(checks[::-1])}
    for sname, (stencil, damping) in STENCILS.items():
        for pname, problem in PROBLEMS.items():
            for cname, period in checks:
                yield f"jacobi/{sname}/{pname}/{cname}/every{period}", (
                    lambda stencil=stencil, problem=problem, cname=cname,
                    period=period, damping=damping: solve_jacobi(
                        stencil, problem, N, CRITERIA[cname], CheckSchedule(period),
                        max_iterations=20_000, damping=damping,
                    )
                )
            for procs, kind in ((3, "strip"), (4, "block")):
                cname, period = next(rotation[kind])
                yield f"parallel-{kind}{procs}/{sname}/{pname}/{cname}/every{period}", (
                    lambda stencil=stencil, problem=problem, cname=cname,
                    period=period, damping=damping, procs=procs, kind=kind:
                    solve_jacobi_parallel(
                        stencil, problem, decomposition_for(N, procs, kind),
                        CRITERIA[cname], CheckSchedule(period),
                        max_iterations=20_000, damping=damping,
                    )
                )
    yield "jacobi/5pt/laplace1/inf/every1/initial", lambda: solve_jacobi(
        FIVE_POINT, laplace_problem(1.0), N, CRITERIA["inf"], initial=_mixed_sign_start(N),
    )
    for pname, problem in PROBLEMS.items():
        for cname, period in (("inf", 1), ("sumsq", 3)):
            yield f"sor/5pt/{pname}/{cname}/every{period}", (
                lambda problem=problem, cname=cname, period=period: solve_sor(
                    problem, N, criterion=CRITERIA[cname], schedule=CheckSchedule(period)
                )
            )


CASES = dict(_cases())


def _entry(result: JacobiResult) -> dict[str, object]:
    return {
        "sha256": hashlib.sha256(result.field.data.tobytes()).hexdigest(),
        "iterations": result.iterations,
        "history": [float(m).hex() for m in result.history],
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, object]]:
    return json.loads(FIXTURE.read_text())


def test_cases_match_fixture_entries(golden):
    assert sorted(CASES) == sorted(golden)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_solve_matches_golden(golden, case_id):
    assert _entry(CASES[case_id]()) == golden[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_solver_golden.py --write")
    lines = [f" {json.dumps(k)}: {json.dumps(_entry(fn()))}" for k, fn in sorted(CASES.items())]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {FIXTURE}")
