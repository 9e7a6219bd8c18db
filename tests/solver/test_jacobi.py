"""Jacobi solver: convergence, accuracy, damping, failure modes."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, InvalidParameterError
from repro.solver.convergence import CheckSchedule, InfNormCriterion
from repro.solver.grid import GridField
from repro.solver.jacobi import solve_jacobi
from repro.solver.problems import laplace_problem, poisson_manufactured
from repro.stencils.library import (
    ALL_STENCILS,
    FIVE_POINT,
    NINE_POINT_BOX,
    NINE_POINT_STAR,
    THIRTEEN_POINT,
)

DAMPING = {
    FIVE_POINT.name: 1.0,
    NINE_POINT_BOX.name: 1.0,
    # Fourth-order star schemes need damping: plain Jacobi's symbol
    # exceeds 1 at the highest frequency (|g(pi,pi)| = 34/30).
    NINE_POINT_STAR.name: 0.8,
    THIRTEEN_POINT.name: 0.8,
}


class TestConstantBoundary:
    @pytest.mark.parametrize("stencil", ALL_STENCILS, ids=lambda s: s.name)
    def test_converges_to_constant(self, stencil):
        res = solve_jacobi(
            stencil,
            laplace_problem(1.0),
            12,
            InfNormCriterion(1e-11),
            damping=DAMPING[stencil.name],
            max_iterations=50_000,
        )
        assert res.converged
        np.testing.assert_allclose(res.field.interior, 1.0, atol=1e-8)


class TestPoissonAccuracy:
    def test_five_point_second_order(self):
        problem = poisson_manufactured()
        errors = []
        for n in (8, 16, 32):
            res = solve_jacobi(
                FIVE_POINT, problem, n, InfNormCriterion(1e-13), max_iterations=500_000
            )
            errors.append(
                float(np.max(np.abs(res.field.interior - problem.exact_grid(n))))
            )
        orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert all(o > 1.7 for o in orders)  # h² convergence

    def test_history_is_monotone_eventually(self):
        res = solve_jacobi(
            FIVE_POINT,
            poisson_manufactured(),
            16,
            InfNormCriterion(1e-8),
            max_iterations=100_000,
        )
        tail = res.history[len(res.history) // 2 :]
        assert all(b <= a * 1.001 for a, b in zip(tail, tail[1:]))


class TestSchedules:
    def test_sparse_checking_converges_same_place(self):
        problem = poisson_manufactured()
        every = solve_jacobi(
            FIVE_POINT, problem, 12, InfNormCriterion(1e-9), max_iterations=100_000
        )
        sparse = solve_jacobi(
            FIVE_POINT,
            problem,
            12,
            InfNormCriterion(1e-9),
            schedule=CheckSchedule(10),
            max_iterations=100_000,
        )
        # Sparse checking may overshoot by up to period-1 iterations.
        assert sparse.iterations % 10 == 0
        assert 0 <= sparse.iterations - every.iterations < 10
        assert len(sparse.history) < len(every.history)


class TestFailures:
    def test_exhaustion_raises(self):
        with pytest.raises(ConvergenceError, match="did not converge"):
            solve_jacobi(
                FIVE_POINT,
                poisson_manufactured(),
                32,
                InfNormCriterion(1e-14),
                max_iterations=5,
            )

    def test_bad_damping_rejected(self):
        with pytest.raises(InvalidParameterError):
            solve_jacobi(
                FIVE_POINT, laplace_problem(), 8, damping=1.5
            )

    def test_bad_max_iterations_rejected(self):
        with pytest.raises(InvalidParameterError):
            solve_jacobi(FIVE_POINT, laplace_problem(), 8, max_iterations=0)

    @pytest.mark.parametrize(
        "initial",
        [GridField.zeros(10, FIVE_POINT), GridField.zeros(8, NINE_POINT_STAR)],
        ids=["wrong-side", "wrong-ghost"],
    )
    def test_mismatched_initial_rejected_up_front(self, initial):
        with pytest.raises(InvalidParameterError, match="initial field"):
            solve_jacobi(FIVE_POINT, laplace_problem(), 8, initial=initial)

    def test_final_measure_requires_history(self):
        from repro.solver.jacobi import JacobiResult

        empty = JacobiResult(
            field=GridField.zeros(4, FIVE_POINT), iterations=0, converged=False
        )
        with pytest.raises(ConvergenceError):
            empty.final_measure()


class TestInitialGuess:
    def test_warm_start_converges_faster(self):
        problem = poisson_manufactured()
        cold = solve_jacobi(
            FIVE_POINT, problem, 16, InfNormCriterion(1e-9), max_iterations=100_000
        )
        warm = solve_jacobi(
            FIVE_POINT,
            problem,
            16,
            InfNormCriterion(1e-9),
            max_iterations=100_000,
            initial=cold.field,
        )
        assert warm.iterations < cold.iterations
