"""Partitioned Jacobi: bit-identical execution and measured halo traffic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConvergenceError, InvalidParameterError
from repro.partitioning.decomposition import decomposition_for
from repro.solver.convergence import InfNormCriterion, SumSquaresCriterion
from repro.solver.jacobi import solve_jacobi
from repro.solver.parallel import ParallelJacobi, solve_jacobi_parallel
from repro.solver.problems import laplace_problem, poisson_manufactured
from repro.stencils.library import FIVE_POINT, NINE_POINT_BOX, NINE_POINT_STAR


class TestBitIdentical:
    @pytest.mark.parametrize(
        "procs,kind",
        [(2, "strip"), (4, "strip"), (4, "block"), (6, "block"), (9, "block")],
    )
    def test_matches_sequential_exactly(self, procs, kind):
        problem = poisson_manufactured()
        dec = decomposition_for(24, procs, kind)
        seq = solve_jacobi(
            FIVE_POINT, problem, 24, InfNormCriterion(1e-9), max_iterations=100_000
        )
        par = solve_jacobi_parallel(
            FIVE_POINT, problem, dec, InfNormCriterion(1e-9), max_iterations=100_000
        )
        assert par.iterations == seq.iterations
        assert np.array_equal(par.field.interior, seq.field.interior)

    @pytest.mark.parametrize("stencil", [NINE_POINT_BOX, NINE_POINT_STAR],
                             ids=lambda s: s.name)
    def test_wide_and_diagonal_stencils(self, stencil):
        """Reach-2 and corner halos exercise the general exchange plan."""
        problem = laplace_problem(1.0)
        dec = decomposition_for(20, 4, "block")
        damping = 0.8 if stencil is NINE_POINT_STAR else 1.0
        seq = solve_jacobi(
            stencil, problem, 20, InfNormCriterion(1e-10),
            max_iterations=100_000, damping=damping,
        )
        par = solve_jacobi_parallel(
            stencil, problem, dec, InfNormCriterion(1e-10),
            max_iterations=100_000, damping=damping,
        )
        assert np.array_equal(par.field.interior, seq.field.interior)

    @given(
        procs=st.integers(min_value=1, max_value=8),
        kind=st.sampled_from(["strip", "block"]),
    )
    @settings(max_examples=10, deadline=None)
    def test_single_sweep_identity_property(self, procs, kind):
        """One parallel sweep == one sequential sweep, any decomposition."""
        problem = poisson_manufactured()
        n = 16
        dec = decomposition_for(n, procs, kind)
        runner = ParallelJacobi(FIVE_POINT, problem, dec)
        runner.sweep()
        parallel_result = runner.gather().interior.copy()

        from repro.solver.grid import GridField
        from repro.solver.jacobi import jacobi_sweep

        fld = GridField.zeros(n, FIVE_POINT, problem.boundary_value)
        fld.set_boundary(problem.boundary_value)
        scratch = np.empty((n, n))
        jacobi_sweep(FIVE_POINT, fld, scratch, problem.rhs_grid(n))
        np.testing.assert_array_equal(parallel_result, fld.interior)


class TestHaloTraffic:
    def test_strip_volumes_match_model(self):
        dec = decomposition_for(64, 4, "strip")
        runner = ParallelJacobi(FIVE_POINT, laplace_problem(), dec)
        volumes = runner.read_volume_per_rank()
        # Interior strips read 2kn, edge strips kn (model counts interior).
        assert volumes[1] == 2 * 64
        assert volumes[0] == 64

    def test_words_counted_during_exchange(self):
        dec = decomposition_for(32, 4, "block")
        runner = ParallelJacobi(FIVE_POINT, laplace_problem(), dec)
        words = runner.exchange_halos()
        assert words == sum(runner.read_volume_per_rank())
        assert runner.words_exchanged_last_iteration == words

    def test_reach_two_stencil_doubles_strip_traffic(self):
        dec = decomposition_for(32, 4, "strip")
        r1 = ParallelJacobi(FIVE_POINT, laplace_problem(), dec)
        r2 = ParallelJacobi(NINE_POINT_STAR, laplace_problem(), dec, damping=0.8)
        assert r2.read_volume_per_rank()[1] == 2 * r1.read_volume_per_rank()[1]


class TestCriteria:
    def test_sum_squares_reduction_matches_sequential(self):
        problem = poisson_manufactured()
        dec = decomposition_for(16, 4, "block")
        seq = solve_jacobi(
            FIVE_POINT, problem, 16, SumSquaresCriterion(1e-16),
            max_iterations=100_000,
        )
        par = solve_jacobi_parallel(
            FIVE_POINT, problem, dec, SumSquaresCriterion(1e-16),
            max_iterations=100_000,
        )
        assert par.iterations == seq.iterations
        np.testing.assert_allclose(par.history, seq.history, rtol=1e-12)


class TestFailures:
    def test_bad_max_iterations_rejected_like_sequential(self):
        dec = decomposition_for(8, 4, "block")
        with pytest.raises(InvalidParameterError, match="max_iterations must be >= 1"):
            solve_jacobi_parallel(FIVE_POINT, laplace_problem(), dec, max_iterations=0)

    def test_exhaustion_raises(self):
        dec = decomposition_for(16, 4, "strip")
        with pytest.raises(ConvergenceError, match="did not converge in 3 iterations"):
            solve_jacobi_parallel(
                FIVE_POINT, poisson_manufactured(), dec, InfNormCriterion(1e-14),
                max_iterations=3,
            )


class TestDoubleBuffering:
    def test_sweeps_alternate_buffers_and_keep_boundary(self):
        problem = laplace_problem(1.0)
        dec = decomposition_for(12, 4, "block")
        runner = ParallelJacobi(FIVE_POINT, problem, dec)
        first = runner.locals
        runner.sweep()
        assert runner.locals is not first
        runner.sweep()
        assert runner.locals is first
        assert runner.iterations == 2
        # Ghosts on the domain boundary keep the boundary value in both buffers.
        for buffer in runner.buffers:
            assert buffer[0][0, :].tolist() == [1.0] * buffer[0].shape[1]
