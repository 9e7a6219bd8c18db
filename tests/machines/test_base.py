"""Architecture base behaviour shared by all machines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import Workload
from repro.errors import InvalidParameterError
from repro.machines.base import validate_area
from repro.machines.mesh import MeshGrid
from repro.stencils.library import FIVE_POINT
from repro.stencils.perimeter import PartitionKind


@pytest.fixture
def w():
    return Workload(n=32, stencil=FIVE_POINT)


class TestValidateArea:
    def test_accepts_valid_scalar_and_array(self, w):
        validate_area(w, 16.0)
        validate_area(w, np.array([1.0, 512.0, 1024.0]))

    def test_rejects_nonpositive(self, w):
        with pytest.raises(InvalidParameterError):
            validate_area(w, 0.0)
        with pytest.raises(InvalidParameterError):
            validate_area(w, np.array([4.0, -1.0]))

    def test_rejects_overfull(self, w):
        with pytest.raises(InvalidParameterError, match="exceeds"):
            validate_area(w, 1025.0)


def _outcome(w, area):
    try:
        validate_area(w, area)
    except InvalidParameterError as exc:
        return str(exc)
    return None


class TestValidateAreaScalarPath:
    """Python scalars take a fast path; it must agree with the array path."""

    @pytest.mark.parametrize("value", [0, -1, 1024, 1025, float("nan"), float("inf")])
    def test_scalar_types_agree_with_0d_array(self, w, value):
        areas = [float(value), np.float64(value), np.array(float(value))]
        if isinstance(value, int):
            areas.append(value)
        assert len({_outcome(w, area) for area in areas}) == 1

    def test_nan_passes_and_inf_is_overfull(self, w):
        assert _outcome(w, float("nan")) is None
        assert _outcome(w, float("inf")) == "partition area inf exceeds grid size 1024"

    @given(st.floats(allow_nan=True, allow_infinity=True) | st.integers(-2**40, 2**40))
    @settings(max_examples=200, deadline=None)
    def test_any_scalar_matches_array_path(self, value):
        w = Workload(n=32, stencil=FIVE_POINT)
        expected = _outcome(w, np.array(float(value)))
        assert _outcome(w, value) == expected
        assert _outcome(w, np.float64(value)) == expected


class TestCycleTimeAllProcessors:
    def test_one_processor_is_serial(self, w, mesh=MeshGrid(alpha=1e-6, beta=1e-5)):
        assert mesh.cycle_time_all_processors(
            w, PartitionKind.SQUARE, 1
        ) == pytest.approx(w.serial_time())

    def test_two_processors_pay_communication(self, w):
        mesh = MeshGrid(alpha=1e-6, beta=1e-5)
        t2 = mesh.cycle_time_all_processors(w, PartitionKind.SQUARE, 2)
        assert t2 > w.serial_time() / 2

    def test_rejects_nonpositive_processors(self, w):
        mesh = MeshGrid(alpha=1e-6, beta=1e-5)
        with pytest.raises(InvalidParameterError):
            mesh.cycle_time_all_processors(w, PartitionKind.SQUARE, 0)


class TestMeshInheritance:
    def test_mesh_is_monotone_and_scalable(self):
        mesh = MeshGrid(alpha=1e-6, beta=1e-5)
        assert mesh.monotone_in_processors
        assert mesh.scalable
        assert mesh.name == "mesh"

    def test_mesh_matches_hypercube_cost_model(self, w):
        from repro.machines.hypercube import Hypercube

        mesh = MeshGrid(alpha=1e-6, beta=1e-5, packet_words=16)
        cube = Hypercube(alpha=1e-6, beta=1e-5, packet_words=16)
        a = 64.0
        assert mesh.cycle_time(w, PartitionKind.SQUARE, a) == pytest.approx(
            cube.cycle_time(w, PartitionKind.SQUARE, a)
        )

    def test_convergence_hardware_flag(self):
        assert MeshGrid(alpha=1e-6, beta=1e-5).convergence_hardware
        bare = MeshGrid(alpha=1e-6, beta=1e-5, convergence_hardware=False)
        assert not bare.convergence_hardware
