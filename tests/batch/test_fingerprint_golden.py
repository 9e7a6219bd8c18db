"""Golden fingerprints: persisted cache keys must not drift.

Fingerprints name entries in every on-disk cache, so they are a stored
format.  ``fingerprint_golden.json`` holds ``[key, compat]`` — the
fingerprints — of every catalog preset × stencil × partition kind ×
request family, plus the raw allocation request built by
``_allocation_request`` (the ``alloc-sharded/`` entries, named after
a path that has since been removed) and a few non-catalog machines
and stencils.  A change to any of them is a format
bump that invalidates existing disk caches; it must be deliberate, with
the fixture regenerated and the bump recorded in the change log::

    PYTHONPATH=src python tests/batch/test_fingerprint_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Iterator

import pytest

from repro.batch import SweepSpec, fingerprint
from repro.batch.analysis import _allocation_request
from repro.graph import nodes
from repro.machines.bus import AsynchronousBus, BusArchitecture, SynchronousBus
from repro.machines.bus_extensions import FullyAsynchronousBus
from repro.machines.catalog import DEFAULT_MACHINES
from repro.machines.hypercube import Hypercube
from repro.machines.mapping import RandomMappingHypercube
from repro.machines.mesh import MeshGrid
from repro.stencils.library import ALL_STENCILS, FIVE_POINT
from repro.stencils.perimeter import PartitionKind
from repro.stencils.stencil import Stencil

FIXTURE = Path(__file__).with_name("fingerprint_golden.json")

GRID_SIDES = [16, 64, 100, 257, 1024]
PROCESSORS = [2, 4, 8, 16, 33]
SEEDS = [0, 1, 12345, 2**63, 2**64 - 1]
SWEEP_PROCESSORS = [1.0, 2.0, 3.5, 8.0, 16.0]

#: Machines and stencils outside the catalog: a read-only bus (shares a
#: closed form with a doubled read-write bus), an asynchronous bus whose
#: volume mode is dropped from its key, bus and hypercube subclasses
#: that keep the generic field encoding, and stencils made by
#: ``with_flops``/``scaled`` or without weights.
EXTRA_MACHINES: dict[str, Any] = {
    "sync-read-only": SynchronousBus(b=1e-6, c=2e-4, volume_mode="read_only"),
    "sync-read-write-half": SynchronousBus(b=5e-7, c=1e-4),
    "async-read-only": AsynchronousBus(b=3e-6, c=0.0, volume_mode="read_only"),
    "fully-async": FullyAsynchronousBus(b=2e-6, c=1e-5),
    "hypercube-random": RandomMappingHypercube(alpha=1e-6, beta=1e-4, packet_words=32),
    "hypercube-custom": Hypercube(alpha=-0.0, beta=1e-5, packet_words=16),
    "mesh-custom": MeshGrid(alpha=2e-6, beta=3e-4),
}
EXTRA_STENCILS = (
    FIVE_POINT.with_flops(7.5),
    FIVE_POINT.scaled(2.0),
    Stencil(name="cross-unweighted", offsets=((0, 1), (1, 0), (0, -1), (-1, 0), (2, 0))),
)


def _combos() -> Iterator[tuple[str, Any, Stencil]]:
    """Every catalog preset × catalog stencil, plus the non-catalog extras."""
    for mname, machine in DEFAULT_MACHINES.items():
        for stencil in ALL_STENCILS:
            yield mname, machine, stencil
    for mname, machine in EXTRA_MACHINES.items():
        yield mname, machine, FIVE_POINT
    for mname in ("paper-bus", "ipsc"):
        for stencil in EXTRA_STENCILS:
            yield mname, DEFAULT_MACHINES[mname], stencil


def _cases() -> Iterator[tuple[str, Any]]:
    """``(case id, node or request tuple)`` for every golden entry."""
    for mname, machine in {**DEFAULT_MACHINES, **EXTRA_MACHINES}.items():
        if isinstance(machine, BusArchitecture):
            yield f"plan_grid/{mname}", nodes.plan_grid(machine, PROCESSORS)
    for mname, machine, stencil in _combos():
        is_bus = isinstance(machine, BusArchitecture)
        sid = f"{mname}/{stencil.name}/E={stencil.flops_per_point!r}"
        yield f"strip_square/{sid}", nodes.strip_square_ratio(machine, stencil, GRID_SIDES)
        for kind in PartitionKind:
            cid = f"{sid}/{kind.value}"
            for integer in (False, True):
                yield f"alloc/{cid}/integer={integer}", nodes.allocation_curve(
                    machine, stencil, kind, GRID_SIDES, integer=integer
                )
            yield f"alloc/{cid}/capped", nodes.allocation_curve(
                machine, stencil, kind, GRID_SIDES, t_flop=2e-6, max_processors=24
            )
            yield f"alloc-sharded/{cid}", _allocation_request(
                machine, stencil, kind, GRID_SIDES, 1e-6, None, False
            )
            yield f"ratio/{cid}", nodes.speedup_ratio(
                machine, DEFAULT_MACHINES["ipsc"], stencil, kind, GRID_SIDES
            )
            if is_bus:
                yield f"max_useful/{cid}", nodes.max_useful_processors(
                    machine, stencil, kind, GRID_SIDES
                )
                yield f"n2_min/{cid}", nodes.minimal_problem_size(
                    machine, stencil, kind, PROCESSORS
                )
            yield f"isoefficiency/{cid}", nodes.isoefficiency_fit(
                machine, stencil, kind, PROCESSORS, target_efficiency=0.6
            )
            yield f"grid_for_efficiency/{cid}", nodes.grid_for_efficiency(
                machine, stencil, kind, PROCESSORS, 0.5
            )
            yield f"sim_sweep/{cid}", nodes.sim_sweep(
                machine, stencil, kind, 64, 16, SEEDS, mode="pipelined", jitter=0.25
            )
            yield f"sim_validate/{cid}", nodes.sim_validate(
                machine, stencil, kind, 128, PROCESSORS
            )
    for stencil in (*ALL_STENCILS, *EXTRA_STENCILS):
        for kind in PartitionKind:
            sid = f"{stencil.name}/E={stencil.flops_per_point!r}/{kind.value}"
            yield f"sweep/catalog/{sid}", nodes.sweep(
                SweepSpec.across_catalog(
                    GRID_SIDES, SWEEP_PROCESSORS, stencil=stencil, kind=kind
                )
            )
    yield "sweep/extras", nodes.sweep(
        SweepSpec.across_catalog(GRID_SIDES, SWEEP_PROCESSORS, machines=EXTRA_MACHINES)
    )


def _entry(subject: Any) -> list[str | None]:
    """``[key, compat]``; a bare request tuple has no compat fingerprint."""
    if isinstance(subject, tuple):
        return [fingerprint(subject), None]
    return [subject.key, subject.compat]


def corpus() -> dict[str, list[str | None]]:
    out: dict[str, list[str | None]] = {}
    for case_id, subject in _cases():
        assert case_id not in out, case_id
        out[case_id] = _entry(subject)
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, list[str | None]]:
    return json.loads(FIXTURE.read_text())


def test_fingerprints_match_golden(golden):
    current = corpus()
    assert sorted(current) == sorted(golden), "cases and fixture entries differ"
    drifted = sorted(k for k in golden if current[k] != golden[k])
    assert not drifted, f"{len(drifted)} persisted fingerprints changed: {drifted[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_fingerprint_golden.py --write")
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(corpus().items())]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {FIXTURE}")
