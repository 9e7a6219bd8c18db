"""The fast canonical encoding equals the generic one it replaced.

``_oracle`` below is the type-chain encoding :func:`_canonical` used
before it gained exact-type dispatch, the all-``int`` tuple shortcut,
and per-instance memos on machines and stencils.  Fingerprints are a
persisted format, so the two must agree byte for byte on every input,
including the awkward ones: ``bool`` and ``IntEnum`` inside int tuples,
NumPy scalars, signed zeros and NaNs, nested mappings and dataclasses.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import pickle
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.cache import _canonical, _canonical_bus, _has_stable_repr, fingerprint
from repro.batch.engine import SweepSpec
from repro.core.parameters import Workload
from repro.errors import InvalidParameterError
from repro.machines.base import Architecture
from repro.machines.bus import SynchronousBus
from repro.machines.catalog import DEFAULT_MACHINES
from repro.machines.hypercube import Hypercube
from repro.stencils.library import ALL_STENCILS, FIVE_POINT
from repro.stencils.perimeter import PartitionKind
from repro.stencils.stencil import Stencil


def _oracle(obj: object) -> object:
    """The encoding as it stood before the fast paths (test-only copy)."""
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return (
            "ndarray",
            data.shape,
            data.dtype.str,
            hashlib.sha256(data.tobytes()).hexdigest(),
        )
    bus = _canonical_bus(obj)
    if bus is not None:
        return bus
    if is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__qualname__,
            tuple((f.name, _oracle(getattr(obj, f.name))) for f in fields(obj)),
        )
    if isinstance(obj, enum.Enum):
        return (type(obj).__qualname__, obj.value)
    if isinstance(obj, Mapping):
        return (
            "map",
            tuple(
                sorted((repr(_oracle(k)), repr(_oracle(v))) for k, v in obj.items())
            ),
        )
    if isinstance(obj, (list, tuple)):
        return tuple(_oracle(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(_oracle(v)) for v in obj)))
    if isinstance(obj, float):
        return ("float", repr(obj))
    if obj is None or isinstance(obj, (str, int, bool, bytes)):
        return obj
    if _has_stable_repr(obj):
        return ("repr", repr(obj))
    raise InvalidParameterError("no stable encoding")


def _oracle_fingerprint(request: object) -> str:
    return hashlib.sha256(repr(_oracle(request)).encode()).hexdigest()


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclass(frozen=True)
class Box:
    label: str
    payload: Any


@dataclass
class MutableBox:
    payload: Any


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e-300]),
)
_int_like = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.sampled_from(list(Level)),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
)
_hashable_leaves = st.one_of(
    _int_like,
    _floats,
    st.text(max_size=6),
    st.binary(max_size=6),
    st.none(),
    st.sampled_from(list(PartitionKind)),
)
_models = st.sampled_from([*DEFAULT_MACHINES.values(), *ALL_STENCILS])
_leaves = st.one_of(
    _hashable_leaves,
    _models,
    _floats.map(np.float64),
    st.lists(st.integers(-5, 5), max_size=4).map(np.array),
    st.lists(_floats, max_size=3).map(lambda v: np.array(v, dtype=float)),
)


def _containers(children: st.SearchStrategy[Any]) -> st.SearchStrategy[Any]:
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_hashable_leaves, children, max_size=4),
        st.frozensets(_hashable_leaves, max_size=4),
        st.builds(Box, st.text(max_size=3), children),
        st.builds(MutableBox, children),
    )


_requests = st.recursive(_leaves, _containers, max_leaves=24)
# Int tuples of the kind specs carry, salted with int look-alikes that
# must not take the all-int shortcut.
_int_tuples = st.lists(_int_like, max_size=12).map(tuple)


@settings(max_examples=400, deadline=None)
@given(_requests)
def test_encoding_matches_oracle(request):
    assert repr(_canonical(request)) == repr(_oracle(request))
    assert fingerprint(request) == _oracle_fingerprint(request)


@settings(max_examples=300, deadline=None)
@given(_int_tuples)
def test_int_tuples_match_oracle(values):
    for container in (values, list(values), ("axis", values)):
        assert repr(_canonical(container)) == repr(_oracle(container))


def test_int_lookalikes_keep_their_type_tags():
    values = (1, True, Level.LOW, np.int64(1), 1.0, -0.0)
    encoded = repr(_canonical(values))
    assert encoded == repr(_oracle(values))
    assert "True" in encoded and "Level" in encoded and "('float', '-0.0')" in encoded


@pytest.mark.parametrize(
    "request_",
    [
        SweepSpec.across_catalog(range(16, 4000, 3), [1.0, 2.5, 16.0], stencil=FIVE_POINT),
        ("graph", tuple(range(10_000)), [float("nan"), -0.0]),
        {"weights": FIVE_POINT.weights, "machines": tuple(DEFAULT_MACHINES.items())},
    ],
    ids=["sweep-spec", "long-int-axis", "nested-map"],
)
def test_request_shapes_match_oracle(request_):
    assert fingerprint(request_) == _oracle_fingerprint(request_)


# --------------------------------------------------------------------------
# Per-instance memos
# --------------------------------------------------------------------------


def _fresh_copies(obj: Any) -> list[Any]:
    return [
        dataclasses.replace(obj),
        copy.copy(obj),
        copy.deepcopy(obj),
        pickle.loads(pickle.dumps(obj)),
    ]


@pytest.mark.parametrize(
    "model",
    [*DEFAULT_MACHINES.values(), *ALL_STENCILS, FIVE_POINT.with_flops(9.0)],
    ids=lambda m: getattr(m, "name", type(m).__name__),
)
def test_memoized_instance_encodes_like_fresh_and_unpickled_copies(model):
    unmemoized = _fresh_copies(model)  # copied before any memo exists
    first = _canonical(model)
    assert _canonical(model) is first  # second call is served by the memo
    memoized = _fresh_copies(model)  # copied after, memo and all
    expected = repr(_oracle(model))
    for other in (model, *unmemoized, *memoized):
        assert repr(_canonical(other)) == expected
        assert other == model


def test_memo_leaves_equality_repr_and_fields_alone():
    stencil = Stencil(name="plus", offsets=((0, 1), (1, 0), (0, -1), (-1, 0)))
    before = (repr(stencil), dataclasses.asdict(stencil))
    fingerprint(stencil)
    assert (repr(stencil), dataclasses.asdict(stencil)) == before
    assert stencil == Stencil(name="plus", offsets=((0, 1), (1, 0), (0, -1), (-1, 0)))
    assert [f.name for f in fields(stencil)] == [
        "name", "offsets", "weights", "flops_per_point", "rhs_scale",
    ]


def test_equal_machines_share_a_fingerprint_whichever_is_memoized():
    a = Hypercube(alpha=1e-6, beta=1e-5, packet_words=16)
    fingerprint(a)
    b = Hypercube(alpha=1e-6, beta=1e-5, packet_words=16)
    assert fingerprint(b) == fingerprint(a)
    # Bus presets sharing a closed form still collapse with a memo in place.
    rw = SynchronousBus(b=1e-6, c=2e-4)
    ro = SynchronousBus(b=2e-6, c=4e-4, volume_mode="read_only")
    assert fingerprint(rw) == fingerprint(ro) == fingerprint(rw)


@dataclass
class TunableMachine(Architecture):
    """A mutable machine: not a frozen dataclass, so never memoized."""

    alpha: float = 1e-6

    def communication_time(
        self, workload: Workload, kind: PartitionKind, area: Any
    ) -> Any:
        return self.alpha * np.asarray(area, dtype=float)


def test_mutable_machines_are_encoded_afresh():
    machine = TunableMachine()
    before = fingerprint(("op", machine))
    machine.alpha = 2e-6
    assert fingerprint(("op", machine)) != before
    assert fingerprint(("op", machine)) == _oracle_fingerprint(("op", machine))
