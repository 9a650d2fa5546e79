from __future__ import annotations

import pathlib

import pytest

from softtopo.core import SoftSet, Universe
from softtopo.document import parse_file
from softtopo.errors import PreconditionError, UniverseMismatchError
from softtopo.topology import _NOT_A_TOPOLOGY, SoftTopology, verify

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def soft(universe: Universe, **by_param) -> SoftSet:
    """Shorthand: soft(u, e1=["a"], e2=["b", "c"])."""
    return SoftSet.from_points(universe, by_param)


def verified(universe: Universe, members, absolute: SoftSet | None = None) -> SoftTopology:
    """A hand-made topology, asserted valid before a test uses it."""
    topo = SoftTopology.of(universe, members, absolute)
    assert verify(topo).valid
    return topo


def _rejected(topo: SoftTopology) -> bool:
    try:
        return not verify(topo).valid
    except UniverseMismatchError:
        return True


def _outcome(call):
    try:
        return call()
    except PreconditionError as exc:
        return str(exc)


def oracle_or_refusal(check, oracle, *lists):
    """Hold ``check()`` to ``oracle()``, the reference it must match on any
    member list: it returns the oracle's report, raises the oracle's
    PreconditionError alike, or refuses with "not a topology" when
    ``verify`` rejects one of ``lists``.  Returns the outcome, a
    PreconditionError as its message, or None for a refusal."""
    got = _outcome(check)
    if got == _NOT_A_TOPOLOGY:
        assert any(map(_rejected, lists)), [t.members for t in lists]
        return None
    assert got == _outcome(oracle), [t.members for t in lists]
    return got


@pytest.fixture(scope="session")
def abcd_doc():
    # four points, six members; the closure/interior/nbd regression space
    return parse_file(fixture_path("ex23.json"))


@pytest.fixture(scope="session")
def abcd_topo(abcd_doc):
    return abcd_doc.topology


@pytest.fixture(scope="session")
def fgh_doc():
    # five members F, G, H; the subspace regression space
    return parse_file(fixture_path("ex31.json"))


@pytest.fixture(scope="session")
def fgh_topo(fgh_doc):
    return fgh_doc.topology
