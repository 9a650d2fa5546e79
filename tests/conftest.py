from __future__ import annotations

import pathlib

import pytest

from softtopo.core import SoftSet, Universe
from softtopo.document import parse_file
from softtopo.topology import SoftTopology, verify

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
