from __future__ import annotations

import pytest

from softtopo.core import Universe, constant_set, full_set, null_set
from softtopo.errors import (
    PreconditionError,
    SubspacePreconditionError,
    UniverseMismatchError,
)
from softtopo.subspace import (
    build_subspace,
    carrier_set,
    check_subspace_preconditions,
    decompose_relatively_closed,
    is_relatively_closed,
)
from softtopo.topology import SoftTopology, full_topology

from conftest import soft


def test_carrier_set(fgh_doc):
    u = fgh_doc.universe
    carrier = carrier_set(u, ("a", "c"))
    assert carrier == constant_set(u, ("a", "c"))
    assert carrier == soft(u, e1="ac", e2="ac")
    with pytest.raises(PreconditionError):
        carrier_set(u, ())


def test_relative_topology_members(fgh_doc, fgh_topo):
    u = fgh_doc.universe
    sub = build_subspace(fgh_topo, ("a", "c"))
    # H traces to the carrier itself, which the absolute already produced
    assert sub.topology.members == (
        null_set(u),
        soft(u, e1="ac", e2="ac"),
        soft(u, e1="a", e2="c"),
        soft(u, e1="c", e2="a"),
    )
    assert sub.topology.absolute == sub.carrier
    assert sub.points == ("a", "c")
    assert sub.origins == (0, 1, 2, 3)
    assert sub.parent is fgh_topo


def test_precondition_report(fgh_topo):
    report = check_subspace_preconditions(
        fgh_topo, carrier_set(fgh_topo.universe, ("b", "c", "d"))
    )
    assert not report.satisfied
    assert report.pair_violations == ()
    # F and G each meet {b,c,d} in one parameter only
    assert report.trace_violations == (2, 3)
    assert report.describe() == (
        "member 2 meets the carrier outside the admissible family; "
        "member 3 meets the carrier outside the admissible family"
    )


def test_precondition_report_satisfied(fgh_topo):
    report = check_subspace_preconditions(
        fgh_topo, carrier_set(fgh_topo.universe, ("a", "c"))
    )
    assert report.satisfied
    assert report.describe() == "subspace preconditions satisfied"


def test_build_rejects_bad_carrier(fgh_topo):
    with pytest.raises(SubspacePreconditionError) as exc:
        build_subspace(fgh_topo, ("b", "c", "d"))
    assert exc.value.report.trace_violations == (2, 3)
    foreign = Universe.of(("a", "b"), ("e1",))
    with pytest.raises(UniverseMismatchError):
        check_subspace_preconditions(fgh_topo, carrier_set(foreign, ("a",)))


def test_relatively_closed(fgh_doc, fgh_topo):
    u = fgh_doc.universe
    sub = build_subspace(fgh_topo, ("a", "c"))
    f_y = soft(u, e1="a", e2="c")
    g_y = soft(u, e1="c", e2="a")
    # each trace open is the carrier-relative complement of the other
    assert is_relatively_closed(sub, f_y)
    assert is_relatively_closed(sub, g_y)
    assert is_relatively_closed(sub, sub.carrier)
    assert is_relatively_closed(sub, null_set(u))
    # admissible and open in the parent, but not inside the carrier
    assert not is_relatively_closed(sub, fgh_doc.sets["H"])
    assert not is_relatively_closed(sub, soft(u, e1="a", e2=[]))
    with pytest.raises(UniverseMismatchError):
        is_relatively_closed(sub, full_set(Universe.of(("a",), ("e1",))))


def test_decomposition(fgh_doc, fgh_topo):
    u = fgh_doc.universe
    sub = build_subspace(fgh_topo, ("a", "c"))
    dec = decompose_relatively_closed(sub, soft(u, e1="a", e2="c"))
    assert dec.parent_closed == soft(u, e1="ab", e2="bcd")
    with pytest.raises(PreconditionError):
        decompose_relatively_closed(sub, fgh_doc.sets["H"])


def test_decomposition_refuses_a_parent_that_is_not_a_topology():
    # The lone member traces to the carrier, so the null set is relatively
    # closed; the member's complement has an empty slice, so no closed set
    # traces to it.
    u = Universe.of(("a", "b"), ("e1", "e2"))
    sub = build_subspace(SoftTopology.of(u, [soft(u, e1="ab", e2="a")]), ("a",))
    assert is_relatively_closed(sub, null_set(u))
    with pytest.raises(PreconditionError, match="not a topology"):
        decompose_relatively_closed(sub, null_set(u))


def test_subspaces_are_cached_per_point_tuple():
    u = Universe.of(("a", "b", "c"), ("e1",))
    members = full_topology(u).members
    topo, twin = SoftTopology.of(u, members), SoftTopology.of(u, members)
    for points in (("a", "b"), ("b", "a"), ("c",)):
        sub = build_subspace(topo, points)
        assert sub.points == points
        assert build_subspace(topo, list(points)) is sub
        assert build_subspace(twin, points) == sub
    # unmet preconditions raise on every call and cache nothing
    u22 = Universe.of(("a", "b"), ("e1", "e2"))
    full22 = SoftTopology.of(u22, full_topology(u22).members)
    for points, error in ((("a",), SubspacePreconditionError), ((), PreconditionError)):
        for _ in range(2):
            with pytest.raises(error):
                build_subspace(full22, points)
        assert ("subspace", points) not in full22._cache
