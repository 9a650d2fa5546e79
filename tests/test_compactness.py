from __future__ import annotations

import pytest

from softtopo.compactness import (
    fip_witness,
    is_compact_set,
    is_compact_space,
    is_quasi_compact,
    nested_intersection_check,
)
from softtopo.core import Universe, full_set, null_set
from softtopo.errors import PreconditionError, UniverseMismatchError
from softtopo.topology import closed_sets, full_topology

from conftest import soft

U22 = Universe.of(("a", "b"), ("e1", "e2"))
TF = full_topology(U22)


def test_quasi_compactness_always_holds(fgh_topo, abcd_topo):
    for topo in (fgh_topo, abcd_topo, TF):
        report = is_quasi_compact(topo)
        assert report.holds
        assert report.topology_size == len(topo.members)
        assert report.justification == (
            "every open cover is a subfamily of the finite member list, hence finite"
        )


def test_compact_space_needs_separation(fgh_topo, abcd_topo):
    for topo in (fgh_topo, abcd_topo):
        report = is_compact_space(topo)
        assert report.quasi.holds and not report.hausdorff.holds
        assert not report.compact
    assert is_compact_space(TF).compact


def test_compact_set_with_admissible_complement():
    k1 = soft(U22, e1="a", e2="a")
    report = is_compact_set(TF, k1)
    assert report.subject == k1
    assert report.compact and report.admissible and report.complement_admissible


def test_compact_set_union_can_fail():
    # union of two compact sets; its pointwise complement ({}, {b}) is mixed
    union = soft(U22, e1="ab", e2="a")
    report = is_compact_set(TF, union)
    assert (report.compact, report.admissible, report.complement_admissible) == (
        False,
        True,
        False,
    )


def test_compact_set_requires_hausdorff(abcd_topo, abcd_doc):
    with pytest.raises(PreconditionError):
        is_compact_set(abcd_topo, abcd_doc.sets["F1"])
    with pytest.raises(UniverseMismatchError):
        is_compact_set(TF, soft(abcd_doc.universe, e1="a", e2="a"))


def test_fip_witness_minimality():
    fam = [soft(U22, e1="a", e2="a"), soft(U22, e1="b", e2="b")]
    assert fip_witness(TF, fam) == (0, 1)
    # a null member short-circuits to a singleton witness
    assert fip_witness(TF, fam + [null_set(U22)]) == (2,)


def test_fip_witness_preconditions(abcd_topo, abcd_doc):
    with pytest.raises(PreconditionError):
        fip_witness(abcd_topo, [abcd_doc.sets["F"]])
    nonnull_closed = [c for c in closed_sets(abcd_topo) if c != null_set(abcd_doc.universe)]
    with pytest.raises(PreconditionError):
        fip_witness(abcd_topo, nonnull_closed)


def test_nested_intersection(abcd_topo):
    chain = (full_set(U22), soft(U22, e1="a", e2="a"))
    assert nested_intersection_check(TF, chain)
    with pytest.raises(PreconditionError):
        nested_intersection_check(abcd_topo, (full_set(abcd_topo.universe),))
    with pytest.raises(PreconditionError):
        nested_intersection_check(TF, ())
    with pytest.raises(PreconditionError):
        nested_intersection_check(TF, (null_set(U22),))
    with pytest.raises(PreconditionError):
        nested_intersection_check(TF, (soft(U22, e1="a", e2="ab"),))
    with pytest.raises(PreconditionError):
        nested_intersection_check(TF, tuple(reversed(chain)))

