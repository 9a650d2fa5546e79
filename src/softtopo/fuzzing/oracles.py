"""Slow references for the fast paths.

The set-operation cross-checks deliberately take the slow road: enumerate
every soft element of the operands, combine the element bags, and take the
span of the result.  The fast implementations in ``core`` must agree with
these on admissible inputs.  ``verify_topology_oracle`` checks the topology
axioms with ``SoftSet`` values and the ``core`` operations, the reference for
the packed ``topology.verify``.
"""

from __future__ import annotations

import typing as t

from ..core import (
    ElementBag,
    SoftElement,
    SoftSet,
    Universe,
    elementary_intersection,
    elementary_union,
    full_set,
    is_admissible,
    is_soft_subset,
    iter_elements,
    null_set,
    span,
)
from ..errors import UniverseMismatchError
from ..topology import TopologyReport, Violation

__all__ = [
    "complement_via_elements",
    "intersection_via_elements",
    "union_via_elements",
    "verify_topology_oracle",
]


def element_bag(f: SoftSet) -> frozenset[SoftElement]:
    """Every soft element of ``f``, as a set.  Empty when any slice is empty."""
    return frozenset(iter_elements(f))


def _span_of(universe: Universe, bag: frozenset[SoftElement]) -> SoftSet:
    if not bag:
        return null_set(universe)
    ordered = sorted(bag, key=lambda x: x.coords)
    return span(ElementBag.of(universe, ordered))


def union_via_elements(f: SoftSet, g: SoftSet) -> SoftSet:
    """Span of the union of the two element bags."""
    return _span_of(f.universe, element_bag(f) | element_bag(g))


def intersection_via_elements(f: SoftSet, g: SoftSet) -> SoftSet:
    """Span of the elements common to both operands."""
    return _span_of(f.universe, element_bag(f) & element_bag(g))


def complement_via_elements(f: SoftSet) -> SoftSet:
    """Span of the absolute's elements that avoid ``f`` at every parameter."""
    universe = f.universe
    bag = frozenset(
        x
        for x in iter_elements(full_set(universe))
        if all(not (f.slices[k] >> x.coords[k]) & 1 for k in range(universe.n_params))
    )
    return _span_of(universe, bag)


def verify_topology_oracle(
    universe: Universe,
    members: t.Sequence[SoftSet],
    absolute: SoftSet | None = None,
) -> TopologyReport:
    """Every axiom violation, in the order ``topology.verify`` reports them,
    found with one ``SoftSet`` per pairwise union and meet."""
    absolute = absolute if absolute is not None else full_set(universe)
    violations: list[Violation] = []

    for m in members:
        if m.universe != universe:
            raise UniverseMismatchError("member from a different universe")
    if absolute.universe != universe:
        raise UniverseMismatchError("absolute from a different universe")

    seen: set[SoftSet] = set()
    for m in members:
        if m in seen:
            violations.append(Violation("duplicate-member", (m,), m))
        seen.add(m)

    if null_set(universe) not in seen:
        violations.append(Violation("phi-member", (), null_set(universe)))
    if absolute not in seen:
        violations.append(Violation("absolute-member", (), absolute))

    admissible: list[SoftSet] = []
    for m in members:
        if not is_admissible(m):
            violations.append(Violation("member-admissible", (m,), m))
            continue
        admissible.append(m)
        if not is_soft_subset(m, absolute):
            violations.append(Violation("member-inside-absolute", (m,), m))

    for i in range(len(admissible)):
        for j in range(i + 1, len(admissible)):
            f, g = admissible[i], admissible[j]
            union = elementary_union(f, g)
            if union not in seen:
                violations.append(Violation("union-closure", (f, g), union))
            meet = elementary_intersection(f, g)
            if meet not in seen:
                violations.append(Violation("intersection-closure", (f, g), meet))

    return TopologyReport(valid=not violations, violations=tuple(violations))
