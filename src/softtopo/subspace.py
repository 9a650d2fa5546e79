"""Relative topologies over a sub-universe of points.

The carrier keeps the original parameter set and restricts the point set;
trace opens are elementary intersections with the carrier's absolute,
computed over the original universe so collapse behaves identically.  The
resulting topology carries that absolute, which keeps the generic verifier
honest about axiom (i) without pretending the carrier is the whole space.
"""

from __future__ import annotations

import dataclasses as d
import typing as t

from .core import (
    SoftSet,
    Universe,
    constant_set,
    elementary_intersection,
    is_admissible,
    is_null,
    is_soft_subset,
)
from .errors import (
    PreconditionError,
    SubspacePreconditionError,
    UniverseMismatchError,
)
from .topology import (
    SoftTopology,
    _cached,
    closed_sets,
    pairwise_admissible_violations,
)

_LISTED = 10  # violations named in the text form; the JSON form lists all


@d.dataclass(frozen=True)
class SubspacePreconditionReport:
    """Outcome of the two side conditions, with every violating instance.

    ``pair_violations`` holds (i, j) member-index pairs whose elementary
    meet collapses out of the admissible family; ``trace_violations`` holds
    member indices whose meet with the carrier collapses.
    """

    satisfied: bool
    pair_violations: tuple[tuple[int, int], ...]
    trace_violations: tuple[int, ...]

    def describe(self) -> str:
        """The first ``_LISTED`` violations in order, then how many are
        left: a full topology over two parameters has over 10**5 pairs."""
        if self.satisfied:
            return "subspace preconditions satisfied"
        lines = [
            f"members {i} and {j} have an inadmissible elementary meet"
            for i, j in self.pair_violations[:_LISTED]
        ]
        lines += [
            f"member {i} meets the carrier outside the admissible family"
            for i in self.trace_violations[: _LISTED - len(lines)]
        ]
        total = len(self.pair_violations) + len(self.trace_violations)
        more = f" (+{total - _LISTED} more, {total} in all)" if total > _LISTED else ""
        return "; ".join(lines) + more


def carrier_set(universe: Universe, points: t.Sequence[str]) -> SoftSet:
    """Constant soft set presenting Y as a sub-universe carrier."""
    if not points:
        raise PreconditionError("carrier needs at least one point")
    return constant_set(universe, points)


def check_subspace_preconditions(
    topo: SoftTopology, carrier: SoftSet
) -> SubspacePreconditionReport:
    if carrier.universe != topo.universe:
        raise UniverseMismatchError("carrier from a different universe")
    if is_null(carrier) or not is_admissible(carrier):
        raise PreconditionError("carrier must be admissible and nonnull")
    pair_violations = pairwise_admissible_violations(topo)
    is_admissible_bits = topo.universe.packing.is_admissible
    trace_violations = [
        i for i, m in enumerate(topo.packed)
        if not is_admissible_bits(m & carrier.bits)
    ]
    satisfied = not pair_violations and not trace_violations
    return SubspacePreconditionReport(
        satisfied, pair_violations, tuple(trace_violations)
    )


@d.dataclass(frozen=True)
class SubspaceResult:
    parent: SoftTopology
    carrier: SoftSet
    points: tuple[str, ...]
    topology: SoftTopology
    origins: tuple[int, ...]
    """Per trace, the index of the first parent member producing it."""


def build_subspace(topo: SoftTopology, points: t.Sequence[str]) -> SubspaceResult:
    """Relative topology on a point subset, or a report-carrying error.

    Traces are deduplicated in parent member order, so the carrier's own
    trace (from the absolute) and the null trace land wherever the parent
    order puts them first.  The trace family is not verified here: Theorem
    3.1 says it is a topology once the preconditions hold, and the
    ``thm_3_1_constructive`` fuzz case and the tests check that.  The
    result is cached on the parent per point tuple; unmet preconditions
    raise each time.
    """
    points = tuple(points)

    def build() -> SubspaceResult:
        carrier = carrier_set(topo.universe, points)
        report = check_subspace_preconditions(topo, carrier)
        if not report.satisfied:
            raise SubspacePreconditionError(report)
        origins: dict[SoftSet, int] = {}
        for i, m in enumerate(topo.members):
            origins.setdefault(elementary_intersection(m, carrier), i)
        sub = SoftTopology.of(topo.universe, origins, absolute=carrier)
        return SubspaceResult(topo, carrier, points, sub, tuple(origins.values()))

    return _cached(topo, ("subspace", points), build)


def is_relatively_closed(sub: SubspaceResult, f: SoftSet) -> bool:
    """Closed in the subspace: the carrier-relative complement is a trace open.

    The complement is taken pointwise; trace membership then enforces
    admissibility on its own, since every trace open is admissible.
    """
    if f.universe != sub.topology.universe:
        raise UniverseMismatchError("subject from a different universe")
    if not is_admissible(f) or not is_soft_subset(f, sub.carrier):
        return False
    return sub.carrier.bits ^ f.bits in sub.topology.member_bits


@d.dataclass(frozen=True)
class RelativeClosedDecomposition:
    subject: SoftSet
    parent_closed: SoftSet
    """A parent-closed set whose meet with the carrier is the subject."""


def decompose_relatively_closed(
    sub: SubspaceResult, f: SoftSet
) -> RelativeClosedDecomposition:
    """Express a relatively closed set as (parent closed) meet carrier.

    Searches parent closed sets in canonical order.  When the parent is a
    topology the search cannot miss: the null set serves the null subject,
    and for any other the parent complement of the origin of its relative
    complement is closed and works.
    """
    if not is_relatively_closed(sub, f):
        raise PreconditionError("subject is not relatively closed")
    for c in closed_sets(sub.parent):
        if elementary_intersection(c, sub.carrier) == f:
            return RelativeClosedDecomposition(f, c)
    raise PreconditionError("the parent is not a topology: no closed set decomposes the subject")
