"""Covers, subcovers, and the finite compactness checkers.

Finite member lists make the cover condition itself automatic: any open
cover is a subfamily of the topology, hence finite already.  What remains
interesting at this scale is the bookkeeping around it, so the checkers
return reports that carry a re-checkable justification (a demonstration
subcover, the separation sub-report, the witnessing subfamily) rather than
bare booleans.
"""

from __future__ import annotations

import dataclasses as d
import itertools
import typing as t

from .core import (
    SoftSet,
    elementary_intersection,
    elementary_intersection_family,
    elementary_union_family,
    is_admissible,
    is_null,
    is_soft_subset,
    pointwise_complement,
)
from .errors import PreconditionError, UniverseMismatchError
from .separation import SeparationReport, is_hausdorff
from .topology import SoftTopology, is_closed


@d.dataclass(frozen=True)
class Cover:
    """A family of opens whose elementary union contains the target.

    Validated at construction; the union must equal the absolute when the
    target is the absolute itself (containment already forces that, since
    members never exceed the absolute).
    """

    topology: SoftTopology
    family: tuple[SoftSet, ...]
    target: SoftSet


def is_cover(
    topo: SoftTopology, family: t.Sequence[SoftSet], target: SoftSet
) -> bool:
    for m in family:
        if m not in topo.member_set:
            raise PreconditionError(f"cover family member not open: {m!r}")
    if target.universe != topo.universe:
        raise UniverseMismatchError("target from a different universe")
    if not is_admissible(target):
        raise PreconditionError("cover target outside the admissible family")
    union = elementary_union_family(topo.universe, family)
    if target == topo.absolute:
        return union == topo.absolute
    return is_soft_subset(target, union)


def make_cover(
    topo: SoftTopology, family: t.Sequence[SoftSet], target: SoftSet
) -> Cover:
    if not is_cover(topo, family, target):
        raise PreconditionError("family does not cover the target")
    return Cover(topo, tuple(family), target)


@d.dataclass(frozen=True)
class SubcoverResult:
    indices: tuple[int, ...]
    cardinality: int
    exact: bool


def minimal_subcover(cover: Cover, exact_bound: int = 20) -> SubcoverResult:
    """Exact minimum-cardinality subcover up to ``exact_bound`` family sizes.

    The exact search walks subsets in increasing size, lexicographic inside
    each size, so ties break toward the lexicographically smallest index
    set.  Larger families fall back to greedy covering, flagged non-exact.
    """
    family = cover.family
    target = cover.target.slices
    n = len(family)

    def covers(indices: t.Sequence[int]) -> bool:
        masks = [0] * len(target)
        for i in indices:
            for k, m in enumerate(family[i].slices):
                masks[k] |= m
        return all(tm & ~m == 0 for tm, m in zip(target, masks))

    if covers(()):
        return SubcoverResult((), 0, True)
    if n <= exact_bound:
        for size in range(1, n + 1):
            for combo in itertools.combinations(range(n), size):
                if covers(combo):
                    return SubcoverResult(combo, size, True)
        raise PreconditionError("cover invariant broken: family does not cover")

    uncovered = list(target)
    chosen: list[int] = []
    while any(uncovered):
        best, best_gain = -1, 0
        for i in range(n):
            if i in chosen:
                continue
            gain = sum(
                (m & u).bit_count() for m, u in zip(family[i].slices, uncovered)
            )
            if gain > best_gain:
                best, best_gain = i, gain
        if best < 0:
            raise PreconditionError("cover invariant broken: greedy cannot finish")
        chosen.append(best)
        for k, m in enumerate(family[best].slices):
            uncovered[k] &= ~m
    return SubcoverResult(tuple(sorted(chosen)), len(chosen), False)


@d.dataclass(frozen=True)
class QuasiCompactnessReport:
    holds: bool
    topology_size: int
    justification: str
    demonstration: SubcoverResult


def is_quasi_compact(topo: SoftTopology) -> QuasiCompactnessReport:
    """Always true for a finite member list; the report shows why.

    Any open cover of the absolute is a set of members, so it has at most
    ``topology_size`` distinct sets and is its own finite subcover.  The
    demonstration runs the subcover search on the full member family.
    """
    demo = minimal_subcover(make_cover(topo, topo.members, topo.absolute))
    return QuasiCompactnessReport(
        holds=True,
        topology_size=len(topo.members),
        justification=(
            "every open cover is a subfamily of the finite member list, "
            "hence finite; a minimal subcover is attached as demonstration"
        ),
        demonstration=demo,
    )


@d.dataclass(frozen=True)
class CompactSpaceReport:
    compact: bool
    quasi: QuasiCompactnessReport
    hausdorff: SeparationReport


def is_compact_space(topo: SoftTopology) -> CompactSpaceReport:
    quasi = is_quasi_compact(topo)
    hd = is_hausdorff(topo)
    return CompactSpaceReport(quasi.holds and hd.holds, quasi, hd)


@d.dataclass(frozen=True)
class CompactSetReport:
    subject: SoftSet
    compact: bool
    admissible: bool
    complement_admissible: bool
    demonstration_cover: Cover | None
    demonstration: SubcoverResult | None


def is_compact_set(topo: SoftTopology, f: SoftSet) -> CompactSetReport:
    """Compact sets live in Hausdorff spaces and need an admissible complement.

    The cover condition is automatic at finite scale; the demonstration
    restricts the member list to opens meeting the subject and extracts a
    subcover from that family (the absolute always qualifies, so the family
    covers).
    """
    if f.universe != topo.universe:
        raise UniverseMismatchError("subject from a different universe")
    if not is_hausdorff(topo).holds:
        raise PreconditionError("compact sets are only defined over Hausdorff spaces")
    admissible = is_admissible(f)
    comp_admissible = is_admissible(pointwise_complement(f))
    compact = admissible and comp_admissible
    cover = demo = None
    if compact:
        family = [
            o
            for o in topo.members
            if not is_null(elementary_intersection(o, f))
        ]
        cover = make_cover(topo, family, f)
        demo = minimal_subcover(cover)
    return CompactSetReport(f, compact, admissible, comp_admissible, cover, demo)


def fip_witness(topo: SoftTopology, family: t.Sequence[SoftSet]) -> tuple[int, ...]:
    """Minimal subfamily of a closed family whose elementary meet is null.

    Preconditions: every member closed, joint elementary meet null.  The
    full family always qualifies, so the increasing-size search terminates
    with a witness; ties break lexicographically.
    """
    for m in family:
        if not is_closed(topo, m):
            raise PreconditionError(f"fip_witness: family member not closed: {m!r}")
    if not is_null(elementary_intersection_family(topo.universe, family)):
        raise PreconditionError("fip_witness: joint elementary meet is not null")
    n = len(family)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            meet = elementary_intersection_family(
                topo.universe, [family[i] for i in combo]
            )
            if is_null(meet):
                return combo
    raise AssertionError("unreachable: the full family is a witness")


def nested_intersection_check(
    topo: SoftTopology, chain: t.Sequence[SoftSet]
) -> bool:
    """True when a decreasing chain of nonempty closed sets has nonnull meet.

    Preconditions: compact space, nonempty chain, members closed and
    nonempty, each containing the next.
    """
    if not is_compact_space(topo).compact:
        raise PreconditionError("nested chains are only checked in compact spaces")
    if not chain:
        raise PreconditionError("empty chain")
    for m in chain:
        if is_null(m):
            raise PreconditionError("chain member is the null soft set")
        if not is_closed(topo, m):
            raise PreconditionError(f"chain member not closed: {m!r}")
    for prev, nxt in zip(chain, chain[1:]):
        if not is_soft_subset(nxt, prev):
            raise PreconditionError("chain is not decreasing")
    meet = elementary_intersection_family(topo.universe, chain)
    return not is_null(meet)

