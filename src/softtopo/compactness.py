"""The finite compactness checkers.

Finite member lists make the cover condition itself automatic: an open
cover is a subfamily of the member list, hence finite, and so is its own
finite subcover.  Every space is therefore quasi-compact, a compact space is
exactly a separated one, and a set of a separated space is compact exactly
when it and its pointwise complement are admissible.  The checkers decide
those conditions and return reports that name them (the separation
sub-report, the admissibility flags, the witnessing subfamily) rather than
bare booleans.
"""

from __future__ import annotations

import dataclasses as d
import itertools
import typing as t

from .core import (
    SoftSet,
    elementary_intersection_family,
    is_admissible,
    is_null,
    is_soft_subset,
    pointwise_complement,
)
from .errors import PreconditionError, UniverseMismatchError
from .separation import SeparationReport, is_hausdorff
from .topology import SoftTopology, is_closed


@d.dataclass(frozen=True)
class QuasiCompactnessReport:
    holds: bool
    topology_size: int
    justification: str


def is_quasi_compact(topo: SoftTopology) -> QuasiCompactnessReport:
    """Always true for a finite member list; the report says why.

    Any open cover of the absolute is a set of members, so it has at most
    ``topology_size`` distinct sets and is its own finite subcover.
    """
    return QuasiCompactnessReport(
        holds=True,
        topology_size=len(topo.members),
        justification=(
            "every open cover is a subfamily of the finite member list, hence finite"
        ),
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


def is_compact_set(topo: SoftTopology, f: SoftSet) -> CompactSetReport:
    """Compact sets live in Hausdorff spaces and need an admissible complement.

    The cover condition is automatic at finite scale: every open cover of
    the subject is a subfamily of the finite member list, hence finite.  What
    remains is the admissibility of the subject and of its pointwise
    complement.
    """
    if f.universe != topo.universe:
        raise UniverseMismatchError("subject from a different universe")
    if not is_hausdorff(topo).holds:
        raise PreconditionError("compact sets are only defined over Hausdorff spaces")
    admissible = is_admissible(f)
    comp_admissible = is_admissible(pointwise_complement(f))
    compact = admissible and comp_admissible
    return CompactSetReport(f, compact, admissible, comp_admissible)


def is_closed_null_family(topo: SoftTopology, family: t.Sequence[SoftSet]) -> bool:
    """``fip_witness``'s precondition: a nonempty family of closed sets
    whose joint elementary meet is null."""
    return (
        bool(family)
        and all(is_closed(topo, m) for m in family)
        and is_null(elementary_intersection_family(topo.universe, family))
    )


def fip_witness(topo: SoftTopology, family: t.Sequence[SoftSet]) -> tuple[int, ...]:
    """Minimal subfamily of a closed family whose elementary meet is null.

    The full family always qualifies, so the increasing-size search
    terminates with a witness; ties break lexicographically.
    """
    if not is_closed_null_family(topo, family):
        raise PreconditionError(
            "fip_witness: the family must be nonempty and closed, with a null joint meet"
        )
    n = len(family)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            meet = elementary_intersection_family(
                topo.universe, [family[i] for i in combo]
            )
            if is_null(meet):
                return combo
    raise AssertionError("unreachable: the full family is a witness")


def is_nonnull_closed_chain(topo: SoftTopology, chain: t.Sequence[SoftSet]) -> bool:
    """``nested_intersection_check``'s chain precondition: a nonempty chain
    of nonnull closed sets, each containing the next."""
    return (
        bool(chain)
        and all(not is_null(m) and is_closed(topo, m) for m in chain)
        and all(is_soft_subset(nxt, prev) for prev, nxt in zip(chain, chain[1:]))
    )


def nested_intersection_check(
    topo: SoftTopology, chain: t.Sequence[SoftSet]
) -> bool:
    """True when a decreasing chain of nonempty closed sets in a compact
    space has nonnull meet."""
    if not is_compact_space(topo).compact:
        raise PreconditionError("nested chains are only checked in compact spaces")
    if not is_nonnull_closed_chain(topo, chain):
        raise PreconditionError(
            "the chain must be nonempty and decreasing, of nonnull closed sets"
        )
    meet = elementary_intersection_family(topo.universe, chain)
    return not is_null(meet)
