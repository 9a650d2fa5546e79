"""Rare sets, category, and the Baire property at finite scale.

A closed set is rare when its interior is null; a general admissible set
is nowhere dense when the interior of its closure is null.  Finiteness
collapses the usual countable unions to finite ones, so the Baire check
reduces to a single union of the rare closed sets: interiors are monotone,
hence the full union dominates every subfamily.  The slow subfamily oracle
is kept alongside as an independent cross-check.
"""

from __future__ import annotations

import dataclasses as d
import functools
import itertools
import operator
import typing as t

from .core import (
    SoftElement,
    SoftSet,
    element_count,
    elementary_union_family,
    is_admissible,
    is_null,
)
from .errors import NotAdmissibleError, PreconditionError
from .separation import is_hausdorff
from .topology import (
    SoftTopology,
    _cached,
    _closure_bits,
    _interior_bits,
    closed_sets,
    closure,
    interior,
    open_hull,
    space_elements,
)


def is_nowhere_dense(topo: SoftTopology, f: SoftSet) -> bool:
    """Whether the interior of f's closure is null.  ``closure`` checks f,
    and the interior is taken on its bits."""
    if not is_admissible(f):
        raise NotAdmissibleError(
            "is_nowhere_dense: subject outside the admissible family"
        )
    if is_null(f):
        raise PreconditionError("nowhere density is not defined for the null set")
    return not _interior_bits(topo, closure(topo, f).bits)


def rare_closed_sets(topo: SoftTopology) -> tuple[SoftSet, ...]:
    """Closed sets with null interior, in closed-set order (cached)."""

    def build() -> tuple[SoftSet, ...]:
        return tuple(
            c for c in closed_sets(topo) if not _interior_bits(topo, c.bits)
        )

    return _cached(topo, "rare_closed", build)


@d.dataclass(frozen=True)
class BaireReport:
    baire: bool
    rare_closed: tuple[SoftSet, ...]
    union: SoftSet
    union_interior: SoftSet


def is_baire(topo: SoftTopology) -> BaireReport:
    """Null interior for the union of all rare closed sets.

    One union decides the property: interiors are monotone in the set, so
    every subfamily union is dominated by this one.  Cached on the topology.
    """

    def build() -> BaireReport:
        rare = rare_closed_sets(topo)
        union = _union(c.bits for c in rare)
        inner = _interior_bits(topo, union)
        universe = topo.universe
        return BaireReport(
            not inner, rare, SoftSet.unchecked(universe, union),
            SoftSet.unchecked(universe, inner),
        )

    return _cached(topo, "baire", build)


def baire_subfamily_oracle(topo: SoftTopology, limit: int = 4096) -> bool:
    """Direct reading: every subfamily union of rare closed sets has null
    interior.  Exponential; refuses families past the subfamily budget."""
    rare = rare_closed_sets(topo)
    if 2 ** len(rare) > limit:
        raise PreconditionError(
            f"subfamily oracle budget exceeded: 2^{len(rare)} > {limit}"
        )
    for size in range(len(rare) + 1):
        for combo in itertools.combinations(rare, size):
            union = elementary_union_family(topo.universe, combo)
            if not is_null(interior(topo, union)):
                return False
    return True


def is_baire_by_nowhere_dense(topo: SoftTopology) -> bool:
    """Same property computed from nowhere dense closed sets.

    For nonnull closed sets the closure step is the identity, so this
    family coincides with the rare closed family up to the null set, which
    contributes nothing to the union; kept as an independent route, taking
    the closure and then the interior of each closed set.
    """
    family = (
        c.bits
        for c in closed_sets(topo)
        if c.bits and not _interior_bits(topo, _closure_bits(topo, c.bits))
    )
    return not _interior_bits(topo, _union(family))


def _union(bits: t.Iterable[int]) -> int:
    return functools.reduce(operator.or_, bits, 0)


# --- category ----------------------------------------------------------------

@d.dataclass(frozen=True)
class CategoryReport:
    subject: SoftSet
    verdict: str
    """One of "nowhere-dense", "first-category", "second-category"."""
    decomposition: tuple[SoftSet, ...]
    """Nowhere dense pieces whose elementary union is the subject (empty
    for second category)."""

    @property
    def first_category(self) -> bool:
        return self.verdict != "second-category"


def _require_category_subject(f: SoftSet, where: str) -> None:
    if not is_admissible(f):
        raise NotAdmissibleError(f"{where}: subject outside the admissible family")
    if is_null(f):
        raise PreconditionError(f"{where}: category is not defined for the null set")


def is_first_category(topo: SoftTopology, f: SoftSet) -> CategoryReport:
    """Whether the subject is a finite union of nowhere dense sets.

    Complete at finite scale: any nowhere dense piece sits inside its own
    closure, a rare closed set, so meeting the subject with every rare
    closed set recovers the maximal usable pieces.  Coverage by those
    pieces is therefore equivalent to the property.  The decomposition
    keeps only pieces that extend coverage, scanned in canonical order.
    """
    _require_category_subject(f, "is_first_category")
    if is_nowhere_dense(topo, f):
        return CategoryReport(f, "nowhere-dense", (f,))
    collapse = topo.universe.packing.collapse
    pieces = []
    for c in rare_closed_sets(topo):
        p = collapse(f.bits & c.bits)
        if p:
            pieces.append(p)
    if _union(pieces) != f.bits:
        return CategoryReport(f, "second-category", ())
    chosen: list[SoftSet] = []
    covered = 0
    for p in pieces:
        if p & ~covered:
            chosen.append(SoftSet.unchecked(topo.universe, p))
            covered |= p
        if covered == f.bits:
            break
    return CategoryReport(f, "first-category", tuple(chosen))


def _nonempty_submasks(mask: int) -> t.Iterator[int]:
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def first_category_oracle(
    topo: SoftTopology, f: SoftSet, gate: int = 64
) -> CategoryReport:
    """Exhaustive reading: union every nowhere dense admissible subset.

    Enumerates all nonnull admissible soft subsets of the subject;
    ``gate`` bounds the subject's soft-element count to keep that
    enumeration at desk scale.
    """
    _require_category_subject(f, "first_category_oracle")
    if element_count(f) > gate:
        raise PreconditionError(
            f"oracle budget exceeded: {element_count(f)} soft elements > {gate}"
        )
    covered = [0] * topo.universe.n_params
    chosen: list[SoftSet] = []
    for combo in itertools.product(*(
        list(_nonempty_submasks(m)) for m in f.slices
    )):
        n = SoftSet.of(topo.universe, combo)
        if is_nowhere_dense(topo, n):
            if any(m & ~c for m, c in zip(combo, covered)):
                chosen.append(n)
                covered = [c | m for c, m in zip(covered, combo)]
    if tuple(covered) != f.slices:
        return CategoryReport(f, "second-category", ())
    verdict = "nowhere-dense" if is_nowhere_dense(topo, f) else "first-category"
    return CategoryReport(f, verdict, tuple(chosen))


# --- local compactness and the category theorem trial ------------------------

@d.dataclass(frozen=True)
class LocalCompactnessReport:
    holds: bool
    counterexample: tuple[SoftElement, SoftSet] | None
    """Element and open around it with no compact neighborhood inside."""
    pairs_checked: int


def is_locally_compact(topo: SoftTopology) -> LocalCompactnessReport:
    """Compact neighborhoods inside every open around every element.

    For each element x and open O containing x we look for an open U and a
    compact K with x in U, U inside K, K inside O.  Compactness of K only
    needs admissibility of K and its complement here, so K is built from O,
    borrowing U's slice wherever O fills the space; ``locally_compact_oracle``
    tries every U.  With every member inside the absolute, that K is the
    absolute only when O is, and otherwise has every slice proper exactly
    when U fills no slice, which passes to subsets.  So O qualifies when it
    is the absolute or the open hull of x, the smallest U, fills no slice.
    A list with a member outside the absolute, or an element hull that is
    not a member, gets the oracle.  Opens are scanned in member order.  The
    report is cached on the topology; a non-Hausdorff one raises each time.
    """

    def build() -> LocalCompactnessReport:
        if not is_hausdorff(topo).holds:
            raise PreconditionError(
                "local compactness is only defined over Hausdorff spaces"
            )
        hulls = [open_hull(topo, x.bits) for x in space_elements(topo)]
        absolute = topo.absolute.bits
        if None in hulls or any(o & ~absolute for o in topo.packed):
            return locally_compact_oracle(topo)
        fields = topo.universe.packing.fields
        fills = [any(h & field == field for field in fields) for h in hulls]
        return _scan_opens(topo, lambda xi, o, around: o == absolute or not fills[xi])

    return _cached(topo, "locally_compact", build)


def locally_compact_oracle(topo: SoftTopology) -> LocalCompactnessReport:
    """``is_locally_compact`` without its Hausdorff precondition, trying
    every open U around x inside O, in member order, for each O."""
    fields = topo.universe.packing.fields
    absolute = topo.absolute.bits

    def found(xi: int, o: int, around: list[int]) -> bool:
        filled = sum(field for field in fields if o & field == field)
        for u in map(topo.packed.__getitem__, around):
            k = o & ~filled | u & filled
            # K is admissible by construction; its complement is admissible
            # exactly when K is the absolute or every slice is proper, which
            # is all compactness asks of a set here.
            if not u & ~o and (k == absolute or all(k & f != f for f in fields)):
                return True
        return False

    return _scan_opens(topo, found)


def _scan_opens(topo: SoftTopology, found: t.Callable) -> LocalCompactnessReport:
    """The first element and open around it, in order, that ``found``
    rejects, given the element's index, the open's bits and the indices of
    the members around the element."""
    packed = topo.packed
    pairs = 0
    for xi, x in enumerate(space_elements(topo)):
        xb = x.bits
        around = [i for i, o in enumerate(packed) if o & xb == xb]
        for oi in around:
            pairs += 1
            if not found(xi, packed[oi], around):
                return LocalCompactnessReport(False, (x, topo.members[oi]), pairs)
    return LocalCompactnessReport(True, None, pairs)

