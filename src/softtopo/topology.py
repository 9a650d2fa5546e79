"""Elementary soft topologies: verification, closed sets, closure, interior.

A topology here is a finite duplicate-free member list over one universe,
containing the empty soft set and a designated absolute member, with every
member admissible and the list closed under pairwise elementary union and
pairwise elementary intersection.  Closure under arbitrary unions reduces to
the pairwise check for finite lists; the reduction itself is covered by a
test rather than assumed silently.  ``verify`` settles that check
without visiting the pairs when it can: a list is closed exactly when the
admissible sets in the ring of unions of its minimal-neighbourhood masks are
its members (``_ring_accepts``; Birkhoff's rings of sets), which it counts
one block of fields at a time.  A list the ring does not accept within the
scan's own pair count gets the pairwise scan; ``violations_of`` yields its
violations one at a time, so a caller that names only the first few stops
the scan there.

The kernels work on ``SoftSet.bits``, the packed layout of ``core``:
``SoftTopology.packed`` holds the members' bits in member order so scans
can index into it, and ``SoftTopology.member_bits`` the same bits as a set
for membership.  A per-topology table of the same minimal masks, kept
from the ring test when the topology went through ``violations_of``, gives
``open_hull``, the smallest member around a set, ``interior``, the largest
member inside one, and ``admissible_meets``, the side condition on
pairwise meets.  In a verified topology a hull always exists, and a list
that is not closed shows by lacking one; the separation and local
compactness checkers decide their hypotheses with it.  ``closure`` and
``interior`` check their input and call bit kernels, ``_closure_bits``
over a cached tuple of closed bits and ``_interior_bits``, which the Baire
checks call directly on sets that ``closure`` or ``closed_sets`` returned.
``space_elements`` is the one value shared across topologies: a
process-wide cache holds one element tuple per absolute, so every topology
over that absolute reuses the same elements and their cached bits, and an
absolute over the element budget is refused before any element is built.

The absolute member defaults to the full soft set; subspace topologies reuse
the same verifier with the constant set on the carrier points as absolute.
Operations that rely on complements relative to the whole universe (closed
sets, closure, interior of complements, and everything layered on them)
refuse topologies whose absolute is not the full soft set.
"""

from __future__ import annotations

import dataclasses as d
import enum
import functools
import itertools
import operator
import typing as t

from .core import (
    _ELEMENT_BUDGET,
    Packing,
    SoftElement,
    SoftSet,
    Universe,
    element_count,
    full_set,
    is_admissible,
    is_member,
    is_null,
    is_soft_subset,
    iter_elements,
    null_set,
    pointwise_complement,
)
from .errors import (
    NotAdmissibleError,
    PreconditionError,
    UniverseMismatchError,
)


@d.dataclass(frozen=True)
class Violation:
    """One failed axiom with the witnesses that exhibit it.

    The offending set is always recomputable from the witnesses, so reports
    can be re-checked independently.
    """

    axiom: str
    witnesses: tuple[SoftSet, ...]
    offending: SoftSet | None

    def describe(self) -> str:
        if self.offending is not None and self.witnesses and self.offending not in self.witnesses:
            return f"{self.axiom}: {self.witnesses} -> {self.offending!r} missing"
        if self.witnesses:
            return f"{self.axiom}: {self.witnesses}"
        return self.axiom


@d.dataclass(frozen=True)
class TopologyReport:
    valid: bool
    violations: tuple[Violation, ...]


@d.dataclass(frozen=True)
class SoftTopology:
    """An immutable member list with a private cache for derived structures.

    The cache only ever holds values computed from the immutable fields, so
    sharing instances between threads stays safe.
    """

    universe: Universe
    members: tuple[SoftSet, ...]
    absolute: SoftSet
    _cache: dict = d.field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(
        cls,
        universe: Universe,
        members: t.Iterable[SoftSet],
        absolute: SoftSet | None = None,
    ) -> "SoftTopology":
        return cls(universe, tuple(members), absolute or full_set(universe))

    @functools.cached_property
    def packed(self) -> tuple[int, ...]:
        """The members' bits, in member order."""
        return tuple(m.bits for m in self.members)

    @functools.cached_property
    def member_bits(self) -> frozenset[int]:
        """The members' bits, for membership tests."""
        return frozenset(self.packed)

    def __len__(self) -> int:
        return len(self.members)


def _cached(topo: SoftTopology, key, builder):
    # The check-then-set is unguarded, yet benign under threads: builders
    # are pure functions of the immutable fields, so a lost race only
    # stores an equal value.
    cache = topo._cache
    if key not in cache:
        cache[key] = builder()
    return cache[key]


# --- construction and verification -----------------------------------------

def verify(topo: SoftTopology) -> TopologyReport:
    """Check every axiom and report all violations, not just the first.

    Runs on member bits; ``fuzzing.oracles.verify_topology_oracle`` is
    the ``SoftSet`` reference it must match, violation for violation.
    """
    violations = tuple(violations_of(topo))
    return TopologyReport(valid=not violations, violations=violations)


def violations_of(topo: SoftTopology) -> t.Iterator[Violation]:
    """``verify``'s violations in its order, scanning pairs only as far as
    the caller reads.  The per-member checks come first, collected in one
    pass over the members.  When the ring test accepts the list, its
    minimal-mask table becomes the topology's hull table, so no check
    builds that table again."""
    universe, members, absolute = topo.universe, topo.members, topo.absolute
    packing = universe.packing
    full, spare, outside = packing.full, packing.spare, ~absolute.bits

    seen: set[int] = set()
    duplicates: list[Violation] = []
    checks: list[Violation] = []
    admissible: list[SoftSet] = []
    for m in members:
        # ``Universe.of`` shares one object per shape, so identity settles
        # most comparisons without a call.
        if m.universe is not universe and m.universe != universe:
            raise UniverseMismatchError("member from a different universe")
        bits = m.bits
        if bits in seen:
            duplicates.append(Violation("duplicate-member", (m,), m))
        seen.add(bits)
        # nonnull with an empty slice: Packing.is_admissible, inlined
        if bits and (bits + full) & spare != spare:
            checks.append(Violation("member-admissible", (m,), m))
            continue
        admissible.append(m)
        if bits & outside:
            checks.append(Violation("member-inside-absolute", (m,), m))
    if absolute.universe is not universe and absolute.universe != universe:
        raise UniverseMismatchError("absolute from a different universe")

    violations = duplicates
    if 0 not in seen:
        violations.append(Violation("phi-member", (), null_set(universe)))
    if absolute.bits not in seen:
        violations.append(Violation("absolute-member", (), absolute))
    violations += checks

    yield from violations
    if not violations:
        minimal = _minimal_masks(seen)
        # The ring may do as many unions as the scan would visit pairs.
        budget = len(seen) * (len(seen) - 1) // 2
        if _ring_accepts(packing, minimal, len(seen), budget):
            topo._cache.setdefault("hulls", minimal)
            return

    # Pairwise closure; finite families reduce to this by induction.
    collapse = packing.collapse
    for i, f in enumerate(admissible):
        a = f.bits
        for g in admissible[i + 1:]:
            union = a | g.bits
            if union not in seen:
                yield Violation("union-closure", (f, g), SoftSet(universe, union))
            meet = collapse(a & g.bits)
            if meet not in seen:
                yield Violation("intersection-closure", (f, g), SoftSet(universe, meet))


def _ring_accepts(
    packing: Packing, minimal: dict[int, int], count: int, budget: float
) -> bool:
    """Whether ``count`` distinct member bits, holding 0 and all
    admissible, are closed under elementary union and meet, given their
    table ``minimal`` of ``_minimal_masks``.

    For each layout bit ``b`` some member sets, ``M_b`` is the pointwise
    meet of the members containing ``b``.  Let ``D`` be the set of unions
    of the ``M_b``, the empty union 0 included.  The list is closed exactly
    when the admissible sets in ``D`` are the members (0 counts as
    admissible).

    Every member ``m`` lies in ``D``: ``m`` is the union of the ``M_b`` over
    its bits, since ``b`` is in ``M_b`` and ``M_b`` is inside ``m``.  Call a
    set of bits an up-set when, with each bit ``b``, it contains ``M_b``.
    Members are up-sets, pointwise unions and meets of up-sets are up-sets,
    and an up-set made of bits some member sets is the union of the ``M_b``
    over its bits, so ``D`` is the lattice the members generate under
    pointwise union and meet (FINDINGS.md, "Which generators close to the
    full topology", with ``G`` the member list).

    If the admissible sets in ``D`` are the members: the union of two
    admissible members is admissible and lies in ``D``, and the meet of two
    members lies in ``D`` and collapses to itself or to 0, so every pairwise
    elementary union and meet is a member.  Conversely, if the list is
    closed, take an admissible nonnull ``d`` in ``D``.  By distributivity
    ``d`` is the pointwise meet of unions of members, each union containing
    ``d``.  Those unions are members, and every partial meet of them
    contains the admissible ``d``, so no elementary meet collapses on the way
    and ``d`` is a member.

    Since every member lies in ``D``, the test counts the admissible sets
    in ``D`` instead of listing them, one block of fields at a time
    (``_field_blocks``).  Masks in different blocks touch disjoint fields,
    so ``D`` is the product of the blocks' rings, and a nonnull union is
    admissible exactly when its part in each block touches every field of
    that block.  So ``D`` holds ``1 + A_1 * ... * A_k`` admissible sets,
    where ``A_j`` counts the sets in block ``j``'s ring that touch each of
    its fields (FINDINGS.md, "The ring factors over blocks of fields").  A
    full ``p``x``q`` topology has ``q`` blocks of ``2**p`` sets in place of
    one ring of ``2**(p*q)``.  Building the rings may take at most
    ``budget`` unions in all, past which the answer is False and the caller
    scans.
    """
    full = packing.full
    masks = sorted(set(minimal.values()), key=int.bit_count)
    admissible = 1
    for block in _field_blocks(packing, masks):
        ring = {0}
        # No mask is a union of others, so each one grows its block's ring:
        # a part ``M_c`` of such a union holding the bit ``b`` of ``M_b``
        # contains ``M_b``, so the two are equal, and the masks are
        # distinct.  Smallest first is the fixed order the union budget is
        # counted in.
        for mask in masks:
            if (mask + full) & block:
                budget -= len(ring)
                if budget < 0:
                    return False
                ring |= {r | mask for r in ring}
        admissible *= sum((r + full) & block == block for r in ring)
    return admissible + 1 == count


def _field_blocks(packing: Packing, masks: t.Sequence[int]) -> list[int]:
    """The fields of ``masks`` in blocks, each block as its spare bits: two
    masks share a block when they share a field, directly or through other
    masks.  One block of every field when a mask touches every field, or
    when there is no mask.  A nonnull member is a union of masks and
    touches every field, so the blocks cover every field."""
    full, spare = packing.full, packing.spare
    blocks: list[int] = []
    # The largest masks come first: any one of them that touches every
    # field settles the answer.
    for mask in reversed(masks):
        fields = (mask + full) & spare
        if fields == spare:
            return [spare]
        # The blocks are disjoint, so their sum is their union.
        fields |= sum(b for b in blocks if b & fields)
        blocks = [b for b in blocks if not b & fields]
        blocks.append(fields)
    return blocks or [spare]


def _minimal_masks(members: t.Collection[int]) -> dict[int, int]:
    """``M_b`` for each layout bit ``b`` some member sets, keyed by the bit
    ``1 << b``: the pointwise meet of the members containing ``b``.  One
    pass over the members per bit."""
    minimal: dict[int, int] = {}
    rest = functools.reduce(operator.or_, members, 0)
    while rest:
        bit = rest & -rest
        rest ^= bit
        meet = -1
        for m in members:
            if m & bit:
                meet &= m
        minimal[bit] = meet
    return minimal


def _hull_table(topo: SoftTopology) -> dict[int, int]:
    """The topology's ``_minimal_masks``, built here unless ``verify`` kept
    them.  The hot callers read the cache first."""
    return _cached(topo, "hulls", lambda: _minimal_masks(topo.packed))


def indiscrete_topology(universe: Universe) -> SoftTopology:
    return SoftTopology.of(universe, (null_set(universe), full_set(universe)))


@functools.lru_cache(maxsize=8)
def full_topology(universe: Universe) -> SoftTopology:
    """Every admissible soft set is open; members in lexicographic slice order."""
    nonempty = range(1, universe.full_mask + 1)
    width = universe.packing.width
    # Each parameter's nonempty slices, shifted into its field once.
    fields = [[mask << k * width for mask in nonempty] for k in range(universe.n_params)]
    members = [null_set(universe)] + [
        SoftSet.unchecked(universe, sum(parts)) for parts in itertools.product(*fields)
    ]
    return SoftTopology.of(universe, members)


def _require_full_absolute(topo: SoftTopology, op: str) -> None:
    absolute = topo.absolute
    if absolute.bits != topo.universe.packing.full or absolute.universe != topo.universe:
        raise PreconditionError(
            f"{op} needs a topology whose absolute is the full soft set"
        )


# --- open and closed sets ---------------------------------------------------

def is_open(topo: SoftTopology, f: SoftSet) -> bool:
    return f.universe == topo.universe and f.bits in topo.member_bits


def is_closed(topo: SoftTopology, f: SoftSet) -> bool:
    """Closed means: f admissible, its complement admissible, and the
    elementary complement is open."""
    _require_full_absolute(topo, "is_closed")
    if f.universe != topo.universe:
        raise UniverseMismatchError("set from a different universe")
    if not is_admissible(f):
        return False
    comp = pointwise_complement(f)
    if not is_admissible(comp):
        return False
    # For an admissible complement the elementary complement equals it.
    return comp.bits in topo.member_bits


def closed_sets(topo: SoftTopology) -> tuple[SoftSet, ...]:
    """All closed sets, in member order of their complements, deduplicated."""
    _require_full_absolute(topo, "closed_sets")
    # The complement of a member lies inside the layout.
    return _cached(topo, "closed", lambda: tuple(
        SoftSet.unchecked(topo.universe, c) for c in _closed_bits(topo)
    ))


def _closed_bits(topo: SoftTopology) -> tuple[int, ...]:
    """``closed_sets`` as bits, for callers that checked the absolute."""

    def build() -> tuple[int, ...]:
        packing = topo.universe.packing
        comps = (packing.full ^ o for o in topo.packed)
        return tuple(dict.fromkeys(filter(packing.is_admissible, comps)))

    return _cached(topo, "closed-bits", build)


def nonnull_closed_sets(topo: SoftTopology) -> tuple[SoftSet, ...]:
    """``closed_sets`` without the null set, in the same order."""
    return _cached(
        topo, "closed-nonnull", lambda: tuple(c for c in closed_sets(topo) if c.bits)
    )


# --- closure and interior ---------------------------------------------------

def _require_subject(topo: SoftTopology, f: SoftSet, op: str) -> int:
    if not is_admissible(f):
        raise NotAdmissibleError(f"{op}: input outside the admissible family")
    if f.universe != topo.universe:
        raise UniverseMismatchError(f"{op}: input from a different universe")
    return f.bits


def closure(topo: SoftTopology, f: SoftSet) -> SoftSet:
    """Elementary intersection of every closed superset of f.

    The absolute is always a closed superset, so the family is nonempty.
    """
    _require_full_absolute(topo, "closure")
    p = _require_subject(topo, f, "closure")
    return SoftSet.unchecked(topo.universe, _closure_bits(topo, p))


def _closure_bits(topo: SoftTopology, p: int) -> int:
    """``closure`` of the bits ``p``, for callers that ran its guards."""
    packing = topo.universe.packing
    meet = packing.full
    for c in _closed_bits(topo):
        if p & ~c == 0:
            meet &= c
    return packing.collapse(meet)


def interior(topo: SoftTopology, f: SoftSet) -> SoftSet:
    """Elementary union of every open contained in f.

    Equals the span of the interior elements of f: each open inside f is
    admissible, so its slices are exactly the coordinates its elements reach.
    Every open inside f lies inside ``U``, the union of the ``M_b`` inside f
    over the bits of f, so a ``U`` that is a member is the interior, and an
    inadmissible ``U`` leaves only the null open once every member is
    admissible (FINDINGS.md, "The largest closed set avoiding a set").
    Other lists get ``interior_oracle``.
    """
    _require_full_absolute(topo, "interior")
    p = _require_subject(topo, f, "interior")
    return SoftSet.unchecked(topo.universe, _interior_bits(topo, p))


def _interior_bits(topo: SoftTopology, p: int) -> int:
    """``interior`` of the bits ``p``, for callers that ran its guards."""
    minimal = topo._cache.get("hulls") or _hull_table(topo)
    outside = ~p
    union = 0
    # M_b holds b, so an M_b inside f comes from a bit of f.
    for mask in minimal.values():
        if not mask & outside:
            union |= mask
    if union not in topo.member_bits:
        is_admissible = topo.universe.packing.is_admissible
        if is_admissible(union) or not _cached(
            topo, "admissible", lambda: all(map(is_admissible, topo.packed))
        ):
            return interior_oracle(topo, SoftSet.unchecked(topo.universe, p)).bits
        union = 0
    return union


def interior_oracle(topo: SoftTopology, f: SoftSet) -> SoftSet:
    """``interior`` by definition: the union of the members inside f."""
    _require_full_absolute(topo, "interior")
    p = _require_subject(topo, f, "interior")
    union = 0
    for o in topo.packed:
        if o & ~p == 0:
            union |= o
    return SoftSet(topo.universe, union)


def interior_witness(
    topo: SoftTopology, f: SoftSet, x: SoftElement
) -> SoftSet | None:
    """First open in member order with x inside it and it inside f."""
    for o in topo.members:
        if is_member(x, o) and is_soft_subset(o, f):
            return o
    return None


def is_interior_element(topo: SoftTopology, f: SoftSet, x: SoftElement) -> bool:
    return interior_witness(topo, f, x) is not None


# --- limiting elements ------------------------------------------------------

class LimitingMode(enum.Enum):
    """Two readings of the limiting-element condition.

    PER_PARAMETER applies the punctured-slice requirement at every parameter
    where an open's slice contains the coordinate, open by open.  WHOLE_OPEN
    only constrains opens containing the element at every parameter.
    """

    PER_PARAMETER = "per-parameter"
    WHOLE_OPEN = "whole-open"


def is_limiting(
    topo: SoftTopology,
    f: SoftSet,
    x: SoftElement,
    mode: LimitingMode = LimitingMode.PER_PARAMETER,
) -> bool:
    """Whether x is limiting for f.  The per-parameter reading holds when x
    holds no failing bit (``_failing_bits``); the whole-open reading scans
    the members holding x, field by field."""
    if x.universe != topo.universe or f.universe != topo.universe:
        raise UniverseMismatchError("mixed universes in is_limiting")
    xb = x.bits
    if mode is LimitingMode.PER_PARAMETER:
        return not xb & _failing(topo, f.bits)
    fields = topo.universe.packing.fields
    for g in topo.packed:
        if xb & ~g:
            continue
        # f's bits inside g's slices punctured at x's coordinates
        near = f.bits & g & ~xb
        for field in fields:
            if near & field == 0:
                return False
    return True


def limiting_elements(
    topo: SoftTopology,
    f: SoftSet,
    mode: LimitingMode = LimitingMode.PER_PARAMETER,
) -> tuple[SoftElement, ...]:
    """The soft elements of the absolute that are limiting, in canonical
    order.

    The per-parameter reading splits over layout bits: an element is
    limiting exactly when each of its bits ``b`` passes, and ``b`` in field
    ``k`` passes when every member holding ``b`` meets f in field ``k`` at
    some bit other than ``b`` (FINDINGS.md, "Limiting elements split over
    bits").  So one pass over the members per field decides every element,
    and the topology caches its failing bits per f.  The whole-open reading
    scans each element with ``is_limiting``.
    """
    elements = space_elements(topo)
    if mode is LimitingMode.WHOLE_OPEN:
        return tuple(x for x in elements if is_limiting(topo, f, x, mode))
    # is_limiting's check; the elements lie in the absolute's universe
    if elements and not topo.universe == topo.absolute.universe == f.universe:
        raise UniverseMismatchError("mixed universes in is_limiting")
    failing = _failing(topo, f.bits)
    return tuple(x for x in elements if not x.bits & failing)


def _failing(topo: SoftTopology, f: int) -> int:
    """``_failing_bits``, cached on the topology per f."""
    return _cached(topo, ("failing", f), lambda: _failing_bits(topo, f))


def _failing_bits(topo: SoftTopology, f: int) -> int:
    """The layout bits that fail the per-parameter reading for the bits
    ``f``: those some member holds while meeting f in their field at no
    other bit."""
    failing = 0
    for field in topo.universe.packing.fields:
        for g in topo.packed:
            near = f & g & field
            if not near:
                failing |= g & field
            elif not near & (near - 1):  # a single bit, which g holds
                failing |= near
    return failing


# --- neighborhoods ----------------------------------------------------------

def nbd_witness(
    topo: SoftTopology, n: SoftSet, x: SoftElement
) -> SoftSet | None:
    if is_null(n):
        raise PreconditionError("the null soft set cannot be a neighborhood")
    return interior_witness(topo, n, x)


def is_nbd(topo: SoftTopology, n: SoftSet, x: SoftElement) -> bool:
    return nbd_witness(topo, n, x) is not None


# --- cached kernels shared by the checker modules --------------------------

def space_elements(topo: SoftTopology) -> tuple[SoftElement, ...]:
    """All soft elements of the absolute member, canonical order.

    Every topology over an equal absolute gets the identical tuple, so the
    elements, with their cached bits, are built once per
    absolute.  Raises PreconditionError, before building any element, for
    an absolute with more than ``_ELEMENT_BUDGET`` elements.
    """
    return _elements_of(topo.absolute)


@functools.lru_cache(maxsize=16)
def _elements_of(absolute: SoftSet) -> tuple[SoftElement, ...]:
    count = element_count(absolute)
    if count > _ELEMENT_BUDGET:
        raise PreconditionError(
            f"the absolute has {count} soft elements, over the budget of {_ELEMENT_BUDGET}"
        )
    return tuple(iter_elements(absolute))


def open_hull(topo: SoftTopology, bits: int) -> int | None:
    """The smallest member containing ``bits``, as bits, or None: the union
    of the ``M_b`` over its bits, when that is a member (FINDINGS.md, "The
    smallest open around a set").  In a verified topology it is one for
    every admissible ``bits`` inside the absolute, so None only comes from
    lists that are not closed, or from bits that no member contains.
    """
    minimal = topo._cache.get("hulls") or _hull_table(topo)
    hull = 0
    while bits:
        bit = bits & -bits
        bits ^= bit
        mask = minimal.get(bit)
        if mask is None:
            return None
        hull |= mask
    return hull if hull in topo.member_bits else None


def pairwise_admissible_violations(
    topo: SoftTopology,
) -> tuple[tuple[int, int], ...]:
    """Member index pairs (i <= j) whose pointwise meet is inadmissible.

    Several statements assume there are none (``admissible_meets``).  Such
    a meet is not null, yet its elementary reading collapses, which takes
    two parameters.
    """
    return _cached(topo, "pairwise_violations", lambda: tuple(_violations(topo)))


def admissible_meets(topo: SoftTopology) -> bool:
    """Whether every pointwise meet of two members is admissible, the side
    condition of several statements; pairs are scanned up to the first
    violation only."""
    return _cached(topo, "admissible_meets", lambda: next(_violations(topo), None) is None)


def _violations(topo: SoftTopology) -> t.Iterator[tuple[int, int]]:
    """The pairs of ``pairwise_admissible_violations``, in order.  A
    violating meet holds some ``M_b``, which is then inadmissible too, so
    the pairs are scanned only when some ``M_b`` is; a verified topology
    then always has one (FINDINGS.md, "The largest closed set avoiding a
    set")."""
    if topo.universe.n_params == 1:
        return
    packing = topo.universe.packing
    if all(map(packing.is_admissible, _hull_table(topo).values())):
        return
    full, spare, packed = packing.full, packing.spare, topo.packed
    for i, m in enumerate(packed):
        for j in range(i, len(packed)):
            meet = m & packed[j]
            # nonnull with an empty slice: Packing.is_admissible, inlined
            if meet and (meet + full) & spare != spare:
                yield i, j
