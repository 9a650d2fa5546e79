"""Separation checkers: Hausdorff, regular, and normal variants.

All scans run in canonical order (closed sets in their enumeration order,
elements lexicographically, opens in member order), so the reported witness
or counterexample is deterministic for a given topology value.

The Hausdorff hypothesis only constrains element pairs that differ at every
parameter, and its separation demand is pointwise disjointness of the two
opens.  The regular conclusion uses elementary disjointness between the two
opens; the printed form of that definition (the closed set elementary-
disjoint from its own superset) is unsatisfiable for nonempty closed sets
(FINDINGS.md, "Regularity: literal reading versus intended reading").  The
normal checker keeps the printed asymmetry: pointwise-disjoint closed sets,
elementary-disjoint opens.

Each checker decides a hypothesis instance with one test on open hulls
(``topology.open_hull``, the smallest member around a set): some opens
around the two sides are disjoint, pointwise or elementary, exactly when
the two hulls are, because disjointness passes to subsets.  Regular and
normal decide the whole property with one test per element or closed set
(``_by_largest_avoiders``).  Members are scanned in member order only for
the first witness.  The checkers take a verified topology: a list in which
some hull a checker needs is not a member is not a topology, and
``open_hull`` refuses it with PreconditionError.  Each checker's oracle, the
definitional scan of member pairs for every instance, takes any list; the
tests hold each checker to its oracle's report or that refusal.
"""

from __future__ import annotations

import dataclasses as d
import itertools
import typing as t

from .topology import SoftTopology, _cached, closed_sets, open_hull, space_elements


@d.dataclass(frozen=True)
class SeparationReport:
    """Outcome of one separation check.

    ``witness`` is the first hypothesis instance together with the opens that
    separate it; ``counterexample`` is the first hypothesis instance that no
    pair of opens separates.  Exactly one of them is set unless the
    hypothesis is vacuous, in which case both stay None and the property
    holds.
    """

    property_name: str
    holds: bool
    witness: tuple | None
    counterexample: tuple | None


def _check(
    topo: SoftTopology,
    name: str,
    instances: t.Iterable[tuple],
    disjoint: t.Callable[[int, int], bool],
    hulls: bool = False,
    open_sides: bool = False,
) -> SeparationReport:
    """Scan the hypothesis instances ``(a, b)`` in order.  An instance is
    separated by members ``U`` around ``a`` and ``V`` around ``b`` with
    ``disjoint(U, V)``, which must still hold for subsets of ``U`` and
    ``V``.  So with ``hulls`` the open hulls of ``a`` and ``b``, each
    computed once, decide it.  Without ``hulls`` (the oracles) member pairs
    are scanned for every instance.  The first witness takes the first
    ``U``, then ``V``, in member order; with ``open_sides`` two sides that
    are both members are their own.
    """
    packed, members = topo.packed, topo.members
    member_bits = topo.member_bits if open_sides else frozenset()
    hulls_of: dict[int, int] = {}

    def hull(bits: int) -> int:
        if bits not in hulls_of:
            hulls_of[bits] = open_hull(topo, bits)
        return hulls_of[bits]

    def separating(inst: tuple) -> tuple | None:
        p, q = inst[0].bits, inst[1].bits
        if p in member_bits and q in member_bits:
            return inst
        around_q = [j for j, v in enumerate(packed) if v & q == q]
        for i, u in enumerate(packed):
            if u & p == p:
                for j in around_q:
                    if disjoint(u, packed[j]):
                        return members[i], members[j]
        return None

    witness = None
    for inst in instances:
        if hulls:
            separated = disjoint(hull(inst[0].bits), hull(inst[1].bits))
        else:
            separated = separating(inst) is not None
        if not separated:
            return SeparationReport(name, False, None, inst)
        if witness is None:
            witness = inst + separating(inst)
    return SeparationReport(name, True, witness, None)


def _by_largest_avoiders(
    topo: SoftTopology,
    name: str,
    instances: t.Iterable[tuple],
    sides: t.Iterable[int],
    open_sides: bool = False,
) -> SeparationReport:
    """``_check`` for regular (the elements as ``sides``) and normal (the
    closed sets), whose instances pair a closed set with a side it avoids
    pointwise and ask for elementary-disjoint opens.  The closed sets
    avoiding ``s`` are the closed subsets of ``g = full ^ hull(s)``, so
    every instance at ``s`` is separated exactly when ``g`` is inadmissible
    or ``hull(g)`` is elementary-disjoint from ``hull(s)``; the null closed
    set needs the null member as its hull (FINDINGS.md, "The largest closed
    set avoiding a set").  When every side passes, only the first instance
    is scanned, for its witness; otherwise the scan runs to the first
    counterexample.
    """
    packing, disjoint = topo.universe.packing, _elementary(topo)
    open_hull(topo, 0)  # the null closed set's hull; refuses a list without it
    for s in sides:
        o = open_hull(topo, s)
        g = packing.full ^ o
        if packing.is_admissible(g) and packing.collapse(open_hull(topo, g) & o):
            return _check(topo, name, instances, disjoint, True, open_sides)
    return _check(topo, name, itertools.islice(instances, 1), disjoint, True, open_sides)


def _pointwise(u: int, v: int) -> bool:
    return not u & v


def _elementary(topo: SoftTopology) -> t.Callable[[int, int], bool]:
    collapse = topo.universe.packing.collapse
    return lambda u, v: not collapse(u & v)


def _differing_pairs(elements: tuple) -> t.Iterator[tuple]:
    """Element pairs, in scan order, that differ at every parameter: their
    bits are disjoint."""
    for xi, x in enumerate(elements):
        for y in elements[xi + 1:]:
            if not x.bits & y.bits:
                yield x, y


def is_hausdorff(topo: SoftTopology) -> SeparationReport:
    """Every pair differing at all parameters lies in pointwise-disjoint
    opens; the witness is the first such pair with its first separating
    members in member order."""

    def build() -> SeparationReport:
        instances = _differing_pairs(space_elements(topo))
        return _check(topo, "hausdorff", instances, _pointwise, True)

    return _cached(topo, "hausdorff", build)


def hausdorff_oracle(topo: SoftTopology) -> SeparationReport:
    """``is_hausdorff`` by definition: member pairs for every instance."""
    return _check(topo, "hausdorff", _differing_pairs(space_elements(topo)), _pointwise)


def _regular_instances(topo: SoftTopology) -> t.Iterator[tuple]:
    """Closed sets with the elements avoiding them at every parameter."""
    elements = space_elements(topo)
    return ((f, x) for f in closed_sets(topo) for x in elements if not f.bits & x.bits)


def is_regular(topo: SoftTopology) -> SeparationReport:
    """Closed sets are separated from elements avoiding them at all
    parameters by elementary-disjoint opens, decided with one test per
    element."""

    def build() -> SeparationReport:
        elements = (x.bits for x in space_elements(topo))
        return _by_largest_avoiders(topo, "regular", _regular_instances(topo), elements)

    return _cached(topo, "regular", build)


def regular_oracle(topo: SoftTopology) -> SeparationReport:
    """``is_regular`` by definition: member pairs for every instance."""
    return _check(topo, "regular", _regular_instances(topo), _elementary(topo))


def _normal_instances(topo: SoftTopology) -> t.Iterator[tuple]:
    """Pointwise-disjoint pairs of closed sets, each pair once."""
    for f, g in itertools.combinations_with_replacement(closed_sets(topo), 2):
        if not f.bits & g.bits:
            yield f, g


def is_normal(topo: SoftTopology) -> SeparationReport:
    """Pointwise-disjoint closed pairs get elementary-disjoint open hulls,
    decided with one test per closed set; disjoint closed sets that are
    themselves open separate each other."""

    def build() -> SeparationReport:
        closed = (c.bits for c in closed_sets(topo))
        return _by_largest_avoiders(topo, "normal", _normal_instances(topo), closed, True)

    return _cached(topo, "normal", build)


def normal_oracle(topo: SoftTopology) -> SeparationReport:
    """``is_normal`` by definition: member pairs for every instance."""
    return _check(topo, "normal", _normal_instances(topo), _elementary(topo), False, True)
