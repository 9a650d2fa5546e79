"""Separation checkers: Hausdorff, regular, and normal variants.

All scans run in canonical order (closed sets in their enumeration order,
elements lexicographically, opens in member order), so the reported witness
or counterexample is deterministic for a given topology value.

The Hausdorff hypothesis only constrains element pairs that differ at every
parameter, and its separation demand is pointwise disjointness of the two
opens.  The regular conclusion uses elementary disjointness between the two
opens; the printed form of that definition (the closed set elementary-
disjoint from its own superset) is unsatisfiable for nonempty closed sets
and stays available behind ``literal_disjointness`` for demonstration.  The
normal checker keeps the printed asymmetry: pointwise-disjoint closed sets,
elementary-disjoint opens.
"""

from __future__ import annotations

import dataclasses as d

from .topology import (
    SoftTopology,
    _cached,
    _iter_bits,
    closed_sets,
    containing_masks,
    disjoint_rows,
    space_elements,
    superset_mask,
)


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


def is_hausdorff(topo: SoftTopology) -> SeparationReport:
    """Every pair differing at all parameters gets pointwise-disjoint open hulls.

    Runs on element bits: two elements differ at every parameter exactly
    when their bits are disjoint, and a pair is separated exactly when the
    second element lies in some member pointwise-disjoint from a member
    around the first, which one OR over the first element's members
    decides.  The witness is the first separated pair with its first
    separating members in member order.  A list that is the full topology
    over two or more points skips the scan: it is separated, and its
    witness is found directly.
    """

    def build() -> SeparationReport:
        elements = space_elements(topo)
        if _lists_every_admissible_set(topo):
            return SeparationReport(
                "hausdorff", True, _full_topology_witness(topo, elements), None
            )
        cont = containing_masks(topo)
        disj = disjoint_rows(topo, False)
        members = topo.members
        bits = [x.bits for x in elements]
        masks = [cont[x] for x in elements]
        witness = None
        for xi, xb in enumerate(bits):
            cx = masks[xi]
            # members pointwise-disjoint from some member around x
            reach = 0
            rest = cx
            while rest:
                low = rest & -rest
                reach |= disj[low.bit_length() - 1]
                rest ^= low
            for yi in range(xi + 1, len(bits)):
                if xb & bits[yi]:
                    continue  # a shared coordinate: outside the hypothesis
                cy = masks[yi]
                if not reach & cy:
                    return SeparationReport(
                        "hausdorff", False, None, (elements[xi], elements[yi])
                    )
                if witness is None:
                    i = next(i for i in _iter_bits(cx) if disj[i] & cy)
                    hits = disj[i] & cy
                    j = (hits & -hits).bit_length() - 1
                    witness = (elements[xi], elements[yi], members[i], members[j])
        return SeparationReport("hausdorff", True, witness, None)

    return _cached(topo, "hausdorff", build)


def _lists_every_admissible_set(topo: SoftTopology) -> bool:
    """Whether the members are the full topology over two or more points
    with the full absolute: distinct, over the topology's universe, null
    or admissible, and as many as the admissible sets plus the null set.
    Such a list is separated whatever else holds of it (FINDINGS.md)."""
    universe = topo.universe
    packing = universe.packing
    if universe.n_points < 2 or len(topo.members) != (
        (2**universe.n_points - 1) ** universe.n_params + 1
    ):
        return False
    absolute = topo.absolute
    if absolute.bits != packing.full or absolute.universe != universe:
        return False
    packed = topo.packed
    return (
        all(m.universe == universe for m in topo.members)
        and all(map(packing.is_admissible, packed))
        and len(set(packed)) == len(packed)
    )


def _full_topology_witness(topo: SoftTopology, elements) -> tuple:
    """The witness the scan reports on the full topology, found directly.

    The scan's first separated pair is the first element with the first
    element disjoint from it, which exists from two points on.  Since the
    span of ``y`` is a member, a member around ``x`` is disjoint from some
    member around ``y`` exactly when it avoids ``y``'s bits; the second
    member is then the first around ``y`` disjoint from it.
    """
    x = elements[0]
    xb = x.bits
    y = next(y for y in elements if not xb & y.bits)
    yb = y.bits
    packed = topo.packed
    i = next(i for i, m in enumerate(packed) if m & xb == xb and not m & yb)
    j = next(j for j, m in enumerate(packed) if m & yb == yb and not m & packed[i])
    return (x, y, topo.members[i], topo.members[j])


def is_regular(
    topo: SoftTopology, literal_disjointness: bool = False
) -> SeparationReport:
    """Closed sets are separated from elements avoiding them at all parameters.

    Default conclusion: the two opens are elementary-disjoint.  With
    ``literal_disjointness`` the closed set itself must be elementary-disjoint
    from its open superset, which only the empty closed set can satisfy.
    """

    def build() -> SeparationReport:
        members = topo.members
        cont = containing_masks(topo)
        disj = disjoint_rows(topo, True)
        collapse = topo.universe.packing.collapse
        elements = space_elements(topo)
        element_bits = [x.bits for x in elements]
        witness = None
        for f in closed_sets(topo):
            fp = f.bits
            supersets = list(_iter_bits(superset_mask(topo, fp)))
            for x, xp in zip(elements, element_bits):
                if xp & fp:
                    continue  # hypothesis wants avoidance at every parameter
                cx = cont[x]
                pair_witness = None
                if literal_disjointness:
                    for gi in supersets:
                        if collapse(fp & topo.packed[gi]) == 0 and cx:
                            hi = (cx & -cx).bit_length() - 1
                            pair_witness = (f, x, members[gi], members[hi])
                            break
                else:
                    for gi in supersets:
                        hits = disj[gi] & cx
                        if hits:
                            hi = (hits & -hits).bit_length() - 1
                            pair_witness = (f, x, members[gi], members[hi])
                            break
                if pair_witness is None:
                    return SeparationReport("regular", False, None, (f, x))
                if witness is None:
                    witness = pair_witness
        return SeparationReport("regular", True, witness, None)

    return _cached(topo, ("regular", literal_disjointness), build)


def is_normal(topo: SoftTopology) -> SeparationReport:
    """Pointwise-disjoint closed pairs get elementary-disjoint open hulls."""

    def build() -> SeparationReport:
        members = topo.members
        disj = disjoint_rows(topo, True)
        closed = closed_sets(topo)
        member_index = {m: i for i, m in enumerate(topo.packed)}
        supersets = [superset_mask(topo, c.bits) for c in closed]

        witness = None
        for a, f in enumerate(closed):
            fp = f.bits
            for b in range(a, len(closed)):
                g = closed[b]
                gp = g.bits
                if fp & gp:
                    continue  # hypothesis: pointwise disjoint
                pair_witness = None
                # Disjoint closed sets that are themselves open separate
                # each other; try that before scanning.
                fi = member_index.get(fp)
                gi = member_index.get(gp)
                if fi is not None and gi is not None and disj[fi] >> gi & 1:
                    pair_witness = (f, g, f, g)
                else:
                    for ui in _iter_bits(supersets[a]):
                        hits = disj[ui] & supersets[b]
                        if hits:
                            vi = (hits & -hits).bit_length() - 1
                            pair_witness = (f, g, members[ui], members[vi])
                            break
                if pair_witness is None:
                    return SeparationReport("normal", False, None, (f, g))
                if witness is None:
                    witness = pair_witness
        return SeparationReport("normal", True, witness, None)

    return _cached(topo, "normal", build)
