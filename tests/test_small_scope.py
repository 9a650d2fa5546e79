"""Exhaustive small-scope checks of Theorem 3.1, of the checkers and of
map continuity.

Every elementary topology of a few small shapes is enumerated.  On each one
every carrier that meets the two side conditions gets its subspace
verified, and every checker is compared with its oracle, the topology's
members shuffled so that member order matters; on every admissible set so
are closure, interior, nowhere density, first category and both
limiting-element readings, as a list and element by element, with an
oracle or a literal reference.  Both continuity readings are compared with
their literal references on every (domain topology, codomain topology,
point map) triple of a shape.  Run as a script to sweep other shapes, the
map sweep after ``--maps``:

    PYTHONPATH=src python tests/test_small_scope.py 5x1 2x3 --maps 3x1 2x2
"""

from __future__ import annotations

import itertools
import random
import sys
import time

import pytest

from softtopo.baire import (
    baire_subfamily_oracle,
    first_category_oracle,
    is_baire,
    is_baire_by_nowhere_dense,
    is_first_category,
    is_locally_compact,
    is_nowhere_dense,
    locally_compact_oracle,
    rare_closed_sets,
)
from softtopo.core import (
    SoftSet,
    Universe,
    elementary_intersection,
    elementary_intersection_family,
    is_admissible,
    is_soft_subset,
)
from softtopo.fuzzing.generate import close_subbase, full_size
from softtopo.maps import (
    SoftFunction,
    definitional_continuity,
    is_continuous_at,
    preimage_continuity,
)
from softtopo.separation import (
    hausdorff_oracle,
    is_hausdorff,
    is_normal,
    is_regular,
    normal_oracle,
    regular_oracle,
)
from softtopo.subspace import build_subspace, carrier_set, check_subspace_preconditions
from softtopo.topology import (
    LimitingMode,
    SoftTopology,
    closure,
    interior,
    interior_oracle,
    is_closed,
    is_limiting,
    is_open,
    limiting_elements,
    open_hull,
    space_elements,
    verify,
)

from test_maps import (
    _reference_definitional,
    _reference_failure_at,
    _reference_preimage_continuity,
)


def universe_of(points: int, params: int) -> Universe:
    return Universe.of(
        tuple(f"p{i}" for i in range(points)), tuple(f"e{k}" for k in range(params))
    )


def admissible_sets(u: Universe) -> list[SoftSet]:
    """Every admissible soft set over ``u``, the null set first."""
    packing = u.packing
    return [
        SoftSet.unchecked(u, bits)
        for bits in range(packing.full + 1)
        if bits & ~packing.full == 0 and packing.is_admissible(bits)
    ]


def all_topologies(u: Universe) -> list[SoftTopology]:
    """Breadth first from {null, absolute}: each step adds one admissible
    set and closes.  Any topology is reached by adding its members one at a
    time, since every closure on the way stays inside it."""
    admissible = admissible_sets(u)
    first = close_subbase(u, (), full_size(u))
    found = {frozenset(m.bits for m in first): first}
    frontier = [first]
    while frontier:
        grown = []
        for members in frontier:
            bits = frozenset(m.bits for m in members)
            for s in admissible:
                if s.bits in bits:
                    continue
                closed = close_subbase(u, (*members, s), full_size(u))
                key = frozenset(m.bits for m in closed)
                if key not in found:
                    found[key] = closed
                    grown.append(closed)
        frontier = grown
    return [SoftTopology.of(u, members) for members in found.values()]


def carriers(u: Universe) -> list[tuple[str, ...]]:
    return [
        tuple(p for i, p in enumerate(u.points) if mask >> i & 1)
        for mask in range(1, 1 << u.n_points)
    ]


def sweep(u: Universe, topologies: list[SoftTopology]) -> int:
    """Check every subspace whose preconditions hold; returns their count."""
    count = 0
    for topo in topologies:
        for points in carriers(u):
            carrier = carrier_set(u, points)
            if not check_subspace_preconditions(topo, carrier).satisfied:
                continue
            sub = build_subspace(topo, points)
            assert verify(sub.topology).valid, (topo.members, points)
            traces = [elementary_intersection(m, carrier) for m in topo.members]
            assert set(sub.topology.members) == set(traces)
            assert sub.origins == tuple(traces.index(tr) for tr in sub.topology.members)
            count += 1
    return count


def _reference_closure(topo: SoftTopology, f: SoftSet) -> SoftSet:
    """The elementary intersection of the closed sets containing f, each
    the complement of a member that is admissible."""
    u = topo.universe
    closed = [SoftSet(u, u.packing.full ^ m.bits) for m in topo.members]
    return elementary_intersection_family(
        u, [c for c in closed if is_admissible(c) and is_soft_subset(f, c)]
    )


def _reference_limiting(
    topo: SoftTopology, f: SoftSet, mode: LimitingMode
) -> tuple:
    """The limiting elements by a scan of each element against every
    member, field by field: an open that holds the element (per parameter:
    at a field; whole open: at every field) must meet f in that field away
    from the element."""
    fields = topo.universe.packing.fields

    def limiting(xb: int) -> bool:
        for g in topo.packed:
            if mode is LimitingMode.WHOLE_OPEN and xb & ~g:
                continue
            near = f.bits & g & ~xb
            for field in fields:
                if mode is LimitingMode.PER_PARAMETER and not g & xb & field:
                    continue
                if near & field == 0:
                    return False
        return True

    return tuple(x for x in space_elements(topo) if limiting(x.bits))


def check_sweep(u: Universe, topologies: list[SoftTopology], seed: int = 0) -> int:
    """Compare every checker with its oracle or literal reference on each
    topology, its members shuffled; returns how many topologies are
    Hausdorff."""
    rng = random.Random(seed)
    packing = u.packing
    admissible = admissible_sets(u)
    separated = 0
    for listed in topologies:
        topo = SoftTopology.of(u, rng.sample(listed.members, len(listed.members)))
        assert verify(topo).valid, topo.members
        elements = space_elements(topo)
        hausdorff = is_hausdorff(topo)
        assert hausdorff == hausdorff_oracle(topo), topo.members
        assert is_regular(topo) == regular_oracle(topo), topo.members
        assert is_normal(topo) == normal_oracle(topo), topo.members
        if hausdorff.holds:
            separated += 1
            assert is_locally_compact(topo) == locally_compact_oracle(topo), topo.members
        baire = is_baire(topo).baire
        assert baire == is_baire_by_nowhere_dense(topo), topo.members
        if 2 ** len(rare_closed_sets(topo)) <= 4096:
            assert baire == baire_subfamily_oracle(topo), topo.members
        for f in admissible:
            assert interior(topo, f) == interior_oracle(topo, f), (topo.members, f)
            assert is_open(topo, f) == (f in topo.members), (topo.members, f)
            comp = SoftSet.unchecked(u, packing.full ^ f.bits)
            closed = packing.is_admissible(comp.bits) and comp in topo.members
            assert is_closed(topo, f) == closed, (topo.members, f)
            shut = closure(topo, f)
            assert shut == _reference_closure(topo, f), (topo.members, f)
            for mode in LimitingMode:
                limiting = _reference_limiting(topo, f, mode)
                assert limiting_elements(topo, f, mode) == limiting, (
                    topo.members, f, mode
                )
                assert limiting == tuple(
                    x for x in elements if is_limiting(topo, f, x, mode)
                ), (topo.members, f, mode)
            if f.bits:
                sparse = not interior_oracle(topo, shut).bits
                assert is_nowhere_dense(topo, f) == sparse, (topo.members, f)
                assert (
                    is_first_category(topo, f).verdict
                    == first_category_oracle(topo, f).verdict
                ), (topo.members, f)
    return separated


def map_sweep(
    u: Universe, topologies: list[SoftTopology], seed: int = 0
) -> tuple[int, int, int]:
    """Compare ``definitional_continuity``, ``is_continuous_at`` and
    ``preimage_continuity`` with their literal references.

    The triples are every (domain, codomain, point map) with both lists
    from ``topologies``, members shuffled, and each list with one member
    dropped, paired with the list it came from both ways and with itself.
    A dropped list is mostly not closed, and where an element or image
    lacks an open hull the checker falls back to its scan.  Returns the
    triple count, how many dropped lists are not closed, and how many
    elements of dropped lists lack a hull.
    """
    rng = random.Random(seed)
    listed = [SoftTopology.of(u, rng.sample(t.members, len(t.members))) for t in topologies]
    pairs = list(itertools.product(listed, repeat=2))
    dropped = []
    for t in listed:
        for i in range(len(t.members)):
            d = SoftTopology.of(u, t.members[:i] + t.members[i + 1:])
            dropped.append(d)
            pairs += [(d, t), (t, d), (d, d)]
    rows = list(itertools.product(range(u.n_points), repeat=u.n_points))
    count = 0
    for point_maps in itertools.product(rows, repeat=u.n_params):
        f = SoftFunction(u, u, point_maps)
        for dt, ct in pairs:
            context = (point_maps, dt.members, ct.members)
            assert definitional_continuity(f, dt, ct) == _reference_definitional(
                f, dt, ct
            ), context
            for x in space_elements(dt):
                assert is_continuous_at(f, dt, ct, x) == (
                    _reference_failure_at(f, dt, ct, x) is None
                ), (context, x)
            assert preimage_continuity(f, dt, ct) == (
                _reference_preimage_continuity(f, dt, ct)
            ), context
            count += 1
    open_lists = sum(not verify(d).valid for d in dropped)
    hulless = sum(
        open_hull(d, x.bits) is None for d in dropped for x in space_elements(d)
    )
    return count, open_lists, hulless


@pytest.mark.parametrize(
    "points, params, topology_count, subspace_count",
    # 1-parameter topology counts are the labelled topologies, OEIS A000798.
    [(2, 1, 4, 12), (3, 1, 29, 203), (4, 1, 355, 5325), (2, 2, 90, 41)],
)
def test_every_subspace_of_a_small_topology_verifies(
    points, params, topology_count, subspace_count
):
    u = universe_of(points, params)
    topologies = all_topologies(u)
    assert len(topologies) == topology_count
    assert all(verify(topo).valid for topo in topologies)
    assert sweep(u, topologies) == subspace_count


@pytest.mark.parametrize("points, params", [(2, 1), (3, 1), (2, 2), (4, 1)])
def test_every_checker_matches_its_oracle_on_a_small_topology(points, params):
    u = universe_of(points, params)
    # Hausdorff needs the opens to separate every pair of distinct points,
    # which only the full topology does at these shapes.
    assert check_sweep(u, all_topologies(u)) == 1


def test_both_continuity_readings_match_their_references_on_every_map():
    u = universe_of(2, 1)
    # 4 topologies of 2, 3, 3 and 4 members, and 4 point maps: 16 pairs of
    # topologies and 3 pairs for each of the 12 dropped lists, under each
    # map.  The 8 lists without the null set or the absolute are not
    # closed, and without the absolute 4 elements have no hull.
    assert map_sweep(u, all_topologies(u)) == ((16 + 3 * 12) * 4, 8, 4)


def main(argv: list[str]) -> None:
    split = argv.index("--maps") if "--maps" in argv else len(argv)
    for shape in argv[:split]:
        points, params = map(int, shape.split("x"))
        u = universe_of(points, params)
        start = time.perf_counter()
        topologies = all_topologies(u)
        count = sweep(u, topologies)
        separated = check_sweep(u, topologies)
        print(
            f"{shape}: {len(topologies)} topologies, {count} subspaces verified,"
            f" checkers match their oracles ({separated} Hausdorff)"
            f" in {time.perf_counter() - start:.1f} s"
        )
    for shape in argv[split + 1:]:
        points, params = map(int, shape.split("x"))
        u = universe_of(points, params)
        start = time.perf_counter()
        triples, open_lists, hulless = map_sweep(u, all_topologies(u))
        print(
            f"{shape} maps: {triples} triples match the continuity references"
            f" ({open_lists} dropped lists not closed, {hulless} elements of"
            f" dropped lists without a hull) in {time.perf_counter() - start:.1f} s"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
