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
point map) triple of a shape.  Closure and the whole-open reading are also
held to their references, or to a refusal, on lists that are mostly not
topologies.  Run as a script to sweep other shapes, the map sweep after
``--maps``:

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
    full_set,
    is_admissible,
    is_member,
    is_soft_subset,
    null_set,
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
    full_topology,
    indiscrete_topology,
    interior,
    interior_oracle,
    is_closed,
    is_limiting,
    is_open,
    limiting_elements,
    space_elements,
    verify,
)

from conftest import _rejected, oracle_or_refusal
from test_maps import (
    _reference_apply,
    _reference_definitional,
    _reference_failure_at,
    _reference_preimage_continuity,
)
from test_separation import _near_full_topologies
from test_topology import _unclosed_lists


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
    A dropped list is mostly not closed.  The two hull-based readings must
    match their references or refuse a list that ``verify`` rejects, where
    an element or image lacks an open hull.  Returns the triple count, how
    many dropped lists are not closed, and how many triples the
    elementwise reading refuses.
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
    count = refused = 0
    for point_maps in itertools.product(rows, repeat=u.n_params):
        f = SoftFunction(u, u, point_maps)
        for dt, ct in pairs:
            context = (point_maps, dt.members, ct.members)
            refused += _continuity_or_refusal(f, dt, ct) is None
            assert preimage_continuity(f, dt, ct) == (
                _reference_preimage_continuity(f, dt, ct)
            ), context
            count += 1
    open_lists = sum(not verify(d).valid for d in dropped)
    return count, open_lists, refused


def _continuity_or_refusal(f, dt, ct, elements=None):
    """``definitional_continuity``, and ``is_continuous_at`` on each of
    ``elements`` (the domain's by default), held to their references or a
    refusal of ``dt`` or ``ct``; returns the report, or None if refused."""
    for x in space_elements(dt) if elements is None else elements:
        oracle_or_refusal(
            lambda: is_continuous_at(f, dt, ct, x),
            lambda: _reference_failure_at(f, dt, ct, x) is None,
            dt, ct,
        )
    return oracle_or_refusal(
        lambda: definitional_continuity(f, dt, ct),
        lambda: _reference_definitional(f, dt, ct),
        dt, ct,
    )


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
    # closed, and 3 of those without the absolute lack some element's
    # hull.  Under the 4 maps they take part in 36 triples, of which the
    # elementwise reading refuses the 33 that ask for a missing hull.
    assert map_sweep(u, all_topologies(u)) == ((16 + 3 * 12) * 4, 8, 33)


def test_closure_and_whole_open_limiting_match_their_scans_or_refuse():
    """``closure`` against ``_reference_closure``, and the whole-open
    reading, as a list and element by element, against
    ``_reference_limiting``, on every admissible set of lists that are
    mostly not topologies: the near-full lists, seeded unclosed lists and
    every 2x2 topology with one member dropped.  Each must match its
    reference or refuse a list that ``verify`` rejects."""
    whole = LimitingMode.WHOLE_OPEN
    lists = _near_full_topologies() + list(_unclosed_lists())
    for t in all_topologies(universe_of(2, 2)):
        lists += [
            SoftTopology.of(t.universe, t.members[:i] + t.members[i + 1:])
            for i in range(len(t.members))
        ]
    outcomes = set()
    for topo in lists:
        u = topo.universe
        if topo.absolute.universe != u:
            continue  # both kernels refuse mixed universes before reading members
        closing = topo.absolute == full_set(u)
        refused = dict.fromkeys(("closure", "limiting") if closing else ("limiting",), False)
        for f in admissible_sets(u):
            if closing:
                refused["closure"] |= oracle_or_refusal(
                    lambda: closure(topo, f), lambda: _reference_closure(topo, f), topo
                ) is None
            limiting = _reference_limiting(topo, f, whole)
            refused["limiting"] |= oracle_or_refusal(
                lambda: limiting_elements(topo, f, whole), lambda: limiting, topo
            ) is None
            for x in space_elements(topo):
                refused["limiting"] |= oracle_or_refusal(
                    lambda: is_limiting(topo, f, x, whole), lambda: x in limiting, topo
                ) is None
        valid = not _rejected(topo)
        outcomes |= {(name, valid, r) for name, r in refused.items()}
    # rejected lists both refused and decided by each kernel, and no
    # verified list refused
    assert outcomes == {
        (name, valid, r) for name in ("closure", "limiting")
        for valid, r in ((True, False), (False, True), (False, False))
    }
    # a verified topology's closure reads no closed set
    topo = SoftTopology.of(universe_of(2, 2), full_topology(universe_of(2, 2)).members)
    assert verify(topo).valid
    for f in admissible_sets(topo.universe):
        closure(topo, f)
    assert "closed" not in topo._cache


def topologies_within(absolute: SoftSet) -> list[SoftTopology]:
    """Every topology with the given absolute: the null set and the
    absolute with each family of its other admissible subsets, verified."""
    u = absolute.universe
    inside = [s for s in admissible_sets(u) if s.bits and is_soft_subset(s, absolute)]
    inside.remove(absolute)
    found = []
    for size in range(len(inside) + 1):
        for extra in itertools.combinations(inside, size):
            topo = SoftTopology.of(u, (null_set(u), absolute, *extra), absolute)
            if verify(topo).valid:
                found.append(topo)
    return found


def test_continuity_into_a_smaller_absolute_matches_the_references():
    """No open contains an image outside the codomain's absolute, so an
    element mapped there passes, and an element outside the domain's
    absolute fails unless its image lies in no open.  Every 2x2 point map,
    between the topologies on the 8 smaller absolutes and the full and
    indiscrete topologies, checked on every element of the universe."""
    u = universe_of(2, 2)
    smaller = [t for a in admissible_sets(u)[1:-1] for t in topologies_within(a)]
    assert len(smaller) == 4 * 1 + 4 * 4
    domains = smaller + [full_topology(u), indiscrete_topology(u)]
    everywhere = space_elements(full_topology(u))
    rows = list(itertools.product(range(2), repeat=2))
    seen = set()
    for point_maps in itertools.product(rows, repeat=2):
        f = SoftFunction(u, u, point_maps)
        for dt, ct in itertools.product(domains, smaller):
            report = definitional_continuity(f, dt, ct)
            assert report == _reference_definitional(f, dt, ct), (point_maps, dt, ct)
            for x in everywhere:
                continuous = is_continuous_at(f, dt, ct, x)
                assert continuous == (_reference_failure_at(f, dt, ct, x) is None), (
                    point_maps, dt, ct, x
                )
                image = _reference_apply(f, x)
                seen.add((is_member(x, dt.absolute), is_member(image, ct.absolute), continuous))
            seen.add(report.continuous)
    # both verdicts of the whole map; at single elements, an image outside
    # the codomain's absolute always passes, an element outside the
    # domain's absolute with its image inside always fails, and elements
    # inside both absolutes get both verdicts
    assert seen == {True, False} | {
        (True, True, True), (True, True, False), (False, True, False),
        (True, False, True), (False, False, True),
    }


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
        triples, open_lists, refused = map_sweep(u, all_topologies(u))
        print(
            f"{shape} maps: {triples} triples match the continuity references"
            f" or refuse a list that is not a topology ({open_lists} dropped"
            f" lists not closed, {refused} triples refused)"
            f" in {time.perf_counter() - start:.1f} s"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
