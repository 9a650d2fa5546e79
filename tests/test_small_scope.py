"""Exhaustive small-scope check of Theorem 3.1.

Every elementary topology of a few small shapes is enumerated, and on each
one every carrier that meets the two side conditions gets its subspace
verified.  Run as a script to sweep other shapes:

    PYTHONPATH=src python tests/test_small_scope.py 5x1 2x3
"""

from __future__ import annotations

import sys
import time

import pytest

from softtopo.core import SoftSet, Universe, elementary_intersection
from softtopo.fuzzing.generate import close_subbase
from softtopo.subspace import build_subspace, carrier_set, check_subspace_preconditions
from softtopo.topology import SoftTopology, verify


def universe_of(points: int, params: int) -> Universe:
    return Universe.of(
        tuple(f"p{i}" for i in range(points)), tuple(f"e{k}" for k in range(params))
    )


def all_topologies(u: Universe) -> list[SoftTopology]:
    """Breadth first from {null, absolute}: each step adds one admissible
    set and closes.  Any topology is reached by adding its members one at a
    time, since every closure on the way stays inside it."""
    packing = u.packing
    admissible = [
        SoftSet.unchecked(u, bits)
        for bits in range(1, packing.full + 1)
        if bits & ~packing.full == 0 and packing.is_admissible(bits)
    ]
    first = close_subbase(u, (), None)
    found = {frozenset(m.bits for m in first): first}
    frontier = [first]
    while frontier:
        grown = []
        for members in frontier:
            bits = frozenset(m.bits for m in members)
            for s in admissible:
                if s.bits in bits:
                    continue
                closed = close_subbase(u, (*members, s), None)
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


def main(shapes: list[str]) -> None:
    for shape in shapes:
        points, params = map(int, shape.split("x"))
        u = universe_of(points, params)
        start = time.perf_counter()
        topologies = all_topologies(u)
        count = sweep(u, topologies)
        print(
            f"{shape}: {len(topologies)} topologies, {count} subspaces verified"
            f" in {time.perf_counter() - start:.1f} s"
        )


if __name__ == "__main__":
    main(sys.argv[1:])
