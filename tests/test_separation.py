from __future__ import annotations

import itertools
import random

import pytest

from softtopo import separation, topology
from softtopo.core import SoftSet, Universe, full_set, iter_elements, null_set
from softtopo.document import parse_file
from softtopo.fuzzing import GeneratorConfig, gen_topology
from softtopo.fuzzing.generate import full_size, gen_hausdorff_with_stats, trial_rng
from softtopo.errors import PreconditionError
from softtopo.separation import SeparationReport, is_hausdorff, is_normal, is_regular
from softtopo.subspace import SubspacePreconditionError, build_subspace
from softtopo.topology import (
    SoftTopology,
    _iter_bits,
    containing_masks,
    disjoint_rows,
    full_topology,
    indiscrete_topology,
    topology_from,
)

from conftest import FIXTURES, soft

U22 = Universe.of(("a", "b"), ("e1", "e2"))


def test_regression_space_is_not_hausdorff(abcd_topo):
    report = is_hausdorff(abcd_topo)
    assert report.property_name == "hausdorff"
    assert not report.holds
    x, y = report.counterexample
    # first unseparable fully-differing pair in canonical scan order
    assert x.coords == (0, 0)
    assert y.coords == (1, 1)
    assert report.witness is None


def test_full_topology_is_hausdorff():
    report = is_hausdorff(full_topology(U22))
    assert report.holds
    assert report.counterexample is None
    x, y, ox, oy = report.witness
    assert x.coords == (0, 0) and y.coords == (1, 1)
    assert ox == soft(U22, e1=["a"], e2=["a"])
    assert oy == soft(U22, e1=["b"], e2=["b"])


def test_indiscrete_is_not_hausdorff_beyond_one_point():
    assert not is_hausdorff(indiscrete_topology(U22)).holds
    # a single point admits no fully-differing pair, so the property is vacuous
    u1 = Universe.of(("a",), ("e1", "e2"))
    assert is_hausdorff(indiscrete_topology(u1)).holds


def test_hausdorff_iff_full_member_count():
    """Separation at two or more points pins the member count exactly.

    This is the equivalence the instance generator relies on for its size
    pre-filter, so it gets its own check against randomized topologies.
    """
    for points, params in ((2, 2), (3, 2), (4, 1)):
        config = GeneratorConfig(points=points, params=params, seed=97, trials=1)
        for i in range(60):
            topo = gen_topology(config, trial_rng(config, i))
            expected = len(topo.members) == full_size(topo.universe)
            assert is_hausdorff(topo).holds == expected


def test_full_topology_is_regular_and_normal():
    tf = full_topology(U22)
    assert is_regular(tf).holds
    assert is_normal(tf).holds


def test_literal_disjointness_reading_fails():
    # read literally, a closed set always meets its own superset
    report = is_regular(full_topology(U22), literal_disjointness=True)
    assert not report.holds
    closed, element = report.counterexample
    assert closed == soft(U22, e1=["b"], e2=["b"])
    assert element.coords == (0, 0)


def test_regular_negative(abcd_topo):
    # closed ({d},{a}) and element (a,b) admit no separating open pair
    assert not is_regular(abcd_topo).holds


def test_normal_on_small_spaces(abcd_topo):
    u1 = Universe.of(("a",), ("e1",))
    assert is_normal(full_topology(u1)).holds
    # here only null-paired closed sets need separating, so this holds too
    assert is_normal(abcd_topo).holds


def test_normal_negative():
    # {a} and {b} are closed and disjoint, but every open around {a} and
    # every open around {b} share the point c
    u = Universe.of(("a", "b", "c"), ("e1",))
    members = (
        null_set(u),
        full_set(u),
        soft(u, e1="bc"),
        soft(u, e1="ac"),
        soft(u, e1="c"),
    )
    topo = topology_from(u, members)
    report = is_normal(topo)
    assert not report.holds
    assert report.counterexample == (soft(u, e1="a"), soft(u, e1="b"))


def _fully_differing(x, y):
    return all(a != b for a, b in zip(x.coords, y.coords))


def _hausdorff_reference(topo):
    """The pairwise Hausdorff scan on element coordinates, as it was before
    the scan moved to element bits."""
    elements = tuple(iter_elements(topo.absolute))
    cont = containing_masks(topo)
    disj = disjoint_rows(topo, False)
    members = topo.members
    witness = None
    for xi in range(len(elements)):
        x = elements[xi]
        cx = cont[x]
        for yi in range(xi + 1, len(elements)):
            y = elements[yi]
            if not _fully_differing(x, y):
                continue
            cy = cont[y]
            pair_witness = None
            for i in _iter_bits(cx):
                hits = disj[i] & cy
                if hits:
                    j = (hits & -hits).bit_length() - 1
                    pair_witness = (x, y, members[i], members[j])
                    break
            if pair_witness is None:
                return SeparationReport("hausdorff", False, None, (x, y))
            if witness is None:
                witness = pair_witness
    return SeparationReport("hausdorff", True, witness, None)


def _subspaces(topo):
    points = topo.universe.points
    for size in range(1, len(points)):
        for carrier in itertools.combinations(points, size):
            try:
                yield build_subspace(topo, carrier).topology
            except SubspacePreconditionError:
                pass


def test_hausdorff_matches_the_pairwise_scan():
    topologies = []
    for path in sorted(FIXTURES.glob("*.json")):
        topo = parse_file(str(path)).topology
        if topo is not None and path.name != "not_closed.json":
            topologies.append(topo)
    for points, params in itertools.product((1, 2, 3), repeat=2):
        topologies.append(full_topology(Universe.of(
            [f"x{i}" for i in range(points)], [f"e{k}" for k in range(params)]
        )))
    for points, params in ((1, 2), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2)):
        config = GeneratorConfig(points=points, params=params, seed=5)
        for i in range(40):
            topologies.append(gen_topology(config, trial_rng(config, i)))
        for i in range(5):
            topologies.append(gen_hausdorff_with_stats(config, trial_rng(config, i)).topology)
    topologies += [sub for topo in topologies[:] for sub in _subspaces(topo)]

    outcomes = set()
    subspaces = 0
    for topo in topologies:
        report = is_hausdorff(topo)
        assert report == _hausdorff_reference(topo), topo
        outcomes.add((report.holds, report.witness is not None))
        subspaces += topo.absolute != full_set(topo.universe)
    # separated with a witness, vacuous, and not separated all occur
    assert outcomes == {(True, True), (True, False), (False, False)}
    assert subspaces >= 100


def _shape(points, params, names="x"):
    return Universe.of([f"{names}{i}" for i in range(points)], [f"e{k}" for k in range(params)])


def _count_scans(monkeypatch):
    """Record each pairwise Hausdorff scan: only the scan builds rows."""
    scans = []
    real = separation.disjoint_rows

    def counting(topo, elementary):
        scans.append(topo)
        return real(topo, elementary)

    monkeypatch.setattr(separation, "disjoint_rows", counting)
    return scans


def test_hausdorff_decides_full_topologies_by_structure(monkeypatch):
    scans = _count_scans(monkeypatch)
    rng = random.Random(9)
    checked = 0
    for points, params in ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (2, 3)):
        members = list(full_topology(_shape(points, params)).members)
        for _ in range(20):
            rng.shuffle(members)
            topo = SoftTopology.of(members[0].universe, members)
            report = is_hausdorff(topo)
            assert report.holds and report.witness is not None
            assert report == _hausdorff_reference(topo), members
            checked += 1
    assert checked == 140
    assert scans == []


def _near_full_lists(u):
    """Member lists that miss being the full topology by one property."""
    full = list(full_topology(u).members)
    twin = _shape(u.n_points, u.n_params, names="y")
    yield SoftTopology.of(u, full[:4] + full[5:])
    yield SoftTopology.of(u, full[:4] + [full[3]] + full[5:])
    mixed = SoftSet.of(u, [u.full_mask] + [0] * (u.n_params - 1))
    yield SoftTopology.of(u, full[:4] + [mixed] + full[5:])
    yield SoftTopology.of(u, full[:4] + [SoftSet(twin, full[4].bits)] + full[5:])
    yield SoftTopology.of(u, full, absolute=SoftSet(twin, full_set(u).bits))
    smaller = SoftSet.of(u, [u.full_mask >> 1] * u.n_params)
    yield SoftTopology.of(u, full, absolute=smaller)


def test_hausdorff_scans_lists_that_are_not_the_full_topology(monkeypatch):
    scans = _count_scans(monkeypatch)
    topologies = [t for shape in ((2, 2), (3, 2), (2, 3)) for t in _near_full_lists(_shape(*shape))]
    # one point: the full topology, but with no fully-differing pairs
    topologies.append(full_topology(_shape(1, 2)))
    assert len(topologies) == 19
    for topo in topologies:
        assert is_hausdorff(topo) == _hausdorff_reference(topo), topo.members
    assert scans == topologies


def test_hausdorff_on_full_topologies_keeps_the_element_budget(monkeypatch):
    monkeypatch.setattr(topology, "_ELEMENT_BUDGET", 3)
    topology._elements_of.cache_clear()
    members = full_topology(U22).members
    with pytest.raises(PreconditionError, match="over the budget of 3"):
        is_hausdorff(SoftTopology.of(U22, members))
