from __future__ import annotations

import itertools
import random

import pytest

from softtopo import separation, topology
from softtopo.baire import is_locally_compact, locally_compact_oracle
from softtopo.core import SoftSet, Universe, full_set, null_set
from softtopo.document import parse_file
from softtopo.fuzzing.generate import GeneratorConfig, full_size, gen_topology, trial_rng
from softtopo.errors import PreconditionError, SubspacePreconditionError, UniverseMismatchError
from softtopo.separation import (
    hausdorff_oracle,
    is_hausdorff,
    is_normal,
    is_regular,
    normal_oracle,
    regular_oracle,
)
from softtopo.subspace import build_subspace
from softtopo.topology import (
    SoftTopology,
    full_topology,
    indiscrete_topology,
    open_hull,
)

from conftest import FIXTURES, soft, verified

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
    topo = verified(u, members)
    report = is_normal(topo)
    assert not report.holds
    assert report.counterexample == (soft(u, e1="a"), soft(u, e1="b"))


def _subspaces(topo):
    points = topo.universe.points
    for size in range(1, len(points)):
        for carrier in itertools.combinations(points, size):
            try:
                yield build_subspace(topo, carrier).topology
            except SubspacePreconditionError:
                pass


def _oracle_lists():
    """Every fixture topology but the unclosed one, the full topologies up
    to 3x3 with shuffled member orders, random closures, the subspaces of all
    of those, and the near-full lists."""
    topologies = []
    for path in sorted(FIXTURES.glob("*.json")):
        topo = parse_file(str(path)).topology
        if topo is not None and path.name != "not_closed.json":
            topologies.append(topo)
    rng = random.Random(3)
    for points, params in itertools.product((1, 2, 3), repeat=2):
        full = full_topology(_shape(points, params))
        topologies.append(full)
        if (points, params) in ((2, 2), (3, 2), (2, 3)):
            members = list(full.members)
            for _ in range(10):
                rng.shuffle(members)
                topologies.append(SoftTopology.of(full.universe, members))
    for points, params in ((1, 2), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2)):
        config = GeneratorConfig(points=points, params=params, seed=5)
        for i in range(40):
            topologies.append(gen_topology(config, trial_rng(config, i)))
    topologies += [sub for topo in topologies[:] for sub in _subspaces(topo)]
    topologies += _near_full_topologies()
    return topologies


def test_hausdorff_matches_the_pairwise_scan(monkeypatch):
    scans = _count_scans(monkeypatch)
    topologies = _oracle_lists()
    outcomes = set()
    subspaces = 0
    for topo in topologies:
        report = is_hausdorff(topo)
        assert report == hausdorff_oracle(topo), topo
        outcomes.add((report.holds, report.witness is not None))
        subspaces += topo.absolute != full_set(topo.universe)
    # separated with a witness, vacuous, and not separated all occur
    assert outcomes == {(True, True), (True, False), (False, False)}
    assert subspaces >= 100
    assert scans == _lacking_a_span()


def _shape(points, params, names="x"):
    return Universe.of([f"{names}{i}" for i in range(points)], [f"e{k}" for k in range(params)])


def _count_scans(monkeypatch):
    """Record each Hausdorff check that falls back to the pairwise oracle."""
    scans = []

    def counting(topo):
        scans.append(topo)
        return hausdorff_oracle(topo)

    monkeypatch.setattr(separation, "hausdorff_oracle", counting)
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
            assert report == hausdorff_oracle(topo), members
            checked += 1
    assert checked == 140
    assert scans == []


def _near_full_lists(u):
    """Member lists that miss being the full topology by one property.  The
    first three lack the span of one element, so its open hull is not a
    member; the others keep every span."""
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


def _near_full_topologies():
    near = [t for shape in ((2, 2), (3, 2), (2, 3)) for t in _near_full_lists(_shape(*shape))]
    # one point: the full topology, but with no fully-differing pairs
    return near + [full_topology(_shape(1, 2))]


def _lacking_a_span():
    """The near-full lists without some element's span: only these need
    the pairwise scan."""
    near = _near_full_topologies()
    return [t for i in range(0, 18, 6) for t in near[i:i + 3]]


def test_hausdorff_scans_lists_that_are_not_the_full_topology(monkeypatch):
    scans = _count_scans(monkeypatch)
    topologies = _near_full_topologies()
    assert len(topologies) == 19
    for topo in topologies:
        assert is_hausdorff(topo) == hausdorff_oracle(topo), topo.members
    assert scans == _lacking_a_span()


def test_hausdorff_on_full_topologies_keeps_the_element_budget(monkeypatch):
    monkeypatch.setattr(topology, "_ELEMENT_BUDGET", 3)
    topology._elements_of.cache_clear()
    members = full_topology(U22).members
    with pytest.raises(PreconditionError, match="over the budget of 3"):
        is_hausdorff(SoftTopology.of(U22, members))


def _outcome(check, *args):
    try:
        return check(*args)
    except PreconditionError as exc:
        return str(exc)


def _hull_filling_a_slice():
    """A topology whose absolute has one point at e1: no element pair differs
    everywhere, and the open hull of (a,a,a) fills e0 inside a smaller open."""
    u = Universe.of(("a", "b"), ("e0", "e1", "e2"))
    absolute = soft(u, e0="ab", e1="a", e2="ab")
    members = (null_set(u), absolute, soft(u, e0="ab", e1="a", e2="a"),
               soft(u, e0="ab", e1="a", e2="b"))
    return verified(u, members, absolute)


def _member_outside_the_absolute():
    """A list with the full set as a member outside the absolute
    ({a,b},{a}): inside the full set K can be the absolute, though the open
    hull of either element fills e1."""
    absolute = soft(U22, e1="ab", e2="a")
    return SoftTopology.of(U22, (null_set(U22), absolute, full_set(U22)), absolute)


def _without_the_null_member():
    """A list lacking the null member in which every element passes the
    test on its largest avoiding closed set, yet the null closed set, the
    complement of the absolute, is not separated from (x2,x0): no member
    is elementary-disjoint from the hull of that element.  The absolute
    comes last, so the first instance does not show it."""
    u = _shape(3, 2)
    slices = ((0b100, 0b110), (0b011, 0b111), (0b010, 0b111), (0b110, 0b111),
              (0b100, 0b100), (0b111, 0b111))
    return SoftTopology.of(u, [SoftSet.of(u, masks) for masks in slices])


def test_regular_normal_and_local_compactness_match_their_oracles():
    outcomes = set()
    extra = [_hull_filling_a_slice(), _member_outside_the_absolute(), _without_the_null_member()]
    for topo in _oracle_lists() + extra:
        report = _outcome(is_regular, topo)
        assert report == _outcome(regular_oracle, topo), topo
        outcomes.add(("regular", getattr(report, "holds", None)))
        report = _outcome(is_normal, topo)
        assert report == _outcome(normal_oracle, topo), topo
        outcomes.add(("normal", getattr(report, "holds", None)))
        if is_hausdorff(topo).holds:
            report = is_locally_compact(topo)
            assert report == locally_compact_oracle(topo), topo
            outcomes.add(("locally-compact", report.holds))
    # both verdicts, and the full-absolute precondition, occur for each
    assert outcomes == {
        (name, verdict) for name in ("regular", "normal") for verdict in (True, False, None)
    } | {("locally-compact", True), ("locally-compact", False)}


def test_open_hull_needs_a_member_around_every_bit():
    # the absolute is not listed, so no member contains (b,b)
    a = soft(U22, e1="a", e2="a")
    topo = SoftTopology.of(U22, (null_set(U22), a))
    assert open_hull(topo, a.bits) == a.bits
    assert open_hull(topo, full_set(U22).bits) is None
    report = is_hausdorff(topo)
    assert report == hausdorff_oracle(topo)
    assert [x.coords for x in report.counterexample] == [(0, 0), (1, 1)]


def test_normal_witness_keeps_the_scan_order():
    u = Universe.of(("a", "b", "c"), ("e1",))
    ab, bc, c, b = (soft(u, e1=s) for s in ("ab", "bc", "c", "b"))
    # closed sets c, a, abc, null, ab, ac: the first pointwise-disjoint pair
    # is the open {c} with {a}, which is not open
    topo = verified(u, (ab, bc, null_set(u), full_set(u), c, b))
    assert is_normal(topo).witness == (c, soft(u, e1="a"), c, ab)
    # with the absolute first, the null closed set comes first and pairs
    # with itself
    topo = verified(u, (full_set(u), null_set(u), ab, bc, c, b))
    assert is_normal(topo).witness == (null_set(u),) * 4


def test_regular_checks_the_element_budget_before_the_absolute(monkeypatch):
    # an absolute that is not the full set and has 4 elements, over a budget of 3
    monkeypatch.setattr(topology, "_ELEMENT_BUDGET", 3)
    topology._elements_of.cache_clear()
    u = _shape(3, 2)
    absolute = SoftSet.of(u, [0b011, 0b011])
    topo = SoftTopology.of(u, (null_set(u), absolute), absolute)
    with pytest.raises(PreconditionError, match="over the budget of 3"):
        is_regular(topo)
    with pytest.raises(PreconditionError, match="needs a topology whose absolute is the full"):
        is_normal(topo)



def _verified(topo):
    try:
        return topology.verify(SoftTopology.of(topo.universe, topo.members)).valid
    except UniverseMismatchError:
        return False


def test_regular_and_normal_take_their_oracles_only_off_verified_topologies(monkeypatch):
    """The tests on the largest closed set avoiding each element or closed
    set decide every verified topology; lists without a hull they need take
    the oracle.  The reports agree either way."""
    oracles = {name: getattr(separation, name) for name in ("regular_oracle", "normal_oracle")}
    calls = []
    for name, oracle in oracles.items():
        monkeypatch.setattr(
            separation, name, lambda topo, *args, _o=oracle: calls.append(topo) or _o(topo, *args)
        )
    fallbacks, verdicts = set(), set()
    for topo in _oracle_lists():
        if topo.absolute != full_set(topo.universe):
            continue
        verified = _verified(topo)
        for check, oracle in zip((is_regular, is_normal), oracles.values()):
            calls.clear()
            report = check(topo)
            assert report == oracle(topo), topo.members
            assert not (verified and calls), topo.members
            fallbacks.add(bool(calls))
            verdicts.add((check.__name__, verified, report.holds))
    assert fallbacks == {True, False}
    assert {(name, True, holds) for name in ("is_regular", "is_normal")
            for holds in (True, False)} <= verdicts


def test_regular_and_normal_scan_instances_only_when_they_fail(monkeypatch):
    """On a verified topology a verdict that holds comes from one test per
    element or closed set, and only the first instance is scanned, for the
    witness; a failing one scans up to its counterexample."""
    scanned = []
    check = separation._check

    def counting(topo, name, instances, *args):
        def counted():
            for inst in instances:
                scanned.append(inst)
                yield inst

        return check(topo, name, counted(), *args)

    monkeypatch.setattr(separation, "_check", counting)
    verdicts = set()
    for topo in _oracle_lists():
        if topo.absolute != full_set(topo.universe) or not _verified(topo):
            continue
        for checker in (is_regular, is_normal):
            scanned.clear()
            report = checker(SoftTopology.of(topo.universe, topo.members))
            if report.holds:
                assert len(scanned) <= 1, topo.members
            else:
                assert scanned[-1] == report.counterexample
            verdicts.add((checker.__name__, report.holds, len(scanned) > 1))
    assert verdicts == {(name, holds, not holds) for name in ("is_regular", "is_normal")
                        for holds in (True, False)}
