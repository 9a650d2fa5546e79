from __future__ import annotations

import pytest

from softtopo.baire import (
    LocalCompactnessReport,
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
from softtopo.core import SoftSet, Universe, full_set, null_set
from softtopo.errors import NotAdmissibleError, PreconditionError
from softtopo.fuzzing.instances import Instance
from softtopo.fuzzing.registry import REGISTRY
from softtopo.topology import SoftTopology, full_topology, indiscrete_topology

from conftest import soft, verified

U22 = Universe.of(("a", "b"), ("e1", "e2"))
UABC = Universe.of(("a", "b", "c"), ("e1", "e2"))


@pytest.fixture(scope="module")
def ladder_topo():
    # two rare closed sets whose union is not closed; its closure is the
    # absolute, so the union is first category without being nowhere dense
    members = (
        null_set(UABC),
        full_set(UABC),
        soft(UABC, e1="bc", e2="b"),
        soft(UABC, e1="c", e2="c"),
        soft(UABC, e1="bc", e2="bc"),
    )
    return verified(UABC, members)


def test_nowhere_dense(abcd_topo):
    u = abcd_topo.universe
    assert is_nowhere_dense(abcd_topo, soft(u, e1="d", e2="a"))
    assert not is_nowhere_dense(abcd_topo, soft(u, e1="ad", e2="ab"))
    with pytest.raises(PreconditionError):
        is_nowhere_dense(abcd_topo, null_set(u))
    with pytest.raises(NotAdmissibleError):
        is_nowhere_dense(abcd_topo, SoftSet.of(u, (u.mask_of("a"), 0)))


def test_rare_closed_sets(abcd_topo):
    u = abcd_topo.universe
    assert rare_closed_sets(abcd_topo) == (null_set(u), soft(u, e1="d", e2="a"))
    # cached per topology
    assert rare_closed_sets(abcd_topo) is rare_closed_sets(abcd_topo)


def test_baire_report(abcd_topo):
    u = abcd_topo.universe
    report = is_baire(abcd_topo)
    assert report.baire
    assert report.union == soft(u, e1="d", e2="a")
    assert report.union_interior == null_set(u)
    assert baire_subfamily_oracle(abcd_topo)
    assert is_baire_by_nowhere_dense(abcd_topo)


def test_baire_routes_agree(ladder_topo, fgh_topo):
    for topo in (ladder_topo, fgh_topo, full_topology(U22)):
        verdict = is_baire(topo).baire
        assert baire_subfamily_oracle(topo) == verdict
        assert is_baire_by_nowhere_dense(topo) == verdict


def test_subfamily_oracle_budget(abcd_topo):
    with pytest.raises(PreconditionError):
        baire_subfamily_oracle(abcd_topo, limit=2)


def test_category_fast_paths(abcd_topo):
    u = abcd_topo.universe
    rare = soft(u, e1="d", e2="a")
    report = is_first_category(abcd_topo, rare)
    assert report.verdict == "nowhere-dense"
    assert report.decomposition == (rare,)
    assert report.first_category

    big = is_first_category(abcd_topo, full_set(u))
    assert big.verdict == "second-category"
    assert big.decomposition == ()
    assert not big.first_category


def test_category_strict_first_category(ladder_topo):
    subject = soft(UABC, e1="ab", e2="abc")
    report = is_first_category(ladder_topo, subject)
    assert report.verdict == "first-category"
    assert report.decomposition == (
        soft(UABC, e1="a", e2="ac"),
        soft(UABC, e1="ab", e2="ab"),
    )
    oracle = first_category_oracle(ladder_topo, subject)
    assert oracle.verdict == "first-category"


def test_category_oracle_agreement(abcd_topo):
    u = abcd_topo.universe
    for subject in (soft(u, e1="d", e2="a"), full_set(u)):
        fast = is_first_category(abcd_topo, subject)
        slow = first_category_oracle(abcd_topo, subject)
        assert fast.verdict == slow.verdict


def test_category_guards(abcd_topo):
    u = abcd_topo.universe
    with pytest.raises(PreconditionError):
        is_first_category(abcd_topo, null_set(u))
    with pytest.raises(NotAdmissibleError):
        first_category_oracle(abcd_topo, SoftSet.of(u, (u.mask_of("a"), 0)))
    with pytest.raises(PreconditionError):
        first_category_oracle(abcd_topo, full_set(u), gate=8)


def test_local_compactness(abcd_topo):
    report = is_locally_compact(full_topology(U22))
    assert report.holds and report.counterexample is None
    with pytest.raises(PreconditionError):
        is_locally_compact(abcd_topo)
    # Two spaces with a smaller absolute.  Each is vacuously Hausdorff: all
    # its elements share the last coordinate.  In the first, each element's
    # hull is the absolute, which fills e1, yet the only open around an
    # element is the absolute, so it holds.
    a = soft(U22, e1="ab", e2="b")
    topo = verified(U22, (null_set(U22), a), a)
    assert is_locally_compact(topo) == locally_compact_oracle(topo)
    assert is_locally_compact(topo) == LocalCompactnessReport(True, None)
    # In the second, the hull S of (a,a,a) fills e1 and is not the absolute;
    # S is the counterexample's open whether or not the absolute precedes it.
    u = Universe.of(("a", "b"), ("e1", "e2", "e3"))
    a = soft(u, e1="ab", e2="ab", e3="a")
    s = soft(u, e1="ab", e2="a", e3="a")
    for members in ((null_set(u), s, a), (null_set(u), a, s)):
        topo = verified(u, members, a)
        report = is_locally_compact(topo)
        assert report == locally_compact_oracle(topo)
        assert not report.holds
        x, o = report.counterexample
        assert x.coords == (0, 0, 0) and o == s


def test_theorem_trial_verdicts(abcd_topo):
    case = REGISTRY["thm_5_1"]

    def instance(topo):
        return Instance(topo.universe, (), topo, {})

    # full 2x2 has opens with mixed pointwise meets, so its trial skips
    assert not case.hypothesis(instance(full_topology(U22)))
    assert not case.hypothesis(instance(abcd_topo))
    full21 = instance(full_topology(Universe.of(("a", "b"), ("e1",))))
    assert case.hypothesis(full21) and case.conclusion(full21)


def test_local_compactness_and_baire_are_cached_per_topology(ladder_topo):
    members = full_topology(U22).members
    topo, twin = SoftTopology.of(U22, members), SoftTopology.of(U22, members)
    for check in (is_locally_compact, is_baire):
        report = check(topo)
        assert check(topo) is report
        assert check(twin) == report
    assert is_baire(ladder_topo) is is_baire(ladder_topo)
    # not Hausdorff: raises on every call and caches nothing
    indiscrete = indiscrete_topology(U22)
    for _ in range(2):
        with pytest.raises(PreconditionError, match="Hausdorff"):
            is_locally_compact(indiscrete)
    assert "locally_compact" not in indiscrete._cache
