from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
import random

import pytest

from softtopo.core import (
    ElementBag,
    Packing,
    SoftElement,
    SoftSet,
    Universe,
    constant_set,
    elementary_intersection,
    elementary_intersection_family,
    elementary_union_family,
    full_set,
    is_admissible,
    is_member,
    is_null,
    is_soft_subset,
    iter_elements,
    null_set,
    pointwise_complement,
    pointwise_intersection,
    span,
)
from softtopo import topology
from softtopo.document import parse_file
from softtopo.fuzzing.harness import run_theorem
from softtopo.fuzzing.generate import GeneratorConfig, gen_topology, trial_rng, universe_for
from softtopo.fuzzing.oracles import verify_topology_oracle
from softtopo.errors import (
    NotAdmissibleError,
    PreconditionError,
    UniverseMismatchError,
)
from softtopo.topology import (
    LimitingMode,
    _minimal_masks,
    _ring_accepts,
    SoftTopology,
    _hull_table,
    admissible_meets,
    closed_sets,
    closure,
    full_topology,
    indiscrete_topology,
    interior,
    interior_oracle,
    is_closed,
    is_interior_element,
    is_limiting,
    is_nbd,
    is_open,
    limiting_elements,
    nbd_witness,
    open_hull,
    pairwise_admissible_violations,
    space_elements,
    verify,
)

from conftest import FIXTURES, soft
from test_separation import _oracle_lists


def all_admissible(u: Universe):
    yield null_set(u)
    for combo in itertools.product(range(1, 2**u.n_points), repeat=u.n_params):
        yield SoftSet.of(u, combo)


# --- verification ---------------------------------------------------------------


def test_regression_space_is_valid(abcd_doc, abcd_topo):
    report = verify(SoftTopology.of(abcd_doc.universe, abcd_topo.members))
    assert report.valid
    assert report.violations == ()
    assert len(abcd_topo) == 6


def test_verifier_reports_every_violation():
    u = Universe.of(("a", "b"), ("e1", "e2"))
    f = soft(u, e1=["a"], e2=["a", "b"])
    g = soft(u, e1=["a", "b"], e2=["a"])
    # no null, no absolute, union and meet of f and g missing: all reported
    report = verify(SoftTopology.of(u, (f, g)))
    assert not report.valid
    axioms = sorted(v.axiom for v in report.violations)
    assert axioms == [
        "absolute-member",
        "intersection-closure",
        "phi-member",
        "union-closure",
    ]


def test_verifier_flags_union_closure():
    u = Universe.of(("a", "b", "c"), ("e1", "e2"))
    f = soft(u, e1=["a"], e2=["a"])
    g = soft(u, e1=["b"], e2=["b"])
    report = verify(SoftTopology.of(u, (null_set(u), full_set(u), f, g)))
    assert not report.valid
    assert [v.axiom for v in report.violations] == ["union-closure"]
    (viol,) = report.violations
    assert viol.offending == soft(u, e1=["a", "b"], e2=["a", "b"])


def test_verifier_flags_inadmissible_member():
    u = Universe.of(("a", "b"), ("e1", "e2"))
    mixed = soft(u, e1=["a"], e2=[])
    report = verify(SoftTopology.of(u, (null_set(u), full_set(u), mixed)))
    assert not report.valid
    assert any(v.axiom == "member-admissible" for v in report.violations)


def test_verifier_refuses_a_foreign_member_before_a_foreign_absolute():
    u = Universe.of(("a", "b"), ("e1", "e2"))
    other = Universe.of(("a", "b", "c"), ("e1", "e2"))
    members = [null_set(u), null_set(u), full_set(u)]  # a duplicate first
    for absolute in (full_set(other), full_set(u)):
        topo = SoftTopology.of(u, members + [full_set(other)], absolute)
        # raised before the duplicate is yielded
        with pytest.raises(UniverseMismatchError, match="^member from a different universe$"):
            next(topology.violations_of(topo))
        with pytest.raises(UniverseMismatchError, match="^member from a different universe$"):
            verify_topology_oracle(u, topo.members, absolute)
    with pytest.raises(UniverseMismatchError, match="^absolute from a different universe$"):
        next(topology.violations_of(SoftTopology.of(u, members, full_set(other))))
    # An equal universe that is another object is not foreign.
    twin = Universe(("a", "b"), ("e1", "e2"))
    assert twin is not u
    assert verify(SoftTopology.of(u, [null_set(twin), full_set(twin)], full_set(twin))).valid


def test_full_topology_size_formula():
    for points, params in ((2, 1), (2, 2), (3, 2)):
        u = Universe.of(tuple(f"p{i}" for i in range(points)),
                        tuple(f"e{i}" for i in range(params)))
        expected = (2**points - 1) ** params + 1
        assert len(full_topology(u)) == expected
        assert verify(SoftTopology.of(u, full_topology(u).members)).valid


def test_full_topology_verifies_at_five_by_two():
    u = Universe.of(tuple(f"p{i}" for i in range(5)), ("e1", "e2"))
    members = full_topology(u).members
    assert len(members) == 962
    assert verify(SoftTopology.of(u, members)).valid


def _mutated_member_lists(count: int, seed: int):
    """Seeded member lists around valid topologies: members dropped,
    duplicated, added (admissible or not) and non-full absolutes."""
    rng = random.Random(seed)
    bases = [full_topology(Universe.of(("a", "b"), ("e1", "e2"))),
             full_topology(Universe.of(("a", "b", "c"), ("e1",)))]
    for path in sorted(FIXTURES.glob("*.json")):
        topo = parse_file(str(path)).topology
        if topo is not None:
            bases.append(topo)
    for points, params in ((3, 2), (2, 3)):
        config = GeneratorConfig(points=points, params=params, seed=seed)
        bases += [gen_topology(config, trial_rng(config, i)) for i in range(4)]
    for _ in range(count):
        base = rng.choice(bases)
        u = base.universe
        members = list(base.members)
        absolute = base.absolute
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(5)
            if kind == 0 and members:
                members.pop(rng.randrange(len(members)))
            elif kind == 1 and members:
                members.insert(rng.randrange(len(members) + 1), rng.choice(members))
            elif kind == 2:
                # mixed empty and nonempty slices whenever there are two
                slices = [rng.randint(1, u.full_mask) for _ in u.params]
                slices[rng.randrange(u.n_params)] = 0
                members.insert(rng.randrange(len(members) + 1), SoftSet.of(u, tuple(slices)))
            elif kind == 3:
                extra = SoftSet.of(u, tuple(rng.randint(1, u.full_mask) for _ in u.params))
                members.insert(rng.randrange(len(members) + 1), extra)
            else:
                absolute = rng.choice(
                    [m for m in members if is_admissible(m)]
                    + [constant_set(u, u.points[:1])]
                )
        yield u, members, absolute


def test_verifier_matches_the_soft_set_oracle():
    axioms = set()
    for u, members, absolute in _mutated_member_lists(300, seed=5):
        report = verify(SoftTopology.of(u, members, absolute))
        assert report == verify_topology_oracle(u, members, absolute)
        # The stream's prefixes are the oracle's: callers may stop reading early.
        assert all(
            tuple(itertools.islice(
                topology.violations_of(SoftTopology.of(u, members, absolute)), n
            )) == report.violations[:n]
            for n in (1, 4)
        )
        axioms.update(v.axiom for v in report.violations)
    assert axioms == {
        "duplicate-member", "phi-member", "absolute-member", "member-admissible",
        "member-inside-absolute", "union-closure", "intersection-closure",
    }


def _pairwise_closed(packing: Packing, seen: set[int]) -> bool:
    return all(
        a | b in seen and packing.collapse(a & b) in seen
        for a, b in itertools.combinations(seen, 2)
    )


def _block_count(packing: Packing, seen: set[int]) -> int:
    """How many blocks the fields of the minimal masks of ``seen`` fall
    into, masks that share a field joining one block."""
    blocks: list[set[int]] = []
    for mask in set(_minimal_masks(seen).values()):
        fields = {k for k, field in enumerate(packing.fields) if mask & field}
        joined = [b for b in blocks if b & fields]
        blocks = [b for b in blocks if not b & fields] + [fields.union(*joined)]
    return len(blocks)


def _product_cases():
    """Products of seeded closures over disjoint groups of parameters, each
    also with a member dropped and with a union added.  A product's minimal
    masks stay inside one group whenever the other factors' nonnull
    members meet in nothing, which gives the ring several blocks."""
    rng = random.Random(29)
    for points in (2, 3):
        width = points + 1
        for groups in ((1, 1), (2, 1), (1, 2), (1, 1, 1)):
            u = Universe.of(tuple(f"x{i}" for i in range(points)),
                            tuple(f"e{k}" for k in range(sum(groups))))
            configs = [GeneratorConfig(points=points, params=g, seed=points * 10 + g)
                       for g in groups]
            offsets = list(itertools.accumulate(groups, initial=0))
            for _ in range(40):
                factors = [
                    [b << k * width
                     for b in gen_topology(c, trial_rng(c, rng.randrange(1000))).packed if b]
                    for c, k in zip(configs, offsets)
                ]
                seen = {0} | set(map(sum, itertools.product(*factors)))
                yield u, seen
                yield u, seen - {rng.choice(sorted(seen - {0, u.packing.full}))}
                extra = SoftSet.of(u, tuple(rng.randint(1, u.full_mask) for _ in u.params))
                yield u, seen | {rng.choice(sorted(seen)) | extra.bits}


def _ring_cases():
    """Seeded closures, each also with a member dropped and with a set
    added, then every full topology up to 5x2 and the full 2x3, 3x3, 2x4,
    the null set alone, then ``_product_cases``."""
    rng = random.Random(17)
    shapes = ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4))
    for points, params in shapes:
        config = GeneratorConfig(points=points, params=params, seed=points * 10 + params)
        for i in range(200):
            topo = gen_topology(config, trial_rng(config, i))
            u, seen = topo.universe, set(topo.packed)
            yield u, seen
            droppable = sorted(seen - {0, u.packing.full})
            if droppable:
                yield u, seen - {rng.choice(droppable)}
            extra = SoftSet.of(u, tuple(rng.randint(1, u.full_mask) for _ in u.params))
            yield u, seen | {extra.bits}
    full_shapes = [(p, q) for p in range(1, 6) for q in (1, 2)] + [(2, 3), (3, 3), (2, 4)]
    for points, params in full_shapes:
        u = Universe.of(tuple(f"p{i}" for i in range(points)),
                        tuple(f"e{i}" for i in range(params)))
        yield u, set(full_topology(u).packed)
    yield u, {0}  # no minimal mask, so no block
    yield from _product_cases()


def test_ring_decides_pairwise_closure():
    lists = closed = 0
    # verdicts on lists whose ring factors into two or more blocks
    factored = collections.Counter()
    for u, seen in _ring_cases():
        expected = _pairwise_closed(u.packing, seen)
        assert _ring_accepts(u.packing, _minimal_masks(seen), len(seen), math.inf) == expected
        members = [SoftSet(u, b) for b in sorted(seen)]
        if full_set(u).bits in seen:
            assert verify(SoftTopology.of(u, members)).valid == expected
        lists += 1
        closed += expected
        if _block_count(u.packing, seen) >= 2:
            factored[expected] += 1
    assert lists >= 6000 and closed >= 2000
    assert factored.total() >= 100 and factored[True] and factored[False]


def test_no_minimal_mask_is_a_union_of_the_masks_before_it():
    """Why the ring test adds each mask without asking whether the ring
    already holds it: ``M_b`` is a union of other masks only if one of them
    holds ``b`` and so contains ``M_b``, and the masks are distinct."""
    rng = random.Random(23)
    lists = [seen for _, seen in _ring_cases()]
    for points, params in ((2, 1), (4, 1), (2, 2), (3, 2), (2, 3), (3, 3)):
        u = universe_for(GeneratorConfig(points=points, params=params, seed=0))
        for _ in range(300):
            lists.append({rng.randint(0, u.packing.full) & u.packing.full
                          for _ in range(rng.randint(1, 12))})
    masks = 0
    for seen in lists:
        ring = {0}
        for mask in sorted(set(_minimal_masks(seen).values()), key=int.bit_count):
            assert mask not in ring
            ring |= {r | mask for r in ring}
            masks += 1
    assert masks >= 30000


def _count_collapses(monkeypatch) -> list[int]:
    """Patch ``Packing.collapse`` to append each argument to the returned list."""
    calls: list[int] = []
    collapse = Packing.collapse

    def counting(self, m):
        calls.append(m)
        return collapse(self, m)

    monkeypatch.setattr(Packing, "collapse", counting)
    return calls


def test_ring_accepts_full_topologies_without_a_scan(monkeypatch):
    calls = _count_collapses(monkeypatch)
    for points, params in ((3, 3), (5, 2), (6, 2), (4, 3)):
        u = Universe.of(tuple(f"p{i}" for i in range(points)),
                        tuple(f"e{i}" for i in range(params)))
        assert verify(SoftTopology.of(u, full_topology(u).members)).valid
    assert calls == []


def test_ring_over_budget_falls_back_to_the_scan(monkeypatch):
    # A valid five-member topology whose ring takes 11 unions, one over
    # the 10 pairs of the scan: the meet of F and G collapses, so the ring
    # also holds the mixed set ({a},{}).
    u = Universe.of(("a", "b"), ("e1", "e2"))
    f, g = soft(u, e1="a", e2="a"), soft(u, e1="a", e2="b")
    members = [null_set(u), f, g, soft(u, e1="a", e2="ab"), full_set(u)]
    seen = {m.bits for m in members}
    minimal = _minimal_masks(seen)
    assert not _ring_accepts(u.packing, minimal, len(seen), 10)
    assert _ring_accepts(u.packing, minimal, len(seen), 11)

    calls = _count_collapses(monkeypatch)
    report = verify(SoftTopology.of(u, members))
    assert len(calls) == 10  # the scan ran: one meet per pair
    assert report.valid and report == verify_topology_oracle(u, members)


def test_full_topology_lists_every_admissible_set_in_slice_order():
    for points, params in ((2, 2), (2, 4), (3, 2), (3, 3), (4, 1), (5, 2), (6, 2)):
        u = Universe.of(tuple(f"p{i}" for i in range(points)),
                        tuple(f"e{i}" for i in range(params)))
        nonempty = range(1, u.full_mask + 1)
        expected = (null_set(u),) + tuple(
            SoftSet.of(u, masks) for masks in itertools.product(nonempty, repeat=params)
        )
        assert full_topology(u).members == expected


def test_full_topology_is_memoized():
    u = Universe.of(("a", "b"), ("e1", "e2"))
    assert full_topology(u) is full_topology(Universe.of(("a", "b"), ("e1", "e2")))


def test_indiscrete_topology():
    u = Universe.of(("a", "b"), ("e1", "e2"))
    topo = indiscrete_topology(u)
    assert topo.members == (null_set(u), full_set(u))
    assert verify(SoftTopology.of(u, topo.members)).valid


# --- closed sets ------------------------------------------------------------------


def test_closed_set_list(abcd_doc, abcd_topo):
    u = abcd_doc.universe
    expected = {
        full_set(u),
        null_set(u),
        soft(u, e1=["b", "c", "d"], e2=["a", "c", "d"]),
        soft(u, e1=["a", "d"], e2=["a", "b"]),
        soft(u, e1=["d"], e2=["a"]),
    }
    assert set(closed_sets(abcd_topo)) == expected


def test_member_with_inadmissible_complement_contributes_no_closed_set(abcd_doc, abcd_topo):
    # the widest proper member fills one slice, so its complement is mixed
    f4 = abcd_doc.sets["F4"]
    comp = pointwise_complement(f4)
    assert comp == soft(abcd_doc.universe, e1=[], e2=["a"])
    assert not is_closed(abcd_topo, comp)
    assert comp not in closed_sets(abcd_topo)


def test_is_closed_demands_admissible_subject(abcd_doc, abcd_topo):
    u = abcd_doc.universe
    assert is_closed(abcd_topo, soft(u, e1=["d"], e2=["a"]))
    assert is_closed(abcd_topo, null_set(u))
    assert is_closed(abcd_topo, full_set(u))
    assert not is_closed(abcd_topo, abcd_doc.sets["F1"])  # open but not closed
    with pytest.raises(UniverseMismatchError):
        is_closed(abcd_topo, full_set(Universe.of(("a",), ("e1",))))


# --- closure and interior ----------------------------------------------------------


def test_closure_regression_value(abcd_doc, abcd_topo):
    f = abcd_doc.sets["F"]
    assert closure(abcd_topo, f) == soft(
        abcd_doc.universe, e1=["b", "c", "d"], e2=["a", "c", "d"]
    )


def test_interior_regression_value(abcd_doc, abcd_topo):
    g = abcd_doc.sets["G"]
    assert interior(abcd_topo, g) == abcd_doc.sets["F1"]


def test_closure_laws_exhaustively(abcd_doc, abcd_topo):
    for s in all_admissible(abcd_doc.universe):
        c = closure(abcd_topo, s)
        assert is_soft_subset(s, c)
        assert closure(abcd_topo, c) == c
        assert is_closed(abcd_topo, c)


def test_interior_laws_exhaustively(abcd_doc, abcd_topo):
    for s in all_admissible(abcd_doc.universe):
        inner = interior(abcd_topo, s)
        assert is_soft_subset(inner, s)
        assert interior(abcd_topo, inner) == inner
        assert is_open(abcd_topo, inner)


def test_interior_equals_element_scan(abcd_doc, abcd_topo):
    """The member-union route must agree with the defining element scan."""
    u = abcd_doc.universe
    for s in all_admissible(u):
        bag = [
            x
            for x in iter_elements(s)
            if any(
                is_member(x, o) and is_soft_subset(o, s) for o in abcd_topo.members
            )
        ]
        expected = span(ElementBag.of(u, bag)) if bag else null_set(u)
        assert interior(abcd_topo, s) == expected


def test_interior_elements_and_witness(abcd_doc, abcd_topo):
    g = abcd_doc.sets["G"]
    x = SoftElement(abcd_doc.universe, (0, 1))  # (a, b)
    assert is_interior_element(abcd_topo, g, x)
    assert not is_interior_element(
        abcd_topo, g, SoftElement(abcd_doc.universe, (1, 1))
    )


def test_closure_rejects_inadmissible_input(abcd_doc, abcd_topo):
    mixed = soft(abcd_doc.universe, e1=["a"], e2=[])
    with pytest.raises(NotAdmissibleError):
        closure(abcd_topo, mixed)
    with pytest.raises(NotAdmissibleError):
        interior(abcd_topo, mixed)


# --- limiting elements --------------------------------------------------------------


def test_limiting_elements_per_parameter(abcd_doc, abcd_topo):
    f = abcd_doc.sets["F"]
    coords = [x.coords for x in limiting_elements(abcd_topo, f)]
    assert coords == [(1, 0), (1, 3), (3, 0), (3, 3)]


def test_limiting_elements_whole_open_reading(abcd_doc, abcd_topo):
    f = abcd_doc.sets["F"]
    coords = [
        x.coords
        for x in limiting_elements(abcd_topo, f, LimitingMode.WHOLE_OPEN)
    ]
    assert coords == [
        (0, 0), (0, 3), (1, 0), (1, 1), (1, 3), (3, 0), (3, 1), (3, 3)
    ]
    # the readings genuinely differ on this space
    assert len(coords) != len(limiting_elements(abcd_topo, f))


def test_lem_3_1_finds_the_failing_bits_once_per_trial(monkeypatch):
    # The hypothesis and the conclusion both read limiting_elements of one
    # topology and set; the 50 trials draw 50 distinct such pairs.
    calls = []

    def counted(topo, f):
        calls.append((topo, f))
        return failing_bits(topo, f)

    failing_bits = topology._failing_bits
    monkeypatch.setattr(topology, "_failing_bits", counted)
    run_theorem("lem_3_1", GeneratorConfig(3, 2, seed=1, trials=50))
    assert len(calls) == len({(id(topo), f) for topo, f in calls}) == 50


def test_is_limiting_shares_the_cached_failing_bits(abcd_doc, abcd_topo, monkeypatch):
    # Element by element or as a list, one topology and set find their
    # failing bits once.
    calls = []

    def counted(topo, f):
        calls.append(f)
        return failing_bits(topo, f)

    failing_bits = topology._failing_bits
    monkeypatch.setattr(topology, "_failing_bits", counted)
    topo = SoftTopology.of(abcd_doc.universe, abcd_topo.members)
    f = abcd_doc.sets["F"]
    listed = tuple(x for x in space_elements(topo) if is_limiting(topo, f, x))
    assert listed == limiting_elements(topo, f)
    assert calls == [f.bits]


def test_limiting_elements_reject_an_absolute_of_another_universe():
    u = Universe.of(("a", "b"), ("e",))
    other = Universe.of(("c", "d"), ("e",))
    topo = SoftTopology.of(u, [null_set(u), full_set(u)], full_set(other))
    for mode in LimitingMode:
        with pytest.raises(UniverseMismatchError, match="mixed universes"):
            limiting_elements(topo, full_set(u), mode)


def test_is_limiting_spot_check(abcd_doc, abcd_topo):
    f = abcd_doc.sets["F"]
    u = abcd_doc.universe
    assert is_limiting(abcd_topo, f, SoftElement(u, (1, 0)))
    assert not is_limiting(abcd_topo, f, SoftElement(u, (0, 1)))


# --- neighborhoods -------------------------------------------------------------------


def test_nbd_regression(abcd_doc, abcd_topo):
    g = abcd_doc.sets["G"]
    x = SoftElement(abcd_doc.universe, (0, 1))  # (a, b)
    assert is_nbd(abcd_topo, g, x)
    witness = nbd_witness(abcd_topo, g, x)
    assert witness == abcd_doc.sets["F1"]


def test_nbd_negative(abcd_doc, abcd_topo):
    n = abcd_doc.sets["F"]  # ({c},{c}) holds no open around anything
    x = SoftElement(abcd_doc.universe, (2, 2))
    assert not is_nbd(abcd_topo, n, x)
    assert nbd_witness(abcd_topo, n, x) is None
    with pytest.raises(PreconditionError, match="cannot be a neighborhood"):
        nbd_witness(abcd_topo, null_set(abcd_doc.universe), x)


# --- scans used by the checkers -------------------------------------------------------


def test_space_elements_cover_the_absolute(abcd_topo):
    els = space_elements(abcd_topo)
    assert len(els) == 16
    assert all(is_member(x, abcd_topo.absolute) for x in els)


def test_space_elements_are_shared_per_absolute():
    first = parse_file(str(FIXTURES / "ex23.json")).topology
    second = parse_file(str(FIXTURES / "ex23.json")).topology
    assert first is not second and first.absolute is not second.absolute
    els = space_elements(first)
    # two parses of one document share one tuple, elements included
    assert space_elements(second) is els
    assert els == tuple(iter_elements(first.absolute))
    # so does another topology over an equal absolute
    assert space_elements(indiscrete_topology(first.universe)) is els
    # a smaller absolute gets its own elements
    sub = SoftTopology.of(first.universe, [null_set(first.universe)],
                          constant_set(first.universe, ["a", "b"]))
    assert space_elements(sub) == tuple(iter_elements(sub.absolute))
    assert len(space_elements(sub)) == 4


def test_complement_operations_need_the_full_absolute(abcd_topo):
    u = abcd_topo.universe
    # a smaller absolute, and a full-looking absolute from an equal-shaped
    # universe: both are refused
    twin = Universe.of([p + "'" for p in u.points], u.params)
    for absolute in (constant_set(u, ["a", "b"]), full_set(twin)):
        topo = SoftTopology.of(u, abcd_topo.members, absolute)
        for op in (lambda: closed_sets(topo), lambda: is_closed(topo, null_set(u))):
            with pytest.raises(PreconditionError, match="absolute is the full soft set"):
                op()
    assert closed_sets(abcd_topo)


def test_space_elements_budget():
    # 8 ** 4 = 4096 elements is the budget itself; 9 ** 4 is over it
    for points, ok in ((8, True), (9, False)):
        u = Universe.of([f"p{i}" for i in range(points)], ["e1", "e2", "e3", "e4"])
        topo = indiscrete_topology(u)
        if ok:
            assert len(space_elements(topo)) == 4096
        else:
            with pytest.raises(PreconditionError, match="6561 soft elements, over the budget of 4096"):
                space_elements(topo)


def test_pairwise_admissibility_scan(abcd_topo):
    u22 = Universe.of(("a", "b"), ("e1", "e2"))
    # the full topology over two or more points and parameters has mixed meets
    assert pairwise_admissible_violations(full_topology(u22))
    # one parameter: an empty meet slice makes the whole meet null, so fine
    u21 = Universe.of(("a", "b"), ("e1",))
    assert not pairwise_admissible_violations(full_topology(u21))
    assert not pairwise_admissible_violations(abcd_topo)


def _columns(topo):
    """For each layout bit index that some member sets: the bitmask over
    member indices of those members."""
    columns = {}
    for j, m in enumerate(topo.packed):
        while m:
            low = m & -m
            b = low.bit_length() - 1
            columns[b] = columns.get(b, 0) | 1 << j
            m ^= low
    return columns


def _meeting(columns, p):
    """Bitmask over member indices of the members sharing a bit with ``p``."""
    hits = 0
    while p:
        low = p & -p
        hits |= columns.get(low.bit_length() - 1, 0)
        p ^= low
    return hits


def _disjoint_rows_reference(topo, elementary):
    """Row i: bitmask of the members whose meet with member i is null,
    pointwise or (with ``elementary``) elementary; one ``_meeting`` per
    member and per field.  The side condition's oracle."""
    columns = _columns(topo)
    packing = topo.universe.packing
    everyone = (1 << len(topo.members)) - 1
    rows = []
    for m in topo.packed:
        row = 0
        for field in packing.fields if elementary else (packing.full,):
            row |= everyone ^ _meeting(columns, m & field)
        rows.append(row)
    return rows


def _violations_reference(topo):
    pointwise = _disjoint_rows_reference(topo, False)
    elementary = _disjoint_rows_reference(topo, True)
    return tuple(
        (i, j)
        for i in range(len(topo.members))
        for j in range(i, len(topo.members))
        if (elementary[i] & ~pointwise[i]) >> j & 1
    )


def test_one_parameter_rows_and_violations_need_no_elementary_scan():
    rng = random.Random(41)
    violated = 0
    for points, params in ((1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)):
        config = GeneratorConfig(points, params, seed=41)
        u = universe_for(config)
        closed = [gen_topology(config, trial_rng(config, i)) for i in range(30)]
        # unclosed lists, duplicates included
        pool = list(all_admissible(u))
        unclosed = [
            SoftTopology.of(u, [rng.choice(pool) for _ in range(rng.randrange(1, 9))])
            for _ in range(30)
        ]
        for topo in closed + unclosed:
            expected = _violations_reference(topo)
            assert pairwise_admissible_violations(topo) == expected
            if params == 1:
                assert expected == ()
                # decided without building the minimal-mask table
                assert "hulls" not in topo._cache
                assert _disjoint_rows_reference(topo, True) == _disjoint_rows_reference(topo, False)
            violated += bool(expected)
    # two parameters: mixed meets occur, so the comparison is not vacuous
    assert violated >= 20


def _full_absolute_fixture_topologies():
    out = [full_topology(Universe.of(("a", "b"), ("e1", "e2"))),
           full_topology(Universe.of(("a", "b", "c"), ("e1",)))]
    for path in sorted(FIXTURES.glob("*.json")):
        topo = parse_file(str(path)).topology
        if (topo is not None and topo.absolute == full_set(topo.universe)
                and verify(SoftTopology.of(topo.universe, topo.members)).valid):
            out.append(topo)
    return out


def _unclosed_lists():
    """Seeded member lists over 2x2 and 3x2 drawn from every set of the
    layout, so that most are not closed and many hold inadmissible sets."""
    rng = random.Random(43)
    for points, params in ((2, 2), (3, 2)):
        u = Universe.of([f"p{i}" for i in range(points)], [f"e{k}" for k in range(params)])
        pool = [SoftSet.of(u, s) for s in itertools.product(range(2**points), repeat=params)]
        for _ in range(60):
            members = [null_set(u), full_set(u)] + rng.sample(pool, rng.randint(1, 6))
            rng.shuffle(members)
            yield SoftTopology.of(u, members)


def test_side_condition_and_interior_match_their_scans(monkeypatch):
    """``admissible_meets`` and ``pairwise_admissible_violations`` against
    the row builder, ``interior`` against the member scan, on the oracle
    lists and on unclosed lists with inadmissible members."""
    scans = []
    monkeypatch.setattr(
        topology, "interior_oracle",
        lambda topo, f, _scan=interior_oracle: scans.append(topo) or _scan(topo, f),
    )
    rng = random.Random(47)
    verdicts = set()
    for topo in _oracle_lists() + list(_unclosed_lists()):
        expected = _violations_reference(topo)
        assert pairwise_admissible_violations(topo) == expected, topo.members
        assert admissible_meets(topo) == (not expected), topo.members
        try:
            verified = verify(topo).valid
        except UniverseMismatchError:
            verified = False
        verdicts.add((verified, not expected))
        if topo.absolute != full_set(topo.universe):
            continue
        subjects = list(all_admissible(topo.universe))
        before = len(scans)
        for f in rng.sample(subjects, min(len(subjects), 40)):
            inside = [o for o in topo.packed if not o & ~f.bits]
            assert interior(topo, f).bits == functools.reduce(operator.or_, inside, 0)
        assert not (verified and len(scans) > before), topo.members
        verdicts.add(("scanned", len(scans) > before))
    # both side-condition verdicts on verified and unverified lists, and
    # interiors both decided from the table and scanned
    assert verdicts == {(v, holds) for v in (True, False) for holds in (True, False)} | {
        ("scanned", True), ("scanned", False)
    }


def test_verify_keeps_the_minimal_mask_table(abcd_doc, abcd_topo):
    topo = SoftTopology.of(abcd_doc.universe, abcd_topo.members)
    assert verify(topo).valid
    assert topo._cache["hulls"] == _minimal_masks(topo.packed)
    assert _hull_table(topo) is topo._cache["hulls"]
    # an invalid list keeps nothing
    topo = SoftTopology.of(abcd_doc.universe, abcd_topo.members[1:])
    assert not verify(topo).valid
    assert "hulls" not in topo._cache


def test_packed_kernels_match_core_operations():
    topologies = _full_absolute_fixture_topologies()
    assert len(topologies) >= 6
    for topo in topologies:
        u, members = topo.universe, topo.members
        expected_closed = []
        for o in members:
            comp = pointwise_complement(o)
            if is_admissible(comp) and comp not in expected_closed:
                expected_closed.append(comp)
        assert closed_sets(topo) == tuple(expected_closed)
        for f in all_admissible(u):
            inside = [o for o in members if is_soft_subset(o, f)]
            assert interior(topo, f) == elementary_union_family(u, inside)
            around = [c for c in expected_closed if is_soft_subset(f, c)]
            assert closure(topo, f) == elementary_intersection_family(u, around)
        pointwise = _disjoint_rows_reference(topo, elementary=False)
        elementary = _disjoint_rows_reference(topo, elementary=True)
        for i, f in enumerate(members):
            for j, g in enumerate(members):
                assert pointwise[i] >> j & 1 == is_null(pointwise_intersection(f, g))
                assert elementary[i] >> j & 1 == is_null(elementary_intersection(f, g))
        assert pairwise_admissible_violations(topo) == tuple(
            (i, j)
            for i in range(len(members))
            for j in range(i, len(members))
            if not is_admissible(pointwise_intersection(members[i], members[j]))
        )
        for f in all_admissible(u):
            around = [o for o in members if is_soft_subset(f, o)]
            smallest = [o for o in around if all(is_soft_subset(o, p) for p in around)]
            assert open_hull(topo, f.bits) == smallest[0].bits
