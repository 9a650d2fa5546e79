from __future__ import annotations

import hashlib
import json
import random

import pytest

from softtopo.core import (
    SoftSet,
    Universe,
    elementary_complement,
    elementary_intersection,
    elementary_union,
    full_set,
    null_set,
)
from softtopo.document import canonical_json, parse
from softtopo.errors import GenerationError, InputError, PreconditionError
from softtopo.fuzzing.generate import (
    GeneratorConfig,
    all_spans,
    close_subbase,
    draw_subbase,
    full_size,
    gen_hausdorff,
    gen_topology,
    gen_topology_with_subbase,
    random_admissible,
    trial_rng,
    trial_seed,
    universe_for,
)
from softtopo.fuzzing.harness import report_payload, run_theorem, serialize_report
from softtopo.fuzzing.instances import (
    Instance,
    _drop_bit,
    candidate_mutations,
    from_document,
    instance_size,
    to_text,
)
from softtopo.fuzzing.oracles import (
    complement_via_elements,
    intersection_via_elements,
    union_via_elements,
)
from softtopo.fuzzing.registry import REGISTRY, TheoremCase
from softtopo.fuzzing.shrink import is_minimal, shrink_instance, still_falsifies
from softtopo.maps import SoftFunction
from softtopo.separation import is_hausdorff
from softtopo.topology import SoftTopology, _minimal_masks, full_topology, verify

from conftest import soft

CASE_IDS = {
    "thm_3_1_constructive",
    "lem_3_1",
    "hausdorff_heredity",
    "thm_4_1",
    "thm_4_2",
    "thm_4_3",
    "thm_4_4",
    "thm_4_5",
    "prop_4_1a",
    "prop_4_1b",
    "thm_4_6_vacuity",
    "thm_4_7",
    "thm_4_8",
    "prop_6_1",
    "continuity_criteria_agree",
    "thm_5_1",
    "baire_definitions_agree",
    "elementary_op_oracle",
}


def test_registry_contents():
    assert set(REGISTRY) == CASE_IDS
    for case_id, case in REGISTRY.items():
        assert case.case_id == case_id
        assert case.description
        assert callable(case.build)
        assert callable(case.hypothesis)
        assert callable(case.conclusion)


def test_reports_and_counterexamples_match_json_dumps():
    # One seeded run of every case; the writer must give json.dumps's bytes
    # for each report and each counterexample document.
    documents = 0
    for case_id in sorted(REGISTRY):
        report = run_theorem(case_id, GeneratorConfig(2, 2, seed=23, trials=20))
        payload = report_payload(report)
        assert serialize_report(report) == (
            json.dumps(payload, sort_keys=True, indent=2) + "\n"
        ), case_id
        for record in payload["counterexamples"]:
            document = record["document"]
            assert canonical_json(document) == (
                json.dumps(document, sort_keys=True, indent=2) + "\n"
            ), case_id
            documents += 1
    assert documents > 0


def test_trial_seed_split():
    # frozen values; any change here breaks replayability of old reports
    assert trial_seed(7, 0) == 17402812715824652909
    assert trial_seed(7, 1) == 16902188653853297655
    assert trial_seed(0, 0) == 6564407354023517314
    digest = hashlib.sha256(b"softtopo:7:0").digest()
    assert trial_seed(7, 0) == int.from_bytes(digest[:8], "big")


def test_config_validation():
    with pytest.raises(InputError):
        GeneratorConfig(points=0, params=1, seed=0)
    with pytest.raises(InputError):
        GeneratorConfig(points=1, params=0, seed=0)
    with pytest.raises(InputError):
        GeneratorConfig(points=1, params=1, seed=-1)
    with pytest.raises(InputError):
        GeneratorConfig(points=1, params=1, seed=0, max_topology=1)
    # the generator's sizes are bounded before anything is drawn
    GeneratorConfig(points=1, params=1, seed=0, subbase_size=4096, max_topology=4096)
    for sizes in ({"subbase_size": 4097}, {"max_topology": 4097}):
        with pytest.raises(InputError, match="at most 4096"):
            GeneratorConfig(points=1, params=1, seed=0, **sizes)
    # so is the trial count; a config at the bound is built, never run
    GeneratorConfig(points=1, params=1, seed=0, trials=100_000)
    with pytest.raises(InputError, match="trials must be at most 100000"):
        GeneratorConfig(points=1, params=1, seed=0, trials=100_001)
    # shapes are bounded before any name is built
    GeneratorConfig(points=64, params=2, seed=0)  # 4096 soft elements
    GeneratorConfig(points=1, params=4096, seed=0)
    for points, params in ((65, 2), (2, 13), (4097, 1), (1, 4097), (10**8, 10**8)):
        with pytest.raises(InputError, match="over the budget"):
            GeneratorConfig(points=points, params=params, seed=0)


def test_close_subbase_frozen():
    u = Universe.of(("a", "b", "c", "d"), ("e1", "e2"))
    f1 = soft(u, e1="a", e2="b")
    f2 = soft(u, e1="bc", e2="cd")
    members = close_subbase(u, (f1, f2), full_size(u))
    assert members == (
        null_set(u),
        full_set(u),
        f1,
        f2,
        soft(u, e1="abc", e2="bcd"),
    )
    assert close_subbase(u, (f1, f2), cap=4) is None


def _close_subbase_reference(universe, subbase, cap):
    """The pairwise closure loop as written before its collapse test was
    inlined: one loop over (union, collapsed meet) per pair."""
    packing = universe.packing
    rows = [0, packing.full]
    seen = set(rows)
    for s in subbase:
        p = s.bits
        if p not in seen:
            if len(rows) >= cap:
                return None
            seen.add(p)
            rows.append(p)
    collapse = packing.collapse
    i = 0
    while i < len(rows):
        a = rows[i]
        for j in range(i + 1):
            b = rows[j]
            for w in (a | b, collapse(a & b)):
                if w not in seen:
                    if len(rows) >= cap:
                        return None
                    seen.add(w)
                    rows.append(w)
        i += 1
    return tuple(SoftSet(universe, row) for row in rows)


def test_close_subbase_matches_the_reference_loop():
    rng = random.Random(20261018)
    closures = capped = 0
    for points, params in ((1, 3), (4, 1), (2, 2), (3, 2), (2, 3), (3, 3)):
        u = universe_for(GeneratorConfig(points, params, seed=0))
        for _ in range(40):
            # Raw draws, so repeats and the absolute reach the dedup path.
            subbase = [random_admissible(rng, u) for _ in range(rng.randrange(5))]
            if rng.random() < 0.2:
                subbase.append(full_set(u))
            whole = _close_subbase_reference(u, subbase, full_size(u))
            assert close_subbase(u, subbase, full_size(u)) == whole
            size = len(whole)
            for cap in (3, 5, 8, size - 1, size, size + 1):
                expected = _close_subbase_reference(u, subbase, cap)
                assert close_subbase(u, subbase, cap) == expected
                closures += 1
                capped += expected is None
    # Both outcomes are exercised, at every tight cap.
    assert closures == 6 * 40 * 6 and 0 < capped < closures


def test_universe_for_shares_one_universe_per_shape():
    a = universe_for(GeneratorConfig(3, 2, seed=1, trials=5))
    assert a is universe_for(GeneratorConfig(3, 2, seed=99, subbase_size=1))
    assert a == Universe.of(("x0", "x1", "x2"), ("e0", "e1"))
    b = universe_for(GeneratorConfig(2, 3, seed=1))
    assert b is not a and b != a
    assert b == Universe.of(("x0", "x1"), ("e0", "e1", "e2"))


def test_close_subbase_of_spans_is_the_full_topology():
    for points, params in ((2, 1), (2, 2)):
        u = Universe.of(
            tuple(f"x{i}" for i in range(points)),
            tuple(f"e{k}" for k in range(params)),
        )
        members = close_subbase(u, all_spans(u), full_size(u))
        assert len(members) == full_size(u)
        assert set(members) == set(full_topology(u).members)


def test_gen_topology_postconditions():
    config = GeneratorConfig(points=3, params=2, seed=5)
    topo = gen_topology(config)
    assert verify(topo).valid
    assert len(topo.members) <= config.max_topology
    assert topo.universe == universe_for(config)
    # pure function of (seed, trial index)
    again = gen_topology(config)
    assert again.members == topo.members


def test_gen_topology_budget_error():
    # a huge forced subbase at a tiny cap cannot close
    config = GeneratorConfig(points=4, params=2, seed=5, subbase_size=6, max_topology=8)
    with pytest.raises(GenerationError):
        gen_topology(config)


def test_gen_hausdorff_draw():
    config = GeneratorConfig(points=2, params=2, seed=9)
    subbase, topo = gen_hausdorff(config)
    assert is_hausdorff(topo).holds
    assert set(close_subbase(topo.universe, subbase, full_size(topo.universe))) == set(topo.members)


def test_separated_draw_is_the_full_topology():
    for points, params in ((1, 3), (2, 2), (4, 1), (5, 2)):
        config = GeneratorConfig(points=points, params=params, seed=9)
        universe = universe_for(config)
        subbase, topo = gen_hausdorff(config)
        assert topo is full_topology(universe)
        assert subbase == all_spans(universe)
        # The separated builders take a trial stream and leave it untouched.
        rng = trial_rng(config, 0)
        state = rng.getstate()
        inst = REGISTRY["thm_4_7"].build(config, rng)
        assert inst.topology is topo and inst.subbase == subbase
        assert rng.getstate() == state
    # 7x2 has a 16130-member full topology, just over the budget
    with pytest.raises(GenerationError) as info:
        gen_hausdorff(GeneratorConfig(points=7, params=2, seed=9))
    assert str(info.value) == (
        "separated draws at 7x2 may need the full topology of 16130 "
        "members, over the budget of 4096"
    )


def test_random_admissible_keeps_the_slice_stream():
    # one randrange per parameter, in parameter order: the stream that
    # every pinned report digest depends on
    for points, params in ((1, 3), (2, 2), (3, 2), (4, 1), (2, 4)):
        u = universe_for(GeneratorConfig(points, params, seed=0))
        rng, twin = random.Random(points * 10 + params), random.Random(points * 10 + params)
        for _ in range(200):
            want = SoftSet.of(u, [twin.randrange(1, u.full_mask + 1) for _ in range(params)])
            assert random_admissible(rng, u) == want
        assert rng.getstate() == twin.getstate()


def test_bit_separation_decides_full_closure():
    """With two or more points, ``close_subbase(G)`` is the full topology
    exactly when, for every layout bit ``b``, the meet ``M_b`` of ``full``
    and the generators containing ``b`` is ``b`` alone
    (``topology._minimal_masks([full, *G])``).  The same lemma underlies
    ``topology._ring_accepts``.

    The closure holds the admissible members of the raw lattice ``D``
    generated by ``G``, ``0`` and ``full``, plus ``0``: collapse sends a
    value to itself or to ``0``, and an admissible ``C`` in ``D`` is a meet
    of unions of generators whose partial meets all contain ``C``.  Every
    single bit is the meet of two spans, so the closure is full exactly
    when ``D`` is the power set, that is (Birkhoff) when the least member
    of ``D`` containing each bit is that bit.
    """
    shapes = ((2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4))
    checked = full = 0
    for points, params in shapes:
        u = universe_for(GeneratorConfig(points, params, seed=0))
        rng = random.Random(points * 10 + params)
        spans = all_spans(u)
        for _ in range(600):
            base = list(draw_subbase(rng, u, rng.randrange(4)))
            for s in rng.sample(spans, min(len(spans), rng.randrange(5))):
                if s not in base:
                    base.append(s)
            closes = len(close_subbase(u, base, full_size(u))) == full_size(u)
            masks = _minimal_masks([u.packing.full, *(s.bits for s in base)])
            assert all(m == b for b, m in masks.items()) == closes, base
            checked += 1
            full += closes
    assert checked >= 6000
    # both answers occur often enough for the agreement to mean something
    assert 500 <= full <= checked - 500


def test_instance_text_round_trip():
    config = GeneratorConfig(points=3, params=2, seed=11)
    rng = trial_rng(config, 4)
    subbase, topo = gen_topology_with_subbase(config, rng)
    u = topo.universe
    fn = SoftFunction(
        u, u, tuple(tuple(range(u.n_points)) for _ in range(u.n_params))
    )
    aux = {
        "set": random_admissible(rng, u),
        "sets": (random_admissible(rng, u),),
        "carrier": (u.points[0],),
        "function": fn,
    }
    inst = Instance(u, subbase, topo, aux)
    text = to_text(inst, {"case": "round_trip_demo"})
    back = from_document(parse(text))
    assert back.universe == u
    assert back.subbase == subbase
    assert back.topology.members == topo.members
    assert back.aux == aux
    # canonical text survives another lap
    assert to_text(back, {"case": "round_trip_demo"}) == text


def test_drop_bit():
    assert _drop_bit(0b1011, 0) == 0b101
    assert _drop_bit(0b1011, 1) == 0b101
    assert _drop_bit(0b1011, 2) == 0b111
    assert _drop_bit(0b1011, 3) == 0b011


def test_candidate_mutations_order_and_measure():
    config = GeneratorConfig(points=3, params=2, seed=11, subbase_size=2)
    rng = trial_rng(config, 4)
    subbase, topo = gen_topology_with_subbase(config, rng)
    inst = Instance(topo.universe, subbase, topo, {})
    candidates = list(candidate_mutations(inst, config))
    labels = [label for label, _ in candidates]
    # generators first, then points, then params
    axes = ["drop-generator" for s in subbase]
    axes += ["drop-point"] * 3 + ["drop-param"] * 2
    assert [l.split(":")[0] for l in labels] == axes
    for _, cand in candidates:
        assert instance_size(cand) < instance_size(inst)


def _sets(universe: Universe, *specs: str) -> tuple[SoftSet, ...]:
    """Sets written one slice per parameter: "a|bc" is e1={a}, e2={b,c}."""
    return tuple(
        SoftSet.from_points(universe, dict(zip(universe.params, map(list, s.split("|")))))
        for s in specs
    )


def _projection_instance(**aux_changes) -> Instance:
    """A 3x2 instance carrying every aux key; each point and parameter can
    be dropped.  Generators S0 and S2 lose a point to an inadmissible or
    null projection, S0 and S3 (S0 and S2) coincide without e1 (e2)."""
    u = Universe.of(("a", "b", "c"), ("e1", "e2"))
    subbase = _sets(u, "a|ab", "bc|c", "a|a", "b|ab")
    cod_subbase = _sets(u, "c|ac", "ab|b")
    aux = {
        "set": _sets(u, "ab|bc")[0],
        "sets": _sets(u, "|", "bc|ac"),
        "carrier": ("a", "c"),
        "function": SoftFunction(u, u, ((0, 1, 2), (0, 1, 2))),
        "codomain_subbase": cod_subbase,
        "codomain": SoftTopology.of(u, close_subbase(u, cod_subbase, full_size(u))),
    }
    aux.update(aux_changes)
    topo = SoftTopology.of(u, close_subbase(u, subbase, full_size(u)))
    return Instance(u, subbase, topo, aux)


def test_shrink_projections_of_every_aux_key():
    config = GeneratorConfig(points=3, params=2, seed=0)
    inst = _projection_instance()
    # label: (points, params, subbase, set, sets, carrier, maps, codomain subbase)
    expected = {
        "drop-point:a": ("bc", ("e1", "e2"), ("bc|c", "b|b"), "b|bc",
                         ("|", "bc|c"), ("c",), ((0, 1), (0, 1)), ("c|c", "b|b")),
        "drop-point:b": ("ac", ("e1", "e2"), ("a|a", "c|c"), "a|c",
                         ("|", "c|ac"), ("a", "c"), ((0, 1), (0, 1)), ("c|ac",)),
        "drop-point:c": ("ab", ("e1", "e2"), ("a|ab", "a|a", "b|ab"), "ab|b",
                         ("|", "b|a"), ("a",), ((0, 1), (0, 1)), ("ab|b",)),
        "drop-param:e1": ("abc", ("e2",), ("ab", "c", "a"), "bc",
                          ("", "ac"), ("a", "c"), ((0, 1, 2),), ("ac", "b")),
        "drop-param:e2": ("abc", ("e1",), ("a", "bc", "b"), "ab",
                          ("", "bc"), ("a", "c"), ((0, 1, 2),), ("c", "ab")),
    }
    candidates = dict(candidate_mutations(inst, config))
    assert list(candidates) == [f"drop-generator:{i}" for i in range(4)] + list(expected)
    for label, (points, params, gens, f, ks, carrier, maps, cod) in expected.items():
        cand = candidates[label]
        u = Universe.of(tuple(points), params)
        assert cand.universe == u, label
        assert cand.subbase == _sets(u, *gens), label
        assert cand.topology.members == close_subbase(u, cand.subbase, full_size(u)), label
        assert set(cand.aux) == set(inst.aux), label
        assert cand.aux["set"] == _sets(u, f)[0], label
        assert cand.aux["sets"] == _sets(u, *ks), label
        assert cand.aux["carrier"] == carrier, label
        assert cand.aux["function"] == SoftFunction(u, u, maps), label
        assert cand.aux["codomain_subbase"] == _sets(u, *cod), label
        assert cand.aux["codomain"].members == close_subbase(u, _sets(u, *cod), full_size(u)), label

    def reductions(inst):
        return [label for label, _ in candidate_mutations(inst, config)
                if not label.startswith("drop-generator")]

    u = inst.universe
    every = list(expected)
    # a set or family member that projects to an inadmissible set
    lopsided = _sets(u, "a|b")
    assert reductions(_projection_instance(set=lopsided[0])) == [
        l for l in every if l not in ("drop-point:a", "drop-point:b")
    ]
    assert reductions(_projection_instance(sets=lopsided)) == [
        l for l in every if l not in ("drop-point:a", "drop-point:b")
    ]
    # a carrier emptied by dropping its only point
    assert reductions(_projection_instance(carrier=("b",))) == [
        l for l in every if l != "drop-point:b"
    ]
    # a surviving point (a, under e2) mapped into the dropped point
    into_b = SoftFunction(u, u, ((0, 1, 2), (1, 1, 2)))
    mapped = dict(candidate_mutations(_projection_instance(function=into_b), config))
    assert [l for l in mapped if not l.startswith("drop-generator")] == [
        l for l in every if l != "drop-point:b"
    ]
    assert mapped["drop-point:a"].aux["function"].point_maps == ((0, 1), (0, 1))
    assert mapped["drop-point:c"].aux["function"].point_maps == ((0, 1), (1, 1))
    assert mapped["drop-param:e1"].aux["function"].point_maps == ((1, 1, 2),)
    # an aux key the projections do not know
    assert reductions(_projection_instance(bogus=1)) == []


def _always_false_case() -> TheoremCase:
    def build(config, rng):
        subbase, topo = gen_topology_with_subbase(config, rng)
        return Instance(topo.universe, subbase, topo, {})

    return TheoremCase(
        case_id="always_false",
        description="conclusion never holds; shrinking must reach the floor",
        build=build,
        hypothesis=lambda inst: True,
        conclusion=lambda inst: False,
    )


def test_shrink_reaches_floor():
    case = _always_false_case()
    config = GeneratorConfig(points=4, params=2, seed=5)
    inst = case.build(config, trial_rng(config, 0))
    minimal, trace = shrink_instance(case, inst, config)
    # one point, one parameter, no generators: the indiscrete floor
    assert instance_size(minimal) == (2, 0)
    assert minimal.subbase == ()
    assert len(minimal.topology.members) == 2
    assert len(trace) == 7
    assert is_minimal(case, minimal, config)
    assert not is_minimal(case, inst, config)


def test_still_falsifies_swallows_domain_errors():
    def boom(inst):
        raise PreconditionError("lost a precondition after projection")

    case = _always_false_case()
    broken_hypothesis = TheoremCase(
        "x", "d", case.build, boom, lambda inst: False
    )
    broken_conclusion = TheoremCase(
        "y", "d", case.build, lambda inst: True, boom
    )
    config = GeneratorConfig(points=2, params=1, seed=3)
    inst = case.build(config, trial_rng(config, 0))
    assert still_falsifies(case, inst)
    assert not still_falsifies(broken_hypothesis, inst)
    assert not still_falsifies(broken_conclusion, inst)


def test_thm_3_1_reports_an_unclosed_trace_family():
    # {a} and {b} without {a,b} meet both side conditions, and on the whole
    # point set each member is its own trace, so the trace family is the
    # unclosed parent: a counterexample to report, not a crash.
    u = Universe.of(("a", "b", "c"), ("e1",))
    subbase = _sets(u, "a", "b")
    parent = SoftTopology.of(u, (null_set(u), *subbase, full_set(u)))
    inst = Instance(u, subbase, parent, {"carrier": u.points})
    case = REGISTRY["thm_3_1_constructive"]
    assert case.hypothesis(inst)
    assert case.conclusion(inst) is False
    assert still_falsifies(case, inst)


def test_run_theorem_payload_shape():
    config = GeneratorConfig(points=3, params=2, seed=2, trials=5)
    report = run_theorem("elementary_op_oracle", config)
    assert report.verdict == "confirmed"
    assert report.confirmed + report.skipped == 5
    payload = report_payload(report)
    assert set(payload) == {
        "algorithm", "case", "config", "counts", "counterexamples", "verdict",
    }
    assert payload["counts"] == {
        "trials": 5, "confirmed": report.confirmed,
        "skipped": report.skipped, "counterexamples": 0,
    }

    separated = run_theorem("thm_4_4", GeneratorConfig(points=2, params=1, seed=2, trials=5))
    assert "generator" not in report_payload(separated)


def test_oracles_match_fast_operations():
    u = Universe.of(("a", "b", "c"), ("e1", "e2"))
    rng = random.Random(0)
    for _ in range(20):
        f = random_admissible(rng, u)
        g = random_admissible(rng, u)
        assert elementary_union(f, g) == union_via_elements(f, g)
        assert elementary_intersection(f, g) == intersection_via_elements(f, g)
        assert elementary_complement(f) == complement_via_elements(f)
