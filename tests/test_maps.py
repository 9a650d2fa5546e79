from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import random

from softtopo.core import (
    SoftElement,
    SoftSet,
    Universe,
    is_admissible,
    is_member,
    is_soft_subset,
)
from softtopo.errors import InputError, PreconditionError, UniverseMismatchError
from softtopo.fuzzing.generate import GeneratorConfig, gen_topology
from softtopo.maps import (
    DefinitionalContinuityReport,
    PreimageContinuityReport,
    PreimageEntry,
    SoftFunction,
    definitional_continuity,
    image,
    is_continuous_at,
    preimage,
    preimage_continuity,
)
from softtopo.topology import full_topology, indiscrete_topology, space_elements

from conftest import fixture_path, soft, verified

U22 = Universe.of(("a", "b"), ("e1", "e2"))
UXY = Universe.of(("x", "y", "z"), ("e1", "e2"))

# every point goes to a, in both parameters
CONST_A = SoftFunction.from_names(
    U22, U22, {"e1": {"a": "a", "b": "a"}, "e2": {"a": "a", "b": "a"}}
)
IDENTITY = SoftFunction.from_names(
    U22, U22, {"e1": {"a": "a", "b": "b"}, "e2": {"a": "a", "b": "b"}}
)


def test_from_names_validation():
    with pytest.raises(InputError):
        SoftFunction.from_names(U22, U22, {"e1": {"a": "a", "b": "a"}})
    with pytest.raises(InputError):
        SoftFunction.from_names(U22, U22, {"e1": {"a": "a"}, "e2": {"a": "a", "b": "a"}})
    with pytest.raises(InputError):
        SoftFunction.from_names(
            U22, U22, {"e1": {"a": "q", "b": "a"}, "e2": {"a": "a", "b": "a"}}
        )
    with pytest.raises(UniverseMismatchError):
        SoftFunction.from_names(
            U22,
            Universe.of(("a", "b"), ("e1",)),
            {"e1": {"a": "a", "b": "a"}, "e2": {"a": "a", "b": "a"}},
        )


def _reference_apply(f, x):
    """The image of one soft element, coordinate by coordinate."""
    if x.universe != f.domain:
        raise UniverseMismatchError("element from a different universe")
    coords = tuple(pm[c] for pm, c in zip(f.point_maps, x.coords))
    return SoftElement(f.codomain, coords)


def test_apply_and_images():
    x = SoftElement(U22, (1, 0))
    assert _reference_apply(CONST_A, x) == SoftElement(U22, (0, 0))
    assert _reference_apply(IDENTITY, x) == x
    s = soft(U22, e1="b", e2="ab")
    assert image(CONST_A, s) == soft(U22, e1="a", e2="a")
    assert image(IDENTITY, s) == s
    v = soft(U22, e1="a", e2="b")
    # nothing maps onto b in e2, so that slice of the preimage is empty
    assert preimage(CONST_A, v) == SoftSet.of(U22, (U22.mask_of("ab"), 0))
    assert preimage(IDENTITY, v) == v


def test_universe_guards():
    with pytest.raises(UniverseMismatchError):
        _reference_apply(CONST_A, SoftElement(UXY, (0, 0)))
    with pytest.raises(UniverseMismatchError):
        image(CONST_A, soft(UXY, e1="x", e2="x"))
    with pytest.raises(UniverseMismatchError):
        preimage(CONST_A, soft(UXY, e1="x", e2="x"))
    with pytest.raises(PreconditionError):
        definitional_continuity(
            CONST_A, indiscrete_topology(UXY), indiscrete_topology(U22)
        )
    t22 = indiscrete_topology(U22)
    with pytest.raises(UniverseMismatchError):
        is_continuous_at(CONST_A, t22, t22, SoftElement(UXY, (0, 0)))
    with pytest.raises(UniverseMismatchError):
        is_continuous_at(CONST_A, indiscrete_topology(UXY), t22, SoftElement(U22, (0, 0)))
    with pytest.raises(UniverseMismatchError):
        is_continuous_at(CONST_A, t22, indiscrete_topology(UXY), SoftElement(U22, (0, 0)))


def _reference_image(f, s):
    """Slice-wise forward image, built with ``SoftSet.of``."""
    slices = []
    for pm, mask in zip(f.point_maps, s.slices):
        slices.append(sum({1 << pm[i] for i in range(len(pm)) if mask >> i & 1}))
    return SoftSet.of(f.codomain, slices)


def _reference_preimage(f, s):
    """Slice-wise inverse image, built with ``SoftSet.of``."""
    slices = []
    for pm, mask in zip(f.point_maps, s.slices):
        slices.append(sum(1 << i for i, v in enumerate(pm) if mask >> v & 1))
    return SoftSet.of(f.domain, slices)


def test_images_match_the_slice_wise_reference():
    rng = random.Random(8)
    for _ in range(400):
        params = [f"e{k}" for k in range(rng.randint(1, 3))]
        # unequal point counts, so the two layouts have different widths
        dom = Universe.of([f"x{i}" for i in range(rng.randint(1, 5))], params)
        cod = Universe.of([f"y{i}" for i in range(rng.randint(1, 5))], params)
        f = SoftFunction(dom, cod, tuple(
            tuple(rng.randrange(cod.n_points) for _ in dom.points) for _ in params
        ))
        # any slice pattern, mixed and null ones included
        s = SoftSet.of(dom, [rng.randrange(dom.full_mask + 1) for _ in params])
        assert image(f, s) == _reference_image(f, s)
        v = SoftSet.of(cod, [rng.randrange(cod.full_mask + 1) for _ in params])
        assert preimage(f, v) == _reference_preimage(f, v)


@given(
    st.tuples(
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
    ),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
)
def test_image_preserves_admissibility(point_maps, masks):
    f = SoftFunction(U22, U22, point_maps)
    s = SoftSet.of(U22, masks)
    assert is_admissible(s)
    assert is_admissible(image(f, s))


def _reference_trace(f, dt, ct):
    """One entry per codomain open, in member order: its preimage, built
    with ``SoftSet.of``, and the verdict on it."""
    trace = []
    for i, v in enumerate(ct.members):
        w = _reference_preimage(f, v)
        if not is_admissible(w):
            verdict = "degenerate"
        else:
            verdict = "open" if w in dt.members else "not-open"
        trace.append(PreimageEntry(i, w, verdict))
    return trace


def _reference_preimage_continuity(f, dt, ct):
    """The preimage reading with the whole trace built; the failure is its
    first entry that is not open."""
    trace = _reference_trace(f, dt, ct)
    failure = next((e for e in trace if e.verdict != "open"), None)
    return PreimageContinuityReport(failure is None, failure)


def test_criteria_diverge_on_degenerate_preimage():
    # codomain carries V = ({a},{b}); its preimage under the constant map
    # is ({a,b},{}), which is mixed, so the preimage reading rejects it
    dt = indiscrete_topology(U22)
    ct_members = dt.members[:1] + (dt.absolute, soft(U22, e1="a", e2="b"))
    ct = verified(U22, ct_members)
    definitional = definitional_continuity(CONST_A, dt, ct)
    assert definitional.continuous and definitional.failure is None

    strict = preimage_continuity(CONST_A, dt, ct)
    assert not strict.continuous
    trace = _reference_trace(CONST_A, dt, ct)
    verdicts = [e.verdict for e in trace]
    assert verdicts == ["open", "open", "degenerate"]
    assert trace[2].preimage == SoftSet.of(U22, (U22.mask_of("ab"), 0))
    assert strict.failure == trace[2]


def test_criteria_agree_for_identity():
    tf = full_topology(U22)
    definitional = definitional_continuity(IDENTITY, tf, tf)
    strict = preimage_continuity(IDENTITY, tf, tf)
    assert definitional.continuous and strict.continuous
    assert strict.failure is None
    assert all(e.verdict == "open" for e in _reference_trace(IDENTITY, tf, tf))


def test_definitional_failure_details():
    # identity from the indiscrete space cannot track the finer codomain
    dt = indiscrete_topology(U22)
    ct = full_topology(U22)
    report = definitional_continuity(IDENTITY, dt, ct)
    assert not report.continuous
    x, v = report.failure
    assert x == SoftElement(U22, (0, 0))
    assert not is_continuous_at(IDENTITY, dt, ct, x)
    assert is_continuous_at(CONST_A, dt, indiscrete_topology(U22), x)


def _reference_failure_at(f, dt, ct, x):
    """The elementwise definition read literally: images recomputed for
    every open around f(x)."""
    fx = _reference_apply(f, x)
    for v in ct.members:
        if not is_member(fx, v):
            continue
        for u in dt.members:
            if is_member(x, u) and is_soft_subset(_reference_image(f, u), v):
                break
        else:
            return v
    return None


def _reference_definitional(f, dt, ct):
    for x in space_elements(dt):
        v = _reference_failure_at(f, dt, ct, x)
        if v is not None:
            return DefinitionalContinuityReport(False, (x, v))
    return DefinitionalContinuityReport(True, None)


@pytest.mark.parametrize("points", [2, 3])
def test_definitional_continuity_matches_reference(points):
    rng = random.Random(points)
    continuous = 0
    for trial in range(120):
        dom_points, cod_points = points, rng.choice((2, 3))
        dt = gen_topology(GeneratorConfig(dom_points, 2, seed=trial), rng)
        ct = gen_topology(GeneratorConfig(cod_points, 2, seed=trial), rng)
        f = SoftFunction(
            dt.universe,
            ct.universe,
            tuple(
                tuple(rng.randrange(cod_points) for _ in range(dom_points))
                for _ in range(2)
            ),
        )
        report = definitional_continuity(f, dt, ct)
        assert report == _reference_definitional(f, dt, ct)
        for x in space_elements(dt):
            assert is_continuous_at(f, dt, ct, x) == (
                _reference_failure_at(f, dt, ct, x) is None
            )
        assert preimage_continuity(f, dt, ct) == (
            _reference_preimage_continuity(f, dt, ct)
        )
        continuous += report.continuous
    # both verdicts occur, so witnesses are compared too
    assert 0 < continuous < 120


def test_fixture_functions_round_trip():
    from softtopo.document import parse_file

    doc = parse_file(fixture_path("map_domain.json"))
    codoc = parse_file(fixture_path("map_codomain.json"))
    f = SoftFunction.from_names(doc.universe, codoc.universe, doc.functions["f"])
    assert f == CONST_A
    report = preimage_continuity(f, doc.topology, codoc.topology)
    assert not report.continuous
