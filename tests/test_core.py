from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softtopo.core import (
    ElementBag,
    SoftElement,
    SoftSet,
    Universe,
    constant_set,
    element_count,
    elementary_complement,
    elementary_intersection,
    elementary_intersection_family,
    elementary_relative_complement,
    elementary_union,
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
    pointwise_union,
    relative_complement,
    span,
)
from softtopo.errors import (
    InputError,
    NotAdmissibleError,
    PreconditionError,
    UniverseMismatchError,
)

from conftest import soft

XYZ = Universe.of(("x", "y", "z"), ("alpha", "beta"))


# --- universes and sets --------------------------------------------------------


def test_universe_rejects_duplicates_and_empties():
    with pytest.raises(InputError):
        Universe.of(("x", "x"), ("alpha",))
    with pytest.raises(InputError):
        Universe.of(("x",), ("alpha", "alpha"))
    with pytest.raises(InputError):
        Universe.of((), ("alpha",))
    with pytest.raises(InputError):
        Universe.of(("x",), ())


def test_universe_lookups():
    assert XYZ.point_index("z") == 2
    assert XYZ.param_index("beta") == 1
    assert XYZ.mask_of(("x", "z")) == 0b101
    assert XYZ.names_of(0b110) == ("y", "z")
    with pytest.raises(InputError):
        XYZ.point_index("w")
    with pytest.raises(InputError):
        XYZ.param_index("gamma")


def test_universe_equality_is_structural():
    twin = Universe(("x", "y", "z"), ("alpha", "beta"))
    assert twin is not XYZ
    assert twin == XYZ and hash(twin) == hash(XYZ)
    assert XYZ == XYZ
    assert XYZ != Universe.of(("x", "y", "z"), ("alpha",))
    assert XYZ != Universe.of(("z", "y", "x"), ("alpha", "beta"))
    assert XYZ.__eq__(("x", "y", "z")) is NotImplemented
    assert XYZ != (("x", "y", "z"), ("alpha", "beta"))
    # Sets from equal universes still combine.
    assert pointwise_union(SoftSet(twin, 0b1), SoftSet(XYZ, 0b10)).bits == 0b11


def test_universe_of_shares_one_object_per_shape():
    shared = Universe.of(["x", "y", "z"], iter(["alpha", "beta"]))
    assert Universe.of(("x", "y", "z"), ("alpha", "beta")) is shared
    assert shared.packing is Universe.of("xyz", ("alpha", "beta")).packing
    assert Universe.of(("x", "y", "z"), ("alpha",)) is not shared
    # The constructor still builds a new object, equal to the shared one.
    fresh = Universe(("x", "y", "z"), ("alpha", "beta"))
    assert fresh is not shared and fresh == shared
    with pytest.raises(InputError):
        Universe.of(("x", "x"), ("alpha",))


def test_soft_set_construction_guards():
    with pytest.raises(InputError, match="expected 2 slices, got 1"):
        SoftSet.of(XYZ, (1,))  # one slice for two parameters
    with pytest.raises(InputError, match="slice mask 0x8 outside the universe"):
        SoftSet.of(XYZ, (1, 0b1000))  # mask reaches outside the point list
    with pytest.raises(InputError):
        SoftSet.from_points(XYZ, {"alpha": ["x"]})
    with pytest.raises(InputError):
        SoftSet.from_points(XYZ, {"alpha": ["x"], "beta": ["x"], "gamma": ["x"]})
    s = soft(XYZ, alpha=["x", "z"], beta=["y"])
    assert s.slice_points("alpha") == ("x", "z")
    assert s.to_points() == {"alpha": ("x", "z"), "beta": ("y",)}


def test_admissibility_classification():
    assert is_admissible(null_set(XYZ))
    assert is_admissible(full_set(XYZ))
    assert is_admissible(soft(XYZ, alpha=["x"], beta=["y", "z"]))
    # one empty slice next to a nonempty one falls outside the family
    assert not is_admissible(soft(XYZ, alpha=["x"], beta=[]))
    assert is_null(null_set(XYZ))
    assert not is_null(full_set(XYZ))


# --- pointwise operations, frozen hand values ----------------------------------


def test_pointwise_ops_match_hand_values():
    f = soft(XYZ, alpha=["x", "y"], beta=["x", "z"])
    g = soft(XYZ, alpha=["y", "z"], beta=["x"])
    assert pointwise_union(f, g) == soft(XYZ, alpha=["x", "y", "z"], beta=["x", "z"])
    assert pointwise_intersection(f, g) == soft(XYZ, alpha=["y"], beta=["x"])
    assert pointwise_complement(f) == soft(XYZ, alpha=["z"], beta=["y"])


def test_pointwise_ops_demand_one_universe():
    other = Universe.of(("x", "y", "z"), ("alpha", "gamma"))
    with pytest.raises(UniverseMismatchError):
        pointwise_union(full_set(XYZ), full_set(other))


# --- soft elements --------------------------------------------------------------


def test_element_enumeration_is_lexicographic():
    f = soft(XYZ, alpha=["x", "z"], beta=["y", "z"])
    listed = [x.coords for x in iter_elements(f)]
    # coordinate indices follow declaration order: x=0, y=1, z=2
    assert listed == [(0, 1), (0, 2), (2, 1), (2, 2)]
    assert element_count(f) == 4


def test_element_counts_multiply_slice_sizes():
    assert element_count(full_set(XYZ)) == 9
    assert element_count(null_set(XYZ)) == 0
    g = soft(XYZ, alpha=["x", "y"], beta=["x"])
    assert [x.coords for x in iter_elements(g)] == [(0, 0), (1, 0)]


def test_membership_is_per_parameter():
    f = soft(XYZ, alpha=["x", "z"], beta=["y", "z"])
    assert is_member(SoftElement(XYZ, (0, 1)), f)
    # right coordinate at alpha only
    assert not is_member(SoftElement(XYZ, (0, 0)), f)


def test_span_recovers_admissible_sets():
    f = soft(XYZ, alpha=["x", "z"], beta=["y", "z"])
    bag = ElementBag.of(XYZ, iter_elements(f))
    assert span(bag) == f
    assert span(ElementBag.of(XYZ, [])) == null_set(XYZ)


def test_span_is_lossy_on_arbitrary_bags():
    # two diagonal elements span the full square
    bag = ElementBag.of(XYZ, [SoftElement(XYZ, (0, 1)), SoftElement(XYZ, (1, 0))])
    assert span(bag) == soft(XYZ, alpha=["x", "y"], beta=["x", "y"])


# --- elementary operations, frozen hand values ----------------------------------


def test_elementary_union_can_exceed_pointwise_reach():
    f = soft(XYZ, alpha=["x", "z"], beta=["y", "z"])
    g = soft(XYZ, alpha=["x", "y"], beta=["x"])
    assert elementary_union(f, g) == full_set(XYZ)
    assert pointwise_union(f, g) == full_set(XYZ)


def test_elementary_intersection_collapses_where_pointwise_does_not():
    f = soft(XYZ, alpha=["x", "z"], beta=["y", "z"])
    g = soft(XYZ, alpha=["x", "y"], beta=["x"])
    assert elementary_intersection(f, g) == null_set(XYZ)
    h = pointwise_intersection(f, g)
    assert h == soft(XYZ, alpha=["x"], beta=[])
    assert not is_admissible(h)


def test_elementary_complement_definition():
    f = soft(XYZ, alpha=["x", "z"], beta=["y", "z"])
    assert elementary_complement(f) == soft(XYZ, alpha=["y"], beta=["x"])
    # the span of "elements missing from f somewhere" is a different set
    outside_somewhere = ElementBag.of(
        XYZ,
        [
            SoftElement(XYZ, (0, 0)),
            SoftElement(XYZ, (1, 1)),
            SoftElement(XYZ, (1, 0)),
            SoftElement(XYZ, (2, 0)),
        ],
    )
    assert span(outside_somewhere) == soft(XYZ, alpha=["x", "y", "z"], beta=["x", "y"])
    assert span(outside_somewhere) != elementary_complement(f)


def test_elementary_complement_collapses_mixed_results():
    f = soft(XYZ, alpha=["x"], beta=["x", "y", "z"])
    # pointwise complement has an empty beta slice, so the result collapses
    assert elementary_complement(f) == null_set(XYZ)
    assert elementary_complement(full_set(XYZ)) == null_set(XYZ)


def test_elementary_ops_reject_inadmissible_operands():
    mixed = soft(XYZ, alpha=["x"], beta=[])
    ok = full_set(XYZ)
    with pytest.raises(NotAdmissibleError):
        elementary_union(mixed, ok)
    with pytest.raises(NotAdmissibleError):
        elementary_intersection(ok, mixed)
    with pytest.raises(NotAdmissibleError):
        elementary_complement(mixed)


def test_family_folds():
    f = soft(XYZ, alpha=["x"], beta=["y"])
    g = soft(XYZ, alpha=["y"], beta=["y"])
    assert elementary_union_family(XYZ, []) == null_set(XYZ)
    assert elementary_intersection_family(XYZ, []) == full_set(XYZ)
    assert elementary_union_family(XYZ, [f]) == f
    assert elementary_union_family(XYZ, [f, g]) == soft(
        XYZ, alpha=["x", "y"], beta=["y"]
    )
    # fold hits the null set and stays there
    assert elementary_intersection_family(XYZ, [f, g]) == null_set(XYZ)
    assert elementary_intersection_family(XYZ, [f, g, full_set(XYZ)]) == null_set(XYZ)


# --- relative complement ---------------------------------------------------------


def test_relative_complement_does_not_collapse():
    z = soft(XYZ, alpha=["x"], beta=["x", "y"])
    w = relative_complement(z, ("x", "y"))
    assert w == soft(XYZ, alpha=["y"], beta=[])
    assert not is_admissible(w)


def test_relative_complement_requires_containment():
    z = soft(XYZ, alpha=["x", "z"], beta=["x"])
    with pytest.raises(PreconditionError):
        relative_complement(z, ("x", "y"))


def test_elementary_relative_complement_collapses():
    z = soft(XYZ, alpha=["x"], beta=["x", "y"])
    assert elementary_relative_complement(z, ("x", "y")) == null_set(XYZ)
    w = soft(XYZ, alpha=["x"], beta=["x"])
    assert elementary_relative_complement(w, ("x", "y")) == soft(
        XYZ, alpha=["y"], beta=["y"]
    )


# --- packed form ----------------------------------------------------------------

_PACKED_UNIVERSES = (
    Universe.of(("a",), ("e1",)),
    Universe.of(("a", "b"), ("e1",)),
    Universe.of(("a", "b"), ("e1", "e2")),
    Universe.of(("a", "b", "c"), ("e1", "e2")),
    Universe.of(("a", "b"), ("e1", "e2", "e3")),
)


def _every_soft_set(u: Universe) -> list[SoftSet]:
    return [
        SoftSet.of(u, combo)
        for combo in itertools.product(range(u.full_mask + 1), repeat=u.n_params)
    ]


def test_packing_layout_constants():
    packing = Universe.of(("a", "b", "c"), ("e1", "e2")).packing
    assert packing.width == 4
    assert packing.fields == (0b0111, 0b0111_0000)
    assert packing.full == 0b0111_0111
    assert packing.spare == 0b1000_1000
    u = Universe.of(("a", "b"), ("e1",))
    assert u.packing is u.packing


def test_soft_set_bits_stay_inside_the_layout():
    packing = XYZ.packing
    assert SoftSet(XYZ, packing.full) == full_set(XYZ)
    assert SoftSet(XYZ, 0) == null_set(XYZ)
    for bad in (
        -1,
        packing.full + 1,  # carries into the first spare bit
        packing.spare,
        1 << packing.width * XYZ.n_params,  # past the last field
    ):
        with pytest.raises(InputError, match="outside the universe layout"):
            SoftSet(XYZ, bad)


# Slice-wise definitions of the core operations, as the paper states them:
# the reference the packed layout is held to.


def _ref_admissible(f: tuple[int, ...]) -> bool:
    return not any(f) or all(f)


def _ref_collapse(f: tuple[int, ...]) -> tuple[int, ...]:
    return f if all(f) else (0,) * len(f)


def _ref_union(f, g):
    return tuple(a | b for a, b in zip(f, g))


def _ref_meet(f, g):
    return tuple(a & b for a, b in zip(f, g))


def _ref_complement(u: Universe, f):
    return tuple(u.full_mask & ~m for m in f)


def _ref_subset(f, g) -> bool:
    return all(a & ~b == 0 for a, b in zip(f, g))


def _ref_member(coords, f) -> bool:
    return all(m >> c & 1 for c, m in zip(coords, f))


@pytest.mark.parametrize(
    "u", _PACKED_UNIVERSES, ids=lambda u: f"{u.n_points}x{u.n_params}"
)
def test_packed_operations_match_core_exhaustively(u):
    """The packed core agrees with the slice-wise reference on every set."""
    sets = _every_soft_set(u)
    assert len({f.bits for f in sets}) == len(sets)
    assert [f.slices for f in sets] == list(
        itertools.product(range(u.full_mask + 1), repeat=u.n_params)
    )
    assert full_set(u).slices == (u.full_mask,) * u.n_params
    assert null_set(u).slices == (0,) * u.n_params
    elements = list(iter_elements(full_set(u)))
    carriers = [
        (names, u.mask_of(names))
        for k in range(1, u.n_points + 1)
        for names in itertools.combinations(u.points, k)
    ]
    for f in sets:
        fs = f.slices
        assert SoftSet.of(u, fs) == f
        assert is_admissible(f) == _ref_admissible(fs)
        assert is_null(f) == (not any(fs))
        assert element_count(f) == math.prod(m.bit_count() for m in fs)
        assert pointwise_complement(f).slices == _ref_complement(u, fs)
        for x in elements:
            assert is_member(x, f) == _ref_member(x.coords, fs)
        for names, ymask in carriers:
            if _ref_subset(fs, (ymask,) * u.n_params):
                rel = tuple(ymask & ~m for m in fs)
                assert relative_complement(f, names).slices == rel
                assert elementary_relative_complement(f, names).slices == _ref_collapse(rel)
            else:
                with pytest.raises(PreconditionError):
                    relative_complement(f, names)
        if _ref_admissible(fs):
            assert elementary_complement(f).slices == _ref_collapse(
                _ref_complement(u, fs)
            )
        for g in sets:
            gs = g.slices
            assert pointwise_union(f, g).slices == _ref_union(fs, gs)
            assert pointwise_intersection(f, g).slices == _ref_meet(fs, gs)
            assert is_soft_subset(f, g) == _ref_subset(fs, gs)
            if _ref_admissible(fs) and _ref_admissible(gs):
                assert elementary_union(f, g).slices == _ref_union(fs, gs)
                meet = _ref_collapse(_ref_meet(fs, gs))
                assert elementary_intersection(f, g).slices == meet
                assert elementary_intersection_family(u, [f, g]).slices == meet
                assert elementary_union_family(u, [f, g]).slices == _ref_union(fs, gs)
    for x in elements:
        spanned = tuple(1 << c for c in x.coords)
        assert span(ElementBag.of(u, [x])).slices == spanned
        assert SoftSet(u, x.bits).slices == spanned


# --- properties -----------------------------------------------------------------

_UNIVERSES = (
    Universe.of(("a",), ("e1",)),
    Universe.of(("a", "b"), ("e1",)),
    Universe.of(("a", "b"), ("e1", "e2")),
    Universe.of(("a", "b", "c"), ("e1", "e2")),
)


@st.composite
def admissible_sets(draw, universe=None):
    u = universe if universe is not None else draw(st.sampled_from(_UNIVERSES))
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return null_set(u)
    full = u.full_mask
    slices = tuple(draw(st.integers(1, full)) for _ in u.params)
    return SoftSet.of(u, slices)


@st.composite
def admissible_pairs(draw):
    u = draw(st.sampled_from(_UNIVERSES))
    return draw(admissible_sets(universe=u)), draw(admissible_sets(universe=u))


@given(admissible_pairs())
@settings(max_examples=120, deadline=None)
def test_union_laws(pair):
    f, g = pair
    u = f.universe
    assert elementary_union(f, g) == elementary_union(g, f)
    assert elementary_union(f, f) == f
    assert elementary_union(f, null_set(u)) == f
    assert is_soft_subset(f, elementary_union(f, g))
    assert is_admissible(elementary_union(f, g))


@given(admissible_pairs())
@settings(max_examples=120, deadline=None)
def test_intersection_laws(pair):
    f, g = pair
    u = f.universe
    meet = elementary_intersection(f, g)
    assert meet == elementary_intersection(g, f)
    assert elementary_intersection(f, f) == f
    assert elementary_intersection(f, full_set(u)) == f
    assert is_soft_subset(meet, elementary_union(f, g))
    assert is_admissible(meet)


@given(admissible_sets())
@settings(max_examples=120, deadline=None)
def test_span_inverts_enumeration(f):
    assert span(ElementBag.of(f.universe, iter_elements(f))) == f


@given(admissible_sets())
@settings(max_examples=120, deadline=None)
def test_complement_membership_characterization(f):
    u = f.universe
    comp = elementary_complement(f)
    for x in iter_elements(full_set(u)):
        avoided_everywhere = all(
            not (f.slices[i] >> x.coords[i]) & 1 for i in range(u.n_params)
        )
        assert is_member(x, comp) == avoided_everywhere


@given(admissible_pairs())
@settings(max_examples=80, deadline=None)
def test_subset_order(pair):
    f, g = pair
    assert is_soft_subset(f, f)
    if is_soft_subset(f, g) and is_soft_subset(g, f):
        assert f == g
    meet = elementary_intersection(f, g)
    assert is_soft_subset(meet, f) or is_null(meet)


@pytest.mark.parametrize("points, params", [(2, 2), (3, 2), (2, 3)])
def test_bits_decide_whether_a_set_has_another_element(points, params):
    # An admissible set has an element other than x exactly when it is
    # neither null nor the span of x alone; the limiting statement's
    # conclusion reads this from the bits.
    u = Universe.of(
        tuple(f"p{i}" for i in range(points)), tuple(f"e{k}" for k in range(params))
    )
    packing = u.packing
    elements = list(iter_elements(full_set(u)))
    for bits in range(packing.full + 1):
        if bits & ~packing.full or not packing.is_admissible(bits):
            continue
        m = SoftSet(u, bits)
        for x in elements:
            alone = not any(y != x for y in iter_elements(m))
            assert (m.bits in (0, x.bits)) == alone, (m, x)
