"""Finite soft sets, soft elements, and the elementary operations.

A soft set over a universe assigns one subset of the points (a "slice") to
every parameter.  It is stored as one Python int, ``SoftSet.bits``, holding
parameter ``k``'s slice at bit offset ``k * (n_points + 1)`` with points in
canonical order.  The spare top bit of each field lets one addition test
every slice for emptiness at once (see ``Packing``), so every operation is
a handful of integer instructions.  Only this module knows the layout;
``SoftSet.of`` builds a set from per-parameter slice masks,
``Universe.point_bits`` maps point names straight to layout bits when
documents are read, and ``SoftSet.slices`` reads slices back for documents
and display.  A soft element picks one point per parameter; a soft set
contains an element only when every coordinate lands inside the matching
slice.

The admissible family consists of the empty soft set plus every soft set
whose slices are all nonempty.  The elementary operations (union,
intersection, complement, relative complement) are defined only there and
collapse to the empty soft set whenever the pointwise result would acquire
an empty slice.  All types are immutable values: equality is structural and
instances can be shared freely across threads.
"""

from __future__ import annotations

import dataclasses as d
import functools
import itertools
import math
import typing as t

from .errors import (
    InputError,
    NotAdmissibleError,
    PreconditionError,
    UniverseMismatchError,
)


@d.dataclass(frozen=True)
class Universe:
    """An ordered point list and an ordered parameter list.

    The declaration order is the canonical order used for bitmask indexing,
    element enumeration, and every deterministic scan in the package.
    """

    points: tuple[str, ...]
    params: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise InputError("universe needs at least one point")
        if not self.params:
            raise InputError("universe needs at least one parameter")
        for names in (self.points, self.params):
            if len(set(names)) != len(names):
                raise InputError(f"duplicate names in {tuple(names)!r}")

    @classmethod
    def of(cls, points: t.Iterable[str], params: t.Iterable[str]) -> "Universe":
        """The one shared universe over these names.  Documents and draws
        over a shape seen before reuse its layout tables instead of
        rebuilding them; ``Universe(points, params)`` builds a new object."""
        return _shared_universe(cls, tuple(points), tuple(params))

    # The layout is computed on first use and stored on the instance, which
    # a frozen dataclass allows because cached_property writes __dict__.
    @functools.cached_property
    def n_points(self) -> int:
        return len(self.points)

    @functools.cached_property
    def n_params(self) -> int:
        return len(self.params)

    @functools.cached_property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    @functools.cached_property
    def _point_indices(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    @functools.cached_property
    def _param_indices(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.params)}

    def point_index(self, name: str) -> int:
        try:
            return self._point_indices[name]
        except KeyError:
            raise InputError(f"unknown point {name!r}") from None

    def param_index(self, name: str) -> int:
        try:
            return self._param_indices[name]
        except KeyError:
            raise InputError(f"unknown parameter {name!r}") from None

    def mask_of(self, names: t.Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.point_index(name)
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(p for i, p in enumerate(self.points) if mask >> i & 1)

    @functools.cached_property
    def packing(self) -> "Packing":
        return Packing.of(self.n_points, self.n_params)

    @functools.cached_property
    def point_bits(self) -> dict[str, dict[str, int]]:
        """Per parameter, in parameter order: each point name's bit in the
        ``Packing`` layout, so a slice's names OR straight into set bits."""
        width = self.packing.width
        return {
            param: {p: 1 << k * width + i for i, p in enumerate(self.points)}
            for k, param in enumerate(self.params)
        }

    def __eq__(self, other: object) -> bool:
        # ``Universe.of`` shares one object per shape, so most comparisons
        # are of an object with itself.
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.points, self.params) == (other.points, other.params)

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.points, self.params))

    def __hash__(self) -> int:
        return self._hash


@functools.lru_cache(maxsize=16)
def _shared_universe(
    cls: type[Universe], points: tuple[str, ...], params: tuple[str, ...]
) -> Universe:
    return cls(points, params)


@d.dataclass(frozen=True)
class Packing:
    """Layout constants of ``SoftSet.bits`` over one universe.

    Each parameter owns a field of ``width = n_points + 1`` bits: the slice
    in the low ``n_points`` bits and a spare top bit that set bits keep
    clear.  ``fields`` holds each parameter's low bits, ``full`` their
    union (the absolute) and ``spare`` the top bits.  Adding ``full`` to
    set bits carries into a field's spare bit exactly when that slice is
    nonempty, and never past it, so ``(m + full) & spare == spare`` says
    every slice of ``m`` is nonempty.  On set bits: union is
    ``a | b``, pointwise meet ``a & b``, pointwise complement ``full ^ a``,
    pointwise disjointness ``a & b == 0`` and containment ``a & ~b == 0``.
    """

    width: int
    fields: tuple[int, ...]
    full: int
    spare: int

    @classmethod
    def of(cls, n_points: int, n_params: int) -> "Packing":
        width = n_points + 1
        fields = tuple(
            ((1 << n_points) - 1) << k * width for k in range(n_params)
        )
        spare = sum(1 << k * width + n_points for k in range(n_params))
        return cls(width, fields, sum(fields), spare)

    def collapse(self, m: int) -> int:
        """Elementary reading of a pointwise result: ``m`` itself
        when every slice is nonempty, otherwise the null set ``0``."""
        return m if (m + self.full) & self.spare == self.spare else 0

    def is_admissible(self, m: int) -> bool:
        return m == 0 or (m + self.full) & self.spare == self.spare


def _require_same_universe(a, b) -> None:
    if a.universe != b.universe:
        raise UniverseMismatchError(
            f"operands live over different universes: {a.universe} vs {b.universe}"
        )


@d.dataclass(frozen=True)
class SoftSet:
    """A soft set as its ``bits`` in the ``Packing`` layout of its universe."""

    universe: Universe
    bits: int

    def __post_init__(self) -> None:
        # Spare bits would corrupt the one-addition admissibility test.
        if self.bits < 0 or self.bits & ~self.universe.packing.full:
            raise InputError(f"soft set bits {self.bits:#x} outside the universe layout")

    @classmethod
    def unchecked(cls, universe: Universe, bits: int) -> "SoftSet":
        """``SoftSet(universe, bits)`` without the layout check, for bits
        known to lie inside it, such as ORs of ``Universe.point_bits``."""
        s = object.__new__(cls)
        s.__dict__["universe"], s.__dict__["bits"] = universe, bits
        return s

    @classmethod
    def of(cls, universe: Universe, slices: t.Iterable[int]) -> "SoftSet":
        """Build from one point bitmask per parameter, in parameter order."""
        slices = tuple(slices)
        if len(slices) != universe.n_params:
            raise InputError(
                f"expected {universe.n_params} slices, got {len(slices)}"
            )
        full, width = universe.full_mask, universe.packing.width
        bits = 0
        for k, mask in enumerate(slices):
            if mask < 0 or mask & ~full:
                raise InputError(f"slice mask {mask:#x} outside the universe")
            bits |= mask << k * width
        return cls(universe, bits)

    @property
    def slices(self) -> tuple[int, ...]:
        """One point bitmask per parameter, in parameter order."""
        width, low = self.universe.packing.width, self.universe.full_mask
        return tuple(self.bits >> k * width & low for k in range(self.universe.n_params))

    @classmethod
    def from_points(
        cls, universe: Universe, by_param: t.Mapping[str, t.Iterable[str]]
    ) -> "SoftSet":
        """Build from a {parameter: point names} mapping; every parameter is required."""
        missing = [a for a in universe.params if a not in by_param]
        if missing:
            raise InputError(f"missing slices for parameters {missing}")
        extra = [a for a in by_param if a not in universe.params]
        if extra:
            raise InputError(f"unknown parameters {extra}")
        return cls.of(universe, (universe.mask_of(by_param[a]) for a in universe.params))

    def slice_points(self, param: str) -> tuple[str, ...]:
        return self.universe.names_of(self.slices[self.universe.param_index(param)])

    def to_points(self) -> dict[str, tuple[str, ...]]:
        return {a: self.universe.names_of(m) for a, m in zip(self.universe.params, self.slices)}

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{a}:{{{','.join(self.universe.names_of(m))}}}"
            for a, m in zip(self.universe.params, self.slices)
        )
        return f"SoftSet({body})"


@d.dataclass(frozen=True)
class SoftElement:
    """One point index per parameter, in parameter order."""

    universe: Universe
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.universe.n_params:
            raise InputError(
                f"expected {self.universe.n_params} coordinates, got {len(self.coords)}"
            )
        for c in self.coords:
            if not 0 <= c < self.universe.n_points:
                raise InputError(f"coordinate index {c} outside the universe")

    @functools.cached_property
    def bits(self) -> int:
        """The ``SoftSet.bits`` of this element's span: one bit per field."""
        width = self.universe.packing.width
        return sum(1 << k * width + c for k, c in enumerate(self.coords))

    def to_points(self) -> dict[str, str]:
        return {a: self.universe.points[c] for a, c in zip(self.universe.params, self.coords)}

    def __repr__(self) -> str:
        return "SoftElement(" + ",".join(
            self.universe.points[c] for c in self.coords
        ) + ")"


@d.dataclass(frozen=True)
class ElementBag:
    """A duplicate-free collection of soft elements over one universe."""

    universe: Universe
    elements: tuple[SoftElement, ...]

    def __post_init__(self) -> None:
        seen = set()
        for x in self.elements:
            if x.universe != self.universe:
                raise UniverseMismatchError("bag element from a different universe")
            if x in seen:
                raise InputError(f"duplicate element {x!r} in bag")
            seen.add(x)

    @classmethod
    def of(cls, universe: Universe, elements: t.Iterable[SoftElement]) -> "ElementBag":
        return cls(universe, tuple(elements))


# --- constructors ---------------------------------------------------------

def null_set(universe: Universe) -> SoftSet:
    """The empty soft set: every slice empty."""
    return SoftSet(universe, 0)


def full_set(universe: Universe) -> SoftSet:
    """The absolute soft set: every slice is the whole point set."""
    return SoftSet(universe, universe.packing.full)


def constant_set(universe: Universe, points: t.Iterable[str]) -> SoftSet:
    """The soft set assigning the same point subset to every parameter."""
    mask = universe.mask_of(points)
    return SoftSet.of(universe, (mask,) * universe.n_params)


# --- predicates and measures ---------------------------------------------

def is_admissible(s: SoftSet) -> bool:
    """True when the set is everywhere-empty or everywhere-nonempty."""
    return s.universe.packing.is_admissible(s.bits)


def is_null(s: SoftSet) -> bool:
    return s.bits == 0


def is_soft_subset(f: SoftSet, g: SoftSet) -> bool:
    """Slice-wise containment of f in g."""
    _require_same_universe(f, g)
    return f.bits & ~g.bits == 0


def is_member(x: SoftElement, f: SoftSet) -> bool:
    """Membership requires the coordinate to land in the slice at every parameter."""
    _require_same_universe(x, f)
    return x.bits & ~f.bits == 0


# Most soft elements an enumeration may build: the bound on generated
# shapes (points, params and points ** params), on the absolute whose
# elements ``topology.space_elements`` lists, and on the points x params
# layout bits of a document's universe.
_ELEMENT_BUDGET = 4096


def element_count(f: SoftSet) -> int:
    """Number of soft elements of f (product of slice sizes)."""
    return math.prod(m.bit_count() for m in f.slices)


def iter_elements(f: SoftSet) -> t.Iterator[SoftElement]:
    """Lazily enumerate the soft elements of f.

    Order is lexicographic: parameter order first, then canonical point
    order inside each slice.  A set with any empty slice has no elements.
    """
    axes = [
        [i for i in range(f.universe.n_points) if m >> i & 1] for m in f.slices
    ]
    for coords in itertools.product(*axes):
        yield SoftElement(f.universe, coords)


def span(bag: ElementBag) -> SoftSet:
    """The soft set whose slice at each parameter collects the bag's coordinates.

    The span is lossy: distinct bags can produce the same soft set.
    """
    bits = 0
    for x in bag.elements:
        bits |= x.bits
    return SoftSet(bag.universe, bits)


# --- pointwise operations -------------------------------------------------

def pointwise_union(f: SoftSet, g: SoftSet) -> SoftSet:
    _require_same_universe(f, g)
    return SoftSet(f.universe, f.bits | g.bits)


def pointwise_intersection(f: SoftSet, g: SoftSet) -> SoftSet:
    _require_same_universe(f, g)
    return SoftSet(f.universe, f.bits & g.bits)


def pointwise_complement(f: SoftSet) -> SoftSet:
    return SoftSet(f.universe, f.universe.packing.full ^ f.bits)


# --- elementary operations ------------------------------------------------

def _require_admissible(s: SoftSet, op: str) -> None:
    if not is_admissible(s):
        raise NotAdmissibleError(
            f"{op}: operand has a mix of empty and nonempty slices: {s!r}"
        )


def elementary_union(f: SoftSet, g: SoftSet) -> SoftSet:
    """Elementary union; agrees with the pointwise union on admissible sets."""
    _require_admissible(f, "elementary_union")
    _require_admissible(g, "elementary_union")
    return pointwise_union(f, g)


def elementary_intersection(f: SoftSet, g: SoftSet) -> SoftSet:
    """Elementary intersection: pointwise unless a slice empties, then null."""
    _require_admissible(f, "elementary_intersection")
    _require_admissible(g, "elementary_intersection")
    _require_same_universe(f, g)
    return SoftSet(f.universe, f.universe.packing.collapse(f.bits & g.bits))


def elementary_complement(f: SoftSet) -> SoftSet:
    """Elementary complement: pointwise complement unless a slice empties."""
    _require_admissible(f, "elementary_complement")
    packing = f.universe.packing
    return SoftSet(f.universe, packing.collapse(packing.full ^ f.bits))


def elementary_union_family(
    universe: Universe, sets: t.Iterable[SoftSet]
) -> SoftSet:
    """Fold of the elementary union; the empty family yields the null set."""
    bits = 0
    for s in sets:
        _require_admissible(s, "elementary_union_family")
        if s.universe != universe:
            raise UniverseMismatchError("family member from a different universe")
        bits |= s.bits
    return SoftSet(universe, bits)


def elementary_intersection_family(
    universe: Universe, sets: t.Iterable[SoftSet]
) -> SoftSet:
    """Fold of the elementary intersection; the empty family yields the absolute.

    Order-independent: the fold collapses exactly when the joint pointwise
    intersection has an empty slice, because slices only shrink along the way.
    """
    bits = universe.packing.full
    for s in sets:
        _require_admissible(s, "elementary_intersection_family")
        if s.universe != universe:
            raise UniverseMismatchError("family member from a different universe")
        bits &= s.bits
    return SoftSet(universe, universe.packing.collapse(bits))


# --- relative complements --------------------------------------------------

def relative_complement(z: SoftSet, y_points: t.Iterable[str]) -> SoftSet:
    """Pointwise complement of z inside the constant set on y_points.

    Precondition: z must sit inside that constant set.
    """
    carrier = constant_set(z.universe, y_points).bits
    if z.bits & ~carrier:
        raise PreconditionError(
            "relative_complement: operand is not contained in the carrier"
        )
    return SoftSet(z.universe, carrier ^ z.bits)


def elementary_relative_complement(
    z: SoftSet, y_points: t.Iterable[str]
) -> SoftSet:
    """Relative complement with the elementary collapse rule applied."""
    w = relative_complement(z, y_points)
    return SoftSet(w.universe, w.universe.packing.collapse(w.bits))
