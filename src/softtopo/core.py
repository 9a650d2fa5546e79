"""Finite soft sets, soft elements, and the elementary operations.

A soft set over a universe assigns one subset of the points (a "slice") to
every parameter.  Slices are stored as fixed-width bitmasks indexed by the
canonical point order, so all pointwise algebra is integer arithmetic.  A
soft element picks one point per parameter; a soft set contains an element
only when every coordinate lands inside the matching slice.

Hot loops use a packed form instead: one Python int per soft set, holding
parameter ``k``'s slice at bit offset ``k * (n_points + 1)``.  The spare top
bit of each field lets one addition test every slice for emptiness at once
(see ``Packing``).  Only this module knows the layout; ``pack`` and
``unpack`` convert at the edges.

The admissible family consists of the empty soft set plus every soft set
whose slices are all nonempty.  The elementary operations (union,
intersection, complement, relative complement) are defined only there and
collapse to the empty soft set whenever the pointwise result would acquire
an empty slice.  All types are immutable values: equality is structural and
instances can be shared freely across threads.
"""

from __future__ import annotations

import dataclasses as d
import itertools
import math
import typing as t

from .errors import (
    InputError,
    NotAdmissibleError,
    PreconditionError,
    UniverseMismatchError,
)


def _dedup(names: t.Iterable[str]) -> tuple[str, ...]:
    out = tuple(names)
    if len(set(out)) != len(out):
        raise InputError(f"duplicate names in {out!r}")
    return out


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
        _dedup(self.points)
        _dedup(self.params)

    @classmethod
    def of(cls, points: t.Iterable[str], params: t.Iterable[str]) -> "Universe":
        return cls(tuple(points), tuple(params))

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_params(self) -> int:
        return len(self.params)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    def point_index(self, name: str) -> int:
        idx = self.__dict__.get("_pidx")
        if idx is None:
            idx = {p: i for i, p in enumerate(self.points)}
            object.__setattr__(self, "_pidx", idx)
        try:
            return idx[name]
        except KeyError:
            raise InputError(f"unknown point {name!r}") from None

    def param_index(self, name: str) -> int:
        idx = self.__dict__.get("_aidx")
        if idx is None:
            idx = {a: i for i, a in enumerate(self.params)}
            object.__setattr__(self, "_aidx", idx)
        try:
            return idx[name]
        except KeyError:
            raise InputError(f"unknown parameter {name!r}") from None

    def mask_of(self, names: t.Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.point_index(name)
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(p for i, p in enumerate(self.points) if mask >> i & 1)

    @property
    def packing(self) -> "Packing":
        packing = self.__dict__.get("_packing")
        if packing is None:
            packing = Packing.of(self.n_points, self.n_params)
            object.__setattr__(self, "_packing", packing)
        return packing

    def __hash__(self) -> int:
        h = self.__dict__.get("_h")
        if h is None:
            h = hash((self.points, self.params))
            object.__setattr__(self, "_h", h)
        return h


@d.dataclass(frozen=True)
class Packing:
    """Layout constants of the packed form over one universe.

    Each parameter owns a field of ``width = n_points + 1`` bits: the slice
    in the low ``n_points`` bits and a spare top bit that packed values keep
    clear.  ``fields`` holds each parameter's low bits, ``full`` their
    union (the packed absolute) and ``spare`` the top bits.  Adding ``full``
    to a packed value carries into a field's spare bit exactly when that
    slice is nonempty, and never past it, so ``(m + full) & spare == spare``
    says every slice of ``m`` is nonempty.  On packed values: union is
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
        """Elementary reading of a packed pointwise result: ``m`` itself
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
    """One bitmask slice per parameter, in parameter order."""

    universe: Universe
    slices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.slices) != self.universe.n_params:
            raise InputError(
                f"expected {self.universe.n_params} slices, got {len(self.slices)}"
            )
        full = self.universe.full_mask
        for mask in self.slices:
            if mask < 0 or mask & ~full:
                raise InputError(f"slice mask {mask:#x} outside the universe")

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
        return cls(
            universe, tuple(universe.mask_of(by_param[a]) for a in universe.params)
        )

    def slice_points(self, param: str) -> tuple[str, ...]:
        return self.universe.names_of(self.slices[self.universe.param_index(param)])

    def to_points(self) -> dict[str, tuple[str, ...]]:
        return {a: self.universe.names_of(m) for a, m in zip(self.universe.params, self.slices)}

    def __hash__(self) -> int:
        h = self.__dict__.get("_h")
        if h is None:
            h = hash((self.universe, self.slices))
            object.__setattr__(self, "_h", h)
        return h

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

    @classmethod
    def from_points(
        cls, universe: Universe, by_param: t.Mapping[str, str]
    ) -> "SoftElement":
        missing = [a for a in universe.params if a not in by_param]
        if missing:
            raise InputError(f"missing coordinates for parameters {missing}")
        return cls(
            universe,
            tuple(universe.point_index(by_param[a]) for a in universe.params),
        )

    def point(self, param: str) -> str:
        return self.universe.points[self.coords[self.universe.param_index(param)]]

    def to_points(self) -> dict[str, str]:
        return {a: self.universe.points[c] for a, c in zip(self.universe.params, self.coords)}

    def __hash__(self) -> int:
        h = self.__dict__.get("_h")
        if h is None:
            h = hash((self.universe, self.coords))
            object.__setattr__(self, "_h", h)
        return h

    def __repr__(self) -> str:
        return "SoftElement(" + ",".join(
            self.universe.points[c] for c in self.coords
        ) + ")"


def pack(s: SoftSet) -> int:
    """The packed form of ``s`` (see ``Packing``)."""
    width = s.universe.packing.width
    out = 0
    for k, m in enumerate(s.slices):
        out |= m << k * width
    return out


def pack_element(x: SoftElement) -> int:
    """The packed form of the span of ``x``: one bit in every field."""
    width = x.universe.packing.width
    out = 0
    for k, c in enumerate(x.coords):
        out |= 1 << k * width + c
    return out


def unpack(universe: Universe, packed: int) -> SoftSet:
    """The soft set whose packed form is ``packed``."""
    width, low = universe.packing.width, universe.full_mask
    return SoftSet(
        universe, tuple(packed >> k * width & low for k in range(universe.n_params))
    )


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

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> t.Iterator[SoftElement]:
        return iter(self.elements)


# --- constructors ---------------------------------------------------------

def null_set(universe: Universe) -> SoftSet:
    """The empty soft set: every slice empty."""
    return SoftSet(universe, (0,) * universe.n_params)


def full_set(universe: Universe) -> SoftSet:
    """The absolute soft set: every slice is the whole point set."""
    return SoftSet(universe, (universe.full_mask,) * universe.n_params)


def constant_set(universe: Universe, points: t.Iterable[str]) -> SoftSet:
    """The soft set assigning the same point subset to every parameter."""
    mask = universe.mask_of(points)
    return SoftSet(universe, (mask,) * universe.n_params)


# --- predicates and measures ---------------------------------------------

def is_admissible(s: SoftSet) -> bool:
    """True when the set is everywhere-empty or everywhere-nonempty."""
    return all(m == 0 for m in s.slices) or all(m != 0 for m in s.slices)


def is_null(s: SoftSet) -> bool:
    return all(m == 0 for m in s.slices)


def is_soft_subset(f: SoftSet, g: SoftSet) -> bool:
    """Slice-wise containment of f in g."""
    _require_same_universe(f, g)
    return all(fm & ~gm == 0 for fm, gm in zip(f.slices, g.slices))


def is_member(x: SoftElement, f: SoftSet) -> bool:
    """Membership requires the coordinate to land in the slice at every parameter."""
    _require_same_universe(x, f)
    return all(m >> c & 1 for c, m in zip(x.coords, f.slices))


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
    masks = [0] * bag.universe.n_params
    for x in bag.elements:
        for i, c in enumerate(x.coords):
            masks[i] |= 1 << c
    return SoftSet(bag.universe, tuple(masks))


# --- pointwise operations -------------------------------------------------

def pointwise_union(f: SoftSet, g: SoftSet) -> SoftSet:
    _require_same_universe(f, g)
    return SoftSet(f.universe, tuple(a | b for a, b in zip(f.slices, g.slices)))


def pointwise_intersection(f: SoftSet, g: SoftSet) -> SoftSet:
    _require_same_universe(f, g)
    return SoftSet(f.universe, tuple(a & b for a, b in zip(f.slices, g.slices)))


def pointwise_complement(f: SoftSet) -> SoftSet:
    full = f.universe.full_mask
    return SoftSet(f.universe, tuple(full & ~m for m in f.slices))


# --- elementary operations ------------------------------------------------

def _require_admissible(s: SoftSet, op: str) -> None:
    if not is_admissible(s):
        raise NotAdmissibleError(
            f"{op}: operand has a mix of empty and nonempty slices: {s!r}"
        )


def _collapse(universe: Universe, masks: t.Sequence[int]) -> SoftSet:
    # The elementary reading: a result keeps its pointwise slices only when
    # every slice is nonempty, otherwise it collapses to the empty soft set.
    if all(masks):
        return SoftSet(universe, tuple(masks))
    return null_set(universe)


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
    return _collapse(f.universe, [a & b for a, b in zip(f.slices, g.slices)])


def elementary_complement(f: SoftSet) -> SoftSet:
    """Elementary complement: pointwise complement unless a slice empties."""
    _require_admissible(f, "elementary_complement")
    full = f.universe.full_mask
    return _collapse(f.universe, [full & ~m for m in f.slices])


def elementary_union_family(
    universe: Universe, sets: t.Iterable[SoftSet]
) -> SoftSet:
    """Fold of the elementary union; the empty family yields the null set."""
    masks = [0] * universe.n_params
    for s in sets:
        _require_admissible(s, "elementary_union_family")
        if s.universe != universe:
            raise UniverseMismatchError("family member from a different universe")
        for i, m in enumerate(s.slices):
            masks[i] |= m
    return SoftSet(universe, tuple(masks))


def elementary_intersection_family(
    universe: Universe, sets: t.Iterable[SoftSet]
) -> SoftSet:
    """Fold of the elementary intersection; the empty family yields the absolute.

    Order-independent: the fold collapses exactly when the joint pointwise
    intersection has an empty slice, because slices only shrink along the way.
    """
    masks = [universe.full_mask] * universe.n_params
    for s in sets:
        _require_admissible(s, "elementary_intersection_family")
        if s.universe != universe:
            raise UniverseMismatchError("family member from a different universe")
        for i, m in enumerate(s.slices):
            masks[i] &= m
    return _collapse(universe, masks)


# --- relative complements --------------------------------------------------

def relative_complement(z: SoftSet, y_points: t.Iterable[str]) -> SoftSet:
    """Pointwise complement of z inside the constant set on y_points.

    Precondition: z must sit inside that constant set.
    """
    ymask = z.universe.mask_of(y_points)
    for m in z.slices:
        if m & ~ymask:
            raise PreconditionError(
                "relative_complement: operand is not contained in the carrier"
            )
    return SoftSet(z.universe, tuple(ymask & ~m for m in z.slices))


def elementary_relative_complement(
    z: SoftSet, y_points: t.Iterable[str]
) -> SoftSet:
    """Relative complement with the elementary collapse rule applied."""
    w = relative_complement(z, y_points)
    return _collapse(w.universe, w.slices)
