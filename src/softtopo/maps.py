"""Point maps between universes sharing a parameter list, and continuity.

A soft function here is a family of total point maps, one per parameter.
Images and preimages act slice-wise.  Images of admissible sets stay
admissible (a nonempty slice cannot map to an empty one); preimages can
turn admissible sets into mixed ones, which is exactly where the two
continuity readings part ways: the preimage checker reports such a
degenerate preimage as its failure instead of hiding it.

Both run on ``SoftSet.bits``: a function keeps, per layout bit, the bit it
maps to and the bits mapping onto it, so an image or preimage is one OR
per set bit.  The elementwise reading decides each element on two open
hulls, the smallest open around it and the smallest around its image,
and scans the image bits of the members only for a witness.  It takes
verified topologies: ``topology.open_hull`` refuses a list that lacks a
hull it needs.  The preimage reading tests each preimage's bits against the
domain's member bits.
"""

from __future__ import annotations

import dataclasses as d
import functools
import typing as t

from .core import SoftElement, SoftSet, Universe
from .errors import InputError, PreconditionError, UniverseMismatchError
from .topology import SoftTopology, open_hull, space_elements


@d.dataclass(frozen=True)
class SoftFunction:
    domain: Universe
    codomain: Universe
    point_maps: tuple[tuple[int, ...], ...]
    """One tuple per parameter; entry i is the codomain index of point i."""

    def __post_init__(self) -> None:
        if self.domain.params != self.codomain.params:
            raise UniverseMismatchError(
                "soft functions require identical parameter lists"
            )
        if len(self.point_maps) != self.domain.n_params:
            raise InputError("one point map per parameter is required")
        for pm in self.point_maps:
            if len(pm) != self.domain.n_points:
                raise InputError("point maps must be total on the domain points")
            for v in pm:
                if not 0 <= v < self.codomain.n_points:
                    raise InputError(f"point map target out of range: {v}")

    @classmethod
    def from_names(
        cls,
        domain: Universe,
        codomain: Universe,
        mapping: t.Mapping[str, t.Mapping[str, str]],
    ) -> "SoftFunction":
        """Build from {parameter: {domain point: codomain point}}."""
        maps = []
        for p in domain.params:
            try:
                per_param = mapping[p]
            except KeyError:
                raise InputError(f"no point map given for parameter {p!r}")
            row = []
            for x in domain.points:
                try:
                    target = per_param[x]
                except KeyError:
                    raise InputError(
                        f"parameter {p!r}: point {x!r} has no image"
                    )
                if target not in codomain.points:
                    raise InputError(
                        f"parameter {p!r}: image {target!r} is not a codomain point"
                    )
                row.append(codomain.point_index(target))
            maps.append(tuple(row))
        return cls(domain, codomain, tuple(maps))

    @functools.cached_property
    def _forward(self) -> tuple[int, ...]:
        """For each domain layout bit, the codomain bit it maps to (0 on
        spare bits)."""
        dw, cw = self.domain.packing.width, self.codomain.packing.width
        table = [0] * (dw * self.domain.n_params)
        for k, pm in enumerate(self.point_maps):
            for i, v in enumerate(pm):
                table[k * dw + i] = 1 << k * cw + v
        return tuple(table)

    @functools.cached_property
    def _backward(self) -> tuple[int, ...]:
        """For each codomain layout bit, the domain bits mapping onto it."""
        dw, cw = self.domain.packing.width, self.codomain.packing.width
        table = [0] * (cw * self.codomain.n_params)
        for k, pm in enumerate(self.point_maps):
            for i, v in enumerate(pm):
                table[k * cw + v] |= 1 << k * dw + i
        return tuple(table)


def _gather(table: tuple[int, ...], p: int) -> int:
    """OR of ``table[b]`` over the set bits ``b`` of ``p``."""
    out = 0
    while p:
        low = p & -p
        out |= table[low.bit_length() - 1]
        p ^= low
    return out


def _image_bits(f: SoftFunction, p: int) -> int:
    return _gather(f._forward, p)


def image(f: SoftFunction, s: SoftSet) -> SoftSet:
    """Slice-wise forward image; preserves admissibility."""
    if s.universe != f.domain:
        raise UniverseMismatchError("set from a different universe")
    return SoftSet(f.codomain, _image_bits(f, s.bits))


def preimage(f: SoftFunction, s: SoftSet) -> SoftSet:
    """Slice-wise inverse image; admissibility may be lost."""
    if s.universe != f.codomain:
        raise UniverseMismatchError("set from a different universe")
    return SoftSet(f.domain, _gather(f._backward, s.bits))


# --- continuity --------------------------------------------------------------

@d.dataclass(frozen=True)
class DefinitionalContinuityReport:
    continuous: bool
    failure: tuple[SoftElement, SoftSet] | None
    """First element and codomain open with no admissible local witness."""


def is_continuous_at(
    f: SoftFunction,
    domain_topology: SoftTopology,
    codomain_topology: SoftTopology,
    x: SoftElement,
) -> bool:
    """Every open around the image pulls back to an open around x whose
    image it contains, decided on the two open hulls."""
    if (
        x.universe != f.domain
        or domain_topology.universe != f.domain
        or codomain_topology.universe != f.codomain
    ):
        raise UniverseMismatchError("element or topology from a different universe")
    return _hulls_pass(f, domain_topology, codomain_topology, x.bits)


def _hulls_pass(f: SoftFunction, dt: SoftTopology, ct: SoftTopology, xb: int) -> bool:
    """Whether the element with bits ``xb`` passes on its two open hulls:
    the image of the smallest open around it lies in the smallest open
    around its image (FINDINGS.md, "Continuity from open hulls").  An image
    that no open contains passes; otherwise an element that no open
    contains fails.  ``open_hull`` refuses a list that is not a topology."""
    target = open_hull(ct, _image_bits(f, xb))
    if target is None:
        return True
    around = open_hull(dt, xb)
    return around is not None and _image_bits(f, around) & ~target == 0


def _failure_at(
    f: SoftFunction, dt: SoftTopology, ct: SoftTopology, x: SoftElement
) -> SoftSet | None:
    """First codomain open around f(x) containing the image of no domain
    open around x."""
    xb = x.bits
    fx = _image_bits(f, xb)
    around = [_image_bits(f, u) for u in dt.packed if xb & ~u == 0]
    for v, vb in zip(ct.members, ct.packed):
        # f(x) in v, and no image of an open around x inside v
        if fx & ~vb == 0 and all(w & ~vb for w in around):
            return v
    return None


def definitional_continuity(
    f: SoftFunction,
    domain_topology: SoftTopology,
    codomain_topology: SoftTopology,
) -> DefinitionalContinuityReport:
    """Elementwise reading, decided in canonical element order.  Only the
    first element that fails on its hulls is scanned, for its witness."""
    _check_spaces(f, domain_topology, codomain_topology)
    for x in space_elements(domain_topology):
        if not _hulls_pass(f, domain_topology, codomain_topology, x.bits):
            v = _failure_at(f, domain_topology, codomain_topology, x)
            return DefinitionalContinuityReport(False, (x, v))
    return DefinitionalContinuityReport(True, None)


@d.dataclass(frozen=True)
class PreimageEntry:
    member_index: int
    preimage: SoftSet
    verdict: str
    """Either "not-open", for an admissible preimage that is no member, or
    "degenerate", for a mixed one."""


@d.dataclass(frozen=True)
class PreimageContinuityReport:
    continuous: bool
    failure: PreimageEntry | None
    """First codomain open, in member order, whose preimage fails."""


def preimage_continuity(
    f: SoftFunction,
    domain_topology: SoftTopology,
    codomain_topology: SoftTopology,
) -> PreimageContinuityReport:
    """Openness of every preimage, scanned in member order up to the first
    failure: an admissible preimage that is no member, or a mixed one."""
    _check_spaces(f, domain_topology, codomain_topology)
    backward, opens = f._backward, domain_topology.member_bits
    is_admissible = f.domain.packing.is_admissible
    for i, vb in enumerate(codomain_topology.packed):
        w = _gather(backward, vb)
        if not is_admissible(w):
            verdict = "degenerate"
        elif w not in opens:
            verdict = "not-open"
        else:
            continue
        entry = PreimageEntry(i, SoftSet(f.domain, w), verdict)
        return PreimageContinuityReport(False, entry)
    return PreimageContinuityReport(True, None)


def _check_spaces(
    f: SoftFunction, dt: SoftTopology, ct: SoftTopology
) -> None:
    if dt.universe != f.domain:
        raise PreconditionError("domain topology does not match the function")
    if ct.universe != f.codomain:
        raise PreconditionError("codomain topology does not match the function")
