"""Point maps between universes sharing a parameter list, and continuity.

A soft function here is a family of total point maps, one per parameter.
Images and preimages act slice-wise.  Images of admissible sets stay
admissible (a nonempty slice cannot map to an empty one); preimages can
turn admissible sets into mixed ones, which is exactly where the two
continuity readings part ways, so the preimage checker exposes a policy
for those degenerate slices instead of hiding them.
"""

from __future__ import annotations

import dataclasses as d
import typing as t

from .core import (
    SoftElement,
    SoftSet,
    Universe,
    is_admissible,
    is_member,
)
from .errors import InputError, PreconditionError, UniverseMismatchError
from .topology import SoftTopology


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


def apply_function(f: SoftFunction, x: SoftElement) -> SoftElement:
    if x.universe != f.domain:
        raise UniverseMismatchError("element from a different universe")
    coords = tuple(pm[c] for pm, c in zip(f.point_maps, x.coords))
    return SoftElement(f.codomain, coords)


def _forward_mask(pm: tuple[int, ...], mask: int) -> int:
    out = 0
    i = 0
    while mask:
        if mask & 1:
            out |= 1 << pm[i]
        mask >>= 1
        i += 1
    return out


def _inverse_mask(pm: tuple[int, ...], mask: int) -> int:
    out = 0
    for i, v in enumerate(pm):
        if mask >> v & 1:
            out |= 1 << i
    return out


def image(f: SoftFunction, s: SoftSet) -> SoftSet:
    """Slice-wise forward image; preserves admissibility."""
    if s.universe != f.domain:
        raise UniverseMismatchError("set from a different universe")
    return SoftSet.of(
        f.codomain, (_forward_mask(pm, m) for pm, m in zip(f.point_maps, s.slices))
    )


def preimage(f: SoftFunction, s: SoftSet) -> SoftSet:
    """Slice-wise inverse image; admissibility may be lost."""
    if s.universe != f.codomain:
        raise UniverseMismatchError("set from a different universe")
    return SoftSet.of(
        f.domain, (_inverse_mask(pm, m) for pm, m in zip(f.point_maps, s.slices))
    )


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
    image it contains."""
    images = [image(f, u) for u in domain_topology.members]
    return _failure_at(f, domain_topology, codomain_topology, images, x) is None


def _failure_at(
    f: SoftFunction,
    dt: SoftTopology,
    ct: SoftTopology,
    images: t.Sequence[SoftSet],
    x: SoftElement,
) -> SoftSet | None:
    """First codomain open around f(x) containing the image of no domain
    open around x; ``images`` holds the image of each domain member."""
    fx = apply_function(f, x)
    around = [w.bits for u, w in zip(dt.members, images) if is_member(x, u)]
    for v in ct.members:
        # is_member guards the universe; then no image may lie inside v
        if is_member(fx, v) and all(w & ~v.bits for w in around):
            return v
    return None


def definitional_continuity(
    f: SoftFunction,
    domain_topology: SoftTopology,
    codomain_topology: SoftTopology,
) -> DefinitionalContinuityReport:
    """Elementwise reading, scanned in canonical element order."""
    _check_spaces(f, domain_topology, codomain_topology)
    from .topology import space_elements

    images = [image(f, u) for u in domain_topology.members]
    for x in space_elements(domain_topology):
        v = _failure_at(f, domain_topology, codomain_topology, images, x)
        if v is not None:
            return DefinitionalContinuityReport(False, (x, v))
    return DefinitionalContinuityReport(True, None)


@d.dataclass(frozen=True)
class PreimageEntry:
    member_index: int
    preimage: SoftSet
    admissible: bool
    verdict: str
    """One of "open", "not-open", "degenerate", "skipped"."""


@d.dataclass(frozen=True)
class PreimageContinuityReport:
    continuous: bool
    policy: str
    trace: tuple[PreimageEntry, ...]


def preimage_continuity(
    f: SoftFunction,
    domain_topology: SoftTopology,
    codomain_topology: SoftTopology,
    degenerate: str = "violation",
) -> PreimageContinuityReport:
    """Openness of every preimage, with a per-open trace.

    ``degenerate`` decides what a mixed preimage slice pattern means:
    "violation" fails the check, "skip" leaves that open out of the verdict.
    """
    _check_spaces(f, domain_topology, codomain_topology)
    if degenerate not in ("violation", "skip"):
        raise InputError(f"unknown degenerate policy: {degenerate!r}")
    trace: list[PreimageEntry] = []
    ok = True
    for i, v in enumerate(codomain_topology.members):
        w = preimage(f, v)
        if not is_admissible(w):
            if degenerate == "skip":
                trace.append(PreimageEntry(i, w, False, "skipped"))
            else:
                trace.append(PreimageEntry(i, w, False, "degenerate"))
                ok = False
            continue
        is_open = w in domain_topology.member_set
        trace.append(PreimageEntry(i, w, True, "open" if is_open else "not-open"))
        ok = ok and is_open
    return PreimageContinuityReport(ok, degenerate, trace)


def _check_spaces(
    f: SoftFunction, dt: SoftTopology, ct: SoftTopology
) -> None:
    if dt.universe != f.domain:
        raise PreconditionError("domain topology does not match the function")
    if ct.universe != f.codomain:
        raise PreconditionError("codomain topology does not match the function")
