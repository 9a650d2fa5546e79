"""Fuzz instances: a generated topology plus case-specific extras, with
document-backed serialization and the syntactic mutations used by shrinking.

An instance always keeps the subbase it was closed from, because shrinking
works on the subbase and re-closes; mutating the member list directly could
produce something that is not a topology at all.
"""

from __future__ import annotations

import dataclasses as d
import typing as t

from ..core import SoftSet, Universe, full_set, is_admissible, is_null, null_set
from ..document import SpaceDocument, resolve_set, serialize
from ..errors import DocumentError
from ..maps import SoftFunction
from ..topology import SoftTopology
from .generate import GeneratorConfig, close_subbase

__all__ = [
    "Instance",
    "candidate_mutations",
    "from_document",
    "instance_document",
    "instance_size",
    "to_text",
]

@d.dataclass(frozen=True, eq=False)
class Instance:
    universe: Universe
    subbase: tuple[SoftSet, ...]
    topology: SoftTopology
    aux: dict[str, t.Any] = d.field(default_factory=dict)
    """Case-specific extras: "set" a SoftSet, "sets" a tuple of SoftSet,
    "carrier" a tuple of point names, "function" a SoftFunction over one
    shared universe, "codomain_subbase" a tuple of SoftSet, "codomain" a
    SoftTopology over the same universe."""


def instance_size(inst: Instance) -> tuple[int, int]:
    """Well-founded shrink measure; every mutation strictly decreases it."""
    return (inst.universe.n_points + inst.universe.n_params, len(inst.subbase))


# --- serialization ----------------------------------------------------------


class _Namer:
    """Stable names for set values; reserved names for the two constants."""

    def __init__(self, universe: Universe) -> None:
        self.sets: dict[str, SoftSet] = {}
        self._names: dict[SoftSet, str] = {
            null_set(universe): "PHI",
            full_set(universe): "ABS",
        }

    def name(self, value: SoftSet, prefix: str, index: int) -> str:
        existing = self._names.get(value)
        if existing is not None:
            return existing
        name = f"{prefix}{index}"
        while name in self.sets:
            name += "x"
        self._names[value] = name
        self.sets[name] = value
        return name

    def name_all(self, values: t.Iterable[SoftSet], prefix: str) -> list[str]:
        return [self.name(v, prefix, i) for i, v in enumerate(values)]


def instance_document(
    inst: Instance, fuzz: dict[str, t.Any] | None = None
) -> SpaceDocument:
    """Encode as a space document; fuzz metadata rides in the "fuzz" block."""
    namer = _Namer(inst.universe)
    aux_block: dict[str, t.Any] = {}
    functions: dict[str, dict[str, dict[str, str]]] = {}

    subbase_names = namer.name_all(inst.subbase, "S")
    if "set" in inst.aux:
        aux_block["set"] = namer.name(inst.aux["set"], "F", 0)
    if "sets" in inst.aux:
        aux_block["sets"] = namer.name_all(inst.aux["sets"], "K")
    if "carrier" in inst.aux:
        aux_block["carrier"] = list(inst.aux["carrier"])
    if "codomain_subbase" in inst.aux:
        aux_block["codomain_subbase"] = namer.name_all(
            inst.aux["codomain_subbase"], "T"
        )
    if "codomain" in inst.aux:
        aux_block["codomain_topology"] = namer.name_all(
            inst.aux["codomain"].members, "N"
        )
    if "function" in inst.aux:
        fn: SoftFunction = inst.aux["function"]
        functions["f"] = {
            param: {
                inst.universe.points[i]: fn.codomain.points[v]
                for i, v in enumerate(pm)
            }
            for param, pm in zip(inst.universe.params, fn.point_maps)
        }
        aux_block["function"] = "f"

    topology_names = tuple(namer.name_all(inst.topology.members, "M"))

    block = dict(fuzz or {})
    block["subbase"] = subbase_names
    if aux_block:
        block["aux"] = aux_block

    return SpaceDocument(
        universe=inst.universe,
        sets=namer.sets,
        absolute_name=None,
        topology_names=topology_names,
        topology=inst.topology,
        functions=functions,
        elements={},
        extras={"fuzz": block},
    )


def to_text(inst: Instance, fuzz: dict[str, t.Any] | None = None) -> str:
    return serialize(instance_document(inst, fuzz))


def from_document(doc: SpaceDocument) -> Instance:
    """Rebuild an instance from a document produced by instance_document."""
    block = doc.extras.get("fuzz")
    if not isinstance(block, dict) or "subbase" not in block:
        raise DocumentError([("$.fuzz", "missing fuzz block with subbase")])
    if doc.topology is None:
        raise DocumentError([("$.topology", "fuzz instances carry a topology")])
    subbase = tuple(resolve_set(doc, n) for n in block["subbase"])
    aux: dict[str, t.Any] = {}
    raw_aux = block.get("aux", {})
    if "set" in raw_aux:
        aux["set"] = resolve_set(doc, raw_aux["set"])
    if "sets" in raw_aux:
        aux["sets"] = tuple(resolve_set(doc, n) for n in raw_aux["sets"])
    if "carrier" in raw_aux:
        aux["carrier"] = tuple(raw_aux["carrier"])
    if "codomain_subbase" in raw_aux:
        aux["codomain_subbase"] = tuple(
            resolve_set(doc, n) for n in raw_aux["codomain_subbase"]
        )
    if "codomain_topology" in raw_aux:
        members = tuple(resolve_set(doc, n) for n in raw_aux["codomain_topology"])
        aux["codomain"] = SoftTopology.of(doc.universe, members)
    if "function" in raw_aux:
        aux["function"] = SoftFunction.from_names(
            doc.universe, doc.universe, doc.functions[raw_aux["function"]]
        )
    return Instance(doc.universe, subbase, doc.topology, aux)


# --- mutations --------------------------------------------------------------


def _drop_bit(mask: int, index: int) -> int:
    low = mask & ((1 << index) - 1)
    return low | ((mask >> (index + 1)) << index)


_Maps = tuple[tuple[int, ...], ...]
"""``SoftFunction.point_maps``: one codomain index per point, per parameter."""


def _omit(items: tuple, index: int) -> tuple:
    return items[:index] + items[index + 1 :]


def _rebuild(
    universe: Universe,
    subbase: t.Sequence[SoftSet],
    aux: dict[str, t.Any],
    cap: int,
) -> Instance | None:
    members = close_subbase(universe, subbase, cap)
    if members is None:
        return None
    if "codomain_subbase" in aux:
        cod = close_subbase(universe, aux["codomain_subbase"], cap)
        if cod is None:
            return None
        aux = dict(aux)
        aux["codomain"] = SoftTopology.of(universe, cod)
    return Instance(universe, tuple(subbase), SoftTopology.of(universe, members), aux)


def _without_generator(inst: Instance, i: int, cap: int) -> Instance | None:
    return _rebuild(inst.universe, _omit(inst.subbase, i), dict(inst.aux), cap)


def _projected(
    inst: Instance,
    universe: Universe,
    project: t.Callable[[SoftSet], SoftSet],
    carrier: t.Callable[[tuple[str, ...]], tuple[str, ...]],
    function: t.Callable[[_Maps], _Maps | None],
    cap: int,
) -> Instance | None:
    """The instance moved onto the smaller ``universe``: sets through
    ``project``, the carrier's names through ``carrier`` and the point maps
    through ``function``.  Generators keep only their admissible nonnull
    projections, once each.  None when a ``set``/``sets`` entry projects to
    an inadmissible set, the carrier empties, ``function`` returns None, an
    aux key is unknown, or a closure passes ``cap``."""

    def generators(sets: t.Iterable[SoftSet]) -> tuple[SoftSet, ...]:
        return tuple(dict.fromkeys(
            p for p in map(project, sets) if is_admissible(p) and not is_null(p)
        ))

    aux: dict[str, t.Any] = {}
    for key, value in inst.aux.items():
        if key in ("set", "sets"):
            sets = tuple(map(project, (value,) if key == "set" else value))
            if not all(map(is_admissible, sets)):
                return None
            aux[key] = sets[0] if key == "set" else sets
        elif key == "carrier":
            aux[key] = carrier(value)
            if not aux[key]:
                return None
        elif key == "codomain_subbase":
            aux[key] = generators(value)
        elif key == "function":
            maps = function(value.point_maps)
            if maps is None:
                return None
            aux[key] = SoftFunction(universe, universe, maps)
        elif key != "codomain":  # rebuilt from codomain_subbase
            return None
    return _rebuild(universe, generators(inst.subbase), aux, cap)


def _without_point(inst: Instance, index: int, cap: int) -> Instance | None:
    old = inst.universe
    if old.n_points < 2:
        return None
    universe = Universe.of(_omit(old.points, index), old.params)
    dropped = old.points[index]

    def maps(point_maps: _Maps) -> _Maps | None:
        rows = []
        for pm in point_maps:
            kept = _omit(pm, index)
            if index in kept:
                return None  # a surviving point maps into the hole
            rows.append(tuple(v - 1 if v > index else v for v in kept))
        return tuple(rows)

    return _projected(
        inst,
        universe,
        lambda s: SoftSet.of(universe, (_drop_bit(m, index) for m in s.slices)),
        lambda names: tuple(n for n in names if n != dropped),
        maps,
        cap,
    )


def _without_param(inst: Instance, index: int, cap: int) -> Instance | None:
    """Dropping a slice maps admissible sets to admissible sets, so the
    shared admissibility checks only ever refuse inadmissible input."""
    old = inst.universe
    if old.n_params < 2:
        return None
    universe = Universe.of(old.points, _omit(old.params, index))
    return _projected(
        inst,
        universe,
        lambda s: SoftSet.of(universe, _omit(s.slices, index)),
        lambda names: names,
        lambda point_maps: _omit(point_maps, index),
        cap,
    )


def candidate_mutations(
    inst: Instance, config: GeneratorConfig
) -> t.Iterator[tuple[str, Instance]]:
    """All one-step reductions, cheapest axis first: drop a subbase
    generator, then a point, then a parameter.  Candidates that cannot be
    rebuilt (closure cap, emptied carrier, unmappable function) are skipped
    here; the semantic gate is the caller's job.
    """
    cap = config.max_topology
    for i in range(len(inst.subbase)):
        cand = _without_generator(inst, i, cap)
        if cand is not None:
            yield f"drop-generator:{i}", cand
    for index, name in enumerate(inst.universe.points):
        cand = _without_point(inst, index, cap)
        if cand is not None:
            yield f"drop-point:{name}", cand
    for index, name in enumerate(inst.universe.params):
        cand = _without_param(inst, index, cap)
        if cand is not None:
            yield f"drop-param:{name}", cand
