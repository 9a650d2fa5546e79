"""The checkable statement registry.

Each case is a hypothesis/conclusion pair over a generated instance.  Both
predicates are pure functions of the instance, so a persisted counterexample
can be re-verified after a round trip and every shrink candidate can be
re-gated from scratch.  A trial whose hypothesis fails is skipped, never
counted as evidence.
"""

from __future__ import annotations

import dataclasses as d
import random
import typing as t

from ..baire import is_baire, is_baire_by_nowhere_dense, is_locally_compact
from ..compactness import (
    fip_witness,
    is_closed_null_family,
    is_compact_set,
    is_compact_space,
    is_nonnull_closed_chain,
    nested_intersection_check,
)
from ..core import (
    SoftSet,
    element_count,
    elementary_complement,
    elementary_intersection,
    elementary_intersection_family,
    elementary_union,
    is_null,
    is_soft_subset,
    null_set,
)
from ..maps import SoftFunction, definitional_continuity, image, preimage_continuity
from ..separation import is_hausdorff, is_normal, is_regular
from ..subspace import build_subspace, carrier_set, check_subspace_preconditions
from ..topology import (
    admissible_meets,
    is_closed,
    limiting_elements,
    nonnull_closed_sets,
    violations_of,
)
from .generate import (
    GeneratorConfig,
    gen_hausdorff,
    gen_topology_with_subbase,
    random_admissible,
)
from .instances import Instance
from .oracles import (
    complement_via_elements,
    intersection_via_elements,
    union_via_elements,
)

__all__ = ["REGISTRY", "TheoremCase"]


@d.dataclass(frozen=True)
class TheoremCase:
    case_id: str
    description: str
    build: t.Callable[[GeneratorConfig, random.Random], Instance]
    hypothesis: t.Callable[[Instance], bool]
    conclusion: t.Callable[[Instance], bool]


def is_infinite_soft_set(f: SoftSet) -> bool:
    """Whether the set has infinitely many soft elements.

    Over the finite universes this package works with, the element count is
    always a finite integer, so the detector can only answer False.  It
    exists to keep the infinite-case hypothesis honestly evaluable rather
    than silently dropped.
    """
    return element_count(f) == float("inf")


# --- builders ---------------------------------------------------------------


def _build_topology(config: GeneratorConfig, rng: random.Random) -> Instance:
    subbase, topo = gen_topology_with_subbase(config, rng)
    return Instance(topo.universe, subbase, topo, {})


def _build_hausdorff(config: GeneratorConfig, rng: random.Random) -> Instance:
    """Takes ``rng`` like every builder; the separated draw uses none of it."""
    subbase, topo = gen_hausdorff(config)
    return Instance(topo.universe, subbase, topo, {})


def _random_carrier(rng: random.Random, inst: Instance, proper: bool) -> tuple[str, ...]:
    points = inst.universe.points
    upper = len(points) - 1 if proper and len(points) > 1 else len(points)
    size = rng.randrange(1, upper + 1)
    chosen = set(rng.sample(range(len(points)), size))
    return tuple(p for i, p in enumerate(points) if i in chosen)


def _random_subset(rng: random.Random, k: SoftSet) -> SoftSet:
    """Random admissible soft subset of an admissible nonnull set."""
    slices = []
    for m in k.slices:
        kept = 0
        for i in range(k.universe.n_points):
            if m >> i & 1 and rng.random() < 0.5:
                kept |= 1 << i
        if kept == 0:
            bits = [i for i in range(k.universe.n_points) if m >> i & 1]
            kept = 1 << rng.choice(bits)
        slices.append(kept)
    return SoftSet.of(k.universe, slices)


def _maybe_null(rng: random.Random, inst_universe) -> SoftSet:
    if rng.random() < 0.1:
        return null_set(inst_universe)
    return random_admissible(rng, inst_universe)


def _build_carrier_case(proper: bool, hausdorff: bool):
    def build(config: GeneratorConfig, rng: random.Random) -> Instance:
        base = (_build_hausdorff if hausdorff else _build_topology)(config, rng)
        return d.replace(base, aux={"carrier": _random_carrier(rng, base, proper)})

    return build


def _build_with_set(hausdorff: bool):
    def build(config: GeneratorConfig, rng: random.Random) -> Instance:
        base = (_build_hausdorff if hausdorff else _build_topology)(config, rng)
        return d.replace(base, aux={"set": random_admissible(rng, base.universe)})

    return build


def _build_set_in_compact(config: GeneratorConfig, rng: random.Random) -> Instance:
    base = _build_hausdorff(config, rng)
    k = random_admissible(rng, base.universe)
    return d.replace(base, aux={"sets": (_random_subset(rng, k), k)})


def _build_two_sets(config: GeneratorConfig, rng: random.Random) -> Instance:
    base = _build_hausdorff(config, rng)
    u = base.universe
    return d.replace(base, aux={"sets": (random_admissible(rng, u), random_admissible(rng, u))})


def _build_compact_family(config: GeneratorConfig, rng: random.Random) -> Instance:
    base = _build_hausdorff(config, rng)
    count = rng.randrange(2, 4)
    sets = tuple(random_admissible(rng, base.universe) for _ in range(count))
    return d.replace(base, aux={"sets": sets})


def _build_closed_null_family(config: GeneratorConfig, rng: random.Random) -> Instance:
    base = _build_topology(config, rng)
    pool = nonnull_closed_sets(base.topology)
    for _ in range(8):
        size = rng.randrange(2, min(5, len(pool)) + 1) if len(pool) >= 2 else 1
        family = tuple(pool[i] for i in sorted(rng.sample(range(len(pool)), size)))
        if is_null(elementary_intersection_family(base.topology.universe, family)):
            break
    return d.replace(base, aux={"sets": family})


def _build_closed_chain(config: GeneratorConfig, rng: random.Random) -> Instance:
    base = _build_hausdorff(config, rng)
    pool = nonnull_closed_sets(base.topology)
    current = pool[rng.randrange(len(pool))]
    chain = [current]
    for _ in range(rng.randrange(0, 3)):
        outside = ~current.bits
        nested = [c for c in pool if not c.bits & outside]
        current = nested[rng.randrange(len(nested))]
        chain.append(current)
    return d.replace(base, aux={"sets": tuple(chain)})


def _random_function(rng: random.Random, universe) -> SoftFunction:
    maps = tuple(
        tuple(rng.randrange(universe.n_points) for _ in range(universe.n_points))
        for _ in range(universe.n_params)
    )
    return SoftFunction(universe, universe, maps)


def _build_map_case(hausdorff: bool, with_set: bool):
    def build(config: GeneratorConfig, rng: random.Random) -> Instance:
        draw = _build_hausdorff if hausdorff else _build_topology
        base = draw(config, rng)
        cod = draw(config, rng)
        aux: dict[str, t.Any] = {
            "function": _random_function(rng, base.universe),
            "codomain_subbase": cod.subbase,
            "codomain": cod.topology,
        }
        if with_set:
            aux["set"] = random_admissible(rng, base.universe)
        return d.replace(base, aux=aux)

    return build


def _build_op_pair(config: GeneratorConfig, rng: random.Random) -> Instance:
    base = _build_topology(config, rng)
    u = base.universe
    return d.replace(base, aux={"sets": (_maybe_null(rng, u), _maybe_null(rng, u))})


# --- shared predicate pieces -------------------------------------------------


def _hausdorff(inst: Instance) -> bool:
    return is_hausdorff(inst.topology).holds


def _side_condition(inst: Instance) -> bool:
    return admissible_meets(inst.topology)


def _carrier_of(inst: Instance) -> SoftSet:
    return carrier_set(inst.universe, inst.aux["carrier"])


def _preconditions_ok(inst: Instance) -> bool:
    return check_subspace_preconditions(inst.topology, _carrier_of(inst)).satisfied


def _limiting_conclusion(inst: Instance) -> bool:
    topo, f = inst.topology, inst.aux["set"]
    collapse = topo.universe.packing.collapse
    for x in limiting_elements(topo, f):
        xb = x.bits
        for g in topo.packed:
            # The elementary meet is admissible or null: it has an element
            # other than x unless it is null or the span of x alone.
            if not xb & ~g and collapse(f.bits & g) in (0, xb):
                return False
    return True


def _ops_agree(inst: Instance) -> bool:
    f, g = inst.aux["sets"]
    return (
        elementary_union(f, g) == union_via_elements(f, g)
        and elementary_intersection(f, g) == intersection_via_elements(f, g)
        and elementary_complement(f) == complement_via_elements(f)
        and elementary_complement(g) == complement_via_elements(g)
    )


def _continuity_hypothesis(inst: Instance) -> bool:
    fn = inst.aux["function"]
    cod = inst.aux["codomain"]
    return (
        _hausdorff(inst)
        and is_hausdorff(cod).holds
        and definitional_continuity(fn, inst.topology, cod).continuous
        and is_compact_set(inst.topology, inst.aux["set"]).compact
    )


def _criteria_agree(inst: Instance) -> bool:
    fn = inst.aux["function"]
    cod = inst.aux["codomain"]
    a = definitional_continuity(fn, inst.topology, cod).continuous
    b = preimage_continuity(fn, inst.topology, cod).continuous
    return a == b


# --- the registry ------------------------------------------------------------

REGISTRY: dict[str, TheoremCase] = {}


def _case(case_id, description, build, hypothesis, conclusion) -> None:
    REGISTRY[case_id] = TheoremCase(case_id, description, build, hypothesis, conclusion)


_case(
    "thm_3_1_constructive",
    "trace families satisfying both preconditions verify as topologies",
    _build_carrier_case(proper=False, hausdorff=False),
    _preconditions_ok,
    lambda inst: next(
        violations_of(build_subspace(inst.topology, inst.aux["carrier"]).topology), None
    ) is None,
)

_case(
    "lem_3_1",
    "near every limiting element, every containing open meets the set elsewhere",
    _build_with_set(hausdorff=False),
    lambda inst: len(limiting_elements(inst.topology, inst.aux["set"])) > 0,
    _limiting_conclusion,
)

_case(
    "hausdorff_heredity",
    "subspaces of separated spaces stay separated",
    _build_carrier_case(proper=False, hausdorff=True),
    lambda inst: _hausdorff(inst) and _preconditions_ok(inst),
    lambda inst: is_hausdorff(
        build_subspace(inst.topology, inst.aux["carrier"]).topology
    ).holds,
)

_case(
    "thm_4_1",
    "closed families with empty joint meet admit a finite empty-meet subfamily",
    _build_closed_null_family,
    lambda inst: is_closed_null_family(inst.topology, inst.aux["sets"]),
    lambda inst: is_null(
        elementary_intersection_family(
            inst.universe,
            [inst.aux["sets"][i] for i in fip_witness(inst.topology, inst.aux["sets"])],
        )
    ),
)

_case(
    "thm_4_2",
    "decreasing nonempty closed chains in compact spaces have nonempty meet",
    _build_closed_chain,
    lambda inst: is_compact_space(inst.topology).compact
    and is_nonnull_closed_chain(inst.topology, inst.aux["sets"]),
    lambda inst: nested_intersection_check(inst.topology, inst.aux["sets"]),
)

_case(
    "thm_4_3",
    "compact proper subspaces of separated spaces give compact carrier sets",
    _build_carrier_case(proper=True, hausdorff=True),
    lambda inst: _hausdorff(inst)
    and _carrier_of(inst) != inst.topology.absolute
    and _preconditions_ok(inst)
    and is_compact_space(
        build_subspace(inst.topology, inst.aux["carrier"]).topology
    ).compact,
    lambda inst: is_compact_set(inst.topology, _carrier_of(inst)).compact,
)

_case(
    "thm_4_4",
    "compact sets in separated spaces with admissible pairwise meets are closed",
    _build_with_set(hausdorff=True),
    lambda inst: _hausdorff(inst)
    and _side_condition(inst)
    and is_compact_set(inst.topology, inst.aux["set"]).compact,
    lambda inst: is_closed(inst.topology, inst.aux["set"]),
)

_case(
    "thm_4_5",
    "closed subsets of compact sets are compact",
    _build_set_in_compact,
    lambda inst: _hausdorff(inst)
    and is_closed(inst.topology, inst.aux["sets"][0])
    and is_soft_subset(inst.aux["sets"][0], inst.aux["sets"][1])
    and is_compact_set(inst.topology, inst.aux["sets"][1]).compact,
    lambda inst: is_compact_set(inst.topology, inst.aux["sets"][0]).compact,
)

_case(
    "prop_4_1a",
    "the elementary union of two compact sets is compact",
    _build_two_sets,
    lambda inst: _hausdorff(inst)
    and all(is_compact_set(inst.topology, k).compact for k in inst.aux["sets"]),
    lambda inst: is_compact_set(
        inst.topology, elementary_union(*inst.aux["sets"])
    ).compact,
)

_case(
    "prop_4_1b",
    "meets of compact families are compact when pairwise meets stay admissible",
    _build_compact_family,
    lambda inst: _hausdorff(inst)
    and _side_condition(inst)
    and all(is_compact_set(inst.topology, k).compact for k in inst.aux["sets"]),
    lambda inst: is_compact_set(
        inst.topology,
        elementary_intersection_family(inst.universe, inst.aux["sets"]),
    ).compact,
)

_case(
    "thm_4_6_vacuity",
    "infinite subsets of compact sets have a limiting element (vacuous here)",
    _build_set_in_compact,
    lambda inst: _hausdorff(inst)
    and is_compact_set(inst.topology, inst.aux["sets"][1]).compact
    and is_soft_subset(inst.aux["sets"][0], inst.aux["sets"][1])
    and is_infinite_soft_set(inst.aux["sets"][0]),
    lambda inst: len(limiting_elements(inst.topology, inst.aux["sets"][0])) > 0,
)

_case(
    "thm_4_7",
    "compact separated spaces are regular",
    _build_hausdorff,
    lambda inst: is_compact_space(inst.topology).compact,
    lambda inst: is_regular(inst.topology).holds,
)

_case(
    "thm_4_8",
    "compact separated spaces are normal",
    _build_hausdorff,
    lambda inst: is_compact_space(inst.topology).compact,
    lambda inst: is_normal(inst.topology).holds,
)

_case(
    "prop_6_1",
    "continuous images of compact sets are compact",
    _build_map_case(hausdorff=True, with_set=True),
    _continuity_hypothesis,
    lambda inst: is_compact_set(
        inst.aux["codomain"], image(inst.aux["function"], inst.aux["set"])
    ).compact,
)

_case(
    "continuity_criteria_agree",
    "elementwise and preimage continuity give one verdict",
    _build_map_case(hausdorff=False, with_set=False),
    lambda inst: True,
    _criteria_agree,
)

_case(
    "thm_5_1",
    "locally compact separated spaces with admissible pairwise meets are Baire",
    _build_hausdorff,
    lambda inst: _hausdorff(inst)
    and _side_condition(inst)
    and is_locally_compact(inst.topology).holds,
    lambda inst: is_baire(inst.topology).baire,
)

_case(
    "baire_definitions_agree",
    "the meager-union and nowhere-dense-union Baire readings agree",
    _build_topology,
    lambda inst: True,
    lambda inst: is_baire(inst.topology).baire
    == is_baire_by_nowhere_dense(inst.topology),
)

_case(
    "elementary_op_oracle",
    "slice-wise elementary operations match element materialization",
    _build_op_pair,
    lambda inst: True,
    _ops_agree,
)
