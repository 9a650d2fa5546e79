"""Seeded random universes, soft sets, and topologies.

Determinism contract: a run is a pure function of (seed, trial index).  Each
trial derives its own Mersenne Twister stream by hashing the master seed with
the trial index, so trials can run in any order or in parallel and still see
identical randomness.  Every random soft set comes from ``_random_bits``,
one slice draw per parameter; draws are made and deduplicated as ints,
and ``SoftSet``s are built only for what a caller receives or closes.
"""

from __future__ import annotations

import dataclasses as d
import functools
import hashlib
import random
import typing as t

from ..core import (
    _ELEMENT_BUDGET,
    SoftSet,
    Universe,
    full_set,
    is_admissible,
    iter_elements,
)
from ..errors import GenerationError, InputError, NotAdmissibleError
from ..topology import SoftTopology, full_topology

__all__ = [
    "ALGORITHM_ID",
    "GeneratorConfig",
    "all_spans",
    "close_subbase",
    "draw_subbase",
    "full_size",
    "gen_hausdorff",
    "gen_topology",
    "random_admissible",
    "trial_rng",
    "trial_seed",
    "universe_for",
]

# Pinned in every report so a reader can tell which derivation produced the
# per-trial streams.  Bump the suffix if the hashing scheme ever changes.
ALGORITHM_ID = "split-sha256/mt19937-v2"

# Redraw budget.  Generation failures are deterministic in the config, so a
# modest budget either always suffices or always fails for a given seed.
_TOPOLOGY_REDRAWS = 20

# Largest full topology a separated draw may build.  It holds every
# admissible set, (2**points - 1)**params + 1 of them, so the budget bounds
# memory before anything is built; 5x2 (962 members) fits, 7x2 does not.
# It also bounds ``subbase_size`` and ``max_topology``: draws and closures
# allocate in proportion to them.
_FULL_TOPOLOGY_BUDGET = 4096

# Most trials one run may ask for.  A run keeps every counterexample record,
# document included, until its report is written, so memory grows with the
# trial count.
_TRIAL_BUDGET = 100_000

@d.dataclass(frozen=True)
class GeneratorConfig:
    points: int
    params: int
    seed: int
    subbase_size: int = 3
    max_topology: int = 512
    trials: int = 100

    def __post_init__(self) -> None:
        if self.points < 1:
            raise InputError("points must be at least 1")
        if self.params < 1:
            raise InputError("params must be at least 1")
        # Bound each side first so the power below stays small; the check
        # runs before ``universe_for`` builds any name.
        if (
            max(self.points, self.params) > _ELEMENT_BUDGET
            or self.points**self.params > _ELEMENT_BUDGET
        ):
            raise InputError(
                f"a {self.points}x{self.params} universe is over the budget: points, "
                f"params and points ** params must each be at most {_ELEMENT_BUDGET}"
            )
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must fit in 64 bits")
        if self.subbase_size < 0:
            raise InputError("subbase_size must be non-negative")
        if self.max_topology < 2:
            raise InputError("max_topology must allow the two mandatory members")
        if max(self.subbase_size, self.max_topology) > _FULL_TOPOLOGY_BUDGET:
            raise InputError(
                f"subbase_size and max_topology must each be at most {_FULL_TOPOLOGY_BUDGET}"
            )
        if self.trials < 0:
            raise InputError("trials must be non-negative")
        if self.trials > _TRIAL_BUDGET:
            raise InputError(f"trials must be at most {_TRIAL_BUDGET}")


@functools.lru_cache(maxsize=16)
def universe_for(config: GeneratorConfig) -> Universe:
    """Canonical generated universe: points x0..xN, parameters e0..eM.
    Every config of one shape gets the same object, so its draws, spans and
    full topology share one cached layout.  Cached per (frozen, hashable)
    config, so the draws of one run do not rebuild the name lists."""
    return Universe.of(
        [f"x{i}" for i in range(config.points)], [f"e{k}" for k in range(config.params)]
    )


def trial_seed(seed: int, index: int) -> int:
    """64-bit stream seed for one trial, split off the master seed."""
    digest = hashlib.sha256(f"softtopo:{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def trial_rng(config: GeneratorConfig, index: int) -> random.Random:
    return random.Random(trial_seed(config.seed, index))


def _random_bits(rng: random.Random, universe: Universe) -> int:
    """Bits of a uniformly random soft set with every slice nonempty: one
    slice per parameter, in parameter order.  Every random set of the
    generator comes from here, so this fixes the stream the pinned report
    digests depend on.

    Each slice is ``rng.randrange(1, full + 1)`` drawn the way CPython 3.10
    to 3.13 draws it, ``1 + _randbelow(full)``: ``getrandbits(n_points)``,
    redrawn while it is ``full``, plus one.
    """
    full, width, n = universe.full_mask, universe.packing.width, universe.n_points
    getrandbits = rng.getrandbits
    bits = 0
    for k in range(universe.n_params):
        r = getrandbits(n)
        while r == full:
            r = getrandbits(n)
        bits |= (r + 1) << k * width
    return bits


def random_admissible(rng: random.Random, universe: Universe) -> SoftSet:
    """A uniformly random soft set with every slice nonempty."""
    return SoftSet(universe, _random_bits(rng, universe))


def full_size(universe: Universe) -> int:
    """Member count of the topology containing every admissible set."""
    return (2**universe.n_points - 1) ** universe.n_params + 1


@functools.lru_cache(maxsize=8)
def all_spans(universe: Universe) -> tuple[SoftSet, ...]:
    """Single-element spans in lexicographic element order.  Cached like
    ``full_topology``; the tuple holds frozen sets, so sharing it is safe."""
    return tuple(SoftSet(universe, x.bits) for x in iter_elements(full_set(universe)))


def close_subbase(
    universe: Universe,
    subbase: t.Sequence[SoftSet],
    cap: int,
) -> tuple[SoftSet, ...] | None:
    """Smallest member list containing the subbase and closed under both
    elementary binary operations.  Returns None once the list would exceed
    ``cap``.  Order is deterministic: mandatory members, subbase in given
    order, then derived sets in discovery order.
    """
    packing = universe.packing
    # Work on set bits.  Every member is admissible (checked below), so
    # union never needs collapsing and meet collapses exactly when some
    # slice empties; this matches the elementary operations bit for bit.
    rows: list[int] = [0, packing.full]
    seen = set(rows)
    for s in subbase:
        if s.universe != universe:
            raise InputError("subbase entry from a different universe")
        if not is_admissible(s):
            raise NotAdmissibleError(f"subbase: inadmissible generator {s!r}")
        p = s.bits
        if p not in seen:
            if len(rows) >= cap:
                return None
            seen.add(p)
            rows.append(p)
    # The hot loop, with ``Packing.collapse`` inlined as its spare-bit test.
    # A row paired with row 0 (null), row 1 (the absolute) or itself gives
    # back 0, the absolute or itself, so it meets only the rows from 2 up
    # to it.
    full, spare = packing.full, packing.spare
    i = 2
    while i < len(rows):
        a = rows[i]
        for b in rows[2:i]:
            w = a | b
            if w not in seen:
                if len(rows) >= cap:
                    return None
                seen.add(w)
                rows.append(w)
            w = a & b
            if (w + full) & spare != spare:
                w = 0
            if w not in seen:
                if len(rows) >= cap:
                    return None
                seen.add(w)
                rows.append(w)
        i += 1
    # Each row is 0, the absolute, a checked generator, or a union or
    # collapsed meet of rows, so it lies inside the layout.
    return tuple(SoftSet.unchecked(universe, row) for row in rows)


def draw_subbase(
    rng: random.Random, universe: Universe, size: int
) -> tuple[SoftSet, ...]:
    """``size`` random admissible sets, deduplicated, draw order kept."""
    bits = dict.fromkeys(_random_bits(rng, universe) for _ in range(size))
    return tuple(SoftSet(universe, p) for p in bits)


def gen_topology_with_subbase(
    config: GeneratorConfig, rng: random.Random
) -> tuple[tuple[SoftSet, ...], SoftTopology]:
    """Random topology as (subbase, closure).  Redraws when the closure
    blows past ``max_topology``; fails only if every redraw does.
    """
    universe = universe_for(config)
    for _ in range(_TOPOLOGY_REDRAWS):
        subbase = draw_subbase(rng, universe, config.subbase_size)
        members = close_subbase(universe, subbase, config.max_topology)
        if members is not None:
            return subbase, SoftTopology.of(universe, members)
    raise GenerationError(
        f"no subbase of size {config.subbase_size} closed under "
        f"{config.max_topology} members after {_TOPOLOGY_REDRAWS} redraws; "
        "raise max_topology or shrink the universe"
    )


def gen_topology(config: GeneratorConfig, rng: random.Random | None = None) -> SoftTopology:
    if rng is None:
        rng = trial_rng(config, 0)
    return gen_topology_with_subbase(config, rng)[1]


def gen_hausdorff(config: GeneratorConfig) -> tuple[tuple[SoftSet, ...], SoftTopology]:
    """The separated topology as (subbase, topology): every single-element
    span and the topology of all admissible sets.  It draws no randomness
    and ignores ``max_topology``.  Raises GenerationError for a universe
    whose full topology exceeds ``_FULL_TOPOLOGY_BUDGET`` members.

    It is the only separated topology: with two or more points a space is
    separated exactly when it is the full topology, and with one point
    ``{null, absolute}`` is the only topology (FINDINGS.md).  The spans
    close to it, so shrinking can re-close smaller subbases.
    """
    universe = universe_for(config)
    size = full_size(universe)
    if size > _FULL_TOPOLOGY_BUDGET:
        raise GenerationError(
            f"separated draws at {config.points}x{config.params} may need the full "
            f"topology of {size} members, over the budget of {_FULL_TOPOLOGY_BUDGET}"
        )
    return all_spans(universe), full_topology(universe)
