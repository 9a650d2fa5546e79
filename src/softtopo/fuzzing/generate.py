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
    "HausdorffDraw",
    "all_spans",
    "close_subbase",
    "draw_subbase",
    "full_size",
    "gen_topology",
    "random_admissible",
    "trial_rng",
    "trial_seed",
    "universe_for",
]

# Pinned in every report so a reader can tell which derivation produced the
# per-trial streams.  Bump the suffix if the hashing scheme ever changes.
ALGORITHM_ID = "split-sha256/mt19937-v1"

# Redraw budgets.  Generation failures are deterministic in the config, so a
# modest budget either always suffices or always fails for a given seed.
# Separated draws keep a short budget: with two or more points only the
# all-admissible-sets topology is separated, so acceptance is rare and extra
# attempts mostly burn time before the guaranteed fallback.
_TOPOLOGY_REDRAWS = 20
_HAUSDORFF_ATTEMPTS = 2

# Largest full topology a separated draw may fall back to.  The fallback
# builds every admissible set, (2**points - 1)**params + 1 of them, so the
# budget bounds memory before any draw; 5x2 (962 members) fits, 7x2 does not.
_FULL_TOPOLOGY_BUDGET = 4096

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
        if self.trials < 0:
            raise InputError("trials must be non-negative")


@functools.lru_cache(maxsize=16)
def universe_for(config: GeneratorConfig) -> Universe:
    """Canonical generated universe: points x0..xN, parameters e0..eM.
    Every config of one shape gets the same object, so its draws, spans and
    fallbacks share one cached layout.  Cached per (frozen, hashable)
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


def _subbase_bits(rng: random.Random, universe: Universe, size: int) -> list[int]:
    """``size`` draws of ``_random_bits``, deduplicated, draw order kept."""
    return list(dict.fromkeys(_random_bits(rng, universe) for _ in range(size)))


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


@functools.lru_cache(maxsize=8)
def _span_bits(universe: Universe) -> tuple[int, ...]:
    """The bits of ``all_spans``, in the same order."""
    return tuple(s.bits for s in all_spans(universe))


def close_subbase(
    universe: Universe,
    subbase: t.Sequence[SoftSet],
    cap: int | None,
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
            if cap is not None and len(rows) >= cap:
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
                if cap is not None and len(rows) >= cap:
                    return None
                seen.add(w)
                rows.append(w)
            w = a & b
            if (w + full) & spare != spare:
                w = 0
            if w not in seen:
                if cap is not None and len(rows) >= cap:
                    return None
                seen.add(w)
                rows.append(w)
        i += 1
    return tuple(SoftSet(universe, row) for row in rows)


def draw_subbase(
    rng: random.Random, universe: Universe, size: int
) -> tuple[SoftSet, ...]:
    """``size`` random admissible sets, deduplicated, draw order kept."""
    return tuple(SoftSet(universe, p) for p in _subbase_bits(rng, universe, size))


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


@d.dataclass(frozen=True)
class HausdorffDraw:
    subbase: tuple[SoftSet, ...]
    topology: SoftTopology
    attempts: int
    sampled: bool  # False when the full-topology fallback was taken


def _closes_to_full(full: int, generators: t.Sequence[int]) -> bool:
    """Whether the raw ``|``/``&`` lattice generated by ``generators``,
    ``0`` and ``full`` is every subset of the layout bits of ``full``: the
    meet of the generators containing each bit is that bit alone.  See
    ``gen_hausdorff_with_stats`` for why this decides a full closure.
    """
    rest = full
    while rest:
        bit = rest & -rest
        rest ^= bit
        meet = full
        for g in generators:
            if g & bit:
                meet &= g
        if meet != bit:
            return False
    return True


def gen_hausdorff_with_stats(
    config: GeneratorConfig, rng: random.Random
) -> HausdorffDraw:
    """Rejection-sample a separated topology.

    Each attempt seeds the random subbase with a few single-element spans,
    which is what separation needs most.  After the attempt budget the draw
    falls back to the topology of all admissible sets (closure of every
    span); the fallback ignores ``max_topology`` so the draw stays total.
    Raises GenerationError, before any draw, for a universe whose full
    topology exceeds ``_FULL_TOPOLOGY_BUDGET`` members.

    With two or more points only the full topology is separated, so an
    attempt is decided from its generators ``G`` (subbase plus picked
    spans) before any closure is built: ``close_subbase(G)`` is the full
    topology exactly when, for every layout bit ``b``, the meet of the
    members of ``G`` containing ``b`` (starting from ``full``) is ``b``
    alone.  Only attempts that pass are closed, and each one that is
    closed is returned.

    Proof.  Let ``D`` be the set lattice on the layout bits generated by
    ``G`` together with ``0`` and ``full`` under raw ``|`` and ``&``.
    ``close_subbase(G)`` holds exactly the admissible members of ``D``
    plus ``0``.  It is inside ``D`` because collapse maps a value to itself
    or to ``0``, and ``0`` is in ``D``.  It holds every admissible ``C`` in
    ``D``: by distributivity ``C`` is a meet of unions of generators; each
    union is admissible and each partial meet contains ``C``, so no step
    collapses.  With two or more points every single bit is the raw meet
    of two spans (same point at its parameter, different points
    elsewhere), so the closure is full exactly when ``D`` is the whole
    power set.  By Birkhoff's representation of finite distributive
    lattices that holds exactly when the smallest member of ``D``
    containing each bit ``b``, the meet of the generators containing it,
    is ``{b}``.  At one point the closure is always full but the test can
    say no, so one-point draws keep closing every attempt.
    """
    universe = universe_for(config)
    size = full_size(universe)
    if size > _FULL_TOPOLOGY_BUDGET:
        raise GenerationError(
            f"separated draws at {config.points}x{config.params} may need the full "
            f"topology of {size} members, over the budget of {_FULL_TOPOLOGY_BUDGET}"
        )
    # Attempts draw and dedup bits.  ``rng.sample`` picks by index, so
    # sampling the span bits picks the same spans as sampling ``all_spans``.
    span_bits = _span_bits(universe)
    picks = min(len(span_bits), max(1, config.subbase_size))
    # With two or more points only the full topology is separated (covered
    # by a unit test), and one point always fits max_topology.  When the
    # full topology is over max_topology, close_subbase cannot return it,
    # so the attempts only draw, keeping the RNG stream, and the draw
    # falls back.
    closable = size <= config.max_topology
    full = universe.packing.full
    for attempt in range(1, _HAUSDORFF_ATTEMPTS + 1):
        base = _subbase_bits(rng, universe, config.subbase_size)
        picked = rng.sample(span_bits, picks)
        if not closable:
            continue
        base = list(dict.fromkeys(base + picked))
        if universe.n_points >= 2 and not _closes_to_full(full, base):
            continue
        # The attempt closes to the full topology, which fits max_topology
        # and is separated (at one point, {null, absolute} is the only
        # topology), so the closure needs no cap and no check.
        subbase = tuple(SoftSet(universe, p) for p in base)
        members = close_subbase(universe, subbase, None)
        return HausdorffDraw(subbase, SoftTopology.of(universe, members), attempt, True)
    return HausdorffDraw(
        all_spans(universe), full_topology(universe), _HAUSDORFF_ATTEMPTS, False
    )
