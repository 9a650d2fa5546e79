"""Spans around the public functions of every ``softtopo`` module.

The tracer rebinds every ``softtopo.*`` module attribute that holds a public
function defined in that package, because callers import with
``from .core import X`` and so hold their own reference.  The registry's
case callables are wrapped the same way.  Each span records its name, start,
end, parent span and the run id; self time is duration minus the time of
child spans.  Spans stay in memory and go to a sidecar file at the end.
Times come out in reference seconds (see speed.py): raw seconds over the
round's slowdown.  The wrapper's own cost, measured per call in reference
seconds before the round by ``Tracer.calibrate``, is taken out of every self
and total time and reported as ``trace.overhead_s``.

``core`` operations are counted and timed like every other layer, but are not
stored as individual spans: one check of the 962-member topology makes about
a million of them.

Metrics are aggregated per module, so renaming or deleting an internal
helper does not break the benchmark.  A named function that is missing is
reported on stderr and its metrics read 0.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import statistics
import sys
import time
import typing as t
import weakref

import speed

LAYERS = (
    "core", "topology", "separation", "compactness", "baire", "subspace",
    "maps", "document", "cli", "fuzzing.generate", "fuzzing.registry",
    "fuzzing.instances", "fuzzing.shrink", "fuzzing.harness",
)
KERNELS = (
    "topology.closed_sets", "topology.containing_masks",
    "topology.pointwise_disjoint_masks", "topology.elementary_disjoint_masks",
    "topology.pairwise_admissible_violations", "topology.closure",
    "topology.interior", "topology.space_elements",
)
CLOSE_SUBBASE = "fuzzing.generate.close_subbase"
MINIMAL_SUBCOVER = "compactness.minimal_subcover"
VERIFY = "topology.verify_topology"
PARSE = "document.parse"
TO_PAYLOAD = "document.to_payload"
RUN_THEOREM = "fuzzing.harness.run_theorem"
SHRINK = "fuzzing.shrink.shrink_instance"
STILL_FALSIFIES = "fuzzing.shrink.still_falsifies"
STAGES = ("build", "hypothesis", "conclusion")
NAMED = (CLOSE_SUBBASE, MINIMAL_SUBCOVER, VERIFY, PARSE, TO_PAYLOAD, RUN_THEOREM,
         SHRINK, STILL_FALSIFIES, "cli.main") + KERNELS


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # per name: calls, raw seconds, and the wrapper's cost inside them
        # in reference seconds
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.total_cost: list[float] = []
        self.self_cost: list[float] = []
        # (index, name id, start, end, parent index or -1)
        self.spans: list[tuple[int, int, float, float, int]] = []
        self._next_index = 0
        # Per-depth slots of the open spans, preallocated so that a call
        # allocates no container; depth 0 stands for no span.  For each: name
        # id, nearest stored span index, raw seconds of child spans, wrapper
        # cost charged to it and wrapper cost inside it.
        slots = sys.getrecursionlimit() + 2
        self._depth = [0]
        self._slot_ids = [-1] * slots
        self._anchors = [-1] * slots
        self._child_s = [0.0] * slots
        self._charged = [0.0] * slots
        self._inside = [0.0] * slots
        self.counts: dict[str, int] = {}
        self._topologies: dict[int, weakref.ref] = {}
        self.missing: list[str] = []
        # kind -> (cost_in, cost_out) in reference seconds; 0 until calibrated
        self.costs = {"stored": (0.0, 0.0), "core": (0.0, 0.0)}
        self._overhead = [0.0]

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
            self.total_cost.append(0.0)
            self.self_cost.append(0.0)
        return nid

    def _count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def wrap(self, name: str, fn: t.Callable, observe: t.Callable | None = None) -> t.Callable:
        """``cost_in`` of each call lands inside the call's own duration,
        ``cost_out`` inside its parent's (see ``calibrate``)."""
        nid = self._intern(name)
        store = not name.startswith("core.")
        cost_in, cost_out = self.costs["stored" if store else "core"]
        depth, slot_ids, anchors = self._depth, self._slot_ids, self._anchors
        child_s, charged, inside = self._child_s, self._charged, self._inside
        spans, overhead = self.spans, self._overhead
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        total_cost, self_cost = self.total_cost, self.self_cost
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            d = depth[0] + 1
            depth[0] = d
            slot_ids[d] = nid
            child_s[d] = charged[d] = inside[d] = 0.0
            if store:
                anchors[d] = tracer._next_index
                tracer._next_index += 1
            else:
                anchors[d] = anchors[d - 1]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[0] = d - 1
                duration = end - start
                calls[nid] += 1
                total_s[nid] += duration
                self_s[nid] += duration - child_s[d]
                total_cost[nid] += inside[d] + cost_in
                self_cost[nid] += charged[d] + cost_in
                if d > 1:
                    child_s[d - 1] += duration
                    charged[d - 1] += cost_out
                    inside[d - 1] += cost_in + cost_out + inside[d]
                    overhead[0] += cost_in + cost_out
                else:
                    overhead[0] += cost_in
                if store:
                    spans.append((anchors[d], nid, start, end, anchors[d - 1]))
            if observe is not None:
                observe(args, result, slot_ids[d - 1])
            return result

        return traced

    def calibrate(self, calls: int = 10000, repeats: int = 7) -> None:
        """Measure the wrapper's cost per call, for stored spans and for
        ``core`` ones, with a wrapped two-argument function called from a
        wrapped loop.  ``cost_in`` is the call's measured self time less a
        plain call; ``cost_out`` is the rest of what the wrapped loop takes
        over a plain one.  Each repeat is scaled by a reference-kernel probe
        taken just before it, and each cost is the median over ``repeats``.
        The observers' own cost, a few milliseconds a round, stays in the
        parents' self times."""
        clock = time.perf_counter

        def leaf(x, y):
            return None

        def loop(fn):
            for _ in range(calls):
                fn(1, 2)

        def bare(fn):
            for _ in range(calls):
                pass

        for kind, name in (("stored", "calibrate.leaf"), ("core", "core.leaf")):
            ins, outs = [], []
            for _ in range(repeats):
                scratch = Tracer("calibrate")
                wrapped_leaf = scratch.wrap(name, leaf)
                wrapped_loop = scratch.wrap("calibrate.loop", loop)
                scale = speed.REFERENCE_S / speed.probe()
                timings = []
                for fn in (bare, loop):
                    t0 = clock()
                    fn(leaf)
                    timings.append(clock() - t0)
                wrapped_loop(wrapped_leaf)
                empty, plain = timings
                plain_call = (plain - empty) / calls
                traced_call = (scratch.total_s[scratch._ids["calibrate.loop"]] - empty) / calls
                cost_in = scratch.self_s[scratch._ids[name]] / calls - plain_call
                ins.append(cost_in * scale)
                outs.append((traced_call - plain_call - cost_in) * scale)
            self.costs[kind] = (statistics.median(ins), statistics.median(outs))

    # --- observers: counts measured where the work happens -----------------

    def _observe_close_subbase(self, args, result, parent) -> None:
        if result is None:
            self._count("close_subbase.capped")

    def _observe_hypothesis(self, args, result, parent) -> None:
        if parent == self._ids.get(RUN_THEOREM):
            self._count("hypothesis.trials")
            if result:
                self._count("hypothesis.passed")

    def _observe_still_falsifies(self, args, result, parent) -> None:
        if parent == self._ids.get(SHRINK):
            self._count("shrink.candidates")
            if result:
                self._count("shrink.accepted")

    def _observe_kernel(self, args, result, parent) -> None:
        topo = args[0] if args else None
        ref = self._topologies.get(id(topo))
        if ref is None or ref() is not topo:
            self._topologies[id(topo)] = weakref.ref(topo)
            self._count("kernels.topologies")

    def install(self) -> None:
        """Rebind every public softtopo function and the registry callables."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "softtopo" or n.startswith("softtopo."))]
        observers = dict.fromkeys(KERNELS, self._observe_kernel)
        observers[CLOSE_SUBBASE] = self._observe_close_subbase
        observers[STILL_FALSIFIES] = self._observe_still_falsifies
        wrappers: dict[int, tuple[t.Callable, t.Callable]] = {}
        for module in modules:
            layer = module.__name__[len("softtopo."):]
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and attr == obj.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, observers.get(name)))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        from softtopo.fuzzing import registry

        for key, case in list(registry.REGISTRY.items()):
            registry.REGISTRY[key] = dataclasses.replace(
                case,
                build=self.wrap("fuzzing.registry.build", case.build),
                hypothesis=self.wrap("fuzzing.registry.hypothesis", case.hypothesis,
                                     self._observe_hypothesis),
                conclusion=self.wrap("fuzzing.registry.conclusion", case.conclusion),
            )
        self.missing = [name for name in NAMED if name not in self._ids]

    # --- aggregation -------------------------------------------------------

    def _sum(self, values: list, names: t.Iterable[str]) -> float:
        return sum(values[self._ids[n]] for n in names if n in self._ids)

    def _in_layer(self, layer: str) -> list[str]:
        return [n for n in self.names if n.rsplit(".", 1)[0] == layer]

    def metrics(self, wall_s: float, slowdown: float) -> dict[str, float]:
        """Per-layer figures for one traced round, given its raw wall time
        and the host's slowdown over it; times in reference seconds."""
        self_ref = [raw / slowdown - cost for raw, cost in zip(self.self_s, self.self_cost)]
        total_ref = [raw / slowdown - cost for raw, cost in zip(self.total_s, self.total_cost)]
        out: dict[str, float] = {}
        for layer in LAYERS:
            names = self._in_layer(layer)
            out[f"{layer}.calls"] = self._sum(self.calls, names)
            out[f"{layer}.self_s"] = self._sum(self_ref, names)
        for name in (CLOSE_SUBBASE, MINIMAL_SUBCOVER, VERIFY):
            out[f"{name}.calls"] = self._sum(self.calls, [name])
            out[f"{name}.self_s"] = self._sum(self_ref, [name])
        for name in (PARSE, TO_PAYLOAD):
            out[f"{name}.self_s"] = self._sum(self_ref, [name])
        closes = out[f"{CLOSE_SUBBASE}.calls"]
        out[f"{CLOSE_SUBBASE}.capped_ratio"] = _ratio(
            self.counts.get("close_subbase.capped", 0), closes)
        out["topology.kernels.self_s"] = self._sum(self_ref, KERNELS)
        out["topology.kernels.calls_per_topology"] = _ratio(
            self._sum(self.calls, KERNELS), self.counts.get("kernels.topologies", 0))
        for stage in STAGES:
            name = f"fuzzing.registry.{stage}"
            out[f"{name}.self_s"] = self._sum(self_ref, [name])
            out[f"{name}.total_s"] = self._sum(total_ref, [name])
        out["fuzzing.registry.hypothesis.pass_ratio"] = _ratio(
            self.counts.get("hypothesis.passed", 0), self.counts.get("hypothesis.trials", 0))
        out["fuzzing.shrink.candidates"] = self.counts.get("shrink.candidates", 0)
        out["fuzzing.shrink.accept_ratio"] = _ratio(
            self.counts.get("shrink.accepted", 0), self.counts.get("shrink.candidates", 0))
        roots = sum(end - start for _, _, start, end, parent in self.spans if parent < 0)
        out["trace.wall_s"] = wall_s / slowdown
        out["trace.self_sum_s"] = sum(self_ref)
        out["trace.overhead_s"] = self._overhead[0]
        out["trace.remainder_s"] = (wall_s - roots) / slowdown
        out["trace.spans"] = len(self.spans)
        return out

    def write_sidecar(self, path: str, slowdown: float) -> None:
        """One header line with the host's slowdown over the round (raw
        seconds over reference seconds, see speed.py), then one line per
        span: index name-id start end parent-index (-1 for a root)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# run {self.run_id} slowdown {slowdown:.4f} names {' '.join(self.names)}\n")
            for span in sorted(self.spans):
                fh.write("%d %d %.9f %.9f %d\n" % span)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
