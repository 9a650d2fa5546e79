"""Command-line surface.

Exit codes are a contract: 0 the property holds / the input is valid / the
fuzz verdict is confirmed or vacuous, 1 it fails or a counterexample was
found, 2 precondition, configuration, or document errors.  Output is built
as one string and written once, so partial output never escapes on error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
import typing as t

from .baire import (
    is_baire,
    is_first_category,
    is_locally_compact,
    is_nowhere_dense,
)
from .compactness import is_compact_set, is_compact_space, is_quasi_compact
from .core import (
    SoftElement,
    SoftSet,
    element_count,
    iter_elements,
    null_set,
)
from .document import (
    SpaceDocument,
    canonical_json,
    parse_file,
    resolve_set,
    serialize,
)
from .errors import (
    DocumentError,
    InputError,
    PreconditionError,
    SoftTopoError,
    SubspacePreconditionError,
)
from .fuzzing.generate import GeneratorConfig
from .fuzzing.harness import report_text, run_theorem, serialize_report
from .maps import SoftFunction, definitional_continuity, preimage_continuity
from .separation import is_hausdorff, is_normal, is_regular
from .subspace import build_subspace
from .topology import (
    LimitingMode,
    SoftTopology,
    closure,
    interior,
    limiting_elements,
    verify,
    violations_of,
)

__all__ = ["main"]

_ELEMENT_GUARD = 10**6


def _emit(text: str) -> None:
    sys.stdout.write(text)
    sys.stdout.flush()


def format_set(f: SoftSet) -> str:
    """Compact display: one {…} block per parameter, in parameter order."""
    blocks = []
    for mask in f.slices:
        blocks.append("{" + ",".join(f.universe.names_of(mask)) + "}")
    return "(" + ",".join(blocks) + ")"


def format_element(x: SoftElement) -> str:
    return "(" + ",".join(x.universe.points[c] for c in x.coords) + ")"


def _encode_value(v: t.Any) -> t.Any:
    """Witness payloads mix sets, elements, and tuples; encode recursively."""
    if isinstance(v, (SoftSet, SoftElement)):
        return v.to_points()
    if isinstance(v, tuple):
        return [_encode_value(item) for item in v]
    return v


def _format_value(v: t.Any) -> str:
    if isinstance(v, SoftSet):
        return format_set(v)
    if isinstance(v, SoftElement):
        return format_element(v)
    if isinstance(v, tuple):
        return "[" + ", ".join(_format_value(item) for item in v) + "]"
    return str(v)


def _parse_with_topology(path: str) -> SpaceDocument:
    doc = parse_file(path)
    if doc.topology is None:
        raise PreconditionError(f"{path}: document carries no topology")
    return doc


def _load_topology(path: str) -> tuple[SpaceDocument, SoftTopology]:
    """The one refusal of a member list that is not a topology: it names
    the first four violations, and the pairwise scan stops there."""
    doc = _parse_with_topology(path)
    shown = [v.describe() for v in itertools.islice(violations_of(doc.topology), 4)]
    if shown:
        raise PreconditionError(f"{path}: topology is not valid: {'; '.join(shown)}")
    return doc, doc.topology


# --- verify ------------------------------------------------------------------


def _cmd_verify(args) -> int:
    report = verify(_parse_with_topology(args.file).topology)
    if args.format == "json":
        _emit(
            canonical_json(
                {
                    "command": "verify",
                    "valid": report.valid,
                    "violations": [
                        {
                            "axiom": v.axiom,
                            "witnesses": _encode_value(v.witnesses),
                            "offending": _encode_value(v.offending),
                        }
                        for v in report.violations
                    ],
                }
            )
        )
    else:
        if report.valid:
            _emit("valid topology\n")
        else:
            lines = ["not a valid topology:"]
            lines += [f"  - {v.describe()}" for v in report.violations]
            _emit("\n".join(lines) + "\n")
    return 0 if report.valid else 1


# --- check -------------------------------------------------------------------


def _check_outcome(args, prop: str, holds: bool, details: dict[str, t.Any]) -> int:
    if args.format == "json":
        payload = {"command": "check", "property": prop, "holds": holds}
        payload.update({k: _encode_value(v) for k, v in details.items()})
        _emit(canonical_json(payload))
    else:
        lines = [f"{prop}: {'holds' if holds else 'fails'}"]
        for k, v in details.items():
            if v is not None:
                lines.append(f"  {k}: {_format_value(v)}")
        _emit("\n".join(lines) + "\n")
    return 0 if holds else 1


_Verdict = tuple[bool, dict[str, t.Any]]


def _fields(report: t.Any, *names: str) -> _Verdict:
    """The report's ``holds``, and its attributes ``names`` in order."""
    return report.holds, {name: getattr(report, name) for name in names}


def _separation(report: t.Any) -> _Verdict:
    return _fields(report, "witness", "counterexample")


def _compact(topo: SoftTopology, _subject: None) -> _Verdict:
    rep = is_compact_space(topo)
    return rep.compact, dict(quasi_compact=rep.quasi.holds, hausdorff=rep.hausdorff.holds)


def _compact_set(topo: SoftTopology, subject: SoftSet) -> _Verdict:
    rep = is_compact_set(topo, subject)
    return rep.compact, dict(
        admissible=rep.admissible, complement_admissible=rep.complement_admissible
    )


def _baire(topo: SoftTopology, _subject: None) -> _Verdict:
    rep = is_baire(topo)
    return rep.baire, dict(rare_closed=len(rep.rare_closed), union_interior=rep.union_interior)


def _first_category(topo: SoftTopology, subject: SoftSet) -> _Verdict:
    rep = is_first_category(topo, subject)
    return rep.first_category, dict(verdict=rep.verdict, pieces=len(rep.decomposition))


# Each property: whether it needs --set, and its verdict (topology, the named
# set or None) -> (holds, report fields in print order).  A set-scoped
# report names its set first.  ``check`` offers the properties in this order.
_PROPERTIES: dict[str, tuple[bool, t.Callable[..., _Verdict]]] = {
    "hausdorff": (False, lambda topo, _: _separation(is_hausdorff(topo))),
    "regular": (False, lambda topo, _: _separation(is_regular(topo))),
    "normal": (False, lambda topo, _: _separation(is_normal(topo))),
    "quasi-compact": (False, lambda topo, _: _fields(
        is_quasi_compact(topo), "justification"
    )),
    "compact": (False, _compact),
    "compact-set": (True, _compact_set),
    "locally-compact": (False, lambda topo, _: _fields(
        is_locally_compact(topo), "counterexample"
    )),
    "baire": (False, _baire),
    "nowhere-dense": (True, lambda topo, f: (is_nowhere_dense(topo, f), {})),
    "first-category": (True, _first_category),
}


def _cmd_check(args) -> int:
    doc, topo = _load_topology(args.file)
    needs_set, verdict = _PROPERTIES[args.property]
    if needs_set and not args.set:
        raise PreconditionError(f"check {args.property} requires --set NAME")
    subject = resolve_set(doc, args.set) if needs_set else None
    holds, fields = verdict(topo, subject)
    if needs_set:
        fields = {"set": args.set, **fields}
    return _check_outcome(args, args.property, holds, fields)


# --- compute -----------------------------------------------------------------


def _cmd_compute(args) -> int:
    doc, topo = _load_topology(args.file)
    subject = resolve_set(doc, args.set)
    if args.operation == "closure":
        result: t.Any = closure(topo, subject)
    elif args.operation == "interior":
        result = interior(topo, subject)
    else:
        mode = LimitingMode(args.reading)
        result = limiting_elements(topo, subject, mode)

    if args.format == "json":
        payload: dict[str, t.Any] = {
            "command": "compute",
            "operation": args.operation,
            "set": args.set,
        }
        if args.operation == "limiting":
            payload["reading"] = args.reading
            payload["result"] = [x.to_points() for x in result]
        else:
            payload["result"] = result.to_points()
        _emit(canonical_json(payload))
    else:
        if args.operation == "limiting":
            shown = " ".join(format_element(x) for x in result) or "(none)"
            _emit(f"limiting({args.set}) [{args.reading}] = {shown}\n")
        else:
            _emit(f"{args.operation}({args.set}) = {format_set(result)}\n")
    return 0


# --- elements ----------------------------------------------------------------


def _cmd_elements(args) -> int:
    doc = parse_file(args.file)
    subject = resolve_set(doc, args.set)
    count = element_count(subject)
    if count > _ELEMENT_GUARD:
        raise PreconditionError(f"{count} soft elements exceeds the guard ({_ELEMENT_GUARD})")
    elements = list(iter_elements(subject))
    if args.format == "json":
        _emit(
            canonical_json(
                {
                    "command": "elements",
                    "set": args.set,
                    "count": count,
                    "elements": [x.to_points() for x in elements],
                }
            )
        )
    else:
        lines = [f"{args.set}: {count} soft elements"]
        lines += [f"  {format_element(x)}" for x in elements]
        _emit("\n".join(lines) + "\n")
    return 0


# --- subspace ----------------------------------------------------------------


def _subspace_names(doc: SpaceDocument, sub) -> tuple[dict[str, SoftSet], tuple[str, ...]]:
    """Name traces after their first parent origin, suffixed, keeping the
    reserved names for the null trace and the carrier itself."""
    parent_names = dict(enumerate(doc.topology_names or ()))
    sets: dict[str, SoftSet] = {"Y": sub.carrier}
    names: list[str] = []
    for trace_idx, member in enumerate(sub.topology.members):
        if member == null_set(doc.universe):
            names.append("PHI")
            continue
        if member == sub.carrier:
            names.append("ABS")
            continue
        origin = sub.origins[trace_idx]
        base = parent_names.get(origin, f"M{origin}")
        name = f"{base}_Y"
        while name in sets:
            name += "_"
        sets[name] = member
        names.append(name)
    return sets, tuple(names)


def _cmd_subspace(args) -> int:
    doc, topo = _load_topology(args.file)
    points = tuple(p.strip() for p in args.points.split(",") if p.strip())
    try:
        sub = build_subspace(topo, points)
    except SubspacePreconditionError as exc:
        if args.format == "json":
            _emit(
                canonical_json(
                    {
                        "command": "subspace",
                        "satisfied": False,
                        "pair_violations": list(exc.report.pair_violations),
                        "trace_violations": list(exc.report.trace_violations),
                    }
                )
            )
        else:
            _emit("subspace preconditions violated: " + exc.report.describe() + "\n")
        return 1
    sets, names = _subspace_names(doc, sub)
    out_doc = SpaceDocument(
        universe=doc.universe,
        sets=sets,
        absolute_name="Y",
        topology_names=names,
        topology=sub.topology,
        functions={},
        elements={},
    )
    if args.format == "json":
        _emit(serialize(out_doc))
    else:
        lines = [f"subspace on {{{','.join(points)}}}:"]
        for name, member in zip(names, sub.topology.members):
            lines.append(f"  {name} = {format_set(member)}")
        _emit("\n".join(lines) + "\n")
    return 0


# --- map check ---------------------------------------------------------------


def _cmd_map(args) -> int:
    dom_doc, dom_topo = _load_topology(args.domain)
    cod_doc, cod_topo = _load_topology(args.codomain)
    if args.fn not in dom_doc.functions:
        raise PreconditionError(f"no function named {args.fn!r} in {args.domain}")
    fn = SoftFunction.from_names(
        dom_doc.universe, cod_doc.universe, dom_doc.functions[args.fn]
    )
    definitional = definitional_continuity(fn, dom_topo, cod_topo)
    by_preimage = preimage_continuity(fn, dom_topo, cod_topo)
    agree = definitional.continuous == by_preimage.continuous
    if args.format == "json":
        _emit(
            canonical_json(
                {
                    "command": "map-check",
                    "function": args.fn,
                    "definitional": definitional.continuous,
                    "preimage": by_preimage.continuous,
                    "agree": agree,
                }
            )
        )
    else:
        _emit(
            f"definitional: {'continuous' if definitional.continuous else 'not continuous'}\n"
            f"preimage:     {'continuous' if by_preimage.continuous else 'not continuous'}\n"
            f"criteria {'agree' if agree else 'diverge'}\n"
        )
    return 0 if agree else 1


# --- fuzz --------------------------------------------------------------------


def _seed_from_env() -> int:
    env = os.environ.get("SOFTTOPO_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InputError(f"SOFTTOPO_SEED must be an integer, got {env!r}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_fuzz(args) -> int:
    seed = args.seed if args.seed is not None else _seed_from_env()
    config = GeneratorConfig(
        points=args.points,
        params=args.params,
        seed=seed,
        subbase_size=args.subbase,
        max_topology=args.max_topology,
        trials=args.trials,
    )
    report = run_theorem(args.case, config)
    rendered = serialize_report(report) if args.format == "json" else report_text(report)
    if args.out:
        _write(args.out, rendered if args.format == "json" else serialize_report(report))
    if report.counterexamples:
        first = report.counterexamples[0]
        path = (
            args.out + ".counterexample.json"
            if args.out
            else f"{args.case}.counterexample.json"
        )
        _write(path, canonical_json(first.document))
        _emit(rendered + f"minimal counterexample written to {path}\n")
        return 1
    _emit(rendered)
    return 0


# --- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call.

    Parsing leaves it unchanged: each parse returns a fresh namespace, and
    help reads the terminal width when it is printed.
    """
    parser = argparse.ArgumentParser(
        prog="softtopo",
        description="Inspect soft topological space documents and fuzz statements about them.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # ``main`` hands argv[1:] straight to the named command's parser.
    parser.commands = sub.choices

    p = sub.add_parser("verify", parents=[common], help="check the topology axioms")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check", parents=[common], help="check a named property")
    p.add_argument("property", choices=tuple(_PROPERTIES))
    p.add_argument("file")
    p.add_argument("--set", help="named set for the set-scoped properties")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("compute", parents=[common], help="closure, interior, or limiting elements")
    p.add_argument("operation", choices=("closure", "interior", "limiting"))
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.add_argument(
        "--reading", choices=("per-parameter", "whole-open"), default="per-parameter",
        help="limiting-element reading (default: per-parameter)",
    )
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("elements", parents=[common], help="enumerate soft elements")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_elements)

    p = sub.add_parser("subspace", parents=[common], help="build the relative topology")
    p.add_argument("file")
    p.add_argument("--points", required=True, help="comma-separated carrier points")
    p.set_defaults(func=_cmd_subspace)

    p = sub.add_parser("map", help="soft function checks")
    map_sub = p.add_subparsers(dest="map_command", required=True)
    mc = map_sub.add_parser("check", parents=[common], help="compare continuity criteria")
    mc.add_argument("--fn", required=True)
    mc.add_argument("--domain", required=True)
    mc.add_argument("--codomain", required=True)
    mc.set_defaults(func=_cmd_map)

    p = sub.add_parser("fuzz", parents=[common], help="run a registry case")
    p.add_argument("--case", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: SOFTTOPO_SEED or 0)")
    p.add_argument("--points", type=int, default=4)
    p.add_argument("--params", type=int, default=2)
    p.add_argument("--max-topology", type=int, default=512, dest="max_topology")
    p.add_argument("--subbase", type=int, default=3, help="generators per draw")
    p.add_argument("--workers", type=int, choices=(1,), default=1,
                   help="trials run in one thread; 1 is the only value")
    p.add_argument("--out", help="write the report to this path")
    p.set_defaults(func=_cmd_fuzz)

    return parser


def _parse_args(argv: t.Sequence[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, byte for byte, minus the main
    parser's pass when argv names a command: as its subparsers action
    would, set ``command`` and give argv[1:] to that command's parser.
    No command, an unknown one, ``-h`` and leftover words still go to the
    main parser, which alone prints their help or error."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv: t.Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        for path, message in exc.issues:
            print(f"error: {path}: {message}", file=sys.stderr)
        return 2
    except SoftTopoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
