"""Canonical JSON interchange for universes, sets, topologies, and functions.

Documents name points and parameters by string so fixtures stay auditable by
eye.  Canonical form means: object keys sorted, point arrays in universe
order, two-space indentation, trailing newline.  ``parse`` collects every
problem it can find and reports them all at once with JSON-path style
locations.
"""

from __future__ import annotations

import dataclasses as d
import json
import math
import re
import typing as t
from json.encoder import encode_basestring, encode_basestring_ascii

from .core import (
    _ELEMENT_BUDGET,
    SoftElement,
    SoftSet,
    Universe,
    full_set,
    is_admissible,
    is_null,
    null_set,
)
from .errors import DocumentError, InputError
from .topology import SoftTopology

__all__ = [
    "SpaceDocument",
    "canonical_json",
    "parse",
    "parse_file",
    "resolve_set",
    "serialize",
    "to_payload",
]

FORMAT = "soft-space/1"

# PHI is the empty soft set, ABS the document's absolute (the full set unless
# an "absolute" entry overrides it).  Neither may appear under "sets".
RESERVED_NAMES = ("PHI", "ABS")

_TOP_KEYS = frozenset(
    ["format", "universe", "sets", "absolute", "topology", "functions", "elements", "fuzz"]
)


@d.dataclass(frozen=True)
class SpaceDocument:
    """A resolved document: typed objects plus the raw naming needed to
    serialize back out unchanged."""

    universe: Universe
    sets: dict[str, SoftSet]
    absolute_name: str | None  # None means the full set
    topology_names: tuple[str, ...] | None
    topology: SoftTopology | None
    functions: dict[str, dict[str, dict[str, str]]]
    elements: dict[str, SoftElement]
    extras: dict[str, t.Any] = d.field(default_factory=dict)

    @property
    def absolute(self) -> SoftSet:
        if self.absolute_name is None:
            return full_set(self.universe)
        return self.sets[self.absolute_name]


def resolve_set(doc: SpaceDocument, name: str) -> SoftSet:
    if name == "PHI":
        return null_set(doc.universe)
    if name == "ABS":
        return doc.absolute
    try:
        return doc.sets[name]
    except KeyError:
        raise InputError(f"no set named {name!r} in document") from None


# --- decoding ---------------------------------------------------------------


class _Issues:
    def __init__(self) -> None:
        self.items: list[tuple[str, str]] = []

    def add(self, path: str, message: str) -> None:
        self.items.append((path, message))

    def raise_if_any(self) -> None:
        if self.items:
            raise DocumentError(self.items)


def _duplicate_checking_hook(issues: _Issues):
    def hook(pairs):
        out: dict[str, t.Any] = {}
        for key, value in pairs:
            if key in out:
                issues.add("$", f"duplicate key {key!r}")
            out[key] = value
        return out

    return hook


_SURROGATE = re.compile("[\ud800-\udfff]")


def _refuse_surrogates(names: t.Iterable[str], path: str, issues: _Issues) -> None:
    """Refuse declared names holding a lone surrogate, left by a JSON escape
    outside a pair: output names them, and no Unicode encoding can write
    one.  A referenced name matches a declared one or is reported as
    unknown, escaped, so this covers both."""
    for name in names:
        if not name.isascii() and _SURROGATE.search(name):
            issues.add(path, f"name {name!r} holds a lone surrogate")


def _expect_str_array(value, path: str, issues: _Issues) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        issues.add(path, "expected an array of strings")
        return []
    return value


def _known_params(universe: Universe, raw: dict, path: str, issues: _Issues) -> bool:
    """Report each key of ``raw`` that is not a declared parameter; whether
    there was none."""
    ok = True
    for param in raw:
        if param not in universe.point_bits:
            issues.add(f"{path}.{param}", f"unknown parameter {param!r}")
            ok = False
    return ok


def _section(raw: dict, key: str, issues: _Issues) -> dict:
    """The named section ``key``; a section that is not an object reads as
    empty."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        issues.add(f"$.{key}", f"expected an object of named {key}")
        return {}
    _refuse_surrogates(section, f"$.{key}", issues)
    return section


def _named(raw: dict, key: str, universe: Universe, issues: _Issues, decode) -> dict:
    """Each entry of the named section ``key`` that ``decode(universe, body,
    issues, name)`` turns into a value (None marks a refused entry)."""
    decoded = {}
    for name, body in _section(raw, key, issues).items():
        value = decode(universe, body, issues, name)
        if value is not None:
            decoded[name] = value
    return decoded


def _decode_sets(raw: dict, universe: Universe, issues: _Issues) -> dict[str, SoftSet]:
    """The named sets, in one pass.  A set that is an object of exactly the
    declared parameters, each slice a list of distinct declared point names,
    is summed straight from ``Universe.point_bits``; every other set goes
    through ``_decode_set``, which words its issues."""
    tables = [(param, bit_of.__getitem__) for param, bit_of in universe.point_bits.items()]
    n_params = universe.n_params
    decoded = {}
    for name, body in _section(raw, "sets", issues).items():
        if name in RESERVED_NAMES:
            issues.add(f"$.sets.{name}", "reserved name cannot be redefined")
            continue
        if body.__class__ is dict and len(body) == n_params:
            bits = names = 0
            # A sum of layout bits has one set bit per name exactly when the
            # names are distinct, since a repeated bit carries, and a carry
            # lowers the popcount of the slices' OR however far it runs.  So
            # the OR has one bit per name exactly when every slice's names
            # are distinct.  A missing parameter, or a name that is not a
            # known point, raises.
            try:
                for param, bit in tables:
                    entries = body[param]
                    if entries.__class__ is not list:
                        break
                    bits |= sum(map(bit, entries))
                    names += len(entries)
                else:
                    if bits.bit_count() == names:
                        decoded[name] = SoftSet.unchecked(universe, bits)
                        continue
            except (KeyError, TypeError):
                pass
        value = _decode_set(universe, body, issues, name)
        if value is not None:
            decoded[name] = value
    return decoded


def _decode_set(
    universe: Universe, raw, issues: _Issues, set_name: str
) -> SoftSet | None:
    """A named set that ``_decode_sets`` did not accept: its issues in
    document order.  A slice that is not an array of strings reads as
    empty, and a set whose only fault is a repeated point still decodes."""
    path = f"$.sets.{set_name}"
    if not isinstance(raw, dict):
        issues.add(path, "expected an object of parameter slices")
        return None
    bits = 0
    ok = True
    for param, bit_of in universe.point_bits.items():
        if param not in raw:
            issues.add(path, f"set {set_name!r} is missing the slice for parameter {param!r}")
            ok = False
            continue
        for point in _expect_str_array(raw[param], f"{path}.{param}", issues):
            bit = bit_of.get(point)
            if bit is None:
                issues.add(f"{path}.{param}", f"unknown point {point!r}")
                ok = False
                continue
            if bits & bit:
                issues.add(f"{path}.{param}", f"duplicate point {point!r}")
            bits |= bit
    ok = _known_params(universe, raw, path, issues) and ok
    return SoftSet.unchecked(universe, bits) if ok else None


def _decode_universe(raw, issues: _Issues) -> Universe | None:
    if not isinstance(raw, dict):
        issues.add("$.universe", "expected an object with points and params")
        return None
    before = len(issues.items)
    points = _expect_str_array(raw.get("points"), "$.universe.points", issues)
    params = _expect_str_array(raw.get("params"), "$.universe.params", issues)
    for key in raw:
        if key not in ("points", "params"):
            issues.add(f"$.universe.{key}", "unknown key")
    if not points:
        issues.add("$.universe.points", "at least one point is required")
    if not params:
        issues.add("$.universe.params", "at least one parameter is required")
    if len(set(points)) != len(points):
        issues.add("$.universe.points", "point names must be distinct")
    if len(set(params)) != len(params):
        issues.add("$.universe.params", "parameter names must be distinct")
    _refuse_surrogates(points, "$.universe.points", issues)
    _refuse_surrogates(params, "$.universe.params", issues)
    # Checked before any layout-sized table (packing, point bits, the
    # topology kernels' per-bit masks) is built.
    if len(points) * len(params) > _ELEMENT_BUDGET:
        issues.add(
            "$.universe",
            f"{len(points)} points x {len(params)} parameters is over the budget"
            f" of {_ELEMENT_BUDGET} point-parameter pairs",
        )
    if len(issues.items) > before:
        return None
    return Universe.of(points, params)


def _decode_function(
    universe: Universe, raw, issues: _Issues, name: str
) -> dict[str, dict[str, str]] | None:
    """Structural check only.  Target names resolve against a codomain later,
    so a lone document cannot vouch for them."""
    path = f"$.functions.{name}"
    if not isinstance(raw, dict):
        issues.add(path, "expected an object of per-parameter point maps")
        return None
    ok = True
    for param in universe.params:
        if param not in raw:
            issues.add(path, f"missing map for parameter {param!r}")
            ok = False
            continue
        table = raw[param]
        if not isinstance(table, dict):
            issues.add(f"{path}.{param}", "expected an object mapping points to points")
            ok = False
            continue
        for src, dst in table.items():
            if src not in universe.points:
                issues.add(f"{path}.{param}", f"unknown source point {src!r}")
                ok = False
            if not isinstance(dst, str) or not dst:
                issues.add(f"{path}.{param}.{src}", "target must be a point name")
                ok = False
        for point in universe.points:
            if point not in table:
                issues.add(f"{path}.{param}", f"no target for point {point!r}")
                ok = False
    if not _known_params(universe, raw, path, issues) or not ok:
        return None
    return {param: dict(raw[param]) for param in universe.params}


def _decode_element(
    universe: Universe, raw, issues: _Issues, name: str
) -> SoftElement | None:
    path = f"$.elements.{name}"
    if not isinstance(raw, dict):
        issues.add(path, "expected an object mapping parameters to points")
        return None
    coords = []
    ok = True
    for param in universe.params:
        if param not in raw:
            issues.add(path, f"missing point for parameter {param!r}")
            ok = False
            continue
        point = raw[param]
        if not isinstance(point, str) or point not in universe.points:
            issues.add(f"{path}.{param}", f"unknown point {point!r}")
            ok = False
            continue
        coords.append(universe.point_index(point))
    if not _known_params(universe, raw, path, issues) or not ok:
        return None
    return SoftElement(universe, tuple(coords))


def _counted_keys(raw: dict) -> int:
    """A count of the keys of the objects in ``raw``, never more than the
    true count: the ``sets`` bodies and every object reached from another
    top-level value through objects alone.  An object inside an array is
    not counted."""
    count = len(raw)
    stack = [value for key, value in raw.items() if key != "sets" and value.__class__ is dict]
    sets = raw.get("sets")
    if sets.__class__ is dict:
        count += len(sets) + sum(map(len, filter(dict.__instancecheck__, sets.values())))
    while stack:
        obj = stack.pop()
        count += len(obj)
        stack.extend(filter(dict.__instancecheck__, obj.values()))
    return count


def parse(text: str) -> SpaceDocument:
    issues = _Issues()
    try:
        raw = json.loads(text)
        # Every key in the text is followed by its own ":", and a repeated
        # key is parsed once, so a colon count equal to the counted keys
        # shows that no key repeats (FINDINGS.md, "Colons bound the keys of
        # a JSON text").  Otherwise (a ":" inside a string, an object inside
        # an array, or a repeated key) load again through the hook that
        # names every repeated key.
        if raw.__class__ is dict and text.count(":") != _counted_keys(raw):
            raw = json.loads(text, object_pairs_hook=_duplicate_checking_hook(issues))
    except json.JSONDecodeError as exc:
        raise DocumentError([("$", f"invalid JSON at line {exc.lineno}: {exc.msg}")]) from None
    except RecursionError:
        raise DocumentError([("$", "invalid JSON: nesting too deep")]) from None
    except ValueError as exc:  # an integer over the interpreter's digit limit
        raise DocumentError([("$", f"invalid JSON: {exc}")]) from None
    if not isinstance(raw, dict):
        raise DocumentError([("$", "document must be a JSON object")])

    for key in raw:
        if key not in _TOP_KEYS:
            issues.add(f"$.{key}", "unknown key")
    if raw.get("format") != FORMAT:
        issues.add("$.format", f"expected {FORMAT!r}")

    universe = _decode_universe(raw.get("universe"), issues)
    if universe is None:  # _decode_universe added an issue
        raise DocumentError(issues.items)

    sets = _decode_sets(raw, universe, issues)

    absolute_name = raw.get("absolute")
    if absolute_name is not None:
        if absolute_name == "PHI" or not isinstance(absolute_name, str):
            issues.add("$.absolute", "absolute must name a nonempty set")
            absolute_name = None
        elif absolute_name == "ABS":
            absolute_name = None
        elif absolute_name not in sets:
            issues.add("$.absolute", f"no set named {absolute_name!r}")
            absolute_name = None
        else:
            target = sets[absolute_name]
            if is_null(target) or not is_admissible(target):
                issues.add("$.absolute", "absolute must be admissible and nonempty")
                absolute_name = None

    topology_names: tuple[str, ...] | None = None
    topology: SoftTopology | None = None
    raw_topology = raw.get("topology")
    if raw_topology is not None:
        names = _expect_str_array(raw_topology, "$.topology", issues)
        members: list[SoftSet] = []
        ok = True
        for i, name in enumerate(names):
            if name == "PHI":
                members.append(null_set(universe))
            elif name == "ABS":
                members.append(
                    full_set(universe) if absolute_name is None else sets[absolute_name]
                )
            elif name in sets:
                members.append(sets[name])
            else:
                issues.add(f"$.topology[{i}]", f"no set named {name!r}")
                ok = False
        if ok:
            topology_names = tuple(names)
            absolute = full_set(universe) if absolute_name is None else sets[absolute_name]
            topology = SoftTopology.of(universe, members, absolute)

    functions = _named(raw, "functions", universe, issues, _decode_function)
    elements = _named(raw, "elements", universe, issues, _decode_element)

    extras: dict[str, t.Any] = {}
    if "fuzz" in raw:
        if not isinstance(raw["fuzz"], dict):
            issues.add("$.fuzz", "expected an object")
        else:
            extras["fuzz"] = raw["fuzz"]

    issues.raise_if_any()
    return SpaceDocument(
        universe=universe,
        sets=sets,
        absolute_name=absolute_name,
        topology_names=topology_names,
        topology=topology,
        functions=functions,
        elements=elements,
        extras=extras,
    )


def parse_file(path: str) -> SpaceDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError([(path, f"cannot read document: {exc.strerror}")]) from None
    except UnicodeDecodeError as exc:
        raise DocumentError(
            [(path, f"cannot read document: not UTF-8 ({exc.reason} at byte {exc.start})")]
        ) from None
    return parse(text)


# --- encoding ---------------------------------------------------------------


def to_payload(doc: SpaceDocument) -> dict[str, t.Any]:
    payload: dict[str, t.Any] = {
        "format": FORMAT,
        "universe": {
            "points": list(doc.universe.points),
            "params": list(doc.universe.params),
        },
    }
    if doc.sets:
        payload["sets"] = {name: f.to_points() for name, f in doc.sets.items()}
    if doc.absolute_name is not None:
        payload["absolute"] = doc.absolute_name
    if doc.topology_names is not None:
        payload["topology"] = list(doc.topology_names)
    if doc.functions:
        payload["functions"] = {
            name: {param: dict(table) for param, table in body.items()}
            for name, body in doc.functions.items()
        }
    if doc.elements:
        payload["elements"] = {
            name: x.to_points() for name, x in doc.elements.items()
        }
    if "fuzz" in doc.extras:
        payload["fuzz"] = doc.extras["fuzz"]
    return payload


def serialize(doc: SpaceDocument) -> str:
    """Canonical text: sorted keys, two-space indent, trailing newline."""
    return canonical_json(to_payload(doc), ensure_ascii=False)


def canonical_json(payload: t.Any, ensure_ascii: bool = True) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2,
    ensure_ascii=ensure_ascii)`` and a trailing newline, byte for byte.

    ``json.dumps`` runs its pure-Python encoder whenever it indents
    (CPython 3.10 to 3.13); this walk leaves out its options and cycle
    checks, and quotes strings with the C encoders of ``json.encoder``.  Dicts, lists, tuples, strings,
    ints, floats, bools and None are written as ``json`` writes them; a
    non-str key or any other type raises TypeError.
    """
    quote = encode_basestring_ascii if ensure_ascii else encode_basestring
    out: list[str] = []
    _encode(payload, "\n", quote, out)
    out.append("\n")
    return "".join(out)


def _encode(o: t.Any, newline: str, quote: t.Callable[[str], str], out: list[str]) -> None:
    """Append the text of ``o`` to ``out``; ``newline`` breaks a line and
    indents it to ``o``'s own level."""
    if isinstance(o, str):
        out.append(quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        # json's spellings of the values with no decimal form
        if math.isfinite(o):
            out.append(float.__repr__(o))
        else:
            out.append("NaN" if o != o else "Infinity" if o > 0 else "-Infinity")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _encode(item, inner, quote, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + quote(key) + ": ")
            _encode(o[key], inner, quote, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

