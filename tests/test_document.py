from __future__ import annotations

import copy
import json
import random
from importlib import resources

import jsonschema
import pytest

from softtopo import core, document
from softtopo.core import SoftElement, SoftSet, full_set, null_set
from softtopo.document import (
    canonical_json,
    parse,
    parse_file,
    resolve_set,
    serialize,
    to_payload,
)
from softtopo.errors import DocumentError, InputError
from softtopo.fuzzing.generate import GeneratorConfig, universe_for
from softtopo.fuzzing.harness import run_theorem
from softtopo.fuzzing.instances import Instance, to_text
from softtopo.topology import full_topology

from conftest import FIXTURES, fixture_path, soft

VALID = sorted(p.name for p in FIXTURES.glob("*.json"))
INVALID = sorted(p.name for p in (FIXTURES / "invalid").glob("*.json"))


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def test_fixture_corpus_is_big_enough():
    assert len(VALID) >= 10
    assert len(INVALID) == 6


@pytest.mark.parametrize("name", VALID)
def test_round_trip_identity(name):
    text = read_fixture(name)
    assert serialize(parse(text)) == text


def test_serialize_canonicalizes():
    # compact text with shuffled keys lands on the same canonical form
    messy = (
        '{"universe": {"params": ["e1"], "points": ["a", "b"]},'
        ' "format": "soft-space/1", "sets": {"F": {"e1": ["a"]}}}'
    )
    canonical = serialize(parse(messy))
    assert canonical != messy
    assert serialize(parse(canonical)) == canonical
    assert canonical.endswith("\n")


def _json_dumps(payload, ensure_ascii=True) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=ensure_ascii) + "\n"


@pytest.mark.parametrize("name", VALID)
def test_serialize_matches_json_dumps(name):
    doc = parse(read_fixture(name))
    assert serialize(doc) == _json_dumps(to_payload(doc), ensure_ascii=False)


EDGE_PAYLOADS = (
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[], {}, [{}]]},
    [True, False, None, 0, -1, 10**40, -(10**40)],
    {"floats": [0.0, -0.0, 1.5, 1e-7, 1e300, float("nan"), float("inf"), float("-inf")]},
    "a string",
    {"é": "ünïcode ✓ \U0001f600", "\x00\x1f": "tab\tnewline\n\"quote\" back\\slash"},
    {"b": 1, "a": 2, "B": 3, "": 4, "aa": (5, [6, (7,)])},
    {"fuzz": {"nested": {"deeper": [{"z": None, "y": [1.25, "\u2028"]}]}}},
)


@pytest.mark.parametrize("ensure_ascii", [True, False])
@pytest.mark.parametrize("payload", EDGE_PAYLOADS)
def test_canonical_json_matches_json_dumps(payload, ensure_ascii):
    assert canonical_json(payload, ensure_ascii) == _json_dumps(payload, ensure_ascii)


@pytest.mark.parametrize("payload", [{1: "a"}, {"a": {None: 1}}, {(1, 2): 3}, {"a": {1}}, [b"x"]])
def test_canonical_json_refuses_keys_and_types_json_would_rewrite(payload):
    # json.dumps writes an int or None key as a string; the writer refuses
    # rather than write other bytes than the payload's own
    with pytest.raises(TypeError):
        canonical_json(payload)


ISSUE_BY_FIXTURE = {
    "bad_format.json": ("$.format", "expected 'soft-space/1'"),
    "duplicate_name.json": ("$", "duplicate key 'F'"),
    "lone_surrogate.json": ("$.universe.points", "name '\\udcff' holds a lone surrogate"),
    "missing_slice.json": ("$.sets.F", "set 'F' is missing the slice for parameter 'e2'"),
    "reserved_name.json": ("$.sets.PHI", "reserved name cannot be redefined"),
    "unknown_point.json": ("$.sets.F.e1", "unknown point 'q'"),
}


@pytest.mark.parametrize("name", INVALID)
def test_invalid_fixture_issues(name):
    with pytest.raises(DocumentError) as exc:
        parse_file(fixture_path(f"invalid/{name}"))
    assert ISSUE_BY_FIXTURE[name] in exc.value.issues


def test_all_issues_collected_at_once():
    text = json.dumps(
        {
            "format": "soft-space/1",
            "universe": {"points": ["a", "b"], "params": ["e1", "e2"]},
            "sets": {"F": {"e1": ["a", "q"]}},
            "stray": 1,
        }
    )
    with pytest.raises(DocumentError) as exc:
        parse(text)
    issues = set(exc.value.issues)
    assert ("$.stray", "unknown key") in issues
    assert ("$.sets.F.e1", "unknown point 'q'") in issues
    assert ("$.sets.F", "set 'F' is missing the slice for parameter 'e2'") in issues


def test_json_level_failures():
    with pytest.raises(DocumentError) as exc:
        parse("{not json")
    path, message = exc.value.issues[0]
    assert path == "$" and message.startswith("invalid JSON at line 1")
    with pytest.raises(DocumentError) as exc:
        parse("[1, 2]")
    assert exc.value.issues == (("$", "document must be a JSON object"),)
    with pytest.raises(DocumentError) as exc:
        parse_file(fixture_path("does_not_exist.json"))
    path, message = exc.value.issues[0]
    assert message.startswith("cannot read document")


def test_universe_over_the_layout_budget_builds_no_layout(monkeypatch):
    def no_layout(*args):
        raise AssertionError("layout built for a universe over the budget")

    monkeypatch.setattr(core.Packing, "of", no_layout)
    text = json.dumps(
        {
            "format": "soft-space/1",
            "universe": {
                "points": [f"p{i}" for i in range(250)],
                "params": [f"e{k}" for k in range(250)],
            },
            "topology": ["PHI", "ABS"],
        }
    )
    with pytest.raises(DocumentError) as exc:
        parse(text)
    assert exc.value.issues == (
        (
            "$.universe",
            "250 points x 250 parameters is over the budget of 4096 point-parameter pairs",
        ),
    )


def test_name_resolution(abcd_doc):
    u = abcd_doc.universe
    assert resolve_set(abcd_doc, "PHI") == null_set(u)
    assert resolve_set(abcd_doc, "ABS") == full_set(u)
    assert resolve_set(abcd_doc, "F1") == soft(u, e1="a", e2="b")
    with pytest.raises(InputError):
        resolve_set(abcd_doc, "F9")


def test_elements_decode(abcd_doc):
    assert abcd_doc.elements == {"x1": SoftElement(abcd_doc.universe, (0, 1))}


def test_named_absolute():
    text = json.dumps(
        {
            "format": "soft-space/1",
            "universe": {"points": ["a", "b"], "params": ["e1"]},
            "sets": {"Y": {"e1": ["a"]}},
            "absolute": "Y",
            "topology": ["PHI", "ABS"],
        }
    )
    doc = parse(text)
    u = doc.universe
    assert doc.absolute_name == "Y"
    assert doc.absolute == soft(u, e1="a")
    # ABS in the member list resolves to the carrier, not the full set
    assert doc.topology.absolute == soft(u, e1="a")
    assert doc.topology.members == (null_set(u), soft(u, e1="a"))
    assert "\"absolute\": \"Y\"" in serialize(doc)


def test_absolute_validation():
    base = {
        "format": "soft-space/1",
        "universe": {"points": ["a", "b"], "params": ["e1", "e2"]},
    }
    with pytest.raises(DocumentError) as exc:
        parse(json.dumps({**base, "absolute": "PHI"}))
    assert ("$.absolute", "absolute must name a nonempty set") in exc.value.issues
    with pytest.raises(DocumentError) as exc:
        parse(json.dumps({**base, "absolute": "Q"}))
    assert ("$.absolute", "no set named 'Q'") in exc.value.issues
    mixed = {**base, "sets": {"Y": {"e1": ["a"], "e2": []}}, "absolute": "Y"}
    with pytest.raises(DocumentError) as exc:
        parse(json.dumps(mixed))
    assert ("$.absolute", "absolute must be admissible and nonempty") in exc.value.issues
    # "ABS" is accepted and normalized to the default
    doc = parse(json.dumps({**base, "absolute": "ABS"}))
    assert doc.absolute_name is None


def test_topology_unknown_member():
    text = json.dumps(
        {
            "format": "soft-space/1",
            "universe": {"points": ["a"], "params": ["e1"]},
            "topology": ["PHI", "ABS", "Q"],
        }
    )
    with pytest.raises(DocumentError) as exc:
        parse(text)
    assert ("$.topology[2]", "no set named 'Q'") in exc.value.issues


def test_function_structure_checks():
    base = {
        "format": "soft-space/1",
        "universe": {"points": ["a", "b"], "params": ["e1"]},
    }
    with pytest.raises(DocumentError) as exc:
        parse(json.dumps({**base, "functions": {"f": {"e1": {"a": "a"}}}}))
    assert ("$.functions.f.e1", "no target for point 'b'") in exc.value.issues
    with pytest.raises(DocumentError) as exc:
        parse(json.dumps({**base, "functions": {"f": {"e1": {"a": "a", "b": 3}}}}))
    assert ("$.functions.f.e1.b", "target must be a point name") in exc.value.issues
    with pytest.raises(DocumentError) as exc:
        parse(json.dumps({**base, "functions": {"f": {}}}))
    assert ("$.functions.f", "missing map for parameter 'e1'") in exc.value.issues


_UNIVERSE = {"points": ["a", "b"], "params": ["e1"]}
_TABLE = {"a": "a", "b": "b"}

# Each document differs from a valid one in one field and draws one issue.
REFUSALS = [
    ({"universe": ["a", "b"]}, "$.universe", "expected an object with points and params"),
    ({"universe": {**_UNIVERSE, "extra": 1}}, "$.universe.extra", "unknown key"),
    ({"universe": {"points": [], "params": ["e1"]}},
     "$.universe.points", "at least one point is required"),
    ({"universe": {"points": ["a"], "params": []}},
     "$.universe.params", "at least one parameter is required"),
    ({"universe": {"points": ["a", "a"], "params": ["e1"]}},
     "$.universe.points", "point names must be distinct"),
    ({"universe": {"points": ["a"], "params": ["e1", "e1"]}},
     "$.universe.params", "parameter names must be distinct"),
    ({"sets": []}, "$.sets", "expected an object of named sets"),
    ({"functions": []}, "$.functions", "expected an object of named functions"),
    ({"elements": []}, "$.elements", "expected an object of named elements"),
    ({"fuzz": []}, "$.fuzz", "expected an object"),
    ({"functions": {"f": []}}, "$.functions.f", "expected an object of per-parameter point maps"),
    ({"functions": {"f": {"e1": ["a"]}}},
     "$.functions.f.e1", "expected an object mapping points to points"),
    ({"functions": {"f": {"e1": {**_TABLE, "q": "a"}}}},
     "$.functions.f.e1", "unknown source point 'q'"),
    ({"functions": {"f": {"e1": _TABLE, "e9": _TABLE}}},
     "$.functions.f.e9", "unknown parameter 'e9'"),
    ({"elements": {"x": "a"}}, "$.elements.x", "expected an object mapping parameters to points"),
    ({"elements": {"x": {}}}, "$.elements.x", "missing point for parameter 'e1'"),
    ({"elements": {"x": {"e1": "q"}}}, "$.elements.x.e1", "unknown point 'q'"),
    ({"elements": {"x": {"e1": "a", "e9": "a"}}}, "$.elements.x.e9", "unknown parameter 'e9'"),
]


@pytest.mark.parametrize("fields, path, message", REFUSALS)
def test_parse_refusals(fields, path, message):
    base = {"format": "soft-space/1", "universe": _UNIVERSE, "topology": ["PHI", "ABS"]}
    with pytest.raises(DocumentError) as exc:
        parse(json.dumps({**base, **fields}))
    assert exc.value.issues == ((path, message),)


# --- schema cross-check -------------------------------------------------------

def _schema():
    raw = (
        resources.files("softtopo") / "schemas" / "soft_space.schema.json"
    ).read_text(encoding="utf-8")
    return jsonschema.Draft202012Validator(json.loads(raw))


@pytest.mark.parametrize("name", VALID)
def test_schema_accepts_valid_fixtures(name):
    assert _schema().is_valid(json.loads(read_fixture(name)))


def test_schema_vs_parser_split():
    # the schema sees shape problems; referential rules stay parser business
    validator = _schema()
    schema_rejects = {
        name: not validator.is_valid(json.loads(read_fixture(f"invalid/{name}")))
        for name in INVALID
    }
    assert schema_rejects == {
        "bad_format.json": True,
        "reserved_name.json": True,
        "duplicate_name.json": False,
        "lone_surrogate.json": False,
        "missing_slice.json": False,
        "unknown_point.json": False,
    }


# --- slice-wise oracle ------------------------------------------------------

def _slice_wise_decode_set(universe, raw, issues, set_name):
    """Reference decoder: one mask per slice from ``point_index``, then
    ``SoftSet.of``, with every slice checked name by name."""
    path = f"$.sets.{set_name}"
    if not isinstance(raw, dict):
        issues.add(path, "expected an object of parameter slices")
        return None
    masks = []
    ok = True
    for param in universe.params:
        if param not in raw:
            issues.add(path, f"set {set_name!r} is missing the slice for parameter {param!r}")
            ok = False
            continue
        entries = raw[param]
        if not isinstance(entries, list) or not all(isinstance(v, str) for v in entries):
            issues.add(f"{path}.{param}", "expected an array of strings")
            entries = []
        mask = 0
        for point in entries:
            if point not in universe.points:
                issues.add(f"{path}.{param}", f"unknown point {point!r}")
                ok = False
                continue
            bit = 1 << universe.point_index(point)
            if mask & bit:
                issues.add(f"{path}.{param}", f"duplicate point {point!r}")
            mask |= bit
        masks.append(mask)
    for param in raw:
        if param not in universe.params:
            issues.add(f"{path}.{param}", f"unknown parameter {param!r}")
            ok = False
    if not ok:
        return None
    return SoftSet.of(universe, masks)


def _slice_wise_decode_sets(raw, universe, issues):
    """Reference for the whole ``sets`` section: reserved names refused, and
    every other set through ``_slice_wise_decode_set``."""

    def decode(universe, body, issues, name):
        if name in ("PHI", "ABS"):
            issues.add(f"$.sets.{name}", "reserved name cannot be redefined")
            return None
        return _slice_wise_decode_set(universe, body, issues, name)

    return document._named(raw, "sets", universe, issues, decode)


class _Obj(list):
    """A JSON object as (key, value) pairs, so keys may repeat."""


def _dump(value) -> str:
    if isinstance(value, _Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dump(v) for v in value) + "]"
    return json.dumps(value)


_NON_STRINGS = (3, 1.5, None, True, [], _Obj(), ["a"])
_NON_LISTS = ("a", 3, None, _Obj(), _Obj([("a", ["a"])]))


def _mutated_document(rng: random.Random) -> str:
    # One-character names let a string slice spell declared points; names
    # holding ":" put colons outside the keys.
    spelling = rng.random()
    points = list(
        "abcd" if spelling < 0.5
        else ("p0", "p1", "p2", "p3") if spelling < 0.8
        else ("p:0", "p:1", "p:2", "p:3")
    )
    points = points[: rng.randint(1, 4)]
    colon = ":" if rng.random() < 0.2 else ""
    params = [f"e{colon}{k}" for k in range(rng.randint(1, 3))]
    sets = _Obj(
        (
            f"S{':' if rng.random() < 0.2 else ''}{j}",
            _Obj((a, rng.sample(points, rng.randint(0, len(points)))) for a in params),
        )
        for j in range(rng.randint(1, 4))
    )
    universe = _Obj([("points", points), ("params", params)])
    top = _Obj([("format", "soft-space/1"), ("universe", universe), ("sets", sets)])
    if rng.random() < 0.5:
        top.append(("topology", ["PHI", "ABS"] + [name for name, _ in sets]))
    if rng.random() < 0.3:
        top.append(("absolute", rng.choice(sets)[0]))
    # The other object sections, each valid; a mutation that needs one
    # adds it.
    sections = {
        "functions": _Obj(
            [("f", _Obj((a, _Obj((p, rng.choice(points)) for p in points)) for a in params))]
        ),
        "elements": _Obj([("x", _Obj((a, rng.choice(points)) for a in params))]),
        "fuzz": _Obj([("case", "c"), ("aux", _Obj([("deep", _Obj([("leaf", [1, "s"])]))]))]),
    }
    for key, value in sections.items():
        if rng.random() < 0.3:
            top.append((key, value))

    def section(key: str) -> _Obj:
        if all(k != key for k, _ in top):
            top.append((key, sections[key]))
        return sections[key]

    for _ in range(rng.randint(0, 3)):
        objects = [(name, body) for name, body in sets if isinstance(body, _Obj) and body]
        if not objects:
            break
        name, body = rng.choice(objects)
        index = rng.randrange(len(body))
        param, entries = body[index]
        kind = rng.randrange(19)
        if 3 <= kind <= 5 and type(entries) is not list:
            entries = []
            body[index] = (param, entries)
        if kind == 0:  # missing parameter
            del body[index]
            if not body:
                body.append(("zz", []))
        elif kind == 1:  # unknown parameter
            body.insert(rng.randrange(len(body) + 1), ("zz", rng.sample(points, 1)))
        elif kind == 2:  # duplicate parameter: a repeated key inside a set
            body.insert(rng.randrange(len(body) + 1), (param, rng.sample(points, 1)))
        elif kind == 3:  # unknown point
            entries.insert(rng.randrange(len(entries) + 1), rng.choice(("q", "P0", "")))
        elif kind == 4:  # duplicate point
            entries.insert(rng.randrange(len(entries) + 1), rng.choice(points))
        elif kind == 5:  # non-string entry, hashable or not
            value = copy.deepcopy(rng.choice(_NON_STRINGS))
            entries.insert(rng.randrange(len(entries) + 1), value)
        elif kind == 6:  # a slice that is not an array, or a string of points
            spelled = "".join(rng.sample(points, rng.randint(1, len(points))))
            body[index] = (param, copy.deepcopy(rng.choice(_NON_LISTS + (spelled,))))
        elif kind == 7:  # a set that is not an object
            sets[[n for n, _ in sets].index(name)] = (name, rng.choice(([], "F", 0)))
        elif kind == 8:  # reserved names
            sets.append((rng.choice(("PHI", "ABS")), body))
        elif kind == 9:  # a repeated set name
            sets.append((name, _Obj((a, []) for a in params)))
        elif kind == 10:  # a repeated key at the top
            top.append(rng.choice(top))
        elif kind == 11:  # a parameter swapped for an unknown key, keeping the key count
            body[index] = ("zz", entries)
        elif kind == 13:  # a repeated key in the universe, with another value
            key, value = rng.choice(universe)
            universe.append((key, value[::-1]))
        elif kind == 14:  # a repeated function name
            functions = section("functions")
            functions.append(rng.choice(functions))
        elif kind == 15:  # a repeated source point in a function's point table
            _, table = rng.choice(rng.choice(section("functions"))[1])
            source, _ = rng.choice(table)
            table.insert(rng.randrange(len(table) + 1), (source, rng.choice(points)))
        elif kind == 16:  # a repeated element name, or parameter in an element
            elements = section("elements")
            target = rng.choice((elements, rng.choice(elements)[1]))
            target.append(rng.choice(target))
        elif kind == 17:  # a repeated key in the fuzz block, three objects deep
            deep = section("fuzz")[1][1][0][1]
            deep.append(("leaf", [2]))
        elif kind == 18:  # a set name holding ":" right before a repeated set name
            sets.append((f"{name}:{name}", _Obj((a, []) for a in params)))
            sets.append((name, _Obj((a, []) for a in params)))
        elif (
            param in params[:-1] and type(entries) is list and entries
            and all(e in points for e in entries)
        ):
            # The last point repeated until the slice's sum carries into the
            # next field, which names the point the carry lands on.
            total = sum(1 << points.index(e) for e in entries)
            while total >> len(points) + 1 == 0:
                entries.append(entries[-1])
                total += 1 << points.index(entries[-1])
            carry = total >> len(points) + 1
            landed = points[(carry & -carry).bit_length() - 1]
            after = params[params.index(param) + 1]
            for j, (key, value) in enumerate(body):
                if key == after:
                    named = value if type(value) is list else []
                    body[j] = (key, named if landed in named else named + [landed])
                    break
    return _dump(top)


def _outcome(text: str):
    try:
        doc = parse(text)
    except DocumentError as exc:
        return "issues", exc.issues
    return "parsed", ({name: f.bits for name, f in doc.sets.items()}, serialize(doc))


def _mutated_documents() -> list[str]:
    rng = random.Random(20261018)
    return [_mutated_document(rng) for _ in range(800)]


def test_decoder_matches_the_slice_wise_oracle(monkeypatch):
    seen: set[str] = set()
    parsed = 0
    for text in _mutated_documents():
        fast = _outcome(text)
        with monkeypatch.context() as patch:
            patch.setattr(document, "_decode_sets", _slice_wise_decode_sets)
            slow = _outcome(text)
        assert fast == slow, text
        kind, detail = fast
        if kind == "parsed":
            parsed += 1
        else:
            seen.update(message.split(" '")[0] for _, message in detail)
    # every mutation reached its message, and plenty of documents still parse
    assert parsed >= 100
    assert {
        "duplicate key",
        "expected an array of strings",
        "expected an object of parameter slices",
        "reserved name cannot be redefined",
        "unknown parameter",
        "unknown point",
        "duplicate point",
        "set",  # set 'S0' is missing the slice for parameter ...
        "absolute must be admissible and nonempty",
    } <= seen


def test_two_parses_of_one_document_share_the_universe():
    text = (FIXTURES / "ex23.json").read_text()
    first, second = parse(text), parse(text)
    assert first is not second
    assert first.universe is second.universe
    assert first.universe.point_bits is second.universe.point_bits


# --- one load, or two -------------------------------------------------------

def _hook_calls(monkeypatch) -> list:
    """Each ``_duplicate_checking_hook`` built from now on, by issue list."""
    calls = []
    hook = document._duplicate_checking_hook

    def counting(issues):
        calls.append(issues)
        return hook(issues)

    monkeypatch.setattr(document, "_duplicate_checking_hook", counting)
    return calls


def test_one_load_and_the_hooked_load_agree(monkeypatch):
    # A count of -1 never equals the colon count, so with it every text
    # takes the second, hooked load.
    texts = (
        _mutated_documents()
        + [read_fixture(name) for name in VALID]
        + [read_fixture(f"invalid/{name}") for name in INVALID]
    )
    calls = _hook_calls(monkeypatch)
    one_load = repeated = colon_names = 0
    seen: set[str] = set()
    for text in texts:
        before = len(calls)
        fast = _outcome(text)
        with monkeypatch.context() as patch:
            patch.setattr(document, "_counted_keys", lambda raw: -1)
            hooked = _outcome(text)
        assert fast == hooked, text
        kind, detail = fast
        if len(calls) == before + 1:
            one_load += 1
        if kind == "parsed" and ":" in json.dumps(json.loads(text)["universe"]):
            colon_names += 1
        if kind == "issues":
            keys = {message for _, message in detail if message.startswith("duplicate key")}
            repeated += bool(keys)
            seen |= keys
    # both paths ran often, universes with ":" in their names parsed, and a
    # repeated key was reported in every section the mutations reach
    assert one_load >= 120 and len(texts) - one_load >= 300
    assert colon_names >= 100
    assert repeated >= 200
    assert {
        "duplicate key 'f'",
        "duplicate key 'x'",
        "duplicate key 'leaf'",
        "duplicate key 'points'",
        "duplicate key 'params'",
        "duplicate key 'F'",
    } <= seen


def _full_document(points: int, params: int) -> str:
    universe = universe_for(GeneratorConfig(points=points, params=params, seed=0))
    return to_text(Instance(universe, (), full_topology(universe), {}))


def test_valid_documents_load_once(monkeypatch):
    calls = _hook_calls(monkeypatch)
    for name in VALID:
        parse(read_fixture(name))
    parse(_full_document(2, 4))
    parse(_full_document(3, 3))
    assert calls == []


def test_colons_in_strings_and_repeated_keys_load_again(monkeypatch):
    report = run_theorem("continuity_criteria_agree", GeneratorConfig(2, 2, seed=23, trials=2))
    text = canonical_json(report.counterexamples[0].document)
    assert '"drop-generator:' in text  # a shrink label
    calls = _hook_calls(monkeypatch)
    parse(text)
    assert len(calls) == 1
    with pytest.raises(DocumentError) as exc:
        parse_file(fixture_path("invalid/duplicate_name.json"))
    assert len(calls) == 2 and exc.value.issues == (("$", "duplicate key 'F'"),)
    # a name holding ":" beside a repeated key: both add to the colon
    # count's lead, so neither hides the other
    text = (
        '{"format": "soft-space/1", "universe": {"points": ["a:b"], "params": ["e"]},'
        ' "sets": {"S": {"e": []}, "S:T": {"e": ["a:b"]}, "S": {"e": []}}}'
    )
    with pytest.raises(DocumentError) as exc:
        parse(text)
    assert exc.value.issues == (("$", "duplicate key 'S'"),)


def test_a_deeply_nested_fuzz_block_parses(monkeypatch):
    calls = _hook_calls(monkeypatch)
    payload = json.loads(read_fixture("singleton.json"))
    block: dict = {}
    for _ in range(500):
        block = {"k": block}
    payload["fuzz"] = block
    doc = parse(json.dumps(payload))
    assert calls == []
    depth, block = 0, doc.extras["fuzz"]
    while block:
        depth, block = depth + 1, block["k"]
    assert depth == 500
