from __future__ import annotations

import json
from importlib import resources

import jsonschema
import pytest

from softtopo.core import SoftElement, full_set, null_set
from softtopo.document import (
    parse,
    parse_file,
    resolve_set,
    serialize,
)
from softtopo.errors import DocumentError, InputError

from conftest import FIXTURES, fixture_path, soft

VALID = sorted(p.name for p in FIXTURES.glob("*.json"))
INVALID = sorted(p.name for p in (FIXTURES / "invalid").glob("*.json"))


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def test_fixture_corpus_is_big_enough():
    assert len(VALID) >= 10
    assert len(INVALID) == 5


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


ISSUE_BY_FIXTURE = {
    "bad_format.json": ("$.format", "expected 'soft-space/1'"),
    "duplicate_name.json": ("$", "duplicate key 'F'"),
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
        "missing_slice.json": False,
        "unknown_point.json": False,
    }
