from __future__ import annotations

import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import softtopo
from softtopo import cli, topology
from softtopo.cli import main
from softtopo.document import parse, parse_file
from softtopo.fuzzing.harness import serialize_report

from conftest import FIXTURES, fixture_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- verify -------------------------------------------------------------------

def test_verify_valid(capsys):
    code, out, err = run(capsys, "verify", fixture_path("ex23.json"))
    assert (code, out, err) == (0, "valid topology\n", "")


def test_verify_invalid_topology(capsys):
    code, out, _ = run(capsys, "verify", fixture_path("not_closed.json"))
    assert code == 1
    assert out == (
        "not a valid topology:\n"
        "  - intersection-closure: (SoftSet(e1:{a}, e2:{a,b}), "
        "SoftSet(e1:{a,b}, e2:{a})) -> SoftSet(e1:{a}, e2:{a}) missing\n"
    )


def test_verify_document_error(capsys):
    code, out, err = run(capsys, "verify", fixture_path("invalid/missing_slice.json"))
    assert code == 2 and out == ""
    assert err == "error: $.sets.F: set 'F' is missing the slice for parameter 'e2'\n"


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json", fixture_path("ex23.json"))
    assert code == 0
    assert json.loads(out) == {"command": "verify", "valid": True, "violations": []}


def test_verify_json_lists_violations(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json", fixture_path("not_closed.json"))
    assert code == 1
    assert json.loads(out)["violations"] == [{
        "axiom": "intersection-closure",
        "offending": {"e1": ["a"], "e2": ["a"]},
        "witnesses": [{"e1": ["a"], "e2": ["a", "b"]}, {"e1": ["a", "b"], "e2": ["a"]}],
    }]


def test_verify_needs_topology(capsys):
    code, out, err = run(capsys, "verify", fixture_path("ex22.json"))
    assert code == 2
    assert "document carries no topology" in err


def test_verify_lists_a_repeated_member(capsys, tmp_path):
    doc = json.loads(pathlib.Path(fixture_path("ex23.json")).read_text(encoding="utf-8"))
    doc["topology"].append("F1")
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "verify", path)
    assert (code, err) == (1, "")
    # The offending set is its own witness, so no "-> ... missing" tail.
    assert out == (
        "not a valid topology:\n"
        "  - duplicate-member: (SoftSet(e1:{a}, e2:{b}),)\n"
    )


def test_commands_refuse_an_invalid_topology_with_one_line(capsys):
    bad = fixture_path("not_closed.json")
    domain, codomain = fixture_path("map_domain.json"), fixture_path("map_codomain.json")
    commands = (
        ("check", "hausdorff", bad),
        ("compute", "closure", bad, "--set", "ABS"),
        ("subspace", bad, "--points", "a"),
        ("map", "check", "--fn", "f", "--domain", bad, "--codomain", codomain),
        ("map", "check", "--fn", "f", "--domain", domain, "--codomain", bad),
    )
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == (
            f"error: {bad}: topology is not valid: intersection-closure: "
            "(SoftSet(e1:{a}, e2:{a,b}), SoftSet(e1:{a,b}, e2:{a})) "
            "-> SoftSet(e1:{a}, e2:{a}) missing\n"
        ), argv


def _unclosed_document(path: pathlib.Path, members: int, seed: int) -> str:
    """A 20x1 document of PHI, ABS and ``members - 2`` distinct seeded
    point sets; random sets this many are never closed under union."""
    rng = random.Random(seed)
    points = [f"p{i}" for i in range(20)]
    masks = rng.sample(range(1, 2**20 - 1), members - 2)
    sets = {
        f"S{k}": {"e0": [p for i, p in enumerate(points) if m >> i & 1]}
        for k, m in enumerate(masks)
    }
    path.write_text(json.dumps({
        "format": "soft-space/1",
        "universe": {"points": points, "params": ["e0"]},
        "sets": sets,
        "topology": ["PHI", "ABS", *sets],
    }))
    return str(path)


def test_refusal_scans_only_the_violations_it_names(capsys, tmp_path, monkeypatch):
    # A thousand members have about 5 * 10**5 pairs; listing every violation
    # took over 5 s, the four the message names take a fraction of that.
    big = _unclosed_document(tmp_path / "big.json", 1000, seed=1)
    read = []

    def counted(topo):
        for v in violations_of(topo):
            read.append(v)
            yield v

    violations_of = cli.violations_of
    monkeypatch.setattr(cli, "violations_of", counted)
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "hausdorff", big)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {big}: topology is not valid: ")
    assert len(read) == 4
    assert err.endswith("; ".join(v.describe() for v in read) + "\n")

    small = _unclosed_document(tmp_path / "small.json", 60, seed=2)
    code, out, err = run(capsys, "check", "hausdorff", small)
    report = topology.verify(parse_file(small).topology)
    details = "; ".join(v.describe() for v in report.violations[:4])
    assert len(report.violations) > 4
    assert (code, out) == (2, "")
    assert err == f"error: {small}: topology is not valid: {details}\n"


# --- check --------------------------------------------------------------------

def test_check_hausdorff(capsys):
    code, out, _ = run(capsys, "check", "hausdorff", fixture_path("ex23.json"))
    assert code == 1
    assert out == "hausdorff: fails\n  counterexample: [(a,a), (b,b)]\n"

    code, out, _ = run(capsys, "check", "hausdorff", fixture_path("tau_full_2x2.json"))
    assert code == 0
    assert out == "hausdorff: holds\n  witness: [(a,a), (b,b), ({a},{a}), ({b},{b})]\n"


def test_check_baire(capsys):
    code, out, _ = run(capsys, "check", "baire", fixture_path("ex23.json"))
    assert code == 0
    assert out == "baire: holds\n  rare_closed: 2\n  union_interior: ({},{})\n"


def test_check_compactness_family(capsys):
    code, out, _ = run(capsys, "check", "quasi-compact", fixture_path("ex23.json"))
    assert code == 0
    assert out == (
        "quasi-compact: holds\n"
        "  justification: every open cover is a subfamily of the finite member "
        "list, hence finite\n"
    )
    code, out, _ = run(
        capsys, "check", "quasi-compact", "--format", "json", fixture_path("ex23.json")
    )
    assert code == 0
    assert out == (
        '{\n  "command": "check",\n  "holds": true,\n'
        '  "justification": "every open cover is a subfamily of the finite member '
        'list, hence finite",\n'
        '  "property": "quasi-compact"\n}\n'
    )

    code, out, _ = run(capsys, "check", "compact", fixture_path("ex23.json"))
    assert code == 1
    assert out == "compact: fails\n  quasi_compact: True\n  hausdorff: False\n"

    code, out, _ = run(
        capsys, "check", "compact-set", fixture_path("tau_full_2x2.json"), "--set", "M1"
    )
    assert code == 0
    assert out == (
        "compact-set: holds\n  set: M1\n"
        "  admissible: True\n  complement_admissible: True\n"
    )
    code, out, _ = run(
        capsys, "check", "compact-set", "--format", "json",
        fixture_path("tau_full_2x2.json"), "--set", "M1",
    )
    assert code == 0
    assert out == (
        '{\n  "admissible": true,\n  "command": "check",\n'
        '  "complement_admissible": true,\n  "holds": true,\n'
        '  "property": "compact-set",\n  "set": "M1"\n}\n'
    )

    code, out, _ = run(capsys, "check", "locally-compact", fixture_path("tau_full_2x2.json"))
    assert (code, out) == (0, "locally-compact: holds\n")


@pytest.mark.parametrize("prop", ["compact-set", "nowhere-dense", "first-category"])
def test_check_set_scoped_requires_set(capsys, prop):
    code, _, err = run(capsys, "check", prop, fixture_path("tau_full_2x2.json"))
    assert code == 2
    assert err == f"error: check {prop} requires --set NAME\n"


def test_check_category(capsys):
    code, out, _ = run(
        capsys, "check", "nowhere-dense", fixture_path("ex23.json"), "--set", "F"
    )
    assert code == 1 and out == "nowhere-dense: fails\n  set: F\n"

    code, out, _ = run(
        capsys, "check", "first-category", fixture_path("ex23.json"), "--set", "F"
    )
    assert code == 1
    assert out == "first-category: fails\n  set: F\n  verdict: second-category\n  pieces: 0\n"


# --- compute ------------------------------------------------------------------

def test_compute_closure_interior(capsys):
    code, out, _ = run(
        capsys, "compute", "closure", fixture_path("ex23.json"), "--set", "F"
    )
    assert (code, out) == (0, "closure(F) = ({b,c,d},{a,c,d})\n")
    code, out, _ = run(
        capsys, "compute", "interior", fixture_path("ex23.json"), "--set", "G"
    )
    assert (code, out) == (0, "interior(G) = ({a},{b})\n")


def test_compute_limiting_readings(capsys):
    code, out, _ = run(
        capsys, "compute", "limiting", fixture_path("ex23.json"), "--set", "F"
    )
    assert (code, out) == (0, "limiting(F) [per-parameter] = (b,a) (b,d) (d,a) (d,d)\n")
    code, out, _ = run(
        capsys, "compute", "limiting", fixture_path("ex23.json"), "--set", "F",
        "--reading", "whole-open",
    )
    assert code == 0
    assert out == (
        "limiting(F) [whole-open] = (a,a) (a,d) (b,a) (b,b) (b,d) (d,a) (d,b) (d,d)\n"
    )


def _json_bytes(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_compute_json(capsys):
    ex23 = fixture_path("ex23.json")
    code, out, _ = run(capsys, "compute", "closure", ex23, "--set", "F", "--format", "json")
    assert code == 0
    assert out == _json_bytes({
        "command": "compute", "operation": "closure", "set": "F",
        "result": {"e1": ["b", "c", "d"], "e2": ["a", "c", "d"]},
    })
    code, out, _ = run(capsys, "compute", "interior", ex23, "--set", "G", "--format", "json")
    assert code == 0
    assert out == _json_bytes({
        "command": "compute", "operation": "interior", "set": "G",
        "result": {"e1": ["a"], "e2": ["b"]},
    })
    code, out, _ = run(capsys, "compute", "limiting", ex23, "--set", "F", "--format", "json")
    assert code == 0
    assert out == _json_bytes({
        "command": "compute", "operation": "limiting", "set": "F",
        "reading": "per-parameter",
        "result": [{"e1": a, "e2": b} for a, b in ("ba", "bd", "da", "dd")],
    })


# --- elements -----------------------------------------------------------------

def test_elements_listing(capsys):
    code, out, _ = run(capsys, "elements", fixture_path("ex23.json"), "--set", "F1")
    assert (code, out) == (0, "F1: 1 soft elements\n  (a,b)\n")


def test_elements_guard(capsys, tmp_path):
    # 40^4 soft elements sits past the million-element guard
    doc = {
        "format": "soft-space/1",
        "universe": {
            "points": [f"p{i}" for i in range(40)],
            "params": [f"e{i}" for i in range(4)],
        },
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "elements", str(path), "--set", "ABS")
    assert code == 2 and out == ""
    assert "exceeds the guard" in err and "--force" not in err


def test_elements_json(capsys):
    code, out, _ = run(
        capsys, "elements", fixture_path("ex23.json"), "--set", "F1", "--format", "json"
    )
    assert code == 0
    assert out == _json_bytes({
        "command": "elements", "set": "F1", "count": 1,
        "elements": [{"e1": "a", "e2": "b"}],
    })


def test_elements_has_no_force_flag(capsys):
    argv = ["elements", "--set", "ABS", fixture_path("ex23.json"), "--force"]
    code, out, err = _outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert err.endswith("softtopo: error: unrecognized arguments: --force\n")


# --- subspace -----------------------------------------------------------------

def test_subspace_text(capsys):
    code, out, _ = run(
        capsys, "subspace", fixture_path("ex31.json"), "--points", "a,c"
    )
    assert code == 0
    assert out == (
        "subspace on {a,c}:\n"
        "  PHI = ({},{})\n"
        "  ABS = ({a,c},{a,c})\n"
        "  F_Y = ({a},{c})\n"
        "  G_Y = ({c},{a})\n"
    )


def test_subspace_names_traces_after_their_first_origin(capsys):
    # S1 meets {b,c} in the null trace and S3 in S2's, so each later trace
    # sits at a lower index than the parent member it is named after.
    code, out, _ = run(
        capsys, "subspace", fixture_path("hausdorff_1param.json"), "--points", "b,c"
    )
    assert code == 0
    assert out == (
        "subspace on {b,c}:\n"
        "  PHI = ({})\n"
        "  S2_Y = ({b})\n"
        "  S4_Y = ({c})\n"
        "  ABS = ({b,c})\n"
    )


def test_subspace_violation(capsys):
    code, out, _ = run(
        capsys, "subspace", fixture_path("ex31.json"), "--points", "b,c,d"
    )
    assert code == 1
    assert out == (
        "subspace preconditions violated: "
        "member 2 meets the carrier outside the admissible family; "
        "member 3 meets the carrier outside the admissible family\n"
    )


def test_subspace_json_reparses(capsys):
    code, out, _ = run(
        capsys, "subspace", "--format", "json", fixture_path("ex31.json"),
        "--points", "a,c",
    )
    assert code == 0
    doc = parse(out)
    assert doc.absolute_name == "Y"
    assert doc.topology_names == ("PHI", "ABS", "F_Y", "G_Y")
    assert doc.topology is not None
    u = doc.universe
    assert u.points == ("a", "b", "c", "d")
    assert doc.topology.absolute == doc.sets["Y"]


def test_subspace_listing_is_bounded_on_a_full_topology(capsys, tmp_path):
    from softtopo.core import Universe
    from softtopo.fuzzing.instances import Instance, to_text
    from softtopo.topology import full_topology

    universe = Universe.of(("x0", "x1", "x2"), ("e0", "e1"))
    path = tmp_path / "full-3x2.json"
    path.write_text(to_text(Instance(universe, (), full_topology(universe), {})))
    code, out, err = run(capsys, "subspace", path, "--points", "x0", "--format", "json")
    assert code == 1 and err == ""
    payload = json.loads(out)
    total = len(payload["pair_violations"]) + len(payload["trace_violations"])
    assert total > 10
    code, out, err = run(capsys, "subspace", path, "--points", "x0")
    assert code == 1 and err == ""
    # One line: the first ten violations in order, then the number left.
    first = "; ".join(
        f"members {i} and {j} have an inadmissible elementary meet"
        for i, j in payload["pair_violations"][:10]
    )
    assert out == (
        f"subspace preconditions violated: {first} (+{total - 10} more, {total} in all)\n"
    )


# --- map check ------------------------------------------------------------------

def test_map_check_divergence(capsys):
    code, out, _ = run(
        capsys, "map", "check", "--fn", "f",
        "--domain", fixture_path("map_domain.json"),
        "--codomain", fixture_path("map_codomain.json"),
    )
    assert code == 1
    assert out == (
        "definitional: continuous\n"
        "preimage:     not continuous\n"
        "criteria diverge\n"
    )


def test_map_check_agreement(capsys):
    code, out, _ = run(
        capsys, "map", "check", "--fn", "f",
        "--domain", fixture_path("map_domain.json"),
        "--codomain", fixture_path("map_domain.json"),
    )
    assert code == 0
    assert out.endswith("criteria agree\n")


def test_map_format_goes_after_check(capsys):
    files = ("--domain", fixture_path("map_domain.json"),
             "--codomain", fixture_path("map_codomain.json"))
    code, out, _ = run(capsys, "map", "check", "--format", "json", "--fn", "f", *files)
    assert code == 1
    assert json.loads(out)["agree"] is False
    # Before the subcommand the flag is refused, not silently overridden.
    code, out, err = _outcome(capsys, ["map", "--format", "json", "check", "--fn", "f", *files])
    assert (code, out) == (2, "")
    # argparse words the error differently across versions.
    assert "softtopo map: error:" in err
    assert "Traceback" not in err


def test_map_check_unknown_function(capsys):
    code, _, err = run(
        capsys, "map", "check", "--fn", "g",
        "--domain", fixture_path("map_domain.json"),
        "--codomain", fixture_path("map_codomain.json"),
    )
    assert code == 2 and "no function named 'g'" in err


# --- fuzz ---------------------------------------------------------------------

def test_fuzz_vacuity_detector(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--case", "thm_4_6_vacuity", "--trials", "5", "--seed", "3"
    )
    assert code == 0
    assert out == (
        "case thm_4_6_vacuity: all-skipped\n"
        "  trials=5 confirmed=0 skipped=5 counterexamples=0\n"
        "  seed=3 points=4 params=2 algorithm=split-sha256/mt19937-v2\n"
    )


def test_fuzz_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("SOFTTOPO_SEED", "3")
    code, out, _ = run(
        capsys, "fuzz", "--case", "thm_4_6_vacuity", "--trials", "5"
    )
    assert code == 0 and "seed=3" in out


def test_fuzz_seed_env_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("SOFTTOPO_SEED", "abc")
    code, out, err = run(
        capsys, "fuzz", "--case", "thm_4_1", "--trials", "1",
        "--points", "2", "--params", "1",
    )
    assert (code, out) == (2, "")
    assert err == "error: SOFTTOPO_SEED must be an integer, got 'abc'\n"


def test_fuzz_workers_accepts_only_one(capsys):
    argv = ["fuzz", "--case", "thm_4_1", "--trials", "1", "--points", "2", "--params", "1"]
    for workers in ("0", "2"):
        code, out, err = _outcome(capsys, [*argv, "--workers", workers])
        assert (code, out) == (2, "")
        # argparse words the list of choices differently across versions.
        assert "argument --workers: invalid choice" in err
        assert "Traceback" not in err
    code, _, err = run(capsys, *argv, "--workers", "1")
    assert (code, err) == (0, "")


def test_fuzz_separated_draw_over_budget(capsys):
    # 7x2 has a 16130-member full topology, just over the budget
    code, out, err = run(
        capsys, "fuzz", "--case", "thm_4_2", "--trials", "1",
        "--points", "7", "--params", "2",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: separated draws at 7x2 may need the full topology of 16130 "
        "members, over the budget of 4096\n"
    )


def test_fuzz_shape_over_budget(capsys):
    # 65 ** 2 = 4225 soft elements, just over the budget
    code, out, err = run(
        capsys, "fuzz", "--case", "lem_3_1", "--trials", "1",
        "--points", "65", "--params", "2",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: a 65x2 universe is over the budget: points, params and "
        "points ** params must each be at most 4096\n"
    )


def test_fuzz_sizes_over_budget(capsys):
    # Draws and closures allocate in proportion to these sizes; 4097 is
    # refused before any trial runs, 4096 is the budget itself.
    for flag in ("--subbase", "--max-topology"):
        code, out, err = run(capsys, "fuzz", "--case", "thm_4_3", flag, "4097")
        assert (code, out) == (2, ""), flag
        assert err == "error: subbase_size and max_topology must each be at most 4096\n"
        code, out, err = run(capsys, "fuzz", "--case", "thm_4_3", "--trials", "2", flag, "4096")
        assert (code, err) == (0, ""), flag
    # Every counterexample record is kept until the report is written, so
    # the trial count is bounded too.
    code, out, err = run(capsys, "fuzz", "--case", "thm_4_3", "--trials", "100001")
    assert (code, out, err) == (2, "", "error: trials must be at most 100000\n")


def _constant_doc(tmp_path, points, params):
    path = tmp_path / f"doc{points}x{params}.json"
    path.write_text(json.dumps({
        "format": "soft-space/1",
        "topology": ["PHI", "ABS"],
        "universe": {
            "params": [f"e{k}" for k in range(params)],
            "points": [f"p{i}" for i in range(points)],
        },
    }))
    return path


def test_check_over_the_element_budget(capsys, tmp_path):
    # 12 ** 4 = 20736 soft elements: refused before any is built
    code, out, err = run(capsys, "check", "hausdorff", _constant_doc(tmp_path, 12, 4))
    assert (code, out) == (2, "")
    assert err == "error: the absolute has 20736 soft elements, over the budget of 4096\n"
    # 8 ** 4 = 4096 is the budget itself
    code, out, err = run(capsys, "check", "hausdorff", _constant_doc(tmp_path, 8, 4))
    assert (code, err) == (1, "")
    assert out.startswith("hausdorff: fails\n")


def test_hostile_documents_exit_2_with_one_line(capsys, tmp_path):
    # 64 x 64 point-parameter pairs is the layout budget itself
    code, out, err = run(capsys, "verify", _constant_doc(tmp_path, 64, 64))
    assert (code, out, err) == (0, "valid topology\n", "")
    # nested past the interpreter's recursion limit, in arrays and objects
    arrays = tmp_path / "arrays.json"
    arrays.write_text("[" * 100000 + "]" * 100000)
    objects = tmp_path / "objects.json"
    objects.write_text('{"a":' * 100000 + "1" + "}" * 100000)
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe")
    digits = tmp_path / "digits.json"
    digits.write_text('{"format": ' + "1" * 5000 + "}")
    expected = {
        _constant_doc(tmp_path, 65, 64): "$.universe: 65 points x 64 parameters is over the "
        "budget of 4096 point-parameter pairs",
        arrays: "$: invalid JSON: nesting too deep",
        objects: "$: invalid JSON: nesting too deep",
        raw: f"{raw}: cannot read document: not UTF-8 (invalid start byte at byte 0)",
        # the interpreter words the rest of this one
        digits: "$: invalid JSON: Exceeds the limit (4300 digits)",
    }
    for path, message in expected.items():
        code, out, err = run(capsys, "check", "hausdorff", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1



def test_names_with_a_lone_surrogate_exit_2_with_one_line(capsys, tmp_path):
    # a UTF-8 stdout cannot write such a name, so it must never reach output
    env = {
        **os.environ,
        "PYTHONIOENCODING": "utf-8",
        "PYTHONPATH": str(pathlib.Path(softtopo.__file__).parents[1]),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "softtopo.cli", "check", "hausdorff",
         fixture_path("invalid/lone_surrogate.json")],
        capture_output=True, text=True, env=env, check=False,
    )
    message = "name '\\udcff' holds a lone surrogate"
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: $.universe.points: {message}\n"
    base = {
        "format": "soft-space/1",
        "universe": {"points": ["a", "b"], "params": ["e1"]},
        "topology": ["PHI", "ABS"],
    }
    declared = {
        "$.universe.params": {"universe": {"points": ["a", "b"], "params": ["\udcff"]}},
        "$.sets": {"sets": {"\udcff": {"e1": ["a"]}}, "topology": ["PHI", "\udcff", "ABS"]},
        "$.functions": {"functions": {"\udcff": {"e1": {"a": "a", "b": "b"}}}},
        "$.elements": {"elements": {"\udcff": {"e1": "a"}}},
    }
    for path, fields in declared.items():
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({**base, **fields}))
        code, out, err = run(capsys, "check", "hausdorff", doc)
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n"), path


def test_one_check_builds_the_minimal_mask_table_once(capsys, monkeypatch):
    calls = []
    masks = topology._minimal_masks
    monkeypatch.setattr(
        topology, "_minimal_masks", lambda members: calls.append(members) or masks(members)
    )
    commands = [("check", prop) for prop in (
        "hausdorff", "regular", "normal", "quasi-compact", "compact", "locally-compact", "baire",
    )]
    for name in ("ex23.json", "tau_full_2x2.json"):
        for command in commands + [("compute", "interior", "--set", "ABS")]:
            calls.clear()
            run(capsys, *command[:2], fixture_path(name), *command[2:])
            assert len(calls) == 1, (name, command)


def test_fuzz_unknown_case(capsys):
    code, _, err = run(capsys, "fuzz", "--case", "nope", "--trials", "1")
    assert code == 2
    assert err.startswith("error: unknown case 'nope'; known cases: ")


def test_fuzz_counterexample_sidecar(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "fuzz", "--case", "prop_4_1a", "--trials", "100", "--seed", "23",
        "--points", "2", "--params", "2", "--out", str(report_path),
    )
    assert code == 1
    sidecar = tmp_path / "report.json.counterexample.json"
    assert f"minimal counterexample written to {sidecar}" in out
    assert report_path.exists() and sidecar.exists()
    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["case"] == "prop_4_1a"
    assert payload["verdict"] == "counterexample"
    # the sidecar is itself a canonical space document
    parse(sidecar.read_text(encoding="utf-8"))

    # without --out the sidecar lands in the working directory, by case name
    code, out, _ = run(
        capsys, "fuzz", "--case", "prop_4_1a", "--trials", "100", "--seed", "23",
        "--points", "2", "--params", "2",
    )
    assert code == 1
    assert (tmp_path / "prop_4_1a.counterexample.json").exists()


def test_fuzz_unwritable_out(capsys, tmp_path):
    missing = tmp_path / "no-such-dir" / "x.json"
    code, out, err = run(
        capsys, "fuzz", "--case", "thm_4_1", "--trials", "1",
        "--points", "2", "--params", "1", "--out", str(missing),
    )
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {missing}: No such file or directory\n"


def test_fuzz_unwritable_counterexample_prints_nothing(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    # a directory where the sidecar should go makes its write fail
    (tmp_path / "report.json.counterexample.json").mkdir()
    code, out, err = run(
        capsys, "fuzz", "--case", "prop_4_1a", "--trials", "100", "--seed", "23",
        "--points", "2", "--params", "2", "--out", str(report_path),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_fuzz_json_report_matches_out_file(capsys, tmp_path, monkeypatch):
    serialized = []

    def counting(report):
        serialized.append(report.case_id)
        return serialize_report(report)

    monkeypatch.setattr(cli, "serialize_report", counting)
    runs = (
        ("thm_4_6_vacuity", ("--trials", "5", "--seed", "3"), "all-skipped"),
        ("thm_4_3", ("--points", "4", "--params", "1", "--trials", "5", "--seed", "0"),
         "confirmed"),
    )
    for case, extra, verdict in runs:
        out_path = tmp_path / f"{case}.json"
        code, out, _ = run(
            capsys, "fuzz", "--format", "json", "--case", case, *extra,
            "--out", str(out_path),
        )
        assert code == 0
        assert out.encode("utf-8") == out_path.read_bytes()
        payload = json.loads(out)
        assert payload["algorithm"] == "split-sha256/mt19937-v2"
        assert payload["verdict"] == verdict
    assert serialized == [case for case, _, _ in runs]


def _json_command_lines(path: pathlib.Path):
    """Every ``--format json`` command line on one fixture: verify, each
    check, compute and elements on every set name, and the subspace on
    every carrier."""
    doc = parse(path.read_text())
    names = [*doc.sets, "PHI", "ABS"]
    yield ("verify", path)
    for prop, (needs_set, _) in cli._PROPERTIES.items():
        for extra in [("--set", name) for name in names] if needs_set else [()]:
            yield ("check", prop, path, *extra)
    for name in names:
        for operation in ("closure", "interior"):
            yield ("compute", operation, path, "--set", name)
        for reading in ("per-parameter", "whole-open"):
            yield ("compute", "limiting", path, "--set", name, "--reading", reading)
        yield ("elements", path, "--set", name)
    points = doc.universe.points
    for size in range(1, len(points) + 1):
        for carrier in itertools.combinations(points, size):
            yield ("subspace", path, "--points", ",".join(carrier))


def test_json_outputs_match_json_dumps_on_the_fixtures(capsys, tmp_path):
    # Each output must be json.dumps's text of its own parse; subspace
    # documents keep non-ASCII names, as ``serialize`` does.
    outputs = {}
    for path in sorted(FIXTURES.glob("*.json")):
        for argv in _json_command_lines(path):
            _, out, _ = run(capsys, *argv, "--format", "json")
            outputs[argv] = out
    outputs["map"] = run(
        capsys, "map", "check", "--format", "json", "--fn", "f",
        "--domain", fixture_path("map_domain.json"),
        "--codomain", fixture_path("map_codomain.json"),
    )[1]
    # stdout adds a line naming the counterexample file, so read the files
    report = tmp_path / "report.json"
    run(
        capsys, "fuzz", "--format", "json", "--case", "continuity_criteria_agree",
        "--points", "2", "--params", "2", "--trials", "25", "--seed", "23", "--out", report,
    )
    outputs["fuzz"] = report.read_text()
    outputs["counterexample"] = (tmp_path / "report.json.counterexample.json").read_text()
    checked = 0
    for argv, out in outputs.items():
        if out:
            ascii_only = argv[0] != "subspace"
            assert out == json.dumps(
                json.loads(out), sort_keys=True, indent=2, ensure_ascii=ascii_only
            ) + "\n", argv
            checked += 1
    assert checked > 400


# --- parser ---------------------------------------------------------------------

def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on --help and on bad argv
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    regular = ("check", "regular", fixture_path("tau_full_2x2.json"))
    limiting = ("compute", "limiting", fixture_path("ex23.json"), "--set", "F")
    vacuity = ("fuzz", "--case", "thm_4_6_vacuity", "--trials", "5")
    cases = [
        (regular, None),
        (vacuity + ("--seed", "3"), None),
        (vacuity, "7"),
        (limiting + ("--reading", "whole-open"), None),
        (limiting, None),
        (("bogus",), None),
        (("--help",), None),
        (regular, None),
    ]
    cli.build_parser.cache_clear()
    outcomes = []
    for argv, env_seed in cases:
        if env_seed is None:
            monkeypatch.delenv("SOFTTOPO_SEED", raising=False)
        else:
            monkeypatch.setenv("SOFTTOPO_SEED", env_seed)
        cached = _outcome(capsys, list(argv))
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            assert _outcome(capsys, list(argv)) == cached
        outcomes.append(cached)
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(cases) - 1)

    codes = [code for code, _, _ in outcomes]
    assert codes == [0, 0, 0, 0, 0, 2, 0, 0]
    assert "seed=3" in outcomes[1][1] and "seed=7" in outcomes[2][1]
    # --reading whole-open did not stick to the next call
    assert "[whole-open]" in outcomes[3][1] and "[per-parameter]" in outcomes[4][1]
    assert outcomes[5][1] == "" and outcomes[5][2].startswith("usage: softtopo")
    assert outcomes[6][1].startswith("usage: softtopo") and outcomes[6][2] == ""
    assert outcomes[7] == outcomes[0]


def _parsed(capsys, parse, argv):
    """Exit code (None when parsing returned), stdout, stderr and the
    namespace of one parse of argv."""
    try:
        code, args = None, vars(parse(argv))
    except SystemExit as exc:
        code, args = exc.code, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err, args


def test_argv_dispatch_matches_the_main_parser(capsys, monkeypatch):
    ex23 = fixture_path("ex23.json")
    domain, codomain = fixture_path("map_domain.json"), fixture_path("map_codomain.json")
    cases = [
        [],
        ["--help"],
        ["bogus", "verify", ex23],
        ["check", "hausdorff"],
        ["check", "hausdorff", ex23, "--bogus"],
        ["verify", ex23, "stray"],
        ["fuzz", "--case", "thm_4_3", "--trials", "many"],
        ["check", "--format", "json", "--", "regular", ex23],
        ["map"],
        ["map", "check"],
        ["map", "check", "--fn", "f", "--domain", domain, "--codomain", codomain],
        ["check", "-h"],
        ["compute", "limiting", ex23, "--set", "F", "--reading", "whole-open"],
        # A call of the fuzz-separated benchmark workload.
        ["fuzz", "--case", "thm_4_2", "--trials", "25", "--seed", "7", "--points", "5",
         "--params", "2", "--workers", "1", "--out", "call000-thm_4_2.json"],
    ]
    parser = cli.build_parser()
    parsed = []
    for argv in cases:
        expected = _parsed(capsys, parser.parse_args, list(argv))
        assert _parsed(capsys, cli._parse_args, list(argv)) == expected, argv
        if expected[0] is not None:
            # Help and argv errors exit from main with the same bytes.
            assert _outcome(capsys, list(argv)) == expected[:3], argv
        parsed.append(expected)
    assert [code for code, *_ in parsed] == [2, 0, 2, 2, 2, 2, 2, None, 2, 2, None, 0, None, None]
    assert parsed[4][2].startswith("usage: softtopo [-h]")
    assert parsed[4][2].endswith("softtopo: error: unrecognized arguments: --bogus\n")
    assert "softtopo check: error:" in parsed[3][2]
    assert parsed[7][3]["command"] == "check" and parsed[7][3]["format"] == "json"

    # A command line that names a command never reaches the main parser.
    def refuse(*args, **kwargs):
        raise AssertionError("the main parser parsed a command line")

    monkeypatch.setattr(parser, "parse_known_args", refuse)
    for argv, (code, _, _, args) in zip(cases, parsed):
        if code is None:
            assert vars(cli._parse_args(list(argv))) == args


# --- check output bytes -------------------------------------------------------

CHECK_COMMANDS = (
    ("hausdorff",), ("regular",), ("normal",), ("quasi-compact",), ("compact",),
    ("locally-compact",), ("baire",),
)


def _check_documents(tmp_path):
    """Every fixture whose topology verifies, the full 2x4 and 3x3 spaces,
    and eight seeded random 3x2/4x2 spaces written like the benchmark's."""
    from softtopo.fuzzing.generate import (
        GeneratorConfig, gen_topology_with_subbase, trial_rng, universe_for,
    )
    from softtopo.fuzzing.instances import Instance, to_text
    from softtopo.topology import full_topology

    docs = {}
    for path in sorted(FIXTURES.glob("*.json")):
        topo = parse(path.read_text()).topology
        if topo is not None and topology.verify(topo).valid:
            docs[path.name] = path.read_text()
    for points, params in ((2, 4), (3, 3)):
        universe = universe_for(GeneratorConfig(points, params, seed=0))
        docs[f"full-{points}x{params}"] = to_text(
            Instance(universe, (), full_topology(universe), {})
        )
    for points, params in ((3, 2), (4, 2)):
        config = GeneratorConfig(points, params, seed=19)
        for i in range(4):
            subbase, topo = gen_topology_with_subbase(config, trial_rng(config, i))
            docs[f"random-{points}x{params}-{i}"] = to_text(
                Instance(topo.universe, subbase, topo, {})
            )
    paths = {}
    for name, text in docs.items():
        paths[name] = tmp_path / f"{name}.doc"
        paths[name].write_text(text, encoding="utf-8")
    return paths


def test_check_output_bytes_match_the_pinned_digests(capsys, tmp_path):
    # SHA-256 over the exit code, stdout and stderr of every check command
    # on a document, in text and json, in command order.
    digests = {}
    for name, path in _check_documents(tmp_path).items():
        h = hashlib.sha256()
        for command in CHECK_COMMANDS:
            for fmt in ("text", "json"):
                code, out, err = run(capsys, "check", *command, path, "--format", fmt)
                h.update(f"{code}\0{out}\0{err}\0".encode())
        digests[name] = h.hexdigest()
    assert digests == CHECK_DIGESTS


# A faster scan must find the same first verdict, witness and counterexample,
# so these change only with a deliberate change of report bytes.
CHECK_DIGESTS = {
    "ex23.json": "3978b6a6117cc8afe49a3f2e332d2059afa2b7d7680887d9dcc19e1298f091a9",
    "ex31.json": "130e4b87836365ad54e7daa28115f02ded152463f45b0d5ba6b0393583dfa4b7",
    "hausdorff_1param.json": "4cbfda3e0a531cab479f30126f36d906b0bf196497eb53662da7a0c97477a80c",
    "indiscrete_2x2.json": "bc68d6de86fc15b9cab852dce4ec700ed715d5a44479764ac3f24aefa6c18d8b",
    "map_codomain.json": "00b5ee87390379d00f1298d673649c663d3b5d7b08e70ed7521ebcb49b376b91",
    "map_domain.json": "bc68d6de86fc15b9cab852dce4ec700ed715d5a44479764ac3f24aefa6c18d8b",
    "singleton.json": "7440b55d3672f01adba78b8bacf95b9e854d252ff855dbe4f77c30f789ad2546",
    "tau_full_2x2.json": "7e009bd7d96d8c9bfcada16328ddc29f301eb0369f4d89f2fb53261ab9b87693",
    "full-2x4": "8b985950a68f3618d9dd73ec63c64c2c709f2a985f3020653e6be1b109398eb8",
    "full-3x3": "d7c10778d0194b7908e1a082ea6991b68cac3c4f7cb28c8b005a266cddfd4d40",
    "random-3x2-0": "c945335db859fc6c365e95b847b1a5edf550290e80bd435c8c169a6cf627891f",
    "random-3x2-1": "89a5e49da17da0d6abc08cff2fc224db96ba51448d4d9fc441b0ab0ef64ef54d",
    "random-3x2-2": "98c9eb28700793bc835da0161c7f36f1ba08c3754ec8b40094158c95e89ecb7f",
    "random-3x2-3": "fd311c9eb31ef6f3e0d8f52ecbbebeab23676abcc5352a263cfc382a8dbdb690",
    "random-4x2-0": "ef178606aa5316268a758da7fbef65450e8d27684cfca975f09555bd02f3e2cf",
    "random-4x2-1": "edb63f92dbb84f022792b7e9d9b16ae21b083b8e8a1bcc0b318c73950dee7292",
    "random-4x2-2": "bbb3da683d6fb9772c361b4b1ce28e8f72f2924b8b36405e49b9d5c5495af5b1",
    "random-4x2-3": "9af3c95755c8ce2d1dcd320a49ff3459d404248cd295d0cb5dd28b5be96d688c",
}


SET_CHECK_COMMANDS = ("compact-set", "nowhere-dense", "first-category")


def test_set_check_output_bytes_match_the_pinned_digests(capsys):
    # SHA-256 over the exit code, stdout and stderr of every set-scoped
    # check on every named set of a fixture whose topology verifies, plus
    # PHI and ABS, in text and json, in property and name order.
    digests = {}
    for path in sorted(FIXTURES.glob("*.json")):
        doc = parse(path.read_text())
        topo = doc.topology
        if topo is None or not topology.verify(topo).valid:
            continue
        h = hashlib.sha256()
        for prop in SET_CHECK_COMMANDS:
            for name in dict.fromkeys([*doc.sets, "PHI", "ABS"]):
                for fmt in ("text", "json"):
                    code, out, err = run(
                        capsys, "check", prop, str(path), "--set", name, "--format", fmt
                    )
                    h.update(f"{code}\0{out}\0{err}\0".encode())
        digests[path.name] = h.hexdigest()
    assert digests == SET_CHECK_DIGESTS


SET_CHECK_DIGESTS = {
    "ex23.json": "7b801b01482c13c5bdfdb59afdddfda50ef2c7e2c227efdb4dab4a97e926a5ad",
    "ex31.json": "400de3212d190a589776c0519d9e444eaef80284c6507622ebca4b738c78509a",
    "hausdorff_1param.json": "2324874693f558e29f751b2ffeeab856c7608eda5e21195cb28983b5a0489fe3",
    "indiscrete_2x2.json": "ce0beb723bece9ac014853beb7debef5097faf1627183598c0029842633dc7a3",
    "map_codomain.json": "cda4e14b94bed4873e58ec67ef5006816f3bb4ed4b3b7beef1284e33ed7a88da",
    "map_domain.json": "079c39228eb946f5a2996e91f46bc3a1eb8f157d28846991ac4092024ae7a519",
    "singleton.json": "48e7495c119f34e8a127701e8a6df1169a7469c729aa529b6db4cd199c7714a9",
    "tau_full_2x2.json": "a5994e02f6c31ca0653ea86b41b69d4b9339ac460d408646aff4659087252b21",
}
