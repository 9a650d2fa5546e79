"""One test per shipped guarantee.

Heavier than the unit suites: most of the runtime sits in the randomized
runs near the bottom. Every frozen value here was computed independently
before being pinned.
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import itertools
import json
import pathlib
import re
import time

from softtopo.baire import baire_subfamily_oracle, is_baire, rare_closed_sets
from softtopo.cli import main
from softtopo.core import (
    SoftSet,
    Universe,
    element_count,
    elementary_complement,
    elementary_intersection,
    elementary_union,
    full_set,
    iter_elements,
    null_set,
    pointwise_complement,
    pointwise_intersection,
    pointwise_union,
)
from softtopo.document import parse, parse_file, serialize
from softtopo.fuzzing.generate import ALGORITHM_ID, GeneratorConfig, gen_topology, trial_rng
from softtopo.fuzzing.harness import run_theorem
from softtopo.fuzzing.instances import from_document
from softtopo.fuzzing.oracles import (
    complement_via_elements,
    intersection_via_elements,
    union_via_elements,
)
from softtopo.fuzzing.registry import REGISTRY
from softtopo.fuzzing.shrink import is_minimal, still_falsifies
from softtopo.subspace import build_subspace, carrier_set, check_subspace_preconditions
from softtopo.topology import (
    closed_sets,
    closure,
    interior,
    is_closed,
    is_nbd,
    nbd_witness,
    verify,
)

from conftest import FIXTURES, fixture_path, soft

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def admissible_family(u: Universe):
    yield null_set(u)
    full = u.full_mask
    for masks in itertools.product(range(1, full + 1), repeat=u.n_params):
        yield SoftSet.of(u, masks)


def test_worked_example_regressions():
    # pointwise triple over the first three-point instance
    doc = parse_file(fixture_path("ex21.json"))
    u, f, g = doc.universe, doc.sets["F"], doc.sets["G"]
    assert pointwise_union(f, g) == soft(u, e1="xyz", e2="xz")
    assert pointwise_intersection(f, g) == soft(u, e1="y", e2="x")
    assert pointwise_complement(f) == soft(u, e1="z", e2="y")

    # element bags and the collapsing operations over the second one
    doc = parse_file(fixture_path("ex22.json"))
    u, f, g = doc.universe, doc.sets["F"], doc.sets["G"]
    assert element_count(full_set(u)) == 9
    assert [x.coords for x in iter_elements(f)] == [(0, 1), (0, 2), (2, 1), (2, 2)]
    assert [x.coords for x in iter_elements(g)] == [(0, 0), (1, 0)]
    assert elementary_union(f, g) == full_set(u)
    assert elementary_intersection(f, g) == null_set(u)
    assert pointwise_intersection(f, g) == soft(u, e1="x", e2=[])

    # the six-member topology: closed list, closure, interior, neighborhoods
    doc = parse_file(fixture_path("ex23.json"))
    u, topo = doc.universe, doc.topology
    assert verify(topo).valid
    assert closed_sets(topo) == (
        full_set(u),
        null_set(u),
        soft(u, e1="bcd", e2="acd"),
        soft(u, e1="ad", e2="ab"),
        soft(u, e1="d", e2="a"),
    )
    assert closure(topo, doc.sets["F"]) == soft(u, e1="bcd", e2="acd")
    assert interior(topo, doc.sets["G"]) == doc.sets["F1"]
    x1 = doc.elements["x1"]
    assert is_nbd(topo, doc.sets["G"], x1)
    assert nbd_witness(topo, doc.sets["G"], x1) == doc.sets["F1"]
    mixed = pointwise_complement(doc.sets["F4"])
    assert mixed == soft(u, e1=[], e2="a")
    assert not is_closed(topo, mixed)
    assert mixed not in closed_sets(topo)

    # the subspace worked instance and its precondition failure
    doc = parse_file(fixture_path("ex31.json"))
    u = doc.universe
    sub = build_subspace(doc.topology, ("a", "c"))
    assert sub.topology.members == (
        null_set(u),
        soft(u, e1="ac", e2="ac"),
        soft(u, e1="a", e2="c"),
        soft(u, e1="c", e2="a"),
    )
    bad = check_subspace_preconditions(doc.topology, carrier_set(u, ("b", "c", "d")))
    assert not bad.satisfied
    assert bad.trace_violations == (2, 3)


def test_elementary_complement_erratum_is_pinned_and_documented():
    doc = parse_file(fixture_path("ex22.json"))
    u = doc.universe
    # the correct value per the definition, not the tempting four-element bag
    assert elementary_complement(doc.sets["F"]) == soft(u, e1="y", e2="x")
    findings = (REPO_ROOT / "FINDINGS.md").read_text()
    assert "e_complement(F) = ({y}, {x})" in findings
    assert "({x,y,z}, {x,y})" in findings  # the rejected bag's span


def test_elementary_ops_match_element_materialization_exhaustively():
    u = Universe.of(("x", "y", "z"), ("e1", "e2"))
    family = tuple(admissible_family(u))
    assert len(family) == 50
    start = time.perf_counter()
    for f in family:
        assert elementary_complement(f) == complement_via_elements(f)
        for g in family:
            assert elementary_union(f, g) == union_via_elements(f, g)
            assert elementary_intersection(f, g) == intersection_via_elements(f, g)
    assert time.perf_counter() - start < 60.0


def test_generated_subspaces_always_verify():
    case = REGISTRY["thm_3_1_constructive"]
    config = GeneratorConfig(points=3, params=2, seed=31)
    passing = 0
    index = 0
    while passing < 500:
        assert index < 20_000, "eligible draw stream dried up"
        inst = case.build(config, trial_rng(config, index))
        index += 1
        if case.hypothesis(inst):
            assert case.conclusion(inst), f"trial {index - 1} built a non-topology"
            passing += 1


def test_predicted_verdicts_at_scale():
    config = GeneratorConfig(points=5, params=2, seed=11, trials=500)
    wanted = (
        ("thm_4_1", "confirmed"),
        ("thm_4_2", "confirmed"),
        ("thm_4_6_vacuity", "all-skipped"),
    )
    for case_id, verdict in wanted:
        start = time.perf_counter()
        report = run_theorem(case_id, config)
        elapsed = time.perf_counter() - start
        assert report.verdict == verdict, case_id
        assert report.counterexamples == ()
        assert report.confirmed + report.skipped == 500
        if case_id == "thm_4_6_vacuity":
            # finite instances can never satisfy the hypothesis detector
            assert report.confirmed == 0
        assert elapsed < 300.0, case_id


# (case, points, params, expected verdict); seed 23, 500 trials each.
# Single-parameter runs make the pairwise-meet side conditions vacuous, the
# two-point runs hunt the known admissibility failures, and the three-point
# runs confirm across the board.
OPEN_VERDICT_RUNS = (
    ("thm_4_3", 4, 1, "confirmed"),
    ("thm_4_4", 4, 1, "confirmed"),
    ("prop_4_1b", 4, 1, "confirmed"),
    ("thm_5_1", 4, 1, "confirmed"),
    ("hausdorff_heredity", 4, 1, "confirmed"),
    ("prop_4_1a", 2, 2, "counterexample"),
    ("prop_6_1", 2, 2, "counterexample"),
    ("continuity_criteria_agree", 2, 2, "counterexample"),
    ("thm_4_5", 3, 2, "confirmed"),
    ("thm_4_7", 3, 2, "confirmed"),
    ("thm_4_8", 3, 2, "confirmed"),
    ("lem_3_1", 3, 2, "confirmed"),
    ("baire_definitions_agree", 3, 2, "confirmed"),
)


def test_open_verdict_runs_classify_and_persist_minimal_counterexamples():
    for case_id, points, params, verdict in OPEN_VERDICT_RUNS:
        config = GeneratorConfig(points=points, params=params, seed=23, trials=500)
        report = run_theorem(case_id, config)
        assert report.verdict == verdict, case_id
        total = report.confirmed + report.skipped + len(report.counterexamples)
        assert total == 500, case_id
        if params == 1:
            assert report.confirmed == 500, case_id
        if verdict == "counterexample":
            assert len(report.counterexamples) >= 1, case_id
        case = REGISTRY[case_id]
        for record in report.counterexamples:
            # persisted form must re-verify and admit no one-step reduction
            inst = from_document(parse(json.dumps(record.document)))
            assert still_falsifies(case, inst), case_id
            assert is_minimal(case, inst, config), case_id


def test_baire_shortcut_matches_exhaustive_oracle():
    config = GeneratorConfig(points=3, params=2, seed=1300)
    checked = 0
    for index in range(200):
        topo = gen_topology(config, trial_rng(config, index))
        if len(rare_closed_sets(topo)) <= 12:
            assert is_baire(topo).baire == baire_subfamily_oracle(topo)
            checked += 1
    assert checked >= 1


def test_fuzz_reports_are_byte_identical_across_runs(tmp_path):
    argv = [
        "fuzz", "--case", "thm_4_4", "--trials", "200",
        "--seed", "7", "--points", "4", "--params", "2",
    ]
    paths = [tmp_path / f"report{i}.json" for i in range(2)]
    assert main([*argv, "--out", str(paths[0])]) == 0
    assert main([*argv, "--out", str(paths[1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_fuzz_reports_match_the_pinned_digests(tmp_path, capsys):
    # The fuzz pins, keyed "case@PxQ/seed=S/trials=T", hold the SHA-256 of
    # the --out bytes; they change only with ALGORITHM_ID.
    with open(FIXTURES / "pins" / "fuzz_digests.json", encoding="utf-8") as fh:
        pins = json.load(fh)[ALGORITHM_ID]
    assert pins
    for key, digest in sorted(pins.items()):
        case, points, params, seed, trials = re.fullmatch(
            r"(\w+)@(\d+)x(\d+)/seed=(\d+)/trials=(\d+)", key
        ).groups()
        out = tmp_path / f"{case}.json"
        code = main([
            "fuzz", "--case", case, "--points", points, "--params", params,
            "--seed", seed, "--trials", trials, "--out", str(out),
        ])
        capsys.readouterr()
        assert code in (0, 1), key
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, key


def test_cli_exit_codes_and_fixture_round_trip():
    corpus = sorted(FIXTURES.glob("*.json"))
    assert len(corpus) >= 10
    for path in corpus:
        text = path.read_text()
        assert serialize(parse(text)) == text, path.name
    assert main(["verify", fixture_path("ex23.json")]) == 0
    assert main(["verify", fixture_path("not_closed.json")]) == 1
    assert main(["verify", str(FIXTURES / "invalid" / "missing_slice.json")]) == 2


def test_every_export_has_a_caller():
    """Each name in a module's ``__all__`` is a word of some other Python
    file under ``src/``, ``tests/`` or ``perfbench/``."""
    files = {
        path: path.read_text(encoding="utf-8")
        for top in ("src", "tests", "perfbench")
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
    }
    unused = []
    for path, text in files.items():
        if not path.is_relative_to(REPO_ROOT / "src"):
            continue
        for node in ast.parse(text).body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                for name in ast.literal_eval(node.value):
                    word = re.compile(rf"\b{re.escape(name)}\b")
                    if not any(word.search(other) for p, other in files.items() if p != path):
                        unused.append(f"{path.relative_to(REPO_ROOT)}: {name}")
    assert unused == []


def test_package_roots_bind_only_their_submodules():
    """Each public name is imported from its defining module.  A package
    root that binds it again gives it a second path, which the ``__all__``
    check above cannot see."""
    import softtopo
    import softtopo.fuzzing

    for package in (softtopo, softtopo.fuzzing):
        extra = [
            name
            for name, value in vars(package).items()
            if not name.startswith("_")
            and getattr(value, "__name__", None) != f"{package.__name__}.{name}"
        ]
        assert extra == [], package.__name__


def test_each_import_names_the_defining_module():
    """Every ``from softtopo... import name`` under ``src/`` and ``tests/``
    names the module that defines the value, by its ``__module__``."""
    second_paths = []
    for top in ("src", "tests"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            # the package a relative import in a src/ file starts from
            package = ".".join(path.relative_to(REPO_ROOT / top).parent.parts)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ImportFrom):
                    continue
                source = node.module or ""
                if node.level:
                    base = package.rsplit(".", node.level - 1)[0]
                    source = f"{base}.{source}" if source else base
                if source.split(".")[0] != "softtopo":
                    continue
                module = importlib.import_module(source)
                for alias in node.names:
                    defined = getattr(getattr(module, alias.name), "__module__", source)
                    if defined != source:
                        second_paths.append(
                            f"{path.relative_to(REPO_ROOT)}:{node.lineno}: {alias.name} from "
                            f"{source}, defined in {defined}"
                        )
    assert second_paths == []
