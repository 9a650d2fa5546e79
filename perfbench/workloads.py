"""The three benchmark workloads: seeded inputs, the CLI calls of one round,
and the known answers each call is checked against.

A round is the batch one fresh child process runs.  Its inputs are a pure
function of the workload seed, so every round of a run repeats the same
calls and must produce the same bytes.  The known answers come from the
theorems and acceptance predictions the repository documents (FINDINGS.md,
tests/test_acceptance.py), from formulas computed here, or from pinned
digests, never from the code path being timed.
"""

from __future__ import annotations

import dataclasses as d
import hashlib
import json
import os
import typing as t

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

# fuzz-separated: the test_predicted_verdicts_at_scale configs at 5x2.  The
# first call of each case uses the acceptance seed and is digest-pinned; the
# others use master seeds split off the workload seed.
SEPARATED_CASES = (
    ("thm_4_1", "confirmed"),
    ("thm_4_2", "confirmed"),
    ("thm_4_6_vacuity", "all-skipped"),
)
SEPARATED_SHAPE = (5, 2)
SEPARATED_SEED = 11
SEPARATED_CALLS = 34
SEPARATED_TRIALS = 3

# fuzz-hunt: the OPEN_VERDICT_RUNS list of tests/test_acceptance.py.
HUNT_CASES = (
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
HUNT_SEED = 23
HUNT_CALLS = 8
HUNT_TRIALS = 25

# check-docs: every no---set property, on full and on random spaces.
PROPERTIES = (
    "hausdorff", "regular", "normal", "quasi-compact", "compact", "baire",
    "locally-compact",
)
# A round has 192 random-space verdicts of about 2 ms, 16 on the full 2x4
# (two copies of the document) of about 50 ms and 8 on the full 3x3 of about
# 1 s.  So p50 falls among the random spaces, p90 among the full 2x4
# verdicts, and the full 3x3 verdicts lie beyond p90.
FULL_SHAPES = ((2, 4), (2, 4), (3, 3))
RANDOM_SHAPES = ((3, 2), (4, 2))
RANDOM_SPACES = 12  # per random shape
LOCAL_COMPACTNESS_PRECONDITION = "local compactness is only defined over Hausdorff spaces"

WORKLOADS = ("fuzz-separated", "fuzz-hunt", "check-docs")


@d.dataclass(frozen=True)
class Call:
    """One ``softtopo.cli.main(argv)`` call and what it must answer."""

    argv: tuple[str, ...]
    expect: dict[str, t.Any]
    out: str | None = None  # fuzz report path


def split_seed(*parts: t.Any) -> int:
    """64-bit master seed derived from the workload seed and a call label."""
    label = ":".join(str(p) for p in ("perfbench", *parts))
    return int.from_bytes(hashlib.sha256(label.encode("ascii")).digest()[:8], "big")


def full_size(points: int, params: int) -> int:
    """Member count of the topology of all admissible sets (FINDINGS.md)."""
    return (2**points - 1) ** params + 1


def _fuzz_call(workdir: str, index: int, case: str, points: int, params: int,
               seed: int, trials: int, verdict: str, pinned: bool) -> Call:
    out = os.path.join(workdir, f"call{index:03d}-{case}.json")
    argv = (
        "fuzz", "--case", case, "--trials", str(trials), "--seed", str(seed),
        "--points", str(points), "--params", str(params), "--workers", "1",
        "--out", out,
    )
    expect = {
        "case": case, "points": points, "params": params, "seed": seed,
        "trials": trials, "verdict": verdict, "pinned": pinned,
    }
    return Call(argv, expect, out)


def fuzz_separated(seed: int, workdir: str) -> list[Call]:
    points, params = SEPARATED_SHAPE
    calls = []
    for case, verdict in SEPARATED_CASES:
        for k in range(SEPARATED_CALLS):
            master = SEPARATED_SEED if k == 0 else split_seed("fuzz-separated", seed, case, k)
            calls.append(_fuzz_call(workdir, len(calls), case, points, params,
                                    master, SEPARATED_TRIALS, verdict, k == 0))
    return calls


def fuzz_hunt(seed: int, workdir: str) -> list[Call]:
    calls = []
    for case, points, params, verdict in HUNT_CASES:
        for k in range(HUNT_CALLS):
            master = HUNT_SEED if k == 0 else split_seed("fuzz-hunt", seed, case, k)
            calls.append(_fuzz_call(workdir, len(calls), case, points, params,
                                    master, HUNT_TRIALS, verdict, k == 0))
    return calls


def _write_space(path: str, universe, subbase, topology) -> None:
    from softtopo.fuzzing.instances import Instance, to_text

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_text(Instance(universe, tuple(subbase), topology, {})))


def _verdict_calls(path: str, space: dict[str, t.Any], commands) -> list[Call]:
    calls = []
    for command in commands:
        argv = ("verify", path) if command == "verify" else ("check", command, path)
        calls.append(Call(argv + ("--format", "json"), {"command": command, **space}))
    return calls


def check_docs(seed: int, workdir: str) -> list[Call]:
    from softtopo.fuzzing.generate import (
        GeneratorConfig,
        gen_topology_with_subbase,
        trial_rng,
        universe_for,
    )
    from softtopo.topology import full_topology

    calls: list[Call] = []
    for i, (points, params) in enumerate(FULL_SHAPES):
        universe = universe_for(GeneratorConfig(points=points, params=params, seed=0))
        path = os.path.join(workdir, f"full-{points}x{params}-{i}.json")
        _write_space(path, universe, (), full_topology(universe))
        space = {"doc": path, "full": True, "hausdorff": True}
        calls += _verdict_calls(path, space, ("verify",) + PROPERTIES)
    for points, params in RANDOM_SHAPES:
        config = GeneratorConfig(
            points=points, params=params, seed=split_seed("check-docs", seed, points, params)
        )
        for i in range(RANDOM_SPACES):
            subbase, topology = gen_topology_with_subbase(config, trial_rng(config, i))
            path = os.path.join(workdir, f"random-{points}x{params}-{i}.json")
            _write_space(path, topology.universe, subbase, topology)
            # FINDINGS.md: with two or more points a space is separated
            # exactly when it is the full topology.
            hausdorff = len(topology.members) == full_size(points, params)
            space = {"doc": path, "full": False, "hausdorff": hausdorff}
            calls += _verdict_calls(path, space, ("verify",) + PROPERTIES)
    return calls


PREPARE = {
    "fuzz-separated": fuzz_separated,
    "fuzz-hunt": fuzz_hunt,
    "check-docs": check_docs,
}


def work_units(workload: str, calls: t.Sequence[Call]) -> int:
    """Trials on the fuzz workloads, verdicts on check-docs."""
    if workload == "check-docs":
        return len(calls)
    return sum(c.expect["trials"] for c in calls)


# --- known answers -----------------------------------------------------------


def pinned_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "big"))
        h.update(blob)
    return h.hexdigest()


def pin_key(expect: dict[str, t.Any]) -> str:
    return (
        f"{expect['case']}@{expect['points']}x{expect['params']}"
        f"/seed={expect['seed']}/trials={expect['trials']}"
    )


def check_fuzz(call: Call, rc, stderr: str, pins: dict[str, str] | None) -> tuple[list[str], str, dict[str, t.Any]]:
    """Returns (failures, digest of the persisted bytes, report facts)."""
    e = call.expect
    failures: list[str] = []
    if rc not in (0, 1):
        return [f"exit code {rc!r}: {stderr.strip()[-200:]}"], "", {}
    assert call.out is not None
    try:
        with open(call.out, "rb") as fh:
            report_bytes = fh.read()
        report = json.loads(report_bytes)
    except (OSError, ValueError) as exc:
        return [f"report unreadable: {exc}"], "", {}
    counts = report["counts"]
    found = counts["counterexamples"]
    if counts["trials"] != e["trials"]:
        failures.append(f"report trials {counts['trials']} != {e['trials']}")
    if counts["confirmed"] + counts["skipped"] + found != e["trials"]:
        failures.append("counts do not sum to trials")
    if found != len(report["counterexamples"]):
        failures.append("counterexample count disagrees with the list")
    if rc != (1 if found else 0):
        failures.append(f"exit code {rc} with {found} counterexamples")
    # The acceptance prediction holds for a case over all its calls (see
    # case_level_failures); a single short call may miss a counterexample or
    # skip every trial, but only a hunted case may find one.
    if found and e["verdict"] != "counterexample":
        failures.append(f"counterexample found for {e['case']}, a confirmed theorem")
    if e["verdict"] == "all-skipped" and counts["confirmed"] != 0:
        failures.append("vacuous case confirmed a trial")
    if e["params"] == 1 and counts["confirmed"] != e["trials"]:
        failures.append("single-parameter run did not confirm every trial")
    cx_bytes = b""
    if found:
        try:
            with open(call.out + ".counterexample.json", "rb") as fh:
                cx_bytes = fh.read()
        except OSError as exc:
            failures.append(f"counterexample not persisted: {exc}")
        else:
            if json.loads(cx_bytes) != report["counterexamples"][0]["document"]:
                failures.append("persisted counterexample differs from the report")
    digest = _sha(report_bytes, cx_bytes)
    if e["pinned"] and pins is not None:
        want = pins.get(pin_key(e))
        if want is None:
            failures.append(f"no pinned digest for {pin_key(e)}")
        elif want != hashlib.sha256(report_bytes).hexdigest():
            failures.append(f"report digest differs from the pinned one for {pin_key(e)}")
    facts = {
        "verdict": report["verdict"],
        "found": found,
        "generator": report.get("generator", {}),
        "counterexamples": [c["document"] for c in report["counterexamples"]],
    }
    return failures, digest, facts


def check_verdict(call: Call, rc, stdout: str,
                  stderr: str) -> tuple[list[str], str, dict[str, t.Any]]:
    """Returns (failures, digest of the printed bytes, verdict facts)."""
    e = call.expect
    command = e["command"]
    digest = _sha(stdout.encode(), stderr.encode())
    if rc == 2:
        # The only documented precondition these documents can hit.
        if command == "locally-compact" and not e["hausdorff"] and (
            LOCAL_COMPACTNESS_PRECONDITION in stderr
        ):
            return [], digest, {}
        return [f"exit 2 outside the documented preconditions: {stderr.strip()[-200:]}"], digest, {}
    if rc not in (0, 1):
        return [f"exit code {rc!r}: {stderr.strip()[-200:]}"], digest, {}
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"], digest, {}
    answer = payload["valid"] if command == "verify" else payload["holds"]
    failures = []
    if answer != (rc == 0) or stderr:
        failures.append(f"exit code {rc} disagrees with the printed answer")
    if command == "verify":
        expected: bool | None = True
    elif e["full"]:
        expected = True  # the full topology has every property checked here
    elif command in ("hausdorff", "compact"):
        expected = e["hausdorff"]  # quasi-compactness always holds
    elif command == "quasi-compact":
        expected = True
    elif command == "locally-compact":
        expected = None if e["hausdorff"] else False  # must have exited 2
        if not e["hausdorff"]:
            failures.append("non-separated space did not exit 2")
    else:
        expected = None
    if expected is not None and answer != expected:
        failures.append(f"{command} answered {answer}, expected {expected}")
    return failures, digest, {"holds": answer}


def case_level_failures(calls: t.Sequence[Call], facts: t.Sequence[dict]) -> dict[int, str]:
    """Each case's verdict over all its calls must match its prediction:
    counterexample if any call found one, else confirmed if any call
    confirmed a trial, else all-skipped."""
    by_case: dict[str, list[int]] = {}
    for i, call in enumerate(calls):
        if call.out is not None:
            by_case.setdefault(call.expect["case"], []).append(i)
    out = {}
    for case, indices in by_case.items():
        verdicts = {facts[i].get("verdict") for i in indices}
        if None in verdicts:
            continue  # an unreadable report already failed its call
        combined = next(v for v in ("counterexample", "confirmed", "all-skipped") if v in verdicts)
        expected = calls[indices[0]].expect["verdict"]
        if combined != expected:
            out[indices[0]] = f"{case}: verdict over its calls is {combined}, expected {expected}"
    return out


def deep_failures(call: Call, facts: dict[str, t.Any]) -> list[str]:
    """Slow re-checks run once per benchmark run, after the timed section."""
    from softtopo.document import parse, parse_file

    failures = []
    if call.out is not None:
        from softtopo.fuzzing.generate import GeneratorConfig
        from softtopo.fuzzing.instances import from_document
        from softtopo.fuzzing.registry import REGISTRY
        from softtopo.fuzzing.shrink import is_minimal, still_falsifies

        e = call.expect
        case = REGISTRY[e["case"]]
        config = GeneratorConfig(points=e["points"], params=e["params"], seed=e["seed"],
                                 trials=e["trials"])
        for k, document in enumerate(facts.get("counterexamples", ())):
            inst = from_document(parse(json.dumps(document)))
            if not still_falsifies(case, inst):
                failures.append(f"counterexample {k} does not re-falsify")
            elif not is_minimal(case, inst, config):
                failures.append(f"counterexample {k} is not minimal")
    elif call.expect["command"] == "baire" and "holds" in facts:
        from softtopo.baire import baire_subfamily_oracle, rare_closed_sets
        from softtopo.errors import PreconditionError

        topology = parse_file(call.expect["doc"]).topology
        if 2 ** len(rare_closed_sets(topology)) <= 4096:
            try:
                oracle = baire_subfamily_oracle(topology)
            except PreconditionError as exc:
                return [f"baire oracle refused: {exc}"]
            if oracle != facts["holds"]:
                failures.append(f"baire verdict {facts['holds']} disagrees with the oracle")
    return failures
