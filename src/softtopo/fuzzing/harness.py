"""Trial loop: build, gate on the hypothesis, check the conclusion, shrink.

Reports are pure data keyed only by (case, config); no timestamps, host
names, or other run-local noise, so byte-identical reruns are the expected
behavior.  Trials run in index order, and each is a pure function of
(case, config, index).
"""

from __future__ import annotations

import dataclasses as d
import typing as t

from ..document import canonical_json, to_payload
from ..errors import InputError
from .generate import ALGORITHM_ID, GeneratorConfig, trial_rng, trial_seed
from .instances import instance_document
from .registry import REGISTRY, TheoremCase
from .shrink import shrink_instance

__all__ = [
    "report_payload",
    "report_text",
    "run_theorem",
    "serialize_report",
]


@d.dataclass(frozen=True)
class CounterexampleRecord:
    trial: int
    seed: int
    shrink_trace: tuple[str, ...]
    document: dict[str, t.Any]
    """Serialized minimal instance; re-parseable and re-checkable."""


@d.dataclass(frozen=True)
class TrialReport:
    case_id: str
    algorithm: str
    config: GeneratorConfig
    confirmed: int
    skipped: int
    counterexamples: tuple[CounterexampleRecord, ...]

    @property
    def verdict(self) -> str:
        if self.counterexamples:
            return "counterexample"
        if self.confirmed:
            return "confirmed"
        return "all-skipped"


def _case_for(case_id: str) -> TheoremCase:
    try:
        return REGISTRY[case_id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise InputError(f"unknown case {case_id!r}; known cases: {known}") from None


_Outcome = tuple[str, t.Optional[CounterexampleRecord]]


def _run_trial(case: TheoremCase, config: GeneratorConfig, index: int) -> _Outcome:
    rng = trial_rng(config, index)
    inst = case.build(config, rng)
    if not case.hypothesis(inst):
        return ("skipped", None)
    if case.conclusion(inst):
        return ("confirmed", None)
    minimal, trace = shrink_instance(case, inst, config)
    block = {
        "case": case.case_id,
        "algorithm": ALGORITHM_ID,
        "master_seed": config.seed,
        "trial": index,
        "seed": trial_seed(config.seed, index),
        "shrink_trace": list(trace),
    }
    payload = to_payload(instance_document(minimal, block))
    record = CounterexampleRecord(
        trial=index,
        seed=trial_seed(config.seed, index),
        shrink_trace=trace,
        document=payload,
    )
    return ("counterexample", record)


def run_theorem(case_id: str, config: GeneratorConfig) -> TrialReport:
    case = _case_for(case_id)
    confirmed = skipped = 0
    records: list[CounterexampleRecord] = []
    for index in range(config.trials):
        verdict, record = _run_trial(case, config, index)
        if verdict == "confirmed":
            confirmed += 1
        elif verdict == "skipped":
            skipped += 1
        else:
            assert record is not None
            records.append(record)
    return TrialReport(
        case_id=case_id,
        algorithm=ALGORITHM_ID,
        config=config,
        confirmed=confirmed,
        skipped=skipped,
        counterexamples=tuple(records),
    )


def report_payload(report: TrialReport) -> dict[str, t.Any]:
    return {
        "algorithm": report.algorithm,
        "case": report.case_id,
        "config": d.asdict(report.config),
        "counts": {
            "trials": report.config.trials,
            "confirmed": report.confirmed,
            "skipped": report.skipped,
            "counterexamples": len(report.counterexamples),
        },
        "counterexamples": [
            {
                "trial": r.trial,
                "seed": r.seed,
                "shrink_trace": list(r.shrink_trace),
                "document": r.document,
            }
            for r in report.counterexamples
        ],
        "verdict": report.verdict,
    }


def serialize_report(report: TrialReport) -> str:
    return canonical_json(report_payload(report))


def report_text(report: TrialReport) -> str:
    lines = [
        f"case {report.case_id}: {report.verdict}",
        f"  trials={report.config.trials} confirmed={report.confirmed} "
        f"skipped={report.skipped} counterexamples={len(report.counterexamples)}",
        f"  seed={report.config.seed} points={report.config.points} "
        f"params={report.config.params} algorithm={report.algorithm}",
    ]
    for r in report.counterexamples[:5]:
        lines.append(
            f"  counterexample at trial {r.trial} (seed {r.seed}), "
            f"{len(r.shrink_trace)} shrink steps"
        )
    if len(report.counterexamples) > 5:
        lines.append(f"  ... {len(report.counterexamples) - 5} more")
    return "\n".join(lines) + "\n"
