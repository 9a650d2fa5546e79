"""softtopo benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/softtopo``.  A few
children that only set up come first.  Then each round is a fresh child
process (cold module caches, as for a CLI user) that builds the seeded
inputs, then drives ``softtopo.cli.main(argv)`` in-process through the
workload's calls, one after another: a closed loop with one client and
``--workers 1``.  Rounds repeat until the next one would end after
``--seconds``.  Every output is checked against a known answer, and every
round must reproduce the first round's bytes.  Times are in reference
seconds, scaled by the host's speed sampled during the calls (see speed.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate and it carries the
per-layer metrics of the traced rounds (see spans.py).  Scratch files go to
``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 170.0  # the whole run, children included
SETUPS = 6  # set-up-only children per run

sys.path.insert(0, HERE)
import workloads  # noqa: E402


class RoundError(RuntimeError):
    pass


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, label: str, cpu: int, workdir: str,
              started: float, traced: bool = False, deep: bool = False,
              setup_only: bool = False) -> dict:
    child_dir = os.path.join(workdir, label)
    os.makedirs(child_dir)
    spec = {
        "root": ROOT, "workload": workload, "seed": seed, "round": label,
        "trace": traced, "deep": deep, "setup_only": setup_only, "workdir": child_dir,
        "cpu": cpu, "sidecar": os.path.join(SCRATCH, "trace", f"{workload}-{label}.spans"),
    }
    # A fixed hash seed keeps set and dict layouts, and so timings, the same
    # from run to run; outputs do not depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    spec["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise RoundError(f"{label} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundError(f"{label} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float,
               trace: bool) -> tuple[list[dict], list[float]]:
    """Returns the rounds and every set-up time.  ``SETUPS`` children that
    only set up come first, so the set-up median rests on more than the few
    rounds of a run.  Untraced and traced rounds alternate when tracing;
    round 0 is untraced and also runs the slow re-checks.  Children take
    turns on the CPUs this process may use, so that a slow period on one CPU
    does not weigh on every round."""
    workdir = os.path.join(SCRATCH, "work", f"{workload}-{os.getpid()}")
    if trace:
        os.makedirs(os.path.join(SCRATCH, "trace"), exist_ok=True)
        for name in os.listdir(os.path.join(SCRATCH, "trace")):
            if name.startswith(f"{workload}-round"):
                os.remove(os.path.join(SCRATCH, "trace", name))
    cpus = sorted(os.sched_getaffinity(0))
    started = time.monotonic()
    setups: list[float] = []
    rounds: list[dict] = []
    took: dict[bool, float] = {}
    try:
        for k in range(SETUPS):
            result = run_child(workload, seed, f"setup{k}", cpus[k % len(cpus)], workdir,
                               started, setup_only=True)
            setups.append(result["setup_s"])
        while True:
            index = len(rounds)
            traced = trace and index % 2 == 1
            t0 = time.monotonic()
            result = run_child(workload, seed, f"round{index}", cpus[index % len(cpus)],
                               workdir, started, traced=traced, deep=index == 0)
            took[traced] = time.monotonic() - t0
            result["traced"] = traced
            rounds.append(result)
            setups.append(result["setup_s"])
            upcoming = trace and (index + 1) % 2 == 1
            predicted = took.get(upcoming, took[traced])
            elapsed = time.monotonic() - started
            if trace and len(rounds) < 2:
                continue
            if elapsed + predicted > seconds:
                return rounds, setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def count_failures(rounds: list[dict]) -> tuple[int, int, list[str]]:
    """Every call of every round is one attempt; a call fails on a wrong
    answer, an exception, or output bytes that differ from round 0."""
    reference = rounds[0]["digests"]
    attempted = failed = 0
    messages: list[str] = []
    for index, result in enumerate(rounds):
        for call, (problems, digest) in enumerate(zip(result["failures"], result["digests"])):
            attempted += 1
            problems = list(problems)
            if digest != reference[call]:
                kind = "traced" if result["traced"] else "untraced"
                problems.append(f"{kind} output differs from round 0")
            if problems:
                failed += 1
                messages.append(f"round {index} call {call}: {'; '.join(problems)}")
    return attempted, failed, messages


def end_to_end(rounds: list[dict], setups: list[float]) -> dict[str, float]:
    """Every round repeats the same calls, so each call's time is the
    median of its scaled times (see child.py) over the rounds.  The timed
    section is the sum of those medians, and the percentiles are taken over
    them."""
    latencies = [statistics.median(per_call)
                 for per_call in zip(*(r["latencies_s"] for r in rounds))]
    wall_s = sum(latencies)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "ops_per_s": rounds[0]["units"] / wall_s,
        "call_p50_ms": 1000.0 * statistics.median(latencies),
        "call_p90_ms": 1000.0 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }


def per_layer(rounds: list[dict]) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    out = {key: statistics.median(r["layers"][key] for r in traced)
           for key in traced[0]["layers"]}
    out["trace.overhead_ratio"] = (
        statistics.median(sum(r["latencies_s"]) for r in traced)
        / statistics.median(sum(r["latencies_s"]) for r in plain)
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "softtopo", "__init__.py")):
        print(f"error: no softtopo sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    began = time.monotonic()
    try:
        rounds, setups = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, messages = count_failures(rounds)
    for message in messages[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    first = rounds[0]
    if not first["pinned"]:
        print(f"note: no digests pinned for {first['algorithm']}; pinned check skipped",
              file=sys.stderr)
    for name in sorted({m for r in rounds for m in r["missing"]}):
        print(f"note: traced function {name} not found; its metrics read 0", file=sys.stderr)

    if args.trace:
        values, listed = per_layer(rounds), spec["per_layer"]
    else:
        values, listed = end_to_end(rounds, setups), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    calls = len(first["latencies_s"])
    beyond = calls - int(0.9 * calls)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({sum(r['traced'] for r in rounds)} traced), {calls} calls a round, "
          f"{beyond} beyond p90, error_rate {failed}/{attempted}, "
          f"{time.monotonic() - began:.1f} s in all")
    print("  round walls, raw / scaled s (t: traced), host slowdown: " + " ".join(
        f"{sum(r['raw_latencies_s']):.3f}/{sum(r['latencies_s']):.3f}"
        f"{'t' if r['traced'] else ''}@{r['slowdown']:.2f}" for r in rounds))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
