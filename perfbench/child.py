"""One benchmark round in a fresh process.

Usage: python3 child.py SPEC_JSON

The spec names the checkout root, workload, seed, round label, whether to
trace, whether to run the slow re-checks, the CPU to run on, the work
directory and the monotonic time at which the parent started this process.
The round prints one JSON object on its last stdout line.

Every time is reported in reference seconds as well as raw (see speed.py).
With ``setup_only`` the child stops after its set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import speed


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from softtopo import cli
    from softtopo.fuzzing.generate import ALGORITHM_ID

    import workloads

    workload = spec["workload"]
    calls = workloads.PREPARE[workload](spec["seed"], spec["workdir"])
    setup_s = time.monotonic() - spec["spawned_at"]
    setup = {"setup_s": setup_s * speed.REFERENCE_S / speed.probe(), "raw_setup_s": setup_s}
    if spec["setup_only"]:
        print(json.dumps(setup))
        return 0

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(f"{workload}-seed{spec['seed']}-round{spec['round']}")
        tracer.calibrate()
        tracer.install()

    outcomes = []
    sampler = speed.Sampler()
    sampler.start()
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(call.argv))
        except (Exception, SystemExit):
            rc = None
            err.write(traceback.format_exc())
        outcomes.append((rc, (t0, time.perf_counter()), out.getvalue(), err.getvalue()))
    sampler.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw_s = [t1 - t0 for _, (t0, t1), _, _ in outcomes]
    scaled_s = [sampler.scale(t0, t1) for _, (t0, t1), _, _ in outcomes]

    layer_metrics = None
    if tracer is not None:
        layer_metrics = tracer.metrics(sum(raw_s), sampler.slowdown())
        tracer.write_sidecar(spec["sidecar"], sampler.slowdown())

    pins = workloads.pinned_digests().get(ALGORITHM_ID)
    failures: list[list[str]] = []
    digests: list[str] = []
    facts: list[dict] = []
    for call, (rc, _, stdout, stderr) in zip(calls, outcomes):
        if call.out is not None:
            found, digest, fact = workloads.check_fuzz(call, rc, stderr, pins)
        else:
            found, digest, fact = workloads.check_verdict(call, rc, stdout, stderr)
        failures.append(found)
        digests.append(digest)
        facts.append(fact)
    for index, message in workloads.case_level_failures(calls, facts).items():
        failures[index].append(message)
    if spec["deep"]:
        for index, call in enumerate(calls):
            if not failures[index]:
                failures[index] += workloads.deep_failures(call, facts[index])

    generator = {"separated_draws": 0, "fallbacks": 0}
    for fact in facts:
        for key in generator:
            generator[key] += fact.get("generator", {}).get(key, 0)
    if layer_metrics is not None:
        layer_metrics["fuzzing.generate.fallback_ratio"] = (
            generator["fallbacks"] / generator["separated_draws"]
            if generator["separated_draws"] else 0.0
        )

    print(json.dumps({
        **setup,
        "slowdown": sampler.slowdown(),
        "rss_mb": rss_mb,
        "latencies_s": scaled_s,
        "raw_latencies_s": raw_s,
        "units": workloads.work_units(workload, calls),
        "digests": digests,
        "failures": failures,
        "algorithm": ALGORITHM_ID,
        "pinned": pins is not None,
        "missing": tracer.missing if tracer is not None else [],
        "layers": layer_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
