"""Run the benchmark over several seeds and write a results file, or compare
two results files.

    python3 perfbench/collect.py --runs 10 [--trace-seed 1] --out perfbench/results/NEW.json
    python3 perfbench/collect.py --compare OLD.json NEW.json

Collecting runs every workload in BENCHMARK.json at seeds 1 to ``--runs``.
A results file records, per workload, every end-to-end value with its seed,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (quartile distance over median), the per-layer figures of one traced
run, and the host: core count, Python version and the commit measured
(``git rev-parse HEAD``).

``--compare`` prints one row per workload and end-to-end metric: the old
median (the base), the new median, new/old, and a verdict against the
metric's bound in BENCHMARK.json: "worse" or "within bound", or
"unresolved" when either file's spread exceeds the bound, because then the
runs themselves disagree by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, ROOT, benchmark_spec


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def collect(args: argparse.Namespace) -> int:
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.runs + 1))
    raw: dict[str, list[dict]] = {w: [] for w in names}
    for seed in seeds:
        for workload in names:
            result = run_once(workload, seed, spec["run_seconds"], 0)
            raw[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    out: dict = {
        "commit": commit(),
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for workload in names:
        results = raw[workload]
        entry: dict = {
            "runs": len(results),
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                **summarize(values), "values": values,
            }
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["per_layer"] = {"seed": args.trace_seed, "correct": traced["correct"],
                                  "metrics": traced["metrics"]}
        out["workloads"][workload] = entry
        for name, m in entry["end_to_end"].items():
            flag = "" if m["spread"] < m["bound"] / 3 else "  <-- spread above bound/3"
            print(f"{workload:15s} {name:12s} median {m['median']:.5g} spread "
                  f"{m['spread']:.4f} (bound {m['bound']}){flag}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0 if all(w["correct"] and w.get("per_layer", {}).get("correct", True)
                    for w in out["workloads"].values()) else 1


def compare(old_path: str, new_path: str) -> int:
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    print(f"{'workload':15s} {'metric':12s} {'old (base)':>12s} {'new':>12s} "
          f"{'new/old':>8s} {'bound':>6s}  verdict")
    outside = 0
    for workload, entry in new["workloads"].items():
        base = old["workloads"].get(workload)
        if base is None:
            print(f"{workload:15s} (not in {old_path})")
            continue
        for name, m in entry["end_to_end"].items():
            if name not in base["end_to_end"]:
                continue
            old_m = base["end_to_end"][name]
            before, after = old_m["median"], m["median"]
            ratio = after / before
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if max(old_m["spread"], m["spread"]) > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "worse"
                outside += 1
            else:
                verdict = "within bound"
            print(f"{workload:15s} {name:12s} {before:12.5g} {after:12.5g} "
                  f"{ratio:8.3f} {m['bound']:6.2f}  {verdict}")
    return 1 if outside else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also make one traced run per workload at this seed")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("--out is required unless --compare is given")
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    return collect(args)


if __name__ == "__main__":
    sys.exit(main())
