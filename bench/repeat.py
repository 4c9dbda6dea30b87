"""Run workloads over several seeds and summarise the end-to-end spread.

    python3 bench/repeat.py --workloads train-toy,train-wide,infer --seeds 1-10
    python3 bench/repeat.py ... --out bench/baseline/BENCH_1.json

Each run is a fresh `bench/run.py` process, one at a time, with BENCHMARK.json's
command and run_seconds. For every workload and end-to-end metric it prints
the median, the quartiles and the spread (interquartile distance over the
median), next to the metric's bound. With --trace-seed it also makes one
traced run per workload. --out writes everything, run facts included, as
JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summarise(values):
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, record = run(spec, workload, seed, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} ops failed: "
                      f"{record['checks']['checks']}")
            runs.append(record)
        entry = {"facts": runs[0]["facts"], "failed": sum(
            r["checks"]["failed"] for r in runs), "end_to_end": {}}
        print(f"== {workload}: {len(runs)} runs, {entry['failed']} failed ops")
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for name, first in runs[0]["end_to_end"].items():
            s = entry["end_to_end"][name] = summarise(
                [r["end_to_end"][name]["value"] for r in runs])
            s["unit"] = first["unit"]
            line = (f"  {name:34s} median {s['median']:<10.5g} {s['unit']:10s} "
                    f"q1 {s['q1']:<10.5g} q3 {s['q3']:<10.5g}")
            if s["spread"] is not None and len(runs) > 1:
                line += f" spread {s['spread']:.4f}"
            if name in bounds and len(runs) > 1:
                ok = s["spread"] < bounds[name] / 3
                line += f"  bound {bounds[name]} {'ok' if ok else 'WIDE'}"
            print(line)
        if args.trace_seed is not None:
            _, record = run(spec, workload, args.trace_seed, 1)
            entry["per_layer"] = {"seed": args.trace_seed,
                                  "metrics": record["per_layer"],
                                  "trace_check": record["trace_check"]}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
