"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-toy --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from src/. The
seed fixes every generated input. The workload is set up several times
(setup_s is the median; see SETUP_REPEATS), then passes over its steps run
back to back until --seconds have gone by; each step's figure is its median
over the passes. Every step's outputs are checked after it runs, and a failed
check counts the ops it covers as failed.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics; spans go to
bench/out/<workload>-seed<n>.spans.jsonl. Either way the full record (run
facts, per-pass timings, checks, output hashes) goes to
bench/out/<workload>-seed<n>-trace<t>.json, and the last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import os
import sys

# BLAS threads are pinned before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up runs at least SETUP_REPEATS times and for SETUP_MIN_SECONDS, so
# that a set-up of a few milliseconds still gets a steady median.
SETUP_REPEATS, SETUP_MIN_SECONDS = 3, 1.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_facts(seed):
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": BLAS_THREADS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(), "seed": seed}


def timed(calls):
    """Wall seconds of each call in turn; `calls` yields callables.

    gc runs before each call, so none pays for garbage an earlier one left.
    """
    seconds = []
    for fn in calls:
        gc.collect()
        t0 = time.perf_counter()
        fn()
        seconds.append(time.perf_counter() - t0)
    return seconds


def run_pass(steps, tally):
    """One closed-loop pass: each step timed, then checked untimed."""

    def calls():
        for step in steps:
            yield step.run
            tally["attempted"] += step.ops
            for name, bad in step.check().items():
                bad = min(bad, step.ops)
                tally["failed"] += bad
                tally["checks"][name] = tally["checks"].get(name, 0) + bad

    return dict(zip((s.name for s in steps), timed(calls())))


def measure(steps, seconds, tally):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(steps, tally))
    return passes


def end_to_end(steps, passes, setup_times, tally):
    """Every end-to-end figure: (value, unit) by name."""
    m = {"setup_s": (statistics.median(setup_times), "s")}
    walls = {s.name: statistics.median(p[s.name] for p in passes) for s in steps}
    for s in steps:
        m[s.metric] = (statistics.median(s.work / p[s.name] for p in passes),
                       s.unit)
    m["pass_s"] = (sum(walls.values()), "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB")
    m["failed_frac"] = (tally["failed"] / tally["attempted"], "ratio")
    losses = [s.quality["train_loss"] for s in steps
              if s.name.startswith("train-nmt") and "train_loss" in s.quality]
    if losses:
        m["train_loss"] = (statistics.fmean(losses), "nats/token")
    for s in steps:
        if "bleu" in s.quality:
            m["bleu"] = (s.quality["bleu"], "BLEU")
    return m


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "synmt" / "cli.py").is_file():
        print(f"bench: {ROOT / 'src' / 'synmt'} is missing; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer, layer_unit

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    record = {"workload": args.workload, "trace": args.trace,
              "facts": run_facts(args.seed)}
    tally = {"attempted": 0, "failed": 0, "checks": {}}
    try:
        made = []

        def setup(d):
            d.mkdir(parents=True)
            made.append(workloads.WORKLOADS[args.workload](str(d), args.seed))

        def setups():
            start = time.perf_counter()
            r = 0
            while (r < SETUP_REPEATS
                   or time.perf_counter() - start < SETUP_MIN_SECONDS):
                yield lambda d=work / f"setup{r}": setup(d)
                r += 1

        setup_times = timed(setups())
        steps = made[-1]
        record["setup_s"] = setup_times

        if args.trace:
            # untraced and traced passes alternate, so both see the same host
            tracer = Tracer()
            reference, passes = [], []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                reference.append(run_pass(steps, tally))
                tracer.install()
                try:
                    passes.append(run_pass(steps, tally))
                finally:
                    tracer.uninstall()
            layer = tracer.layer_metrics(len(passes))
            layer["bench.trace_overhead_s"] = (
                statistics.median(sum(p.values()) for p in passes)
                - statistics.median(sum(p.values()) for p in reference))
            residuals = tracer.root_residuals()
            record["trace_check"] = {
                "roots": len(residuals),
                "max_abs_residual_s": max(map(abs, residuals), default=0.0)}
            tracer.dump(out_dir / f"{stem}.spans.jsonl")
            record["untraced_passes"] = reference
            record["per_layer"] = layer
        else:
            passes = measure(steps, args.seconds, tally)
            record["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in
                                    end_to_end(steps, passes, setup_times,
                                               tally).items()}
        record["passes"] = passes
        record["checks"] = tally
        record["outputs"] = {os.path.basename(o): workloads.sha256(o)
                             for s in steps for o in s.outputs}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result_path = out_dir / f"{stem}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{tally['attempted']} ops, {tally['failed']} failed; record in "
          f"{result_path.relative_to(ROOT)}")
    print(f"  facts: {json.dumps(record['facts'])}")
    for name, bad in sorted(tally["checks"].items()):
        print(f"  check {name}: {bad} failed ops")
    if args.trace:
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = record["per_layer"]
        for name, value in values.items():
            print(f"  {name:42s} {value:.6g} {layer_unit(name)}")
        print("  wait time: none in any layer (nothing in synmt queues)")
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = {k: v["value"] for k, v in record["end_to_end"].items()}
        for name, v in record["end_to_end"].items():
            print(f"  {name:42s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
