#!/usr/bin/env python3
"""Repository benchmark: build the driver from source, run, print metrics.

One run of one workload (the last stdout line is the JSON result):
  python3 perfbench/run.py --workload synth --seed 1 --seconds 10 --trace 0
Every workload of BENCHMARK.json with one seed:
  python3 perfbench/run.py --all --seed 1
--out FILE writes a single run's full record (metrics, workload report,
per-layer self times, host label, raw driver record) as JSON.
Steadiness report (median, quartiles and quartile spread per metric over
seeds first..first+runs-1; --out writes the report as JSON):
  python3 perfbench/run.py --steadiness --workload synth --runs 10 --first-seed 1

Run from the root of a checkout. The driver is built with CMake into
.bench_build/perfbench; results and traces go to .bench_build/perfbench/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        call(cmd, BUILD_TIMEOUT_S)
    call(["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))],
         BUILD_TIMEOUT_S)


def call(cmd, timeout):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        raise BenchError("failed (%d): %s" % (done.returncode, " ".join(cmd)))


def run_driver(workload, seed, seconds, trace_path=None):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_path:
        cmd += ["--trace-out", str(trace_path)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out after %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError("driver failed with code %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (result line object, full record)."""
    bench = spec()
    if workload not in [w["name"] for w in bench["workloads"]]:
        raise BenchError("unknown workload " + workload)
    out_dir = BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    trace_path = out_dir / (stem + ".trace.json") if trace else None
    rec = run_driver(workload, seed, seconds, trace_path)

    report = metrics.workload_report(rec)
    if trace:
        spans = metrics.load_spans(trace_path)
        wanted = units(bench["per_layer"])
        values = metrics.per_layer(rec, spans)
        layer_self = metrics.self_times(spans)
    else:
        wanted = units(bench["end_to_end"])
        values = metrics.end_to_end(rec)
        layer_self = {}
    result = {
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    full = {"result": result, "report": report, "layer_self_s": layer_self,
            "host": rec["host"], "record": rec}
    with open(out_dir / (stem + ".json"), "w") as f:
        json.dump(full, f, indent=1)
    return result, full


def print_human(workload, seed, result, full):
    bench = spec()
    unit = units(bench["end_to_end"] + bench["per_layer"])
    unit.update(job_samples="count", baseline_sample_fraction="fraction")
    print("== %s (seed %d) host %s" % (workload, seed, json.dumps(full["host"])))
    for name, m in result["metrics"].items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, v in full["report"].items():
        print("  %-28s %14.6g %s (workload report)" % (name, v, unit[name]))
    for layer, v in sorted(full["layer_self_s"].items()):
        print("  self time %-18s %14.6g s" % (layer, v))
    for f in full["record"]["failures"]:
        print("  FAILED: " + f)


def steadiness(workload, runs, first_seed, seconds, out_path):
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for k in range(runs):
        seed = first_seed + k
        result, full = run_once(workload, seed, seconds, 0)
        if not result["correct"]:
            raise BenchError("seed %d: %d failed operations" % (seed, result["failed"]))
        row = {n: m["value"] for n, m in result["metrics"].items()}
        row.update(full["report"])
        for n, v in row.items():
            values.setdefault(n, []).append(v)
        print("run %d/%d seed %d: %s" % (k + 1, runs, seed, json.dumps(row)),
              file=sys.stderr, flush=True)
    summary = {"workload": workload, "runs": runs, "first_seed": first_seed,
               "seconds": seconds, "host": full["host"], "metrics": {}}
    print("%-24s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                           "spread", "bound"))
    for n, vs in values.items():
        q1, med, q3, spr = metrics.spread(vs)
        bound = bounds.get(n)
        flag = ""
        if bound is not None and n != "setup_s" and spr > bound / 3:
            flag = "  > bound/3"
        print("%-24s %12.6g %12.6g %12.6g %8.4f %6s%s" % (
            n, med, q1, q3, spr, "-" if bound is None else bound, flag))
        summary["metrics"][n] = {"median": med, "q1": q1, "q3": q3, "spread": spr,
                                 "values": vs}
    if out_path:
        with open(out_path, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    try:
        bench = spec()
        seconds = args.seconds or bench["run_seconds"]
        build()
        if args.steadiness:
            if not args.workload:
                raise BenchError("--steadiness needs --workload")
            steadiness(args.workload, args.runs, args.first_seed, seconds, args.out)
            return 0
        names = ([w["name"] for w in bench["workloads"]] if args.all
                 else [args.workload])
        if names == [None]:
            raise BenchError("give --workload NAME or --all")
        results = {}
        for name in names:
            result, full = run_once(name, args.seed, seconds, args.trace)
            print_human(name, args.seed, result, full)
            results[name] = result
            if args.out and not args.all:
                with open(args.out, "w") as f:
                    json.dump(full, f, indent=1)
                    f.write("\n")
        print(json.dumps(results if args.all else results[names[0]]))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("perfbench: error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
