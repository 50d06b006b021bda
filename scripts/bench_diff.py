#!/usr/bin/env python3
"""Compare two google-benchmark JSON archives and print per-benchmark deltas.

Usage:
    python3 scripts/bench_diff.py OLD.json NEW.json [--counter NAME ...]

Matches benchmarks by name, prints old/new real_time with the relative
change, plus any requested counters (default: activity, cycles_per_sec and
faults_per_sec if present). Benchmarks carrying a lanes:N axis (the lane
evaluator bench BM_CompiledEvalEvent)
additionally get a lane-width scaling table: faults_per_sec at each width
relative to the 64-lane run of the same benchmark, for both archives --
the wide-lane speedup tracked across PRs. Orchestrator benchmarks carrying
a jobs:N axis get the analogous scheduler-scaling table: jobs_per_sec at
each pool width relative to the single-worker run (sweep throughput as the
work-stealing pool widens). Benchmarks present in only one file are listed
separately. Fleet benchmarks (BENCH_fleet.json) get a dedicated section:
instances_per_sec throughput and alias_rate drift per MISR width, with the
theoretical 2^-k bound printed next to width-carrying entries. Used to
track the BENCH_faultsim.json / BENCH_search_perf.json / BENCH_logic.json
/ BENCH_orchestrator.json / BENCH_fleet.json artifacts archived by CI.
"""

import argparse
import json
import re
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = b
    return out


def fmt_time(b):
    return "%.3g %s" % (b.get("real_time", float("nan")), b.get("time_unit", "ns"))


def lane_groups(bench_map):
    """Group lanes:N benchmark variants: base name -> {width: faults_per_sec}."""
    groups = {}
    for name, b in bench_map.items():
        m = re.search(r"(^|/)lanes:(\d+)", name)
        if not m or not isinstance(b.get("faults_per_sec"), (int, float)):
            continue
        base = name[:m.start()] + name[m.end():]
        groups.setdefault(base, {})[int(m.group(2))] = b["faults_per_sec"]
    return groups


def print_lane_scaling(label, bench_map):
    groups = lane_groups(bench_map)
    rows = []
    for base in sorted(groups):
        widths = groups[base]
        ref = widths.get(64)
        if not ref or len(widths) < 2:
            continue
        cells = "".join("  %4d lanes %8.3g/s (%.2fx)" % (w, widths[w], widths[w] / ref)
                        for w in sorted(widths) if w != 64)
        rows.append("  %-42s 64 lanes %8.3g/s%s" % (base, ref, cells))
    if rows:
        print("\nlane-width scaling, faults_per_sec vs 64 lanes [%s]:" % label)
        for r in rows:
            print(r)


def jobs_groups(bench_map):
    """Group jobs:N benchmark variants: base name -> {workers: jobs_per_sec}."""
    groups = {}
    for name, b in bench_map.items():
        m = re.search(r"(^|/)jobs:(\d+)", name)
        if not m or not isinstance(b.get("jobs_per_sec"), (int, float)):
            continue
        base = name[:m.start()] + name[m.end():]
        groups.setdefault(base, {})[int(m.group(2))] = b["jobs_per_sec"]
    return groups


def print_jobs_scaling(label, bench_map):
    groups = jobs_groups(bench_map)
    rows = []
    for base in sorted(groups):
        widths = groups[base]
        ref = widths.get(1)
        if not ref or len(widths) < 2:
            continue
        cells = "".join("  %2d jobs %8.3g/s (%.2fx)" % (w, widths[w], widths[w] / ref)
                        for w in sorted(widths) if w != 1)
        rows.append("  %-38s 1 job %8.3g/s%s" % (base, ref, cells))
    if rows:
        print("\nscheduler scaling, jobs_per_sec vs 1 job [%s]:" % label)
        for r in rows:
            print(r)


def print_fleet_section(old, new):
    """Fleet-simulator throughput + compaction-quality drift (old -> new)."""
    def has_fleet(b):
        return isinstance(b.get("instances_per_sec"), (int, float))

    names = sorted(n for n in set(old) | set(new)
                   if has_fleet(new.get(n) or old.get(n)))
    if not names:
        return

    def cell(b, key):
        v = b.get(key) if b else None
        return "%8.3g" % v if isinstance(v, (int, float)) else "       -"

    print("\nfleet simulation, instances_per_sec / alias_rate (old -> new):")
    for name in names:
        ob, nb = old.get(name), new.get(name)
        m = re.search(r"width:(\d+)", name)
        theo = "  [2^-k %.3g]" % 2 ** -int(m.group(1)) if m else ""
        print("  %-40s ips %s -> %s  alias %s -> %s%s"
              % (name, cell(ob, "instances_per_sec"),
                 cell(nb, "instances_per_sec"),
                 cell(ob, "alias_rate"), cell(nb, "alias_rate"), theo))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--counter", action="append", default=[],
                    help="extra counter column (repeatable)")
    args = ap.parse_args()

    old, new = load(args.old), load(args.new)
    counters = args.counter or ["activity", "cycles_per_sec", "faults_per_sec"]

    shared = [n for n in new if n in old]
    if not shared:
        print("no shared benchmarks between %s and %s" % (args.old, args.new))
    width = max((len(n) for n in shared), default=10)
    header = "%-*s  %12s  %12s  %8s" % (width, "benchmark", "old", "new", "delta")
    for c in counters:
        header += "  %14s" % c
    print(header)
    print("-" * len(header))
    for name in shared:
        ob, nb = old[name], new[name]
        ot, nt = ob.get("real_time", 0.0), nb.get("real_time", 0.0)
        delta = (nt - ot) / ot * 100.0 if ot else float("nan")
        line = "%-*s  %12s  %12s  %+7.1f%%" % (width, name, fmt_time(ob),
                                               fmt_time(nb), delta)
        for c in counters:
            ov = ob.get(c)
            nv = nb.get(c)
            if nv is None:
                line += "  %14s" % "-"
            elif ov is None:
                line += "  %14.4g" % nv
            else:
                line += "  %6.3g->%6.3g" % (ov, nv)
        print(line)

    for label, only in (("only in old", set(old) - set(new)),
                        ("only in new", set(new) - set(old))):
        for name in sorted(only):
            print("%s: %s" % (label, name))

    print_lane_scaling("old: " + args.old, old)
    print_lane_scaling("new: " + args.new, new)
    print_jobs_scaling("old: " + args.old, old)
    print_jobs_scaling("new: " + args.new, new)
    print_fleet_section(old, new)

    # Exit code 0 always: this is a reporting tool, CI gates on tests.
    return 0


if __name__ == "__main__":
    sys.exit(main())
