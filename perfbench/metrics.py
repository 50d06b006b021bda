"""Metrics of the repository benchmark, computed from perfbench_driver records.

The driver measures; this module turns its raw record (and, for a traced
run, its Chrome trace) into the named metrics of BENCHMARK.json and the
workload reports described in README.md.
"""

import json
import math
import statistics
from statistics import median

# Percentiles a timing may be reported at, highest first.
PERCENTILES = (99, 95, 90, 75, 50)


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - math.ceil(n * p / 100)


def select_percentile(n, min_beyond=10):
    """Highest reportable percentile of n samples: at least `min_beyond`
    samples must lie beyond it. None when even the median has too few."""
    for p in PERCENTILES:
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def percentile(values, p):
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * p / 100) - 1)]


def spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else math.inf


def end_to_end(rec):
    """The gated metrics, from an untraced record."""
    return {
        "setup_s": median(rec["setup_s"]),
        "wall_s": median(rec["pass_s"]),
        "area_ge": rec["counters"]["area_ge"],
    }


def workload_report(rec):
    """The workload-specific end-to-end figures (printed, not gated)."""
    c, s = rec["counters"], rec["series"]
    out = {"error_rate": rec["failed"] / rec["attempted"],
           "peak_rss_mb": rec["peak_rss_mb"]}
    w = rec["workload"]
    if w == "synth":
        out["literals_ml"] = c["literals_ml"]
        out["area_ge"] = c["area_ge"]
    elif w == "faultsim":
        out["campaign_faults_per_s"] = c["campaign_faults"] / median(s["campaign_s"])
        out["baseline_faults_per_s"] = c["baseline_faults"] / median(s["baseline_s"])
        out["baseline_sample_fraction"] = c["baseline_faults"] / c["baseline_fault_list"]
        out["bist_coverage"] = c["campaign_detected"] / c["campaign_faults"]
    elif w == "fleet":
        out["instances_per_s"] = median(s["instances"]) / median(rec["pass_s"])
    elif w == "sweep":
        jobs = s["job_s"]
        deadline = c["deadline_s"]
        p = select_percentile(len(jobs))
        out["job_samples"] = len(jobs)
        out["job_s_p50"] = percentile(jobs, 50)
        out["job_s_p%d" % p] = percentile(jobs, p)
        out["deadline_overrun_s"] = sum(max(0.0, t - deadline) for t in jobs)
        out["sim_fraction"] = c["sweep.faults_simulated"] / c["netlist.faults"]
    return out


def load_spans(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    return [
        {
            "name": e["name"],
            "layer": e["cat"],
            "dur": e["dur"] / 1e6,
            "id": e["args"]["id"],
            "parent": e["args"]["parent"],
            "probe": bool(e["args"].get("probe")),
        }
        for e in events
    ]


def self_times(spans):
    """Per-layer self time: each span's duration minus what its children
    cover (clamped at zero where concurrent children overlap)."""
    child = {}
    for s in spans:
        child[s["parent"]] = child.get(s["parent"], 0.0) + s["dur"]
    out = {}
    for s in spans:
        own = max(0.0, s["dur"] - child.get(s["id"], 0.0))
        out[s["layer"]] = out.get(s["layer"], 0.0) + own
    return out


def descendants(spans, root_name):
    """Spans below the span named `root_name`."""
    inside = {s["id"] for s in spans if s["name"] == root_name}
    out = []
    for s in spans:  # parents precede their children in the trace
        if s["parent"] in inside:
            inside.add(s["id"])
            out.append(s)
    return out


SPAN_TIMES = {
    "ostr.solve_s": ("ostr.solve_ostr",),
    "ostr.realize_s": ("ostr.build_realization",),
    "ostr.verify_s": ("ostr.verify_realization",),
    "encoding.encode_s": ("encoding.encode_fsm",),
    "logic.minimize_s": ("logic.minimize_for",),
    "logic.factor_s": ("logic.extract_factored",),
    "bist.build_s": tuple("bist.build_fig%d" % k for k in range(1, 5)),
    "bist.campaign_s": ("bist.run_fault_campaign",),
    "bist.baseline_s": ("bist.measure_functional_coverage",),
    "fleet.run_s": ("fleet.run_fleet",),
}

# Every name workload_report() can give, across the workloads.
REPORT_NAMES = ("error_rate", "peak_rss_mb", "literals_ml", "campaign_faults_per_s",
                "baseline_faults_per_s", "bist_coverage", "instances_per_s",
                "job_s_p50", "job_s_p90", "deadline_overrun_s", "sim_fraction")

SELF_TIME_LAYERS = ("fsm", "ostr", "encoding", "logic", "bist", "fleet", "jobs")


def per_layer(rec, spans):
    """Per-layer metrics of a traced run: span-derived times (traced set-up
    and pass), counters of the untraced pass, the workload report and the
    tracing overhead."""
    c = rec["counters"]
    out = {}
    for metric, names in SPAN_TIMES.items():
        total = sum(s["dur"] for s in spans if s["name"] in names)
        out[metric] = total if total > 0 else c.get(metric, 0.0)
    for name in ("ostr.nodes_investigated", "ostr.nodes_pruned", "partition.interned",
                 "logic.literals_2l", "logic.factored_nodes", "netlist.nets",
                 "netlist.faults", "bist.session_runs", "bist.cycles_simulated",
                 "fleet.packed_runs", "jobs.pool_utilization", "jobs.busy_s",
                 "jobs.tasks", "jobs.steals", "jobs.cache_hit_rate", "jobs.degraded"):
        out[name] = c.get(name, 0.0)
    lookups = c.get("partition.memo_lookups", 0.0)
    out["partition.memo_hit_rate"] = c["partition.memo_hits"] / lookups if lookups else 0.0
    possible = c.get("bist.ops_possible", 0.0)
    out["bist.activity"] = c["bist.ops_evaluated"] / possible if possible else 0.0
    faults = c.get("campaign_faults", 0.0)
    out["bist.collapse_ratio"] = c["bist.collapsed_total"] / faults if faults else 0.0
    base = c.get("baseline_faults", 0.0)
    out["bist.baseline_s_per_fault"] = out["bist.baseline_s"] / base if base else 0.0

    jobs = rec["series"].get("job_s", [])
    if jobs:
        deadline = c["deadline_s"]
        over = [max(0.0, t - deadline) for t in jobs]
        out["budget.overrun_s_p90"] = percentile(over, 90)
        tolerance = max(0.010, 0.2 * deadline)
        out["budget.jobs_over_deadline"] = sum(t > deadline + tolerance for t in jobs)
    else:
        out["budget.overrun_s_p90"] = out["budget.jobs_over_deadline"] = 0.0

    selft = self_times(spans)
    for layer in SELF_TIME_LAYERS:
        out[layer + ".self_s"] = selft.get(layer, 0.0)
    probe_s = sum(s["dur"] for s in descendants(spans, "bench.pass")
                  if s["probe"])
    out["trace.overhead_frac"] = (
        (rec["traced_pass_s"] - probe_s) / median(rec["pass_s"]) - 1.0)

    out.update(dict.fromkeys(REPORT_NAMES, 0.0))
    out.update(workload_report(rec))
    return out
