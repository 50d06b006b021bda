#pragma once
// Fleet-scale self-test deployment simulation.
//
// The paper's end product is a self-testing chip; this module simulates
// the deployment: millions of manufactured instances of one controller
// running their BIST concurrently. Instances are lane-packed 32·W per
// self-test run as (reference, faulty) pairs on the bit-parallel campaign
// engine (the allocation-free CampaignScratch loop, leased from a
// CampaignWarmState), each instance with its own SplitMix64-derived LFSR
// seeds and a defect set drawn from a pluggable distribution. Shards
// stream into FleetShardStats -- O(shards) memory, no per-instance
// materialization -- and the report compares the empirical MISR alias
// probability (with a Wilson interval) against the theoretical 2^-k bound
// per signature width, plus escape rates and test-length/coverage curves.
//
// Layering: this header depends only on bist/ + util/ (the executor seam
// is session.hpp's CampaignChunkExecutor), so jobs/ can orchestrate fleet
// runs without a dependency cycle.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bist/session.hpp"
#include "fleet/defects.hpp"
#include "util/budget.hpp"

namespace stc {

/// Wilson score interval for a binomial proportion: the right interval
/// for counts near 0 (alias events are rare), where the normal
/// approximation collapses to a zero-width lie.
struct WilsonInterval {
  double lo = 0.0, hi = 0.0;
};
WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z = 1.959964);

/// Supplies the warm (compiled program + scratch free-list) state for one
/// output-MISR width -- the JobCache wiring point. When absent, run_fleet
/// builds a local warm state per width.
using FleetWarmProvider =
    std::function<std::shared_ptr<CampaignWarmState>(std::size_t misr_width)>;

struct FleetOptions {
  /// Chip instances to simulate PER MISR width.
  std::uint64_t instances = 100000;
  /// Output-MISR widths to sweep (the 2^-k comparison axis).
  std::vector<std::size_t> misr_widths = {8, 16, 24, 40};
  /// Instances per scheduled shard. The shard partition is a function of
  /// this value only -- never of jobs/executor -- and every instance's
  /// outcome is a pure function of its id, so aggregate counts are
  /// bit-identical across worker counts AND shard sizes. Shards of >= 256
  /// (128) instances run at 512 (256) lanes, smaller ones at 64.
  std::size_t shard_instances = 4096;
  /// Worker threads when no executor is given (0 = hardware concurrency).
  std::size_t jobs = 1;
  /// Plan template; output_misr_width is overridden per sweep entry and
  /// session cycles per curve point.
  SelfTestPlan plan = SelfTestPlan::two_session(256);
  /// Test-length/coverage tradeoff curve: per-session cycle counts, run at
  /// misr_widths.front() on min(curve_instances, instances) instances.
  /// Empty curve_cycles or curve_instances == 0 skips the curve.
  std::vector<std::size_t> curve_cycles = {4, 8, 16, 32, 64, 128, 256};
  std::uint64_t curve_instances = 4096;
  std::uint64_t base_seed = 0xF1EE7;
  DefectSpec defects;
  /// Anytime governance: one work unit = one chip instance, charged per
  /// shard. Exhaustion truncates with exact partial counts, labeled in the
  /// report's degradation.
  Budget budget;
  /// Shared-pool hook (jobs/ scheduler); when set, `jobs` must stay 1.
  CampaignChunkExecutor* executor = nullptr;
  /// Warm-state source (JobCache). When absent, built locally.
  FleetWarmProvider warm;

  /// Reject every bad field in one typed Error before any work.
  void validate() const;
};

struct FleetWidthResult {
  std::size_t misr_width = 16;
  FleetShardStats stats;

  /// Empirical P(alias | error stream reached the outputs).
  double alias_probability() const {
    return stats.po_stream_detected == 0
               ? 0.0
               : static_cast<double>(stats.aliases) /
                     static_cast<double>(stats.po_stream_detected);
  }
  WilsonInterval alias_interval() const {
    return wilson_interval(stats.aliases, stats.po_stream_detected);
  }
  /// The theoretical bound the paper's MISR argument promises: 2^-k.
  double theoretical_alias() const;
  /// Defective chips shipped as good, over all instances.
  double escape_rate() const {
    return stats.instances == 0
               ? 0.0
               : static_cast<double>(stats.escapes) /
                     static_cast<double>(stats.instances);
  }
  /// Defective chips caught by their own signatures.
  double detection_rate() const {
    return stats.defective == 0
               ? 1.0
               : static_cast<double>(stats.sig_detected) /
                     static_cast<double>(stats.defective);
  }
};

struct FleetCurvePoint {
  std::size_t cycles_per_session = 0;
  FleetShardStats stats;
  double detection_rate() const {
    return stats.defective == 0
               ? 1.0
               : static_cast<double>(stats.sig_detected) /
                     static_cast<double>(stats.defective);
  }
  double alias_probability() const {
    return stats.po_stream_detected == 0
               ? 0.0
               : static_cast<double>(stats.aliases) /
                     static_cast<double>(stats.po_stream_detected);
  }
};

struct FleetReport {
  std::uint64_t instances_requested = 0;  // per width
  std::uint64_t base_seed = 0;
  std::string distribution;  // defect_model_name + rate, for the header
  std::vector<FleetWidthResult> widths;
  /// Test-length tradeoff at misr_widths.front(); empty when skipped.
  std::vector<FleetCurvePoint> curve;
  std::size_t curve_misr_width = 0;
  Degradation degradation;
  double seconds = 0.0;

  std::uint64_t instances_simulated() const {
    std::uint64_t n = 0;
    for (const FleetWidthResult& w : widths) n += w.stats.instances;
    return n;
  }
};

/// Run the fleet: for each MISR width, simulate `instances` chips in
/// shards (chunk-strided over the executor/worker pool), then the
/// test-length curve. Aggregates are bit-identical for every jobs value,
/// executor and shard size; only wall time differs.
FleetReport run_fleet(const ControllerStructure& cs, const FleetOptions& opt);

/// Multi-line human-readable report: per-width alias table (empirical vs
/// 2^-k with the Wilson CI), escape/detection rates, signature-histogram
/// spread, the test-length curve, and any degradation label.
std::string render_fleet_report(const FleetReport& rep);

}  // namespace stc
