#include "fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <thread>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace stc {

WilsonInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                               double z) {
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      (z / denom) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  // At the boundaries center and half agree exactly in real arithmetic;
  // pin them so rounding residue never reports an impossible bound.
  const double lo = successes == 0 ? 0.0 : std::max(0.0, center - half);
  const double hi = successes == trials ? 1.0 : std::min(1.0, center + half);
  return {lo, hi};
}

double FleetWidthResult::theoretical_alias() const {
  return std::ldexp(1.0, -static_cast<int>(misr_width));
}

void FleetOptions::validate() const {
  std::vector<std::string> problems;
  if (instances == 0) problems.push_back("instances must be > 0");
  if (misr_widths.empty()) problems.push_back("misr_widths must be non-empty");
  for (std::size_t w : misr_widths)
    if (w < 1 || w > 64) {
      problems.push_back("every MISR width must be in [1, 64]");
      break;
    }
  if (shard_instances == 0) problems.push_back("shard_instances must be > 0");
  if (plan.sessions.empty()) problems.push_back("plan has no sessions");
  if (executor && jobs > 1)
    problems.push_back(
        "executor-owned fleets must keep jobs == 1 (the scheduler owns the "
        "worker pool; a nested pool would oversubscribe it)");
  if (!problems.empty()) {
    std::string joined;
    for (const std::string& p : problems) {
      if (!joined.empty()) joined += "; ";
      joined += p;
    }
    throw Error(ErrorCode::kInvalidInput, "invalid fleet options", joined);
  }
}

namespace {

/// One sharded pass: simulate `instances` chips under `plan`, merging shard
/// stats in shard-index order (the merge order never affects the sums, but
/// a fixed order keeps even hypothetical float fields deterministic).
FleetShardStats run_fleet_pass(const ControllerStructure& cs,
                               const SelfTestPlan& plan,
                               CampaignWarmState& warm,
                               const FleetOptions& opt,
                               const FleetDefectSampler& sampler,
                               std::uint64_t instances) {
  const std::uint64_t per_shard = opt.shard_instances;
  const std::size_t n_shards =
      static_cast<std::size_t>((instances + per_shard - 1) / per_shard);
  std::vector<FleetShardStats> shard_stats(n_shards);
  auto shard_fn = [&](std::size_t s) {
    const std::uint64_t first = static_cast<std::uint64_t>(s) * per_shard;
    const std::uint64_t count = std::min(per_shard, instances - first);
    shard_stats[s] = run_fleet_shard(cs, plan, warm, opt.base_seed, first,
                                     count, sampler, opt.budget);
  };

  if (opt.executor && n_shards > 1) {
    opt.executor->run_chunks(n_shards, shard_fn);
  } else {
    std::size_t workers = opt.jobs != 0
                              ? opt.jobs
                              : std::max(1u, std::thread::hardware_concurrency());
    workers = std::min(workers, n_shards);
    // Chunk-strided worker assignment: worker t takes shards t, t+workers, ...
    run_on_threads(workers, [&](std::size_t t) {
      for (std::size_t s = t; s < n_shards; s += workers) shard_fn(s);
    });
  }

  FleetShardStats total;
  for (const FleetShardStats& s : shard_stats) total.merge(s);
  return total;
}

}  // namespace

FleetReport run_fleet(const ControllerStructure& cs, const FleetOptions& opt) {
  opt.validate();
  const auto t0 = std::chrono::steady_clock::now();

  FleetReport rep;
  rep.instances_requested = opt.instances;
  rep.base_seed = opt.base_seed;
  {
    std::ostringstream os;
    os << defect_model_name(opt.defects.model) << " (rate " << std::fixed
       << std::setprecision(2) << std::clamp(opt.defects.defect_rate, 0.0, 1.0)
       << ")";
    rep.distribution = os.str();
  }

  const FleetDefectSampler sampler = make_defect_sampler(cs, opt.defects);
  std::uint64_t requested_total = 0;

  for (std::size_t width : opt.misr_widths) {
    SelfTestPlan plan = opt.plan;
    plan.output_misr_width = width;
    std::shared_ptr<CampaignWarmState> warm =
        opt.warm ? opt.warm(width) : make_campaign_warm_state(cs, width);
    FleetWidthResult wr;
    wr.misr_width = width;
    wr.stats = run_fleet_pass(cs, plan, *warm, opt, sampler, opt.instances);
    requested_total += opt.instances;
    rep.widths.push_back(std::move(wr));
  }

  if (!opt.curve_cycles.empty() && opt.curve_instances > 0) {
    rep.curve_misr_width = opt.misr_widths.front();
    const std::uint64_t n = std::min(opt.curve_instances, opt.instances);
    std::shared_ptr<CampaignWarmState> warm =
        opt.warm ? opt.warm(rep.curve_misr_width)
                 : make_campaign_warm_state(cs, rep.curve_misr_width);
    for (std::size_t cycles : opt.curve_cycles) {
      SelfTestPlan plan = opt.plan;
      plan.output_misr_width = rep.curve_misr_width;
      for (SessionSpec& s : plan.sessions) s.cycles = cycles;
      FleetCurvePoint pt;
      pt.cycles_per_session = cycles;
      pt.stats = run_fleet_pass(cs, plan, *warm, opt, sampler, n);
      requested_total += n;
      rep.curve.push_back(std::move(pt));
    }
  }

  std::uint64_t simulated_total = rep.instances_simulated();
  for (const FleetCurvePoint& pt : rep.curve)
    simulated_total += pt.stats.instances;

  rep.degradation.stage = "fleet";
  rep.degradation.work_done = simulated_total;
  rep.degradation.work_total = requested_total;
  if (simulated_total < requested_total) {
    rep.degradation.degraded = true;
    Budget probe = opt.budget;  // deadline absolute, cancel token shared
    rep.degradation.reason = probe.exhausted() ? probe.reason() : "budget";
    std::ostringstream os;
    os << simulated_total << "/" << requested_total
       << " instances simulated -- partial counts are exact";
    rep.degradation.detail = os.str();
  }

  rep.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              t0)
                    .count();
  return rep;
}

std::string render_fleet_report(const FleetReport& rep) {
  std::ostringstream os;
  os << "fleet: " << rep.instances_requested
     << " instances per MISR width, base seed 0x" << std::hex << rep.base_seed
     << std::dec << ", defects " << rep.distribution << "\n";

  os << "  width |  empirical alias  |      wilson 95% CI      |     2^-k    "
        "| escape rate | detect\n";
  for (const FleetWidthResult& w : rep.widths) {
    const WilsonInterval ci = w.alias_interval();
    os << "  " << std::setw(5) << w.misr_width << " | " << std::scientific
       << std::setprecision(3) << std::setw(12) << w.alias_probability()
       << "      | [" << w.stats.aliases << "/" << w.stats.po_stream_detected
       << ": " << std::setprecision(2) << ci.lo << ", " << ci.hi << "] | "
       << std::setprecision(3) << w.theoretical_alias() << " | "
       << w.escape_rate() << "   | " << std::fixed << std::setprecision(4)
       << w.detection_rate() << "\n";
    os.unsetf(std::ios::floatfield);
  }

  // Signature-histogram spread of the first width: a cheap uniformity
  // check on the compaction (a healthy MISR spreads defective signatures
  // evenly over the 64 buckets).
  if (!rep.widths.empty() && rep.widths.front().stats.defective > 0) {
    const auto& h = rep.widths.front().stats.signature_histogram;
    std::uint64_t lo = h[0], hi = h[0];
    for (std::uint64_t b : h) {
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    os << "  signature histogram (width " << rep.widths.front().misr_width
       << ", 64 buckets): min " << lo << ", max " << hi << "\n";
  }

  if (!rep.curve.empty()) {
    os << "  test-length curve (MISR width " << rep.curve_misr_width << "):\n";
    os << "    cycles/session   detect    alias\n";
    for (const FleetCurvePoint& pt : rep.curve) {
      os << "    " << std::setw(14) << pt.cycles_per_session << "   "
         << std::fixed << std::setprecision(4) << pt.detection_rate() << "   "
         << std::scientific << std::setprecision(2) << pt.alias_probability()
         << "\n";
      os.unsetf(std::ios::floatfield);
    }
  }

  if (rep.degradation.degraded)
    os << "  " << render_degradation(rep.degradation) << "\n";

  std::uint64_t sim = rep.instances_simulated();
  for (const FleetCurvePoint& pt : rep.curve) sim += pt.stats.instances;
  os << "  simulated " << sim << " instances in " << std::fixed
     << std::setprecision(2) << rep.seconds << " s";
  if (rep.seconds > 0.0)
    os << " (" << std::setprecision(0)
       << static_cast<double>(sim) / rep.seconds << " instances/s)";
  os << "\n";
  return os.str();
}

}  // namespace stc
