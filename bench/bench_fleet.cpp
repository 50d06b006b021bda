// Fleet-simulation throughput (google-benchmark): deployment-scale BIST
// runs on the pair-packed bit-parallel kernel.
//
// Axes and counters:
//   * BM_FleetShard/width:K      -- one warm 2048-instance shard (512
//     lanes) at MISR width K:
//     instances/sec of the inner kernel, plus the measured alias and
//     escape rates (quality counters: the alias rate should track 2^-K).
//   * BM_Fleet_Jobs/jobs:N       -- a whole run_fleet pass as the worker
//     pool widens (thread-scaling of the shard fan-out; counts are
//     bit-identical at every N, only the time moves).
//   * BM_Fleet_ShardSize/shard:S -- shards of 32, 128 and 256 instances,
//     which the kernel packs at 64, 256 and 512 lanes (S instances per
//     self-test run).
//   * BM_Fleet_Default/<machine>  -- run_fleet with the default options
//     (widths 8/16/24/40 plus the seven-point test-length curve, one
//     worker) on dk27 and tbk fig4: every chip simulated once and read by
//     eleven observers; instances_per_sec counts simulated chips.
//
// Archived as BENCH_fleet.json; scripts/bench_diff.py renders a dedicated
// fleet section (instances/sec regressions and alias-rate drift).

#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <string>

#include "fleet/fleet.hpp"
#include "jobs/cache.hpp"

namespace {

using namespace stc;

/// Cached fig4 structures shared by every benchmark iteration (synthesis
/// cost stays out of the measured loop).
const ControllerStructure& fig4_of(const std::string& machine) {
  static JobCache cache;
  static std::map<std::string, std::shared_ptr<const ControllerStructure>> held;
  std::shared_ptr<const ControllerStructure>& s = held[machine];
  if (!s)
    s = cache.structure(cache.machine(machine), ArchKind::kFig4,
                        Technology::kTwoLevel, OstrOptions{}, Budget{});
  return *s;
}

const ControllerStructure& dk27_fig4() { return fig4_of("dk27"); }

FleetOptions fleet_options(std::uint64_t instances) {
  FleetOptions opt;
  opt.instances = instances;
  opt.misr_widths = {16};
  opt.plan = SelfTestPlan::two_session(64);
  opt.curve_cycles.clear();  // benches measure the sweep, not the curve
  return opt;
}

void report_quality(benchmark::State& state, const FleetShardStats& st,
                    double seconds) {
  state.counters["instances_per_sec"] = benchmark::Counter(
      seconds > 0.0 ? static_cast<double>(st.instances) * state.iterations() /
                          seconds
                    : 0.0);
  state.counters["alias_rate"] =
      st.po_stream_detected == 0
          ? 0.0
          : static_cast<double>(st.aliases) /
                static_cast<double>(st.po_stream_detected);
  state.counters["escape_rate"] =
      st.instances == 0 ? 0.0
                        : static_cast<double>(st.escapes) /
                              static_cast<double>(st.instances);
}

void BM_FleetShard(benchmark::State& state) {
  const ControllerStructure& cs = dk27_fig4();
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  const SelfTestPlan plan = SelfTestPlan::two_session(64);
  const std::vector<FleetObserver> observers = {FleetObserver{width}};
  auto warm = make_campaign_warm_state(cs);
  const FleetDefectSampler sampler = make_defect_sampler(cs, DefectSpec{});
  constexpr std::uint64_t kInstances = 2048;
  FleetShardStats st;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    st = run_fleet_shard(cs, plan, observers, *warm, 0xF1EE7, 0, kInstances,
                         sampler, Budget{})
             .front();
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
    benchmark::DoNotOptimize(st.sig_detected);
  }
  report_quality(state, st, seconds);
}
BENCHMARK(BM_FleetShard)
    ->ArgName("width")->Arg(8)->Arg(16)->Arg(24)->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_Fleet_Jobs(benchmark::State& state) {
  const ControllerStructure& cs = dk27_fig4();
  FleetOptions opt = fleet_options(16384);
  opt.jobs = static_cast<std::size_t>(state.range(0));
  opt.shard_instances = 1024;
  FleetReport rep;
  double seconds = 0.0;
  for (auto _ : state) {
    rep = run_fleet(cs, opt);
    seconds += rep.seconds;
    benchmark::DoNotOptimize(rep.widths.front().stats.sig_detected);
  }
  report_quality(state, rep.widths.front().stats, seconds);
}
BENCHMARK(BM_Fleet_Jobs)
    ->ArgName("jobs")->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_Fleet_ShardSize(benchmark::State& state) {
  const ControllerStructure& cs = dk27_fig4();
  FleetOptions opt = fleet_options(8192);
  opt.shard_instances = static_cast<std::size_t>(state.range(0));
  FleetReport rep;
  double seconds = 0.0;
  for (auto _ : state) {
    rep = run_fleet(cs, opt);
    seconds += rep.seconds;
    benchmark::DoNotOptimize(rep.widths.front().stats.sig_detected);
  }
  report_quality(state, rep.widths.front().stats, seconds);
}
BENCHMARK(BM_Fleet_ShardSize)
    ->ArgName("shard")->Arg(32)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_Fleet_Default(benchmark::State& state, const std::string& machine,
                      std::uint64_t instances) {
  const ControllerStructure& cs = fig4_of(machine);
  FleetOptions opt;
  opt.instances = instances;
  FleetReport rep;
  double seconds = 0.0;
  for (auto _ : state) {
    rep = run_fleet(cs, opt);
    seconds += rep.seconds;
    benchmark::DoNotOptimize(rep.widths.front().stats.sig_detected);
  }
  report_quality(state, rep.widths.front().stats, seconds);
  state.counters["observers"] =
      static_cast<double>(rep.widths.size() + rep.curve.size());
}
BENCHMARK_CAPTURE(BM_Fleet_Default, dk27, std::string("dk27"), 16384)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fleet_Default, tbk, std::string("tbk"), 1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
