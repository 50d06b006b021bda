// Fault-simulation throughput (google-benchmark): serial stuck-at
// campaigns vs the bit-parallel event engine on the pipeline structure,
// single-session cost as a function of test length, and the compiled
// lane evaluator against the scalar interpreter. BM_FunctionalBaseline_*
// times the Fig. 1 functional baseline, which runs on the same lane engine.
//
// Campaign comparison: BM_FullFaultCampaign (the serial oracle, one
// self-test run per fault) vs BM_EventCampaign_* (event-driven: resident
// values, dense PLA-product sweep, sparse ORs) at the lane width the
// engine picks. They report faults simulated per second plus the mean
// per-cycle activity ratio and machine cycles/second. The lane-width axis
// ("lanes" = 64/256/512, i.e. 63/255/511 faults per run) lives on the
// evaluator bench BM_CompiledEvalEvent, where the width is a
// CompiledNetlist argument, so the archived BENCH_faultsim.json tracks the
// per-width trajectory across PRs (compare two archives with
// scripts/bench_diff.py).

#include <benchmark/benchmark.h>

#include "benchdata/iwls93.hpp"
#include "netlist/eval64.hpp"
#include "synth/flow.hpp"

namespace {

using namespace stc;

ControllerStructure pipeline_for(const char* name) {
  const MealyMachine m = load_benchmark(name);
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  return build_fig4(m, real);
}

ControllerStructure fig1_for(const char* name) {
  const MealyMachine m = load_benchmark(name);
  return build_fig1(encode_fsm(m, natural_encoding(m.num_states())));
}

ControllerStructure fig2_for(const char* name) {
  const MealyMachine m = load_benchmark(name);
  return build_fig2(encode_fsm(m, natural_encoding(m.num_states())));
}

void run_campaign_bench(benchmark::State& state, const ControllerStructure& cs,
                        std::size_t cycles, std::size_t threads) {
  CampaignOptions opt;
  opt.num_threads = threads;
  CampaignResult res;
  for (auto _ : state) {
    res = run_fault_campaign(cs, SelfTestPlan::two_session(cycles), opt);
    benchmark::DoNotOptimize(res.raw.detected);
  }
  state.counters["faults"] = static_cast<double>(res.raw.total);
  state.counters["detected"] = static_cast<double>(res.raw.detected);
  state.counters["classes"] = static_cast<double>(res.collapsed_total);
  state.counters["session_runs"] = static_cast<double>(res.session_runs);
  state.counters["activity"] = res.mean_activity();
  // Machine cycles simulated per second of wall time (x 64·W machine
  // copies each).
  state.counters["cycles_per_sec"] = benchmark::Counter(
      static_cast<double>(res.cycles_simulated) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  // The wide-lane headline metric: complete fault verdicts per second of
  // wall time (full list, pre-collapsing).
  state.counters["faults_per_sec"] = benchmark::Counter(
      static_cast<double>(res.raw.total) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_SelfTestSession(benchmark::State& state) {
  static const ControllerStructure cs = pipeline_for("dk27");
  const std::size_t cycles = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto sigs = run_self_test(cs, SelfTestPlan::two_session(cycles));
    benchmark::DoNotOptimize(sigs.output_sig);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * cycles));
}
BENCHMARK(BM_SelfTestSession)->Arg(64)->Arg(256)->Arg(1024);

// --- full campaigns: serial oracle vs the lane engine ------------------------

void BM_FullFaultCampaign(benchmark::State& state) {
  static const ControllerStructure cs = pipeline_for("dk27");
  std::size_t detected = 0, total = 0;
  for (auto _ : state) {
    const auto cov = measure_coverage(cs, SelfTestPlan::two_session(128));
    detected = cov.detected;
    total = cov.total;
    benchmark::DoNotOptimize(cov.detected);
  }
  state.counters["faults"] = static_cast<double>(total);
  state.counters["detected"] = static_cast<double>(detected);
}
BENCHMARK(BM_FullFaultCampaign);

// Campaign benchmark axis: threads. The engine picks each run's lane width
// from one worker's share of the fault classes.
void apply_campaign_axes(benchmark::internal::Benchmark* b) {
  b->ArgName("threads")->Arg(1)->Arg(2)->Arg(4);
}

void BM_EventCampaign_dk27_fig4(benchmark::State& state) {
  static const ControllerStructure cs = pipeline_for("dk27");
  run_campaign_bench(state, cs, 128, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_EventCampaign_dk27_fig4)->Apply(apply_campaign_axes);

// The larger conventional structures stress the engine with thousands of
// nets; the serial variant is bounded to tbk to keep the bench runnable
// (s1's serial campaign takes minutes).
void BM_FullFaultCampaignTbkFig1(benchmark::State& state) {
  static const ControllerStructure cs = fig1_for("tbk");
  for (auto _ : state) {
    const auto cov = measure_coverage(cs, SelfTestPlan::two_session(64));
    benchmark::DoNotOptimize(cov.detected);
  }
}
BENCHMARK(BM_FullFaultCampaignTbkFig1);

void BM_EventCampaign_tbk_fig1(benchmark::State& state) {
  static const ControllerStructure cs = fig1_for("tbk");
  run_campaign_bench(state, cs, 64, static_cast<std::size_t>(state.range(0)));
}
BENCHMARK(BM_EventCampaign_tbk_fig1)->Apply(apply_campaign_axes);

// The Fig. 1 functional baseline on the lane engine: tbk's full fig1 list
// at the flow's 512 cycles (FlowOptions::functional_cycles).
void BM_FunctionalBaseline_tbk_fig1(benchmark::State& state) {
  static const ControllerStructure cs = fig1_for("tbk");
  CoverageResult res;
  for (auto _ : state) {
    res = measure_functional_coverage(cs, 512);
    benchmark::DoNotOptimize(res.detected);
  }
  state.counters["faults"] = static_cast<double>(res.total);
  state.counters["detected"] = static_cast<double>(res.detected);
  state.counters["faults_per_sec"] = benchmark::Counter(
      static_cast<double>(res.total) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FunctionalBaseline_tbk_fig1)->Unit(benchmark::kMillisecond);

// s1: the largest bundled structure (~4.8k nets), on one thread.
void BM_EventCampaign_s1_fig1(benchmark::State& state) {
  static const ControllerStructure cs = fig1_for("s1");
  run_campaign_bench(state, cs, 64, 1);
}
BENCHMARK(BM_EventCampaign_s1_fig1);

// Fig. 2 puts the test-mode mux (test_mode ? T : R) in front of C, so its
// product literals sit at net level 3-4: the dense sweep admits them
// through its boundary level. Same length and thread count as s1 fig1.
void BM_EventCampaign_s1_fig2(benchmark::State& state) {
  static const ControllerStructure cs = fig2_for("s1");
  run_campaign_bench(state, cs, 64, 1);
}
BENCHMARK(BM_EventCampaign_s1_fig2);

void BM_EventCampaign_tbk_fig2(benchmark::State& state) {
  static const ControllerStructure cs = fig2_for("tbk");
  run_campaign_bench(state, cs, 64, 1);
}
BENCHMARK(BM_EventCampaign_tbk_fig2);

// shiftreg: the other machine named by the PR 2 acceptance bar.
void BM_CampaignSerialShiftreg(benchmark::State& state) {
  static const ControllerStructure cs = pipeline_for("shiftreg");
  for (auto _ : state) {
    const auto cov = measure_coverage(cs, SelfTestPlan::two_session(128));
    benchmark::DoNotOptimize(cov.detected);
  }
}
BENCHMARK(BM_CampaignSerialShiftreg);

void BM_EventCampaign_shiftreg_fig4(benchmark::State& state) {
  static const ControllerStructure cs = pipeline_for("shiftreg");
  run_campaign_bench(state, cs, 128, 1);
}
BENCHMARK(BM_EventCampaign_shiftreg_fig4);

// --- evaluator microbenchmarks ----------------------------------------------

void BM_NetlistStep(benchmark::State& state) {
  static const ControllerStructure cs = pipeline_for("shiftreg");
  auto st = cs.nl.initial_state();
  std::vector<bool> in(cs.nl.num_inputs(), false);
  std::vector<bool> values, out;
  std::size_t k = 0;
  for (auto _ : state) {
    in[0] = (++k) & 1;
    cs.nl.step(in, st, values, out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_NetlistStep);

void BM_CompiledEval64(benchmark::State& state) {
  static const ControllerStructure cs = fig1_for("tbk");
  const Netlist& nl = cs.nl;
  CompiledNetlist cn(nl);
  std::vector<std::uint64_t> in_lanes(nl.num_inputs(), 0);
  std::vector<std::uint64_t> dff_lanes(nl.num_dffs(), 0);
  std::vector<std::uint64_t> values(nl.num_nets());
  std::size_t k = 0;
  for (auto _ : state) {
    in_lanes[0] = (++k) & 1 ? ~std::uint64_t{0} : 0;
    cn.evaluate(in_lanes.data(), dff_lanes.data(), values.data());
    benchmark::DoNotOptimize(values[nl.num_nets() - 1]);
  }
  // 64 machine copies per evaluation.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_CompiledEval64);

// The lane-width axis: one event-driven cycle of tbk fig1 at 64/256/512
// lanes with a full batch of 64·W − 1 faults installed. faults_per_sec
// counts fault-cycles (one fault evaluated for one cycle) per second, the
// per-width throughput scripts/bench_diff.py tabulates against 64 lanes.
void BM_CompiledEvalEvent(benchmark::State& state) {
  static const ControllerStructure cs = fig1_for("tbk");
  const Netlist& nl = cs.nl;
  const unsigned W = static_cast<unsigned>(state.range(0)) / 64;
  CompiledNetlist cn(nl, W);
  const std::vector<Fault> faults = enumerate_stuck_faults(nl);
  std::vector<LaneFault> batch;
  for (unsigned lane = 1; lane < 64 * W; ++lane) {
    const Fault& f = faults[(lane - 1) % faults.size()];
    batch.push_back({f.net, f.stuck_value, lane});
  }
  cn.set_faults(batch);
  EventScratch ev;
  std::vector<std::uint64_t> in_lanes(nl.num_inputs() * W, 0);
  std::vector<std::uint64_t> dff_lanes(nl.num_dffs() * W, 0);
  std::size_t k = 0;
  for (auto _ : state) {
    const std::uint64_t word = (++k) & 1 ? ~std::uint64_t{0} : 0;
    for (unsigned w = 0; w < W; ++w) in_lanes[w] = word;
    cn.evaluate_event(in_lanes.data(), dff_lanes.data(), ev);
    benchmark::DoNotOptimize(ev.values[(nl.num_nets() - 1) * W]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * W);
  state.counters["faults_per_sec"] = benchmark::Counter(
      static_cast<double>(faults_per_run(W)) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["activity"] =
      ev.cycles == 0 ? 0.0
                     : static_cast<double>(ev.ops_evaluated) /
                           (static_cast<double>(ev.cycles) *
                            static_cast<double>(cn.num_ops()));
}
BENCHMARK(BM_CompiledEvalEvent)->ArgName("lanes")->Arg(64)->Arg(256)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
