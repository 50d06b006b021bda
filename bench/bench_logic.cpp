// Logic-minimizer benchmarks (google-benchmark).
//
// Families:
//   * BM_Espresso_* -- the single-output espresso wrapper per next-state
//     function, the per-output covers multi-level factoring starts from.
//   * BM_EspressoMv_<machine> -- the multi-output cube-calculus engine on
//     the full encoded specification of every corpus machine (next-state
//     and output bits minimized together over the shared input space), with
//     cube / literal counters. This is the per-machine minimization-
//     throughput series archived by CI as BENCH_logic.json.
//   * BM_Factor_<machine> -- greedy kernel/cube extraction on the
//     per-output espresso covers of each machine's combined block (the
//     input every multi-level build factors): extraction throughput plus
//     the two technology cost points (two-level PLA vs factored literals,
//     nodes) the area tables and scripts/bench_diff.py track across PRs.
//   * BM_FactorTruncated_s1 -- s1's per-output ON covers (espresso stopped
//     at zero rounds) factored under a 255-step work allowance: the shape
//     of every s1 multi-level job of a 200 ms sweep, whose deadline is
//     first checked at step 256, but deterministic.
//   * BM_BuildAllFigs/<machine> -- figs. 1-4 in both technologies from one
//     EncodedFsm, as the synthesis flow builds them: figs. 1-3 share the
//     combined block through the encoding's memo, so the counters show one
//     minimization and one factoring of C per machine. The realization
//     (OSTR) is hoisted; the encoding is redone each iteration so every
//     iteration starts with an empty memo.

#include <benchmark/benchmark.h>

#include "benchdata/iwls93.hpp"
#include "bist/architectures.hpp"
#include "encoding/encoded_fsm.hpp"
#include "logic/cost.hpp"
#include "logic/espresso_lite.hpp"
#include "logic/factor.hpp"
#include "ostr/ostr.hpp"

namespace {

using namespace stc;

EncodedFsm encoded(const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  return encode_fsm(m, natural_encoding(m.num_states()));
}

void run_minimizer(benchmark::State& state, const char* machine) {
  const EncodedFsm enc = encoded(machine);
  std::size_t lits = 0, cubes = 0;
  for (auto _ : state) {
    lits = cubes = 0;
    for (const auto& tt : enc.next_state) {
      const Cover c = minimize_espresso(tt);
      lits += c.num_literals();
      cubes += c.num_cubes();
      benchmark::DoNotOptimize(c.num_cubes());
    }
  }
  state.counters["literals"] = static_cast<double>(lits);
  state.counters["cubes"] = static_cast<double>(cubes);
}

void BM_Espresso_Shiftreg(benchmark::State& s) { run_minimizer(s, "shiftreg"); }
void BM_Espresso_Dk27(benchmark::State& s) { run_minimizer(s, "dk27"); }
void BM_Espresso_Bbara(benchmark::State& s) { run_minimizer(s, "bbara"); }
void BM_Espresso_Dk16(benchmark::State& s) { run_minimizer(s, "dk16"); }

BENCHMARK(BM_Espresso_Shiftreg);
BENCHMARK(BM_Espresso_Dk27);
BENCHMARK(BM_Espresso_Bbara);
BENCHMARK(BM_Espresso_Dk16);

/// Whole-specification multi-output minimization of one corpus machine.
void run_mv(benchmark::State& state, const std::string& machine) {
  const EncodedFsm enc = encoded(machine);
  LogicCost cost;
  for (auto _ : state) {
    const CubeList r = minimize_espresso_mv(enc.spec);
    cost = pla_cost(r);
    benchmark::DoNotOptimize(r.num_cubes());
  }
  state.counters["vars"] = static_cast<double>(enc.num_vars());
  state.counters["cubes"] = static_cast<double>(cost.cubes);
  state.counters["literals"] = static_cast<double>(cost.literals);
  state.counters["gate_equivalents"] = cost.gate_equivalents;
}

/// Next-state and output tables of the combined block, in the order of
/// EncodedFsm::spec.
std::vector<TruthTable> combined_tables(const EncodedFsm& enc) {
  std::vector<TruthTable> tables = enc.next_state;
  tables.insert(tables.end(), enc.outputs.begin(), enc.outputs.end());
  return tables;
}

/// Greedy multi-level extraction on one machine's per-output covers: the
/// timed region is the extraction alone (the espresso input is hoisted),
/// and the counters carry both technology cost points.
void run_factor(benchmark::State& state, const std::string& machine) {
  const EncodedFsm enc = encoded(machine);
  const std::vector<Cover> covers = per_output_covers(combined_tables(enc));
  const LogicCost two = pla_cost(minimize_espresso_mv(enc.spec));
  LogicCost ml;
  std::size_t nodes = 0;
  for (auto _ : state) {
    const FactoredNetwork fn = extract_factored(covers);
    ml = factored_cost(fn);
    nodes = fn.num_nodes();
    benchmark::DoNotOptimize(fn.num_literals());
  }
  state.counters["literals_two_level"] = static_cast<double>(two.literals);
  state.counters["literals_multi_level"] = static_cast<double>(ml.literals);
  state.counters["ge_two_level"] = two.gate_equivalents;
  state.counters["ge_multi_level"] = ml.gate_equivalents;
  state.counters["nodes"] = static_cast<double>(nodes);
}

/// The factoring of an s1 multi-level sweep job without its clock: each
/// output's minimizer stops before its first round (its ON cover) and the
/// extraction after 255 steps.
void BM_FactorTruncated_s1(benchmark::State& state) {
  const EncodedFsm enc = encoded("s1");
  const std::vector<Cover> covers =
      per_output_covers(combined_tables(enc), Budget::work_limit(0));
  const Budget budget = Budget::work_limit(255);
  LogicCost ml;
  std::size_t nodes = 0;
  for (auto _ : state) {
    const FactoredNetwork fn = extract_factored(covers, budget);
    ml = factored_cost(fn);
    nodes = fn.num_nodes();
    benchmark::DoNotOptimize(fn.num_literals());
  }
  state.counters["literals_multi_level"] = static_cast<double>(ml.literals);
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_FactorTruncated_s1)->Unit(benchmark::kMillisecond);

/// Every structure of one machine from one fresh encoding per iteration.
void run_build_all(benchmark::State& state, const std::string& machine) {
  const MealyMachine m = load_benchmark(machine);
  const OstrResult ostr = solve_ostr(m, OstrOptions{});
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  double area = 0.0;
  BlockMemo::Stats memo;
  for (auto _ : state) {
    const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
    area = 0.0;
    for (const Technology tech : {Technology::kTwoLevel, Technology::kMultiLevel}) {
      area += build_fig1(enc, tech).nl.area_ge();
      area += build_fig2(enc, tech).nl.area_ge();
      area += build_fig3(enc, tech).nl.area_ge();
      area += build_fig4(m, real, tech).nl.area_ge();
    }
    benchmark::DoNotOptimize(area);
    memo = enc.block_memo->stats();
  }
  state.counters["area_ge"] = area;
  state.counters["minimizations"] = static_cast<double>(memo.minimizations);
  state.counters["factorings"] = static_cast<double>(memo.factorings);
  state.counters["memo_hits"] = static_cast<double>(memo.hits);
}

const int kRegistered = [] {
  for (const std::string& name : benchmark_names()) {
    benchmark::RegisterBenchmark(("BM_EspressoMv_" + name).c_str(),
                                 [name](benchmark::State& s) { run_mv(s, name); });
    benchmark::RegisterBenchmark(("BM_Factor_" + name).c_str(),
                                 [name](benchmark::State& s) { run_factor(s, name); });
  }
  for (const std::string name : {"dk16", "tbk"})
    benchmark::RegisterBenchmark(("BM_BuildAllFigs/" + name).c_str(),
                                 [name](benchmark::State& s) { run_build_all(s, name); })
        ->Unit(benchmark::kMillisecond);
  return 0;
}();

}  // namespace

BENCHMARK_MAIN();
