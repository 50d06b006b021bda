// Corpus-wide integration properties: for every Table-1 machine the whole
// chain (OSTR -> realization -> verification -> gate level -> self-test)
// must hold together. These are the tests a downstream user relies on when
// feeding their own controllers through the flow.

#include <gtest/gtest.h>

#include "benchdata/iwls93.hpp"
#include "bist/session.hpp"
#include "fsm/kiss.hpp"
#include "fsm/minimize.hpp"
#include "fsm/simulate.hpp"
#include "ostr/verify.hpp"
#include "synth/report.hpp"

namespace stc {
namespace {

class CorpusMachine : public ::testing::TestWithParam<std::string> {
 protected:
  /// Budgeted solve so the big stand-ins stay fast in unit tests.
  OstrResult quick_solve(const MealyMachine& m) const {
    OstrOptions opts;
    opts.max_nodes = 20000;
    return solve_ostr(m, opts);
  }
};

TEST_P(CorpusMachine, OstrSolutionIsAlwaysConstructible) {
  const MealyMachine m = load_benchmark(GetParam());
  const OstrResult res = quick_solve(m);
  const Realization real = build_realization(m, res.best.pi, res.best.tau);
  const VerifyReport rep = verify_realization(m, real);
  EXPECT_TRUE(rep.ok()) << GetParam() << ": " << rep.detail;
}

TEST_P(CorpusMachine, RealizationNeverLosesBehavior) {
  const MealyMachine m = load_benchmark(GetParam());
  const OstrResult res = quick_solve(m);
  const Realization real = build_realization(m, res.best.pi, res.best.tau);
  EXPECT_TRUE(equivalent(m, real.machine)) << GetParam();
}

TEST_P(CorpusMachine, KissRoundTripPreservesBehavior) {
  const MealyMachine m = load_benchmark(GetParam());
  const MealyMachine re = parse_kiss2(write_kiss2(m));
  EXPECT_TRUE(equivalent(m, re)) << GetParam();
}

TEST_P(CorpusMachine, EpsilonIsConsistentWithMinimization) {
  const MealyMachine m = load_benchmark(GetParam());
  const Partition eps = state_equivalence(m);
  const MealyMachine min = minimize(m);
  // Reachable machines: minimized state count == #epsilon blocks.
  EXPECT_EQ(min.num_states(), eps.num_blocks()) << GetParam();
  EXPECT_TRUE(equivalent(m, min)) << GetParam();
}

TEST_P(CorpusMachine, FlipflopCostWithinDoubling) {
  const MealyMachine m = load_benchmark(GetParam());
  const OstrResult res = quick_solve(m);
  EXPECT_LE(res.best.flipflops, conventional_bist_flipflops(m)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Table1, CorpusMachine,
                         ::testing::Values("bbara", "bbtas", "dk14", "dk15",
                                           "dk17", "dk27", "mc", "shiftreg",
                                           "tav"),
                         [](const auto& info) { return info.param; });

// The three big stand-ins get a single cheaper smoke test each.
TEST(CorpusBig, BudgetedSolveStaysValid) {
  for (const char* name : {"dk16", "dk512", "s1", "tbk"}) {
    const MealyMachine m = load_benchmark(name);
    OstrOptions opts;
    opts.max_nodes = 2000;
    const OstrResult res = solve_ostr(m, opts);
    const Realization real = build_realization(m, res.best.pi, res.best.tau);
    EXPECT_TRUE(verify_realization(m, real, 8, 32).homomorphism_ok) << name;
    EXPECT_LE(res.best.flipflops, conventional_bist_flipflops(m)) << name;
  }
}

// --- end-to-end gate level on a small sample -----------------------------------

TEST(CorpusGateLevel, PipelineSelfTestBeatsConventionalOnFeedback) {
  for (const char* name : {"paper_fig5", "shiftreg", "tav"}) {
    const MealyMachine m = load_benchmark(name);
    const OstrResult ostr = solve_ostr(m);
    const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
    const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
    const ControllerStructure fig2 = build_fig2(enc);
    const ControllerStructure fig4 = build_fig4(m, real);

    const auto fb2 = measure_coverage(fig2, SelfTestPlan::conventional(512),
                                      faults_on_nets(fig2.feedback_nets));
    EXPECT_EQ(fb2.detected, 0u) << name;  // drawback (3)

    // The aliasing-hardened plan: narrow signature registers (shiftreg's
    // pipeline has a 1-bit factor) alias systematically under a single
    // seed; re-seeded sessions recover the coverage.
    const auto all4 = measure_coverage(fig4, SelfTestPlan::thorough(256));
    const auto all2 = measure_coverage(fig2, SelfTestPlan::conventional(512));
    EXPECT_GT(all4.coverage(), all2.coverage()) << name;
  }
}

TEST(CorpusGateLevel, AutonomousPlanProducesStableSignatures) {
  const MealyMachine m = load_benchmark("paper_fig5");
  const OstrResult ostr = solve_ostr(m);
  const Realization real = build_realization(m, ostr.best.pi, ostr.best.tau);
  const ControllerStructure fig4 = build_fig4(m, real);
  const auto a = run_self_test(fig4, SelfTestPlan::autonomous(128));
  const auto b = run_self_test(fig4, SelfTestPlan::autonomous(128));
  EXPECT_EQ(a, b);
  // Autonomous mode still detects an easy fault (stuck primary input).
  const Fault f{fig4.pi[0], true};
  EXPECT_NE(run_self_test(fig4, SelfTestPlan::autonomous(128), f), a);
}

TEST(CorpusGateLevel, ReportRendersForEveryStructure) {
  const MealyMachine m = load_benchmark("shiftreg");
  FlowOptions opts;
  opts.with_fault_sim = true;
  opts.bist_cycles = 32;
  const FlowResult res = run_flow(m, opts);
  const std::string report = render_flow_report("shiftreg", res);
  for (const char* needle : {"fig1", "fig2", "fig3", "fig4", "OSTR", "coverage"})
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  const std::string summary = render_flow_summary("shiftreg", res);
  EXPECT_NE(summary.find("shiftreg"), std::string::npos);
}

// --- multi-level technology across the corpus ----------------------------------

/// Drive a structure's netlist functionally (test_mode = 0) with symbolic
/// inputs and compare outputs bit-for-bit against the machine.
void expect_structure_matches_fsm(const ControllerStructure& cs,
                                  const MealyMachine& m, std::uint64_t seed,
                                  std::size_t cycles) {
  Rng rng(seed);
  auto st = cs.nl.initial_state();
  State s = m.reset_state();
  const std::size_t obits = m.effective_output_bits();
  for (std::size_t k = 0; k < cycles; ++k) {
    const Input sym = static_cast<Input>(rng.below(m.num_inputs()));
    std::vector<bool> in(cs.nl.num_inputs(), false);
    for (std::size_t b = 0; b < cs.pi.size(); ++b)
      for (std::size_t slot = 0; slot < cs.nl.inputs().size(); ++slot)
        if (cs.nl.inputs()[slot] == cs.pi[b]) in[slot] = (sym >> b) & 1;
    const auto out = cs.nl.step(in, st);
    const Output expect = m.output(s, sym);
    for (std::size_t b = 0; b < obits && b < out.size(); ++b)
      ASSERT_EQ(out[b], ((expect >> b) & 1) != 0)
          << cs.kind << " cycle " << k << " output bit " << b;
    s = m.next(s, sym);
  }
}

/// fig2/fig3 in multi_level technology behave exactly like the machine
/// (fig1/fig4 get the stronger word-for-word differential in
/// factor_test.cpp; this closes the gap for the remaining structures).
TEST_P(CorpusMachine, MultiLevelFig2AndFig3StillImplementTheMachine) {
  const MealyMachine m = load_benchmark(GetParam());
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  expect_structure_matches_fsm(
      build_fig2(enc, Technology::kMultiLevel), m, 23, 150);
  expect_structure_matches_fsm(
      build_fig3(enc, Technology::kMultiLevel), m, 33, 150);
}

/// The multi-level flow runs end to end: realization still verifies, every
/// structure reports both technology cost points, and the factored point
/// never costs more literals than the flat PLA it came from.
TEST_P(CorpusMachine, MultiLevelFlowReportsBothCostPoints) {
  const MealyMachine m = load_benchmark(GetParam());
  FlowOptions opts;
  opts.ostr.max_nodes = 20000;
  opts.technology = Technology::kMultiLevel;
  const FlowResult res = run_flow(m, opts);
  EXPECT_TRUE(res.verification.ok()) << GetParam();
  for (const StructureReport* s : {&res.fig1, &res.fig2, &res.fig3, &res.fig4}) {
    EXPECT_EQ(s->technology, "multi_level") << s->kind;
    ASSERT_TRUE(s->logic_ml.has_value()) << s->kind;
    EXPECT_EQ(s->logic_ml->tech, Technology::kMultiLevel) << s->kind;
    EXPECT_EQ(s->logic.tech, Technology::kTwoLevel) << s->kind;
    EXPECT_LE(s->logic_ml->literals, s->logic.literals) << s->kind;
  }
  const std::string report = render_flow_report(GetParam(), res);
  EXPECT_NE(report.find("factored(ML)"), std::string::npos);
  EXPECT_NE(report.find("PLA(2L)"), std::string::npos);
}

}  // namespace
}  // namespace stc
