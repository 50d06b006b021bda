// Anytime-correctness suite for the budget/cancellation layer
// (util/budget.hpp): every governed stage must return a VALID result under
// ANY budget -- unlimited, tight deadlines, tiny work allowances, zero,
// or cancellation -- with truncations labeled via Degradation records.
// Work-allowance budgets are additionally deterministic, so result cost
// must be monotonically non-increasing in the allowance.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "benchdata/iwls93.hpp"
#include "bist/architectures.hpp"
#include "logic/espresso_lite.hpp"
#include "logic/factor.hpp"
#include "netlist/eval64.hpp"
#include "ostr/verify.hpp"
#include "synth/flow.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace stc {
namespace {

// --- Budget semantics --------------------------------------------------------

TEST(Budget, DefaultIsUnlimited) {
  Budget b;
  EXPECT_TRUE(b.is_unlimited());
  EXPECT_FALSE(b.exhausted());
  for (int i = 0; i < 10'000; ++i) EXPECT_FALSE(b.spend());
  EXPECT_STREQ(b.reason(), "");
}

TEST(Budget, WorkAllowanceIsExactAndDeterministic) {
  Budget b = Budget::work_limit(5);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(b.spend()) << i;
  EXPECT_TRUE(b.spend());
  EXPECT_STREQ(b.reason(), "work-allowance");
  EXPECT_FALSE(b.is_unlimited());
}

TEST(Budget, ZeroAllowanceNeedsThePointCheck) {
  // spend() only trips AFTER the allowance is crossed, so zero-budget
  // early-outs must combine exhausted() with work_allowance() == 0.
  Budget b = Budget::work_limit(0);
  EXPECT_EQ(b.work_allowance(), 0u);
  EXPECT_FALSE(b.exhausted());
  EXPECT_TRUE(b.spend());
}

TEST(Budget, ExpiredDeadlineReportsDeadline) {
  Budget b = Budget::deadline_ms(0);
  EXPECT_TRUE(b.exhausted());
  EXPECT_STREQ(b.reason(), "deadline");
}

TEST(Budget, CancelTokenSharedAcrossCopies) {
  auto token = std::make_shared<CancelToken>();
  Budget a = Budget().with_cancel(token);
  Budget b = a;  // value copy, shared token
  EXPECT_FALSE(a.exhausted());
  token->request();
  EXPECT_TRUE(a.exhausted());
  EXPECT_TRUE(b.exhausted());
  EXPECT_STREQ(a.reason(), "cancelled");
  token->reset();
  EXPECT_FALSE(a.exhausted());
}

// --- helpers -----------------------------------------------------------------

std::vector<TruthTable> all_tables(const EncodedFsm& enc) {
  std::vector<TruthTable> tables = enc.next_state;
  tables.insert(tables.end(), enc.outputs.begin(), enc.outputs.end());
  return tables;
}

/// The budget grid every stage is run through: unlimited, a generous and
/// a punishing deadline, tiny work allowances, zero, and cancelled.
std::vector<Budget> budget_grid() {
  auto cancelled = std::make_shared<CancelToken>();
  cancelled->request();
  return {Budget::unlimited(),   Budget::deadline_ms(50),
          Budget::deadline_ms(1), Budget::deadline_ms(0),
          Budget::work_limit(3),  Budget::work_limit(1),
          Budget::work_limit(0),  Budget().with_cancel(cancelled)};
}

// --- espresso under every budget ---------------------------------------------

class CorpusAnytime : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusAnytime, EspressoImplementsSpecUnderEveryBudget) {
  const MealyMachine m = load_benchmark(GetParam());
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const std::vector<TruthTable> tables = all_tables(enc);

  for (const Budget& b : budget_grid()) {
    Degradation deg;
    const CubeList r = minimize_espresso_mv(enc.spec, b, &deg);
    EXPECT_TRUE(r.implements(tables)) << GetParam();
    if (b.is_unlimited()) EXPECT_FALSE(deg.degraded);
    if (deg.degraded) {
      EXPECT_EQ(deg.stage, "espresso");
      EXPECT_FALSE(deg.reason.empty());
    }
  }
}

TEST_P(CorpusAnytime, EspressoCostMonotoneInWorkAllowance) {
  const MealyMachine m = load_benchmark(GetParam());
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  // Allowance w >= 1 runs the first min(w, fixpoint) rounds and keeps the
  // best cover seen, so cost can only go down as w grows. (w = 0 returns
  // the unminimized merged ON cover and is checked for validity above.)
  double prev = -1.0;
  for (std::uint64_t w = 1; w <= 6; ++w) {
    const LogicCost c =
        pla_cost(minimize_espresso_mv(enc.spec, Budget::work_limit(w)));
    if (prev >= 0.0)
      EXPECT_LE(c.gate_equivalents, prev) << GetParam() << " allowance " << w;
    prev = c.gate_equivalents;
  }
}

// --- factoring under every budget --------------------------------------------

TEST_P(CorpusAnytime, FactoringStaysExactUnderEveryBudget) {
  const MealyMachine m = load_benchmark(GetParam());
  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  if (enc.num_vars() > 12) GTEST_SKIP() << "minterm sweep impractical";
  const std::vector<TruthTable> tables = all_tables(enc);
  const CubeList pla = minimize_espresso_mv(enc.spec);
  // Zero-budget baseline: the flat SOPs re-emitted with no extraction.
  // (Literal counts live in the factored expression space, where shared
  // PLA products are duplicated per output -- not comparable with the
  // two-level PLA literal count.)
  const std::size_t flat_literals =
      extract_factored(pla, Budget::work_limit(0)).num_literals();
  // Algebraic identity at every stopping point: exhaustive equivalence
  // against the functions of the factoring input.
  const auto expect_exact = [&](const FactoredNetwork& fn, const char* input,
                                const auto& reference) {
    std::vector<bool> node_vals, out_vals;
    const Minterm total = Minterm{1} << enc.num_vars();
    for (Minterm mm = 0; mm < total; ++mm) {
      fn.evaluate_all(mm, node_vals, out_vals);
      for (std::size_t bbit = 0; bbit < tables.size(); ++bbit)
        ASSERT_EQ(out_vals[bbit], reference(mm, bbit))
            << GetParam() << " " << input << " minterm " << mm << " output " << bbit;
    }
  };

  for (const Budget& b : budget_grid()) {
    Degradation deg;
    const FactoredNetwork fn = extract_factored(pla, b, &deg);
    fn.check();
    // Never worse than the flat PLA it started from.
    EXPECT_LE(fn.num_literals(), flat_literals) << GetParam();
    expect_exact(fn, "pla",
                 [&](Minterm mm, std::size_t bbit) { return pla.evaluate(mm, bbit); });
    if (deg.degraded) EXPECT_EQ(deg.stage, "factor");
  }

  // The flow's own factoring input: one espresso cover per output.
  const std::vector<Cover> covers = per_output_covers(enc.spec);
  for (const Budget& b : budget_grid()) {
    Degradation deg;
    const FactoredNetwork fn = extract_factored(covers, b, &deg);
    fn.check();
    expect_exact(fn, "covers", [&](Minterm mm, std::size_t bbit) {
      return covers[bbit].evaluate(mm);
    });
    if (deg.degraded) {
      EXPECT_EQ(deg.stage, "factor");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKissMachines, CorpusAnytime,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& info) { return info.param; });

// --- OSTR under every budget -------------------------------------------------

TEST(AnytimeOstr, ValidSymmetricPairUnderEveryBudget) {
  const MealyMachine m = load_benchmark("tav");
  for (const Budget& b : budget_grid()) {
    OstrOptions opt;
    opt.budget = b;
    const OstrResult res = solve_ostr(m, opt);
    // The doubling incumbent exists at budget zero, so best is never absent.
    const Realization real = build_realization(m, res.best.pi, res.best.tau);
    EXPECT_TRUE(verify_realization(m, real).ok());
    EXPECT_EQ(res.degradation.degraded, !res.stats.exhausted);
    if (res.degradation.degraded) {
      EXPECT_EQ(res.degradation.stage, "ostr");
      EXPECT_FALSE(res.degradation.reason.empty());
    }
  }
}

TEST(AnytimeOstr, FlipflopsMonotoneInNodeAllowance) {
  const MealyMachine m = load_benchmark("dk16");
  std::size_t prev = SIZE_MAX;
  for (const std::uint64_t nodes : {0ull, 8ull, 64ull, 512ull, 100'000ull}) {
    OstrOptions opt;
    opt.budget = Budget::work_limit(nodes);
    const OstrResult res = solve_ostr(m, opt);
    // Deterministic visit order: a larger allowance sees a superset of
    // candidate pairs, so the best cost can only improve.
    EXPECT_LE(res.best.flipflops, prev) << "allowance " << nodes;
    prev = res.best.flipflops;
  }
}

// --- fault campaigns: truncation and cancellation ----------------------------

ControllerStructure fig1_of(const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  return build_fig1(encode_fsm(m, natural_encoding(m.num_states())));
}

ControllerStructure fig3_of(const std::string& name) {
  const MealyMachine m = load_benchmark(name);
  return build_fig3(encode_fsm(m, natural_encoding(m.num_states())));
}

TEST(AnytimeCampaign, MidCampaignTruncationReportsPartialCoverage) {
  const ControllerStructure cs = fig1_of("bbara");
  const SelfTestPlan plan = SelfTestPlan::two_session(48);
  CampaignOptions opt;
  opt.num_threads = 1;  // deterministic truncated subset
  opt.budget = Budget::work_limit(2);  // two fault classes, then stop
  const CampaignResult r = run_fault_campaign(cs, plan, opt);

  EXPECT_LT(r.faults_simulated, r.raw.total);
  EXPECT_GT(r.faults_simulated, 0u);
  EXPECT_EQ(r.raw.simulated, r.faults_simulated);
  EXPECT_LT(r.collapsed_simulated, r.collapsed_total);
  EXPECT_TRUE(r.degradation.degraded);
  EXPECT_EQ(r.degradation.stage, "campaign");
  EXPECT_EQ(r.degradation.reason, "work-allowance");
  // Verdicts of completed batches are exact; the pessimistic coverage()
  // counts everything unsimulated as undetected.
  EXPECT_LE(r.coverage(), r.raw.coverage_of_simulated());
  // undetected lists only simulated-but-undetected faults.
  EXPECT_LE(r.raw.detected + r.raw.undetected.size(), r.faults_simulated);
}

TEST(AnytimeCampaign, TruncatedVerdictsAgreeWithFullCampaign) {
  // bbara has more than one collapsed class, so a one-class allowance
  // genuinely truncates.
  const ControllerStructure cs = fig1_of("bbara");
  const SelfTestPlan plan = SelfTestPlan::two_session(48);
  CampaignOptions full_opt;
  full_opt.num_threads = 1;
  const CampaignResult full = run_fault_campaign(cs, plan, full_opt);

  CampaignOptions opt;
  opt.num_threads = 1;
  opt.budget = Budget::work_limit(1);
  const CampaignResult part = run_fault_campaign(cs, plan, opt);
  ASSERT_LT(part.faults_simulated, part.raw.total);
  // Every fault the truncated run DID simulate got the same verdict the
  // full campaign gives it (batches are exact, truncation only skips).
  EXPECT_LE(part.raw.detected, full.raw.detected);
  for (const Fault& f : part.raw.undetected) {
    bool in_full = false;
    for (const Fault& g : full.raw.undetected) in_full = in_full || (f == g);
    EXPECT_TRUE(in_full) << "net " << f.net;
  }
}

TEST(AnytimeCampaign, WorkLimitCountsFaultClasses) {
  // One work unit is one fault class: the last run is trimmed to the
  // allowance, so on one worker work_limit(k) simulates exactly k classes
  // at whatever lane width the engine picks (uncollapsed bbara fig3 has
  // 352 faults and runs 255 per run; k = 300 spans two runs).
  const ControllerStructure cs = fig3_of("bbara");
  const SelfTestPlan plan = SelfTestPlan::two_session(48);
  for (const std::uint64_t k : {1u, 70u, 300u}) {
    CampaignOptions opt;
    opt.num_threads = 1;
    opt.collapse = false;
    opt.budget = Budget::work_limit(k);
    const CampaignResult r = run_fault_campaign(cs, plan, opt);
    ASSERT_GT(r.collapsed_total, k);
    EXPECT_EQ(r.degradation.work_done, k);
    EXPECT_EQ(r.collapsed_simulated, k);
    EXPECT_EQ(r.faults_simulated, k);
    EXPECT_TRUE(r.degradation.degraded);
    EXPECT_EQ(r.degradation.reason, "work-allowance");
  }
}

TEST(AnytimeCampaign, PreCancelledCampaignSimulatesNothingButStaysValid) {
  const ControllerStructure cs = fig1_of("dk27");
  auto token = std::make_shared<CancelToken>();
  token->request();
  CampaignOptions opt;
  opt.budget.with_cancel(token);
  const CampaignResult r =
      run_fault_campaign(cs, SelfTestPlan::two_session(16), opt);
  EXPECT_EQ(r.faults_simulated, 0u);
  EXPECT_EQ(r.raw.detected, 0u);
  EXPECT_TRUE(r.degradation.degraded);
  EXPECT_EQ(r.degradation.reason, "cancelled");
  EXPECT_EQ(r.coverage(), 0.0);
}

TEST(AnytimeCampaign, MidFlightCancellationAcrossWorkerThreads) {
  // Cancellation arriving WHILE a threaded campaign runs (the TSan
  // scenario: the token is shared across worker budget copies). Whatever
  // the timing, the result must be valid: exact verdicts for completed
  // batches, consistent truncation accounting, a label when anything was
  // cut.
  const ControllerStructure cs = fig1_of("bbara");
  auto token = std::make_shared<CancelToken>();
  CampaignOptions opt;
  opt.num_threads = 4;
  opt.budget.with_cancel(token);
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    token->request();
  });
  const CampaignResult r =
      run_fault_campaign(cs, SelfTestPlan::two_session(256), opt);
  canceller.join();
  EXPECT_LE(r.faults_simulated, r.raw.total);
  EXPECT_EQ(r.raw.simulated, r.faults_simulated);
  EXPECT_LE(r.raw.detected + r.raw.undetected.size(), r.faults_simulated);
  if (r.faults_simulated < r.raw.total) {
    EXPECT_TRUE(r.degradation.degraded);
    EXPECT_EQ(r.degradation.reason, "cancelled");
  }
}

TEST(AnytimeCampaign, FunctionalCoverageHonorsTheBudget) {
  const ControllerStructure cs = fig1_of("dk27");
  Degradation deg;
  const CoverageResult r = measure_functional_coverage(
      cs, 64, std::nullopt, 0x5EED, Budget::work_limit(3), &deg);
  EXPECT_EQ(r.simulated, 3u);
  EXPECT_LT(r.simulated, r.total);
  EXPECT_TRUE(deg.degraded);
  EXPECT_EQ(deg.stage, "functional-coverage");

  // A limit that ends inside a later run still simulates exactly that many
  // faults: dk14's 142 faults run 63 per run, tbk's 2658 run 511 per run.
  for (const auto& [name, k] : {std::pair<const char*, std::size_t>{"dk14", 70},
                                {"tbk", 600}}) {
    Degradation later;
    const CoverageResult rk = measure_functional_coverage(
        fig1_of(name), 64, std::nullopt, 0x5EED, Budget::work_limit(k), &later);
    EXPECT_EQ(rk.simulated, k) << name;
    EXPECT_LT(rk.simulated, rk.total) << name;
    EXPECT_TRUE(later.degraded) << name;
    EXPECT_EQ(later.stage, "functional-coverage") << name;
  }
}

// --- the whole flow under a wall-clock budget --------------------------------

/// Word-for-word differential between a budget-built netlist and the
/// reference: identical outputs and next-state words on shared random
/// stimulus, every cycle.
void expect_equivalent(const Netlist& ref, const Netlist& got,
                       std::size_t cycles, std::uint64_t seed) {
  ASSERT_EQ(ref.num_inputs(), got.num_inputs());
  ASSERT_EQ(ref.num_outputs(), got.num_outputs());
  ASSERT_EQ(ref.num_dffs(), got.num_dffs());
  CompiledNetlist ca(ref), cb(got);
  std::vector<std::uint64_t> in(ref.num_inputs(), 0);
  std::vector<std::uint64_t> da(ref.num_dffs()), db(got.num_dffs());
  for (std::size_t k = 0; k < ref.num_dffs(); ++k) {
    da[k] = ref.gate(ref.dffs()[k]).dff_init ? ~std::uint64_t{0} : 0;
    db[k] = got.gate(got.dffs()[k]).dff_init ? ~std::uint64_t{0} : 0;
    ASSERT_EQ(da[k], db[k]);
  }
  std::vector<std::uint64_t> va(ref.num_nets()), vb(got.num_nets());
  Rng rng(seed);
  for (std::size_t cyc = 0; cyc < cycles; ++cyc) {
    for (auto& w : in) w = rng.next();
    ca.evaluate(in.data(), da.data(), va.data());
    cb.evaluate(in.data(), db.data(), vb.data());
    for (std::size_t o = 0; o < ref.num_outputs(); ++o)
      ASSERT_EQ(va[ref.outputs()[o]], vb[got.outputs()[o]]) << "cycle " << cyc;
    for (std::size_t k = 0; k < ref.num_dffs(); ++k) {
      da[k] = va[ca.dff_d(k)];
      db[k] = vb[cb.dff_d(k)];
      ASSERT_EQ(da[k], db[k]) << "cycle " << cyc;
    }
  }
}

TEST(AnytimeFlow, S1MultiLevelUnder50msStaysBehaviorExact) {
  // The acceptance scenario: the biggest corpus machine, full multi-level
  // flow, 50 ms wall clock. The flow must return valid netlists that match
  // the unbudgeted reference word for word; whatever was cut is labeled.
  const MealyMachine m = load_benchmark("s1");
  FlowOptions opts;
  opts.technology = Technology::kMultiLevel;
  opts.budget = Budget::deadline_ms(50);
  const FlowResult res = run_flow(m, opts);
  EXPECT_TRUE(res.verification.ok()) << res.verification.detail;

  const EncodedFsm enc = encode_fsm(m, natural_encoding(m.num_states()));
  const ControllerStructure ref = build_fig1(enc, Technology::kTwoLevel);
  // A separate encoding, so the budgeted build minimizes under its 50 ms
  // instead of taking ref's finished block from the shared memo.
  const EncodedFsm own = encode_fsm(m, natural_encoding(m.num_states()));
  const ControllerStructure got =
      build_fig1(own, Technology::kMultiLevel, Budget::deadline_ms(50));
  expect_equivalent(ref.nl, got.nl, 48, 0xA11F);
}

TEST(AnytimeFlow, ZeroBudgetFlowStillProducesValidStructures) {
  const MealyMachine m = load_benchmark("paper_fig5");
  FlowOptions opts;
  opts.technology = Technology::kMultiLevel;
  opts.budget = Budget::work_limit(0);
  const FlowResult res = run_flow(m, opts);
  EXPECT_TRUE(res.verification.ok()) << res.verification.detail;
  EXPECT_FALSE(res.ostr.stats.exhausted);
  EXPECT_TRUE(res.ostr.degradation.degraded);
  // Structures were still built; their netlists are non-trivial.
  for (const StructureReport* s : {&res.fig1, &res.fig2, &res.fig3, &res.fig4})
    EXPECT_GT(s->area_ge, 0.0) << s->kind;
}

TEST(AnytimeFlow, BudgetedMeasurementLabelsTruncatedCampaigns) {
  const MealyMachine m = load_benchmark("dk27");
  FlowOptions opts;
  opts.with_fault_sim = true;
  opts.bist_cycles = 32;
  opts.functional_cycles = 32;
  // Zero allowance: every campaign is skipped whole, which must still
  // produce a valid (pessimistic, fully labeled) report.
  opts.budget = Budget::work_limit(0);
  const FlowResult res = run_flow(m, opts);
  EXPECT_TRUE(res.verification.ok());
  bool any_campaign_label = false;
  for (const StructureReport* s : {&res.fig2, &res.fig3, &res.fig4})
    for (const Degradation& d : s->degradations)
      any_campaign_label = any_campaign_label || d.stage == "campaign";
  EXPECT_TRUE(any_campaign_label);
  // Truncated sweeps must not fabricate feedback-coverage numbers.
  for (const StructureReport* s : {&res.fig3, &res.fig4})
    for (const Degradation& d : s->degradations)
      if (d.stage == "campaign" && d.degraded)
        EXPECT_FALSE(s->feedback_coverage.has_value()) << s->kind;
}

}  // namespace
}  // namespace stc
